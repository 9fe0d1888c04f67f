#include "storage/mem_store.hpp"

#include <cstring>
#include <utility>

namespace ckpt::storage {

util::Status MemStore::Put(const ObjectKey& key, sim::ConstBytePtr data,
                           std::uint64_t size) {
  if (data == nullptr && size > 0) return util::InvalidArgument("Put: null data");
  auto copy = PageBuffer::CopyOf(data, size);
  if (!copy.ok()) return copy.status();
  PageBuffer replaced;  // unmapped after the lock drops
  {
    std::lock_guard lock(mu_);
    replaced = std::exchange(objects_[key], std::move(*copy));
  }
  return util::OkStatus();
}

util::Status MemStore::Get(const ObjectKey& key, sim::BytePtr dst,
                           std::uint64_t size) {
  std::unique_lock lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return util::NotFound("object " + key.ToString());
  }
  const PageBuffer& obj = it->second;
  if (size < obj.size()) {
    return util::InvalidArgument("Get: buffer smaller than object " + key.ToString());
  }
  // Copy under the lock: Erase of the same key must not unmap the bytes
  // under the memcpy.
  if (!obj.empty()) std::memcpy(dst, obj.data(), obj.size());
  return util::OkStatus();
}

util::StatusOr<std::uint64_t> MemStore::Size(const ObjectKey& key) const {
  std::lock_guard lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return util::NotFound("object " + key.ToString());
  return it->second.size();
}

bool MemStore::Exists(const ObjectKey& key) const {
  std::lock_guard lock(mu_);
  return objects_.find(key) != objects_.end();
}

util::Status MemStore::Erase(const ObjectKey& key) {
  PageBuffer erased;  // unmapped after the lock drops
  {
    std::lock_guard lock(mu_);
    auto it = objects_.find(key);
    if (it == objects_.end()) return util::NotFound("object " + key.ToString());
    erased = std::move(it->second);
    objects_.erase(it);
  }
  return util::OkStatus();
}

std::vector<ObjectKey> MemStore::Keys() const {
  std::lock_guard lock(mu_);
  std::vector<ObjectKey> keys;
  keys.reserve(objects_.size());
  for (const auto& [k, v] : objects_) keys.push_back(k);
  return keys;
}

util::Status MemStore::GetRange(const ObjectKey& key, std::uint64_t offset,
                                sim::BytePtr dst, std::uint64_t len) {
  std::lock_guard lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return util::NotFound("object " + key.ToString());
  const PageBuffer& obj = it->second;
  if (offset + len > obj.size() || offset + len < offset) {
    return util::InvalidArgument("GetRange: out of bounds for " +
                                 key.ToString());
  }
  if (len > 0) {
    std::memcpy(dst, obj.data() + offset, static_cast<std::size_t>(len));
  }
  return util::OkStatus();
}

std::uint64_t MemStore::TotalBytes() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [k, v] : objects_) total += v.size();
  return total;
}

}  // namespace ckpt::storage
