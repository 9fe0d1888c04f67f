// In-memory ObjectStore. Used as the backing medium for the simulated SSD
// and PFS tiers in benches (the bandwidth model supplies the timing; see
// ThrottledStore) and directly in unit tests. Each object's bytes live in
// their own PageBuffer (storage/page_buffer.hpp).
#pragma once

#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/object_store.hpp"
#include "storage/page_buffer.hpp"

namespace ckpt::storage {

class MemStore final : public ObjectStore {
 public:
  util::Status Put(const ObjectKey& key, sim::ConstBytePtr data,
                   std::uint64_t size) override;
  util::Status Get(const ObjectKey& key, sim::BytePtr dst,
                   std::uint64_t size) override;
  [[nodiscard]] util::StatusOr<std::uint64_t> Size(const ObjectKey& key) const override;
  [[nodiscard]] bool Exists(const ObjectKey& key) const override;
  util::Status Erase(const ObjectKey& key) override;
  [[nodiscard]] std::vector<ObjectKey> Keys() const override;
  [[nodiscard]] std::uint64_t TotalBytes() const override;
  util::Status GetRange(const ObjectKey& key, std::uint64_t offset,
                        sim::BytePtr dst, std::uint64_t len) override;

 private:
  mutable std::mutex mu_;
  std::unordered_map<ObjectKey, PageBuffer, ObjectKeyHash> objects_;
};

}  // namespace ckpt::storage
