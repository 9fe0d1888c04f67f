#include "simgpu/device.hpp"

#include <algorithm>

namespace ckpt::sim {

namespace {
constexpr std::uint64_t AlignUp(std::uint64_t n, std::uint64_t a) {
  return (n + a - 1) / a * a;
}
}  // namespace

Device::Device(GpuId id, std::uint64_t capacity, util::RateLimiter* alloc_limiter)
    : id_(id),
      capacity_(AlignUp(capacity, kAlignment)),
      alloc_limiter_(alloc_limiter),
      // Left uninitialized: the OS maps HBM pages on first touch, so a
      // mostly-idle simulated device costs no resident memory.
      arena_(std::make_unique_for_overwrite<std::byte[]>(capacity_)) {
  free_list_[0] = capacity_;
}

util::StatusOr<BytePtr> Device::Allocate(std::uint64_t n) {
  if (n == 0) return util::InvalidArgument("Allocate(0)");
  const std::uint64_t need = AlignUp(n, kAlignment);
  std::uint64_t offset = 0;
  {
    std::lock_guard lock(mu_);
    auto it = std::find_if(free_list_.begin(), free_list_.end(),
                           [&](const auto& kv) { return kv.second >= need; });
    if (it == free_list_.end()) {
      return util::OutOfMemory("device " + std::to_string(id_.local) +
                               ": no free block of " + std::to_string(need) +
                               " bytes");
    }
    offset = it->first;
    const std::uint64_t block = it->second;
    free_list_.erase(it);
    if (block > need) free_list_[offset + need] = block - need;
    allocations_[offset] = need;
  }
  // Pay the modeled allocation cost outside the lock, in chunks so the
  // limiter actually shapes it (a single acquire is admitted instantly by
  // the debt model).
  if (alloc_limiter_ != nullptr) {
    constexpr std::uint64_t kChunk = 64ull << 10;
    for (std::uint64_t paid = 0; paid < need; paid += kChunk) {
      alloc_limiter_->Acquire(std::min(kChunk, need - paid));
    }
  }
  return arena_.get() + offset;
}

util::Status Device::Free(BytePtr p) {
  if (!Owns(p)) return util::InvalidArgument("Free: pointer not in arena");
  const auto offset = static_cast<std::uint64_t>(p - arena_.get());
  std::lock_guard lock(mu_);
  auto it = allocations_.find(offset);
  if (it == allocations_.end()) {
    return util::InvalidArgument("Free: not an allocation start");
  }
  std::uint64_t start = offset;
  std::uint64_t size = it->second;
  allocations_.erase(it);

  // Coalesce with the following free block.
  auto next = free_list_.lower_bound(start);
  if (next != free_list_.end() && next->first == start + size) {
    size += next->second;
    free_list_.erase(next);
  }
  // Coalesce with the preceding free block.
  auto prev = free_list_.lower_bound(start);
  if (prev != free_list_.begin()) {
    --prev;
    if (prev->first + prev->second == start) {
      start = prev->first;
      size += prev->second;
      free_list_.erase(prev);
    }
  }
  free_list_[start] = size;
  return util::OkStatus();
}

std::uint64_t Device::used() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [off, size] : allocations_) total += size;
  return total;
}

std::uint64_t Device::free_bytes() const { return capacity_ - used(); }

std::uint64_t Device::largest_free_block() const {
  std::lock_guard lock(mu_);
  std::uint64_t best = 0;
  for (const auto& [off, size] : free_list_) best = std::max(best, size);
  return best;
}

bool Device::Owns(ConstBytePtr p) const noexcept {
  return p >= arena_.get() && p < arena_.get() + capacity_;
}

}  // namespace ckpt::sim
