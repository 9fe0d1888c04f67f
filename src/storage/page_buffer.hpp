// Store-owned bytes of one checkpoint object: one anonymous private mapping
// sized to the object, unmapped when the buffer is released, overwritten or
// destroyed. The in-memory durable tiers (MemStore, RemoteStore and the
// AggregatingStore group buffer) hold object bytes only in this type.
//
// Why not std::vector: most checkpoint objects are ~128 KiB, which is
// glibc's initial mmap threshold. Freeing the first such heap-mapped blocks
// raises glibc's dynamic threshold, so later objects come from heap arenas
// that are not reliably returned to the kernel, and peak RSS then depends
// on allocation history rather than on the bytes the stores hold. A mapping
// per object makes the footprint the stored bytes, rounded up to pages.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simgpu/types.hpp"
#include "util/status.hpp"

namespace ckpt::storage {

class PageBuffer {
 public:
  PageBuffer() noexcept = default;
  /// Maps `size` zero-filled bytes; kOutOfMemory when the mapping fails.
  /// Size 0 maps nothing and yields an empty buffer.
  [[nodiscard]] static util::StatusOr<PageBuffer> Allocate(std::uint64_t size);
  /// Allocate(size) filled with a copy of `data[0, size)`.
  [[nodiscard]] static util::StatusOr<PageBuffer> CopyOf(
      sim::ConstBytePtr data, std::uint64_t size);

  PageBuffer(PageBuffer&& other) noexcept;
  PageBuffer& operator=(PageBuffer&& other) noexcept;
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;
  ~PageBuffer() { Release(); }

  /// Unmaps the bytes now; the buffer is empty afterwards.
  void Release() noexcept;

  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

 private:
  PageBuffer(std::byte* data, std::uint64_t size) noexcept
      : data_(data), size_(size) {}

  std::byte* data_ = nullptr;
  std::uint64_t size_ = 0;
};

}  // namespace ckpt::storage
