#include "storage/page_buffer.hpp"

#include <sys/mman.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>

namespace ckpt::storage {

util::StatusOr<PageBuffer> PageBuffer::Allocate(std::uint64_t size) {
  if (size == 0) return PageBuffer{};
  // Leave headroom so the kernel's page rounding of the length cannot wrap.
  constexpr std::uint64_t kMaxSize =
      std::numeric_limits<std::size_t>::max() / 2;
  void* p = size > kMaxSize
                ? MAP_FAILED
                : ::mmap(nullptr, static_cast<std::size_t>(size),
                         PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0);
  if (p == MAP_FAILED) {
    return util::OutOfMemory("PageBuffer: cannot map " + std::to_string(size) +
                             " bytes");
  }
  return PageBuffer(static_cast<std::byte*>(p), size);
}

util::StatusOr<PageBuffer> PageBuffer::CopyOf(sim::ConstBytePtr data,
                                              std::uint64_t size) {
  auto buf = Allocate(size);
  if (buf.ok() && size > 0) {
    std::memcpy(buf->data(), data, static_cast<std::size_t>(size));
  }
  return buf;
}

PageBuffer::PageBuffer(PageBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

PageBuffer& PageBuffer::operator=(PageBuffer&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void PageBuffer::Release() noexcept {
  if (data_ != nullptr) ::munmap(data_, static_cast<std::size_t>(size_));
  data_ = nullptr;
  size_ = 0;
}

}  // namespace ckpt::storage
