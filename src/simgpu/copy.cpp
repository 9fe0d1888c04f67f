#include "simgpu/copy.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <initializer_list>

#include "util/clock.hpp"

namespace ckpt::sim {

namespace {

/// Charges `n` bytes to each of `links` in kCopyChunk steps, every chunk to
/// the limiters in list order, under the calling thread's I/O tag;
/// `after_chunk(done, chunk)` runs once the chunk is admitted.
template <typename AfterChunk>
void ChargeChunked(std::initializer_list<util::RateLimiter*> links,
                   std::uint64_t n, AfterChunk&& after_chunk) {
  const util::IoTag tag = util::CurrentIoTag();
  for (std::uint64_t done = 0; done < n;) {
    const std::uint64_t chunk = std::min(kCopyChunk, n - done);
    for (util::RateLimiter* link : links) link->Acquire(chunk, tag);
    after_chunk(done, chunk);
    done += chunk;
  }
}

void ChargeChunked(std::initializer_list<util::RateLimiter*> links,
                   std::uint64_t n) {
  ChargeChunked(links, n, [](std::uint64_t, std::uint64_t) {});
}

}  // namespace

util::Status ThrottledMemcpy(const Topology& topo, GpuId gpu, BytePtr dst,
                             ConstBytePtr src, std::uint64_t n, MemcpyKind kind) {
  if (dst == nullptr || src == nullptr) {
    return util::InvalidArgument("ThrottledMemcpy: null pointer");
  }
  if (n == 0) return util::InvalidArgument("ThrottledMemcpy: zero length");

  const auto& cfg = topo.config();
  if (cfg.copy_latency_ns > 0) {
    util::PreciseSleep(std::chrono::nanoseconds(cfg.copy_latency_ns));
  }

  const auto copy = [dst, src](std::uint64_t done, std::uint64_t chunk) {
    std::memcpy(dst + done, src + done, chunk);
  };
  util::RateLimiter* host = &topo.host_mem(gpu);
  switch (kind) {
    case MemcpyKind::kD2D:
      ChargeChunked({&topo.d2d(gpu)}, n, copy);
      break;
    case MemcpyKind::kD2H:
      ChargeChunked({&topo.pcie_link(gpu, Topology::LinkDir::kD2H), host}, n,
                    copy);
      break;
    case MemcpyKind::kH2D:
      ChargeChunked({&topo.pcie_link(gpu, Topology::LinkDir::kH2D), host}, n,
                    copy);
      break;
    case MemcpyKind::kH2H:
      ChargeChunked({host}, n, copy);
      break;
  }
  return util::OkStatus();
}

void ChargeNvme(const Topology& topo, Rank rank, std::uint64_t n) {
  ChargeChunked({&topo.nvme_for_rank(rank)}, n);
}

void ChargePfs(const Topology& topo, std::uint64_t n) {
  ChargeChunked({&topo.pfs()}, n);
}

void ChargePcie(const Topology& topo, GpuId gpu, std::uint64_t n,
                Topology::LinkDir dir) {
  ChargeChunked({&topo.pcie_link(gpu, dir), &topo.host_mem(gpu)}, n);
}

void ChargePcieLinkOnly(const Topology& topo, GpuId gpu, std::uint64_t n,
                        Topology::LinkDir dir) {
  ChargeChunked({&topo.pcie_link(gpu, dir)}, n);
}

void ChargeD2D(const Topology& topo, GpuId gpu, std::uint64_t n) {
  ChargeChunked({&topo.d2d(gpu)}, n);
}

void ChargeHostMem(const Topology& topo, GpuId gpu, std::uint64_t n) {
  ChargeChunked({&topo.host_mem(gpu)}, n);
}

}  // namespace ckpt::sim
