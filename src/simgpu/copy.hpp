// Throttled memory transfers. Copies move real bytes (memcpy) in chunks,
// acquiring bandwidth tokens from the topology's shared limiters per chunk,
// so concurrent transfers genuinely interleave and contend exactly where the
// hardware would make them contend (PCIe link, DDR, NVMe, PFS). Every copy
// and charge below pays under the calling thread's I/O tag (tenant flow,
// weight and class; util::CurrentIoTag), so a caller attributes a transfer
// by scoping a util::ScopedIoTag around it, not by argument.
#pragma once

#include <cstdint>

#include "simgpu/topology.hpp"
#include "simgpu/types.hpp"
#include "util/status.hpp"

namespace ckpt::sim {

/// Transfer chunk granularity. Small enough that two concurrent copies on a
/// shared link interleave finely; large enough that limiter overhead is
/// negligible.
inline constexpr std::uint64_t kCopyChunk = 64ull << 10;

/// Synchronous throttled copy attributed to GPU `gpu`:
///  - kD2D  pays the GPU's on-device copy-engine bandwidth;
///  - kD2H / kH2D pay the GPU pair's shared PCIe link, then node DDR;
///  - kH2H  pays node DDR only.
/// A fixed per-operation launch latency (config.copy_latency_ns) is paid
/// once. Returns kInvalidArgument for null pointers or n == 0.
util::Status ThrottledMemcpy(const Topology& topo, GpuId gpu, BytePtr dst,
                             ConstBytePtr src, std::uint64_t n, MemcpyKind kind);

/// Pays storage bandwidth for `n` bytes written to / read from the NVMe
/// drive assigned to `rank` (no data movement; the SSD tier moves the bytes
/// through file I/O and calls this for timing).
void ChargeNvme(const Topology& topo, Rank rank, std::uint64_t n);

/// Pays the global PFS uplink for `n` bytes.
void ChargePfs(const Topology& topo, std::uint64_t n);

/// Pays PCIe link + host DDR bandwidth for `n` bytes without moving data
/// (used by the UVM simulation, where page migrations are pure bookkeeping
/// over the host-backed truth but must cost real link time). `dir` selects
/// the duplex engine: kH2D for migrations in, kD2H for writebacks.
void ChargePcie(const Topology& topo, GpuId gpu, std::uint64_t n,
                Topology::LinkDir dir = Topology::LinkDir::kH2D);

/// Pays on-device copy-engine bandwidth for `n` bytes without moving data.
void ChargeD2D(const Topology& topo, GpuId gpu, std::uint64_t n);

/// Pays PCIe link bandwidth only — no host DDR — for `n` bytes. Models
/// GPUDirect Storage DMA between the GPU and the NVMe drive, which bypasses
/// the host memory path entirely (the paper's §6 future-work item).
void ChargePcieLinkOnly(const Topology& topo, GpuId gpu, std::uint64_t n,
                        Topology::LinkDir dir);

/// Pays the NUMA-domain DDR bandwidth of `gpu`'s pair without moving data.
void ChargeHostMem(const Topology& topo, GpuId gpu, std::uint64_t n);

}  // namespace ckpt::sim
