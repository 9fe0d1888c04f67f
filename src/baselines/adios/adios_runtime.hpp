// ADIOS2 BP5-style baseline (§5.2.1): deferred (asynchronous) I/O that
// buffers checkpoints in *pageable* main memory and drains them to the
// node-local NVMe in the background. Faithful to the properties the paper
// compares against:
//
//  * no dedicated GPU cache tier — every checkpoint crosses PCIe on demand
//    (the adios2::MemorySpace::CUDA on-demand movement);
//  * pageable host buffering — D2H lands in an internal pinned bounce
//    buffer and is then copied into the pageable BP buffer (two hops, which
//    is why pageable transfers run at roughly half the pinned rate);
//  * a bounded buffer pool: Put blocks when the pool is full until the
//    drainer frees space (BP5's flush-on-buffer-full behaviour);
//  * reads are served from the host buffer while the object still resides
//    there, otherwise from the SSD file — no prefetching of any kind.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/runtime.hpp"
#include "simgpu/cluster.hpp"
#include "simgpu/pinned.hpp"
#include "storage/object_store.hpp"
#include "util/mpmc_queue.hpp"

namespace ckpt::adios {

struct AdiosOptions {
  /// Host buffer pool per rank (BP5 BufferChunkSize * MaxBufferSize model).
  std::uint64_t host_buffer_bytes = 64ull << 20;
  /// Pinned bounce buffer used for the staged D2H/H2D hops.
  std::uint64_t bounce_bytes = 4ull << 20;
  /// BP5 marshaling rate: Put() serializes payload + metadata into the BP
  /// buffer format on the CPU, single-threaded (~0.8 GB/s real; scaled
  /// /100). This is the overhead that makes ADIOS2 the slowest writer in
  /// the paper's comparison regardless of interval (§5.4.5). 0 disables.
  std::uint64_t serialize_bw = 8ull << 20;
};

class AdiosRuntime final : public core::Runtime {
 public:
  /// `ssd` holds the BP files: every drain and write-through lands there,
  /// and restores that miss the host buffer read from it.
  AdiosRuntime(sim::Cluster& cluster, std::shared_ptr<storage::ObjectStore> ssd,
               AdiosOptions options, int num_ranks);
  ~AdiosRuntime() override;

  util::Status Checkpoint(sim::Rank rank, core::Version v, sim::ConstBytePtr src,
                          std::uint64_t size) override;
  util::Status Restore(sim::Rank rank, core::Version v, sim::BytePtr dst,
                       std::uint64_t capacity) override;
  util::StatusOr<std::uint64_t> RecoverSize(sim::Rank rank, core::Version v) override;
  /// ADIOS2 has no restore-order hint concept; accepted and ignored.
  util::Status PrefetchEnqueue(sim::Rank rank, core::Version v) override;
  util::Status PrefetchStart(sim::Rank rank) override;
  util::Status WaitForFlushes(sim::Rank rank) override;
  void Shutdown() override;

  [[nodiscard]] core::RankMetrics metrics(sim::Rank rank) const override;
  [[nodiscard]] std::string_view name() const override { return "adios2"; }

 private:
  struct Buffered {
    std::vector<std::byte> data;
    int readers = 0;  ///< restores currently copying out of this buffer
  };

  struct RankCtx {
    sim::Rank rank = 0;
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<core::Version, Buffered> buffered;
    std::unordered_map<core::Version, std::uint64_t> sizes;  // all known versions
    std::uint64_t pool_used = 0;
    std::uint64_t inflight = 0;
    bool shutdown = false;
    core::RankMetrics metrics;
    std::unique_ptr<sim::PinnedArena> bounce;  // staged-transfer bounce buffer
    std::mutex bounce_mu;                      // serializes bounce usage
    util::MpmcQueue<core::Version> drain_q;
    std::jthread t_drain;
  };

  void DrainLoop(RankCtx& c);
  /// Staged pageable D2H: device -> pinned bounce -> pageable dst.
  util::Status StagedD2H(RankCtx& c, sim::ConstBytePtr src, std::byte* dst,
                         std::uint64_t n);
  /// Staged pageable H2D: pageable src -> pinned bounce -> device dst.
  util::Status StagedH2D(RankCtx& c, const std::byte* src, sim::BytePtr dst,
                         std::uint64_t n);

  [[nodiscard]] RankCtx& ctx(sim::Rank rank);
  [[nodiscard]] const RankCtx& ctx(sim::Rank rank) const;

  sim::Cluster& cluster_;
  std::shared_ptr<storage::ObjectStore> ssd_;
  AdiosOptions options_;
  std::vector<std::unique_ptr<RankCtx>> ranks_;
  bool shutdown_ = false;
};

}  // namespace ckpt::adios
