// Quickstart: the smallest complete program using the checkpoint runtime.
//
// Mirrors Listing 1 of the paper: a forward pass writes a history of
// checkpoints from (simulated) GPU memory, hints announce the reverse read
// order, and a backward pass restores them — with the runtime caching,
// flushing and prefetching across GPU cache -> pinned host cache -> SSD.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>
#include <cstdlib>

#include "api/veloc.hpp"
#include "rtm/workload.hpp"  // FillPattern/CheckPattern demo payloads
#include "storage/mem_store.hpp"
#include "storage/throttled_store.hpp"
#include "util/stats.hpp"

using namespace ckpt;

namespace {

/// Ends the run with exit code 1 when an API call failed.
void Check(const util::Status& st, const char* call) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", call, st.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main() {
  // 1. The simulated machine: one DGX-like node (see DESIGN.md §2 for the
  //    GPU-substitution rationale; on real hardware this layer would be
  //    CUDA + the actual storage mounts).
  sim::Cluster cluster(sim::TopologyConfig::Scaled());

  // 2. Durable tiers: node-local SSD + parallel file system.
  auto ssd = storage::MakeSsdStore(cluster.topology(),
                                   std::make_shared<storage::MemStore>());
  auto pfs = storage::MakePfsStore(cluster.topology(),
                                   std::make_shared<storage::MemStore>());

  // 3. The checkpoint engine over the paper's default stack: 4 MB GPU cache
  //    + 32 MB pinned host cache per process (the §5.3.4 configuration,
  //    scaled) in front of the SSD and the PFS.
  core::Engine engine(cluster, core::TierStack::Default(ssd, pfs).value(),
                      core::EngineOptions{}, /*num_ranks=*/1);

  // 4. A VELOC-style client for process 0.
  api::VelocClient veloc(engine, cluster, /*rank=*/0);

  constexpr int kNumCkpts = 64;
  constexpr std::uint64_t kSize = 128 << 10;  // 128 KB (128 MB paper-scale)

  auto buf = cluster.device(0).Allocate(kSize);
  if (!buf.ok()) {
    std::fprintf(stderr, "device alloc failed: %s\n",
                 buf.status().ToString().c_str());
    return 1;
  }

  // --- Listing 1 ---------------------------------------------------------
  for (int ver = kNumCkpts - 1; ver >= 0; --ver) {  // announce reverse order
    Check(veloc.PrefetchEnqueue(static_cast<core::Version>(ver)), "hint");
  }
  Check(veloc.MemProtect(1, *buf, kSize), "protect");
  for (int ver = 0; ver < kNumCkpts; ++ver) {       // forward pass
    rtm::FillPattern(0, static_cast<core::Version>(ver), *buf, kSize);
    Check(veloc.Checkpoint("quickstart", static_cast<core::Version>(ver)),
          "checkpoint");
  }
  Check(veloc.PrefetchStart(), "prefetch start");
  int verified = 0;
  for (int ver = kNumCkpts - 1; ver >= 0; --ver) {  // backward pass
    auto size = veloc.RecoverSize(static_cast<core::Version>(ver), 1);
    Check(size.status(), "recover size");
    Check(veloc.MemProtect(1, *buf, *size), "protect");
    Check(veloc.Restart(static_cast<core::Version>(ver)), "restore");
    if (rtm::CheckPattern(0, static_cast<core::Version>(ver), *buf, *size)) {
      ++verified;
    }
  }
  // ------------------------------------------------------------------------

  const auto& m = veloc.metrics();
  std::printf("quickstart: %d/%d checkpoints restored and verified\n", verified,
              kNumCkpts);
  std::printf("  checkpoint throughput: %s\n",
              util::FormatRate(m.CkptThroughput()).c_str());
  std::printf("  restore throughput:    %s\n",
              util::FormatRate(m.RestoreThroughput()).c_str());
  std::printf("  restores served from: ");
  for (std::size_t i = 0; i < m.restores_from_tier.size(); ++i) {
    std::printf(" %s %llu", std::string(engine.tiers().name(i)).c_str(),
                static_cast<unsigned long long>(m.restores_from_tier[i]));
  }
  std::printf("\n");
  std::printf("  prefetch promotions:   %llu (+%llu already on GPU)\n",
              static_cast<unsigned long long>(m.prefetch_promotions),
              static_cast<unsigned long long>(m.prefetch_gpu_hits));

  (void)cluster.device(0).Free(*buf);
  return verified == kNumCkpts ? 0 : 1;
}
