#include "simgpu/pinned.hpp"

#include <chrono>

#include "util/clock.hpp"

namespace ckpt::sim {

PinnedArena::PinnedArena(const Topology& topo, int node, std::uint64_t size)
    : data_(std::make_unique_for_overwrite<std::byte[]>(size)),  // first touch
      size_(size),
      node_(node) {
  const std::uint64_t bw = topo.config().pinned_alloc_bw;
  if (bw > 0 && size > 0) {
    const util::Stopwatch sw;
    const double secs = static_cast<double>(size) / static_cast<double>(bw);
    util::PreciseSleep(std::chrono::nanoseconds(
        static_cast<std::int64_t>(secs * 1e9)));
    registration_ns_ = sw.ElapsedNs();
  }
}

}  // namespace ckpt::sim
