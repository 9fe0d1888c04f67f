// Production-composition example: the full durable-tier stack the library
// supports — bandwidth model over transparent compression over CRC-32C
// checksumming over real files:
//
//     ThrottledStore( CompressedStore( ChecksumStore( FileStore ) ) )
//
// A shot of smooth "wavefield" checkpoints flows through the engine; the
// compressed tier stores a fraction of the logical bytes (the paper's RTM
// workload averages ~30x application-side compression; this shows the
// storage-side equivalent), and every restore is CRC-verified.
//
// Usage: ./build/examples/compressed_pipeline [num_ckpts=96]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "compress/compressed_store.hpp"
#include "core/engine.hpp"
#include "storage/checksum_store.hpp"
#include "storage/file_store.hpp"
#include "storage/throttled_store.hpp"
#include "util/stats.hpp"

using namespace ckpt;

namespace {

constexpr std::uint64_t kSize = 128 << 10;

/// A smooth synthetic wavefield: quantized sine products — long byte runs
/// after delta coding, like a real (lightly active) pressure field.
void MakeWavefield(std::byte* buf, std::uint64_t n, int timestep) {
  for (std::uint64_t i = 0; i + 8 <= n; i += 8) {
    const double x = static_cast<double>(i) / 4096.0;
    const double v = 1000.0 * std::sin(x * 0.25 + timestep * 0.01) *
                     std::sin(x * 0.0625);
    const auto q = static_cast<std::int64_t>(v);
    std::memcpy(buf + i, &q, 8);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int num_ckpts = argc > 1 ? std::atoi(argv[1]) : 96;

  sim::Cluster cluster(sim::TopologyConfig::Scaled());
  const auto root =
      std::filesystem::temp_directory_path() / "ckpt_compressed_pipeline";
  std::filesystem::remove_all(root);
  auto files = storage::FileStore::Open(root);
  if (!files.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 files.status().ToString().c_str());
    return 1;
  }

  // The full stack, innermost first.
  auto checksummed = std::make_shared<storage::ChecksumStore>(
      std::shared_ptr<storage::ObjectStore>(std::move(*files)));
  auto compressed = std::make_shared<compress::CompressedStore>(
      checksummed, compress::CodecKind::kDeltaRle);
  auto ssd = storage::MakeSsdStore(cluster.topology(), compressed);

  // Caches deliberately smaller than the history so the tail of the replay
  // really reads from disk and exercises decompression + CRC verification.
  core::Engine engine(
      cluster, core::TierStack::Default(ssd, nullptr, 1 << 20, 2 << 20).value(),
      core::EngineOptions{}, 1);

  auto buf = *cluster.device(0).Allocate(kSize);

  for (int t = 0; t < num_ckpts; ++t) {
    MakeWavefield(buf, kSize, t);
    if (auto st = engine.Checkpoint(0, static_cast<core::Version>(t), buf, kSize);
        !st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (auto st = engine.WaitForFlushes(0); !st.ok()) {
    std::fprintf(stderr, "flush wait failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Read everything back (reverse) and verify against recomputation.
  std::vector<std::byte> expect(kSize);
  int verified = 0;
  for (int t = num_ckpts - 1; t >= 0; --t) {
    if (auto st = engine.Restore(0, static_cast<core::Version>(t), buf, kSize);
        !st.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", st.ToString().c_str());
      return 1;
    }
    MakeWavefield(expect.data(), kSize, t);
    if (std::memcmp(buf, expect.data(), kSize) == 0) ++verified;
  }

  const double logical = static_cast<double>(compressed->logical_bytes());
  const double stored = static_cast<double>(compressed->stored_bytes());
  std::printf("compressed pipeline: %d/%d checkpoints verified end to end\n",
              verified, num_ckpts);
  std::printf("  logical data:      %s\n", util::FormatBytes(logical).c_str());
  std::printf("  stored on disk:    %s  (%.1fx compression)\n",
              util::FormatBytes(stored).c_str(),
              stored > 0 ? logical / stored : 0.0);
  std::printf("  CRC verifications: %llu passed, %llu failed\n",
              static_cast<unsigned long long>(checksummed->verified()),
              static_cast<unsigned long long>(checksummed->failures()));
  std::printf("  files under %s\n", root.c_str());

  (void)cluster.device(0).Free(buf);
  return verified == num_ckpts && checksummed->failures() == 0 ? 0 : 1;
}
