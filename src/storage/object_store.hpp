// Durable object stores backing the two slowest tiers of the hierarchy:
// node-local NVMe (SSD tier) and the parallel file system (PFS tier).
// Checkpoints are monolithic immutable objects (paper §1, Limitations), so
// the interface is whole-object put/get keyed by (rank, version).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "simgpu/types.hpp"
#include "util/status.hpp"
#include "util/store_stats.hpp"

namespace ckpt::storage {

/// Identifies one checkpoint object: the producing process and its version.
struct ObjectKey {
  sim::Rank rank = 0;
  std::uint64_t version = 0;

  friend bool operator==(const ObjectKey&, const ObjectKey&) = default;
  friend auto operator<=>(const ObjectKey&, const ObjectKey&) = default;

  [[nodiscard]] std::string ToString() const {
    return "r" + std::to_string(rank) + "_v" + std::to_string(version);
  }
};

struct ObjectKeyHash {
  /// SplitMix64 finalizer: full-avalanche over 64 bits, so rank and version
  /// both influence every output bit. (The previous scheme shifted rank into
  /// bits >= 40, silently colliding keys once versions reached 2^40.)
  static constexpr std::uint64_t Mix(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
  std::size_t operator()(const ObjectKey& k) const noexcept {
    const auto rank = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(k.rank));  // sign-extend negative ranks
    return static_cast<std::size_t>(Mix(Mix(rank) ^ k.version));
  }
};

/// The remote-backend store counters live in util, below this layer, so
/// telemetry samples can carry them whole.
using StoreStats = util::StoreStats;

/// Abstract whole-object store. Implementations must be thread-safe: the
/// flush pipeline writes while the prefetch engine reads concurrently.
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Stores the object, overwriting any previous version under the same key.
  virtual util::Status Put(const ObjectKey& key, sim::ConstBytePtr data,
                           std::uint64_t size) = 0;

  /// Reads the whole object into `dst` (which must hold at least its size).
  virtual util::Status Get(const ObjectKey& key, sim::BytePtr dst,
                           std::uint64_t size) = 0;

  [[nodiscard]] virtual util::StatusOr<std::uint64_t> Size(const ObjectKey& key) const = 0;
  [[nodiscard]] virtual bool Exists(const ObjectKey& key) const = 0;
  virtual util::Status Erase(const ObjectKey& key) = 0;

  /// All keys currently stored (diagnostics / tests).
  [[nodiscard]] virtual std::vector<ObjectKey> Keys() const = 0;

  /// Total bytes stored.
  [[nodiscard]] virtual std::uint64_t TotalBytes() const = 0;

  /// Reads `len` bytes starting at `offset` of the object into `dst`. The
  /// default reads the whole object through Get() and slices — correct for
  /// every store (and for decorators it keeps their Get-side behaviour,
  /// e.g. checksum verification). Stores with cheap random access
  /// (MemStore, FileStore, RemoteStore) override it; the aggregation layer
  /// depends on it to restore one member out of a group object.
  virtual util::Status GetRange(const ObjectKey& key, std::uint64_t offset,
                                sim::BytePtr dst, std::uint64_t len) {
    auto size = Size(key);
    if (!size.ok()) return size.status();
    if (offset + len > *size || offset + len < offset) {
      return util::InvalidArgument("GetRange: [" + std::to_string(offset) +
                                   ", +" + std::to_string(len) +
                                   ") outside object " + key.ToString());
    }
    std::vector<std::byte> whole(static_cast<std::size_t>(*size));
    if (util::Status st = Get(key, whole.data(), *size); !st.ok()) return st;
    std::memcpy(dst, whole.data() + offset, static_cast<std::size_t>(len));
    return util::OkStatus();
  }

  /// Fills `out` with the store's remote/aggregation counters, returning
  /// true when the store (or, for decorators, anything beneath it) has any
  /// to report. The default — plain local stores — reports nothing.
  [[nodiscard]] virtual bool CollectStats(StoreStats& out) const {
    (void)out;
    return false;
  }
};

}  // namespace ckpt::storage
