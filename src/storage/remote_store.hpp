// S3-shaped remote object store terminating the hierarchy beyond the PFS:
// checkpoints leave the node over the simulated fabric toward a bucket that
// charges per *request* (fixed round-trip latency) and per *byte* (the
// shared uplink). Large objects upload as parallel multipart puts — parts of
// `part_bytes` with at most `max_inflight` in flight — so the per-part
// latency pipelines instead of accumulating, exactly how production S3
// clients hide their round trips. Each part retries transient faults with
// util::RetryWithBackoff, independently of the engine-level flush retry
// around the whole Put.
//
// Selected from the `tiers=` spec as a durable backend:
//   remote:durable:s3://bucket?part=1Mi&inflight=4&lat_us=200&group=8
// Options after '?' (all optional, '&'-separated):
//   part=<size>       multipart part size (default 1Mi)
//   inflight=<n>      max concurrent part uploads per Put (default 4)
//   lat_us=<us>       per-request round-trip latency (default 200)
//   fail=<p>          transient per-part-attempt fault probability (default 0)
//   seed=<n>          fault schedule seed (default 1)
//   group=<n>         aggregate n member puts per group object (default 0 =
//                     aggregation off; see storage/aggregating_store.hpp)
//   group_bytes=<sz>  also seal a group at this many buffered bytes
//   deadline_ms=<ms>  flush a partial group after this long (default 50)
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "simgpu/topology.hpp"
#include "storage/object_store.hpp"
#include "storage/page_buffer.hpp"
#include "util/retry.hpp"

namespace ckpt::storage {

/// Parsed form of an "s3://bucket[?opts]" backend spec.
struct RemoteOptions {
  std::string bucket;
  std::uint64_t part_bytes = 1ull << 20;
  int max_inflight = 4;
  std::chrono::microseconds request_latency{200};
  double part_fail_rate = 0.0;
  std::uint64_t seed = 1;
  util::RetryPolicy part_retry{};
  // Aggregation knobs, consumed by OpenRemoteBackend (not RemoteStore).
  std::uint64_t group_members = 0;  ///< 0 = aggregation off
  std::uint64_t group_bytes = 0;    ///< 0 = no byte trigger
  std::chrono::milliseconds group_deadline{50};

  /// Parses "s3://bucket[?opt=val&...]". kInvalidArgument on anything else.
  static util::StatusOr<RemoteOptions> Parse(std::string_view spec);
};

class RemoteStore final : public ObjectStore {
 public:
  /// `topo` supplies the fabric the parts are charged on (the shared PFS /
  /// node-egress uplink); nullptr skips bandwidth charging (unit tests).
  RemoteStore(RemoteOptions options, const sim::Topology* topo);

  util::Status Put(const ObjectKey& key, sim::ConstBytePtr data,
                   std::uint64_t size) override;
  util::Status Get(const ObjectKey& key, sim::BytePtr dst,
                   std::uint64_t size) override;
  [[nodiscard]] util::StatusOr<std::uint64_t> Size(const ObjectKey& key) const override;
  [[nodiscard]] bool Exists(const ObjectKey& key) const override;
  util::Status Erase(const ObjectKey& key) override;
  [[nodiscard]] std::vector<ObjectKey> Keys() const override;
  [[nodiscard]] std::uint64_t TotalBytes() const override;
  util::Status GetRange(const ObjectKey& key, std::uint64_t offset,
                        sim::BytePtr dst, std::uint64_t len) override;
  [[nodiscard]] bool CollectStats(StoreStats& out) const override;

  [[nodiscard]] const RemoteOptions& options() const noexcept {
    return options_;
  }

 private:
  /// One simulated request: round-trip latency plus `bytes` on the fabric,
  /// paid under the calling thread's I/O tag.
  void ChargeRequest(std::uint64_t bytes) const;
  /// Uploads one part with transient-fault injection; called under retry.
  util::Status PutPart(const ObjectKey& key, std::uint64_t part_index,
                       std::uint64_t attempt_salt, std::uint64_t bytes);

  RemoteOptions options_;
  const sim::Topology* topo_;  // may be null (tests)

  mutable std::mutex mu_;
  std::unordered_map<ObjectKey, PageBuffer, ObjectKeyHash> objects_;

  // Stats (mu_-free: atomically incremented from part workers).
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> parts_{0};
  std::atomic<std::uint64_t> part_retries_{0};
  std::atomic<std::uint64_t> put_bytes_{0};
  std::atomic<std::uint64_t> get_bytes_{0};
};

/// Builds the store stack an "s3://..." backend spec describes: a
/// RemoteStore, wrapped in an AggregatingStore when the spec sets group
/// options. This is the entry point TierStoreFactory implementations use.
util::StatusOr<std::shared_ptr<ObjectStore>> OpenRemoteBackend(
    std::string_view spec, const sim::Topology* topo);

}  // namespace ckpt::storage
