// Cumulative counters of the remote-backend durable stores. They sit in
// util, below the storage layer that fills them, so the telemetry samples
// (util::telemetry::RemoteTierSample) carry them as one value.
#pragma once

#include <cstdint>

namespace ckpt::util {

/// Cumulative counters published by the remote-backend stores
/// (storage::RemoteStore, storage::AggregatingStore). Decorators forward
/// CollectStats to their inner store so the stats survive any wrapping
/// (fault injection, checksums, bandwidth throttling); plain stores report
/// nothing and the telemetry layer samples no remote tier for them.
struct StoreStats {
  // RemoteStore: simulated S3 request traffic.
  std::uint64_t remote_puts = 0;          ///< completed multipart uploads
  std::uint64_t remote_gets = 0;          ///< whole/range object reads
  std::uint64_t remote_parts = 0;         ///< part uploads that succeeded
  std::uint64_t remote_part_retries = 0;  ///< extra part attempts (transients)
  std::uint64_t remote_put_bytes = 0;     ///< payload bytes uploaded
  std::uint64_t remote_get_bytes = 0;     ///< payload bytes downloaded
  // AggregatingStore: group-commit bookkeeping.
  std::uint64_t agg_member_puts = 0;      ///< per-rank puts accepted
  std::uint64_t agg_group_puts = 0;       ///< group objects written inward
  std::uint64_t agg_group_put_failures = 0;  ///< group writes that failed
  std::uint64_t agg_size_flushes = 0;     ///< groups sealed by size/count
  std::uint64_t agg_deadline_flushes = 0; ///< groups sealed by the deadline
  std::uint64_t agg_gets_from_pending = 0;  ///< reads served pre-seal
  std::uint64_t agg_group_reclaims = 0;   ///< group objects fully erased
  // Gauges (instantaneous, not monotonic).
  std::uint64_t agg_pending_members = 0;  ///< members buffered, not yet put
  std::uint64_t agg_pending_bytes = 0;    ///< bytes buffered, not yet put

  void Merge(const StoreStats& o) noexcept {
    remote_puts += o.remote_puts;
    remote_gets += o.remote_gets;
    remote_parts += o.remote_parts;
    remote_part_retries += o.remote_part_retries;
    remote_put_bytes += o.remote_put_bytes;
    remote_get_bytes += o.remote_get_bytes;
    agg_member_puts += o.agg_member_puts;
    agg_group_puts += o.agg_group_puts;
    agg_group_put_failures += o.agg_group_put_failures;
    agg_size_flushes += o.agg_size_flushes;
    agg_deadline_flushes += o.agg_deadline_flushes;
    agg_gets_from_pending += o.agg_gets_from_pending;
    agg_group_reclaims += o.agg_group_reclaims;
    agg_pending_members += o.agg_pending_members;
    agg_pending_bytes += o.agg_pending_bytes;
  }
};

}  // namespace ckpt::util
