#include "storage/aggregating_store.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/clock.hpp"
#include "util/flow_id.hpp"
#include "util/rate_limiter.hpp"
#include "util/status.hpp"
#include "util/trace.hpp"

namespace ckpt::storage {

namespace {
/// Lineage id of a group object: the synthetic group rank keeps it disjoint
/// from every member id (util/flow_id.hpp).
constexpr std::uint64_t GroupFlowId(std::uint64_t group_id) noexcept {
  return util::trace::FlowIdOf(AggregatingStore::kGroupRank, group_id);
}
}  // namespace

AggregatingStore::AggregatingStore(std::shared_ptr<ObjectStore> inner,
                                   Options options)
    : inner_(std::move(inner)), options_(options) {
  pending_ = std::make_shared<Group>();
  pending_->id = next_group_id_++;
  if (options_.deadline.count() > 0) {
    flusher_ = std::jthread(
        [this](const std::stop_token& stop) { FlusherLoop(stop); });
  }
}

AggregatingStore::~AggregatingStore() {
  if (flusher_.joinable()) {
    flusher_.request_stop();
    cv_.notify_all();
    flusher_.join();
  }
  // Best effort: members were acknowledged, so try to land what is buffered.
  (void)Flush();
}

std::shared_ptr<AggregatingStore::Group> AggregatingStore::SealLocked(
    bool by_deadline) {
  if (pending_->live_members == 0) return nullptr;
  std::shared_ptr<Group> sealed = std::move(pending_);
  pending_ = std::make_shared<Group>();
  pending_->id = next_group_id_++;
  for (auto& [key, loc] : index_) {
    if (!loc.sealed && loc.group_id == sealed->id) {
      loc.sealed = true;
      // Each member's lineage steps through the seal, so Perfetto draws the
      // member -> group join at the moment the buffer freezes.
      util::trace::Flow(util::trace::Kind::kFlush, "agg:seal",
                        util::trace::FlowIdOf(key.rank, key.version),
                        util::trace::FlowPhase::kStep, key.rank, /*tier=*/-1,
                        key.version, loc.size);
    }
  }
  util::trace::Flow(util::trace::Kind::kFlush, "agg:seal",
                    GroupFlowId(sealed->id), util::trace::FlowPhase::kStep,
                    kGroupRank, /*tier=*/-1, sealed->id, sealed->used);
  staged_[sealed->id] = sealed;
  if (by_deadline) {
    ++stats_.agg_deadline_flushes;
  } else {
    ++stats_.agg_size_flushes;
  }
  return sealed;
}

util::Status AggregatingStore::UploadGroup(const std::shared_ptr<Group>& g) {
  {
    std::lock_guard lock(mu_);
    if (g->uploading) return util::OkStatus();  // another thread owns it
    g->uploading = true;
    g->needs_retry = false;
  }
  util::trace::Flow(util::trace::Kind::kFlush, "agg:upload",
                    GroupFlowId(g->id), util::trace::FlowPhase::kStep,
                    kGroupRank, /*tier=*/-1, g->id, g->used);
  util::Status st = inner_->Put(GroupKey(g->id), g->buf.data(), g->used);
  bool erase_inner = false;
  {
    std::lock_guard lock(mu_);
    g->uploading = false;
    if (!st.ok()) {
      ++stats_.agg_group_put_failures;
      cancelled_.erase(g->id);  // nothing landed, nothing to undo
      // Stays in staged_; the flusher (or the next Flush) retries it —
      // unless every member was erased while the upload was failing.
      if (staged_.count(g->id) > 0) {
        g->needs_retry = true;
      } else {
        util::trace::Flow(util::trace::Kind::kFlush, "agg:reclaimed",
                          GroupFlowId(g->id), util::trace::FlowPhase::kEnd,
                          kGroupRank, /*tier=*/-1, g->id, g->used);
      }
      return st;
    }
    ++stats_.agg_group_puts;
    if (cancelled_.erase(g->id) > 0 || staged_.count(g->id) == 0) {
      // Last member erased mid-upload: the object just landed is garbage.
      erase_inner = true;
      util::trace::Flow(util::trace::Kind::kFlush, "agg:reclaimed",
                        GroupFlowId(g->id), util::trace::FlowPhase::kEnd,
                        kGroupRank, /*tier=*/-1, g->id, g->used);
    } else {
      staged_.erase(g->id);
      group_live_[g->id] = g->live_members;
      util::trace::Flow(util::trace::Kind::kFlush, "agg:landed",
                        GroupFlowId(g->id), util::trace::FlowPhase::kEnd,
                        kGroupRank, /*tier=*/-1, g->id, g->used);
    }
  }
  if (erase_inner) {
    (void)inner_->Erase(GroupKey(g->id));
    std::lock_guard lock(mu_);
    ++stats_.agg_group_reclaims;
  }
  return util::OkStatus();
}

util::Status AggregatingStore::Flush() {
  std::vector<std::shared_ptr<Group>> work;
  {
    std::lock_guard lock(mu_);
    if (auto sealed = SealLocked(/*by_deadline=*/true)) {
      work.push_back(std::move(sealed));
    }
    for (const auto& [id, g] : staged_) {
      if (g->needs_retry && !g->uploading) work.push_back(g);
    }
  }
  util::Status first = util::OkStatus();
  for (const auto& g : work) {
    if (util::Status st = UploadGroup(g); !st.ok() && first.ok()) first = st;
  }
  return first;
}

void AggregatingStore::FlusherLoop(const std::stop_token& stop) {
  // Groups mix ranks, so their uploads pay on the default flow.
  const util::ScopedIoTag io_tag({.io_class = util::IoClass::kFlush});
  std::unique_lock lock(mu_);
  while (!stop.stop_requested()) {
    const auto deadline_ns =
        std::chrono::nanoseconds(options_.deadline).count();
    std::int64_t wait_ns = deadline_ns;
    if (pending_->live_members > 0) {
      wait_ns = std::max<std::int64_t>(
          0, pending_->opened_ns + deadline_ns - util::NowNs());
    }
    cv_.wait_for(lock, std::chrono::nanoseconds(wait_ns), [&] {
      return stop.stop_requested() ||
             (pending_->live_members > 0 &&
              util::NowNs() - pending_->opened_ns >= deadline_ns);
    });
    if (stop.stop_requested()) return;
    std::vector<std::shared_ptr<Group>> work;
    if (pending_->live_members > 0 &&
        util::NowNs() - pending_->opened_ns >= deadline_ns) {
      if (auto sealed = SealLocked(/*by_deadline=*/true)) {
        work.push_back(std::move(sealed));
      }
    }
    for (const auto& [id, g] : staged_) {
      if (g->needs_retry && !g->uploading) work.push_back(g);
    }
    lock.unlock();
    for (const auto& g : work) (void)UploadGroup(g);
    work.clear();  // a landed group's buffer is unmapped off the lock
    lock.lock();
  }
}

std::shared_ptr<AggregatingStore::Group> AggregatingStore::DropMemberLocked(
    const ObjectKey& key, const MemberLoc& loc,
    std::vector<ObjectKey>* reclaim) {
  total_bytes_ -= loc.size;
  if (!loc.sealed) {
    // Tombstone in the open group: the bytes stay as dead space in the
    // buffer, only the index entry and the live count go.
    --pending_->live_members;
    index_.erase(key);
    return nullptr;
  }
  const std::uint64_t gid = loc.group_id;
  index_.erase(key);
  if (auto it = group_live_.find(gid); it != group_live_.end()) {
    if (--it->second == 0) {
      group_live_.erase(it);
      ++stats_.agg_group_reclaims;
      if (reclaim != nullptr) reclaim->push_back(GroupKey(gid));
      // The group flow already terminated at agg:landed; the late reclaim is
      // a plain instant so no flow gets a second termination.
      util::trace::Instant(util::trace::Kind::kFlush, "agg:reclaim",
                           kGroupRank, /*tier=*/-1, gid);
    }
    return nullptr;
  }
  std::shared_ptr<Group> emptied;
  if (auto it = staged_.find(gid); it != staged_.end()) {
    if (--it->second->live_members == 0) {
      if (it->second->uploading) {
        cancelled_.insert(gid);  // uploader erases the landed object
      } else {
        ++stats_.agg_group_reclaims;  // never landed: just drop the buffer
        util::trace::Flow(util::trace::Kind::kFlush, "agg:reclaimed",
                          GroupFlowId(gid), util::trace::FlowPhase::kEnd,
                          kGroupRank, /*tier=*/-1, gid);
      }
      emptied = std::move(it->second);
      staged_.erase(it);
    }
  }
  return emptied;
}

util::Status AggregatingStore::Put(const ObjectKey& key, sim::ConstBytePtr data,
                                   std::uint64_t size) {
  if (data == nullptr && size > 0) return util::InvalidArgument("Put: null data");
  std::shared_ptr<Group> sealed;
  // Buffers this Put replaces; unmapped after the lock drops.
  std::shared_ptr<Group> emptied;
  PageBuffer outgrown;
  {
    std::lock_guard lock(mu_);
    // Grow the open group first, so a failed mapping changes nothing. A
    // group whose members were all erased restarts at offset 0, reclaiming
    // its tombstone-only dead space.
    const std::uint64_t used =
        pending_->live_members == 0 ? 0 : pending_->used;
    if (used + size > pending_->buf.size()) {
      auto grown = PageBuffer::Allocate(
          std::max(used + size, 2 * pending_->buf.size()));
      if (!grown.ok()) return grown.status();
      if (used > 0) {
        std::memcpy(grown->data(), pending_->buf.data(),
                    static_cast<std::size_t>(used));
      }
      outgrown = std::exchange(pending_->buf, std::move(*grown));
    }
    if (auto it = index_.find(key); it != index_.end()) {
      emptied = DropMemberLocked(key, it->second, nullptr);  // overwrite
    }
    if (pending_->live_members == 0) {
      pending_->opened_ns = util::NowNs();
      pending_->used = 0;
    }
    MemberLoc loc;
    loc.group_id = pending_->id;
    loc.offset = pending_->used;
    loc.size = size;
    if (size > 0) {
      std::memcpy(pending_->buf.data() + loc.offset, data,
                  static_cast<std::size_t>(size));
    }
    pending_->used += size;
    ++pending_->live_members;
    index_[key] = loc;
    total_bytes_ += size;
    ++stats_.agg_member_puts;
    if (pending_->live_members == 1) {
      // This member opened the group: start the group object's own lineage
      // (a step, not a second start, if the group was drained and re-opened).
      util::trace::Flow(util::trace::Kind::kFlush, "agg:open",
                        GroupFlowId(pending_->id),
                        pending_->flow_started
                            ? util::trace::FlowPhase::kStep
                            : util::trace::FlowPhase::kStart,
                        kGroupRank, /*tier=*/-1, pending_->id, size);
      pending_->flow_started = true;
    }
    util::trace::Flow(util::trace::Kind::kFlush, "agg:member",
                      util::trace::FlowIdOf(key.rank, key.version),
                      util::trace::FlowPhase::kStep, key.rank, /*tier=*/-1,
                      key.version, size);
    const bool by_count = options_.group_members > 0 &&
                          pending_->live_members >= options_.group_members;
    const bool by_bytes = options_.group_bytes > 0 &&
                          pending_->used >= options_.group_bytes;
    if (by_count || by_bytes) sealed = SealLocked(/*by_deadline=*/false);
  }
  // The member is acknowledged regardless: a failed group upload stays
  // buffered for retry and must not fail the Put that happened to seal it.
  if (sealed) (void)UploadGroup(sealed);
  return util::OkStatus();
}

util::Status AggregatingStore::GetRange(const ObjectKey& key,
                                        std::uint64_t offset, sim::BytePtr dst,
                                        std::uint64_t len) {
  std::uint64_t group_id = 0;
  std::uint64_t group_offset = 0;
  {
    std::lock_guard lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return util::NotFound("object " + key.ToString());
    const MemberLoc& loc = it->second;
    if (offset + len > loc.size || offset + len < offset) {
      return util::InvalidArgument("GetRange: out of bounds for " +
                                   key.ToString());
    }
    const std::shared_ptr<Group>* buffered = nullptr;
    if (!loc.sealed) {
      buffered = &pending_;
    } else if (auto sit = staged_.find(loc.group_id); sit != staged_.end()) {
      buffered = &sit->second;
    }
    if (buffered != nullptr) {
      // Copy under the lock: an Erase must not unmap the group mid-memcpy.
      if (len > 0) {
        std::memcpy(dst, (*buffered)->buf.data() + loc.offset + offset,
                    static_cast<std::size_t>(len));
      }
      ++stats_.agg_gets_from_pending;
      return util::OkStatus();
    }
    group_id = loc.group_id;
    group_offset = loc.offset;
  }
  // Landed group: ranged read of just this member's bytes off the lock.
  return inner_->GetRange(GroupKey(group_id), group_offset + offset, dst, len);
}

util::Status AggregatingStore::Get(const ObjectKey& key, sim::BytePtr dst,
                                   std::uint64_t size) {
  std::uint64_t member_size = 0;
  {
    std::lock_guard lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return util::NotFound("object " + key.ToString());
    if (size < it->second.size) {
      return util::InvalidArgument("Get: buffer smaller than object " +
                                   key.ToString());
    }
    member_size = it->second.size;
  }
  return GetRange(key, 0, dst, member_size);
}

util::StatusOr<std::uint64_t> AggregatingStore::Size(
    const ObjectKey& key) const {
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return util::NotFound("object " + key.ToString());
  return it->second.size;
}

bool AggregatingStore::Exists(const ObjectKey& key) const {
  std::lock_guard lock(mu_);
  return index_.find(key) != index_.end();
}

util::Status AggregatingStore::Erase(const ObjectKey& key) {
  std::vector<ObjectKey> reclaim;
  std::shared_ptr<Group> emptied;  // unmapped after the lock drops
  {
    std::lock_guard lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return util::NotFound("object " + key.ToString());
    emptied = DropMemberLocked(key, it->second, &reclaim);
  }
  for (const ObjectKey& gkey : reclaim) (void)inner_->Erase(gkey);
  return util::OkStatus();
}

std::vector<ObjectKey> AggregatingStore::Keys() const {
  std::lock_guard lock(mu_);
  std::vector<ObjectKey> keys;
  keys.reserve(index_.size());
  for (const auto& [k, loc] : index_) keys.push_back(k);
  return keys;
}

std::uint64_t AggregatingStore::TotalBytes() const {
  std::lock_guard lock(mu_);
  return total_bytes_;
}

bool AggregatingStore::CollectStats(StoreStats& out) const {
  (void)inner_->CollectStats(out);
  std::lock_guard lock(mu_);
  out.Merge(stats_);
  out.agg_pending_members += pending_->live_members;
  out.agg_pending_bytes += pending_->used;
  for (const auto& [id, g] : staged_) {
    out.agg_pending_members += g->live_members;
    out.agg_pending_bytes += g->used;
  }
  return true;
}

}  // namespace ckpt::storage
