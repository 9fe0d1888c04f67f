// Group-commit decorator for remote durable tiers: coalesces many small
// per-rank checkpoint objects into fewer, larger *group* objects before the
// terminal put ("Towards Aggregated Asynchronous Checkpointing" — small-
// object traffic is what kills object stores at production scale). A Put is
// acknowledged once the member is sealed into the open group buffer; the
// group goes inward as one object when it reaches `group_members` members
// (or `group_bytes` bytes), or when the oldest buffered member has waited
// `deadline` — so the extra durability window of group commit is bounded.
//
// Index: every member key maps to (group object, offset, size), so Get /
// Exists / Size / Erase keep resolving per rank+version. Reads of members
// whose group has not landed yet are served from the buffer; landed groups
// are read with a ranged GET of just the member's bytes. Erase drops the
// member's index entry immediately; the group object itself is reclaimed
// once its last member is erased (until then erased members cost dead bytes
// inside the group — the usual space amplification of log-structured
// aggregation).
//
// Failure semantics: a group put that fails after the inner store's own
// retries stays buffered and is retried by the deadline flusher, but the
// members were already acknowledged — like any write-back cache, a crash in
// that window loses the buffered members. The engine's durable flags track
// the *store's* acknowledgement, so this is a deliberate relaxation that
// the group deadline keeps bounded (and benches measure).
#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/object_store.hpp"
#include "storage/page_buffer.hpp"

namespace ckpt::storage {

class AggregatingStore final : public ObjectStore {
 public:
  struct Options {
    /// Seal the open group at this many live members (0 = no count trigger).
    std::uint64_t group_members = 8;
    /// Seal the open group at this many buffered bytes (0 = no byte trigger).
    std::uint64_t group_bytes = 0;
    /// Flush a partial group this long after its first member arrived.
    /// Zero disables the background flusher (tests drive Flush() manually).
    std::chrono::milliseconds deadline{50};
  };

  /// Synthetic rank of group object keys. Real ranks are >= 0, so group
  /// objects can never collide with member keys in the inner store.
  static constexpr sim::Rank kGroupRank = -1;

  AggregatingStore(std::shared_ptr<ObjectStore> inner, Options options);
  ~AggregatingStore() override;

  /// Seals and writes the open group (and retries any failed ones) now.
  /// Returns the first error; buffered members stay queued on failure.
  util::Status Flush();

  // --- ObjectStore ---
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

  [[nodiscard]] const ObjectStore& inner() const noexcept { return *inner_; }

 private:
  /// One group of coalesced members. Sealed groups live in staged_ until
  /// their upload lands; `uploading` serializes upload attempts per group.
  /// Only the open group's bytes change; a sealed group's are read-only.
  struct Group {
    std::uint64_t id = 0;
    PageBuffer buf;          ///< capacity; members fill [0, used)
    std::uint64_t used = 0;  ///< bytes of live and tombstoned members
    std::uint64_t live_members = 0;
    std::int64_t opened_ns = 0;  ///< NowNs() of the first member
    bool uploading = false;
    bool needs_retry = false;
    /// The group's lineage flow has emitted its start event. An open group
    /// whose members all get erased keeps its id and may be re-opened by a
    /// later Put; the re-open is a flow step, never a second start.
    bool flow_started = false;
  };
  struct MemberLoc {
    std::uint64_t group_id = 0;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    bool sealed = false;  ///< false: member is in the open (pending) group
  };

  [[nodiscard]] static ObjectKey GroupKey(std::uint64_t id) noexcept {
    return ObjectKey{kGroupRank, id};
  }

  /// Moves the open group into staged_ and returns it for upload.
  /// `by_deadline` picks the seal-reason counter. Requires mu_ held; no-op
  /// (nullptr) when the open group has no live members.
  std::shared_ptr<Group> SealLocked(bool by_deadline);
  /// Uploads `g` as one inner object; handles retry/cancel bookkeeping.
  util::Status UploadGroup(const std::shared_ptr<Group>& g);
  /// Removes `key`'s member (overwrite or erase). Requires mu_ held.
  /// Returns the staged group the member emptied, if any, so the caller
  /// unmaps its buffer after mu_ drops.
  [[nodiscard]] std::shared_ptr<Group> DropMemberLocked(
      const ObjectKey& key, const MemberLoc& loc,
      std::vector<ObjectKey>* reclaim);
  void FlusherLoop(const std::stop_token& stop);

  std::shared_ptr<ObjectStore> inner_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<ObjectKey, MemberLoc, ObjectKeyHash> index_;
  std::shared_ptr<Group> pending_;  ///< the open group (never null)
  std::unordered_map<std::uint64_t, std::shared_ptr<Group>> staged_;
  std::unordered_map<std::uint64_t, std::uint64_t> group_live_;  ///< landed groups
  std::unordered_set<std::uint64_t> cancelled_;  ///< reclaimed mid-upload
  std::uint64_t next_group_id_ = 0;
  std::uint64_t total_bytes_ = 0;  ///< live member bytes (logical view)

  // Stats (mu_ held).
  StoreStats stats_;

  std::jthread flusher_;  // last member: joins before the rest tears down
};

}  // namespace ckpt::storage
