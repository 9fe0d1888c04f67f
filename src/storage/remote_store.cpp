#include "storage/remote_store.hpp"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

#include "storage/aggregating_store.hpp"
#include "util/config.hpp"
#include "util/flow_id.hpp"
#include "util/rate_limiter.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace ckpt::storage {

namespace {

namespace trace = util::trace;

/// Splits "k=v" and applies it to `opts`; false on an unknown key.
util::Status ApplyOption(RemoteOptions& opts, std::string_view kv) {
  const std::size_t eq = kv.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return util::InvalidArgument("s3 option '" + std::string(kv) +
                                 "' is not key=value");
  }
  const std::string_view key = kv.substr(0, eq);
  const std::string_view val = kv.substr(eq + 1);
  const auto size_of = [&]() -> util::StatusOr<std::uint64_t> {
    auto n = util::ParseSize(val);
    if (!n.ok()) return n.status();
    if (*n < 0) {
      return util::InvalidArgument("s3 option '" + std::string(key) +
                                   "' must be non-negative");
    }
    return static_cast<std::uint64_t>(*n);
  };
  if (key == "part") {
    auto n = size_of();
    if (!n.ok()) return n.status();
    if (*n == 0) return util::InvalidArgument("s3 option part must be > 0");
    opts.part_bytes = *n;
  } else if (key == "inflight") {
    auto n = size_of();
    if (!n.ok()) return n.status();
    if (*n == 0 || *n > 64) {
      return util::InvalidArgument("s3 option inflight must be in [1, 64]");
    }
    opts.max_inflight = static_cast<int>(*n);
  } else if (key == "lat_us") {
    auto n = size_of();
    if (!n.ok()) return n.status();
    opts.request_latency = std::chrono::microseconds(*n);
  } else if (key == "fail") {
    char* end = nullptr;
    const std::string v(val);
    const double p = std::strtod(v.c_str(), &end);
    if (end == nullptr || *end != '\0' || p < 0.0 || p > 1.0) {
      return util::InvalidArgument("s3 option fail must be in [0, 1]");
    }
    opts.part_fail_rate = p;
  } else if (key == "seed") {
    auto n = size_of();
    if (!n.ok()) return n.status();
    opts.seed = *n;
  } else if (key == "group") {
    auto n = size_of();
    if (!n.ok()) return n.status();
    opts.group_members = *n;
  } else if (key == "group_bytes") {
    auto n = size_of();
    if (!n.ok()) return n.status();
    opts.group_bytes = *n;
  } else if (key == "deadline_ms") {
    auto n = size_of();
    if (!n.ok()) return n.status();
    opts.group_deadline = std::chrono::milliseconds(*n);
  } else {
    return util::InvalidArgument("unknown s3 option '" + std::string(key) +
                                 "'");
  }
  return util::OkStatus();
}

}  // namespace

util::StatusOr<RemoteOptions> RemoteOptions::Parse(std::string_view spec) {
  constexpr std::string_view kScheme = "s3://";
  if (spec.substr(0, kScheme.size()) != kScheme) {
    return util::InvalidArgument("remote backend '" + std::string(spec) +
                                 "' does not start with s3://");
  }
  std::string_view rest = spec.substr(kScheme.size());
  RemoteOptions opts;
  const std::size_t q = rest.find('?');
  opts.bucket = std::string(rest.substr(0, q));
  if (opts.bucket.empty()) {
    return util::InvalidArgument("s3 spec '" + std::string(spec) +
                                 "' names no bucket");
  }
  if (q != std::string_view::npos) {
    std::string_view query = rest.substr(q + 1);
    while (!query.empty()) {
      const std::size_t amp = query.find('&');
      const std::string_view kv = query.substr(0, amp);
      if (!kv.empty()) {
        if (util::Status st = ApplyOption(opts, kv); !st.ok()) return st;
      }
      if (amp == std::string_view::npos) break;
      query.remove_prefix(amp + 1);
    }
  }
  return opts;
}

RemoteStore::RemoteStore(RemoteOptions options, const sim::Topology* topo)
    : options_(std::move(options)), topo_(topo) {}

void RemoteStore::ChargeRequest(std::uint64_t bytes) const {
  if (options_.request_latency.count() > 0) {
    std::this_thread::sleep_for(options_.request_latency);
  }
  if (topo_ != nullptr && bytes > 0) {
    topo_->pfs().Acquire(bytes, util::CurrentIoTag());
  }
}

util::Status RemoteStore::PutPart(const ObjectKey& key,
                                  std::uint64_t part_index,
                                  std::uint64_t attempt_salt,
                                  std::uint64_t bytes) {
  // Fault draw first: a failed request still pays its round trip but not
  // the payload bandwidth (the connection broke before the body streamed).
  if (options_.part_fail_rate > 0.0) {
    auto rng = util::MakeRng(options_.seed,
                             ObjectKeyHash{}(key) * 1315423911ull +
                                 part_index * 2654435761ull + attempt_salt);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(rng) < options_.part_fail_rate) {
      if (options_.request_latency.count() > 0) {
        std::this_thread::sleep_for(options_.request_latency);
      }
      return util::Unavailable("injected transient part fault on " +
                               key.ToString() + " part " +
                               std::to_string(part_index));
    }
  }
  ChargeRequest(bytes);
  parts_.fetch_add(1, std::memory_order_relaxed);
  return util::OkStatus();
}

util::Status RemoteStore::Put(const ObjectKey& key, sim::ConstBytePtr data,
                              std::uint64_t size) {
  if (data == nullptr && size > 0) return util::InvalidArgument("Put: null data");
  trace::Span span(trace::Kind::kFlush, "remote:put", key.rank, -1,
                   key.version, size);
  // Lineage hop: the object (or aggregated group: kGroupRank keys derive the
  // group's flow id) enters its multipart upload.
  trace::Flow(trace::Kind::kFlush, "remote:put",
              trace::FlowIdOf(key.rank, key.version), trace::FlowPhase::kStep,
              key.rank, /*tier=*/-1, key.version, size);
  // Multipart upload: parts stream concurrently (bounded by max_inflight)
  // into a staging buffer; "completing" the upload publishes it atomically.
  auto staging = PageBuffer::Allocate(size);
  if (!staging.ok()) {
    span.Cancel();
    return staging.status();
  }
  PageBuffer staged = std::move(*staging);
  const std::uint64_t nparts =
      size == 0 ? 1 : (size + options_.part_bytes - 1) / options_.part_bytes;
  const int workers = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(options_.max_inflight), nparts));

  std::atomic<std::uint64_t> next_part{0};
  std::atomic<std::uint64_t> retries{0};
  std::mutex err_mu;
  util::Status first_error = util::OkStatus();
  const auto upload_loop = [&] {
    for (std::uint64_t p = next_part.fetch_add(1, std::memory_order_relaxed);
         p < nparts;
         p = next_part.fetch_add(1, std::memory_order_relaxed)) {
      {
        std::lock_guard lock(err_mu);
        if (!first_error.ok()) return;  // a sibling part already failed
      }
      const std::uint64_t off = p * options_.part_bytes;
      const std::uint64_t len = std::min(options_.part_bytes, size - off);
      std::uint64_t attempt = 0;
      auto rng = util::MakeRng(options_.seed ^ key.version, p);
      const util::RetryOutcome out = util::RetryWithBackoff(
          options_.part_retry, rng,
          [&] { return PutPart(key, p, attempt++, len); });
      retries.fetch_add(out.retries(), std::memory_order_relaxed);
      if (!out.ok()) {
        std::lock_guard lock(err_mu);
        if (first_error.ok()) first_error = out.status;
        return;
      }
      if (len > 0) std::memcpy(staged.data() + off, data + off, len);
    }
  };
  if (workers <= 1) {
    upload_loop();
  } else {
    // Parts pay the fabric under the caller's I/O tag.
    const util::IoTag tag = util::CurrentIoTag();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&upload_loop, tag] {
        const util::ScopedIoTag scoped(tag);
        upload_loop();
      });
    }
    for (std::thread& t : pool) t.join();
  }
  part_retries_.fetch_add(retries.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  if (!first_error.ok()) {
    span.Cancel();
    return first_error;
  }
  // Complete-multipart round trip: latency only, no payload.
  ChargeRequest(0);
  PageBuffer replaced;  // unmapped after the lock drops
  {
    std::lock_guard lock(mu_);
    replaced = std::exchange(objects_[key], std::move(staged));
  }
  // Lineage hop: complete-multipart published the staged parts atomically;
  // only now is the object readable (and durable) at the remote tier.
  trace::Flow(trace::Kind::kFlush, "remote:publish",
              trace::FlowIdOf(key.rank, key.version), trace::FlowPhase::kStep,
              key.rank, /*tier=*/-1, key.version, size);
  puts_.fetch_add(1, std::memory_order_relaxed);
  put_bytes_.fetch_add(size, std::memory_order_relaxed);
  return util::OkStatus();
}

util::Status RemoteStore::Get(const ObjectKey& key, sim::BytePtr dst,
                              std::uint64_t size) {
  trace::Span span(trace::Kind::kPrefetch, "remote:get", key.rank, -1,
                   key.version, size);
  std::uint64_t object_size = 0;
  {
    std::lock_guard lock(mu_);
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      span.Cancel();
      return util::NotFound("object " + key.ToString());
    }
    const PageBuffer& obj = it->second;
    if (size < obj.size()) {
      span.Cancel();
      return util::InvalidArgument("Get: buffer smaller than object " +
                                   key.ToString());
    }
    object_size = obj.size();
    // Copy under the lock: an Erase must not unmap the bytes mid-memcpy.
    if (!obj.empty()) std::memcpy(dst, obj.data(), obj.size());
  }
  ChargeRequest(object_size);
  gets_.fetch_add(1, std::memory_order_relaxed);
  get_bytes_.fetch_add(object_size, std::memory_order_relaxed);
  return util::OkStatus();
}

util::Status RemoteStore::GetRange(const ObjectKey& key, std::uint64_t offset,
                                   sim::BytePtr dst, std::uint64_t len) {
  trace::Span span(trace::Kind::kPrefetch, "remote:get", key.rank, -1,
                   key.version, len);
  {
    std::lock_guard lock(mu_);
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      span.Cancel();
      return util::NotFound("object " + key.ToString());
    }
    const PageBuffer& obj = it->second;
    if (offset + len > obj.size() || offset + len < offset) {
      span.Cancel();
      return util::InvalidArgument("GetRange: out of bounds for " +
                                   key.ToString());
    }
    if (len > 0) {
      std::memcpy(dst, obj.data() + offset, static_cast<std::size_t>(len));
    }
  }
  // A ranged GET pays one round trip and only the range's bytes.
  ChargeRequest(len);
  gets_.fetch_add(1, std::memory_order_relaxed);
  get_bytes_.fetch_add(len, std::memory_order_relaxed);
  return util::OkStatus();
}

util::StatusOr<std::uint64_t> RemoteStore::Size(const ObjectKey& key) const {
  // HEAD request: metadata only, no bandwidth. No latency either — Size sits
  // on the engine's restart-scan path where a per-key round trip would
  // serialize; a real client batches these with LIST.
  std::lock_guard lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return util::NotFound("object " + key.ToString());
  return it->second.size();
}

bool RemoteStore::Exists(const ObjectKey& key) const {
  std::lock_guard lock(mu_);
  return objects_.find(key) != objects_.end();
}

util::Status RemoteStore::Erase(const ObjectKey& key) {
  PageBuffer erased;  // unmapped after the lock drops
  {
    std::lock_guard lock(mu_);
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      return util::NotFound("object " + key.ToString());
    }
    erased = std::move(it->second);
    objects_.erase(it);
  }
  // DELETE round trip, no payload.
  ChargeRequest(0);
  return util::OkStatus();
}

std::vector<ObjectKey> RemoteStore::Keys() const {
  std::lock_guard lock(mu_);
  std::vector<ObjectKey> keys;
  keys.reserve(objects_.size());
  for (const auto& [k, v] : objects_) keys.push_back(k);
  return keys;
}

std::uint64_t RemoteStore::TotalBytes() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [k, v] : objects_) total += v.size();
  return total;
}

bool RemoteStore::CollectStats(StoreStats& out) const {
  out.remote_puts += puts_.load(std::memory_order_relaxed);
  out.remote_gets += gets_.load(std::memory_order_relaxed);
  out.remote_parts += parts_.load(std::memory_order_relaxed);
  out.remote_part_retries += part_retries_.load(std::memory_order_relaxed);
  out.remote_put_bytes += put_bytes_.load(std::memory_order_relaxed);
  out.remote_get_bytes += get_bytes_.load(std::memory_order_relaxed);
  return true;
}

util::StatusOr<std::shared_ptr<ObjectStore>> OpenRemoteBackend(
    std::string_view spec, const sim::Topology* topo) {
  auto opts = RemoteOptions::Parse(spec);
  if (!opts.ok()) return opts.status();
  std::shared_ptr<ObjectStore> store =
      std::make_shared<RemoteStore>(*opts, topo);
  if (opts->group_members > 1 || opts->group_bytes > 0) {
    AggregatingStore::Options agg;
    agg.group_members = opts->group_members > 1 ? opts->group_members : 0;
    agg.group_bytes = opts->group_bytes;
    agg.deadline = opts->group_deadline;
    store = std::make_shared<AggregatingStore>(std::move(store), agg);
  }
  return store;
}

}  // namespace ckpt::storage
