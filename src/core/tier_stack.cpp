#include "core/tier_stack.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "storage/file_store.hpp"
#include "storage/mem_store.hpp"
#include "storage/remote_store.hpp"
#include "storage/throttled_store.hpp"

namespace ckpt::core {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> Split(std::string_view s, std::string_view seps) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t pos = s.find_first_of(seps);
    if (pos == std::string_view::npos) {
      out.push_back(Trim(s));
      return out;
    }
    out.push_back(Trim(s.substr(0, pos)));
    s.remove_prefix(pos + 1);
  }
}

std::string FormatSize(std::uint64_t bytes) {
  static constexpr const char* kSuffix[] = {"", "Ki", "Mi", "Gi", "Ti"};
  std::size_t s = 0;
  while (s + 1 < std::size(kSuffix) && bytes != 0 && bytes % 1024 == 0) {
    bytes /= 1024;
    ++s;
  }
  return std::to_string(bytes) + kSuffix[s];
}

}  // namespace

util::StatusOr<TierStack> TierStack::Create(std::vector<TierDesc> tiers,
                                            std::string_view terminal_name) {
  if (tiers.empty()) {
    return util::InvalidArgument("tier stack must not be empty");
  }
  TierStack stack;
  std::unordered_set<std::string_view> names;
  bool seen_durable = false;
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const TierDesc& t = tiers[i];
    const std::string pos = "tier " + std::to_string(i);
    if (t.name.empty()) {
      return util::InvalidArgument(pos + " has an empty name");
    }
    if (!names.insert(t.name).second) {
      return util::InvalidArgument("duplicate tier name '" + t.name + "'");
    }
    if (t.kind == TierKind::kCache) {
      if (seen_durable) {
        return util::InvalidArgument(
            "cache tier '" + t.name +
            "' appears below a durable tier; cache tiers must form a "
            "contiguous prefix of the stack");
      }
      if (t.capacity_bytes == 0) {
        return util::InvalidArgument("cache tier '" + t.name +
                                     "' has zero capacity");
      }
      if (t.medium == CacheMedium::kDevice && i != 0) {
        return util::InvalidArgument(
            "device-backed cache tier '" + t.name +
            "' must be the top of the stack (index 0)");
      }
      ++stack.num_cache_;
    } else {
      if (t.store == nullptr) {
        return util::InvalidArgument("durable tier '" + t.name +
                                     "' has no object store");
      }
      if (t.policy.has_value()) {
        return util::InvalidArgument(
            "durable tier '" + t.name +
            "' names an eviction policy; durable stores never evict");
      }
      seen_durable = true;
    }
  }
  if (stack.num_cache_ == 0) {
    return util::InvalidArgument("tier stack needs at least one cache tier");
  }
  if (!seen_durable) {
    return util::InvalidArgument(
        "the deepest tier must be durable: a stack of only caches cannot "
        "make checkpoints durable");
  }
  stack.tiers_ = std::move(tiers);

  if (terminal_name.empty()) {
    stack.terminal_ = stack.num_cache_;  // first durable tier
  } else {
    bool found = false;
    for (std::size_t i = 0; i < stack.tiers_.size(); ++i) {
      if (stack.tiers_[i].name == terminal_name) {
        if (stack.tiers_[i].kind != TierKind::kDurable) {
          return util::InvalidArgument("terminal tier '" +
                                       std::string(terminal_name) +
                                       "' is not a durable tier");
        }
        stack.terminal_ = static_cast<int>(i);
        found = true;
        break;
      }
    }
    if (!found) {
      return util::InvalidArgument("terminal tier '" +
                                   std::string(terminal_name) +
                                   "' is not in the stack");
    }
  }
  return stack;
}

util::StatusOr<TierStack> TierStack::Default(
    std::shared_ptr<storage::ObjectStore> ssd,
    std::shared_ptr<storage::ObjectStore> pfs, std::uint64_t gpu_cache_bytes,
    std::uint64_t host_cache_bytes, Tier terminal) {
  std::vector<TierDesc> tiers;
  tiers.push_back(TierDesc{"gpu", TierKind::kCache, CacheMedium::kDevice,
                           gpu_cache_bytes, nullptr});
  tiers.push_back(TierDesc{"host", TierKind::kCache, CacheMedium::kPinnedHost,
                           host_cache_bytes, nullptr});
  tiers.push_back(
      TierDesc{"ssd", TierKind::kDurable, CacheMedium::kPinnedHost, 0,
               std::move(ssd)});
  if (pfs != nullptr) {
    tiers.push_back(
        TierDesc{"pfs", TierKind::kDurable, CacheMedium::kPinnedHost, 0,
                 std::move(pfs)});
  }
  const std::string_view terminal_name =
      terminal == Tier::kPfs ? "pfs" : "ssd";
  return Create(std::move(tiers), terminal_name);
}

std::optional<int> TierStack::IndexOf(std::string_view tier_name) const {
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (tiers_[i].name == tier_name) return static_cast<int>(i);
  }
  return std::nullopt;
}

void TierStack::ResolveEvictionPolicies(EvictionKind default_kind) {
  for (int i = 0; i < num_cache_; ++i) {
    auto& p = tiers_[static_cast<std::size_t>(i)].policy;
    if (!p.has_value()) p = default_kind;
  }
}

std::string TierStack::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (i != 0) out += '>';
    out += tiers_[i].name;
    if (tiers_[i].kind == TierKind::kCache) {
      out += '(' + FormatSize(tiers_[i].capacity_bytes);
      if (tiers_[i].policy.has_value()) {
        out += ',';
        out += to_string(*tiers_[i].policy);
      }
      out += ')';
    }
    if (static_cast<int>(i) == terminal_) out += '*';
  }
  return out;
}

util::StatusOr<TierStack> ParseTierStack(std::string_view spec,
                                         std::string_view terminal_name,
                                         const TierStoreFactory& factory) {
  std::vector<TierDesc> tiers;
  int durable_ordinal = 0;
  for (std::string_view entry : Split(spec, ",;")) {
    if (entry.empty()) continue;
    // Split only the leading field separators: everything after `kind` is
    // interpreted per kind, so a durable backend arg may itself contain ':'
    // or '=' ("file=C:\scratch", a future "s3://bucket").
    const std::size_t name_end = entry.find(':');
    if (name_end == std::string_view::npos) {
      return util::InvalidArgument("tier entry '" + std::string(entry) +
                                   "' is not name:kind[:arg[:policy]]");
    }
    std::string_view kind = entry.substr(name_end + 1);
    std::string_view rest;
    bool has_rest = false;
    if (const std::size_t kind_end = kind.find(':');
        kind_end != std::string_view::npos) {
      rest = kind.substr(kind_end + 1);
      kind = kind.substr(0, kind_end);
      has_rest = true;
    }
    kind = Trim(kind);
    TierDesc desc;
    desc.name = std::string(Trim(entry.substr(0, name_end)));
    if (kind == "gpucache" || kind == "cache") {
      desc.kind = TierKind::kCache;
      desc.medium =
          kind == "gpucache" ? CacheMedium::kDevice : CacheMedium::kPinnedHost;
      // Cache tiers: rest := capacity [":" policy].
      std::string_view cap = rest;
      std::string_view policy;
      bool has_policy = false;
      if (const std::size_t cap_end = rest.find(':');
          cap_end != std::string_view::npos) {
        policy = Trim(rest.substr(cap_end + 1));
        cap = rest.substr(0, cap_end);
        has_policy = true;
      }
      cap = Trim(cap);
      if (cap.empty()) {
        return util::InvalidArgument("cache tier '" + desc.name +
                                     "' needs a capacity argument");
      }
      const std::string arg(cap);
      auto bytes = util::ParseSize(arg);
      if (!bytes.ok()) return bytes.status();
      if (*bytes <= 0) {
        return util::InvalidArgument("cache tier '" + desc.name +
                                     "' has non-positive capacity " + arg);
      }
      desc.capacity_bytes = static_cast<std::uint64_t>(*bytes);
      if (has_policy) {
        const auto parsed = ParseEvictionKind(policy);
        if (!parsed.has_value()) {
          return util::InvalidArgument(
              "cache tier '" + desc.name + "' has unknown eviction policy '" +
              std::string(policy) + "' (want score|lru|fifo|greedy-gap)");
        }
        desc.policy = *parsed;
      }
    } else if (kind == "durable") {
      const std::string arg(Trim(rest));
      (void)has_rest;
      desc.kind = TierKind::kDurable;
      if (factory) {
        auto store = factory(desc.name, arg, durable_ordinal);
        if (!store.ok()) return store.status();
        desc.store = std::move(*store);
      } else {
        if (!arg.empty() && arg != "mem") {
          return util::InvalidArgument(
              "durable tier '" + desc.name + "' backend '" + arg +
              "' needs a store factory (only 'mem' works without one)");
        }
        desc.store = std::make_shared<storage::MemStore>();
      }
      ++durable_ordinal;
    } else {
      return util::InvalidArgument("tier '" + desc.name + "' has unknown kind '" +
                                   std::string(kind) +
                                   "' (want gpucache|cache|durable)");
    }
    tiers.push_back(std::move(desc));
  }
  return TierStack::Create(std::move(tiers), terminal_name);
}

TierStoreFactory MakeTierStoreFactory(const sim::Topology& topo,
                                      StoreDecorator wrap_first) {
  return [&topo, wrap_first = std::move(wrap_first)](
             const std::string& tier, const std::string& backend, int ordinal)
             -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
    const bool remote = backend.starts_with("s3://");
    std::shared_ptr<storage::ObjectStore> raw;
    if (backend.empty() || backend == "mem") {
      raw = std::make_shared<storage::MemStore>();
    } else if (backend.starts_with("file=")) {
      auto fs = storage::FileStore::Open(backend.substr(5));
      if (!fs.ok()) return fs.status();
      raw = std::move(*fs);
    } else if (remote) {
      auto rs = storage::OpenRemoteBackend(backend, &topo);
      if (!rs.ok()) return rs.status();
      raw = std::move(*rs);
    } else {
      return util::InvalidArgument("tier '" + tier + "': unknown backend '" +
                                   backend +
                                   "' (want mem, file=<dir> or s3://<bucket>)");
    }
    if (ordinal == 0 && wrap_first) raw = wrap_first(std::move(raw));
    // A bandwidth model on a remote tier would double-charge the bytes its
    // RemoteStore already charges to the fabric.
    if (remote) return raw;
    return ordinal == 0 ? storage::MakeSsdStore(topo, std::move(raw))
                        : storage::MakePfsStore(topo, std::move(raw));
  };
}

util::StatusOr<std::optional<TierStack>> TierStackFromConfig(
    const util::Config& cfg, const TierStoreFactory& factory) {
  const auto spec = cfg.GetString("tiers");
  if (!spec.has_value()) return std::optional<TierStack>{};
  auto stack =
      ParseTierStack(*spec, cfg.GetString("terminal_tier", ""), factory);
  if (!stack.ok()) return stack.status();
  return std::optional<TierStack>(std::move(*stack));
}

}  // namespace ckpt::core
