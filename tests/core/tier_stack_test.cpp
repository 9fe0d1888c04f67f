// TierStack construction, validation, spec parsing, and the index/ordinal
// arithmetic the engine leans on when walking a config-driven stack.
#include "core/tier_stack.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "storage/mem_store.hpp"
#include "util/config.hpp"

namespace ckpt::core {
namespace {

std::shared_ptr<storage::MemStore> Mem() {
  return std::make_shared<storage::MemStore>();
}

TierDesc Cache(std::string name, std::uint64_t cap,
               CacheMedium medium = CacheMedium::kPinnedHost) {
  return TierDesc{std::move(name), TierKind::kCache, medium, cap, nullptr};
}

TierDesc Durable(std::string name) {
  return TierDesc{std::move(name), TierKind::kDurable, CacheMedium::kPinnedHost,
                  0, Mem()};
}

// --- Default stack ------------------------------------------------------

TEST(TierStackDefault, MatchesTheLegacyFourTierLayout) {
  auto stack = TierStack::Default(Mem(), Mem(), 4 << 20, 32 << 20, Tier::kSsd);
  ASSERT_TRUE(stack.ok()) << stack.status();
  EXPECT_EQ(stack->size(), kTierCount);
  EXPECT_EQ(stack->num_cache_tiers(), 2);
  EXPECT_EQ(stack->num_durable_tiers(), 2);
  // The Tier names are this stack's indices.
  EXPECT_EQ(stack->name(Tier::kGpu), "gpu");
  EXPECT_EQ(stack->name(Tier::kHost), "host");
  EXPECT_EQ(stack->name(Tier::kSsd), "ssd");
  EXPECT_EQ(stack->name(Tier::kPfs), "pfs");
  EXPECT_TRUE(stack->is_device(0));
  EXPECT_FALSE(stack->is_device(1));
  EXPECT_EQ(stack->terminal(), Tier::kSsd);
  EXPECT_EQ(stack->terminal_ordinal(), 0);
  EXPECT_EQ((*stack)[0].capacity_bytes, 4u << 20);
  EXPECT_EQ((*stack)[1].capacity_bytes, 32u << 20);
}

TEST(TierStackDefault, PfsTerminalAndPfsLessVariants) {
  auto deep = TierStack::Default(Mem(), Mem(), 1 << 20, 1 << 20, Tier::kPfs);
  ASSERT_TRUE(deep.ok()) << deep.status();
  EXPECT_EQ(deep->terminal(), Tier::kPfs);
  EXPECT_EQ(deep->terminal_ordinal(), 1);

  auto no_pfs = TierStack::Default(Mem(), nullptr, 1 << 20, 1 << 20);
  ASSERT_TRUE(no_pfs.ok()) << no_pfs.status();
  EXPECT_EQ(no_pfs->size(), 3u);
  EXPECT_EQ(no_pfs->num_durable_tiers(), 1);

  // PFS terminal without a PFS store cannot work.
  auto bad = TierStack::Default(Mem(), nullptr, 1 << 20, 1 << 20, Tier::kPfs);
  EXPECT_FALSE(bad.ok());
}

// --- Validation -----------------------------------------------------------

TEST(TierStackValidation, RejectsEmptyStack) {
  auto stack = TierStack::Create({});
  EXPECT_EQ(stack.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(TierStackValidation, RejectsAllCacheStack) {
  auto stack = TierStack::Create({Cache("a", 1 << 20), Cache("b", 1 << 20)});
  ASSERT_FALSE(stack.ok());
  EXPECT_EQ(stack.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(TierStackValidation, RejectsAllDurableStack) {
  auto stack = TierStack::Create({Durable("ssd")});
  EXPECT_EQ(stack.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(TierStackValidation, RejectsCacheBelowDurable) {
  auto stack = TierStack::Create(
      {Cache("host", 1 << 20), Durable("ssd"), Cache("late", 1 << 20)});
  ASSERT_FALSE(stack.ok());
  EXPECT_NE(stack.status().ToString().find("contiguous"), std::string::npos)
      << stack.status();
}

TEST(TierStackValidation, RejectsZeroCapacityCache) {
  auto stack = TierStack::Create({Cache("host", 0), Durable("ssd")});
  EXPECT_EQ(stack.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(TierStackValidation, RejectsStorelessDurableTier) {
  TierDesc bad{"ssd", TierKind::kDurable, CacheMedium::kPinnedHost, 0, nullptr};
  auto stack = TierStack::Create({Cache("host", 1 << 20), bad});
  EXPECT_EQ(stack.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(TierStackValidation, RejectsDeviceTierBelowTheTop) {
  auto stack = TierStack::Create({Cache("host", 1 << 20),
                                  Cache("gpu", 1 << 20, CacheMedium::kDevice),
                                  Durable("ssd")});
  ASSERT_FALSE(stack.ok());
  EXPECT_NE(stack.status().ToString().find("top of the stack"),
            std::string::npos)
      << stack.status();
}

TEST(TierStackValidation, RejectsDuplicateAndEmptyNames) {
  auto dup = TierStack::Create(
      {Cache("x", 1 << 20), Cache("x", 1 << 20), Durable("ssd")});
  EXPECT_EQ(dup.status().code(), util::ErrorCode::kInvalidArgument);
  auto anon = TierStack::Create({Cache("", 1 << 20), Durable("ssd")});
  EXPECT_EQ(anon.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(TierStackValidation, TerminalMustBeAnExistingDurableTier) {
  auto unknown = TierStack::Create({Cache("host", 1 << 20), Durable("ssd")},
                                   "tape");
  EXPECT_EQ(unknown.status().code(), util::ErrorCode::kInvalidArgument);
  auto cache_terminal =
      TierStack::Create({Cache("host", 1 << 20), Durable("ssd")}, "host");
  EXPECT_EQ(cache_terminal.status().code(), util::ErrorCode::kInvalidArgument);
}

// --- Index / ordinal arithmetic -------------------------------------------

TEST(TierStack, IndexAndOrdinalMappingOnAFiveTierStack) {
  auto stack = TierStack::Create(
      {Cache("gpu", 1 << 20, CacheMedium::kDevice), Cache("host", 2 << 20),
       Durable("ssd"), Durable("pfs"), Durable("archive")},
      "pfs");
  ASSERT_TRUE(stack.ok()) << stack.status();
  EXPECT_EQ(stack->size(), 5u);
  EXPECT_EQ(stack->num_cache_tiers(), 2);
  EXPECT_EQ(stack->num_durable_tiers(), 3);
  EXPECT_EQ(stack->first_durable(), 2);
  EXPECT_EQ(stack->deepest(), 4);
  EXPECT_EQ(stack->terminal(), 3);
  EXPECT_EQ(stack->terminal_ordinal(), 1);
  for (int ordinal = 0; ordinal < 3; ++ordinal) {
    EXPECT_EQ(stack->durable_ordinal(stack->durable_index(ordinal)), ordinal);
    EXPECT_NE(stack->durable_store(ordinal), nullptr);
  }
  EXPECT_TRUE(stack->is_cache(1));
  EXPECT_FALSE(stack->is_cache(2));
  EXPECT_TRUE(stack->is_durable(4));
  EXPECT_FALSE(stack->is_durable(5));
  EXPECT_EQ(stack->IndexOf("archive"), std::optional<int>(4));
  EXPECT_EQ(stack->IndexOf("tape"), std::nullopt);
}

TEST(TierStack, OutOfRangeNamesResolveToAStablePlaceholder) {
  auto stack = TierStack::Create({Cache("host", 1 << 20), Durable("ssd")});
  ASSERT_TRUE(stack.ok());
  // A Tier name beyond this 2-tier stack must still produce a greppable
  // log token, not "?" or UB.
  EXPECT_EQ(stack->name(Tier::kPfs), "out-of-stack");
  EXPECT_EQ(stack->name(99), "out-of-stack");
  EXPECT_EQ(stack->name(0), "host");
}

TEST(TierStack, ToStringShowsCapacitiesAndTerminalMarker) {
  auto stack = TierStack::Default(Mem(), Mem(), 4 << 20, 32 << 20, Tier::kSsd);
  ASSERT_TRUE(stack.ok());
  EXPECT_EQ(stack->ToString(), "gpu(4Mi)>host(32Mi)>ssd*>pfs");
}

// --- Per-tier eviction policies -------------------------------------------

TEST(TierStackPolicy, ToStringShowsConcretePolicies) {
  TierDesc gpu = Cache("gpu", 4 << 20, CacheMedium::kDevice);
  gpu.policy = EvictionKind::kScore;
  TierDesc host = Cache("host", 32 << 20);
  host.policy = EvictionKind::kFifo;
  auto stack = TierStack::Create({gpu, host, Durable("ssd")});
  ASSERT_TRUE(stack.ok()) << stack.status();
  EXPECT_EQ(stack->ToString(), "gpu(4Mi,score)>host(32Mi,fifo)>ssd*");
}

TEST(TierStackPolicy, ResolveFillsOnlyUnsetCacheTiers) {
  TierDesc gpu = Cache("gpu", 1 << 20, CacheMedium::kDevice);
  gpu.policy = EvictionKind::kScore;
  auto stack =
      TierStack::Create({gpu, Cache("host", 1 << 20), Durable("ssd")});
  ASSERT_TRUE(stack.ok()) << stack.status();
  stack->ResolveEvictionPolicies(EvictionKind::kLru);
  EXPECT_EQ(stack->policy(0), EvictionKind::kScore);  // explicit, kept
  EXPECT_EQ(stack->policy(1), EvictionKind::kLru);    // inherited default
}

TEST(TierStackPolicy, RejectsPolicyOnDurableTier) {
  TierDesc ssd = Durable("ssd");
  ssd.policy = EvictionKind::kLru;
  auto stack = TierStack::Create({Cache("host", 1 << 20), ssd});
  ASSERT_FALSE(stack.ok());
  EXPECT_EQ(stack.status().code(), util::ErrorCode::kInvalidArgument);
  EXPECT_NE(stack.status().ToString().find("never evict"), std::string::npos)
      << stack.status();
}

// --- Spec parsing ---------------------------------------------------------

TEST(ParseTierStack, ParsesTheCanonicalSpec) {
  auto stack = ParseTierStack(
      "gpu:gpucache:4Mi, host:cache:32Mi, ssd:durable, pfs:durable", "pfs",
      /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  EXPECT_EQ(stack->size(), 4u);
  EXPECT_TRUE(stack->is_device(0));
  EXPECT_EQ((*stack)[0].capacity_bytes, 4u << 20);
  EXPECT_EQ((*stack)[1].capacity_bytes, 32u << 20);
  EXPECT_EQ(stack->terminal(), 3);
}

TEST(ParseTierStack, HostOnlyThreeTierSpec) {
  auto stack = ParseTierStack("host:cache:1Mi,ssd:durable,pfs:durable", "",
                              /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  EXPECT_EQ(stack->num_cache_tiers(), 1);
  EXPECT_FALSE(stack->is_device(0));
  // Empty terminal name selects the first durable tier.
  EXPECT_EQ(stack->terminal(), 1);
}

TEST(ParseTierStack, ParsesPerTierPolicies) {
  auto stack = ParseTierStack(
      "gpu:gpucache:4Mi:score, host:cache:32Mi:fifo, ssd:durable", "",
      /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  EXPECT_EQ((*stack)[0].policy, std::optional<EvictionKind>(EvictionKind::kScore));
  EXPECT_EQ((*stack)[1].policy, std::optional<EvictionKind>(EvictionKind::kFifo));
  // A tier without a policy field stays unset (inherits at engine Init).
  auto partial = ParseTierStack(
      "gpu:gpucache:4Mi, host:cache:32Mi:lru, ssd:durable", "", {});
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ((*partial)[0].policy, std::nullopt);
  EXPECT_EQ((*partial)[1].policy,
            std::optional<EvictionKind>(EvictionKind::kLru));
}

TEST(ParseTierStack, RejectsUnknownPolicyNames) {
  auto stack = ParseTierStack(
      "gpu:gpucache:4Mi:random, host:cache:32Mi, ssd:durable", "", {});
  ASSERT_FALSE(stack.ok());
  EXPECT_EQ(stack.status().code(), util::ErrorCode::kInvalidArgument);
  EXPECT_NE(stack.status().ToString().find("unknown eviction policy"),
            std::string::npos)
      << stack.status();
}

TEST(ParseTierStack, DurableBackendArgsMayContainColonsAndEquals) {
  struct Call {
    std::string name, backend;
  };
  std::vector<Call> calls;
  TierStoreFactory factory =
      [&calls](const std::string& name, const std::string& backend,
               int) -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
    calls.push_back({name, backend});
    return std::shared_ptr<storage::ObjectStore>(Mem());
  };
  // Everything after a durable tier's kind is one opaque backend arg:
  // URL-style and Windows-style strings must survive the split.
  auto stack = ParseTierStack(
      "host:cache:1Mi,ssd:durable:file=C:\\scratch\\ckpt,"
      "bucket:durable:s3://team/ckpts?region=eu",
      "", factory);
  ASSERT_TRUE(stack.ok()) << stack.status();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].name, "ssd");
  EXPECT_EQ(calls[0].backend, "file=C:\\scratch\\ckpt");
  EXPECT_EQ(calls[1].name, "bucket");
  EXPECT_EQ(calls[1].backend, "s3://team/ckpts?region=eu");
}

TEST(ParseTierStack, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseTierStack("gpu", "", {}).ok());              // no kind
  EXPECT_FALSE(ParseTierStack("gpu:warp:4Mi", "", {}).ok());     // bad kind
  EXPECT_FALSE(ParseTierStack("host:cache", "", {}).ok());       // no capacity
  EXPECT_FALSE(ParseTierStack("host:cache:0,ssd:durable", "", {}).ok());
  EXPECT_FALSE(ParseTierStack("host:cache:-4Ki,ssd:durable", "", {}).ok());
  EXPECT_FALSE(ParseTierStack("host:cache:sometimes,ssd:durable", "", {}).ok());
  // Non-"mem" backends need a factory.
  EXPECT_FALSE(
      ParseTierStack("host:cache:1Mi,ssd:durable:file=/tmp/x", "", {}).ok());
}

TEST(ParseTierStack, FactoryReceivesNameBackendAndOrdinal) {
  struct Call {
    std::string name, backend;
    int ordinal;
  };
  std::vector<Call> calls;
  TierStoreFactory factory =
      [&calls](const std::string& name, const std::string& backend,
               int ordinal) -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
    calls.push_back({name, backend, ordinal});
    return std::shared_ptr<storage::ObjectStore>(Mem());
  };
  auto stack = ParseTierStack(
      "host:cache:1Mi,ssd:durable:mem,archive:durable:cold", "", factory);
  ASSERT_TRUE(stack.ok()) << stack.status();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].name, "ssd");
  EXPECT_EQ(calls[0].backend, "mem");
  EXPECT_EQ(calls[0].ordinal, 0);
  EXPECT_EQ(calls[1].name, "archive");
  EXPECT_EQ(calls[1].backend, "cold");
  EXPECT_EQ(calls[1].ordinal, 1);
}

TEST(ParseTierStack, FactoryErrorsPropagate) {
  TierStoreFactory factory =
      [](const std::string&, const std::string&,
         int) -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
    return util::IoError("backend offline");
  };
  auto stack = ParseTierStack("host:cache:1Mi,ssd:durable", "", factory);
  ASSERT_FALSE(stack.ok());
  EXPECT_EQ(stack.status().code(), util::ErrorCode::kIoError);
}

// --- Config plumbing ------------------------------------------------------

TEST(TierStackFromConfig, AbsentKeyMeansDefaultStack) {
  auto cfg = util::Config::Parse("gpu_cache=4194304\n");
  ASSERT_TRUE(cfg.ok());
  auto stack = TierStackFromConfig(*cfg, /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  EXPECT_FALSE(stack->has_value());
}

TEST(TierStackFromConfig, ParsesTiersAndTerminalKeys) {
  // ';' separates entries inside a config value (Config::Parse treats ','
  // as a line break).
  auto cfg = util::Config::Parse(
      "tiers=gpu:gpucache:1Mi;host:cache:2Mi;ssd:durable;pfs:durable\n"
      "terminal_tier=pfs\n");
  ASSERT_TRUE(cfg.ok());
  auto stack = TierStackFromConfig(*cfg, /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  ASSERT_TRUE(stack->has_value());
  EXPECT_EQ((**stack).terminal(), 3);
  EXPECT_EQ((**stack).ToString(), "gpu(1Mi)>host(2Mi)>ssd>pfs*");
}

TEST(TierStackFromConfig, InvalidSpecSurfacesAtInitTime) {
  auto cfg = util::Config::Parse("tiers=host:cache:0;ssd:durable\n");
  ASSERT_TRUE(cfg.ok());
  auto stack = TierStackFromConfig(*cfg, /*factory=*/{});
  EXPECT_EQ(stack.status().code(), util::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace ckpt::core
