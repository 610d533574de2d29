// Tests for the NN query cache: exact-match memoization (replay-identical
// results, LRU bounds, -0.0/0.0 key canonicalization), cache statistics,
// mode parsing, thread-safety under a concurrent hammer, and the end-to-end
// guarantee that memo mode leaves canonical verification reports
// byte-identical to cacheless runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "closed_loop_fixtures.hpp"
#include "core/engine.hpp"
#include "core/report_io.hpp"
#include "nn/query_cache.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

using testing_fixtures::braking_plant;
using testing_fixtures::threshold_controller;

NnQueryCache::Result make_result(std::vector<std::size_t> commands, const Box& output) {
  return NnQueryCache::Result{std::move(commands), output};
}

TEST(QueryCache, ModeNamesRoundTrip) {
  for (const NnCacheMode mode : {NnCacheMode::kOff, NnCacheMode::kMemo}) {
    EXPECT_EQ(parse_nn_cache_mode(to_string(mode)), mode);
  }
  EXPECT_FALSE(parse_nn_cache_mode("bogus").has_value());
  EXPECT_FALSE(parse_nn_cache_mode("").has_value());
  EXPECT_FALSE(parse_nn_cache_mode("containment").has_value());
}

TEST(QueryCache, EnvModeFallsBackToMemoOnUnknownValues) {
  const char* saved = std::getenv("NNCS_NN_CACHE");
  const std::string original = saved != nullptr ? saved : "";
  const auto mode_for = [](const char* value) {
    ::setenv("NNCS_NN_CACHE", value, 1);
    return nn_cache_config_from_env().mode;
  };
  EXPECT_EQ(mode_for("off"), NnCacheMode::kOff);
  EXPECT_EQ(mode_for("memo"), NnCacheMode::kMemo);
  EXPECT_EQ(mode_for("containment"), NnCacheMode::kMemo);
  EXPECT_EQ(mode_for("bogus"), NnCacheMode::kMemo);
  if (saved != nullptr) {
    ::setenv("NNCS_NN_CACHE", original.c_str(), 1);
  } else {
    ::unsetenv("NNCS_NN_CACHE");
  }
}

TEST(QueryCache, ExactFindReturnsInsertedResult) {
  NnQueryCache cache;
  const Box input{Interval{0.0, 1.0}, Interval{-1.0, 1.0}};
  EXPECT_FALSE(cache.find_exact(3, input).has_value());
  cache.insert(3, input, make_result({1, 2}, Box{Interval{5.0, 6.0}}));
  const auto hit = cache.find_exact(3, input);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->commands, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(hit->output_box, (Box{Interval{5.0, 6.0}}));
  // Different network id or box: miss.
  EXPECT_FALSE(cache.find_exact(4, input).has_value());
  EXPECT_FALSE(cache.find_exact(3, Box{Interval{0.0, 2.0}, Interval{-1.0, 1.0}}).has_value());
}

TEST(QueryCache, NegativeZeroKeysMatchPositiveZero) {
  // Box::operator== compares doubles, so {-0.0} == {0.0}; the hash must
  // agree or the map's equal-keys-equal-hash invariant breaks.
  NnQueryCache cache;
  const Box pos{Interval{0.0, 1.0}};
  const Box neg{Interval{-0.0, 1.0}};
  ASSERT_TRUE(pos == neg);
  cache.insert(0, pos, make_result({0}, Box{Interval{1.0}}));
  EXPECT_TRUE(cache.find_exact(0, neg).has_value());
}

TEST(QueryCache, LruEvictionBoundsEntries) {
  NnCacheConfig config;
  config.max_entries = 8;  // one slot per shard
  NnQueryCache cache(config);
  for (int i = 0; i < 100; ++i) {
    cache.insert(0, Box{Interval{static_cast<double>(i), i + 1.0}},
                 make_result({0}, Box{Interval{0.0}}));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 100u);
  EXPECT_LE(stats.entries, 8u);
  EXPECT_EQ(stats.evictions, stats.insertions - stats.entries);
  EXPECT_GT(stats.bytes, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(QueryCache, StatsCountHitsMissesAndKinds) {
  NnQueryCache cache;
  cache.count_hit();
  cache.count_hit();
  cache.count_miss();
  cache.count_miss();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.lookups(), 4u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(QueryCache, ConcurrentHammerIsConsistent) {
  NnCacheConfig config;
  config.max_entries = 64;
  NnQueryCache cache(config);
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::atomic<std::uint64_t> observed_hits{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &observed_hits, t] {
      Rng rng(1234 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const auto key = static_cast<double>(rng.uniform_int(0, 99));
        const Box box{Interval{key, key + 1.0}};
        const std::size_t net = static_cast<std::size_t>(rng.uniform_int(0, 4));
        if (rng.chance(0.5)) {
          // The written payload encodes the network; a hit that crossed
          // networks would fail the assertions below.
          cache.insert(net, box, NnQueryCache::Result{{net}, box});
        } else if (const auto hit = cache.find_exact(net, box)) {
          observed_hits.fetch_add(1);
          ASSERT_EQ(hit->commands, std::vector<std::size_t>{net});
          ASSERT_EQ(hit->output_box, box);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_GT(observed_hits.load(), 0u);
  EXPECT_LE(cache.stats().entries, 64u);
}

/// Controller-level fixture: braking loop with a threshold controller whose
/// single network is exact, so abstract steps prune to one command away
/// from the threshold.
struct CacheLoopSetup {
  std::unique_ptr<Dynamics> plant = braking_plant();
  std::unique_ptr<NeuralController> ctrl = threshold_controller(-1e9, -8.0);
  ClosedLoop system{plant.get(), ctrl.get(), 1.0};
  BoxRegion error{{{0, Interval{-1e9, 0.0}}}};
  BoxRegion target{{{0, Interval{20.0, 1e9}}}};

  EngineConfig config() const {
    static const TaylorIntegrator integrator;
    EngineConfig ec;
    ec.verify.reach.control_steps = 30;
    ec.verify.reach.integration_steps = 2;
    ec.verify.reach.gamma = 4;
    ec.verify.reach.integrator = &integrator;
    ec.verify.max_refinement_depth = 2;
    ec.verify.split_dims = {1};
    ec.verify.threads = 8;
    return ec;
  }

  SymbolicSet cells() const {
    SymbolicSet set;
    for (int i = 0; i < 4; ++i) {
      set.push_back({Box{Interval{4.0 + i, 5.0 + i}, Interval{-2.0, 2.0}}, 0});
    }
    return set;
  }

  std::string canonical_run(NnCacheMode mode) const {
    NnCacheConfig cache;
    cache.mode = mode;
    ctrl->configure_cache(cache);
    const VerificationEngine engine(system, error, target);
    VerifyReport report = engine.run(cells(), config()).report;
    strip_timing(report);
    std::ostringstream os;
    save_report(report, os);
    return os.str();
  }
};

TEST(QueryCache, MemoModeStepAbstractReplaysExactResult) {
  const auto ctrl = threshold_controller(5.0, -8.0);
  NnCacheConfig cache;
  cache.mode = NnCacheMode::kMemo;
  ctrl->configure_cache(cache);
  const Box state{Interval{0.0, 1.0}, Interval{-1.0, 1.0}};
  const AbstractControlStep first = ctrl->step_abstract(state, 0);
  const AbstractControlStep second = ctrl->step_abstract(state, 0);
  EXPECT_EQ(first.commands, second.commands);
  EXPECT_TRUE(first.network_output == second.network_output);
  ASSERT_NE(ctrl->query_cache(), nullptr);
  const auto stats = ctrl->query_cache()->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // And the memo result matches what a cacheless controller computes.
  const auto bare = threshold_controller(5.0, -8.0);
  bare->configure_cache(NnCacheConfig{NnCacheMode::kOff});
  const AbstractControlStep fresh = bare->step_abstract(state, 0);
  EXPECT_EQ(fresh.commands, second.commands);
  EXPECT_TRUE(fresh.network_output == second.network_output);
}

TEST(QueryCache, OffModeDisablesCacheEntirely) {
  const auto ctrl = threshold_controller(5.0, -8.0);
  ctrl->configure_cache(NnCacheConfig{NnCacheMode::kOff});
  EXPECT_EQ(ctrl->query_cache(), nullptr);
  const Box state{Interval{0.0, 1.0}, Interval{-1.0, 1.0}};
  (void)ctrl->step_abstract(state, 0);  // must not crash without a cache
}

TEST(QueryCache, MemoEngineRunIsByteIdenticalToOff) {
  CacheLoopSetup s;
  const std::string off = s.canonical_run(NnCacheMode::kOff);
  const std::string memo = s.canonical_run(NnCacheMode::kMemo);
  EXPECT_EQ(off, memo);
}

}  // namespace
}  // namespace nncs
