#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "interval/box.hpp"

namespace nncs {

/// Reuse policy of the NN query cache sitting in front of the abstract
/// network transformers (interval / symbolic / zonotope propagation).
enum class NnCacheMode {
  /// No cache: every abstract controller step propagates from scratch.
  kOff,
  /// Exact-match memoization on (network id, input box). A hit replays the
  /// result a cacheless run would have computed bit-for-bit, so canonical
  /// (`strip_timing`) verification reports stay byte-identical to
  /// `kOff` runs. Within one engine run exact repeats are rare (sibling
  /// cells query *different* networks through the selector, and bisection
  /// produces fresh boxes); memo pays off when the same partition is
  /// analyzed repeatedly in one process (resume, re-verification, benches).
  kMemo,
};

[[nodiscard]] const char* to_string(NnCacheMode mode);

/// Parse "off" / "memo"; nullopt on anything else.
[[nodiscard]] std::optional<NnCacheMode> parse_nn_cache_mode(std::string_view text);

struct NnCacheConfig {
  NnCacheMode mode = NnCacheMode::kMemo;
  /// LRU bound on the total number of cached queries (split across shards).
  std::size_t max_entries = std::size_t{1} << 16;

  [[nodiscard]] bool enabled() const {
    return mode != NnCacheMode::kOff && max_entries > 0;
  }
};

/// Cache config from the `NNCS_NN_CACHE` environment variable
/// ("off" / "memo"; unset or unparsable → memo default).
[[nodiscard]] NnCacheConfig nn_cache_config_from_env();

/// Sharded, thread-safe, LRU-bounded memo of abstract NN controller-step
/// results, keyed by (network id, pre-processed input box). One instance is
/// owned by one `NeuralController` — and so serves one abstract domain — and
/// is shared by every thread analyzing cells of one verification run, so
/// reuse crosses cell and thread boundaries. Relational (affine-input)
/// queries never use it: a box key cannot distinguish two zonotopes with
/// the same hull.
///
/// Box keys hash their bounds' bit patterns with -0.0 canonicalized to 0.0,
/// matching `Box::operator==` (which compares doubles, so -0.0 == 0.0).
class NnQueryCache {
 public:
  /// One cached abstract step: the pruned command set and output enclosure.
  struct Result {
    std::vector<std::size_t> commands;
    Box output_box;
  };

  struct Stats {
    std::uint64_t hits = 0;    ///< queries answered from the cache
    std::uint64_t misses = 0;  ///< queries that propagated from scratch
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;  ///< approximate retained footprint

    [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
    [[nodiscard]] double hit_rate() const {
      return lookups() == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups());
    }
  };

  explicit NnQueryCache(NnCacheConfig config = {});
  ~NnQueryCache();

  NnQueryCache(const NnQueryCache&) = delete;
  NnQueryCache& operator=(const NnQueryCache&) = delete;

  [[nodiscard]] const NnCacheConfig& config() const { return config_; }
  [[nodiscard]] NnCacheMode mode() const { return config_.mode; }

  /// Exact-match lookup; promotes the entry to most-recently-used. Does not
  /// touch the hit/miss statistics — the caller reports the outcome through
  /// count_hit()/count_miss().
  [[nodiscard]] std::optional<Result> find_exact(std::size_t net_id, const Box& input);

  /// Insert (or refresh) an entry; evicts least-recently-used entries past
  /// `max_entries`.
  void insert(std::size_t net_id, const Box& input, Result result);

  void count_hit();
  void count_miss();

  /// Merged statistics across shards (approximate while writers race).
  [[nodiscard]] Stats stats() const;

  /// Drop every entry (statistics are kept).
  void clear();

 private:
  struct Key {
    std::size_t net_id = 0;
    Box input;

    bool operator==(const Key& other) const {
      return net_id == other.net_id && input == other.input;
    }
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  struct Entry {
    Key key;
    Result result;
    std::size_t bytes = 0;
  };

  static constexpr std::size_t kShards = 8;

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  };

  Shard& shard_for(const Key& key);

  NnCacheConfig config_;
  std::size_t max_per_shard_ = 0;
  std::array<Shard, kShards> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace nncs
