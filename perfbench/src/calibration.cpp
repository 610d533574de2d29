#include "calibration.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

/// Time of one chunk on the nominal host.
constexpr double kNominalChunkS = 0.05 / 96;
constexpr std::size_t kLanes = 64;
constexpr std::size_t kTableSize = std::size_t{1} << 16;  // 512 KiB of u64
constexpr int kSweeps = 60;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

// The same kind of work as the analysis does, in the benchmark's own code:
// outward-rounded interval products over short vectors, dependent scalar
// floating point, and scattered reads of a table larger than the L1 cache.
// It allocates nothing on the heap (the table is made once), so it leaves
// the allocator's arenas, and the process's peak resident set, to the
// program.
double calibration_chunk(unsigned index) {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kTableSize);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = mix(i + 1);
    }
    return t;
  }();
  double checksum = 0.0;
  std::uint64_t at = mix(index + 7) % kTableSize;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    std::array<double, kLanes> lo;
    std::array<double, kLanes> hi;
    for (std::size_t k = 0; k < kLanes; ++k) {
      at = table[at] % kTableSize;
      const double x = static_cast<double>(at & 0xffff) * 0x1p-16 - 0.5;
      lo[k] = x - 0x1p-10;
      hi[k] = x + 0x1p-10;
    }
    for (int round = 0; round < 8; ++round) {
      for (std::size_t k = 0; k + 1 < kLanes; ++k) {
        const double a = lo[k] * lo[k + 1];
        const double b = lo[k] * hi[k + 1];
        const double c = hi[k] * lo[k + 1];
        const double d = hi[k] * hi[k + 1];
        lo[k] = std::nextafter(std::min(std::min(a, b), std::min(c, d)), -INFINITY) + 0.25;
        hi[k] = std::nextafter(std::max(std::max(a, b), std::max(c, d)), INFINITY) + 0.25;
      }
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      checksum += hi[k] - lo[k];
    }
  }
  return checksum;
}

double host_slowdown(std::size_t threads, unsigned chunks_per_thread) {
  threads = std::max<std::size_t>(threads, 1);
  const unsigned chunks = chunks_per_thread * static_cast<unsigned>(threads);
  std::atomic<unsigned> next{0};
  std::atomic<std::uint64_t> sink{0};
  auto worker = [&] {
    double local = 0.0;
    for (unsigned i = next.fetch_add(1); i < chunks; i = next.fetch_add(1)) {
      local += calibration_chunk(i);
    }
    sink.fetch_add(static_cast<std::uint64_t>(local));
  };
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& t : pool) {
    t.join();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return seconds / (kNominalChunkS * chunks_per_thread);
}

}  // namespace perfbench
