#pragma once

// Host-speed calibration. The benchmark runs on a few cores of a shared
// host whose speed drifts by up to about 1.8x over minutes, in CPU time as
// well as in wall time (neighbours on the same physical cores), so a raw
// time measured in one run cannot be compared with one measured minutes
// later. The calibration is a fixed piece of work that shares no code with
// the program; timing it right next to each measured interval gives the
// host's speed at that moment, and the benchmark reports its times divided
// by the host's slowdown, that is, at the nominal host speed.

#include <cstddef>

namespace perfbench {

/// Calibration chunks per thread after each round.
inline constexpr unsigned kRoundChunks = 96;
/// Calibration chunks before each set-up sample.
inline constexpr unsigned kSetupChunks = 6;

/// How much slower the host is now than the nominal host: the wall time of
/// `chunks_per_thread` calibration chunks per thread on `threads` threads,
/// over the time they take on the reference host when it is quiet (a 4-vCPU
/// Intel Xeon virtual machine; the nominal speed only fixes the scale of
/// the reported times). The chunks are taken from one shared counter, as
/// the engine's workers take cells from their queue, so on several threads
/// it measures the cores' combined throughput, like a parallel round.
[[nodiscard]] double host_slowdown(std::size_t threads, unsigned chunks_per_thread);

/// One chunk of calibration work; returns a checksum so the work cannot be
/// optimised away (and so tests can check it is deterministic).
[[nodiscard]] double calibration_chunk(unsigned index);

}  // namespace perfbench
