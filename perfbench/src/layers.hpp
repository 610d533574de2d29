#pragma once

// Per-layer tracing for the benchmark's traced run. Each wrapper sits on one
// public interface of the library (plant dynamics, validated integrator,
// controller, state regions), forwards every virtual unchanged and records
// a span plus counts around the call. Nothing inside the library is
// instrumented: the wrappers are handed to `VerificationEngine` in place of
// the real objects, so the traced run computes exactly what the plain run
// computes.
//
// Spans and counts go to per-thread buffers (no locking on the hot path);
// `TraceStore::collect` merges them once the engine has returned and its
// worker threads are gone.

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/controller.hpp"
#include "core/specs.hpp"
#include "ode/dynamics.hpp"
#include "ode/validated_integrator.hpp"

namespace perfbench {

/// The traced layer boundaries (the numbering is the span file's layer code).
enum class Layer : std::uint8_t {
  kOdeStep,        ///< ValidatedIntegrator::step
  kOdeAffineStep,  ///< ValidatedIntegrator::step_affine
  kPlant,          ///< Dynamics::eval over Interval / TaylorSeries
  kController,     ///< Controller::step_abstract* (one span per call)
  kSpecs,          ///< StateRegion box tests
};
inline constexpr std::size_t kLayerCount = 5;

inline constexpr std::uint32_t kNoParent = UINT32_MAX;

/// One timed call at a layer boundary. `parent` indexes the span of the same
/// thread that was open when this one started (kNoParent at top level).
struct Span {
  std::uint64_t start_ns = 0;  ///< since the store's epoch
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  Layer layer = Layer::kOdeStep;
};

/// Work counts recorded next to the spans.
struct Counts {
  std::uint64_t ode_steps = 0;
  std::uint64_t ode_failed_steps = 0;
  std::uint64_t ode_affine_steps = 0;
  std::uint64_t ode_affine_failed_steps = 0;
  std::uint64_t f_interval_evals = 0;
  std::uint64_t f_taylor_evals = 0;
  std::uint64_t controller_calls = 0;
  std::uint64_t controller_states = 0;
  std::uint64_t controller_commands = 0;
  std::uint64_t region_checks = 0;

  Counts& operator+=(const Counts& other);
};

/// Everything one traced round recorded, merged across threads.
struct TraceSummary {
  Counts counts;
  /// Per layer: summed duration of its outermost spans (nested spans of the
  /// same layer are not double counted) and its self time (duration minus
  /// the part covered by child spans of other layers).
  std::array<double, kLayerCount> busy_s{};
  std::array<double, kLayerCount> self_s{};
};

/// Process-wide span/count sink. `begin_round` opens a recording window,
/// `collect` closes it (call only after every recording thread has
/// finished) and computes the summary from the spans.
class TraceStore {
 public:
  static TraceStore& instance();

  void begin_round();
  [[nodiscard]] TraceSummary collect();
  /// Write the last collected round's spans (binary, see README.md).
  void write_spans(const std::filesystem::path& path) const;

 private:
  friend class ScopedSpan;

  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;  ///< stack of open span indices
    Counts counts;
    std::uint32_t thread = 0;
  };

  TraceStore();
  /// The calling thread's buffer for the current round.
  ThreadBuffer& local();
  [[nodiscard]] std::uint64_t now_ns() const;

  std::mutex mutex_;  // guards buffers_ and last_round_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint64_t> generation_{0};
  std::int64_t epoch_ns_ = 0;
  std::vector<std::unique_ptr<ThreadBuffer>> last_round_;
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] Counts& counts() { return buffer_->counts; }

 private:
  TraceStore::ThreadBuffer* buffer_;
  std::uint32_t index_ = 0;
};

class TracedDynamics final : public nncs::Dynamics {
 public:
  explicit TracedDynamics(const nncs::Dynamics& inner) : inner_(&inner) {}

  [[nodiscard]] std::size_t state_dim() const override { return inner_->state_dim(); }
  [[nodiscard]] std::size_t command_dim() const override { return inner_->command_dim(); }
  void eval(std::span<const double> s, std::span<const double> u,
            std::span<double> out) const override {
    inner_->eval(s, u, out);
  }
  void eval(std::span<const nncs::Interval> s, std::span<const nncs::Interval> u,
            std::span<nncs::Interval> out) const override;
  void eval(std::span<const nncs::TaylorSeries> s, std::span<const nncs::TaylorSeries> u,
            std::span<nncs::TaylorSeries> out) const override;
  [[nodiscard]] const nncs::LinearPart* linear_part() const override {
    return inner_->linear_part();
  }

 private:
  const nncs::Dynamics* inner_;
};

class TracedIntegrator final : public nncs::ValidatedIntegrator {
 public:
  explicit TracedIntegrator(const nncs::ValidatedIntegrator& inner) : inner_(&inner) {}

  [[nodiscard]] std::optional<nncs::ValidatedStep> step(const nncs::Dynamics& f,
                                                        const nncs::Box& s0, const nncs::Vec& u,
                                                        double h) const override;
  [[nodiscard]] std::optional<nncs::AffineValidatedStep> step_affine(
      const nncs::Dynamics& f, const nncs::AffineSet& s0, const nncs::Vec& u,
      double h) const override;

 private:
  const nncs::ValidatedIntegrator* inner_;
};

class TracedController final : public nncs::Controller {
 public:
  explicit TracedController(const nncs::Controller& inner) : inner_(&inner) {}

  [[nodiscard]] const nncs::CommandSet& commands() const override { return inner_->commands(); }
  [[nodiscard]] std::size_t state_dim() const override { return inner_->state_dim(); }
  [[nodiscard]] std::size_t step(const nncs::Vec& state,
                                 std::size_t previous_command) const override {
    return inner_->step(state, previous_command);
  }
  [[nodiscard]] nncs::AbstractControlStep step_abstract(
      const nncs::Box& state, std::size_t previous_command) const override;
  [[nodiscard]] nncs::AbstractControlStep step_abstract_relational(
      const nncs::AffineSet& state, std::size_t previous_command) const override;
  [[nodiscard]] std::vector<nncs::AbstractControlStep> step_abstract_batch(
      const std::vector<nncs::AbstractState>& states,
      const std::vector<std::size_t>& previous_commands) const override;

 private:
  const nncs::Controller* inner_;
};

class TracedRegion final : public nncs::StateRegion {
 public:
  explicit TracedRegion(const nncs::StateRegion& inner) : inner_(&inner) {}

  [[nodiscard]] bool contains_point(const nncs::Vec& state, std::size_t command) const override {
    return inner_->contains_point(state, command);
  }
  [[nodiscard]] bool certainly_contains(const nncs::Box& state,
                                        std::size_t command) const override;
  [[nodiscard]] bool possibly_intersects(const nncs::Box& state,
                                         std::size_t command) const override;

 private:
  const nncs::StateRegion* inner_;
};

}  // namespace perfbench
