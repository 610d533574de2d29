#include "layers.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Counts& Counts::operator+=(const Counts& other) {
  ode_steps += other.ode_steps;
  ode_failed_steps += other.ode_failed_steps;
  ode_affine_steps += other.ode_affine_steps;
  ode_affine_failed_steps += other.ode_affine_failed_steps;
  f_interval_evals += other.f_interval_evals;
  f_taylor_evals += other.f_taylor_evals;
  controller_calls += other.controller_calls;
  controller_states += other.controller_states;
  controller_commands += other.controller_commands;
  region_checks += other.region_checks;
  return *this;
}

TraceStore::TraceStore() : epoch_ns_(steady_ns()) {}

TraceStore& TraceStore::instance() {
  static TraceStore store;
  return store;
}

void TraceStore::begin_round() {
  std::lock_guard lock(mutex_);
  buffers_.clear();
  epoch_ns_ = steady_ns();
  generation_.fetch_add(1);
}

TraceStore::ThreadBuffer& TraceStore::local() {
  thread_local ThreadBuffer* buffer = nullptr;
  thread_local std::uint64_t buffer_generation = 0;
  const std::uint64_t generation = generation_.load(std::memory_order_acquire);
  if (buffer == nullptr || buffer_generation != generation) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    buffer_generation = generation;
  }
  return *buffer;
}

std::uint64_t TraceStore::now_ns() const {
  return static_cast<std::uint64_t>(steady_ns() - epoch_ns_);
}

TraceSummary TraceStore::collect() {
  std::lock_guard lock(mutex_);
  TraceSummary summary;
  for (const auto& buffer : buffers_) {
    summary.counts += buffer->counts;
    const std::vector<Span>& spans = buffer->spans;
    // Spans are stored in start order, so a child always follows its parent:
    // one reverse pass folds every span's duration into its parent.
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (std::size_t i = spans.size(); i-- > 0;) {
      const Span& span = spans[i];
      const std::uint64_t duration = span.end_ns - span.start_ns;
      const auto layer = static_cast<std::size_t>(span.layer);
      summary.self_s[layer] += static_cast<double>(duration - child_ns[i]) * 1e-9;
      const bool nested_in_same_layer =
          span.parent != kNoParent && spans[span.parent].layer == span.layer;
      if (!nested_in_same_layer) {
        summary.busy_s[layer] += static_cast<double>(duration) * 1e-9;
      }
      if (span.parent != kNoParent) {
        child_ns[span.parent] += duration;
      }
    }
  }
  last_round_ = std::move(buffers_);
  buffers_.clear();
  // Threads that record again without a new round get fresh buffers.
  generation_.fetch_add(1);
  return summary;
}

void TraceStore::write_spans(const std::filesystem::path& path) const {
  // Little-endian records: u32 thread, u32 parent, u8 layer, u64 start_ns,
  // u64 end_ns (25 bytes each), after an 8-byte magic.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write spans to " + path.string());
  }
  out.write("NNCSSPN1", 8);
  for (const auto& buffer : last_round_) {
    for (const Span& span : buffer->spans) {
      const auto layer = static_cast<std::uint8_t>(span.layer);
      out.write(reinterpret_cast<const char*>(&buffer->thread), sizeof(buffer->thread));
      out.write(reinterpret_cast<const char*>(&span.parent), sizeof(span.parent));
      out.write(reinterpret_cast<const char*>(&layer), sizeof(layer));
      out.write(reinterpret_cast<const char*>(&span.start_ns), sizeof(span.start_ns));
      out.write(reinterpret_cast<const char*>(&span.end_ns), sizeof(span.end_ns));
    }
  }
  if (!out) {
    throw std::runtime_error("short write of spans to " + path.string());
  }
}

ScopedSpan::ScopedSpan(Layer layer) : buffer_(&TraceStore::instance().local()) {
  TraceStore& store = TraceStore::instance();
  Span span;
  span.parent = buffer_->open.empty() ? kNoParent : buffer_->open.back();
  span.layer = layer;
  index_ = static_cast<std::uint32_t>(buffer_->spans.size());
  buffer_->open.push_back(index_);
  span.start_ns = store.now_ns();
  buffer_->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  buffer_->spans[index_].end_ns = TraceStore::instance().now_ns();
  buffer_->open.pop_back();
}

void TracedDynamics::eval(std::span<const nncs::Interval> s, std::span<const nncs::Interval> u,
                          std::span<nncs::Interval> out) const {
  ScopedSpan span(Layer::kPlant);
  ++span.counts().f_interval_evals;
  inner_->eval(s, u, out);
}

void TracedDynamics::eval(std::span<const nncs::TaylorSeries> s,
                          std::span<const nncs::TaylorSeries> u,
                          std::span<nncs::TaylorSeries> out) const {
  ScopedSpan span(Layer::kPlant);
  ++span.counts().f_taylor_evals;
  inner_->eval(s, u, out);
}

std::optional<nncs::ValidatedStep> TracedIntegrator::step(const nncs::Dynamics& f,
                                                          const nncs::Box& s0,
                                                          const nncs::Vec& u, double h) const {
  ScopedSpan span(Layer::kOdeStep);
  auto result = inner_->step(f, s0, u, h);
  ++span.counts().ode_steps;
  if (!result) {
    ++span.counts().ode_failed_steps;
  }
  return result;
}

std::optional<nncs::AffineValidatedStep> TracedIntegrator::step_affine(const nncs::Dynamics& f,
                                                                      const nncs::AffineSet& s0,
                                                                      const nncs::Vec& u,
                                                                      double h) const {
  ScopedSpan span(Layer::kOdeAffineStep);
  auto result = inner_->step_affine(f, s0, u, h);
  ++span.counts().ode_affine_steps;
  if (!result) {
    ++span.counts().ode_affine_failed_steps;
  }
  return result;
}

nncs::AbstractControlStep TracedController::step_abstract(const nncs::Box& state,
                                                          std::size_t previous_command) const {
  ScopedSpan span(Layer::kController);
  auto result = inner_->step_abstract(state, previous_command);
  Counts& counts = span.counts();
  ++counts.controller_calls;
  ++counts.controller_states;
  counts.controller_commands += result.commands.size();
  return result;
}

nncs::AbstractControlStep TracedController::step_abstract_relational(
    const nncs::AffineSet& state, std::size_t previous_command) const {
  ScopedSpan span(Layer::kController);
  auto result = inner_->step_abstract_relational(state, previous_command);
  Counts& counts = span.counts();
  ++counts.controller_calls;
  ++counts.controller_states;
  counts.controller_commands += result.commands.size();
  return result;
}

std::vector<nncs::AbstractControlStep> TracedController::step_abstract_batch(
    const std::vector<nncs::AbstractState>& states,
    const std::vector<std::size_t>& previous_commands) const {
  ScopedSpan span(Layer::kController);
  auto results = inner_->step_abstract_batch(states, previous_commands);
  Counts& counts = span.counts();
  ++counts.controller_calls;
  counts.controller_states += results.size();
  for (const auto& result : results) {
    counts.controller_commands += result.commands.size();
  }
  return results;
}

bool TracedRegion::certainly_contains(const nncs::Box& state, std::size_t command) const {
  ScopedSpan span(Layer::kSpecs);
  ++span.counts().region_checks;
  return inner_->certainly_contains(state, command);
}

bool TracedRegion::possibly_intersects(const nncs::Box& state, std::size_t command) const {
  ScopedSpan span(Layer::kSpecs);
  ++span.counts().region_checks;
  return inner_->possibly_intersects(state, command);
}

}  // namespace perfbench
