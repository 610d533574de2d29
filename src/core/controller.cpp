#include "core/controller.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/argmin_analysis.hpp"
#include "nn/interval_prop.hpp"
#include "obs/span.hpp"

namespace nncs {

namespace {

/// Post# sanity checks on one abstract step.
void validate_commands(const AbstractControlStep& result, std::size_t command_count) {
  if (result.commands.empty()) {
    throw std::logic_error(
        "NeuralController: Post# returned no commands (unsound abstract post-processor)");
  }
  for (const std::size_t c : result.commands) {
    if (c >= command_count) {
      throw std::logic_error("NeuralController: Post# returned out-of-range command");
    }
  }
}

/// Post# on one propagation result: `bounds` is whatever the NN domain's
/// transformer produced (output box, symbolic or zonotope bounds), so the
/// matching `Postprocessor::eval_abstract` overload can prune on it.
template <class Bounds>
void apply_post(const Postprocessor& post, const Box& output, const Bounds& bounds,
                AbstractControlStep& step) {
  step.network_output = output;
  NNCS_SPAN("nn.argmin");
  step.commands = post.eval_abstract(bounds);
}

}  // namespace

CommandSet::CommandSet(std::vector<Vec> commands) : commands_(std::move(commands)) {
  if (commands_.empty()) {
    throw std::invalid_argument("CommandSet: at least one command required");
  }
  const std::size_t d = commands_.front().size();
  if (d == 0) {
    throw std::invalid_argument("CommandSet: commands must be non-empty vectors");
  }
  for (const auto& u : commands_) {
    if (u.size() != d) {
      throw std::invalid_argument("CommandSet: inconsistent command dimensions");
    }
  }
}

AffineSet Preprocessor::eval_abstract(const AffineSet& state) const {
  return AffineSet::from_box(eval_abstract(state.concretize()));
}

std::vector<AbstractControlStep> Controller::step_abstract_batch(
    const std::vector<AbstractState>& states,
    const std::vector<std::size_t>& previous_commands) const {
  if (states.size() != previous_commands.size()) {
    throw std::invalid_argument("Controller::step_abstract_batch: states/commands size mismatch");
  }
  std::vector<AbstractControlStep> results;
  results.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    results.push_back(states[i].has_relational()
                          ? step_abstract_relational(*states[i].relational(), previous_commands[i])
                          : step_abstract(states[i].box(), previous_commands[i]));
  }
  return results;
}

std::size_t ArgminPost::eval(const Vec& network_output) const {
  return concrete_argmin(network_output);
}

std::vector<std::size_t> ArgminPost::eval_abstract(const Box& network_output) const {
  return possible_argmin(network_output);
}

std::vector<std::size_t> ArgminPost::eval_abstract(const SymbolicBounds& bounds) const {
  return possible_argmin(bounds);
}

std::vector<std::size_t> ArgminPost::eval_abstract(const ZonotopeBounds& bounds) const {
  return possible_argmin(bounds);
}

NeuralController::NeuralController(CommandSet commands, std::vector<Network> networks,
                                   std::vector<std::size_t> selector,
                                   std::unique_ptr<Preprocessor> pre,
                                   std::unique_ptr<Postprocessor> post, NnDomain domain,
                                   NnCacheConfig cache)
    : commands_(std::move(commands)),
      networks_(std::move(networks)),
      selector_(std::move(selector)),
      pre_(std::move(pre)),
      post_(std::move(post)),
      domain_(domain) {
  configure_cache(cache);
  if (networks_.empty()) {
    throw std::invalid_argument("NeuralController: at least one network required");
  }
  if (!pre_ || !post_) {
    throw std::invalid_argument("NeuralController: pre/post processors must be non-null");
  }
  if (selector_.size() != commands_.size()) {
    throw std::invalid_argument("NeuralController: selector size must equal |U| (one network choice per previous command)");
  }
  for (const std::size_t net_idx : selector_) {
    if (net_idx >= networks_.size()) {
      throw std::invalid_argument("NeuralController: selector references network " +
                                  std::to_string(net_idx) + " out of range");
    }
  }
  for (const auto& net : networks_) {
    if (net.input_dim() != pre_->output_dim()) {
      throw std::invalid_argument("NeuralController: network input dim != Pre output dim");
    }
  }
}

std::size_t NeuralController::step(const Vec& state, std::size_t previous_command) const {
  if (previous_command >= commands_.size()) {
    throw std::out_of_range("NeuralController::step: bad previous command index");
  }
  const Network& net = networks_[selector_[previous_command]];
  const Vec x = pre_->eval(state);
  const Vec y = net.eval(x);
  const std::size_t next = post_->eval(y);
  if (next >= commands_.size()) {
    throw std::logic_error("NeuralController::step: Post returned out-of-range command");
  }
  return next;
}

void NeuralController::configure_cache(const NnCacheConfig& cache) {
  cache_ = cache.enabled() ? std::make_unique<NnQueryCache>(cache) : nullptr;
}

AbstractControlStep NeuralController::step_abstract(const Box& state,
                                                    std::size_t previous_command) const {
  return step_abstract_batch({AbstractState{state}}, {previous_command}).front();
}

AbstractControlStep NeuralController::step_abstract_relational(
    const AffineSet& state, std::size_t previous_command) const {
  return step_abstract_batch(
             {AbstractState{state.concretize(), std::make_shared<const AffineSet>(state)}},
             {previous_command})
      .front();
}

std::vector<AbstractControlStep> NeuralController::step_abstract_batch(
    const std::vector<AbstractState>& states,
    const std::vector<std::size_t>& previous_commands) const {
  if (states.size() != previous_commands.size()) {
    throw std::invalid_argument(
        "NeuralController::step_abstract_batch: states/commands size mismatch");
  }
  const std::size_t n = states.size();
  std::vector<AbstractControlStep> results(n);
  // Phase 1: Pre# and the memo consult, per state in order. Relational
  // states keep their affine pre-image for phase 2 and bypass the memo
  // (box keys cannot distinguish two zonotopes with the same hull).
  std::vector<std::optional<AffineSet>> pre_images(n);
  std::vector<std::size_t> miss_index;
  std::vector<std::size_t> miss_net;
  miss_index.reserve(n);
  miss_net.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (previous_commands[i] >= commands_.size()) {
      throw std::out_of_range("NeuralController::step_abstract_batch: bad previous command index");
    }
    const std::size_t net_id = selector_[previous_commands[i]];
    AbstractControlStep& result = results[i];
    if (states[i].has_relational()) {
      pre_images[i].emplace(pre_->eval_abstract(*states[i].relational()));
      result.network_input = pre_images[i]->concretize();
    } else {
      result.network_input = pre_->eval_abstract(states[i].box());
      if (cache_) {
        if (auto hit = cache_->find_exact(net_id, result.network_input)) {
          // Exact match replays the propagation's own result, so memo mode
          // keeps canonical reports byte-identical to cacheless runs.
          result.commands = std::move(hit->commands);
          result.network_output = std::move(hit->output_box);
          cache_->count_hit();
          continue;
        }
        cache_->count_miss();
      }
    }
    miss_index.push_back(i);
    miss_net.push_back(net_id);
  }
  // Phase 2: per selected network (first-appearance order), one batched
  // sweep. Box misses are deduplicated on input-box equality — a repeat
  // replays the first propagation, just as a memo hit would. Relational
  // misses are never deduplicated (equal hulls do not imply equal
  // zonotopes) and always go through the zonotope transformer, whatever
  // the NN domain.
  std::vector<bool> handled(miss_index.size(), false);
  for (std::size_t m0 = 0; m0 < miss_index.size(); ++m0) {
    if (handled[m0]) {
      continue;
    }
    const std::size_t net_id = miss_net[m0];
    std::vector<std::size_t> relational;              // indices into results
    std::vector<std::size_t> unique;                  // indices into results
    std::vector<std::vector<std::size_t>> duplicates;  // extra indices per unique
    for (std::size_t m = m0; m < miss_index.size(); ++m) {
      if (handled[m] || miss_net[m] != net_id) {
        continue;
      }
      handled[m] = true;
      const std::size_t i = miss_index[m];
      if (pre_images[i].has_value()) {
        relational.push_back(i);
        continue;
      }
      const auto same_input = [&](std::size_t u) {
        return results[u].network_input == results[i].network_input;
      };
      const auto it = std::find_if(unique.begin(), unique.end(), same_input);
      if (it != unique.end()) {
        duplicates[static_cast<std::size_t>(it - unique.begin())].push_back(i);
      } else {
        unique.push_back(i);
        duplicates.emplace_back();
      }
    }
    const Network& net = networks_[net_id];
    if (!relational.empty()) {
      std::vector<const AffineSet*> inputs;
      inputs.reserve(relational.size());
      for (const std::size_t i : relational) {
        inputs.push_back(&*pre_images[i]);
      }
      std::vector<ZonotopeBounds> all;
      {
        NNCS_SPAN("nn.zonotope");
        all = zonotope_propagate_batch(net, inputs);
      }
      NNCS_COUNT("nn.relational_steps", relational.size());
      for (std::size_t k = 0; k < relational.size(); ++k) {
        apply_post(*post_, all[k].output_box, all[k], results[relational[k]]);
      }
    }
    if (unique.empty()) {
      continue;
    }
    std::vector<Box> inputs;
    inputs.reserve(unique.size());
    for (const std::size_t i : unique) {
      inputs.push_back(results[i].network_input);
    }
    // F# and Post#: only the transformer and the Post# overload differ.
    if (domain_ == NnDomain::kSymbolic) {
      const std::vector<SymbolicBounds> all = symbolic_propagate_batch(net, inputs);
      for (std::size_t u = 0; u < unique.size(); ++u) {
        apply_post(*post_, all[u].output_box, all[u], results[unique[u]]);
      }
    } else if (domain_ == NnDomain::kAffine) {
      const std::vector<ZonotopeBounds> all = zonotope_propagate_batch(net, inputs);
      for (std::size_t u = 0; u < unique.size(); ++u) {
        apply_post(*post_, all[u].output_box, all[u], results[unique[u]]);
      }
    } else {
      const std::vector<Box> all = interval_propagate_batch(net, inputs);
      for (std::size_t u = 0; u < unique.size(); ++u) {
        apply_post(*post_, all[u], all[u], results[unique[u]]);
      }
    }
    for (std::size_t u = 0; u < unique.size(); ++u) {
      const AbstractControlStep& result = results[unique[u]];
      for (const std::size_t d : duplicates[u]) {
        results[d].commands = result.commands;
        results[d].network_output = result.network_output;
      }
      if (cache_) {
        cache_->insert(net_id, result.network_input,
                       NnQueryCache::Result{result.commands, result.network_output});
      }
    }
  }
  for (const AbstractControlStep& result : results) {
    validate_commands(result, commands_.size());
  }
  return results;
}

}  // namespace nncs
