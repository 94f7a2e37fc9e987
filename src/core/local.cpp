#include "core/local.hpp"

#include <algorithm>
#include <sstream>

#include "stochastic/rng.hpp"
#include "util/error.hpp"

namespace lbsim::core {

void RoundState::read(const SystemView& view) {
  const std::size_t n = view.node_count();
  queue.resize(n);
  up.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    queue[i] = view.queue_length(static_cast<int>(i));
    up[i] = view.is_up(static_cast<int>(i));
  }
}

double metropolis_weight(std::size_t deg_i, std::size_t deg_j) {
  return 1.0 / (1.0 + static_cast<double>(std::max(deg_i, deg_j)));
}

DiffusionPolicy::DiffusionPolicy(double alpha) : alpha_(alpha) {
  LBSIM_REQUIRE(alpha > 0.0 && alpha <= 1.0, "diffusion alpha=" << alpha);
}

std::string DiffusionPolicy::name() const {
  std::ostringstream os;
  os << "Diffusion(alpha=" << alpha_ << ")";
  return os.str();
}

std::vector<TransferDirective> DiffusionPolicy::round(const SystemView& view) {
  state_.read(view);
  const RoundState& state = state_;
  const std::size_t n = view.node_count();
  std::vector<TransferDirective> directives;
  for (std::size_t i = 0; i < n; ++i) {
    if (!state.up[i]) continue;
    const std::size_t deg_i = view.neighbor_count(static_cast<int>(i));
    for (std::size_t k = 0; k < deg_i; ++k) {
      const auto j = static_cast<std::size_t>(view.neighbor(static_cast<int>(i), k));
      if (j <= i || !state.up[j]) continue;  // each live edge once
      const double w =
          metropolis_weight(deg_i, view.neighbor_count(static_cast<int>(j)));
      const double imbalance = static_cast<double>(state.queue[i]) -
                               static_cast<double>(state.queue[j]);
      const auto count = static_cast<std::size_t>(alpha_ * w *
                                                  (imbalance < 0 ? -imbalance : imbalance));
      if (count == 0) continue;
      if (directives.empty()) directives.reserve(n);  // enough for most rounds
      if (imbalance > 0) {
        directives.push_back({static_cast<int>(i), static_cast<int>(j), count});
      } else {
        directives.push_back({static_cast<int>(j), static_cast<int>(i), count});
      }
    }
  }
  return directives;
}

std::vector<TransferDirective> DiffusionPolicy::on_start(const SystemView& view) {
  return round(view);
}

std::vector<TransferDirective> DiffusionPolicy::on_periodic(const SystemView& view) {
  return round(view);
}

PolicyPtr DiffusionPolicy::clone() const { return std::make_unique<DiffusionPolicy>(alpha_); }

RandomProbePolicy::RandomProbePolicy(std::size_t probes) : probes_(probes) {
  LBSIM_REQUIRE(probes >= 1, "probes=" << probes);
}

std::string RandomProbePolicy::name() const {
  std::ostringstream os;
  os << "RandomProbe(d=" << probes_ << ")";
  return os.str();
}

std::vector<TransferDirective> RandomProbePolicy::on_start(const SystemView& view) {
  (void)view;
  return {};
}

std::vector<TransferDirective> RandomProbePolicy::on_periodic(const SystemView& view) {
  LBSIM_CHECK(rng_ != nullptr, "RandomProbePolicy needs an engine-bound RNG stream");
  state_.read(view);
  const RoundState& state = state_;
  const std::size_t n = view.node_count();
  std::vector<TransferDirective> directives;
  std::vector<std::size_t>& slots = slots_;
  for (std::size_t i = 0; i < n; ++i) {
    if (!state.up[i]) continue;  // a down node cannot run its local protocol
    const std::size_t deg = view.neighbor_count(static_cast<int>(i));
    if (deg == 0) continue;
    // Probe min(d, deg) distinct neighbours: partial Fisher-Yates over the
    // neighbour slots, one uniform draw per probe (deterministic draw count,
    // so replications stay reproducible for any outcome).
    const std::size_t d = std::min(probes_, deg);
    slots.resize(deg);
    for (std::size_t k = 0; k < deg; ++k) slots[k] = k;
    // Fullest probed neighbour (steal candidate; a down neighbour's stranded
    // queue may be rescued) and emptiest probed up neighbour (shed target).
    std::size_t steal_from = n;  // sentinel: none
    std::size_t shed_to = n;
    for (std::size_t p = 0; p < d; ++p) {
      const std::size_t pick = p + rng_->uniform_index(deg - p);
      std::swap(slots[p], slots[pick]);
      const auto j =
          static_cast<std::size_t>(view.neighbor(static_cast<int>(i), slots[p]));
      if (steal_from == n || state.queue[j] > state.queue[steal_from]) steal_from = j;
      if (state.up[j] && (shed_to == n || state.queue[j] < state.queue[shed_to])) {
        shed_to = j;
      }
    }
    const std::size_t steal_gap =
        steal_from != n && state.queue[steal_from] > state.queue[i]
            ? state.queue[steal_from] - state.queue[i]
            : 0;
    const std::size_t shed_gap = shed_to != n && state.queue[i] > state.queue[shed_to]
                                     ? state.queue[i] - state.queue[shed_to]
                                     : 0;
    if (steal_gap < 2 && shed_gap < 2) continue;
    if (directives.empty()) directives.reserve(n);  // at most one per node
    // Halve the larger gap (ties steal: pulling work towards a live node).
    if (steal_gap >= shed_gap) {
      directives.push_back(
          {static_cast<int>(steal_from), static_cast<int>(i), steal_gap / 2});
    } else {
      directives.push_back({static_cast<int>(i), static_cast<int>(shed_to), shed_gap / 2});
    }
  }
  return directives;
}

PolicyPtr RandomProbePolicy::clone() const {
  auto copy = std::make_unique<RandomProbePolicy>(probes_);
  return copy;  // the RNG binding is per-replication and engine-owned
}

}  // namespace lbsim::core
