// Quickstart: the five-minute tour of the library.
//
// 1. Describe a two-node system (rates measured in the paper).
// 2. Ask the regeneration solver for the optimal preemptive transfer (LBP-1).
// 3. Validate the prediction with the Monte-Carlo engine.
//
// Build & run:  ./examples/quickstart

#include <iostream>

#include "core/lbp1.hpp"
#include "core/optimizer.hpp"
#include "markov/two_node_mean.hpp"
#include "mc/engine.hpp"
#include "util/format.hpp"

using namespace lbsim;

int main() {
  // --- 1. the system of the paper's Section 4 -------------------------------
  // node 0: 1.08 tasks/s, fails every ~20 s, recovers in ~10 s
  // node 1: 1.86 tasks/s, fails every ~20 s, recovers in ~20 s
  // transferring L tasks takes Exp(mean 0.02 * L) seconds
  const markov::TwoNodeParams params = markov::ipdps2006_params();
  const std::size_t m0 = 100, m1 = 60;

  std::cout << "System: rates (" << params.nodes[0].lambda_d << ", "
            << params.nodes[1].lambda_d << ") tasks/s, availabilities ("
            << util::format_double(markov::availability(params.nodes[0]), 2) << ", "
            << util::format_double(markov::availability(params.nodes[1]), 2)
            << "), workload (" << m0 << ", " << m1 << ")\n\n";

  // --- 2. churn-aware one-shot balancing (LBP-1) -----------------------------
  const core::Lbp1Optimum opt = core::optimize_lbp1_exact(params, m0, m1);
  std::cout << "LBP-1 optimum: node " << opt.sender << " ships " << opt.transfer
            << " tasks (gain K = " << util::format_double(opt.gain, 3) << ")\n"
            << "predicted mean completion: "
            << util::format_double(opt.expected_completion, 2) << " s\n";

  // What if we had ignored the churn? (the paper's key message)
  const core::Lbp1Optimum naive =
      core::optimize_lbp1_exact(markov::without_failures(params), m0, m1);
  markov::TwoNodeMeanSolver solver(params);
  const double naive_under_churn = solver.lbp1_mean(m0, m1, naive.sender, naive.gain);
  std::cout << "ignoring churn would pick L = " << naive.transfer << " and cost "
            << util::format_double(naive_under_churn, 2) << " s under churn ("
            << util::format_double(naive_under_churn - opt.expected_completion, 2)
            << " s worse)\n\n";

  // --- 3. Monte-Carlo validation ---------------------------------------------
  mc::ScenarioConfig scenario = mc::make_two_node_scenario(
      params, m0, m1, std::make_unique<core::Lbp1Policy>(opt.sender, opt.gain));
  mc::McConfig mc_cfg;
  mc_cfg.replications = 1000;
  const mc::McResult mc_result = mc::run_monte_carlo(scenario, mc_cfg);
  std::cout << "Monte-Carlo (1000 runs): " << util::format_double(mc_result.mean(), 2)
            << " +- " << util::format_double(mc_result.ci95(), 2) << " s  ("
            << util::format_double(mc_result.mean_failures, 1)
            << " churn events per run on average)\n";
  return 0;
}
