#pragma once
/// \file
/// The arithmetic of LBP-2's balancing actions (paper eqs. (6)-(8)): per-pair
/// reference functions, and the whole-decision helpers every global policy
/// runs through.

#include <cstddef>
#include <vector>

#include "core/policy.hpp"
#include "markov/params.hpp"

namespace lbsim::core {

/// Excess load of node j: (m_j - (lambda_dj / sum_k lambda_dk) * sum_l m_l)^+ .
/// A node's fair share is proportional to its processing speed; only the part
/// above the fair share is eligible to leave.
[[nodiscard]] double excess_load(const std::vector<double>& lambda_d,
                                 const std::vector<std::size_t>& workloads, std::size_t j);

/// Partition fraction p_ij (paper eq. (6)): the share of node j's excess that
/// is sent to node i. For n = 2 the peer receives everything; for n >= 3
///   p_ij = 1/(n-2) * (1 - (m_i/lambda_di) / sum_{l != j} (m_l/lambda_dl)),
/// so nodes with smaller *normalised* load (drain time) receive more.
/// p_jj = 0; the fractions over i != j sum to 1.
[[nodiscard]] double partition_fraction(const std::vector<double>& lambda_d,
                                        const std::vector<std::size_t>& workloads,
                                        std::size_t i, std::size_t j);

/// LBP-2's on-failure transfer size LF_ij (paper eq. (8)): when node j fails,
/// its backup sends to node i
///   floor( availability_i * (lambda_di / sum_k lambda_dk) * lambda_dj / lambda_rj )
/// tasks — the expected backlog lambda_dj/lambda_rj accumulated during the
/// mean recovery time, split by processing speed and discounted by the
/// receiver's steady-state availability.
[[nodiscard]] std::size_t lbp2_failure_transfer(const std::vector<markov::NodeParams>& nodes,
                                                std::size_t i, std::size_t j);

/// Scratch that excess_balance reuses between calls: the calling policy keeps
/// one, so its capacity carries over from decision to decision.
struct BalanceScratch {
  std::vector<std::size_t> loads;
  std::vector<double> drain;  // m_l / lambda_dl
  std::vector<TransferDirective> staged;
};

/// The excess-load balance with gain K over the view's queues (paper eq. (7)):
/// every node j above its fair share sends round(K * p_ij * excess_j) tasks to
/// each peer i in ascending order, until its queue is spent. Zero-task entries
/// are omitted. With `up_senders_only`, nodes the view reports down send
/// nothing; the other senders' directives do not change. Equals the per-pair
/// references bit for bit.
///
/// Costs O(n + n * J') for the J' senders that price their receivers. Since
/// p_ij <= fl(1/(n-2)) (1 when n = 2) and IEEE rounding is monotone, no
/// receiver of sender j reaches one task when
/// fl(fl(K * fl(1/(n-2))) * excess_j) < 0.5; such a sender costs O(1). The
/// returned vector is allocated once, at its exact size (not at all when
/// empty).
[[nodiscard]] std::vector<TransferDirective> excess_balance(const SystemView& view, double gain,
                                                            BalanceScratch& scratch,
                                                            bool up_senders_only = false);

/// LBP-2's compensation when `node` fails: LF_i,node tasks (eq. (8)) to each
/// peer i in ascending order, capped by the failed node's queue. With
/// `up_peers_only`, peers the view reports down receive nothing. Equals
/// lbp2_failure_transfer bit for bit; it throws where that would, i.e. only
/// when a non-empty queue has an eligible receiver.
///
/// Each receiver is priced as floor(fl(w_i * B)) from the view's RateTable,
/// with B = lambda_d,node / lambda_r,node. Rounding is monotone, so when
/// fl(w_max * B) < 1 no LF reaches one task and the decision costs O(1);
/// otherwise it costs O(n).
[[nodiscard]] std::vector<TransferDirective> failure_compensation(const SystemView& view,
                                                                  int node,
                                                                  bool up_peers_only = false);

}  // namespace lbsim::core
