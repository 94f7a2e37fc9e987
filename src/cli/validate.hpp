#pragma once
/// \file
/// The `lbsim validate` statistical gate: every registry family is run at
/// fixed seeds against the theory oracle wherever an exact solver exists, and
/// the MC estimates must pass a z-score gate on the mean (|sigma_err| below a
/// threshold) plus a Kolmogorov–Smirnov gate on the completion-time ECDF for
/// two-node points. Points past the tractability boundary are reported with
/// the "skip" marker (they demonstrate where theory ends, not a failure).
/// This is the same dispatch `lbsim sweep --compare=theory` uses, promoted to
/// a pass/fail command CI and users run to trust the reproduction.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cli/output.hpp"
#include "mc/engine.hpp"
#include "util/format.hpp"

namespace lbsim::cli {

struct ValidationOptions {
  /// Restrict to one registry family ("" = all).
  std::string family;
  /// Strict mode: more replications and the tight gates (CI's configuration).
  bool strict = false;
  /// 0 = mode default (400 replications, 1500 under --strict).
  std::size_t replications = 0;
  std::uint64_t seed = mc::engine_defaults(mc::Engine::kMc).seed;
  unsigned threads = 0;
  /// |mc_mean - theory| / stderr gate; 0 = mode default (5.0, 4.0 strict).
  double sigma_gate = 0.0;
  /// Extra absolute slack added to the KS acceptance threshold on top of the
  /// alpha = 0.01 Kolmogorov critical value (covers the solver's dt-grid
  /// discretisation); negative tightens the gate.
  double ks_slack = 0.01;
};

struct ValidationReport {
  util::TextTable table;
  RunMetadata metadata;
  std::size_t checked = 0;   ///< points an exact solver covered
  std::size_t skipped = 0;   ///< points past the solver boundary (not failures)
  std::size_t failures = 0;  ///< gate violations

  [[nodiscard]] bool passed() const noexcept { return failures == 0; }
};

/// Runs the validation suite. Throws ConfigError for an unknown family. A
/// registry family with no registered validation points is itself reported as
/// a failure row — "validate passed" is never vacuous.
[[nodiscard]] ValidationReport run_validation(const ValidationOptions& options);

/// Distinct family names carrying at least one validation point, in
/// registration order (exposed so tests can assert full registry coverage).
[[nodiscard]] std::vector<std::string> validation_families();

/// Kolmogorov critical KS distance at significance alpha for n samples:
/// sqrt(-ln(alpha/2) / (2n)). Exposed for the tests and the report column.
[[nodiscard]] double ks_critical(std::size_t n, double alpha);

}  // namespace lbsim::cli
