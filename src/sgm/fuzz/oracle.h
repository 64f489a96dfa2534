// Differential oracle: runs every configuration of a FuzzCase and
// cross-checks the results against the brute-force reference and against
// each other. Three properties are enforced:
//
//   1. Match count: every configuration must report exactly
//      min(true count, budget), where the true count comes from the
//      brute-force enumerator (core/brute_force.h).
//   2. Embedding set: on small cases (true count under the embedding cap,
//      no budget interference) the canonicalized set of embeddings of every
//      configuration must equal the reference set — counts can collide by
//      accident, sets cannot.
//   3. Limit status: when the true count is strictly under the budget, no
//      configuration may claim it hit the budget, and with an unlimited
//      time budget none may claim a timeout.
//   Properties 1-3 also hold for the order runs: the first configuration
//   whose plan passes PlanAcceptsAnyOrder (plan.h) is built once and
//   executed under RI's order and under one random connected order seeded
//   from the case (outcomes "<config>/order-ri", "<config>/order-random"),
//   so a count or embedding set that depends on the matching order shows.
//   4. Dynamic replay (cases carrying an update stream, the `upd=`
//      dimension): the query's embedding set, maintained incrementally by
//      the continuous matcher across every batch, must equal a cold
//      brute-force rematch of the final graph — and every delta record
//      must be coherent (additions new, retractions present).
//
// The oracle never crashes on malformed cases: a disconnected or oversized
// query yields a clean kRejected verdict, which replaying a reproducer
// treats as a pass (the engine's contract excludes such queries; rejecting
// them cleanly is the correct behaviour the regression suite pins down).
#ifndef SGM_FUZZ_ORACLE_H_
#define SGM_FUZZ_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sgm/fuzz/fuzz_case.h"

namespace sgm::fuzz {

/// Outcome category of one oracle run.
enum class VerdictKind : uint8_t {
  /// Every configuration agreed with the reference.
  kAgree = 0,
  /// The case is outside the engine's contract (disconnected query, more
  /// than 64 query vertices, empty query) and was rejected cleanly.
  kRejected,
  /// A configuration's match count differed from the reference.
  kCountMismatch,
  /// Counts agreed but the embedding sets differed.
  kEmbeddingMismatch,
  /// A configuration misreported its budget/timeout status.
  kLimitStatusMismatch,
  /// The incrementally maintained embedding set diverged from a cold
  /// full rematch after replaying the case's update stream.
  kDynamicMismatch,
};

/// Returns "agree" / "rejected" / "count-mismatch" / ...
const char* VerdictKindName(VerdictKind kind);

/// Parses the serialized name back; returns false on unknown input.
bool ParseVerdictKind(const std::string& name, VerdictKind* out);

/// Per-configuration outcome, kept for reporting.
struct ConfigOutcome {
  std::string name;
  uint64_t match_count = 0;
  bool timed_out = false;
  bool reached_limit = false;
  double total_ms = 0.0;
};

/// Result of one differential check.
struct OracleResult {
  VerdictKind kind = VerdictKind::kAgree;
  /// Human-readable description of the first disagreement.
  std::string detail;
  /// Brute-force reference count, capped at the effective budget.
  uint64_t reference_count = 0;
  std::vector<ConfigOutcome> outcomes;
  /// Dynamic-dimension accounting (zero when the case carries no updates
  /// or the dynamic check was skipped — see OracleOptions::dynamic_cap).
  uint64_t dynamic_batches = 0;
  uint64_t dynamic_additions = 0;
  uint64_t dynamic_retractions = 0;

  /// True when the verdict is a disagreement (not agree/rejected).
  bool Failed() const {
    return kind != VerdictKind::kAgree && kind != VerdictKind::kRejected;
  }
};

/// Oracle knobs.
struct OracleOptions {
  /// Safety cap applied when the case declares max_matches = 0, so a
  /// low-label case with millions of embeddings stays cheap. The capped
  /// count is still a valid differential check (every engine must reach
  /// the cap).
  uint64_t count_cap = 200000;
  /// Embedding sets are compared only when the true count is at most this.
  uint64_t embedding_cap = 5000;
  /// The dynamic differential (incremental replay vs cold rematch) runs
  /// only when the initial embedding set fits this cap; generated cases
  /// stay far below it.
  uint64_t dynamic_cap = 20000;
};

/// Runs the full differential check for one case.
OracleResult RunOracle(const FuzzCase& fuzz_case,
                       const OracleOptions& options = {});

}  // namespace sgm::fuzz

#endif  // SGM_FUZZ_ORACLE_H_
