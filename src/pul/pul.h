#ifndef XVM_PUL_PUL_H_
#define XVM_PUL_PUL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/canonical.h"
#include "update/update.h"
#include "xml/document.h"

namespace xvm {

/// The §5 optimization framework for sequences of updates, re-implementing
/// the applicable subset of Cavalieri et al.'s rules over the two
/// fundamental operations the paper considers (§5.2):
///   * ins↘(v, P) — insert forest P after the last child of node v;
///   * del(v)     — delete node v.
///
/// Operations address nodes by structural ID, so — as in the original work —
/// the rules run without access to the source document.

/// Reference to a node inside another op's (not yet applied) payload forest:
/// `child_steps` are 0-based child indexes walked from tree `tree_index`'s
/// root. Used by aggregation rule D6.
struct PayloadRef {
  int producer_op = -1;
  int tree_index = 0;
  std::vector<int> child_steps;
};

/// One atomic update operation.
struct AtomicOp {
  enum class Kind : uint8_t { kInsertInto, kDelete };

  Kind kind = Kind::kDelete;
  /// Target node's structural ID (when addressing a document node).
  DeweyId target;
  /// Set when the target lives inside an earlier op's payload (D6 case).
  std::optional<PayloadRef> payload_ref;
  /// Insert payload: a forest document (root label "#forest", children are
  /// the trees, in insertion order). Owned; null for deletes.
  std::shared_ptr<Document> payload;

  static AtomicOp Del(DeweyId target);
  static AtomicOp InsInto(DeweyId target, std::shared_ptr<Document> forest);
};

using OpSequence = std::vector<AtomicOp>;

/// Expands a statement-level PUL into a sequence of atomic operations
/// (Figure 13's CP step feeding the optimizer): insert ops own a copy of
/// their payload trees, targets become structural IDs.
OpSequence PulToAtomicOps(const Document& doc, const Pul& pul);

/// Statistics of one optimization pass.
struct ReduceStats {
  size_t o1_removed = 0;  // ins/del followed by del on the same node
  size_t o3_removed = 0;  // ins/del followed by del on an ancestor
  size_t i5_merged = 0;   // inserts on the same node combined

  size_t TotalRemoved() const { return o1_removed + o3_removed + i5_merged; }
};

/// Reduction rules O1, O3, I5 (Figure 14) applied to one sequence.
/// Returns the reduced sequence; `stats` (optional) reports what fired.
OpSequence ReduceOps(const OpSequence& ops, ReduceStats* stats = nullptr);

/// A detected conflict between two parallel PULs (Figure 15).
struct Conflict {
  enum class Rule : uint8_t { kIO, kLO, kNLO };
  Rule rule;
  size_t op1;  // index into the first sequence
  size_t op2;  // index into the second sequence
};

/// Conflict rules IO, LO, NLO for PULs to be run in parallel. Returns the
/// conflicts; integration itself is left to the caller's resolution policy
/// (the framework "allows PUL producers to define conflict resolution
/// policies").
std::vector<Conflict> DetectConflicts(const OpSequence& a,
                                      const OpSequence& b);

/// Integrates two parallel, conflict-free sequences (fails with
/// FailedPrecondition if DetectConflicts is non-empty).
StatusOr<OpSequence> IntegrateParallel(const OpSequence& a,
                                       const OpSequence& b);

/// Statistics of one aggregation pass.
struct AggregateStats {
  size_t a1_merged = 0;  // same-target inserts combined across sequences
  size_t d6_applied = 0; // second-PUL ops applied inside first-PUL payloads
};

/// Aggregation rules A1/A2 and D6 (Figure 16) for sequential composition
/// Δ1;Δ2. Ops of `b` carrying a payload_ref into ops of `a` are executed
/// against the payload forest (D6); same-target inserts merge (A1/A2).
OpSequence AggregateSequential(const OpSequence& a, const OpSequence& b,
                               AggregateStats* stats = nullptr);

/// Applies an atomic-op sequence to the document in order, resolving ID
/// targets through `store`'s pre-sequence relations (ops whose target
/// vanished are skipped, matching XQuery Update's snapshot-with-invalidation
/// semantics). Payload-ref ops resolve against the trees inserted by their
/// producer op. Leaves the store to the caller, as ApplyPul(.., nullptr).
ApplyResult ApplyAtomicOps(Document* doc, const OpSequence& ops,
                           const StoreIndex& store);

}  // namespace xvm

#endif  // XVM_PUL_PUL_H_
