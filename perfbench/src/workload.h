#ifndef XVM_PERFBENCH_WORKLOAD_H_
#define XVM_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "update/update.h"
#include "xml/document.h"

namespace xvm::perfbench {

/// Statement kinds the latency metrics are split by.
enum class StmtKind : uint8_t { kInsert, kDelete, kReplace };
const char* StmtKindName(StmtKind kind);

/// One generated statement. `ends_cycle` marks the last statement of a
/// bulk_churn cycle, after which the live node count must be back at its
/// value before the cycle started. `ends_round` marks the last statement of
/// a round: the unit (a point block of six, a bulk round of seven cycles)
/// within which every seed runs the same mix of operations.
struct GeneratedStmt {
  UpdateStmt stmt;
  StmtKind kind = StmtKind::kInsert;
  bool ends_cycle = false;
  bool ends_round = false;
};

/// Everything that distinguishes one workload from another. The document
/// seed is fixed per workload; only the statement stream follows --seed.
struct WorkloadSpec {
  std::string name;
  size_t doc_bytes = 0;
  uint64_t doc_seed = 7;
  size_t lanes = 1;             // ViewManager::set_workers
  double rate_per_s = 0;        // open-loop writer rate; 0 = closed loop
  size_t readers = 0;           // reader threads concurrent with the writer
  size_t checkpoint_every = 0;  // statements between checkpoints
  size_t warmup_stmts = 0;      // applied before measuring, not measured
  size_t rss_at_stmt = 0;       // measured statement that samples peak RSS
};

/// The three workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
StatusOr<WorkloadSpec> FindWorkload(const std::string& name);

/// A seeded, endless statement stream. Streams built from the same
/// workload, document and seed yield identical statements.
class StatementSource {
 public:
  virtual ~StatementSource() = default;
  virtual GeneratedStmt Next() = 0;

  /// The recovery tail: statements applied after the final checkpoint, so
  /// that only the WAL holds them. The same work for every seed; call it at
  /// a round boundary. Its last statement ends a round.
  virtual std::vector<GeneratedStmt> Tail() = 0;
};

/// Builds the workload's stream. `doc` is the generated input document in
/// its initial state; point streams read the ids and the initial homepage /
/// bidder layout from it so that every delete has a target.
std::unique_ptr<StatementSource> MakeStatementSource(const WorkloadSpec& spec,
                                                     const Document& doc,
                                                     uint64_t seed);

}  // namespace xvm::perfbench

#endif  // XVM_PERFBENCH_WORKLOAD_H_
