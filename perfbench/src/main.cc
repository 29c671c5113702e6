// End-to-end maintenance benchmark: one seeded workload through the public
// ViewManager API with durability on, every result checked. See README.md.
//
//   xvm_e2e --workload point_mix --seed 1 --seconds 10 --trace 0
//           [--work-dir DIR] [--trace-dir DIR] [--doc-kb N]
//
// --trace 0 prints the end-to-end metrics; --trace 1 re-drives the same
// stream call by call through a replica of the statement pipeline with one
// span per layer call and prints the per-layer metrics. The last line of
// stdout is the JSON result; the exit code is non-zero when a correctness
// check fails or the run could not be set up.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "pattern/compile.h"
#include "readers.h"
#include "replica.h"
#include "stats.h"
#include "view/manager.h"
#include "view/wal.h"
#include "workload.h"
#include "xmark/generator.h"
#include "xmark/views.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xvm::perfbench {
namespace {

namespace fs = std::filesystem;

// setup_s is the median of at least kMinSetupReps set-ups that together take
// at least kMinSetupSeconds (at most kMaxSetupReps).
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 15;
constexpr double kMinSetupSeconds = 2.0;
constexpr int kRecoverReps = 5;  // persist.recover_ms is the median of these
// Closed-loop workloads measure reads in writer-free slices spread over the
// window: kReadSlices slices of kReadSliceSeconds each, by kQuietReaders.
constexpr size_t kQuietReaders = 2;
constexpr int kReadSlices = 4;
constexpr double kReadSliceSeconds = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-run";
  std::string trace_dir = ".bench_build/perfbench-traces";
  size_t doc_kb = 0;  // 0: the workload's own document size
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else if (flag == "--trace-dir") {
      a->trace_dir = v;
    } else if (flag == "--doc-kb") {
      a->doc_kb = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

// ---------------------------------------------------------------- output

/// Metrics in print order; printed as aligned lines and as the final JSON.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    entries_.push_back({name, value, unit, note});
  }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Entry& e : entries_) {
      std::printf("%-32s %14.6g %-6s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i > 0) json += ", ";
      json += "\"" + e.name + "\": {\"value\": " + Number(e.value) +
              ", \"unit\": \"" + e.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };

  /// Shortest round-trip decimal form: every digit as measured.
  static std::string Number(double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return ec == std::errc() ? std::string(buf, end) : "0";
  }

  std::vector<Entry> entries_;
};

std::string SamplesNote(size_t n) { return "(n=" + std::to_string(n) + ")"; }

/// "(n=3: 1.2 1.4 1.3)" for short sample lists.
std::string ListNote(const std::vector<double>& samples) {
  std::string out = "(n=" + std::to_string(samples.size()) + ":";
  for (double v : samples) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    out += buf;
  }
  return out + ")";
}

/// Collects correctness failures; each is also reported on stderr.
class Checks {
 public:
  void Fail(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ok_ = false;
  }
  void Expect(bool cond, const std::string& what) {
    if (!cond) Fail(what);
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Status FreshDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  return Status::Ok();
}

/// Bytes of the checkpoint files in `dir` (everything but the WAL).
uint64_t CheckpointBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().filename() != "wal.log") {
      total += entry.file_size();
    }
  }
  return total;
}

// ---------------------------------------------------------------- checks

bool SameSnapshots(const SnapshotSet& a, const SnapshotSet& b,
                   std::string* why) {
  if (a.generation != b.generation) {
    *why = "generation " + std::to_string(a.generation) + " vs " +
           std::to_string(b.generation);
    return false;
  }
  if (a.views.size() != b.views.size()) {
    *why = "view count differs";
    return false;
  }
  for (size_t i = 0; i < a.views.size(); ++i) {
    const ViewSnapshot& va = *a.views[i];
    const ViewSnapshot& vb = *b.views[i];
    if (va.view_name() != vb.view_name() || !(va.schema() == vb.schema()) ||
        va.size() != vb.size()) {
      *why = "view " + va.view_name() + ": name, schema or size differs (" +
             std::to_string(va.size()) + " vs " + std::to_string(vb.size()) +
             " tuples)";
      return false;
    }
    for (size_t t = 0; t < va.size(); ++t) {
      const CountedTuple& x = va.tuples()[t];
      const CountedTuple& y = vb.tuples()[t];
      if (x.count != y.count || x.tuple != y.tuple) {
        *why = "view " + va.view_name() + " differs at tuple " +
               std::to_string(t);
        return false;
      }
    }
  }
  return true;
}

/// Each view's published content against a from-scratch evaluation over the
/// final store.
void CheckAgainstRecompute(const std::vector<const MaintainedView*>& views,
                           const StoreIndex& store, const SnapshotSet& set,
                           Checks* checks) {
  for (size_t i = 0; i < views.size(); ++i) {
    const TreePattern& pattern = views[i]->def().pattern();
    const std::vector<CountedTuple> truth =
        EvalViewWithCounts(pattern, StoreLeafSource(&store, &pattern));
    const ViewSnapshot& snap = *set.views[i];
    bool same = truth.size() == snap.size();
    for (size_t t = 0; same && t < truth.size(); ++t) {
      same = truth[t].count == snap.tuples()[t].count &&
             truth[t].tuple == snap.tuples()[t].tuple;
    }
    checks->Expect(same, "view " + snap.view_name() +
                             " differs from recomputation over the final store");
  }
}

// ---------------------------------------------------------------- engine

/// One set-up copy of the program under test.
struct Engine {
  std::unique_ptr<Document> doc;
  std::unique_ptr<StoreIndex> store;
  std::unique_ptr<ViewManager> mgr;

  /// Tears down in dependency order: the manager and the store hold raw
  /// pointers into the document.
  void Reset() {
    mgr.reset();
    store.reset();
    doc.reset();
  }

  std::vector<const MaintainedView*> views() const {
    std::vector<const MaintainedView*> out;
    for (size_t i = 0; i < mgr->size(); ++i) out.push_back(&mgr->view(i));
    return out;
  }
};

/// An engine over an empty document with every view registered: the state
/// Recover() starts from.
StatusOr<Engine> EmptyEngine(size_t lanes) {
  Engine e;
  e.doc = std::make_unique<Document>();
  e.store = std::make_unique<StoreIndex>(e.doc.get());
  e.mgr = std::make_unique<ViewManager>(e.doc.get(), e.store.get());
  e.mgr->set_workers(lanes);
  for (const std::string& name : XMarkViewNames()) {
    XVM_ASSIGN_OR_RETURN(ViewDefinition def, XMarkView(name));
    XVM_RETURN_IF_ERROR(
        e.mgr->AddView(std::move(def), LatticeStrategy::kSnowcaps).status());
  }
  return e;
}

/// setup_s: ParseDocument + StoreIndex::Build + 7x AddView +
/// EnableDurability.
StatusOr<Engine> SetUpEngine(const std::string& xml, size_t lanes,
                             const std::string& dur_dir) {
  Engine e;
  e.doc = std::make_unique<Document>();
  XVM_RETURN_IF_ERROR(ParseDocument(xml, e.doc.get()));
  e.store = std::make_unique<StoreIndex>(e.doc.get());
  e.store->Build();
  e.mgr = std::make_unique<ViewManager>(e.doc.get(), e.store.get());
  e.mgr->set_workers(lanes);
  for (const std::string& name : XMarkViewNames()) {
    XVM_ASSIGN_OR_RETURN(ViewDefinition def, XMarkView(name));
    XVM_RETURN_IF_ERROR(
        e.mgr->AddView(std::move(def), LatticeStrategy::kSnowcaps).status());
  }
  XVM_RETURN_IF_ERROR(e.mgr->EnableDurability(dur_dir));
  return e;
}

/// Recovers a fresh engine from `dir`, as a restarted process would, and
/// checks it against the live snapshots; returns the Recover() time in ms.
double RecoverAndCheck(const std::string& dir, size_t lanes,
                       const SnapshotSet& live, Checks* checks) {
  StatusOr<Engine> rec = EmptyEngine(lanes);
  if (!rec.ok()) {
    checks->Fail("recovery engine: " + rec.status().ToString());
    return 0;
  }
  const Clock::time_point t0 = Clock::now();
  const Status st = rec->mgr->Recover(dir);
  const double ms = MsBetween(t0, Clock::now());
  checks->Expect(st.ok(), "Recover failed: " + st.ToString());
  std::string why;
  checks->Expect(SameSnapshots(live, *rec->mgr->SnapshotAll(), &why),
                 "recovered snapshots differ from the live ones: " + why);
  return ms;
}

// ---------------------------------------------------------------- writer

/// Drives one statement stream into an engine: applies statements, runs
/// the periodic checkpoint, and checks that every bulk_churn cycle returns
/// the live node count to its start.
class Writer {
 public:
  using ApplyFn = std::function<Status(const UpdateStmt&)>;
  using CheckpointFn = std::function<Status()>;

  Writer(StatementSource* source, ApplyFn apply,
         std::function<size_t()> alive_nodes, CheckpointFn checkpoint,
         size_t checkpoint_every, Checks* checks)
      : source_(source),
        apply_(std::move(apply)),
        alive_nodes_(std::move(alive_nodes)),
        checkpoint_(std::move(checkpoint)),
        checkpoint_every_(checkpoint_every),
        checks_(checks),
        cycle_start_alive_(alive_nodes_()) {}

  struct Done {
    StmtKind kind = StmtKind::kInsert;
    Clock::time_point start, end;
    bool ok = true;
  };

  Done Step() { return Apply(source_->Next()); }

  Done Apply(const GeneratedStmt& g) {
    Done d;
    d.kind = g.kind;
    d.start = Clock::now();
    const Status st = apply_(g.stmt);
    d.end = Clock::now();
    d.ok = st.ok();
    if (!d.ok) {
      ++failed_;
      std::fprintf(stderr, "statement %s failed: %s\n", g.stmt.name.c_str(),
                   st.ToString().c_str());
    }
    ++applied_;
    at_round_boundary_ = g.ends_round;
    if (g.ends_cycle) {
      const size_t alive = alive_nodes_();
      checks_->Expect(alive == cycle_start_alive_,
                      "bulk cycle ending with " + g.stmt.name + " left " +
                          std::to_string(alive) + " live nodes, started with " +
                          std::to_string(cycle_start_alive_));
      cycle_start_alive_ = alive;
    }
    if (checkpoint_ && checkpoint_every_ > 0 &&
        applied_ % checkpoint_every_ == 0) {
      Checkpoint();
    }
    return d;
  }

  void Checkpoint() {
    const Clock::time_point t0 = Clock::now();
    const Status st = checkpoint_();
    checkpoint_ms_.push_back(MsBetween(t0, Clock::now()));
    checks_->Expect(st.ok(), "checkpoint failed: " + st.ToString());
  }

  /// Steps to the next round boundary.
  void AlignToRound() {
    while (!at_round_boundary_) Step();
  }


  void set_checkpoint_every(size_t n) { checkpoint_every_ = n; }
  uint64_t failed() const { return failed_; }
  const std::vector<double>& checkpoint_ms() const { return checkpoint_ms_; }

 private:
  StatementSource* source_;
  ApplyFn apply_;
  std::function<size_t()> alive_nodes_;
  CheckpointFn checkpoint_;
  size_t checkpoint_every_;
  Checks* checks_;
  size_t cycle_start_alive_;
  uint64_t applied_ = 0;
  uint64_t failed_ = 0;
  bool at_round_boundary_ = true;
  std::vector<double> checkpoint_ms_;
};

/// Raw per-statement samples of one measured window.
struct Window {
  std::vector<double> latency_ms;  // closed loop: service; open: from due
  std::vector<StmtKind> kinds;
  std::vector<double> late_ms;  // open loop: start - due
  uint64_t backlog_max = 0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  double seconds = 0;
  double peak_rss_mb = 0;
};

/// Measures as many statements as fit in `seconds`. With rate > 0 the loop
/// is open: statement i is due at start + i / rate and its latency runs from
/// that due time. With `slices` set (closed loop only), the writer pauses
/// kReadSlices times, evenly spread, while those paused readers read for
/// kReadSliceSeconds; the pauses are not part of the window.
Window Measure(Writer* w, double seconds, double rate, size_t rss_at,
               ReaderPool* slices) {
  Window out;
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const Clock::time_point t0 = Clock::now();
  Clock::duration paused{0};
  int slices_done = 0;
  for (size_t i = 0;; ++i) {
    Clock::time_point due = Clock::now();
    if (rate > 0) {
      due = t0 + to_duration(i / rate);
      if (due > t0 + to_duration(seconds)) break;
      std::this_thread::sleep_until(due);
    } else {
      const double active_s = MsBetween(t0 + paused, due) / 1000.0;
      if (active_s >= seconds) break;
      if (slices != nullptr && slices_done < kReadSlices &&
          active_s >= seconds * (slices_done + 0.5) / kReadSlices) {
        slices->Resume();
        std::this_thread::sleep_for(to_duration(kReadSliceSeconds));
        slices->Pause();
        ++slices_done;
        paused += Clock::now() - due;
        continue;
      }
    }
    const Writer::Done d = w->Step();
    ++out.attempted;
    if (d.ok) ++out.ok;
    out.kinds.push_back(d.kind);
    if (rate > 0) {
      out.latency_ms.push_back(MsBetween(due, d.end));
      out.late_ms.push_back(std::max(0.0, MsBetween(due, d.start)));
      const double due_by_start = MsBetween(t0, d.start) / 1000.0 * rate;
      const auto started_due = static_cast<uint64_t>(due_by_start);
      if (started_due > i) {
        out.backlog_max = std::max(out.backlog_max, started_due - i);
      }
    } else {
      out.latency_ms.push_back(MsBetween(d.start, d.end));
    }
    if (rss_at > 0 && out.attempted == rss_at) out.peak_rss_mb = PeakRssMb();
  }
  out.seconds = MsBetween(t0 + paused, Clock::now()) / 1000.0;
  if (out.peak_rss_mb == 0) out.peak_rss_mb = PeakRssMb();
  return out;
}

std::vector<double> KindSamples(const Window& w, StmtKind kind) {
  std::vector<double> out;
  for (size_t i = 0; i < w.kinds.size(); ++i) {
    if (w.kinds[i] == kind) out.push_back(w.latency_ms[i]);
  }
  return out;
}

void CheckReads(const ReadResult& r, Checks* checks) {
  checks->Expect(r.ops > 0, "readers completed no operation");
  checks->Expect(r.bad_lookups == 0,
                 std::to_string(r.bad_lookups) +
                     " point lookups missed the tuple they were given");
}

struct Input {
  WorkloadSpec spec;
  std::unique_ptr<Document> gen;  // the generated document, initial state
  std::string xml;
};

Input MakeInput(const Args& a, const WorkloadSpec& spec) {
  Input in;
  in.spec = spec;
  if (a.doc_kb > 0) in.spec.doc_bytes = a.doc_kb * 1024;
  in.gen = std::make_unique<Document>();
  GenerateXMark(XMarkConfig{in.spec.doc_bytes, in.spec.doc_seed},
                in.gen.get());
  in.xml = SerializeDocument(*in.gen);
  return in;
}

// ---------------------------------------------------------------- runs

int RunEndToEnd(const Args& a, const Input& in) {
  const WorkloadSpec& spec = in.spec;
  Checks checks;
  const std::string dir = a.work_dir + "/db";

  std::vector<double> setup_s;
  double setup_total_s = 0;
  Engine eng;
  for (int r = 0; r < kMaxSetupReps; ++r) {
    if (r >= kMinSetupReps && setup_total_s >= kMinSetupSeconds) break;
    eng.Reset();
    if (Status st = FreshDir(dir); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    const Clock::time_point t0 = Clock::now();
    StatusOr<Engine> e = SetUpEngine(in.xml, spec.lanes, dir);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    setup_total_s += setup_s.back();
    if (!e.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", e.status().ToString().c_str());
      return 2;
    }
    eng = std::move(e).value();
  }

  std::unique_ptr<StatementSource> source =
      MakeStatementSource(spec, *in.gen, a.seed);
  Writer w(
      source.get(),
      [&](const UpdateStmt& s) { return eng.mgr->ApplyAndPropagateAll(s).status(); },
      [&] { return eng.doc->num_alive(); },
      [&] { return eng.mgr->Checkpoint(dir); }, spec.checkpoint_every, &checks);
  for (size_t i = 0; i < spec.warmup_stmts; ++i) w.Step();

  // Concurrent readers for serve_mixed, writer-free read slices otherwise.
  const bool concurrent = spec.readers > 0;
  ReaderPool readers([&] { return eng.mgr->SnapshotAll(); },
                     concurrent ? spec.readers : kQuietReaders, a.seed,
                     /*start_paused=*/!concurrent);
  const Window m = Measure(&w, a.seconds, spec.rate_per_s, spec.rss_at_stmt,
                           concurrent ? nullptr : &readers);
  const ReadResult reads = readers.Stop();
  CheckReads(reads, &checks);

  // Durability: a checkpoint, a fixed tail of statements only the WAL holds,
  // then a recovery into a fresh manager, which must equal the live state.
  w.set_checkpoint_every(0);
  w.AlignToRound();
  w.Checkpoint();
  for (const GeneratedStmt& g : source->Tail()) w.Apply(g);
  const SnapshotSetPtr live = eng.mgr->SnapshotAll();
  CheckAgainstRecompute(eng.views(), *eng.store, *live, &checks);
  // The live engine is gone first; its published snapshots stay valid.
  eng.Reset();
  RecoverAndCheck(dir, spec.lanes, *live, &checks);

  Report rep;
  rep.Add("setup_s", Median(setup_s), "s", ListNote(setup_s));
  rep.Add("stmts_per_s", SafeDiv(m.ok, m.seconds), "1/s",
          "(" + std::to_string(m.ok) + " in " + std::to_string(m.seconds) + " s)");
  rep.Add("stmt_p50_ms", Median(m.latency_ms), "ms",
          SamplesNote(m.latency_ms.size()));
  rep.Add("stmt_p95_ms", Percentile(m.latency_ms, 0.95), "ms",
          SamplesNote(m.latency_ms.size()));
  for (StmtKind kind : {StmtKind::kInsert, StmtKind::kDelete, StmtKind::kReplace}) {
    const std::vector<double> s = KindSamples(m, kind);
    rep.Add(std::string(StmtKindName(kind)) + "_p50_ms", Median(s), "ms",
            SamplesNote(s.size()));
  }
  rep.Add("stmt_ok_frac", SafeDiv(m.ok, m.attempted), "ratio",
          "(" + std::to_string(m.attempted - m.ok) + " failed)");
  rep.Add("read_p50_us", GroupedPercentile(reads.op_ns, 0.5) / 1000, "us",
          SamplesNote(reads.op_ns.size()));
  rep.Add("read_p99_us", GroupedPercentile(reads.op_ns, 0.99) / 1000, "us",
          SamplesNote(reads.op_ns.size()));
  rep.Add("reads_per_s", SafeDiv(reads.ops, reads.seconds), "1/s",
          concurrent ? "(concurrent with the writer)"
                     : "(writer-free read slices)");
  rep.Add("peak_rss_mb", m.peak_rss_mb, "MB",
          "(at measured statement " + std::to_string(spec.rss_at_stmt) + ")");

  std::error_code ec;
  fs::remove_all(dir, ec);
  const uint64_t failed = w.failed();
  rep.Print(checks.ok(), m.attempted, failed);
  return checks.ok() ? 0 : 1;
}

int RunTraced(const Args& a, const Input& in) {
  const WorkloadSpec& spec = in.spec;
  Checks checks;
  const std::string vm_dir = a.work_dir + "/db";
  const std::string rep_dir = a.work_dir + "/replica";
  if (!FreshDir(vm_dir).ok() || !FreshDir(rep_dir).ok()) return 2;

  // The untraced ViewManager and the traced replica run in lockstep on one
  // stream: each statement goes to both, in alternating order, so the two
  // see the same conditions and the per-statement comparison gives the
  // tracing overhead. Readers (serve_mixed) read from the replica.
  StatusOr<Engine> e = SetUpEngine(in.xml, spec.lanes, vm_dir);
  if (!e.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", e.status().ToString().c_str());
    return 2;
  }
  Engine eng = std::move(e).value();
  TracedReplica replica(spec.lanes);
  StatusOr<double> parse_ms = replica.SetUp(in.xml, rep_dir + "/wal.log");
  if (!parse_ms.ok()) {
    std::fprintf(stderr, "replica setup failed: %s\n",
                 parse_ms.status().ToString().c_str());
    return 2;
  }

  Tracer tracer;
  LayerCounts counts;
  bool measuring = false;
  std::vector<double> vm_ms, rep_ms;  // service time per measured statement
  std::vector<uint64_t> checkpoint_bytes;
  uint64_t paired = 0;
  auto apply_vm = [&](const UpdateStmt& s) {
    const Clock::time_point t0 = Clock::now();
    const Status st = eng.mgr->ApplyAndPropagateAll(s).status();
    if (measuring) vm_ms.push_back(MsBetween(t0, Clock::now()));
    return st;
  };
  auto apply_replica = [&](const UpdateStmt& s) {
    tracer.BeginStatement(static_cast<uint32_t>(counts.stmts));
    const Clock::time_point t0 = Clock::now();
    const Status st = replica.Apply(s, measuring ? &tracer : nullptr,
                                    measuring ? &counts : nullptr);
    if (measuring) rep_ms.push_back(MsBetween(t0, Clock::now()));
    return st;
  };
  std::unique_ptr<StatementSource> source =
      MakeStatementSource(spec, *in.gen, a.seed);
  Writer w(
      source.get(),
      [&](const UpdateStmt& s) {
        const bool vm_first = paired++ % 2 == 0;
        const Status first = vm_first ? apply_vm(s) : apply_replica(s);
        const Status second = vm_first ? apply_replica(s) : apply_vm(s);
        return first.ok() ? second : first;
      },
      [&] { return eng.doc->num_alive(); },
      [&] {
        Status st = eng.mgr->Checkpoint(vm_dir);
        checkpoint_bytes.push_back(CheckpointBytes(vm_dir));
        return st;
      },
      spec.checkpoint_every, &checks);
  for (size_t i = 0; i < spec.warmup_stmts; ++i) w.Step();

  const bool concurrent = spec.readers > 0;
  ReaderPool readers([&] { return replica.SnapshotAll(); },
                     concurrent ? spec.readers : kQuietReaders, a.seed,
                     /*start_paused=*/!concurrent);
  const ValContCache::Stats cache_before = replica.store().cache().stats();
  measuring = true;
  const Window m = Measure(&w, a.seconds, spec.rate_per_s, 0,
                           concurrent ? nullptr : &readers);
  measuring = false;
  const ValContCache::Stats cache_after = replica.store().cache().stats();
  const ReadResult reads = readers.Stop();
  CheckReads(reads, &checks);

  // Persist layer: a checkpoint, then a tail only the WAL holds.
  w.set_checkpoint_every(0);
  w.AlignToRound();
  w.Checkpoint();
  for (const GeneratedStmt& g : source->Tail()) w.Apply(g);
  uint64_t replayed_records = 0;
  StatusOr<std::vector<WalRecord>> log =
      WriteAheadLog::ReadLog(vm_dir + "/wal.log");
  checks.Expect(log.ok(), "cannot read the WAL back");
  if (log.ok()) replayed_records = log->size();
  const uint64_t failed = w.failed();

  const SnapshotSetPtr rep_final = replica.SnapshotAll();
  const SnapshotSetPtr vm_final = eng.mgr->SnapshotAll();
  std::string why;
  checks.Expect(SameSnapshots(*vm_final, *rep_final, &why),
                "traced replica differs from the ViewManager run: " + why);
  // Recovery cost: the manager is torn down (as a crash would), then
  // restarted from its checkpoint and WAL tail several times.
  eng.Reset();
  std::vector<double> recover_ms;
  for (int r = 0; r < kRecoverReps; ++r) {
    recover_ms.push_back(
        RecoverAndCheck(vm_dir, spec.lanes, *vm_final, &checks));
  }
  std::vector<const MaintainedView*> views;
  for (size_t i = 0; i < replica.num_views(); ++i) {
    views.push_back(&replica.view(i));
  }
  CheckAgainstRecompute(views, replica.store(), *rep_final, &checks);
  const std::vector<double>& checkpoint_ms = w.checkpoint_ms();

  // Spans → per-layer times.
  const std::vector<std::string>& names = tracer.names();
  const std::vector<double> total_ms = tracer.TotalMsByName();
  const std::vector<double> self_ms = tracer.SelfMsByName();
  const double stmts = static_cast<double>(std::max<uint64_t>(counts.stmts, 1));
  auto per_stmt = [&](const std::string& span) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == span) return total_ms[i] / stmts;
    }
    return 0.0;
  };
  double stmt_ms = 0, covered_ms = 0;
  for (const Span& s : tracer.spans()) {
    const double ms = (s.end_ns - s.start_ns) / 1e6;
    if (s.parent < 0) stmt_ms += ms;
    else if (tracer.spans()[s.parent].parent < 0) covered_ms += ms;
  }
  double view_ms = 0;
  for (const std::string& name : XMarkViewNames()) {
    view_ms += per_stmt("view." + name) * stmts;
  }
  double vm_service = 0, rep_service = 0;
  for (double v : vm_ms) vm_service += v;
  for (double v : rep_ms) rep_service += v;

  std::error_code dir_ec;
  if (fs::create_directories(a.trace_dir, dir_ec); !dir_ec) {
    const std::string path = a.trace_dir + "/" + spec.name + "-seed" +
                             std::to_string(a.seed) + ".spans.tsv";
    checks.Expect(tracer.WriteTsv(path).ok(), "cannot write " + path);
    std::printf("spans written to %s\n", path.c_str());
  }
  std::printf("self time per statement, by span:\n");
  for (size_t i = 0; i < names.size(); ++i) {
    std::printf("  %-24s %10.4f ms self  %10.4f ms total\n", names[i].c_str(),
                self_ms[i] / stmts, total_ms[i] / stmts);
  }

  const ExecStats& ex = counts.exec;
  int64_t rows_in = 0;
  for (const ExecKernelStats& k : ex.kernels) rows_in += k.rows_in;
  auto kernel_rows_in = [&](PhysKernel k) {
    return static_cast<double>(ex.kernels[static_cast<size_t>(k)].rows_in);
  };
  const uint64_t hits = cache_after.hits - cache_before.hits;
  const uint64_t misses = cache_after.misses - cache_before.misses;
  const ServingStats serving = replica.serving_stats();

  Report rep;
  rep.Add("xml.parse_ms", *parse_ms, "ms");
  rep.Add("xml.alive_nodes", replica.doc().num_alive(), "count");
  rep.Add("xml.arena_nodes", replica.doc().arena_size(), "count");
  rep.Add("xpath.locate_ms", per_stmt("xpath.locate"), "ms");
  rep.Add("xpath.targets", counts.targets / stmts, "count");
  rep.Add("update.delta_minus_ms", per_stmt("update.delta_minus"), "ms");
  rep.Add("update.delta_plus_ms", per_stmt("update.delta_plus"), "ms");
  rep.Add("update.apply_pul_ms", per_stmt("update.apply_pul"), "ms");
  rep.Add("update.invalidate_ms", per_stmt("update.invalidate"), "ms");
  rep.Add("update.delta_rows", counts.delta_rows / stmts, "count");
  rep.Add("update.nodes_inserted", counts.nodes_inserted / stmts, "count");
  rep.Add("update.nodes_deleted", counts.nodes_deleted / stmts, "count");
  rep.Add("view.propagate_ms", view_ms / stmts, "ms");
  for (const std::string& name : XMarkViewNames()) {
    rep.Add("view." + name + ".propagate_ms", per_stmt("view." + name), "ms");
  }
  rep.Add("view.get_expr_ms", counts.get_expr_ms / stmts, "ms");
  rep.Add("view.execute_update_ms", counts.execute_update_ms / stmts, "ms");
  rep.Add("view.update_lattice_ms", counts.update_lattice_ms / stmts, "ms");
  rep.Add("view.fallback_ms", per_stmt("view.fallback"), "ms");
  rep.Add("view.fallbacks", counts.fallbacks / stmts, "count");
  rep.Add("view.terms_considered", counts.terms_considered / stmts, "count");
  rep.Add("view.terms_evaluated", counts.terms_evaluated / stmts, "count");
  rep.Add("view.terms_evaluated_ratio",
          SafeDiv(counts.terms_evaluated, counts.terms_considered), "ratio");
  rep.Add("view.derivations_changed", counts.derivations_changed / stmts,
          "count");
  rep.Add("view.tuples_modified", counts.tuples_modified / stmts, "count");
  rep.Add("exec.exec_ms", ex.exec_ms / stmts, "ms");
  rep.Add("exec.plans_executed", ex.plans_executed / stmts, "count");
  rep.Add("exec.scan_rows_in",
          (kernel_rows_in(PhysKernel::kScan) +
           kernel_rows_in(PhysKernel::kSnowcapScan)) / stmts,
          "count");
  rep.Add("exec.sjoin_rows_in", kernel_rows_in(PhysKernel::kStructJoin) / stmts,
          "count");
  rep.Add("exec.rows_in_per_delta_row",
          SafeDiv(static_cast<double>(rows_in), counts.delta_rows), "ratio");
  rep.Add("exec.sorts_performed", ex.sorts_performed / stmts, "count");
  rep.Add("fanout.wall_ms", per_stmt("fanout"), "ms");
  rep.Add("fanout.efficiency",
          SafeDiv(view_ms, replica.lanes() * per_stmt("fanout") * stmts),
          "ratio");
  rep.Add("store.remove_ms", per_stmt("store.remove"), "ms");
  rep.Add("store.add_ms", per_stmt("store.add"), "ms");
  rep.Add("store.cache_hit_ratio", SafeDiv(hits, hits + misses), "ratio");
  rep.Add("store.cache_bytes", replica.store().cache().ApproxBytes(), "bytes");
  rep.Add("store.cache_evictions",
          (cache_after.evictions - cache_before.evictions) / stmts, "count");
  rep.Add("store.cache_invalidations",
          (cache_after.invalidations - cache_before.invalidations) / stmts,
          "count");
  rep.Add("wal.append_ms", per_stmt("wal.append"), "ms");
  rep.Add("wal.bytes_per_stmt", counts.wal_bytes / stmts, "bytes");
  rep.Add("persist.checkpoint_ms", Median(checkpoint_ms), "ms",
          SamplesNote(checkpoint_ms.size()));
  rep.Add("persist.checkpoint_bytes", Median(checkpoint_bytes), "bytes");
  rep.Add("persist.replayed_records", replayed_records, "count");
  rep.Add("persist.recover_ms", Median(recover_ms), "ms", ListNote(recover_ms));
  rep.Add("snapshot.publish_ms", per_stmt("snapshot.publish"), "ms");
  rep.Add("snapshot.views_rebuilt", counts.views_rebuilt / stmts, "count");
  rep.Add("snapshot.tuples_copied", counts.tuples_copied / stmts, "count");
  rep.Add("snapshot.acquire_us", SafeDiv(reads.acquire_ns_sum, reads.ops) / 1000,
          "us");
  rep.Add("snapshot.lookup_us", SafeDiv(reads.lookup_ns_sum, reads.lookups) / 1000,
          "us");
  rep.Add("snapshot.staleness_max", serving.staleness_max, "count");
  rep.Add("loadgen.late_p95_ms", Percentile(m.late_ms, 0.95), "ms",
          SamplesNote(m.late_ms.size()));
  rep.Add("loadgen.backlog_max", m.backlog_max, "count");
  rep.Add("trace.coverage", SafeDiv(covered_ms, stmt_ms), "ratio");
  rep.Add("trace.overhead_frac", SafeDiv(rep_service, vm_service) - 1, "ratio",
          "(" + std::to_string(m.attempted) + " statements each)");
  checks.Expect(SafeDiv(covered_ms, stmt_ms) >= 0.98,
                "spans cover less than 98% of statement wall time");

  std::error_code ec;
  fs::remove_all(vm_dir, ec);
  fs::remove_all(rep_dir, ec);
  rep.Print(checks.ok(), m.attempted, failed);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace xvm::perfbench

int main(int argc, char** argv) {
  using namespace xvm::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xvm_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--trace-dir DIR] "
                 "[--doc-kb N]\n");
    return 2;
  }
  xvm::StatusOr<WorkloadSpec> spec = FindWorkload(args.workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  const Input in = MakeInput(args, *spec);
  return args.trace == 1 ? RunTraced(args, in) : RunEndToEnd(args, in);
}
