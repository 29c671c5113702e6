#include <sys/wait.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "pattern/compile.h"
#include "view/manager.h"
#include "view/wal.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"
#include "xml/serializer.h"

namespace xvm {
namespace {

/// Crash matrix for the durability layer: a deterministic workload (XMark
/// document, two maintained views, four statements, two checkpoints) is
/// first traced to enumerate every fault-point execution, then re-run once
/// per (point, occurrence) in a forked child that is killed at exactly that
/// instruction (::_exit, no flushes — the closest userspace gets to a power
/// cut). The parent recovers from the survivor files and requires the result
/// to be byte-identical to a control run of exactly the statements that had
/// durably begun, and internally consistent with a from-scratch recompute.
/// The deferred variant stages every statement with Defer, so at a crash the
/// statements since the last checkpoint are WAL-logged but not flushed, and
/// each checkpoint starts with a non-empty queue; its controls still run in
/// immediate mode.

constexpr uint64_t kSeed = 47;
constexpr size_t kDocBytes = 30 * 1024;
const char* const kViewNames[] = {"Q1", "Q2"};

struct Step {
  bool checkpoint = false;
  std::string update;  // XMark update name
  bool insert = true;
};

/// Statements chosen to exercise inserts and a delete on both sides of a
/// checkpoint; the final checkpoint leaves a truncated WAL behind.
std::vector<Step> Workload() {
  return {
      {false, "X1_L", true},
      {false, "X2_L", true},
      {true, "", true},
      {false, "A7_O", true},
      {false, "A6_A", false},
      {true, "", true},
  };
}

size_t StatementCount() {
  size_t n = 0;
  for (const Step& s : Workload()) n += s.checkpoint ? 0 : 1;
  return n;
}

UpdateStmt StepStmt(const Step& s) {
  auto u = FindXMarkUpdate(s.update);
  XVM_CHECK(u.ok());
  return s.insert ? MakeInsertStmt(*u) : MakeDeleteStmt(*u);
}

struct Fixture {
  std::unique_ptr<Document> doc;
  std::unique_ptr<StoreIndex> store;
  std::unique_ptr<ViewManager> mgr;
};

/// The application's deterministic initial state (what main() would build
/// before enabling durability).
Fixture MakeInitial() {
  Fixture f;
  f.doc = std::make_unique<Document>();
  GenerateXMark(XMarkConfig{kDocBytes, kSeed}, f.doc.get());
  f.store = std::make_unique<StoreIndex>(f.doc.get());
  f.store->Build();
  f.mgr = std::make_unique<ViewManager>(f.doc.get(), f.store.get());
  for (const char* name : kViewNames) {
    auto def = XMarkView(name);
    XVM_CHECK(def.ok());
    XVM_CHECK(
        f.mgr->AddView(std::move(def).value(), LatticeStrategy::kSnowcaps)
            .ok());
  }
  return f;
}

/// The recovery posture: empty document, views registered, nothing applied —
/// Recover() fills in everything from the checkpoint.
Fixture MakeEmpty() {
  Fixture f;
  f.doc = std::make_unique<Document>();
  f.store = std::make_unique<StoreIndex>(f.doc.get());
  f.mgr = std::make_unique<ViewManager>(f.doc.get(), f.store.get());
  for (const char* name : kViewNames) {
    auto def = XMarkView(name);
    XVM_CHECK(def.ok());
    XVM_CHECK(
        f.mgr->AddView(std::move(def).value(), LatticeStrategy::kSnowcaps)
            .ok());
  }
  return f;
}

/// Recovers from `dir` exactly as a restarted application would: a manifest
/// means the checkpoint supplies the document; no manifest means the app
/// rebuilds its initial state and the WAL replays on top of it.
Fixture RecoverFrom(const std::string& dir) {
  Fixture f = FileExists(dir + "/MANIFEST") ? MakeEmpty() : MakeInitial();
  Status st = f.mgr->Recover(dir);
  XVM_CHECK(st.ok());
  return f;
}

struct ControlState {
  std::string doc_xml;
  std::vector<std::vector<CountedTuple>> views;
};

ControlState Capture(const Fixture& f) {
  ControlState c;
  c.doc_xml = SerializeSubtree(*f.doc, f.doc->root());
  for (size_t i = 0; i < f.mgr->size(); ++i) {
    c.views.push_back(f.mgr->view(i).view().Snapshot());
  }
  return c;
}

/// Ground truth after the first `n` statements, computed without any
/// durability machinery. Determinism (same seed, same statements, no
/// randomness) makes this byte-comparable with a recovered state.
ControlState RunControl(size_t n) {
  Fixture f = MakeInitial();
  size_t applied = 0;
  for (const Step& s : Workload()) {
    if (s.checkpoint || applied >= n) continue;
    auto out = f.mgr->ApplyAndPropagateAll(StepStmt(s));
    XVM_CHECK(out.ok());
    ++applied;
  }
  return Capture(f);
}

void ExpectMatchesControl(const Fixture& f, const ControlState& control) {
  EXPECT_EQ(SerializeSubtree(*f.doc, f.doc->root()), control.doc_xml);
  ASSERT_EQ(f.mgr->size(), control.views.size());
  for (size_t i = 0; i < f.mgr->size(); ++i) {
    auto got = f.mgr->view(i).view().Snapshot();
    ASSERT_EQ(got.size(), control.views[i].size()) << kViewNames[i];
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got[t].tuple, control.views[i][t].tuple) << kViewNames[i];
      EXPECT_EQ(got[t].count, control.views[i][t].count) << kViewNames[i];
    }
  }
}

/// Recovery must also equal a from-scratch recompute over the recovered
/// store — the "recovery equals full recompute" acceptance bar.
void ExpectSelfConsistent(const Fixture& f) {
  for (size_t i = 0; i < f.mgr->size(); ++i) {
    const MaintainedView& v = f.mgr->view(i);
    const TreePattern& pat = v.def().pattern();
    auto truth = EvalViewWithCounts(pat, StoreLeafSource(f.store.get(), &pat));
    auto got = v.view().Snapshot();
    ASSERT_EQ(got.size(), truth.size()) << v.def().name();
    for (size_t t = 0; t < truth.size(); ++t) {
      EXPECT_EQ(got[t].tuple, truth[t].tuple) << v.def().name();
      EXPECT_EQ(got[t].count, truth[t].count) << v.def().name();
    }
  }
}

/// Runs the full durable workload against `dir`, deferring every statement
/// to the next checkpoint when `defer`. Returns 0 on completion; an armed
/// crash point exits with fault::kCrashExitCode before returning.
int RunDurableWorkload(const std::string& dir, bool defer = false) {
  Fixture f = MakeInitial();
  if (!f.mgr->EnableDurability(dir).ok()) return 90;
  for (const Step& s : Workload()) {
    if (s.checkpoint) {
      if (defer && f.mgr->pending() == 0) return 93;
      if (!f.mgr->Checkpoint(dir).ok()) return 91;
    } else if (defer) {
      if (!f.mgr->Defer(StepStmt(s)).ok()) return 92;
    } else {
      auto out = f.mgr->ApplyAndPropagateAll(StepStmt(s));
      if (!out.ok()) return 92;
    }
  }
  return 0;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WipeDir(const std::string& dir) {
  StatusOr<std::vector<std::string>> listed = ListDir(dir);
  if (listed.ok()) {
    for (const std::string& name : *listed) {
      EXPECT_TRUE(RemoveFileIfExists(dir + "/" + name).ok()) << name;
    }
  }
  ::rmdir(dir.c_str());
}

TEST(DurabilityTest, CheckpointRecoverRoundTrip) {
  const std::string dir = TempPath("dur_roundtrip");
  WipeDir(dir);
  ASSERT_EQ(RunDurableWorkload(dir), 0);

  Fixture f = RecoverFrom(dir);
  EXPECT_EQ(f.mgr->last_sequence(), StatementCount());
  ExpectMatchesControl(f, RunControl(StatementCount()));
  ExpectSelfConsistent(f);

  // The recovered manager is a first-class citizen: it keeps logging and
  // checkpointing.
  auto u = FindXMarkUpdate("X1_L");
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(f.mgr->ApplyAndPropagateAll(MakeInsertStmt(*u)).ok());
  ASSERT_TRUE(f.mgr->Checkpoint(dir).ok());
  ExpectSelfConsistent(f);
  WipeDir(dir);
}

TEST(DurabilityTest, DoubleRecoverIsIdempotent) {
  const std::string dir = TempPath("dur_double");
  WipeDir(dir);
  // Checkpoint mid-stream, then two more statements: the WAL holds a tail.
  {
    Fixture f = MakeInitial();
    ASSERT_TRUE(f.mgr->EnableDurability(dir).ok());
    size_t applied = 0;
    for (const Step& s : Workload()) {
      if (s.checkpoint) {
        // Keep only the mid-stream checkpoint: the statements after it stay
        // in the WAL, so recovery exercises checkpoint + replay together.
        if (applied == 2) {
          ASSERT_TRUE(f.mgr->Checkpoint(dir).ok());
        }
        continue;
      }
      ASSERT_TRUE(f.mgr->ApplyAndPropagateAll(StepStmt(s)).ok());
      ++applied;
    }
  }
  Fixture first = RecoverFrom(dir);
  ControlState after_first = Capture(first);
  first = Fixture{};  // release the WAL before the second recovery

  Fixture second = RecoverFrom(dir);
  ExpectMatchesControl(second, after_first);
  ExpectMatchesControl(second, RunControl(StatementCount()));
  ExpectSelfConsistent(second);
  WipeDir(dir);
}

TEST(DurabilityTest, CorruptViewSnapshotFallsBackToRecompute) {
  const std::string dir = TempPath("dur_corrupt");
  WipeDir(dir);
  ASSERT_EQ(RunDurableWorkload(dir), 0);

  // Flip one payload byte in the first view snapshot; its checksum now
  // fails, so recovery must recompute that view instead of loading it.
  StatusOr<std::vector<std::string>> listed = ListDir(dir);
  ASSERT_TRUE(listed.ok());
  std::string victim;
  for (const std::string& name : *listed) {
    if (name.rfind("view-", 0) == 0) {
      victim = dir + "/" + name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(victim, &bytes).ok());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  ASSERT_TRUE(AtomicWriteFile(victim, bytes).ok());

  Fixture f = RecoverFrom(dir);
  ExpectMatchesControl(f, RunControl(StatementCount()));
  ExpectSelfConsistent(f);
  WipeDir(dir);
}

TEST(DurabilityTest, WalOnlyRecoveryWithoutManifest) {
  const std::string dir = TempPath("dur_walonly");
  WipeDir(dir);
  {
    Fixture f = MakeInitial();
    ASSERT_TRUE(f.mgr->EnableDurability(dir).ok());
    size_t applied = 0;
    for (const Step& s : Workload()) {
      if (s.checkpoint) continue;  // never checkpoint: WAL is everything
      if (applied == 2) break;
      ASSERT_TRUE(f.mgr->ApplyAndPropagateAll(StepStmt(s)).ok());
      ++applied;
    }
  }
  ASSERT_FALSE(FileExists(dir + "/MANIFEST"));
  Fixture f = RecoverFrom(dir);
  EXPECT_EQ(f.mgr->last_sequence(), 2u);
  ExpectMatchesControl(f, RunControl(2));
  ExpectSelfConsistent(f);
  WipeDir(dir);
}

TEST(DurabilityTest, EnableDurabilityRefusesUnloadedCheckpoint) {
  const std::string dir = TempPath("dur_refuse");
  WipeDir(dir);
  ASSERT_EQ(RunDurableWorkload(dir), 0);

  // A fresh manager that skips Recover() must not be allowed to log on top
  // of a checkpoint it never loaded.
  Fixture f = MakeInitial();
  Status st = f.mgr->EnableDurability(dir);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  WipeDir(dir);
}

void RunCrashMatrix(bool defer) {
  // Ground truth for every possible durable prefix.
  std::vector<ControlState> controls;
  for (size_t n = 0; n <= StatementCount(); ++n) {
    controls.push_back(RunControl(n));
  }

  // Trace pass: enumerate every fault-point execution of the workload.
  const std::string prefix = defer ? "crash_defer_" : "crash_";
  const std::string trace_dir = TempPath(prefix + "trace");
  WipeDir(trace_dir);
  fault::StartTrace();
  ASSERT_EQ(RunDurableWorkload(trace_dir, defer), 0);
  std::vector<std::string> trace = fault::StopTrace();
  WipeDir(trace_dir);
  ASSERT_GT(trace.size(), 20u) << "fault points disappeared from the "
                                  "durability paths";

  // Kill pass: one forked child per execution, killed at exactly that
  // point; the parent must recover to the matching control state.
  std::map<std::string, int> occurrence;
  for (size_t t = 0; t < trace.size(); ++t) {
    const std::string& point = trace[t];
    const int ordinal = ++occurrence[point];
    SCOPED_TRACE(point + " occurrence " + std::to_string(ordinal));
    const std::string dir = TempPath(prefix + std::to_string(t));
    WipeDir(dir);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      fault::Arm(point, ordinal, fault::Mode::kCrash);
      ::_exit(RunDurableWorkload(dir, defer));
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), fault::kCrashExitCode)
        << "the armed point did not fire where the trace said it would";

    Fixture f = RecoverFrom(dir);
    const uint64_t n = f.mgr->last_sequence();
    ASSERT_LE(n, StatementCount());
    ExpectMatchesControl(f, controls[n]);
    ExpectSelfConsistent(f);

    // A crash must never damage the previous checkpoint: if a manifest
    // survived, the files it names were loadable (or recomputed only for
    // checksum-valid-but-older reasons — verified above by equality).
    WipeDir(dir);
  }
}

TEST(CrashMatrixTest, RecoveryFromEveryInjectionPoint) {
  RunCrashMatrix(/*defer=*/false);
}

TEST(CrashMatrixTest, RecoveryFromEveryInjectionPointWithDeferredStatements) {
  RunCrashMatrix(/*defer=*/true);
}

}  // namespace
}  // namespace xvm
