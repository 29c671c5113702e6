#include "view/wal.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "pattern/compile.h"
#include "view/manager.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"

namespace xvm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Statement equality via the canonical encoding: two statements are the
/// same iff they re-encode to the same bytes (the forest is compared through
/// its serialized XML, which parse/serialize round-trips stably).
void ExpectSameStmt(const UpdateStmt& a, const UpdateStmt& b) {
  EXPECT_EQ(EncodeUpdateStmt(a), EncodeUpdateStmt(b));
}

TEST(WalCodecTest, RoundTripsEveryStatementKind) {
  std::vector<UpdateStmt> stmts = {
      UpdateStmt::Delete("/site/people/person", "d1"),
      UpdateStmt::InsertForest("/site/regions",
                               "<item id=\"7\"><name>n</name></item>bare text",
                               "i1"),
      UpdateStmt::InsertQuery("/site//item", "/site/regions", "q1"),
      UpdateStmt::ReplaceContent("/site/open_auctions/open_auction",
                                 "<bidder><increase>9</increase></bidder>",
                                 "r1"),
  };
  for (const UpdateStmt& s : stmts) {
    const std::string enc = EncodeUpdateStmt(s);
    size_t pos = 0;
    UpdateStmt back;
    ASSERT_TRUE(DecodeUpdateStmt(enc, &pos, &back).ok()) << s.name;
    EXPECT_EQ(pos, enc.size());
    EXPECT_EQ(back.kind, s.kind);
    EXPECT_EQ(back.target_path, s.target_path);
    EXPECT_EQ(back.source_path, s.source_path);
    EXPECT_EQ(back.name, s.name);
    EXPECT_EQ(back.forest != nullptr, s.forest != nullptr);
    ExpectSameStmt(back, s);
  }
}

/// Runs `body` in a forked child with XVM_FAULT_POINT set to `spec` and the
/// inherited (already-parsed) fault state cleared, so the child re-reads the
/// environment exactly like a freshly started process would. Returns the
/// child's exit code.
int ExitCodeUnderFaultEnv(const std::string& spec,
                          const std::function<int()>& body) {
  pid_t pid = ::fork();
  if (pid == 0) {
    ::setenv("XVM_FAULT_POINT", spec.c_str(), 1);
    fault::ResetForTesting();
    ::_exit(body());
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  return WEXITSTATUS(status);
}

TEST(FaultEnvTest, BarePointNameWithColonArmsCrash) {
  const std::string path = TempPath("fault_env_crash.bin");
  // The point name itself contains a colon; the parser must not mistake its
  // second half for a countdown.
  EXPECT_EQ(ExitCodeUnderFaultEnv("atomic_write:before_rename",
                                  [&] {
                                    Status st = AtomicWriteFile(path, "abc");
                                    return st.ok() ? 0 : 1;
                                  }),
            fault::kCrashExitCode);
  EXPECT_FALSE(FileExists(path));  // crashed before rename
}

TEST(FaultEnvTest, CountdownAndErrorSuffixesParseFromTheEnd) {
  const std::string path = TempPath("fault_env_error.bin");
  EXPECT_EQ(ExitCodeUnderFaultEnv("atomic_write:partial:2:error",
                                  [&] {
                                    Status first = AtomicWriteFile(path, "v1");
                                    if (!first.ok()) return 1;
                                    Status second = AtomicWriteFile(path, "v2");
                                    if (second.ok()) return 2;
                                    if (second.code() != StatusCode::kInternal)
                                      return 3;
                                    // The failed overwrite must leave v1.
                                    std::string back;
                                    if (!ReadFileToString(path, &back).ok())
                                      return 4;
                                    return back == "v1" ? 0 : 5;
                                  }),
            0);
}

TEST(WalCodecTest, RejectsTruncationsAndBadKind) {
  const std::string enc =
      EncodeUpdateStmt(UpdateStmt::InsertForest("/a/b", "<x/>", "n"));
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    size_t pos = 0;
    UpdateStmt s;
    EXPECT_FALSE(DecodeUpdateStmt(enc.substr(0, cut), &pos, &s).ok())
        << "cut=" << cut;
  }
  std::string bad_kind = enc;
  bad_kind[0] = 17;
  size_t pos = 0;
  UpdateStmt s;
  Status st = DecodeUpdateStmt(bad_kind, &pos, &s);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, AppendThenReadAllInOrder) {
  const std::string path = TempPath("wal_basic.log");
  std::remove(path.c_str());
  WriteAheadLog wal;
  ASSERT_TRUE(wal.OpenLog(path).ok());
  EXPECT_EQ(wal.last_lsn(), 0u);

  std::vector<UpdateStmt> stmts = {
      UpdateStmt::InsertForest("/site/regions", "<item/>", "a"),
      UpdateStmt::Delete("/site/people/person", "b"),
      UpdateStmt::InsertQuery("/site//item", "/site/regions", "c"),
  };
  for (size_t i = 0; i < stmts.size(); ++i) {
    ASSERT_TRUE(wal.Append(i + 1, stmts[i]).ok());
  }
  EXPECT_EQ(wal.last_lsn(), 3u);

  auto records = wal.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  for (size_t i = 0; i < stmts.size(); ++i) {
    EXPECT_EQ((*records)[i].lsn, i + 1);
    ExpectSameStmt((*records)[i].stmt, stmts[i]);
  }
  std::remove(path.c_str());
}

TEST(WalTest, EnforcesMonotonicLsns) {
  const std::string path = TempPath("wal_lsn.log");
  std::remove(path.c_str());
  WriteAheadLog wal;
  ASSERT_TRUE(wal.OpenLog(path).ok());
  ASSERT_TRUE(wal.Append(5, UpdateStmt::Delete("/a", "x")).ok());
  Status st = wal.Append(5, UpdateStmt::Delete("/a", "y"));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(wal.last_lsn(), 5u);
  std::remove(path.c_str());
}

TEST(WalTest, ReopenTruncatesTornTailKeepsPrefix) {
  const std::string path = TempPath("wal_torn.log");
  std::remove(path.c_str());
  uint64_t full_size = 0;
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.OpenLog(path).ok());
    ASSERT_TRUE(wal.Append(1, UpdateStmt::Delete("/a/b", "one")).ok());
    ASSERT_TRUE(wal.Append(2, UpdateStmt::Delete("/c/d", "two")).ok());
    full_size = wal.durable_size();
  }
  // Tear the last record: chop 3 bytes off its checksum, as a crash mid-
  // append would.
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  ASSERT_EQ(bytes.size(), full_size);
  ASSERT_TRUE(AtomicWriteFile(path, bytes.substr(0, bytes.size() - 3)).ok());

  WriteAheadLog wal;
  ASSERT_TRUE(wal.OpenLog(path).ok());
  EXPECT_EQ(wal.last_lsn(), 1u);  // record 2 dropped with the tail
  auto records = wal.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].stmt.name, "one");
  // The log accepts appends again after the tail truncation.
  ASSERT_TRUE(wal.Append(2, UpdateStmt::Delete("/c/d", "two again")).ok());
  records = wal.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  std::remove(path.c_str());
}

TEST(WalTest, FailedAppendLeavesLogParseable) {
  const std::string path = TempPath("wal_fail.log");
  std::remove(path.c_str());
  WriteAheadLog wal;
  ASSERT_TRUE(wal.OpenLog(path).ok());
  ASSERT_TRUE(wal.Append(1, UpdateStmt::Delete("/a", "keep")).ok());

  // Injected I/O error halfway through the second append: the record is
  // rolled back and the log stays byte-identical to before the attempt.
  const uint64_t size_before = wal.durable_size();
  fault::Arm("wal:append_partial", 1, fault::Mode::kError);
  Status st = wal.Append(2, UpdateStmt::Delete("/b", "lost"));
  fault::Disarm();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(wal.durable_size(), size_before);
  EXPECT_EQ(wal.last_lsn(), 1u);

  ASSERT_TRUE(wal.Append(2, UpdateStmt::Delete("/b", "second try")).ok());
  auto records = wal.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[1].stmt.name, "second try");
  std::remove(path.c_str());
}

TEST(WalTest, ResetDropsRecordsButKeepsLsnSequence) {
  const std::string path = TempPath("wal_reset.log");
  std::remove(path.c_str());
  WriteAheadLog wal;
  ASSERT_TRUE(wal.OpenLog(path).ok());
  ASSERT_TRUE(wal.Append(1, UpdateStmt::Delete("/a", "x")).ok());
  ASSERT_TRUE(wal.Truncate().ok());
  auto records = wal.ReadAll();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  // LSNs never restart: a post-checkpoint record must still sort after the
  // checkpointed ones, or LSN-gated replay would re-apply it.
  EXPECT_EQ(wal.last_lsn(), 1u);
  ASSERT_TRUE(wal.Append(2, UpdateStmt::Delete("/b", "y")).ok());
  std::remove(path.c_str());
}

TEST(WalTest, ReadLogHandlesMissingAndForeignFiles) {
  auto missing = WriteAheadLog::ReadLog(TempPath("wal_never_created.log"));
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());

  const std::string path = TempPath("wal_foreign.log");
  ASSERT_TRUE(AtomicWriteFile(path, "this is not a WAL at all").ok());
  auto foreign = WriteAheadLog::ReadLog(path);
  EXPECT_FALSE(foreign.ok());
  std::remove(path.c_str());
}

/// One XMark document + view Q1 behind a ViewManager, for the deferred-mode
/// durability tests below. `seed` 0 leaves the document empty: the recovery
/// posture when a checkpoint manifest supplies the document.
struct DeferredFixture {
  explicit DeferredFixture(uint64_t seed) : store(&doc), mgr(&doc, &store) {
    if (seed != 0) GenerateXMark(XMarkConfig{20 * 1024, seed}, &doc);
    store.Build();
    auto def = XMarkView("Q1");
    XVM_CHECK(def.ok());
    XVM_CHECK(
        mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  }
  Document doc;
  StoreIndex store;
  ViewManager mgr;
};

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);  // leftovers from an earlier run
  return dir;
}

UpdateStmt InsertOf(const char* update_name) {
  auto u = FindXMarkUpdate(update_name);
  XVM_CHECK(u.ok());
  return MakeInsertStmt(*u);
}

void ExpectSameTuples(const std::vector<CountedTuple>& got,
                      const std::vector<CountedTuple>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].tuple, want[i].tuple);
    EXPECT_EQ(got[i].count, want[i].count);
  }
}

void ExpectMatchesRecompute(const DeferredFixture& f) {
  const TreePattern& pat = f.mgr.view(0).def().pattern();
  ExpectSameTuples(f.mgr.view(0).view().Snapshot(),
                   EvalViewWithCounts(pat, StoreLeafSource(&f.store, &pat)));
}

/// Deferred-mode durability: Defer logs each statement before touching the
/// document, so statements still queued at a crash replay (in immediate
/// mode) into a fresh manager over the same initial document and converge
/// to the content the live manager reaches once it flushes.
TEST(WalTest, DeferredViewWalReplayRebuildsQueue) {
  const std::string dir = FreshDir("wal_deferred");
  DeferredFixture live(11);
  ASSERT_TRUE(live.mgr.EnableDurability(dir).ok());
  ASSERT_TRUE(live.mgr.Defer(InsertOf("X1_L")).ok());
  ASSERT_TRUE(live.mgr.Defer(InsertOf("X2_L")).ok());
  EXPECT_EQ(live.mgr.last_sequence(), 2u);
  EXPECT_EQ(live.mgr.pending(), 2u);
  auto records = WriteAheadLog::ReadLog(dir + "/wal.log");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);

  // "Crash": the queue is lost; rebuild from the log.
  DeferredFixture replayed(11);
  ASSERT_TRUE(replayed.mgr.Recover(dir).ok());
  EXPECT_EQ(replayed.mgr.last_sequence(), 2u);
  EXPECT_EQ(replayed.mgr.pending(), 0u);

  live.mgr.Flush();
  ExpectSameTuples(replayed.mgr.view(0).view().Snapshot(),
                   live.mgr.view(0).view().Snapshot());
  ExpectMatchesRecompute(replayed);
  std::filesystem::remove_all(dir);
}

/// A checkpoint taken with statements queued flushes them first, so the
/// document and view snapshots it saves agree; the WAL is truncated.
TEST(WalTest, DeferredCheckpointSavesAndTruncates) {
  const std::string dir = FreshDir("wal_defer_ckpt");
  DeferredFixture live(11);
  ASSERT_TRUE(live.mgr.EnableDurability(dir).ok());
  ASSERT_TRUE(live.mgr.Defer(InsertOf("X1_L")).ok());

  ASSERT_TRUE(live.mgr.Checkpoint(dir).ok());
  EXPECT_EQ(live.mgr.pending(), 0u);
  EXPECT_EQ(live.mgr.Snapshot(0)->generation(), 1u);
  auto records = WriteAheadLog::ReadLog(dir + "/wal.log");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  EXPECT_TRUE(FileExists(dir + "/MANIFEST"));

  DeferredFixture recovered(0);
  ASSERT_TRUE(recovered.mgr.Recover(dir).ok());
  ExpectSameTuples(recovered.mgr.view(0).view().Snapshot(),
                   live.mgr.view(0).view().Snapshot());
  ExpectMatchesRecompute(recovered);
  std::filesystem::remove_all(dir);
}

/// A fault after the manifest commits but before the WAL truncation (the
/// checkpoint began with a non-empty queue) loses nothing: every logged
/// record is ≤ the manifest's LSN, so recovery replays none and the loaded
/// state already matches a recompute.
TEST(WalTest, DeferredCheckpointFaultBeforeTruncateLosesNothing) {
  const std::string dir = FreshDir("wal_defer_fault");
  DeferredFixture live(13);
  ASSERT_TRUE(live.mgr.EnableDurability(dir).ok());
  ASSERT_TRUE(live.mgr.Defer(InsertOf("X1_L")).ok());
  ASSERT_TRUE(live.mgr.Defer(InsertOf("X2_L")).ok());

  fault::Arm("checkpoint:before_wal_truncate", 1, fault::Mode::kError);
  Status st = live.mgr.Checkpoint(dir);
  fault::Disarm();
  EXPECT_FALSE(st.ok());  // the injected Internal error surfaced
  EXPECT_EQ(live.mgr.pending(), 0u);

  auto records = WriteAheadLog::ReadLog(dir + "/wal.log");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);  // truncation never happened
  DeferredFixture recovered(0);
  ASSERT_TRUE(recovered.mgr.Recover(dir).ok());
  EXPECT_EQ(recovered.mgr.last_sequence(), 2u);
  ExpectSameTuples(recovered.mgr.view(0).view().Snapshot(),
                   live.mgr.view(0).view().Snapshot());
  ExpectMatchesRecompute(recovered);
  std::filesystem::remove_all(dir);
}

/// Statements deferred *after* a checkpoint live only in the WAL and the
/// queue; recovery loads the checkpoint and replays exactly that tail.
TEST(WalTest, DeferredCheckpointOwnerRecoveryReplaysTail) {
  const std::string dir = FreshDir("wal_defer_tail");
  DeferredFixture live(17);
  ASSERT_TRUE(live.mgr.EnableDurability(dir).ok());
  ASSERT_TRUE(live.mgr.Defer(InsertOf("X1_L")).ok());
  ASSERT_TRUE(live.mgr.Checkpoint(dir).ok());
  ASSERT_TRUE(live.mgr.Defer(InsertOf("X1_L")).ok());
  EXPECT_EQ(live.mgr.pending(), 1u);
  auto records = WriteAheadLog::ReadLog(dir + "/wal.log");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].lsn, 2u);

  // "Crash" with the tail still queued.
  DeferredFixture recovered(0);
  ASSERT_TRUE(recovered.mgr.Recover(dir).ok());
  EXPECT_EQ(recovered.mgr.last_sequence(), 2u);
  live.mgr.Flush();
  ExpectSameTuples(recovered.mgr.view(0).view().Snapshot(),
                   live.mgr.view(0).view().Snapshot());
  ExpectMatchesRecompute(recovered);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xvm
