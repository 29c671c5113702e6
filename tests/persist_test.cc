#include "view/persist.h"

#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "common/varint.h"
#include "pattern/compile.h"
#include "view/manager.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"
#include "xml/serializer.h"

namespace xvm {
namespace {

struct Fixture {
  std::unique_ptr<Document> doc;
  std::unique_ptr<StoreIndex> store;
  std::unique_ptr<MaintainedView> view;
};

Fixture Make(const std::string& view_name, LatticeStrategy strategy,
             uint64_t seed = 19) {
  Fixture f;
  f.doc = std::make_unique<Document>();
  GenerateXMark(XMarkConfig{30 * 1024, seed}, f.doc.get());
  f.store = std::make_unique<StoreIndex>(f.doc.get());
  f.store->Build();
  auto def = XMarkView(view_name);
  XVM_CHECK(def.ok());
  f.view = std::make_unique<MaintainedView>(std::move(def).value(),
                                            f.store.get(), strategy);
  return f;
}

void ExpectSameContent(const MaintainedView& a, const MaintainedView& b) {
  auto sa = a.view().Snapshot();
  auto sb = b.view().Snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].tuple, sb[i].tuple);
    EXPECT_EQ(sa[i].count, sb[i].count);
  }
  ASSERT_EQ(a.lattice().snowcaps().size(), b.lattice().snowcaps().size());
  EXPECT_EQ(a.lattice().TotalTuples(), b.lattice().TotalTuples());
}

TEST(PersistTest, RoundTripBytes) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  std::string bytes = SaveViewToBytes(*src.view);
  EXPECT_GT(bytes.size(), 16u);

  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  // No Initialize(): the load replaces it.
  ASSERT_TRUE(LoadViewFromBytes(bytes, dst.view.get()).ok());
  ExpectSameContent(*src.view, *dst.view);
}

TEST(PersistTest, LoadedViewKeepsMaintaining) {
  Fixture src = Make("Q2", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  std::string bytes = SaveViewToBytes(*src.view);

  Fixture dst = Make("Q2", LatticeStrategy::kSnowcaps);
  ViewManager mgr(dst.doc.get(), dst.store.get());
  ASSERT_TRUE(mgr.AddView(dst.view->def(), LatticeStrategy::kSnowcaps).ok());
  // The load replaces the registered view's initial content, as Recover
  // does.
  ASSERT_TRUE(LoadViewFromBytes(bytes, &mgr.mutable_view(0)).ok());

  auto u = FindXMarkUpdate("X2_L");
  ASSERT_TRUE(u.ok());
  auto out = mgr.ApplyAndPropagateAll(MakeInsertStmt(*u));
  ASSERT_TRUE(out.ok());

  const TreePattern& pat = mgr.view(0).def().pattern();
  auto truth = EvalViewWithCounts(pat, StoreLeafSource(dst.store.get(), &pat));
  auto got = mgr.view(0).view().Snapshot();
  ASSERT_EQ(got.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(got[i].tuple, truth[i].tuple);
    EXPECT_EQ(got[i].count, truth[i].count);
  }
}

TEST(PersistTest, RoundTripFile) {
  Fixture src = Make("Q13", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  const std::string path = ::testing::TempDir() + "/xvm_view_q13.bin";
  ASSERT_TRUE(SaveViewToFile(*src.view, path).ok());

  Fixture dst = Make("Q13", LatticeStrategy::kSnowcaps);
  ASSERT_TRUE(LoadViewFromFile(path, dst.view.get()).ok());
  ExpectSameContent(*src.view, *dst.view);
  std::remove(path.c_str());
}

TEST(PersistTest, RejectsWrongView) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  std::string bytes = SaveViewToBytes(*src.view);

  Fixture dst = Make("Q17", LatticeStrategy::kSnowcaps);
  Status st = LoadViewFromBytes(bytes, dst.view.get());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(PersistTest, RejectsLatticeShapeMismatch) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  std::string bytes = SaveViewToBytes(*src.view);

  Fixture dst = Make("Q1", LatticeStrategy::kLeaves);
  EXPECT_FALSE(LoadViewFromBytes(bytes, dst.view.get()).ok());
}

TEST(PersistTest, RejectsCorruptedBytes) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  std::string bytes = SaveViewToBytes(*src.view);

  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  EXPECT_FALSE(LoadViewFromBytes("garbage", dst.view.get()).ok());
  EXPECT_FALSE(
      LoadViewFromBytes(bytes.substr(0, bytes.size() / 2), dst.view.get())
          .ok());
  std::string trailing = bytes + "x";
  EXPECT_FALSE(LoadViewFromBytes(trailing, dst.view.get()).ok());
}

// Term plans elide sorts over a snowcap on the strength of its declared
// binding order, so a file whose snowcap rows break that order (written by
// a build that appended maintained rows unsorted, or crafted) must not
// load; Recover then recomputes the view instead.
TEST(PersistTest, RejectsSnowcapRowsOutOfOrder) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  MaterializedSnowcap& sc = src.view->mutable_lattice().snowcaps().back();
  ASSERT_GE(sc.data.size(), 2u);
  std::swap(sc.data.rows[0], sc.data.rows[1]);

  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  Status st = LoadViewFromBytes(SaveViewToBytes(*src.view), dst.view.get());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("out of declared order"), std::string::npos)
      << st.ToString();
}

// Corruption fuzz: every truncation length and hundreds of single-bit flips
// must be rejected with InvalidArgument — never loaded silently, never
// crashed on. The format's trailing content checksum is what catches flips
// that would otherwise still parse (e.g. a flipped byte inside a payload
// string, which no structural check can see).
TEST(PersistTest, FuzzTruncationRejectedWithInvalidArgument) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  std::string bytes = SaveViewToBytes(*src.view);
  ASSERT_GT(bytes.size(), 16u);

  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  // Dense sweep near both ends, sparse in the middle.
  for (size_t cut = 0; cut < bytes.size(); cut += (cut < 64 ? 1 : 37)) {
    Status st = LoadViewFromBytes(bytes.substr(0, cut), dst.view.get());
    ASSERT_FALSE(st.ok()) << "accepted a truncation to " << cut << " bytes";
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "cut=" << cut;
  }
  // A loadable view remains loadable afterwards (no partial-commit damage).
  ASSERT_TRUE(LoadViewFromBytes(bytes, dst.view.get()).ok());
  ExpectSameContent(*src.view, *dst.view);
}

TEST(PersistTest, FuzzBitFlipsRejectedWithInvalidArgument) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  const std::string bytes = SaveViewToBytes(*src.view);

  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  uint64_t rng = 0x2545F4914F6CDD1Dull;
  for (int trial = 0; trial < 400; ++trial) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const size_t byte = rng % bytes.size();
    const int bit = static_cast<int>((rng >> 32) % 8);
    std::string corrupt = bytes;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
    Status st = LoadViewFromBytes(corrupt, dst.view.get());
    ASSERT_FALSE(st.ok()) << "accepted a flip of bit " << bit << " at byte "
                          << byte;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "byte=" << byte << " bit=" << bit << ": " << st.ToString();
  }
  ASSERT_TRUE(LoadViewFromBytes(bytes, dst.view.get()).ok());
}

TEST(PersistTest, RejectsUnsupportedFormatVersion) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  std::string bytes = SaveViewToBytes(*src.view);
  // Old saves carried the "XVM1" magic and no version/checksum; they must
  // be rejected at the magic check, not misparsed.
  std::string old_magic = bytes;
  old_magic[3] = '1';
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  Status st = LoadViewFromBytes(old_magic, dst.view.get());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(PersistTest, MissingFileReportsNotFound) {
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  Status st = LoadViewFromFile("/nonexistent/path/view.bin", dst.view.get());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

// -- Adversarial files with *valid* checksums --
//
// The trailing checksum only catches accidents; a crafted file can carry a
// correct checksum over malicious content. Every length/count field must
// therefore be bounded against the bytes actually present before any
// allocation or cast happens. These tests construct such files field by
// field and require a clean InvalidArgument — not an OOM, not a crash, not
// a silent acceptance.

std::string Sealed(std::string body) {
  AppendChecksum64(&body);
  return body;
}

/// A well-formed "XVM2" header for the given target view, up to (not
/// including) the tuple count.
std::string ViewHeader(const MaintainedView& view) {
  std::string out;
  out.append("XVM2");
  PutVarint64(&out, 2);  // format version
  PutLengthPrefixed(&out, view.def().name());
  PutLengthPrefixed(&out, view.def().pattern().ToString());
  return out;
}

/// A null-valued tuple of the view's schema width.
std::string NullTuple(const MaintainedView& view) {
  std::string out;
  const size_t w = view.def().tuple_schema().size();
  PutVarint64(&out, w);
  for (size_t i = 0; i < w; ++i) out.push_back(0);  // ValueKind::kNull
  return out;
}

TEST(PersistAdversarialTest, HugeHeaderStringLengthRejected) {
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  // Name length 2^64-1: `pos + len` would wrap past the size check and the
  // old code would call substr with a bogus length.
  std::string body;
  body.append("XVM2");
  PutVarint64(&body, 2);
  PutVarint64(&body, std::numeric_limits<uint64_t>::max());
  Status st = LoadViewFromBytes(Sealed(body), dst.view.get());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(PersistAdversarialTest, TupleCountBombRejected) {
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  std::string body = ViewHeader(*dst.view);
  // Claims ~2^61 tuples in a file of a few dozen bytes: reserving that
  // vector would allocate tens of exabytes before the first parse failure.
  PutVarint64(&body, uint64_t{1} << 61);
  Status st = LoadViewFromBytes(Sealed(body), dst.view.get());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(PersistAdversarialTest, TupleWidthBombRejected) {
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  std::string body = ViewHeader(*dst.view);
  PutVarint64(&body, 1);  // one tuple
  PutVarint64(&body, 1);  // derivation count
  PutVarint64(&body, uint64_t{1} << 62);  // claimed value count
  Status st = LoadViewFromBytes(Sealed(body), dst.view.get());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(PersistAdversarialTest, HugeValueStringLengthRejected) {
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  std::string body = ViewHeader(*dst.view);
  PutVarint64(&body, 1);  // one tuple
  PutVarint64(&body, 1);  // derivation count
  PutVarint64(&body, dst.view->def().tuple_schema().size());
  body.push_back(2);  // ValueKind::kString
  PutVarint64(&body, std::numeric_limits<uint64_t>::max() - 7);
  Status st = LoadViewFromBytes(Sealed(body), dst.view.get());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(PersistAdversarialTest, ZeroDerivationCountRejected) {
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  std::string body = ViewHeader(*dst.view);
  PutVarint64(&body, 1);  // one tuple
  PutVarint64(&body, 0);  // count 0: a phantom tuple
  body += NullTuple(*dst.view);
  Status st = LoadViewFromBytes(Sealed(body), dst.view.get());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

/// A saved content row: derivation count, then the encoded tuple.
std::string ContentRow(const CountedTuple& ct) {
  std::string out;
  PutVarint64(&out, static_cast<uint64_t>(ct.count));
  PutVarint64(&out, ct.tuple.size());
  for (const Value& v : ct.tuple) v.EncodeTo(&out);
  return out;
}

// The content is bulk-loaded on the strength of its canonical (ID) order, so
// rows that repeat an ID key or run backwards must be rejected, not merged:
// Recover then recomputes the view instead.
TEST(PersistTest, RejectsViewRowsOutOfIdOrderOrRepeated) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  const std::vector<CountedTuple> rows = src.view->view().Snapshot();
  ASSERT_GE(rows.size(), 2u);
  Tuple renamed = rows[0].tuple;  // same IDs, another payload
  for (size_t c = 0; c < renamed.size(); ++c) {
    if (renamed[c].kind() == ValueKind::kString) {
      renamed[c] = Value(renamed[c].str() + "!");
    }
  }
  // The genuine file's snowcap section, so that nothing but the rows is
  // wrong with the crafted files.
  const std::string genuine = SaveViewToBytes(*src.view);
  std::string content = ViewHeader(*src.view);
  PutVarint64(&content, rows.size());
  for (const CountedTuple& ct : rows) content += ContentRow(ct);
  ASSERT_EQ(genuine.compare(0, content.size(), content), 0);
  const std::string snowcaps = genuine.substr(
      content.size(), genuine.size() - content.size() - 8 /*checksum*/);

  const std::vector<std::vector<CountedTuple>> crafted = {
      {rows[1], rows[0]},                   // backwards
      {rows[0], rows[0]},                   // the same row twice
      {rows[0], CountedTuple{renamed, 1}},  // the same IDs twice
  };
  for (size_t k = 0; k < crafted.size(); ++k) {
    Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
    std::string body = ViewHeader(*dst.view);
    PutVarint64(&body, crafted[k].size());
    for (const CountedTuple& ct : crafted[k]) body += ContentRow(ct);
    body += snowcaps;
    Status st = LoadViewFromBytes(Sealed(body), dst.view.get());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << k << ": " << st.ToString();
    EXPECT_NE(st.message().find("out of ID order"), std::string::npos)
        << k << ": " << st.ToString();
    EXPECT_EQ(dst.view->view().size(), 0u) << k;
  }
}

TEST(PersistAdversarialTest, HugeDerivationCountRejected) {
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  for (uint64_t count :
       {uint64_t{1} << 63,
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + 1,
        std::numeric_limits<uint64_t>::max()}) {
    std::string body = ViewHeader(*dst.view);
    PutVarint64(&body, 1);
    PutVarint64(&body, count);  // would go negative in the int64_t cast
    body += NullTuple(*dst.view);
    Status st = LoadViewFromBytes(Sealed(body), dst.view.get());
    ASSERT_FALSE(st.ok()) << count;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << count;
  }
}

TEST(PersistAdversarialTest, SnowcapNodeSetBombRejected) {
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  dst.view->Initialize();
  std::string body = ViewHeader(*dst.view);
  PutVarint64(&body, 0);  // no tuples
  PutVarint64(&body, dst.view->lattice().snowcaps().size());
  PutVarint64(&body, uint64_t{1} << 60);  // node-set bits
  Status st = LoadViewFromBytes(Sealed(body), dst.view.get());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(PersistAdversarialTest, SnowcapRowCountBombRejected) {
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  dst.view->Initialize();
  const auto& snowcaps = dst.view->lattice().snowcaps();
  ASSERT_FALSE(snowcaps.empty());
  std::string body = ViewHeader(*dst.view);
  PutVarint64(&body, 0);  // no tuples
  PutVarint64(&body, snowcaps.size());
  // First snowcap: the *correct* node set (so parsing proceeds), then an
  // impossible row count.
  PutVarint64(&body, snowcaps[0].nodes.size());
  for (bool b : snowcaps[0].nodes) body.push_back(b ? 1 : 0);
  PutVarint64(&body, uint64_t{1} << 59);
  Status st = LoadViewFromBytes(Sealed(body), dst.view.get());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(PersistAdversarialTest, RejectedLoadNeverPartiallyCommits) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  ASSERT_TRUE(LoadViewFromBytes(SaveViewToBytes(*src.view), dst.view.get())
                  .ok());

  // A bomb rejected mid-parse must leave the previously loaded content
  // untouched.
  std::string body = ViewHeader(*dst.view);
  PutVarint64(&body, uint64_t{1} << 61);
  ASSERT_FALSE(LoadViewFromBytes(Sealed(body), dst.view.get()).ok());
  ExpectSameContent(*src.view, *dst.view);
}

// -- Document snapshots --

TEST(DocSnapshotTest, RoundTripPreservesIdsLabelsAndContent) {
  Document src;
  GenerateXMark(XMarkConfig{30 * 1024, 23}, &src);
  const std::string bytes = SaveDocumentToBytes(src);

  Document dst;
  ASSERT_TRUE(LoadDocumentFromBytes(bytes, &dst).ok());
  StoreIndex dst_store(&dst);
  dst_store.Build();
  EXPECT_EQ(dst.dict().size(), src.dict().size());
  for (LabelId l = 0; l < src.dict().size(); ++l) {
    EXPECT_EQ(dst.dict().Name(l), src.dict().Name(l));
  }
  std::vector<NodeHandle> sn = src.AllNodes();
  std::vector<NodeHandle> dn = dst.AllNodes();
  ASSERT_EQ(sn.size(), dn.size());
  for (size_t i = 0; i < sn.size(); ++i) {
    const Node& a = src.node(sn[i]);
    const Node& b = dst.node(dn[i]);
    EXPECT_EQ(a.id, b.id) << i;  // bit-identical Dewey IDs
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.label, b.label) << i;
    EXPECT_EQ(a.text, b.text) << i;
    EXPECT_EQ(dst_store.FindById(a.id), dn[i]) << i;  // IDs resolve
  }
  EXPECT_EQ(SerializeSubtree(dst, dst.root()), SerializeSubtree(src, src.root()));
}

TEST(DocSnapshotTest, RequiresEmptyTargetDocument) {
  Document src;
  GenerateXMark(XMarkConfig{10 * 1024, 3}, &src);
  const std::string bytes = SaveDocumentToBytes(src);
  Document occupied;
  occupied.CreateRoot("already_here");
  Status st = LoadDocumentFromBytes(bytes, &occupied);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(DocSnapshotTest, FuzzBitFlipsRejected) {
  Document src;
  GenerateXMark(XMarkConfig{10 * 1024, 9}, &src);
  const std::string bytes = SaveDocumentToBytes(src);
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  for (int trial = 0; trial < 200; ++trial) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const size_t byte = rng % bytes.size();
    const int bit = static_cast<int>((rng >> 32) % 8);
    std::string corrupt = bytes;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
    Document dst;
    Status st = LoadDocumentFromBytes(corrupt, &dst);
    ASSERT_FALSE(st.ok()) << "byte=" << byte << " bit=" << bit;
  }
}

TEST(DocSnapshotTest, NodeCountBombRejected) {
  Document src;
  src.CreateRoot("r");
  // A from-scratch frame with a poisoned node count but a valid checksum.
  std::string bomb;
  bomb.append("XVMD");
  PutVarint64(&bomb, 1);
  PutVarint64(&bomb, src.dict().size());
  for (LabelId l = 0; l < src.dict().size(); ++l) {
    PutLengthPrefixed(&bomb, src.dict().Name(l));
  }
  PutVarint64(&bomb, uint64_t{1} << 60);
  AppendChecksum64(&bomb);
  Document dst;
  Status st = LoadDocumentFromBytes(bomb, &dst);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// -- Save failure paths --

TEST(PersistSaveFailureTest, UnwritableDirectoryFailsCleanly) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  src.view->Initialize();
  Status st =
      SaveViewToFile(*src.view, "/nonexistent_xvm_dir/sub/view.ckpt");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(PersistSaveFailureTest, InjectedShortWriteLeavesPreviousCheckpoint) {
  Fixture src = Make("Q1", LatticeStrategy::kSnowcaps);
  ViewManager mgr(src.doc.get(), src.store.get());
  ASSERT_TRUE(mgr.AddView(src.view->def(), LatticeStrategy::kSnowcaps).ok());
  const MaintainedView& view = mgr.view(0);
  const std::string path = ::testing::TempDir() + "/xvm_shortwrite.ckpt";
  std::remove(path.c_str());
  ASSERT_TRUE(SaveViewToFile(view, path).ok());
  std::string before;
  ASSERT_TRUE(ReadFileToString(path, &before).ok());

  // Grow the view so the second save differs, then fail it halfway through
  // the temp-file write (a torn write, as a full disk would produce).
  auto u = FindXMarkUpdate("X1_L");
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(mgr.ApplyAndPropagateAll(MakeInsertStmt(*u)).ok());
  for (const char* point :
       {"atomic_write:after_open", "atomic_write:partial",
        "atomic_write:before_fsync", "atomic_write:before_rename"}) {
    fault::Arm(point, 1, fault::Mode::kError);
    Status st = SaveViewToFile(view, path);
    fault::Disarm();
    ASSERT_FALSE(st.ok()) << point;
    EXPECT_EQ(st.code(), StatusCode::kInternal) << point;
    // The prior checkpoint is byte-identical and no temp file leaks.
    std::string after;
    ASSERT_TRUE(ReadFileToString(path, &after).ok()) << point;
    EXPECT_EQ(after, before) << point;
    EXPECT_FALSE(FileExists(path + ".tmp")) << point;
  }

  // With no fault armed the save replaces the file atomically.
  ASSERT_TRUE(SaveViewToFile(view, path).ok());
  std::string after;
  ASSERT_TRUE(ReadFileToString(path, &after).ok());
  EXPECT_NE(after, before);
  Fixture dst = Make("Q1", LatticeStrategy::kSnowcaps);
  ASSERT_TRUE(LoadViewFromFile(path, dst.view.get()).ok());
  ExpectSameContent(view, *dst.view);
  std::remove(path.c_str());
}

TEST(ValueDecodeTest, RoundTripsAllKinds) {
  std::vector<Value> values = {
      Value(), Value(DeweyId::Root(7).Child(3, OrdKey({2, -1}))),
      Value(std::string("hello \x01 world"))};
  std::string buf;
  for (const auto& v : values) v.EncodeTo(&buf);
  size_t pos = 0;
  for (const auto& expected : values) {
    Value got;
    ASSERT_TRUE(Value::DecodeFrom(buf, &pos, &got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(ValueDecodeTest, RejectsRetiredAndUnknownTags) {
  // Tag 3 was the retired integer kind; it and every higher tag must fail
  // to decode instead of being read as some other kind, whatever follows.
  const Value sentinel(std::string("untouched"));
  for (int tag = 3; tag <= 255; ++tag) {
    for (const std::string& payload :
         {std::string(), std::string("\x05hello"), std::string(1, '\0')}) {
      std::string buf(1, static_cast<char>(tag));
      buf += payload;
      size_t pos = 0;
      Value got = sentinel;
      EXPECT_FALSE(Value::DecodeFrom(buf, &pos, &got)) << "tag " << tag;
      EXPECT_EQ(got, sentinel) << "tag " << tag;
    }
  }
  // The retired kind's own encoding (tag 3 + a signed varint) is rejected.
  std::string old_int(1, '\x03');
  PutVarintSigned64(&old_int, -123456789);
  size_t pos = 0;
  Value got = sentinel;
  EXPECT_FALSE(Value::DecodeFrom(old_int, &pos, &got));
  EXPECT_EQ(got, sentinel);
}

}  // namespace
}  // namespace xvm
