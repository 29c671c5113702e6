// The copy-on-write view store (view/view_store.h): random Add/Remove/
// Modify sequences against a std::map model, snapshots that stay frozen
// while the writer moves on, chunk and shard sharing between consecutive
// snapshots, the per-statement copy counters, and readers scanning held
// snapshots while the writer mutates.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "view/manager.h"
#include "view/view_store.h"
#include "xml/parser.h"

namespace xvm {
namespace {

/// (a.ID, b.ID, b.val): two ID columns, the payload after its own node's
/// ID, the shape of a stored tuple (canonical order is ID order).
Schema TestSchema() {
  return Schema({{"a.ID", ValueKind::kId},
                 {"b.ID", ValueKind::kId},
                 {"b.val", ValueKind::kString}});
}

DeweyId IdOf(int64_t a) { return DeweyId::Root(0).Child(1, OrdKey({a})); }

/// Tuple of key `k`: a = k / 4, b = a child of a at position k % 4.
Tuple MakeTuple(int64_t k, const std::string& val) {
  DeweyId a = IdOf(k / 4);
  DeweyId b = a.Child(2, OrdKey({k % 4}));
  return {Value(std::move(a)), Value(std::move(b)), Value(val)};
}

struct ModelRow {
  std::string val;
  int64_t count = 0;
};
using Model = std::map<int64_t, ModelRow>;  // key order == ID order

std::vector<CountedTuple> ModelContent(const Model& m) {
  std::vector<CountedTuple> out;
  for (const auto& [k, row] : m) {
    out.push_back(CountedTuple{MakeTuple(k, row.val), row.count});
  }
  return out;
}

void ExpectContent(const ViewContent& got,
                   const std::vector<CountedTuple>& want,
                   const std::string& at) {
  ASSERT_EQ(got.size(), want.size()) << at;
  size_t i = 0;
  int64_t total = 0;
  for (const CountedTuple& ct : got) {
    ASSERT_EQ(ct.tuple, want[i].tuple) << at << " tuple#" << i;
    ASSERT_EQ(ct.count, want[i].count) << at << " tuple#" << i;
    ASSERT_EQ(&got[i], &ct) << at << " operator[] at " << i;
    total += ct.count;
    ++i;
  }
  ASSERT_EQ(got.total_derivations(), total) << at;
}

TEST(ViewStoreCowTest, RandomSequencesMatchModelAndSnapshotsStayFrozen) {
  Rng rng(20260517);
  MaterializedView view(TestSchema());
  Model model;
  struct Held {
    std::shared_ptr<const ViewContent> content;
    std::vector<CountedTuple> want;
  };
  std::vector<Held> held;
  constexpr int64_t kKeys = 6000;

  for (int step = 0; step < 400; ++step) {
    const std::string at = "step " + std::to_string(step);
    const uint64_t op = rng.Uniform(10);
    if (op < 4) {
      // A batch of adds: some keys repeat, some exist already (their
      // payload stays), some are new.
      std::map<int64_t, int64_t> adds;
      const uint64_t n = 1 + rng.Uniform(step % 7 == 0 ? 400 : 12);
      for (uint64_t j = 0; j < n; ++j) {
        adds[static_cast<int64_t>(rng.Uniform(kKeys))] +=
            1 + static_cast<int64_t>(rng.Uniform(3));
      }
      std::vector<CountedTuple> batch;
      for (const auto& [k, c] : adds) {
        const std::string val = "v" + std::to_string(step);
        batch.push_back(CountedTuple{MakeTuple(k, val), c});
        auto [it, fresh] = model.try_emplace(k, ModelRow{val, 0});
        it->second.count += c;
      }
      view.AddDerivations(std::move(batch));
    } else if (op < 7 && !model.empty()) {
      // A batch of removals over present and absent keys.
      std::map<int64_t, int64_t> removes;
      const uint64_t n = 1 + rng.Uniform(step % 5 == 0 ? 300 : 10);
      for (uint64_t j = 0; j < n; ++j) {
        int64_t k = static_cast<int64_t>(rng.Uniform(kKeys));
        if (rng.Uniform(3) != 0) {
          auto it = model.lower_bound(k);
          if (it != model.end()) k = it->first;
        }
        removes[k] += 1 + static_cast<int64_t>(rng.Uniform(2));
      }
      std::vector<CountedTuple> batch;
      bool exact = true;
      for (const auto& [k, c] : removes) {
        batch.push_back(CountedTuple{view.IdsOf(MakeTuple(k, "")), c});
        auto it = model.find(k);
        if (it == model.end()) continue;
        exact = exact && c <= it->second.count;
        it->second.count -= std::min(c, it->second.count);
        if (it->second.count == 0) model.erase(it);
      }
      EXPECT_EQ(view.RemoveDerivations(batch), exact) << at;
    } else if (op < 9) {
      // Rewrite the payload of every tuple whose key falls in one residue
      // class; rewrite another class to the payload it has.
      const int64_t mod = 5 + static_cast<int64_t>(rng.Uniform(40));
      const int64_t hit = static_cast<int64_t>(rng.Uniform(mod));
      const std::string val = "m" + std::to_string(step);
      size_t want_modified = 0;
      for (auto& [k, row] : model) {
        if (k % mod == hit || k % mod == (hit + 1) % mod) ++want_modified;
        if (k % mod == hit) row.val = val;
      }
      std::vector<std::pair<size_t, Tuple>> replacements;
      size_t pos = 0;
      for (const CountedTuple& ct : view.content()) {
        const Tuple& t = ct.tuple;
        const int64_t a = t[0].id().steps().back().ord.components()[0];
        const int64_t b = t[1].id().steps().back().ord.components()[0];
        const int64_t k = a * 4 + b;
        if (k % mod == hit) {
          Tuple out = t;
          out[2] = Value(val);
          replacements.emplace_back(pos, std::move(out));
        } else if (k % mod == (hit + 1) % mod) {
          replacements.emplace_back(pos, t);
        }
        ++pos;
      }
      EXPECT_EQ(view.ReplaceEntries(std::move(replacements)), want_modified)
          << at;
    } else {
      held.push_back(Held{view.Freeze(), ModelContent(model)});
    }
    const std::vector<std::string> problems = view.CheckStructure();
    ASSERT_TRUE(problems.empty()) << at << ": " << problems.front();
    ExpectContent(view.content(), ModelContent(model), at);
  }
  ASSERT_GT(held.size(), 10u);
  for (size_t h = 0; h < held.size(); ++h) {
    ExpectContent(*held[h].content, held[h].want,
                  "held snapshot " + std::to_string(h));
  }
  // Every stored tuple is found through the index as the very object the
  // scan yields.
  const ViewContent& c = view.content();
  for (size_t i = 0; i < c.size(); ++i) {
    ASSERT_EQ(c.FindByIdKey(view.IdKeyOf(c[i].tuple)), &c[i]) << i;
  }
}

TEST(ViewStoreCowTest, UnchangedChunksAndShardsAreSharedBetweenSnapshots) {
  MaterializedView view(TestSchema());
  std::vector<CountedTuple> load;
  for (int64_t k = 0; k < 4000; k += 2) {
    load.push_back(CountedTuple{MakeTuple(k, "x"), 1});
  }
  view.Reset(std::move(load));
  std::shared_ptr<const ViewContent> before = view.Freeze();
  const uint64_t chunks0 = view.chunks_copied();
  const uint64_t shards0 = view.index_shards_copied();

  view.AddDerivations(MakeTuple(2001, "new"), 1);  // into the middle
  std::shared_ptr<const ViewContent> after = view.Freeze();

  EXPECT_LE(view.chunks_copied() - chunks0, 2u);
  EXPECT_EQ(view.index_shards_copied() - shards0, 1u);
  size_t shared_chunks = 0;
  for (const auto& chunk : after->chunks()) {
    for (const auto& old : before->chunks()) {
      if (chunk == old) ++shared_chunks;
    }
  }
  EXPECT_GE(shared_chunks + 1, before->chunks().size());
  size_t shared_shards = 0;
  for (size_t s = 0; s < kIndexShards; ++s) {
    if (after->shards()[s] == before->shards()[s]) ++shared_shards;
  }
  EXPECT_EQ(shared_shards, kIndexShards - 1);
  EXPECT_EQ(before->size() + 1, after->size());
  EXPECT_EQ(before->FindByIdKey(view.IdKeyOf(MakeTuple(2001, ""))), nullptr);
  EXPECT_NE(after->FindByIdKey(view.IdKeyOf(MakeTuple(2001, ""))), nullptr);

  // Without a Freeze in between the writer owns what it copied: a second
  // change to the same chunk and shard copies nothing.
  const uint64_t chunks1 = view.chunks_copied();
  const uint64_t shards1 = view.index_shards_copied();
  view.AddDerivations(MakeTuple(2001, "new"), 1);
  EXPECT_EQ(view.chunks_copied(), chunks1 + 1);
  view.AddDerivations(MakeTuple(2001, "new"), 1);
  EXPECT_EQ(view.chunks_copied(), chunks1 + 1);
  EXPECT_LE(view.index_shards_copied(), shards1 + 1);
}

TEST(ViewStoreCowTest, PointInsertCopiesAtMostTwoChunksAndOneShard) {
  std::string xml = "<r>";
  for (int i = 0; i < 1500; ++i) {
    xml += "<a id=\"" + std::to_string(i) + "\"><b/></a>";
  }
  xml += "</r>";
  Document doc;
  ASSERT_TRUE(ParseDocument(xml, &doc).ok());
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  MetricsRegistry metrics;
  mgr.set_metrics(&metrics);
  auto def = ViewDefinition::Create("v", "//b{id}");
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps)
                  .ok());
  ASSERT_EQ(mgr.view(0).view().size(), 1500u);
  auto counter = [&metrics](const char* name) -> int64_t {
    auto snap = metrics.Snapshot();
    auto it = snap.find(kServingMetricsView);
    if (it == snap.end()) return 0;
    auto c = it->second.counters().find(name);
    return c == it->second.counters().end() ? 0 : c->second;
  };
  const int64_t chunks0 = counter("chunks_copied");
  const int64_t shards0 = counter("index_shards_copied");

  auto out = mgr.ApplyAndPropagateAll(
      UpdateStmt::InsertForest("/r/a[@id=\"700\"]", "<b/>"));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(mgr.view(0).view().size(), 1501u);
  const int64_t chunks = counter("chunks_copied") - chunks0;
  const int64_t shards = counter("index_shards_copied") - shards0;
  EXPECT_GE(chunks, 1);
  EXPECT_LE(chunks, 2);
  EXPECT_EQ(shards, 1);
}

TEST(ViewStoreCowTest, ReadersScanHeldSnapshotsWhileWriterMutates) {
  constexpr int kReaders = 3;
  constexpr int kRounds = 120;
  MaterializedView view(TestSchema());
  std::vector<CountedTuple> load;
  for (int64_t k = 0; k < 3000; k += 3) {
    load.push_back(CountedTuple{MakeTuple(k, "x"), 1});
  }
  view.Reset(std::move(load));

  // The latest frozen content, handed to readers under a mutex the way the
  // publisher does; each reader keeps the previous one it took, too.
  Mutex mu;
  std::shared_ptr<const ViewContent> latest = view.Freeze();
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::shared_ptr<const ViewContent> prev;
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const ViewContent> cur;
        {
          MutexLock lock(mu);
          cur = latest;
        }
        for (const auto& content : {prev, cur}) {
          if (content == nullptr) continue;
          int64_t total = 0;
          const Tuple* last = nullptr;
          for (const CountedTuple& ct : *content) {
            total += ct.count;
            if (last != nullptr && !(*last < ct.tuple)) ++bad;
            last = &ct.tuple;
            const std::string key = EncodeTupleCols(ct.tuple, {0, 1});
            if (content->FindByIdKey(key) != &ct) ++bad;
          }
          if (total != content->total_derivations()) ++bad;
        }
        prev = std::move(cur);
      }
    });
  }
  Rng rng(77);
  for (int round = 0; round < kRounds; ++round) {
    std::map<int64_t, int64_t> touched;  // key order == ID order
    for (int j = 0; j < 8; ++j) {
      ++touched[static_cast<int64_t>(rng.Uniform(3000))];
    }
    std::vector<CountedTuple> adds;
    std::vector<CountedTuple> removes;
    for (const auto& [k, c] : touched) {
      if (k % 3 == 0) {
        removes.push_back(CountedTuple{view.IdsOf(MakeTuple(k, "")), c});
      } else {
        adds.push_back(CountedTuple{MakeTuple(k, "r"), c});
      }
    }
    view.AddDerivations(std::move(adds));
    view.RemoveDerivations(removes);
    std::vector<std::pair<size_t, Tuple>> replacements;
    size_t pos = 0;
    for (const CountedTuple& ct : view.content()) {
      if (ct.tuple[2].str() == "r") {
        Tuple out = ct.tuple;
        out[2] = Value("r" + std::to_string(round));
        replacements.emplace_back(pos, std::move(out));
      }
      ++pos;
    }
    view.ReplaceEntries(std::move(replacements));
    std::shared_ptr<const ViewContent> next = view.Freeze();
    MutexLock lock(mu);
    latest = std::move(next);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_TRUE(view.CheckStructure().empty());
}

}  // namespace
}  // namespace xvm
