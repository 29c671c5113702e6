// Micro-benchmarks (google-benchmark) for the performance-critical
// substrates: dynamic order keys, structural ID operations, the stack-based
// structural join, tree-pattern evaluation, delta extraction, target
// location and ID resolution. These are not paper figures; they guard the constants behind
// them.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.h"
#include "common/rng.h"
#include "pattern/compile.h"
#include "update/delta.h"
#include "xmark/generator.h"
#include "xmark/views.h"
#include "xpath/xpath_eval.h"

namespace xvm {
namespace {

void BM_OrdKeyAfterChain(benchmark::State& state) {
  for (auto _ : state) {
    OrdKey k = OrdKey::First();
    for (int i = 0; i < 100; ++i) k = OrdKey::After(k);
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_OrdKeyAfterChain);

void BM_OrdKeyBetweenPathological(benchmark::State& state) {
  for (auto _ : state) {
    OrdKey lo = OrdKey::First();
    OrdKey hi = OrdKey::After(lo);
    for (int i = 0; i < 50; ++i) hi = OrdKey::Between(lo, hi);
    benchmark::DoNotOptimize(hi);
  }
}
BENCHMARK(BM_OrdKeyBetweenPathological);

void BM_DeweyIsAncestor(benchmark::State& state) {
  std::vector<DeweyStep> steps;
  for (int i = 0; i < 12; ++i) steps.push_back({LabelId(i), OrdKey({i})});
  DeweyId deep{std::vector<DeweyStep>(steps)};
  DeweyId anc = deep.AncestorAtDepth(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(anc.IsAncestorOf(deep));
  }
}
BENCHMARK(BM_DeweyIsAncestor);

void BM_DeweyEncodeDecode(benchmark::State& state) {
  std::vector<DeweyStep> steps;
  for (int i = 0; i < 8; ++i) steps.push_back({LabelId(i * 7), OrdKey({i})});
  DeweyId id{std::move(steps)};
  for (auto _ : state) {
    std::string enc = id.Encode();
    DeweyId back;
    DeweyId::Decode(enc, &back);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_DeweyEncodeDecode);

/// Random two-level relation pair for structural-join scaling.
void BM_StructuralJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  Relation outer, inner;
  outer.schema.Add({"a.ID", ValueKind::kId});
  inner.schema.Add({"b.ID", ValueKind::kId});
  DeweyId root = DeweyId::Root(0);
  OrdKey ord = OrdKey::First();
  for (int i = 0; i < n; ++i) {
    DeweyId a = root.Child(1, ord);
    outer.rows.push_back({Value(a)});
    OrdKey inner_ord = OrdKey::First();
    for (int j = 0; j < 4; ++j) {
      inner.rows.push_back({Value(a.Child(2, inner_ord))});
      inner_ord = OrdKey::After(inner_ord);
    }
    ord = OrdKey::After(ord);
  }
  for (auto _ : state) {
    Relation out = StructuralJoin(outer, 0, inner, 0, Axis::kDescendant);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * (n + 4 * n));
}
BENCHMARK(BM_StructuralJoin)->Arg(100)->Arg(1000)->Arg(10000);

void BM_PatternEvalQ1(benchmark::State& state) {
  Document doc;
  GenerateXMark(XMarkConfig{static_cast<size_t>(state.range(0)) * 1024, 7},
                &doc);
  StoreIndex store(&doc);
  store.Build();
  auto def = XMarkView("Q1");
  const TreePattern& pat = def->pattern();
  for (auto _ : state) {
    auto result = EvalViewWithCounts(pat, StoreLeafSource(&store, &pat));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PatternEvalQ1)->Arg(100)->Arg(1000);

void BM_DeltaPlusExtraction(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Document doc;
    GenerateXMark(XMarkConfig{64 * 1024, 7}, &doc);
    UpdateStmt u = UpdateStmt::InsertForest(
        "/site/people/person", "<name>n<name>x</name><name>y</name></name>");
    auto pul = ComputePul(doc, u);
    ApplyResult applied = ApplyPul(&doc, *pul, nullptr);
    state.ResumeTiming();
    DeltaTables delta = ComputeDeltaPlus(doc, applied);
    benchmark::DoNotOptimize(delta);
  }
}
BENCHMARK(BM_DeltaPlusExtraction);

/// An XMark document of `kb` KB, generated once per size and kept.
const Document& SharedXMark(size_t kb) {
  static std::map<size_t, std::unique_ptr<Document>> docs;
  std::unique_ptr<Document>& doc = docs[kb];
  if (doc == nullptr) {
    doc = std::make_unique<Document>();
    GenerateXMark(XMarkConfig{kb * 1024, 7}, doc.get());
  }
  return *doc;
}

/// Target location for the six path shapes of perfbench's point_mix
/// statements (arg 1): a person or open auction by @id, two child paths of
/// a person, an auction's bidder increases, and a region. Arg 0 is the
/// document size in KB; the time per lookup should not grow with it.
void BM_LocateTargets(benchmark::State& state) {
  const Document& doc = SharedXMark(static_cast<size_t>(state.range(0)));
  std::vector<std::string> ids;
  const char* parent = state.range(1) <= 2 ? "/site/people/person"
                                           : "/site/open_auctions/open_auction";
  const LabelId id_label = doc.dict().Lookup("@id");
  const std::vector<NodeHandle> owners = *EvalXPathString(doc, parent);
  for (NodeHandle h : owners) {
    for (NodeHandle c : doc.Children(h)) {
      if (doc.node(c).label == id_label) ids.push_back(doc.node(c).text);
    }
  }
  const std::string tails[] = {"", "/homepage", "/name", "",
                               "/bidder/increase"};
  const char* regions[] = {"africa", "asia",     "australia",
                           "europe", "namerica", "samerica"};
  std::vector<std::string> paths;
  for (size_t i = 0; i < 64; ++i) {
    if (state.range(1) == 5) {
      paths.push_back(std::string("/site/regions/") + regions[i % 6]);
    } else {
      paths.push_back(std::string(parent) + "[@id=\"" +
                      ids[(i * 7919) % ids.size()] + "\"]" +
                      tails[state.range(1)]);
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    auto targets = EvalXPathString(doc, paths[i++ % paths.size()]);
    benchmark::DoNotOptimize(targets);
  }
}
BENCHMARK(BM_LocateTargets)
    ->ArgsProduct({{2560, 10240}, {0, 1, 2, 3, 4, 5}})
    ->Unit(benchmark::kMicrosecond);

/// ID resolution through the canonical relations: StoreIndex::FindById of
/// the IDs of 4096 nodes spread over the whole document (every label), so
/// each lookup binary-searches its relation with cold caches. Arg 0 is the
/// document size in KB.
void BM_FindById(benchmark::State& state) {
  const Document& doc = SharedXMark(static_cast<size_t>(state.range(0)));
  StoreIndex store(&doc);
  store.Build();
  const std::vector<NodeHandle> all = doc.AllNodes();
  std::vector<DeweyId> ids;
  for (size_t i = 0; i < 4096; ++i) {
    ids.push_back(doc.node(all[(i * 7919) % all.size()]).id);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.FindById(ids[i++ % ids.size()]));
  }
}
BENCHMARK(BM_FindById)->Arg(2560)->Arg(10240);

void BM_XMarkGeneration(benchmark::State& state) {
  for (auto _ : state) {
    Document doc;
    GenerateXMark(XMarkConfig{static_cast<size_t>(state.range(0)) * 1024, 7},
                  &doc);
    benchmark::DoNotOptimize(doc.num_alive());
  }
}
BENCHMARK(BM_XMarkGeneration)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace xvm

BENCHMARK_MAIN();
