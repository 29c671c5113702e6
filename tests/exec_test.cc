// Physical executor tests (algebra/exec/): per-kernel property tests pin
// every lowered kernel to a naive in-test reference AND to the independent
// symbolic reference evaluator (algebra/analyze/symexec.h) on randomized
// relations; differential suites then prove executor ≡ symexec on
// compiler-emitted plans, and executor ≡ the navigational evaluator on
// whole views (the XMark views and fixed edge-case shapes); metrics tests
// assert that static sort elision actually happens and surfaces under the
// "__exec__" pseudo-view; and a fuzz leg drives executor vs symexec vs recompute under random
// update streams with the invariant auditor on.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/analyze/build_plan.h"
#include "algebra/analyze/symexec.h"
#include "algebra/exec/exec.h"
#include "algebra/exec/physical.h"
#include "algebra/operators.h"
#include "baseline/recompute.h"
#include "common/invariant.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "pattern/compile.h"
#include "view/maintain.h"
#include "view/manager.h"
#include "xmark/generator.h"
#include "xmark/views.h"
#include "xml/parser.h"

namespace xvm {
namespace {

// ---------------------------------------------------------------------------
// Randomized-relation helpers.

DeweyId MakeId(const std::vector<int64_t>& path) {
  DeweyId id = DeweyId::Root(1);
  for (size_t i = 0; i < path.size(); ++i) {
    id = id.Child(static_cast<LabelId>(2 + i % 3), OrdKey({path[i]}));
  }
  return id;
}

DeweyId RandomId(Rng* rng, size_t max_depth) {
  std::vector<int64_t> path;
  size_t depth = 1 + rng->Uniform(max_depth);
  for (size_t i = 0; i < depth; ++i) {
    path.push_back(static_cast<int64_t>(rng->Uniform(4)) * 2);
  }
  return MakeId(path);
}

Schema IdSchema(const std::string& p) {
  return Schema({{p + ".ID", ValueKind::kId}});
}

Schema IdValSchema(const std::string& p) {
  return Schema({{p + ".ID", ValueKind::kId}, {p + ".val", ValueKind::kString}});
}

/// Random rows over `schema`: IDs of depth <= 3, vals from a tiny alphabet
/// so predicates and groupings collide often.
Relation RandomRelation(Rng* rng, Schema schema, size_t n) {
  Relation rel;
  rel.schema = std::move(schema);
  for (size_t r = 0; r < n; ++r) {
    Tuple t;
    for (const Column& c : rel.schema.cols()) {
      if (c.kind == ValueKind::kId) {
        t.emplace_back(RandomId(rng, 3));
      } else {
        t.emplace_back(std::string(1, static_cast<char>('x' + rng->Uniform(3))));
      }
    }
    rel.rows.push_back(std::move(t));
  }
  return rel;
}

/// Sorts by column 0 and drops rows duplicated on it, so the result honors
/// the contract-leaf declaration (sorted by and unique on the ID column,
/// payloads a function of it).
Relation SortedUniqueOnId(Relation rel) {
  std::stable_sort(rel.rows.begin(), rel.rows.end(),
                   [](const Tuple& a, const Tuple& b) { return a[0] < b[0]; });
  std::vector<Tuple> out;
  for (Tuple& t : rel.rows) {
    if (!out.empty() && out.back()[0] == t[0]) continue;
    out.push_back(std::move(t));
  }
  rel.rows = std::move(out);
  return rel;
}

/// Executes `plan` through lowering + the physical executor, resolving every
/// leaf by name from `leaves`.
StatusOr<Relation> RunPhysical(const PlanNode& plan,
                               const std::map<std::string, Relation>& leaves,
                               ExecStats* stats = nullptr,
                               PhysicalPlan* lowered_out = nullptr) {
  XVM_ASSIGN_OR_RETURN(PhysicalPlan phys, LowerPlan(plan));
  if (lowered_out != nullptr) *lowered_out = phys;
  PhysExecContext ctx;
  ctx.resolve_leaf = [&leaves](const PhysNode& leaf) -> StatusOr<Relation> {
    auto it = leaves.find(leaf.leaf_name);
    if (it == leaves.end()) {
      return Status::InvalidArgument("no leaf " + leaf.leaf_name);
    }
    return it->second;
  };
  ctx.stats = stats;
  return ExecutePhysicalPlan(phys, ctx);
}

/// The same plan through the independent reference evaluator.
StatusOr<Relation> RunSymexec(const PlanNode& plan,
                              const std::map<std::string, Relation>& leaves) {
  ExecContext ctx;
  ctx.resolve_leaf = [&leaves](const PlanNode& leaf) -> StatusOr<Relation> {
    auto it = leaves.find(leaf.leaf_name);
    if (it == leaves.end()) {
      return Status::InvalidArgument("no leaf " + leaf.leaf_name);
    }
    return it->second;
  };
  return ExecutePlan(plan, ctx);
}

void ExpectSameRelation(const Relation& got, const Relation& want,
                        const std::string& where) {
  ASSERT_EQ(got.schema, want.schema) << where;
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.rows[i], want.rows[i]) << where << " row " << i;
  }
}

void ExpectSameMultiset(Relation got, Relation want, const std::string& where) {
  std::sort(got.rows.begin(), got.rows.end());
  std::sort(want.rows.begin(), want.rows.end());
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.rows[i], want.rows[i]) << where << " row " << i;
  }
}

// ---------------------------------------------------------------------------
// Per-kernel property tests: physical kernel vs naive reference vs symexec.

TEST(ExecKernelTest, FusedScanMatchesNaiveSelectProject) {
  for (int seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 7919 + 1);
    Relation base = RandomRelation(&rng, IdValSchema("a"), rng.Uniform(30));
    PlanPredicate pred;
    pred.kind = PlanPredicate::Kind::kEqConst;
    pred.a = 1;
    pred.constant = "x";
    PlanNodePtr plan = MakeProject(
        MakeSelect(MakeLeaf(PlanLeafKind::kLiteral, "lit", base.schema, {}, {}),
                   {pred}),
        {0});

    std::map<std::string, Relation> leaves = {{"lit", base}};
    ExecStats stats;
    PhysicalPlan phys;
    auto got = RunPhysical(*plan, leaves, &stats, &phys);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Both σ and π must have fused into the single scan kernel.
    ASSERT_EQ(phys.nodes.size(), 1u) << phys.ToString();
    EXPECT_EQ(phys.scans_fused, 1);
    EXPECT_EQ(stats.kernels[static_cast<size_t>(PhysKernel::kScan)].invocations,
              1);

    Relation naive;
    naive.schema = Schema({base.schema.col(0)});
    for (const Tuple& t : base.rows) {
      if (t[1].str() == "x") naive.rows.push_back({t[0]});
    }
    ExpectSameRelation(*got, naive, "seed " + std::to_string(seed));

    auto sym = RunSymexec(*plan, leaves);
    ASSERT_TRUE(sym.ok()) << sym.status().ToString();
    ExpectSameRelation(*got, *sym, "symexec seed " + std::to_string(seed));
  }
}

TEST(ExecKernelTest, ElidedSortIsPassThrough) {
  for (int seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 104729 + 3);
    Relation base = SortedUniqueOnId(
        RandomRelation(&rng, IdValSchema("a"), rng.Uniform(30)));
    PlanNodePtr plan = MakeSortBy(
        MakeContractLeaf(PlanLeafKind::kLiteral, "lit", base.schema), {0});

    std::map<std::string, Relation> leaves = {{"lit", base}};
    ExecStats stats;
    PhysicalPlan phys;
    auto got = RunPhysical(*plan, leaves, &stats, &phys);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(phys.sorts_elided_static, 1);
    EXPECT_EQ(stats.sorts_elided_static, 1);
    EXPECT_EQ(
        stats.kernels[static_cast<size_t>(PhysKernel::kSortElided)].invocations,
        1);

    Relation naive = SortBy(base, {0});  // input already sorted: identity
    ExpectSameRelation(*got, naive, "seed " + std::to_string(seed));
  }
}

TEST(ExecKernelTest, AdaptiveSortMatchesSortBy) {
  for (int seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 15485863 + 5);
    Relation base = RandomRelation(&rng, IdValSchema("a"), 1 + rng.Uniform(30));
    // Half the runs pre-sort the input, so both adaptive outcomes (checked
    // pass-through and real sort) are exercised.
    bool pre_sorted = rng.Chance(1, 2);
    if (pre_sorted) base = SortedUniqueOnId(std::move(base));
    // Leaf declares NO order, so the lowering cannot elide statically and
    // must emit the check-then-sort kernel.
    PlanNodePtr plan = MakeSortBy(
        MakeLeaf(PlanLeafKind::kLiteral, "lit", base.schema, {}, {}), {0, 1});

    std::map<std::string, Relation> leaves = {{"lit", base}};
    ExecStats stats;
    PhysicalPlan phys;
    auto got = RunPhysical(*plan, leaves, &stats, &phys);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(phys.sorts_elided_static, 0);
    EXPECT_EQ(stats.sorts_elided_dynamic + stats.sorts_performed, 1);

    Relation naive = SortBy(base, {0, 1});
    ExpectSameRelation(*got, naive, "seed " + std::to_string(seed));

    auto sym = RunSymexec(*plan, leaves);
    ASSERT_TRUE(sym.ok());
    ExpectSameRelation(*got, *sym, "symexec seed " + std::to_string(seed));
  }
}

TEST(ExecKernelTest, DupElimSortedAndHashedMatchNaiveCounting) {
  for (int seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 32452843 + 7);
    // Sorted leg: a single-ID-column leaf declared sorted (duplicates
    // allowed — the declared order is non-decreasing, not unique) lowers to
    // adjacent grouping.
    Relation sorted_base = RandomRelation(&rng, IdSchema("a"), rng.Uniform(25));
    std::stable_sort(
        sorted_base.rows.begin(), sorted_base.rows.end(),
        [](const Tuple& a, const Tuple& b) { return a[0] < b[0]; });
    PlanNodePtr sorted_plan = MakeDupElim(MakeLeaf(
        PlanLeafKind::kLiteral, "lit", sorted_base.schema, {0}, {}));
    // Hash leg: same shape, no declared order.
    Relation hash_base = RandomRelation(&rng, IdValSchema("b"), rng.Uniform(25));
    PlanNodePtr hash_plan = MakeDupElim(
        MakeLeaf(PlanLeafKind::kLiteral, "lit", hash_base.schema, {}, {}));

    struct Leg {
      const PlanNode* plan;
      const Relation* base;
      PhysKernel want_kernel;
    };
    for (const Leg& leg :
         {Leg{sorted_plan.get(), &sorted_base, PhysKernel::kDupElimSorted},
          Leg{hash_plan.get(), &hash_base, PhysKernel::kDupElimHash}}) {
      std::map<std::string, Relation> leaves = {{"lit", *leg.base}};
      ExecStats stats;
      PhysicalPlan phys;
      auto got = RunPhysical(*leg.plan, leaves, &stats, &phys);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(phys.nodes.back().kernel, leg.want_kernel) << phys.ToString();

      // Naive counting reference: group via an ordered map over encoded
      // tuples, emit in sorted-tuple order.
      std::map<Tuple, int64_t> groups;
      for (const Tuple& t : leg.base->rows) ++groups[t];
      Relation naive;
      naive.schema = leg.base->schema;
      for (const auto& [t, n] : groups) naive.rows.push_back(t);

      ExpectSameRelation(*got, naive, "seed " + std::to_string(seed));

      // With counts: executor vs the naive group counts.
      auto lowered = LowerPlan(*leg.plan);
      ASSERT_TRUE(lowered.ok());
      PhysExecContext ctx;
      ctx.resolve_leaf = [&](const PhysNode&) -> StatusOr<Relation> {
        return *leg.base;
      };
      auto counted = ExecutePhysicalPlanWithCounts(*lowered, ctx);
      ASSERT_TRUE(counted.ok()) << counted.status().ToString();
      ASSERT_EQ(counted->size(), groups.size());
      size_t i = 0;
      for (const auto& [t, n] : groups) {
        ASSERT_EQ((*counted)[i].tuple, t) << "seed " << seed;
        ASSERT_EQ((*counted)[i].count, n) << "seed " << seed;
        ++i;
      }
    }
  }
}

TEST(ExecKernelTest, StructJoinMatchesNestedLoopOnBothAxes) {
  for (int seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 86028121 + 17);
    Relation outer = SortedUniqueOnId(
        RandomRelation(&rng, IdSchema("a"), rng.Uniform(15)));
    Relation inner = SortedUniqueOnId(
        RandomRelation(&rng, IdValSchema("b"), rng.Uniform(15)));
    for (Axis axis : {Axis::kChild, Axis::kDescendant}) {
      PlanNodePtr plan = MakeStructJoin(
          MakeContractLeaf(PlanLeafKind::kLiteral, "O", outer.schema),
          0, MakeContractLeaf(PlanLeafKind::kLiteral, "I", inner.schema), 0,
          axis);

      std::map<std::string, Relation> leaves = {{"O", outer}, {"I", inner}};
      auto got = RunPhysical(*plan, leaves);
      ASSERT_TRUE(got.ok()) << got.status().ToString();

      Relation naive;
      naive.schema = Schema::Concat(outer.schema, inner.schema);
      for (const Tuple& o : outer.rows) {
        for (const Tuple& i : inner.rows) {
          bool match = axis == Axis::kChild
                           ? o[0].id().IsParentOf(i[0].id())
                           : o[0].id().IsAncestorOf(i[0].id());
          if (match) {
            Tuple t = o;
            t.insert(t.end(), i.begin(), i.end());
            naive.rows.push_back(std::move(t));
          }
        }
      }
      ExpectSameMultiset(*got, naive, "seed " + std::to_string(seed));

      auto sym = RunSymexec(*plan, leaves);
      ASSERT_TRUE(sym.ok());
      ExpectSameRelation(*got, *sym, "symexec seed " + std::to_string(seed));
    }
  }
}

// ---------------------------------------------------------------------------
// Differential parity on compiler-emitted plans: the production wrappers
// (which now run the physical executor) vs the symbolic reference evaluator,
// bit-identically.

constexpr const char* kLabels[] = {"a", "b", "c", "d", "e"};
constexpr size_t kNumLabels = 5;

void RandomDocument(Rng* rng, int n, Document* doc) {
  NodeHandle root = doc->CreateRoot("r");
  std::vector<NodeHandle> nodes = {root};
  for (int i = 0; i < n; ++i) {
    NodeHandle parent = nodes[rng->Uniform(nodes.size())];
    NodeHandle fresh =
        doc->AppendElement(parent, kLabels[rng->Uniform(kNumLabels)]);
    nodes.push_back(fresh);
    if (rng->Chance(1, 4)) {
      doc->AppendText(fresh, std::to_string(rng->Uniform(3)));
    }
  }
}

std::string RandomPatternDsl(Rng* rng) {
  std::string dsl =
      std::string("//") + kLabels[rng->Uniform(kNumLabels)] + "{id}";
  size_t extra = 1 + rng->Uniform(3);
  std::vector<std::string> branches;
  for (size_t i = 0; i < extra; ++i) {
    std::string edge = rng->Chance(1, 3) ? "/" : "//";
    branches.push_back(edge + std::string(kLabels[rng->Uniform(kNumLabels)]) +
                       "{id}");
  }
  std::string child_text;
  if (rng->Chance(1, 2) && branches.size() > 1) {
    std::string nested = branches.back();
    for (size_t i = branches.size() - 1; i-- > 0;) {
      nested = branches[i] + "(" + nested + ")";
    }
    child_text = nested;
  } else {
    for (size_t i = 0; i < branches.size(); ++i) {
      if (i > 0) child_text += ",";
      child_text += branches[i];
    }
  }
  dsl += "(" + child_text + ")";
  return dsl;
}

TreePattern RandomPattern(Rng* rng) {
  auto p = TreePattern::Parse(RandomPatternDsl(rng));
  XVM_CHECK(p.ok());
  return std::move(p).value();
}

/// symexec over a compiler-emitted plan, resolving pattern leaves through
/// the same LeafSource the executor uses.
StatusOr<Relation> SymexecPatternPlan(const PlanNode& plan,
                                      const LeafSource& leaf_source) {
  ExecContext ctx;
  ctx.resolve_leaf =
      [&leaf_source](const PlanNode& leaf) -> StatusOr<Relation> {
    XVM_CHECK(leaf.leaf_node >= 0);
    return leaf_source(leaf.leaf_node);
  };
  return ExecutePlan(plan, ctx);
}

class ExecDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecDifferentialTest, ExecutorEqualsSymexecOnRandomPatterns) {
  ScopedInvariantAuditing audit(true);
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761 + 23);
  Document doc;
  RandomDocument(&rng, 120, &doc);
  StoreIndex store(&doc);
  store.Build();

  for (int p = 0; p < 4; ++p) {
    TreePattern pat = RandomPattern(&rng);
    LeafSource src = StoreLeafSource(&store, &pat);

    // Binding relation: executor (via the production wrapper) vs symexec.
    Relation exec_out = EvalTreePattern(pat, src);
    PlanNodePtr plan =
        BuildPatternPlan(pat, nullptr, PlanLeafSourceKind::kStore);
    auto sym_out = SymexecPatternPlan(*plan, src);
    ASSERT_TRUE(sym_out.ok()) << sym_out.status().ToString();
    ExpectSameRelation(exec_out, *sym_out, "pattern " + pat.ToString());

    // View semantics with derivation counts.
    std::vector<CountedTuple> exec_counts = EvalViewWithCounts(pat, src);
    PlanNodePtr view_plan = BuildViewPlan(pat);
    ExecContext sctx;
    sctx.resolve_leaf = [&src](const PlanNode& leaf) -> StatusOr<Relation> {
      XVM_CHECK(leaf.leaf_node >= 0);
      return src(leaf.leaf_node);
    };
    auto sym_counts = ExecutePlanWithCounts(*view_plan, sctx);
    ASSERT_TRUE(sym_counts.ok()) << sym_counts.status().ToString();
    ASSERT_EQ(exec_counts.size(), sym_counts->size()) << pat.ToString();
    for (size_t i = 0; i < exec_counts.size(); ++i) {
      ASSERT_EQ(exec_counts[i].tuple, (*sym_counts)[i].tuple)
          << pat.ToString();
      ASSERT_EQ(exec_counts[i].count, (*sym_counts)[i].count)
          << pat.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecDifferentialTest, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Oracle parity on fixed inputs: the seven XMark views on a generated
// document, plus small documents for shapes random patterns rarely reach.
// The executor's counted view must equal the navigational evaluator's, and
// each chain snowcap's bindings must equal symexec over the same
// compiler-emitted plan.

void ExpectExecutorMatchesOracles(const ViewDefinition& def,
                                  const StoreIndex& store,
                                  const std::string& where) {
  const TreePattern& pat = def.pattern();
  LeafSource src = StoreLeafSource(&store, &pat);
  std::vector<CountedTuple> got = EvalViewWithCounts(pat, src);
  std::vector<CountedTuple> nav = NavigationalViewEval(def, store.doc());
  ASSERT_EQ(got.size(), nav.size()) << where;
  for (size_t i = 0; i < nav.size(); ++i) {
    ASSERT_EQ(got[i].tuple, nav[i].tuple) << where << " row " << i;
    ASSERT_EQ(got[i].count, nav[i].count) << where << " row " << i;
  }
  ViewLattice chain(&pat, LatticeStrategy::kSnowcaps);
  for (const MaterializedSnowcap& sc : chain.snowcaps()) {
    const std::string at =
        where + " snowcap of " + std::to_string(NodeSetCount(sc.nodes));
    Relation exec_out = EvalTreePattern(pat, src, &sc.nodes);
    PlanNodePtr plan =
        BuildPatternPlan(pat, &sc.nodes, PlanLeafSourceKind::kStore);
    auto sym_out = SymexecPatternPlan(*plan, src);
    ASSERT_TRUE(sym_out.ok()) << at << ": " << sym_out.status().ToString();
    ExpectSameRelation(exec_out, *sym_out, at);
  }
}

TEST(ExecOracleTest, XMarkViewsAndFixedShapesMatchNavigationalAndSymexec) {
  ScopedInvariantAuditing audit(true);
  Document xmark;
  GenerateXMark(XMarkConfig{50 * 1024, 13}, &xmark);
  StoreIndex xmark_store(&xmark);
  xmark_store.Build();
  for (const auto& name : XMarkViewNames()) {
    auto def = XMarkView(name);
    ASSERT_TRUE(def.ok()) << name;
    ExpectExecutorMatchesOracles(*def, xmark_store, name);
  }

  struct Shape {
    const char* xml;
    const char* dsl;
  };
  const Shape shapes[] = {
      // Empty streams: a label the document lacks, as leaf and as root.
      {"<r><a/></r>", "//a{id}(//zzz{id})"},
      {"<r><a/></r>", "//zzz{id}(//a{id})"},
      // Root-anchored, with the anchor label nested below itself.
      {"<a><a><b/></a><b/></a>", "/a{id}(//b{id})"},
      // Nested same labels on one descendant path.
      {"<r><b><d><b/><d><b/></d></d></b><b/></r>",
       "//b{id}(//d{id}(//b{id}))"},
      // Child-axis edges next to descendant-only matches.
      {"<a><b><c/></b><c/><x><c/></x></a>", "//a{id}(/c{id})"},
      {"<a><b><c/></b><c/><x><c/></x></a>", "//a{id}(/b{id}(/c{id}))"},
      // Branching chains (the Figure 6 shape).
      {"<r><a><b><c/></b></a><a><b/></a><c/></r>",
       "//a{id}(//b{id}(//c{id}))"},
      {"<r><a><b/><c/></a><a><b/></a><a><c/><b><c/></b></a></r>",
       "//a{id}(//b{id},//c{id})"},
      {"<r><a><b><c/></b><d/></a><a><d/></a><a><b><c/><c/></b><d/><d/></a>"
       "</r>",
       "//a{id}(//b{id}(//c{id}),//d{id})"},
      // Value predicates and val/cont annotations.
      {"<r><a>5<b>x</b></a><a>7<b>y</b></a><a>5</a></r>",
       "//a{id}[val=\"5\"](//b{id,val})"},
      {"<r><a>5<b>x</b></a><a>7<b>y</b></a><a>5</a></r>",
       "//a{id,val,cont}(//b{id})"},
  };
  for (const Shape& shape : shapes) {
    Document doc;
    ASSERT_TRUE(ParseDocument(shape.xml, &doc).ok()) << shape.xml;
    StoreIndex store(&doc);
    store.Build();
    auto def = ViewDefinition::Create("shape", shape.dsl);
    ASSERT_TRUE(def.ok()) << shape.dsl << ": " << def.status().ToString();
    ExpectExecutorMatchesOracles(*def, store, shape.dsl);
  }
}

// ---------------------------------------------------------------------------
// Elision metrics: lowering compiler-emitted plans must statically elide
// sorts, and the counters must surface through MaintainedView / ViewManager
// under the "__exec__" pseudo-view.

TEST(ExecMetricsTest, SingleNodeViewPlanElidesItsSortStatically) {
  auto pat = TreePattern::Parse("/r{id}");
  ASSERT_TRUE(pat.ok());
  PlanNodePtr plan = BuildViewPlan(*pat);
  auto phys = LowerPlan(*plan);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  EXPECT_GE(phys->sorts_elided_static, 1) << phys->ToString();

  Document doc;
  doc.CreateRoot("r");
  StoreIndex store(&doc);
  store.Build();
  LeafSource src = StoreLeafSource(&store, &*pat);
  PhysExecContext ctx;
  ctx.store_leaf = src;
  ExecStats stats;
  ctx.stats = &stats;
  auto counts = ExecutePhysicalPlanWithCounts(*phys, ctx);
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  ASSERT_EQ(counts->size(), 1u);
  EXPECT_EQ(stats.plans_executed, 1);
  EXPECT_GE(stats.sorts_elided_static, 1);
  EXPECT_GE(
      stats.kernels[static_cast<size_t>(PhysKernel::kSortElided)].invocations,
      1);
}

TEST(ExecMetricsTest, ManagerReportsExecCountersUnderExecPseudoView) {
  Document doc;
  NodeHandle root = doc.CreateRoot("r");
  doc.AppendElement(root, "a");
  StoreIndex store(&doc);
  store.Build();
  ViewManager mgr(&doc, &store);
  MetricsRegistry metrics;
  mgr.set_metrics(&metrics);
  auto pat = TreePattern::Parse("//a{id}");
  ASSERT_TRUE(pat.ok());
  auto def = ViewDefinition::FromPattern("v", std::move(*pat));
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(mgr.AddView(std::move(*def), LatticeStrategy::kSnowcaps).ok());

  auto out = mgr.ApplyAndPropagateAll(UpdateStmt::InsertForest("/r", "<a/>"));
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  auto snap = metrics.Snapshot();
  auto it = snap.find(kExecMetricsView);
  ASSERT_NE(it, snap.end()) << "no __exec__ pseudo-view in metrics";
  const auto& counters = it->second.counters();
  auto counter = [&](const std::string& name) -> int64_t {
    auto c = counters.find(name);
    return c == counters.end() ? 0 : c->second;
  };
  EXPECT_GE(counter("plans_executed"), 1);
  // The single-node Δ term's final sort is statically elided (the planlint
  // --physical golden pins this), so maintenance must report it.
  EXPECT_GE(counter("sorts_elided_static"), 1);
  EXPECT_GE(counter("scan.invocations"), 1);
  EXPECT_TRUE(it->second.phases().count("execute_plan"));

  // Each kernel that ran reports its time next to its rows, and the kernel
  // times add up to no more than the plans' own.
  const auto& phases = it->second.phases();
  double kernel_ms = 0.0;
  for (size_t k = 0; k < kNumPhysKernels; ++k) {
    const std::string name = PhysKernelName(static_cast<PhysKernel>(k));
    if (counter(name + ".invocations") == 0) continue;
    auto p = phases.find(name + ".ms");
    ASSERT_NE(p, phases.end()) << name << ".ms missing";
    EXPECT_EQ(p->second.count(), 1u) << name;
    EXPECT_GE(p->second.total_ms(), 0.0) << name;
    kernel_ms += p->second.total_ms();
  }
  EXPECT_TRUE(phases.count("scan.ms"));
  EXPECT_LE(kernel_ms, phases.at("execute_plan").total_ms());
}

TEST(ExecMetricsTest, KernelTimesSumToAtMostExecMs) {
  Rng rng(3);
  Document doc;
  RandomDocument(&rng, 120, &doc);
  StoreIndex store(&doc);
  store.Build();
  for (const char* dsl : {"//a{id}(//b{id,val}(/c{id}))", "//b{id}(//a{id})"}) {
    auto pat = TreePattern::Parse(dsl);
    ASSERT_TRUE(pat.ok());
    PhysExecContext ctx;
    ctx.store_leaf = StoreLeafSource(&store, &*pat);
    ExecStats stats;
    ctx.stats = &stats;
    auto plan = LowerPlan(*BuildViewPlan(*pat));
    ASSERT_TRUE(plan.ok());
    for (int rep = 0; rep < 5; ++rep) {
      ASSERT_TRUE(ExecutePhysicalPlanWithCounts(*plan, ctx).ok());
    }
    double kernel_ms = 0.0;
    for (const ExecKernelStats& ks : stats.kernels) {
      EXPECT_GE(ks.ms, 0.0);
      if (ks.invocations == 0) {
        EXPECT_EQ(ks.ms, 0.0);
      }
      kernel_ms += ks.ms;
    }
    EXPECT_GT(kernel_ms, 0.0) << dsl;
    EXPECT_LE(kernel_ms, stats.exec_ms) << dsl;
  }
}

// ---------------------------------------------------------------------------
// Fuzz leg: executor ≡ symexec ≡ maintained content under random update
// streams, with the invariant auditor (and therefore the executor's
// elided-sort / leaf-contract audits) enabled.

UpdateStmt RandomStatement(Rng* rng) {
  const char* target_label = kLabels[rng->Uniform(kNumLabels)];
  std::string target = std::string("//") + target_label;
  if (rng->Chance(1, 3)) {
    target += std::string("[") + kLabels[rng->Uniform(kNumLabels)] + "]";
  }
  if (rng->Chance(2, 5)) return UpdateStmt::Delete(target);
  std::string forest;
  size_t trees = 1 + rng->Uniform(2);
  for (size_t t = 0; t < trees; ++t) {
    const char* l1 = kLabels[rng->Uniform(kNumLabels)];
    forest += std::string("<") + l1 + ">";
    size_t kids = rng->Uniform(3);
    for (size_t c = 0; c < kids; ++c) {
      forest += std::string("<") + kLabels[rng->Uniform(kNumLabels)] + "/>";
    }
    forest += std::string("</") + l1 + ">";
  }
  return UpdateStmt::InsertForest(target, forest);
}

class ExecFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecFuzzTest, ExecutorEqualsSymexecEqualsRecomputeUnderRandomStream) {
  ScopedInvariantAuditing audit(true);
  Rng rng(static_cast<uint64_t>(GetParam()) * 179424673 + 31);
  Document doc;
  RandomDocument(&rng, 120, &doc);
  StoreIndex store(&doc);
  store.Build();

  auto def = ViewDefinition::FromPattern("fuzz", RandomPattern(&rng));
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  LatticeStrategy strategy = rng.Chance(1, 2) ? LatticeStrategy::kSnowcaps
                                              : LatticeStrategy::kLeaves;
  ViewManager mgr(&doc, &store);
  ASSERT_TRUE(mgr.AddView(*def, strategy).ok());
  const MaintainedView& mv = mgr.view(0);

  for (int step = 0; step < 10; ++step) {
    if (doc.root() == kNullNode) break;
    UpdateStmt stmt = RandomStatement(&rng);
    while (doc.num_alive() > 900 && stmt.kind != UpdateStmt::Kind::kDelete) {
      stmt = RandomStatement(&rng);
    }
    auto out = mgr.ApplyAndPropagateAll(stmt);
    ASSERT_TRUE(out.ok()) << out.status().ToString() << " step " << step;

    // The maintained content (incrementally updated through the executor's
    // term plans) vs a from-scratch recompute through the executor vs the
    // same recompute through the independent symbolic evaluator — all three
    // must agree tuple-for-tuple, count-for-count.
    const TreePattern& pat = mv.def().pattern();
    LeafSource src = StoreLeafSource(&store, &pat);
    auto exec_counts = EvalViewWithCounts(pat, src);
    PlanNodePtr view_plan = BuildViewPlan(pat);
    ExecContext sctx;
    sctx.resolve_leaf = [&src](const PlanNode& leaf) -> StatusOr<Relation> {
      XVM_CHECK(leaf.leaf_node >= 0);
      return src(leaf.leaf_node);
    };
    auto sym_counts = ExecutePlanWithCounts(*view_plan, sctx);
    ASSERT_TRUE(sym_counts.ok()) << sym_counts.status().ToString();
    auto maintained = mv.view().Snapshot();

    ASSERT_EQ(maintained.size(), exec_counts.size()) << "step " << step;
    ASSERT_EQ(maintained.size(), sym_counts->size()) << "step " << step;
    for (size_t i = 0; i < maintained.size(); ++i) {
      ASSERT_EQ(maintained[i].tuple, exec_counts[i].tuple) << "step " << step;
      ASSERT_EQ(maintained[i].count, exec_counts[i].count) << "step " << step;
      ASSERT_EQ(maintained[i].tuple, (*sym_counts)[i].tuple)
          << "step " << step;
      ASSERT_EQ(maintained[i].count, (*sym_counts)[i].count)
          << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecFuzzTest, ::testing::Range(1, 17));

}  // namespace
}  // namespace xvm
