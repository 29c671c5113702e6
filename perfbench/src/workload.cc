#include "workload.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/rng.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xpath/xpath_eval.h"

namespace xvm::perfbench {

namespace {

// The 2.5 MB document of Figs. 20/21 (the paper's "10 MB" at XVM_SCALE=0.25)
// and the 640 KB one (the paper's 2.5 MB at the same scale).
constexpr size_t kPointDocBytes = 10 * 1024 * 1024 / 4;
constexpr size_t kBulkDocBytes = 2560 * 1024 / 4;

// serve_mixed's open-loop writer rate: about a fifth of point_mix's
// closed-loop throughput on a quiet host, so the writer stays well below
// saturation when the host runs twice as slow (see README.md).
constexpr double kServeRatePerS = 10.0;

constexpr const char* kRegions[] = {"africa",   "asia",     "australia",
                                    "europe",   "namerica", "samerica"};
constexpr const char* kWords[] = {"vintage", "rare",   "mint",   "signed",
                                  "classic", "estate", "bronze", "walnut"};
constexpr const char* kCountries[] = {"France", "Italy", "United Kingdom"};

std::vector<WorkloadSpec> BuildWorkloads() {
  WorkloadSpec point;
  point.name = "point_mix";
  point.doc_bytes = kPointDocBytes;
  point.lanes = 1;
  point.checkpoint_every = 100;
  point.warmup_stmts = 30;
  point.rss_at_stmt = 300;

  WorkloadSpec bulk;
  bulk.name = "bulk_churn";
  bulk.doc_bytes = kBulkDocBytes;
  bulk.lanes = 4;
  bulk.checkpoint_every = 39;  // three rounds of the cycle set
  bulk.warmup_stmts = 13;      // one round: every plan lowered once
  bulk.rss_at_stmt = 104;

  WorkloadSpec serve = point;
  serve.name = "serve_mixed";
  serve.rate_per_s = kServeRatePerS;
  serve.readers = 2;
  serve.rss_at_stmt = 150;

  return {point, bulk, serve};
}

/// Text of the attribute `@name` of element `h`; empty if absent.
std::string AttributeOf(const Document& doc, NodeHandle h,
                        const std::string& name) {
  const std::string label = "@" + name;
  for (NodeHandle c : doc.Children(h)) {
    const Node& n = doc.node(c);
    if (n.kind == NodeKind::kAttribute && doc.dict().Name(n.label) == label) {
      return n.text;
    }
  }
  return "";
}

/// True iff `h` has an element child labeled `label` (and, when `grandchild`
/// is non-empty, that child has an element child labeled `grandchild`).
bool HasChildPath(const Document& doc, NodeHandle h, const std::string& label,
                  const std::string& grandchild = "") {
  for (NodeHandle c : doc.Children(h)) {
    const Node& n = doc.node(c);
    if (n.kind != NodeKind::kElement || doc.dict().Name(n.label) != label) {
      continue;
    }
    if (grandchild.empty() || HasChildPath(doc, c, grandchild)) return true;
  }
  return false;
}

std::vector<NodeHandle> MustEval(const Document& doc, const char* path) {
  StatusOr<std::vector<NodeHandle>> nodes = EvalXPathString(doc, path);
  XVM_CHECK(nodes.ok());
  return *std::move(nodes);
}

/// A set of indices with O(1) random pick-and-remove.
class IndexSet {
 public:
  explicit IndexSet(size_t universe) : pos_(universe, kAbsent) {}
  bool empty() const { return items_.empty(); }
  void Insert(uint32_t i) {
    if (pos_[i] != kAbsent) return;
    pos_[i] = static_cast<uint32_t>(items_.size());
    items_.push_back(i);
  }
  uint32_t TakeRandom(Rng* rng) {
    const uint32_t i = items_[rng->Uniform(items_.size())];
    items_[pos_[i]] = items_.back();
    pos_[items_.back()] = pos_[i];
    items_.pop_back();
    pos_[i] = kAbsent;
    return i;
  }

 private:
  static constexpr uint32_t kAbsent = 0xFFFFFFFFu;
  std::vector<uint32_t> items_;
  std::vector<uint32_t> pos_;
};

/// point_mix / serve_mixed: single-target statements addressed by @id:
/// insert a homepage into a person, a bidder into an open auction or an
/// item into a region; delete a person's homepages or an auction's
/// bidder/increase; replace a person's name. Deletes only ever name a person
/// that holds a homepage or an auction whose bidders hold an increase, so no
/// statement is a no-op.
class PointMixSource final : public StatementSource {
 public:
  PointMixSource(const Document& doc, uint64_t seed)
      : rng_(seed ^ 0x5eed'0001ULL), with_homepage_(0), with_increase_(0) {
    const std::vector<NodeHandle> persons =
        MustEval(doc, "/site/people/person");
    persons_.resize(persons.size());
    with_homepage_ = IndexSet(persons.size());
    for (size_t i = 0; i < persons.size(); ++i) {
      persons_[i] = AttributeOf(doc, persons[i], "id");
      if (HasChildPath(doc, persons[i], "homepage")) {
        with_homepage_.Insert(static_cast<uint32_t>(i));
      }
    }
    const std::vector<NodeHandle> auctions =
        MustEval(doc, "/site/open_auctions/open_auction");
    auctions_.resize(auctions.size());
    with_increase_ = IndexSet(auctions.size());
    for (size_t i = 0; i < auctions.size(); ++i) {
      auctions_[i] = AttributeOf(doc, auctions[i], "id");
      if (HasChildPath(doc, auctions[i], "bidder", "increase")) {
        with_increase_.Insert(static_cast<uint32_t>(i));
      }
    }
    XVM_CHECK(!persons_.empty() && !auctions_.empty());
  }

  GeneratedStmt Next() override {
    if (block_pos_ == block_.size()) {
      for (size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.Uniform(i + 1)]);
      }
      block_pos_ = 0;
    }
    ++serial_;
    GeneratedStmt out = Make(block_[block_pos_++]);
    out.ends_round = block_pos_ == block_.size();
    return out;
  }

  std::vector<GeneratedStmt> Tail() override {
    // Inserts and a replace only: their targets exist in every state.
    std::vector<GeneratedStmt> tail = {
        {UpdateStmt::InsertForest(
             PersonPath(0),
             "<homepage>http://www.example.org/~tail</homepage>",
             "pm_tail_homepage"),
         StmtKind::kInsert},
        {UpdateStmt::InsertForest(
             AuctionPath(0),
             "<bidder><date>01/01/2001</date><time>12:00</time>"
             "<personref person=\"" + persons_[0] +
                 "\"/><increase>4.50</increase></bidder>",
             "pm_tail_bidder"),
         StmtKind::kInsert},
        {UpdateStmt::InsertForest(
             "/site/regions/europe",
             "<item id=\"tail_item\"><location>Italy</location>"
             "<quantity>1</quantity><name>tail item</name>"
             "<payment>Cash</payment><description>rare signed estate"
             "</description></item>",
             "pm_tail_item"),
         StmtKind::kInsert},
        {UpdateStmt::ReplaceContent(PersonPath(1) + "/name", "tail name",
                                    "pm_tail_replace"),
         StmtKind::kReplace},
    };
    tail.back().ends_round = true;
    return tail;
  }

 private:
  /// Every block of six statements holds each operation once, in seeded
  /// order, so every seed runs the same mix.
  enum class Op : uint8_t {
    kInsertHomepage,
    kInsertBidder,
    kInsertItem,
    kDeleteHomepage,
    kDeleteIncrease,
    kReplaceName,
  };

  GeneratedStmt Make(Op op) {
    switch (op) {
      case Op::kInsertHomepage: return InsertHomepage();
      case Op::kInsertBidder: return InsertBidder();
      case Op::kInsertItem: return InsertItem();
      case Op::kDeleteHomepage: return DeleteHomepage();
      case Op::kDeleteIncrease: return DeleteIncrease();
      case Op::kReplaceName: return ReplaceName();
    }
    return InsertHomepage();
  }

  std::string PersonPath(size_t p) const {
    return "/site/people/person[@id=\"" + persons_[p] + "\"]";
  }
  std::string AuctionPath(size_t a) const {
    return "/site/open_auctions/open_auction[@id=\"" + auctions_[a] + "\"]";
  }
  std::string Word() { return kWords[rng_.Uniform(std::size(kWords))]; }

  GeneratedStmt InsertHomepage() {
    const auto p = static_cast<uint32_t>(rng_.Uniform(persons_.size()));
    with_homepage_.Insert(p);
    return {UpdateStmt::InsertForest(
                PersonPath(p),
                "<homepage>http://www.example.org/~bench" +
                    std::to_string(serial_) + "</homepage>",
                "pm_ins_homepage"),
            StmtKind::kInsert};
  }

  GeneratedStmt InsertBidder() {
    const auto a = static_cast<uint32_t>(rng_.Uniform(auctions_.size()));
    with_increase_.Insert(a);
    const std::string& person = persons_[rng_.Uniform(persons_.size())];
    const std::string forest =
        "<bidder><date>" + std::to_string(1 + rng_.Uniform(28)) + "/0" +
        std::to_string(1 + rng_.Uniform(9)) + "/2001</date><time>" +
        std::to_string(rng_.Uniform(24)) + ":" +
        std::to_string(10 + rng_.Uniform(49)) + "</time><personref person=\"" +
        person + "\"/><increase>" + kIncreaseAmounts[rng_.Uniform(7)] +
        "</increase></bidder>";
    return {UpdateStmt::InsertForest(AuctionPath(a), forest, "pm_ins_bidder"),
            StmtKind::kInsert};
  }

  GeneratedStmt InsertItem() {
    const std::string region = kRegions[rng_.Uniform(std::size(kRegions))];
    const std::string forest =
        "<item id=\"bench_item" + std::to_string(serial_) + "\"><location>" +
        kCountries[rng_.Uniform(std::size(kCountries))] +
        "</location><quantity>1</quantity><name>" + Word() + " " + Word() +
        "</name><payment>Cash</payment><description>" + Word() + " " + Word() +
        " " + Word() + "</description></item>";
    return {UpdateStmt::InsertForest("/site/regions/" + region, forest,
                                     "pm_ins_item"),
            StmtKind::kInsert};
  }

  GeneratedStmt DeleteHomepage() {
    if (with_homepage_.empty()) return InsertHomepage();
    const uint32_t p = with_homepage_.TakeRandom(&rng_);
    return {UpdateStmt::Delete(PersonPath(p) + "/homepage", "pm_del_homepage"),
            StmtKind::kDelete};
  }

  GeneratedStmt DeleteIncrease() {
    if (with_increase_.empty()) return InsertBidder();
    const uint32_t a = with_increase_.TakeRandom(&rng_);
    return {UpdateStmt::Delete(AuctionPath(a) + "/bidder/increase",
                               "pm_del_increase"),
            StmtKind::kDelete};
  }

  GeneratedStmt ReplaceName() {
    const size_t p = rng_.Uniform(persons_.size());
    return {UpdateStmt::ReplaceContent(
                PersonPath(p) + "/name",
                Word() + " " + Word() + " " + std::to_string(serial_),
                "pm_replace_name"),
            StmtKind::kReplace};
  }

  Rng rng_;
  std::array<Op, 6> block_ = {Op::kInsertHomepage, Op::kInsertBidder,
                              Op::kInsertItem,     Op::kDeleteHomepage,
                              Op::kDeleteIncrease, Op::kReplaceName};
  size_t block_pos_ = block_.size();
  std::vector<std::string> persons_;   // @id by document position
  std::vector<std::string> auctions_;  // @id by document position
  IndexSet with_homepage_;             // persons holding >= 1 homepage
  IndexSet with_increase_;             // auctions with >= 1 bidder/increase
  uint64_t serial_ = 0;
};

/// One bulk_churn cycle: an Appendix-A insert and the delete of exactly the
/// subtrees it added, or a size-neutral bulk replace.
struct BulkCycle {
  const char* update;  // Appendix-A update name; null for the replace cycle
  const char* undo;    // deletes exactly what `update` inserted
};

constexpr std::array<BulkCycle, 7> kBulkCycles = {{
    {"X1_L", "/site/people/person/name[name]"},
    {"X2_L", "/site/open_auctions/open_auction/bidder/increase[increase]"},
    {"E6_L", "/site/regions/*/item/item"},
    {"B7_LB", "/site/people/person/name[name]"},
    {"X4_O", "/site/open_auctions/open_auction/bidder/increase[increase]"},
    {"A6_A", "/site/people/person/name[name]"},
    // Every person name holds exactly one text node before and after, so
    // the live node count is unchanged.
    {nullptr, "/site/people/person/name"},
}};

/// bulk_churn: rounds of the seven cycles above, each round in seeded order.
class BulkChurnSource final : public StatementSource {
 public:
  explicit BulkChurnSource(uint64_t seed) : rng_(seed ^ 0x5eed'0002ULL) {}

  GeneratedStmt Next() override {
    if (pending_.empty()) {
      std::array<size_t, kBulkCycles.size()> order;
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng_.Uniform(i + 1)]);
      }
      std::vector<GeneratedStmt> round = Round(order);
      // Next() pops from the back.
      pending_.assign(std::make_move_iterator(round.rbegin()),
                      std::make_move_iterator(round.rend()));
    }
    GeneratedStmt out = std::move(pending_.back());
    pending_.pop_back();
    return out;
  }

  /// One round with the cycles in their listed order.
  std::vector<GeneratedStmt> Tail() override {
    XVM_CHECK(pending_.empty());
    std::array<size_t, kBulkCycles.size()> order;
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    return Round(order);
  }

 private:
  std::vector<GeneratedStmt> Round(
      const std::array<size_t, kBulkCycles.size()>& order) {
    ++round_;
    std::vector<GeneratedStmt> round;
    for (size_t c : order) {
      const BulkCycle& cycle = kBulkCycles[c];
      if (cycle.update == nullptr) {
        round.push_back({UpdateStmt::ReplaceContent(
                             cycle.undo, "renamed " + std::to_string(round_),
                             "bc_replace_names"),
                         StmtKind::kReplace, /*ends_cycle=*/true});
        continue;
      }
      StatusOr<XMarkUpdate> u = FindXMarkUpdate(cycle.update);
      XVM_CHECK(u.ok());
      round.push_back({MakeInsertStmt(*u), StmtKind::kInsert});
      round.push_back(
          {UpdateStmt::Delete(cycle.undo, std::string(cycle.update) + "_undo"),
           StmtKind::kDelete, /*ends_cycle=*/true});
    }
    round.back().ends_round = true;
    return round;
  }

  Rng rng_;
  uint64_t round_ = 0;
  std::vector<GeneratedStmt> pending_;
};

}  // namespace

const char* StmtKindName(StmtKind kind) {
  switch (kind) {
    case StmtKind::kInsert: return "insert";
    case StmtKind::kDelete: return "delete";
    case StmtKind::kReplace: return "replace";
  }
  return "unknown";
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>& all =
      *new std::vector<WorkloadSpec>(BuildWorkloads());
  return all;
}

StatusOr<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return w;
  }
  return Status::NotFound("unknown workload: " + name);
}

std::unique_ptr<StatementSource> MakeStatementSource(const WorkloadSpec& spec,
                                                     const Document& doc,
                                                     uint64_t seed) {
  if (spec.name == "bulk_churn") return std::make_unique<BulkChurnSource>(seed);
  return std::make_unique<PointMixSource>(doc, seed);
}

}  // namespace xvm::perfbench
