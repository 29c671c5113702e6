#include "bench_util.h"

#include <algorithm>
#include <cstdlib>

namespace xvm::bench {

double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("XVM_SCALE");
    if (env == nullptr) return 0.25;
    double v = std::atof(env);
    return v > 0 ? v : 0.25;
  }();
  return scale;
}

int Reps() {
  static const int reps = [] {
    const char* env = std::getenv("XVM_REPS");
    if (env == nullptr) return 3;
    int v = std::atoi(env);
    return v > 0 ? v : 3;
  }();
  return reps;
}

size_t Workers() {
  static const size_t workers = [] {
    const char* env = std::getenv("XVM_WORKERS");
    if (env == nullptr) return ThreadPool::DefaultWorkers();
    int v = std::atoi(env);
    return v > 0 ? static_cast<size_t>(v) : ThreadPool::DefaultWorkers();
  }();
  return workers;
}

size_t ScaledBytes(size_t paper_kb) {
  double bytes = static_cast<double>(paper_kb) * 1024.0 * Scale();
  return std::max<size_t>(static_cast<size_t>(bytes), 16 * 1024);
}

Workbench MakeXMark(size_t bytes, uint64_t seed) {
  Workbench wb;
  wb.doc = std::make_unique<Document>();
  GenerateXMark(XMarkConfig{bytes, seed}, wb.doc.get());
  wb.store = std::make_unique<StoreIndex>(wb.doc.get());
  wb.store->Build();
  return wb;
}

UpdateOutcome RunMaintained(const std::string& view_name, size_t bytes,
                            const UpdateStmt& stmt, LatticeStrategy strategy,
                            uint64_t seed) {
  Workbench wb = MakeXMark(bytes, seed);
  auto def = XMarkView(view_name);
  XVM_CHECK(def.ok());
  return ApplyToOneView(&wb, std::move(def).value(), strategy, stmt);
}

UpdateOutcome ApplyToOneView(Workbench* wb, ViewDefinition def,
                             LatticeStrategy strategy, const UpdateStmt& stmt) {
  ViewManager mgr(wb->doc.get(), wb->store.get());
  XVM_CHECK(mgr.AddView(std::move(def), strategy).ok());
  auto out = mgr.ApplyAndPropagateAll(stmt);
  XVM_CHECK(out.ok());
  UpdateOutcome o = std::move(out->per_view[0]);
  o.timing.Merge(out->shared_timing);
  return o;
}

UpdateOutcome RunRecompute(const std::string& view_name, size_t bytes,
                           const UpdateStmt& stmt, uint64_t seed) {
  Workbench wb = MakeXMark(bytes, seed);
  auto def = XMarkView(view_name);
  XVM_CHECK(def.ok());
  RecomputedView rv(std::move(def).value(), wb.store.get());
  rv.Initialize();
  auto out = rv.ApplyAndRecompute(wb.doc.get(), stmt);
  XVM_CHECK(out.ok());
  return std::move(out).value();
}

MultiUpdateOutcome RunManagerAll(size_t bytes, const UpdateStmt& stmt,
                                 size_t workers, uint64_t seed,
                                 MetricsRegistry* metrics) {
  Workbench wb = MakeXMark(bytes, seed);
  ViewManager mgr(wb.doc.get(), wb.store.get());
  mgr.set_workers(workers);
  mgr.set_metrics(metrics);
  for (const std::string& name : XMarkViewNames()) {
    auto def = XMarkView(name);
    XVM_CHECK(def.ok());
    XVM_CHECK(
        mgr.AddView(std::move(def).value(), LatticeStrategy::kSnowcaps).ok());
  }
  auto out = mgr.ApplyAndPropagateAll(stmt);
  XVM_CHECK(out.ok());
  return std::move(out).value();
}

void DumpMetricsJson(const MetricsRegistry& metrics) {
  std::string json = metrics.ToJson();
  const char* path = std::getenv("XVM_METRICS_JSON");
  if (path != nullptr && *path != '\0') {
    std::FILE* f = std::fopen(path, "w");
    if (f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("\n[metrics json written to %s]\n", path);
      return;
    }
    std::printf("\n[could not open %s; dumping to stdout]\n", path);
  }
  std::printf("\n-- metrics json --\n%s\n", json.c_str());
}

void PrintBanner(const std::string& figure, const std::string& description) {
  std::printf("\n==== %s ====\n%s\n", figure.c_str(), description.c_str());
  std::printf("(scale=%.3g, reps=%d; XVM_SCALE=1 for the paper's sizes)\n\n",
              Scale(), Reps());
}

void PrintPhaseHeader() {
  std::printf("%-22s %12s %12s %12s %12s %12s %12s\n", "case",
              "find_tgt_ms", "deltas_ms", "get_expr_ms", "exec_upd_ms",
              "upd_latt_ms", "total_ms");
}

void PrintPhaseRow(const std::string& label, const PhaseTimer& timing) {
  std::printf("%-22s %12.3f %12.3f %12.3f %12.3f %12.3f %12.3f\n",
              label.c_str(), timing.Get(phase::kFindTargets),
              timing.Get(phase::kComputeDeltas),
              timing.Get(phase::kGetExpression),
              timing.Get(phase::kExecuteUpdate),
              timing.Get(phase::kUpdateLattice), timing.TotalMs());
}

void PrintKv(const std::string& key, double value_ms) {
  std::printf("%-40s %12.3f ms\n", key.c_str(), value_ms);
}

}  // namespace xvm::bench
