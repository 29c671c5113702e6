#include "view/snapshot.h"

#include <utility>

#include "common/status.h"
#include "common/strings.h"

namespace xvm {

namespace {

bool IsContColumn(const Column& col) {
  constexpr std::string_view kSuffix = ".cont";
  return col.name.size() >= kSuffix.size() &&
         std::string_view(col.name).substr(col.name.size() - kSuffix.size()) ==
             kSuffix;
}

}  // namespace

ViewSnapshot::ViewSnapshot(std::string view_name, Schema schema,
                           std::vector<int> id_cols,
                           std::shared_ptr<const ViewContent> content,
                           uint64_t generation, uint64_t source_version)
    : view_name_(std::move(view_name)),
      schema_(std::move(schema)),
      id_cols_(std::move(id_cols)),
      generation_(generation),
      source_version_(source_version),
      content_(std::move(content)) {
  XVM_CHECK(content_ != nullptr);
}

ViewSnapshot::ViewSnapshot(const ViewSnapshot& other, uint64_t generation)
    : view_name_(other.view_name_),
      schema_(other.schema_),
      id_cols_(other.id_cols_),
      generation_(generation),
      source_version_(other.source_version_),
      content_(other.content_) {}

ViewSnapshotPtr ViewSnapshot::Restamped(uint64_t generation) const {
  return ViewSnapshotPtr(new ViewSnapshot(*this, generation));
}

std::string ViewSnapshot::IdKeyOf(const Tuple& tuple) const {
  return EncodeTupleCols(tuple, id_cols_);
}

std::string ViewSnapshot::ToXml() const {
  std::string out;
  out += "<view name=\"";
  out += XmlEscape(view_name_);
  out += "\" generation=\"";
  out += std::to_string(generation_);
  out += "\">";
  for (const CountedTuple& ct : *content_) {
    out += "<t";
    if (ct.count != 1) {
      out += " count=\"";
      out += std::to_string(ct.count);
      out += "\"";
    }
    out += ">";
    for (size_t i = 0; i < schema_.size(); ++i) {
      const Column& col = schema_.col(i);
      out += "<c n=\"";
      out += XmlEscape(col.name);
      out += "\">";
      const Value& v = ct.tuple[i];
      if (IsContColumn(col) && v.kind() == ValueKind::kString) {
        // Stored cont payloads are serialized XML subtrees already; embed
        // them as markup rather than re-escaping.
        out += v.str();
      } else if (v.kind() == ValueKind::kString) {
        out += XmlEscape(v.str());
      } else {
        out += XmlEscape(v.ToString());
      }
      out += "</c>";
    }
    out += "</t>";
  }
  out += "</view>";
  return out;
}

const ViewSnapshot* SnapshotSet::Find(const std::string& name) const {
  for (const auto& v : views) {
    if (v && v->view_name() == name) return v.get();
  }
  return nullptr;
}

SnapshotPublisher::SnapshotPublisher()
    : current_(std::make_shared<SnapshotSet>()) {}

SnapshotSetPtr SnapshotPublisher::Acquire() const {
  // Sample the in-flight LSN *before* acquiring: the snapshot copied below
  // is at least as new as anything published at the sample point, so the
  // staleness charged to this read is a true property of the returned data
  // (≤ 1 between publishes), not of how long the reader was descheduled
  // after the copy.
  const uint64_t latest = latest_seq_.load();
  SnapshotSetPtr set;
  {
    ReaderMutexLock lock(mu_);
    set = current_;
  }
  CountRead(latest, set->generation);
  return set;
}

ViewSnapshotPtr SnapshotPublisher::AcquireView(size_t i) const {
  const uint64_t latest = latest_seq_.load();  // before the copy; see Acquire
  SnapshotSetPtr set;
  {
    ReaderMutexLock lock(mu_);
    set = current_;
  }
  if (i >= set->views.size()) return nullptr;
  ViewSnapshotPtr view = set->views[i];
  // An unchanged view may carry an older stamp; the set's generation is
  // what the read is current to.
  if (view != nullptr) CountRead(latest, set->generation);
  return view;
}

SnapshotSetPtr SnapshotPublisher::Peek() const {
  ReaderMutexLock lock(mu_);
  return current_;
}

void SnapshotPublisher::BeginStatement(uint64_t seq) {
  uint64_t prev = latest_seq_.load();
  if (seq > prev) latest_seq_.store(seq);
}

void SnapshotPublisher::Publish(SnapshotSetPtr next) {
  XVM_CHECK(next != nullptr);
  {
    WriterMutexLock lock(mu_);
    current_ = std::move(next);
  }
  publications_.fetch_add(1);
}

ServingStats SnapshotPublisher::stats() const {
  ServingStats s;
  s.reads = reads_.load();
  s.staleness_sum = staleness_sum_.load();
  s.staleness_max = staleness_max_.load();
  s.publications = publications_.load();
  return s;
}

void SnapshotPublisher::CountRead(uint64_t latest,
                                  uint64_t snapshot_generation) const {
  reads_.fetch_add(1);
  uint64_t staleness =
      latest > snapshot_generation ? latest - snapshot_generation : 0;
  if (staleness == 0) return;
  staleness_sum_.fetch_add(staleness);
  uint64_t seen = staleness_max_.load();
  while (staleness > seen &&
         !staleness_max_.compare_exchange_weak(seen, staleness)) {
  }
}

}  // namespace xvm
