#include "ids/dewey.h"

#include <algorithm>

#include "common/status.h"
#include "common/varint.h"

namespace xvm {

DeweyId DeweyId::Root(LabelId label) {
  return DeweyId({DeweyStep{label, OrdKey::First()}});
}

DeweyId DeweyId::Child(LabelId label, OrdKey ord) const {
  std::vector<DeweyStep> steps = steps_;
  steps.push_back(DeweyStep{label, std::move(ord)});
  return DeweyId(std::move(steps));
}

LabelId DeweyId::label() const {
  XVM_CHECK(!steps_.empty());
  return steps_.back().label;
}

DeweyId DeweyId::Parent() const {
  XVM_CHECK(!steps_.empty());
  return DeweyId(
      std::vector<DeweyStep>(steps_.begin(), steps_.end() - 1));
}

DeweyId DeweyId::AncestorAtDepth(size_t d) const {
  XVM_CHECK(d >= 1 && d <= steps_.size());
  return DeweyId(std::vector<DeweyStep>(steps_.begin(), steps_.begin() + d));
}

bool DeweyId::IsParentOf(const DeweyId& other) const {
  return other.steps_.size() == steps_.size() + 1 && IsAncestorOf(other);
}

bool DeweyId::IsAncestorOf(const DeweyId& other) const {
  if (steps_.size() >= other.steps_.size()) return false;
  for (size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i] != other.steps_[i]) return false;
  }
  return true;
}

bool DeweyId::IsAncestorOrSelf(const DeweyId& other) const {
  return *this == other || IsAncestorOf(other);
}

bool DeweyId::HasAncestorLabeled(LabelId label) const {
  if (steps_.empty()) return false;
  for (size_t i = 0; i + 1 < steps_.size(); ++i) {
    if (steps_[i].label == label) return true;
  }
  return false;
}

bool DeweyId::HasAncestorOrSelfLabeled(LabelId label) const {
  for (const auto& s : steps_) {
    if (s.label == label) return true;
  }
  return false;
}

std::strong_ordering DeweyId::operator<=>(const DeweyId& other) const {
  // ComparePrefixes at full depth, spelled out: this is the hottest
  // comparison of the engine (sorts, joins, binary searches).
  const size_t n = std::min(steps_.size(), other.steps_.size());
  for (size_t i = 0; i < n; ++i) {
    // Sibling position decides order; two distinct siblings never share an
    // order key, and a shared (label, ord) prefix means a shared ancestor.
    auto c = steps_[i].ord <=> other.steps_[i].ord;
    if (c != std::strong_ordering::equal) return c;
    if (steps_[i].label != other.steps_[i].label) {
      return steps_[i].label <=> other.steps_[i].label;
    }
  }
  return steps_.size() <=> other.steps_.size();
}

std::strong_ordering DeweyId::ComparePrefixes(const DeweyId& a, size_t da,
                                              const DeweyId& b, size_t db) {
  da = std::min(da, a.steps_.size());
  db = std::min(db, b.steps_.size());
  const size_t n = std::min(da, db);
  for (size_t i = 0; i < n; ++i) {
    auto c = a.steps_[i].ord <=> b.steps_[i].ord;
    if (c != std::strong_ordering::equal) return c;
    if (a.steps_[i].label != b.steps_[i].label) {
      return a.steps_[i].label <=> b.steps_[i].label;
    }
  }
  return da <=> db;
}

std::string DeweyId::Encode() const {
  std::string out;
  PutVarint64(&out, steps_.size());
  for (const auto& s : steps_) {
    PutVarint64(&out, s.label);
    s.ord.EncodeTo(&out);
  }
  return out;
}

bool DeweyId::Decode(const std::string& data, DeweyId* id) {
  size_t pos = 0;
  uint64_t n = 0;
  if (!GetVarint64(data, &pos, &n)) return false;
  std::vector<DeweyStep> steps;
  steps.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t label = 0;
    if (!GetVarint64(data, &pos, &label)) return false;
    OrdKey ord;
    if (!OrdKey::DecodeFrom(data, &pos, &ord)) return false;
    steps.push_back(DeweyStep{static_cast<LabelId>(label), std::move(ord)});
  }
  if (pos != data.size()) return false;
  *id = DeweyId(std::move(steps));
  return true;
}

std::string DeweyId::ToString() const {
  std::string out;
  for (size_t i = 0; i < steps_.size(); ++i) {
    if (i > 0) out.push_back('.');
    out += "L" + std::to_string(steps_[i].label) + "[" +
           steps_[i].ord.ToString() + "]";
  }
  return out;
}

std::vector<DeweyId> PathNavigateToParents(const std::vector<DeweyId>& ids) {
  std::vector<DeweyId> parents;
  parents.reserve(ids.size());
  for (const auto& id : ids) {
    if (id.depth() > 1) parents.push_back(id.Parent());
  }
  std::sort(parents.begin(), parents.end());
  parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
  return parents;
}

}  // namespace xvm
