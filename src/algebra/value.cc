#include "algebra/value.h"

#include "common/status.h"
#include "common/varint.h"

namespace xvm {

const DeweyId& Value::id() const {
  XVM_CHECK(kind_ == ValueKind::kId);
  return id_;
}

const std::string& Value::str() const {
  XVM_CHECK(kind_ == ValueKind::kString);
  return str_;
}

std::strong_ordering Value::operator<=>(const Value& other) const {
  if (kind_ != other.kind_) {
    return static_cast<uint8_t>(kind_) <=> static_cast<uint8_t>(other.kind_);
  }
  switch (kind_) {
    case ValueKind::kNull: return std::strong_ordering::equal;
    case ValueKind::kId: return id_ <=> other.id_;
    case ValueKind::kString: return str_ <=> other.str_;
  }
  return std::strong_ordering::equal;
}

bool Value::operator==(const Value& other) const {
  return (*this <=> other) == std::strong_ordering::equal;
}

void Value::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(kind_));
  switch (kind_) {
    case ValueKind::kNull:
      break;
    case ValueKind::kId: {
      std::string enc = id_.Encode();
      PutVarint64(out, enc.size());
      out->append(enc);
      break;
    }
    case ValueKind::kString:
      PutVarint64(out, str_.size());
      out->append(str_);
      break;
  }
}

bool Value::DecodeFrom(const std::string& data, size_t* pos, Value* out) {
  if (*pos >= data.size()) return false;
  auto kind = static_cast<ValueKind>(data[(*pos)++]);
  switch (kind) {
    case ValueKind::kNull:
      *out = Value();
      return true;
    case ValueKind::kId: {
      uint64_t len = 0;
      if (!GetVarint64(data, pos, &len)) return false;
      // Compare against the remaining bytes: `*pos + len` wraps for crafted
      // lengths near UINT64_MAX and would pass the check.
      if (len > data.size() - *pos) return false;
      DeweyId id;
      if (!DeweyId::Decode(data.substr(*pos, len), &id)) return false;
      *pos += len;
      *out = Value(std::move(id));
      return true;
    }
    case ValueKind::kString: {
      uint64_t len = 0;
      if (!GetVarint64(data, pos, &len)) return false;
      if (len > data.size() - *pos) return false;  // overflow-safe bound
      *out = Value(data.substr(*pos, len));
      *pos += len;
      return true;
    }
  }
  return false;  // unknown tag
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kNull: return "null";
    case ValueKind::kId: return id_.ToString();
    case ValueKind::kString: return "\"" + str_ + "\"";
  }
  return "?";
}

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Schema Schema::Concat(const Schema& a, const Schema& b) {
  std::vector<Column> cols = a.cols();
  for (const auto& c : b.cols()) cols.push_back(c);
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (i > 0) out += ", ";
    out += cols_[i].name;
  }
  out += ")";
  return out;
}

std::string EncodeTuple(const Tuple& t) {
  std::string out;
  for (const auto& v : t) v.EncodeTo(&out);
  return out;
}

std::string EncodeTupleCols(const Tuple& t, const std::vector<int>& cols) {
  std::string out;
  for (int c : cols) t[static_cast<size_t>(c)].EncodeTo(&out);
  return out;
}

}  // namespace xvm
