#ifndef XVM_ALGEBRA_VALUE_H_
#define XVM_ALGEBRA_VALUE_H_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "ids/dewey.h"

namespace xvm {

/// Runtime type of an algebra column. The enumerator values are the tags of
/// the persisted value encoding (EncodeTo); DecodeFrom rejects every other
/// tag.
enum class ValueKind : uint8_t {
  kNull = 0,
  kId = 1,      // a structural (Dewey) identifier
  kString = 2,  // val / cont payloads
};

/// A single algebra value. Small tagged union; IDs dominate the workload, so
/// the DeweyId member is stored inline.
class Value {
 public:
  Value() : kind_(ValueKind::kNull) {}
  explicit Value(DeweyId id) : kind_(ValueKind::kId), id_(std::move(id)) {}
  explicit Value(std::string s)
      : kind_(ValueKind::kString), str_(std::move(s)) {}

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }

  const DeweyId& id() const;
  const std::string& str() const;

  /// Total order: first by kind, then by payload (IDs in document order).
  std::strong_ordering operator<=>(const Value& other) const;
  bool operator==(const Value& other) const;

  /// Canonical byte encoding for hashing / grouping. DecodeFrom inverts it
  /// (used by view persistence).
  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(const std::string& data, size_t* pos, Value* out);

  std::string ToString() const;

 private:
  ValueKind kind_;
  DeweyId id_;
  std::string str_;
};

/// A row: one Value per schema column.
using Tuple = std::vector<Value>;

/// Column metadata. Names follow the "node.attribute" convention, e.g.
/// "paper.ID", "affiliation.cont" (see paper Figure 4).
struct Column {
  std::string name;
  ValueKind kind = ValueKind::kNull;

  bool operator==(const Column& other) const = default;
};

/// An ordered list of columns with name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> cols) : cols_(std::move(cols)) {}

  size_t size() const { return cols_.size(); }
  bool empty() const { return cols_.empty(); }
  const Column& col(size_t i) const { return cols_[i]; }
  const std::vector<Column>& cols() const { return cols_; }

  /// Index of column `name`, or -1 if absent.
  int IndexOf(const std::string& name) const;

  /// Appends a column; returns its index.
  size_t Add(Column c) {
    cols_.push_back(std::move(c));
    return cols_.size() - 1;
  }

  /// Concatenation of two schemas (for structural joins).
  static Schema Concat(const Schema& a, const Schema& b);

  bool operator==(const Schema& other) const = default;

  std::string ToString() const;

 private:
  std::vector<Column> cols_;
};

/// A materialized relation: schema plus rows. Operators at pipeline breaks
/// (sort, join, duplicate elimination) exchange these.
struct Relation {
  Schema schema;
  std::vector<Tuple> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
};

/// True iff row `a` sorts before row `b` lexicographically on the columns
/// `cols` (IDs in document order).
inline bool RowLess(const Tuple& a, const Tuple& b,
                    const std::vector<int>& cols) {
  for (int c : cols) {
    auto cmp = a[static_cast<size_t>(c)] <=> b[static_cast<size_t>(c)];
    if (cmp != std::strong_ordering::equal) {
      return cmp == std::strong_ordering::less;
    }
  }
  return false;
}

/// Canonical encoding of a whole tuple (grouping key).
std::string EncodeTuple(const Tuple& t);

/// Encoding of selected columns of a tuple.
std::string EncodeTupleCols(const Tuple& t, const std::vector<int>& cols);

}  // namespace xvm

#endif  // XVM_ALGEBRA_VALUE_H_
