#include "view/persist.h"

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "common/file_io.h"
#include "common/varint.h"
#include "pattern/compile.h"

namespace xvm {

namespace {

constexpr char kMagic[] = "XVM2";
/// Bumped with any layout change; readers reject unknown versions instead of
/// misparsing them.
constexpr uint64_t kFormatVersion = 2;
constexpr size_t kChecksumBytes = 8;

constexpr char kDocMagic[] = "XVMD";
constexpr uint64_t kDocFormatVersion = 1;

void PutTuple(std::string* out, const Tuple& t) {
  PutVarint64(out, t.size());
  for (const Value& v : t) v.EncodeTo(out);
}

bool GetTuple(const std::string& data, size_t* pos, Tuple* t) {
  uint64_t n = 0;
  if (!GetVarint64(data, pos, &n)) return false;
  // Every encoded Value takes at least one byte, so a count exceeding the
  // remaining payload is a lie; checking (and bounding the reserve) before
  // allocating defuses crafted counts near UINT64_MAX.
  if (n > data.size() - *pos) return false;
  t->clear();
  t->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    if (!Value::DecodeFrom(data, pos, &v)) return false;
    t->push_back(std::move(v));
  }
  return true;
}

}  // namespace

std::string SaveViewToBytes(const MaintainedView& view) {
  std::string out;
  out.append(kMagic);
  PutVarint64(&out, kFormatVersion);
  PutLengthPrefixed(&out, view.def().name());
  PutLengthPrefixed(&out, view.def().pattern().ToString());

  // View content, in canonical order: one walk over the chunks.
  const ViewContent& content = view.view().content();
  PutVarint64(&out, content.size());
  for (const CountedTuple& ct : content) {
    PutVarint64(&out, static_cast<uint64_t>(ct.count));
    PutTuple(&out, ct.tuple);
  }

  // Snowcap relations.
  const auto& snowcaps = view.lattice().snowcaps();
  PutVarint64(&out, snowcaps.size());
  for (const auto& sc : snowcaps) {
    PutVarint64(&out, sc.nodes.size());
    for (bool b : sc.nodes) out.push_back(b ? 1 : 0);
    PutVarint64(&out, sc.data.rows.size());
    for (const auto& row : sc.data.rows) PutTuple(&out, row);
  }

  AppendChecksum64(&out);
  return out;
}

Status LoadViewFromBytes(const std::string& bytes, MaintainedView* view) {
  size_t pos = 0;
  if (bytes.substr(0, 4) != kMagic) {
    return Status::InvalidArgument("bad magic: not a saved xvm view");
  }
  pos = 4;
  // Verify the content checksum before parsing anything: truncation and
  // bit flips anywhere in the file (including inside varints, which would
  // otherwise misparse "plausibly") are rejected up front.
  if (bytes.size() < pos + kChecksumBytes) {
    return Status::InvalidArgument("truncated view file: missing checksum");
  }
  if (!VerifyChecksum64(bytes)) {
    return Status::InvalidArgument(
        "view file checksum mismatch: truncated or corrupted");
  }
  const size_t payload_end = bytes.size() - kChecksumBytes;
  uint64_t version = 0;
  if (!GetVarint64(bytes, &pos, &version)) {
    return Status::InvalidArgument("truncated view header");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported view format version " +
                                   std::to_string(version));
  }
  std::string name, pattern_dsl;
  if (!GetLengthPrefixed(bytes, &pos, &name) ||
      !GetLengthPrefixed(bytes, &pos, &pattern_dsl)) {
    return Status::InvalidArgument("truncated view header");
  }
  if (name != view->def().name()) {
    return Status::FailedPrecondition("saved view is named '" + name +
                                      "', target is '" + view->def().name() +
                                      "'");
  }
  if (pattern_dsl != view->def().pattern().ToString()) {
    return Status::FailedPrecondition(
        "saved view pattern " + pattern_dsl + " does not match target " +
        view->def().pattern().ToString());
  }

  uint64_t tuple_count = 0;
  if (!GetVarint64(bytes, &pos, &tuple_count)) {
    return Status::InvalidArgument("truncated tuple count");
  }
  // Each counted tuple occupies at least one byte of payload; a larger
  // count cannot be honest, and reserving it would be an allocation bomb.
  if (tuple_count > bytes.size() - pos) {
    return Status::InvalidArgument("implausible view tuple count");
  }
  std::vector<CountedTuple> content;
  content.reserve(tuple_count);
  const MaterializedView& target = view->view();
  const Schema& schema = target.schema();
  for (uint64_t i = 0; i < tuple_count; ++i) {
    uint64_t count = 0;
    CountedTuple ct;
    if (!GetVarint64(bytes, &pos, &count) ||
        !GetTuple(bytes, &pos, &ct.tuple)) {
      return Status::InvalidArgument("truncated view tuple");
    }
    if (ct.tuple.size() != schema.size()) {
      return Status::InvalidArgument("saved tuple width mismatch");
    }
    for (size_t c = 0; c < schema.size(); ++c) {
      if (ct.tuple[c].kind() != schema.col(c).kind) {
        return Status::InvalidArgument("saved tuple column kind mismatch");
      }
    }
    // Saved in canonical order, which is ID order, and the ID projection
    // identifies a tuple: a row not above its predecessor is a crafted or
    // corrupt file, and the bulk load below must not merge it silently.
    if (!content.empty() && !target.IdLess(content.back().tuple, ct.tuple)) {
      return Status::InvalidArgument(
          "saved view rows out of ID order or repeating an ID key at row " +
          std::to_string(i));
    }
    // A tuple lives in the view while its derivation count is positive
    // (MaterializedView invariant): zero would be a phantom tuple and
    // anything ≥ 2^63 would turn negative in the cast below.
    if (count == 0 ||
        count > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      return Status::InvalidArgument("saved derivation count out of range");
    }
    ct.count = static_cast<int64_t>(count);
    content.push_back(std::move(ct));
  }

  uint64_t snowcap_count = 0;
  if (!GetVarint64(bytes, &pos, &snowcap_count)) {
    return Status::InvalidArgument("truncated snowcap count");
  }
  auto& snowcaps = view->mutable_lattice().snowcaps();
  if (snowcap_count != snowcaps.size()) {
    return Status::FailedPrecondition(
        "saved lattice has " + std::to_string(snowcap_count) +
        " snowcap(s), target has " + std::to_string(snowcaps.size()));
  }
  std::vector<Relation> loaded(snowcap_count);
  for (uint64_t s = 0; s < snowcap_count; ++s) {
    uint64_t bits = 0;
    if (!GetVarint64(bytes, &pos, &bits)) {
      return Status::InvalidArgument("truncated snowcap node set");
    }
    if (bits > bytes.size() - pos) {  // one byte per bit below
      return Status::InvalidArgument("implausible snowcap node set size");
    }
    NodeSet nodes(bits, false);
    for (uint64_t b = 0; b < bits; ++b) {
      if (pos >= bytes.size()) {
        return Status::InvalidArgument("truncated snowcap node set");
      }
      nodes[b] = bytes[pos++] != 0;
    }
    if (nodes != snowcaps[s].nodes) {
      return Status::FailedPrecondition(
          "saved snowcap node sets do not match the target lattice");
    }
    uint64_t rows = 0;
    if (!GetVarint64(bytes, &pos, &rows)) {
      return Status::InvalidArgument("truncated snowcap rows");
    }
    if (rows > bytes.size() - pos) {  // each row is at least one byte
      return Status::InvalidArgument("implausible snowcap row count");
    }
    loaded[s].schema = snowcaps[s].layout.schema;
    loaded[s].rows.reserve(rows);
    // Term plans trust the snowcap's declared order, so a file whose rows
    // break it (or repeat a binding) must not load.
    const std::vector<int> order = BindingOrder(snowcaps[s].layout);
    for (uint64_t r = 0; r < rows; ++r) {
      Tuple t;
      if (!GetTuple(bytes, &pos, &t)) {
        return Status::InvalidArgument("truncated snowcap tuple");
      }
      if (t.size() != loaded[s].schema.size()) {
        return Status::InvalidArgument("saved snowcap tuple width mismatch");
      }
      if (r > 0 && !RowLess(loaded[s].rows.back(), t, order)) {
        return Status::InvalidArgument(
            "saved snowcap rows out of declared order at row " +
            std::to_string(r));
      }
      loaded[s].rows.push_back(std::move(t));
    }
  }
  if (pos != payload_end) {
    return Status::InvalidArgument("trailing bytes after saved view");
  }

  // All parsed: commit.
  view->mutable_view().Reset(std::move(content));
  for (uint64_t s = 0; s < snowcap_count; ++s) {
    snowcaps[s].data = std::move(loaded[s]);
  }
  return Status::Ok();
}

std::string SaveDocumentToBytes(const Document& doc) {
  std::string out;
  out.append(kDocMagic, 4);
  PutVarint64(&out, kDocFormatVersion);

  // Full label dictionary in id order — not just the labels of alive nodes.
  // Stored view tuples embed LabelIds inside their Dewey IDs, and those ids
  // are only reproducible if every interned label (including ones whose
  // nodes were all deleted) keeps its position.
  const LabelDict& dict = doc.dict();
  PutVarint64(&out, dict.size());
  for (LabelId l = 0; l < dict.size(); ++l) {
    PutLengthPrefixed(&out, dict.Name(l));
  }

  std::vector<NodeHandle> nodes = doc.AllNodes();
  std::unordered_map<NodeHandle, uint64_t> index;
  index.reserve(nodes.size());
  PutVarint64(&out, nodes.size());
  for (uint64_t i = 0; i < nodes.size(); ++i) {
    const Node& n = doc.node(nodes[i]);
    index[nodes[i]] = i;
    // 0 = root; otherwise 1 + the document-order index of the parent, which
    // always precedes its children in AllNodes().
    PutVarint64(&out, n.parent == kNullNode ? 0 : index.at(n.parent) + 1);
    out.push_back(static_cast<char>(n.kind));
    PutVarint64(&out, n.label);
    PutLengthPrefixed(&out, n.text);
    PutLengthPrefixed(&out, n.id.Encode());
  }

  AppendChecksum64(&out);
  return out;
}

Status LoadDocumentFromBytes(const std::string& bytes, Document* doc) {
  if (doc->arena_size() != 0 || doc->root() != kNullNode) {
    return Status::FailedPrecondition(
        "document restore requires an empty document");
  }
  size_t pos = 0;
  if (bytes.substr(0, 4) != kDocMagic) {
    return Status::InvalidArgument("bad magic: not a saved xvm document");
  }
  pos = 4;
  if (bytes.size() < pos + kChecksumBytes || !VerifyChecksum64(bytes)) {
    return Status::InvalidArgument(
        "document snapshot checksum mismatch: truncated or corrupted");
  }
  const size_t payload_end = bytes.size() - kChecksumBytes;
  uint64_t version = 0;
  if (!GetVarint64(bytes, &pos, &version)) {
    return Status::InvalidArgument("truncated document header");
  }
  if (version != kDocFormatVersion) {
    return Status::InvalidArgument("unsupported document format version " +
                                   std::to_string(version));
  }

  uint64_t dict_size = 0;
  if (!GetVarint64(bytes, &pos, &dict_size)) {
    return Status::InvalidArgument("truncated label dictionary");
  }
  if (dict_size > bytes.size() - pos) {
    return Status::InvalidArgument("implausible label dictionary size");
  }
  for (uint64_t l = 0; l < dict_size; ++l) {
    std::string name;
    if (!GetLengthPrefixed(bytes, &pos, &name)) {
      return Status::InvalidArgument("truncated label dictionary");
    }
    // A fresh dictionary starts with the same reserved entries the saved one
    // did, so interning in saved-id order reproduces each id exactly —
    // unless the target dictionary was already used, which we reject.
    if (doc->dict().Intern(name) != l) {
      return Status::FailedPrecondition(
          "label dictionary diverged while restoring '" + name +
          "': the target document must be freshly constructed");
    }
  }

  uint64_t node_count = 0;
  if (!GetVarint64(bytes, &pos, &node_count)) {
    return Status::InvalidArgument("truncated node count");
  }
  if (node_count > bytes.size() - pos) {  // each node is ≥ 5 bytes
    return Status::InvalidArgument("implausible node count");
  }
  std::vector<NodeHandle> handles;
  handles.reserve(node_count);
  DeweyId prev_id;
  for (uint64_t i = 0; i < node_count; ++i) {
    uint64_t parent_ref = 0;
    if (!GetVarint64(bytes, &pos, &parent_ref)) {
      return Status::InvalidArgument("truncated node record");
    }
    if (pos >= payload_end) {
      return Status::InvalidArgument("truncated node record");
    }
    const uint8_t kind_byte = static_cast<uint8_t>(bytes[pos++]);
    if (kind_byte > static_cast<uint8_t>(NodeKind::kText)) {
      return Status::InvalidArgument("unknown node kind " +
                                     std::to_string(kind_byte));
    }
    uint64_t label = 0;
    std::string text, id_bytes;
    if (!GetVarint64(bytes, &pos, &label) ||
        !GetLengthPrefixed(bytes, &pos, &text) ||
        !GetLengthPrefixed(bytes, &pos, &id_bytes)) {
      return Status::InvalidArgument("truncated node record");
    }
    if (label >= dict_size) {
      return Status::InvalidArgument("node label out of dictionary range");
    }
    DeweyId id;
    if (!DeweyId::Decode(id_bytes, &id) || id.empty()) {
      return Status::InvalidArgument("undecodable node ID");
    }
    if (id.label() != label) {
      return Status::InvalidArgument("node ID label disagrees with record");
    }
    if (i > 0 && !(prev_id < id)) {
      return Status::InvalidArgument("node IDs out of document order");
    }
    NodeHandle parent = kNullNode;
    if (parent_ref == 0) {
      if (i != 0) {
        return Status::InvalidArgument("second root in document snapshot");
      }
      if (id.depth() != 1) {
        return Status::InvalidArgument("root node ID has depth != 1");
      }
    } else {
      if (parent_ref > i) {
        return Status::InvalidArgument("node parent reference out of range");
      }
      parent = handles[parent_ref - 1];
      if (!doc->node(parent).id.IsParentOf(id)) {
        return Status::InvalidArgument("node ID disagrees with its parent");
      }
    }
    handles.push_back(doc->RestoreNode(parent,
                                       static_cast<NodeKind>(kind_byte),
                                       static_cast<LabelId>(label), text, id));
    prev_id = std::move(id);
  }
  if (pos != payload_end) {
    return Status::InvalidArgument("trailing bytes after document snapshot");
  }
  return Status::Ok();
}

Status SaveViewToFile(const MaintainedView& view, const std::string& path) {
  return AtomicWriteFile(path, SaveViewToBytes(view));
}

Status LoadViewFromFile(const std::string& path, MaintainedView* view) {
  std::string bytes;
  XVM_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return LoadViewFromBytes(bytes, view);
}

}  // namespace xvm
