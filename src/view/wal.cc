#include "view/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/file_io.h"
#include "common/varint.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xvm {

namespace {

constexpr char kWalMagic[] = "XVWL";
constexpr uint64_t kWalFormatVersion = 1;
constexpr size_t kFrameChecksumBytes = 8;

std::string WalHeader() {
  std::string h;
  h.append(kWalMagic, 4);
  PutVarint64(&h, kWalFormatVersion);
  return h;
}

/// Serializes the statement's constant forest back to XML text: the forest
/// document's reserved root is a container whose children are the trees.
std::string ForestToXml(const Document& forest) {
  std::string out;
  for (NodeHandle c = forest.node(forest.root()).first_child; c != kNullNode;
       c = forest.node(c).next_sibling) {
    out += SerializeSubtree(forest, c);
  }
  return out;
}

/// Parses records from `bytes` after the header; stops at the first torn or
/// corrupt frame and reports the offset where the valid prefix ends.
Status ScanRecords(const std::string& bytes, std::vector<WalRecord>* records,
                   uint64_t* valid_end, uint64_t* last_lsn) {
  size_t pos = WalHeader().size();
  *valid_end = pos;
  *last_lsn = 0;
  while (pos < bytes.size()) {
    size_t frame_start = pos;
    uint64_t body_len = 0;
    if (!GetVarint64(bytes, &pos, &body_len)) break;
    if (body_len > bytes.size() - pos ||
        kFrameChecksumBytes > bytes.size() - pos - body_len) {
      break;  // torn tail
    }
    const std::string body = bytes.substr(pos, body_len);
    std::string framed = body;
    framed.append(bytes, pos + body_len, kFrameChecksumBytes);
    if (!VerifyChecksum64(framed)) break;
    size_t body_pos = 0;
    WalRecord rec;
    if (!GetVarint64(body, &body_pos, &rec.lsn)) break;
    Status st = DecodeUpdateStmt(body, &body_pos, &rec.stmt);
    if (!st.ok() || body_pos != body.size()) {
      // A checksummed frame that does not decode is not a torn tail — it is
      // a format bug or foreign data; fail loudly instead of dropping it.
      return Status::InvalidArgument(
          "WAL record at offset " + std::to_string(frame_start) +
          " has a valid checksum but does not decode" +
          (st.ok() ? "" : ": " + st.message()));
    }
    *last_lsn = rec.lsn;
    if (records != nullptr) records->push_back(std::move(rec));
    pos += body_len + kFrameChecksumBytes;
    *valid_end = pos;
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeUpdateStmt(const UpdateStmt& stmt) {
  std::string out;
  out.push_back(static_cast<char>(stmt.kind));
  PutLengthPrefixed(&out, stmt.target_path);
  PutLengthPrefixed(&out, stmt.source_path);
  PutLengthPrefixed(&out, stmt.name);
  out.push_back(stmt.forest != nullptr ? 1 : 0);
  if (stmt.forest != nullptr) {
    PutLengthPrefixed(&out, ForestToXml(*stmt.forest));
  }
  return out;
}

Status DecodeUpdateStmt(const std::string& data, size_t* pos,
                        UpdateStmt* stmt) {
  if (*pos >= data.size()) {
    return Status::InvalidArgument("truncated statement: missing kind");
  }
  const uint8_t kind = static_cast<uint8_t>(data[(*pos)++]);
  if (kind > static_cast<uint8_t>(UpdateStmt::Kind::kReplace)) {
    return Status::InvalidArgument("unknown statement kind " +
                                   std::to_string(kind));
  }
  UpdateStmt out;
  out.kind = static_cast<UpdateStmt::Kind>(kind);
  if (!GetLengthPrefixed(data, pos, &out.target_path) ||
      !GetLengthPrefixed(data, pos, &out.source_path) ||
      !GetLengthPrefixed(data, pos, &out.name)) {
    return Status::InvalidArgument("truncated statement paths");
  }
  if (*pos >= data.size()) {
    return Status::InvalidArgument("truncated statement: missing forest flag");
  }
  const char has_forest = data[(*pos)++];
  if (has_forest != 0) {
    std::string xml;
    if (!GetLengthPrefixed(data, pos, &xml)) {
      return Status::InvalidArgument("truncated statement forest");
    }
    out.forest = std::make_shared<Document>();
    XVM_RETURN_IF_ERROR(ParseForest(xml, out.forest.get()));
  }
  *stmt = std::move(out);
  return Status::Ok();
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status WriteAheadLog::OpenLog(const std::string& path) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string bytes;
  Status read = ReadFileToString(path, &bytes);
  if (!read.ok()) {
    ::close(fd);
    return read;
  }
  const std::string header = WalHeader();
  uint64_t valid_end = header.size();
  uint64_t lsn = 0;
  if (bytes.size() < header.size()) {
    // Empty file, or a header torn by a crash during creation (no record
    // can have been written yet): (re)write the header.
    if (::ftruncate(fd, 0) != 0 ||
        ::lseek(fd, 0, SEEK_SET) != 0) {
      ::close(fd);
      return Status::Internal("cannot reset " + path + ": " +
                              std::strerror(errno));
    }
    Status wrote = WriteFully(fd, header.data(), header.size(), path);
    if (wrote.ok() && ::fsync(fd) != 0) {
      wrote = Status::Internal("fsync of " + path + ": " +
                               std::strerror(errno));
    }
    if (!wrote.ok()) {
      ::close(fd);
      return wrote;
    }
  } else {
    if (bytes.compare(0, header.size(), header) != 0) {
      ::close(fd);
      return Status::InvalidArgument(path + " is not an xvm WAL");
    }
    std::vector<WalRecord> records;
    Status scanned = ScanRecords(bytes, &records, &valid_end, &lsn);
    if (!scanned.ok()) {
      ::close(fd);
      return scanned;
    }
    if (valid_end < bytes.size() &&
        ::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
      ::close(fd);
      return Status::Internal("cannot truncate torn tail of " + path + ": " +
                              std::strerror(errno));
    }
    if (::lseek(fd, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
      ::close(fd);
      return Status::Internal("cannot seek " + path + ": " +
                              std::strerror(errno));
    }
  }
  fd_ = fd;
  path_ = path;
  size_ = valid_end;
  last_lsn_ = lsn;
  return Status::Ok();
}

Status WriteAheadLog::Append(uint64_t lsn, const UpdateStmt& stmt) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL is not open");
  if (lsn <= last_lsn_) {
    return Status::FailedPrecondition(
        "WAL LSNs must increase: " + std::to_string(lsn) + " after " +
        std::to_string(last_lsn_));
  }
  std::string body;
  PutVarint64(&body, lsn);
  body += EncodeUpdateStmt(stmt);
  std::string frame;
  PutVarint64(&frame, body.size());
  frame += body;
  // Checksum covers the body only (the length prefix frames it).
  std::string sum = body;
  AppendChecksum64(&sum);
  frame.append(sum, body.size(), kFrameChecksumBytes);

  Status st = [&]() -> Status {
    const size_t half = frame.size() / 2;
    XVM_RETURN_IF_ERROR(WriteFully(fd_, frame.data(), half, path_));
    XVM_FAULT_POINT("wal:append_partial");
    XVM_RETURN_IF_ERROR(
        WriteFully(fd_, frame.data() + half, frame.size() - half, path_));
    XVM_FAULT_POINT("wal:append_before_fsync");
    if (::fsync(fd_) != 0) {
      return Status::Internal("fsync of " + path_ + ": " +
                              std::strerror(errno));
    }
    return Status::Ok();
  }();
  if (!st.ok()) {
    // Drop any partial frame so the file stays parseable for later appends;
    // ReadAll would stop at the torn frame anyway, but a successful later
    // append must not land after garbage.
    if (::ftruncate(fd_, static_cast<off_t>(size_)) == 0) {
      ::lseek(fd_, static_cast<off_t>(size_), SEEK_SET);
    }
    return st;
  }
  size_ += frame.size();
  last_lsn_ = lsn;
  return Status::Ok();
}

Status WriteAheadLog::Truncate() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL is not open");
  const uint64_t header_size = WalHeader().size();
  XVM_FAULT_POINT("wal:reset_before_truncate");
  if (::ftruncate(fd_, static_cast<off_t>(header_size)) != 0) {
    return Status::Internal("cannot truncate " + path_ + ": " +
                            std::strerror(errno));
  }
  if (::lseek(fd_, static_cast<off_t>(header_size), SEEK_SET) < 0) {
    return Status::Internal("cannot seek " + path_ + ": " +
                            std::strerror(errno));
  }
  XVM_FAULT_POINT("wal:reset_before_fsync");
  if (::fsync(fd_) != 0) {
    return Status::Internal("fsync of " + path_ + ": " + std::strerror(errno));
  }
  size_ = header_size;
  return Status::Ok();
}

StatusOr<std::vector<WalRecord>> WriteAheadLog::ReadAll() const {
  if (fd_ < 0) return Status::FailedPrecondition("WAL is not open");
  return ReadLog(path_);
}

StatusOr<std::vector<WalRecord>> WriteAheadLog::ReadLog(
    const std::string& path) {
  std::string bytes;
  Status read = ReadFileToString(path, &bytes);
  if (read.code() == StatusCode::kNotFound) {
    return std::vector<WalRecord>{};
  }
  XVM_RETURN_IF_ERROR(read);
  const std::string header = WalHeader();
  if (bytes.size() < header.size()) {
    return std::vector<WalRecord>{};  // torn header: nothing was ever logged
  }
  if (bytes.compare(0, header.size(), header) != 0) {
    return Status::InvalidArgument(path + " is not an xvm WAL");
  }
  std::vector<WalRecord> records;
  uint64_t valid_end = 0;
  uint64_t lsn = 0;
  XVM_RETURN_IF_ERROR(ScanRecords(bytes, &records, &valid_end, &lsn));
  return records;
}

}  // namespace xvm
