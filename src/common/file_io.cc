#include "common/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/varint.h"

namespace xvm {

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// Closes the wrapped fd on scope exit unless released; keeps the early
/// returns of the fault-injected write paths leak-free.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

std::string DirnameOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status WriteFully(int fd, const char* data, size_t n, const std::string& path) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoMessage("write to", path));
    }
    done += static_cast<size_t>(w);
  }
  return Status::Ok();
}

uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

void AppendChecksum64(std::string* frame) {
  const uint64_t sum = Fnv1a64(frame->data(), frame->size());
  for (int i = 0; i < 8; ++i) {
    frame->push_back(static_cast<char>((sum >> (8 * i)) & 0xFF));
  }
}

bool VerifyChecksum64(const std::string& data) {
  if (data.size() < 8) return false;
  const size_t payload = data.size() - 8;
  uint64_t stored = 0;
  for (size_t i = 0; i < 8; ++i) {
    stored |= static_cast<uint64_t>(
                  static_cast<unsigned char>(data[payload + i]))
              << (8 * i);
  }
  return Fnv1a64(data.data(), payload) == stored;
}

void PutLengthPrefixed(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

bool GetLengthPrefixed(const std::string& data, size_t* pos, std::string* out) {
  uint64_t len = 0;
  if (!GetVarint64(data, pos, &len)) return false;
  // *pos <= data.size() after a successful varint decode, so the subtraction
  // cannot wrap — unlike `*pos + len`, which does for crafted huge lengths.
  if (len > data.size() - *pos) return false;
  *out = data.substr(*pos, len);
  *pos += len;
  return true;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status EnsureDir(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    if (S_ISDIR(st.st_mode)) return Status::Ok();
    return Status::FailedPrecondition(path + " exists and is not a directory");
  }
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(ErrnoMessage("cannot create directory", path));
  }
  return Status::Ok();
}

StatusOr<std::vector<std::string>> ListDir(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    return Status::Internal(ErrnoMessage("cannot open directory", path));
  }
  std::vector<std::string> names;
  while (struct dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(dir);
  return names;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal(ErrnoMessage("cannot remove", path));
  }
  return Status::Ok();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("cannot open " + path);
    return Status::Internal(ErrnoMessage("cannot open", path));
  }
  FdCloser closer(fd);
  out->clear();
  char buf[1 << 16];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoMessage("read from", path));
    }
    if (r == 0) break;
    out->append(buf, static_cast<size_t>(r));
  }
  return Status::Ok();
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::Internal(ErrnoMessage("cannot open dir", dir));
  FdCloser closer(fd);
  if (::fsync(fd) != 0) {
    return Status::Internal(ErrnoMessage("fsync of dir", dir));
  }
  return Status::Ok();
}

namespace {

/// Runs the fault-instrumented body of AtomicWriteFile against an already
/// open temp fd; a failure leaves cleanup to the caller.
Status AtomicWriteBody(int fd, const std::string& tmp, const std::string& path,
                       const std::string& bytes) {
  XVM_FAULT_POINT("atomic_write:after_open");
  // Two-halves write so a crash at the interior point produces a genuinely
  // torn temp file, the state the recovery tests must survive.
  const size_t half = bytes.size() / 2;
  XVM_RETURN_IF_ERROR(WriteFully(fd, bytes.data(), half, tmp));
  XVM_FAULT_POINT("atomic_write:partial");
  XVM_RETURN_IF_ERROR(
      WriteFully(fd, bytes.data() + half, bytes.size() - half, tmp));
  XVM_FAULT_POINT("atomic_write:before_fsync");
  if (::fsync(fd) != 0) return Status::Internal(ErrnoMessage("fsync of", tmp));
  XVM_FAULT_POINT("atomic_write:before_rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal(ErrnoMessage("rename to", path));
  }
  XVM_FAULT_POINT("atomic_write:before_dir_fsync");
  return FsyncDir(DirnameOf(path));
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::Internal(ErrnoMessage("cannot open", tmp));
  Status st;
  {
    FdCloser closer(fd);
    st = AtomicWriteBody(fd, tmp, path, bytes);
  }
  if (!st.ok()) {
    // The destination is untouched (the rename either never ran or failed
    // without replacing it); drop the torn temp file.
    XVM_RETURN_IF_ERROR(RemoveFileIfExists(tmp));
  }
  return st;
}

namespace fault {

namespace {

/// Process-global injection state. Touched only by the coordinator thread
/// that drives checkpoints (ViewManager methods are externally
/// synchronized) and by tests before they fork, so plain members suffice.
struct FaultState {
  bool env_checked = false;
  bool armed = false;
  std::string point;
  int countdown = 0;
  Mode mode = Mode::kCrash;
  bool tracing = false;
  std::vector<std::string> trace;
};

FaultState& State() {
  static FaultState* state = new FaultState();
  return *state;
}

/// One-line rendering of the registry for the fail-loudly diagnostics.
std::string RegistryListing() {
  std::string out;
  for (const std::string& p : RegisteredPoints()) {
    out += "  ";
    out += p;
    out += "\n";
  }
  return out;
}

/// Environment arming, for out-of-process crash runs:
///   XVM_FAULT_POINT=<point>[:<countdown>[:error]]
void MaybeArmFromEnv() {
  FaultState& s = State();
  if (s.env_checked) return;
  s.env_checked = true;
  const char* spec = std::getenv("XVM_FAULT_POINT");
  if (spec == nullptr || *spec == '\0') return;
  // Point names themselves contain a colon ("atomic_write:before_rename"),
  // so the optional [:<countdown>[:error]] suffixes are parsed from the
  // *end*: a trailing ":error" token, then a trailing all-digit token.
  std::string point = spec;
  int countdown = 1;
  Mode mode = Mode::kCrash;
  size_t colon = point.find_last_of(':');
  if (colon != std::string::npos && point.substr(colon + 1) == "error") {
    mode = Mode::kError;
    point.resize(colon);
  }
  colon = point.find_last_of(':');
  if (colon != std::string::npos) {
    const std::string tok = point.substr(colon + 1);
    if (!tok.empty() &&
        tok.find_first_not_of("0123456789") == std::string::npos) {
      countdown = std::atoi(tok.c_str());
      point.resize(colon);
    }
  }
  if (countdown < 1) countdown = 1;
  if (!IsRegisteredPoint(point)) {
    // A typo'd XVM_FAULT_POINT would otherwise arm nothing: the fault run
    // executes the happy path and the test passes without injecting
    // anything. Die with a dedicated exit code instead.
    std::fprintf(stderr,
                 "XVM_FAULT_POINT names unknown fault point '%s'; "
                 "registered points:\n%s",
                 point.c_str(), RegistryListing().c_str());
    ::_exit(kUnknownPointExitCode);
  }
  s.armed = true;
  s.point = point;
  s.countdown = countdown;
  s.mode = mode;
}

}  // namespace

const std::vector<std::string>& RegisteredPoints() {
  // Every XVM_FAULT_POINT site compiled into the binary, sorted. Kept in
  // sync by tests/common_test.cc (FaultRegistry.TraceNamesAreRegistered)
  // and the crash-matrix trace, which only ever observe registered names.
  static const std::vector<std::string>* points = new std::vector<std::string>{
      "atomic_write:after_open",
      "atomic_write:before_dir_fsync",
      "atomic_write:before_fsync",
      "atomic_write:before_rename",
      "atomic_write:partial",
      "checkpoint:before_manifest",
      "checkpoint:before_wal_truncate",
      "checkpoint:begin",
      "wal:append_before_fsync",
      "wal:append_partial",
      "wal:reset_before_fsync",
      "wal:reset_before_truncate",
  };
  return *points;
}

bool IsRegisteredPoint(const std::string& point) {
  for (const std::string& p : RegisteredPoints()) {
    if (p == point) return true;
  }
  return false;
}

Status ArmChecked(const std::string& point, int countdown, Mode mode) {
  if (!IsRegisteredPoint(point)) {
    return Status::InvalidArgument("unknown fault point '" + point +
                                   "'; registered points:\n" +
                                   RegistryListing());
  }
  Arm(point, countdown, mode);
  return Status::Ok();
}

void Arm(const std::string& point, int countdown, Mode mode) {
  if (!IsRegisteredPoint(point)) {
    std::fprintf(stderr,
                 "fault::Arm: unknown fault point '%s'; registered "
                 "points:\n%s",
                 point.c_str(), RegistryListing().c_str());
    ::_exit(kUnknownPointExitCode);
  }
  FaultState& s = State();
  s.env_checked = true;  // programmatic arming overrides the environment
  s.armed = true;
  s.point = point;
  s.countdown = countdown < 1 ? 1 : countdown;
  s.mode = mode;
}

void Disarm() {
  FaultState& s = State();
  s.armed = false;
  s.env_checked = true;
}

void ResetForTesting() {
  FaultState& s = State();
  s.armed = false;
  s.env_checked = false;
}

void StartTrace() {
  FaultState& s = State();
  s.tracing = true;
  s.trace.clear();
}

std::vector<std::string> StopTrace() {
  FaultState& s = State();
  s.tracing = false;
  return std::move(s.trace);
}

bool HitAndShouldFail(const char* point) {
  MaybeArmFromEnv();
  FaultState& s = State();
  if (s.tracing) s.trace.emplace_back(point);
  if (!s.armed || s.point != point) return false;
  if (--s.countdown > 0) return false;
  s.armed = false;
  if (s.mode == Mode::kError) return true;
  // Crash mode: die like a power cut — no destructors, no stream flushes,
  // no atexit hooks. Anything not already fsynced is at the OS's mercy.
  ::_exit(kCrashExitCode);
}

}  // namespace fault

}  // namespace xvm
