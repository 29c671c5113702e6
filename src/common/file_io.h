#ifndef XVM_COMMON_FILE_IO_H_
#define XVM_COMMON_FILE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace xvm {

/// Crash-safe file primitives for the durability layer (view/persist.h,
/// view/wal.h, ViewManager::Checkpoint/Recover). The core guarantee is
/// AtomicWriteFile: after a process kill at *any* instruction, the
/// destination path holds either its complete previous content or its
/// complete new content — never a torn mixture and never nothing. Every
/// checkpoint artifact (view snapshots, document snapshots, the manifest)
/// goes through it.
///
/// All functions are POSIX-level (open/write/fsync/rename); std::ofstream
/// cannot express the fsync-file-then-fsync-directory sequence atomic
/// replacement needs.

/// FNV-1a 64-bit over `data[0, n)`. The checksum of every durable frame
/// (view files, document snapshots, WAL records, the manifest): truncated or
/// bit-flipped bytes fail loudly instead of parsing "plausibly".
uint64_t Fnv1a64(const char* data, size_t n);

/// Appends the FNV-1a-64 checksum of the current `frame` content as 8
/// little-endian trailing bytes.
void AppendChecksum64(std::string* frame);

/// Verifies an AppendChecksum64 trailer. Returns false when `data` is
/// shorter than the trailer or the checksum of the prefix does not match.
bool VerifyChecksum64(const std::string& data);

/// Length-prefixed string framing: varint byte count, then the raw bytes.
void PutLengthPrefixed(std::string* out, const std::string& s);

/// Decodes a PutLengthPrefixed string at `data[*pos]`, advancing `*pos`.
/// Returns false on truncation. The length is compared against the bytes
/// actually remaining (`data.size() - *pos`), never via `*pos + len`, which
/// wraps for crafted lengths near UINT64_MAX and would pass the check.
bool GetLengthPrefixed(const std::string& data, size_t* pos, std::string* out);

/// Writes all `n` bytes of `data` to `fd`, retrying short writes and EINTR.
/// Internal("write to <path>: <strerror>") on any other write error.
Status WriteFully(int fd, const char* data, size_t n, const std::string& path);

/// True iff `path` exists (any file type).
bool FileExists(const std::string& path);

/// Creates the (single-level) directory if absent. Existing directories are
/// fine; an existing non-directory is an error.
Status EnsureDir(const std::string& path);

/// Entry names (not paths) in `path`, excluding "." and "..".
StatusOr<std::vector<std::string>> ListDir(const std::string& path);

/// Unlinks `path`; absence is not an error.
Status RemoveFileIfExists(const std::string& path);

/// Reads the whole file. NotFound when the file does not exist.
Status ReadFileToString(const std::string& path, std::string* out);

/// Atomically replaces `path` with `bytes`: write to `path + ".tmp"`, fsync
/// the temp file, rename() it into place, fsync the parent directory so the
/// rename itself is durable. On any failure the destination is untouched and
/// the temp file is removed (best effort). Instrumented with the fault
/// points listed below.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

/// Fsyncs a directory so a completed rename/unlink inside it survives a
/// crash.
Status FsyncDir(const std::string& dir);

namespace fault {

/// Fault-injection harness for the durability paths. A *fault point* is a
/// named instruction boundary inside file_io / wal / checkpoint code
/// (XVM_FAULT_POINT below). Arming a point makes its N-th execution either
/// kill the process immediately (Mode::kCrash — simulating a power cut /
/// SIGKILL, no destructors, no buffer flushes) or fail the enclosing
/// operation with Status::Internal (Mode::kError — simulating a full disk or
/// I/O error while the process lives on).
///
/// Points in the checkpoint/WAL paths, in execution order:
///   atomic_write:after_open        temp file created, nothing written
///   atomic_write:partial           first half of the payload written (a
///                                  crash here leaves a torn temp file)
///   atomic_write:before_fsync      payload complete, not yet durable
///   atomic_write:before_rename     temp durable, destination still old
///   atomic_write:before_dir_fsync  renamed, directory entry not yet durable
///   wal:append_partial             half a WAL record appended (torn tail)
///   wal:append_before_fsync        record appended, not yet durable
///   wal:reset_before_truncate      checkpoint done, WAL not yet truncated
///   wal:reset_before_fsync         WAL truncated, truncation not yet durable
///   checkpoint:begin               before any checkpoint artifact is written
///   checkpoint:before_manifest     snapshots written, manifest still old
///   checkpoint:before_wal_truncate manifest committed, WAL still full
///
/// The state is process-global and intended for the single coordinator
/// thread that runs checkpoints (ViewManager's external-synchronization
/// contract); tests arm it programmatically before forking a child, or via
/// the environment for out-of-process runs:
///   XVM_FAULT_POINT=<point>[:<countdown>[:error]]
/// where <countdown> (default 1) selects the N-th execution and a trailing
/// ":error" selects Mode::kError instead of the default crash. A <point>
/// that is not in RegisteredPoints() aborts with kUnknownPointExitCode
/// after printing the registry — a typo'd name must not silently arm
/// nothing and let the fault run pass.

/// Exit code of a Mode::kCrash kill, distinguishable from test failures.
inline constexpr int kCrashExitCode = 86;

/// Exit code when XVM_FAULT_POINT names a point that is not in the registry
/// (a typo'd name would otherwise arm nothing and the fault test would
/// silently pass without injecting anything).
inline constexpr int kUnknownPointExitCode = 78;

enum class Mode { kCrash, kError };

/// The registry of every fault point compiled into the binary, sorted.
/// Arming validates against this list so a typo'd name fails loudly instead
/// of silently never firing.
const std::vector<std::string>& RegisteredPoints();

/// True iff `point` is in RegisteredPoints().
bool IsRegisteredPoint(const std::string& point);

/// Arms `point`: its `countdown`-th execution from now triggers `mode`.
/// InvalidArgument (listing the registry) when `point` is not registered.
Status ArmChecked(const std::string& point, int countdown = 1,
                  Mode mode = Mode::kCrash);

/// Like ArmChecked but an unregistered `point` aborts the process with
/// kUnknownPointExitCode after printing the registry — the right behavior
/// for test harnesses where an unarmed fault run would silently pass.
void Arm(const std::string& point, int countdown = 1, Mode mode = Mode::kCrash);

/// Disarms any armed point and clears the environment configuration cache.
void Disarm();

/// Forgets both the armed point and the fact that XVM_FAULT_POINT was
/// already consulted, so the next fault point re-reads the environment.
/// Lets tests exercise the env form in a forked child that inherited an
/// already-parsed state.
void ResetForTesting();

/// Starts recording the name of every fault point executed.
void StartTrace();

/// Stops recording and returns the executed point names in order (with
/// duplicates — the K-th occurrence of a name is a distinct kill site).
std::vector<std::string> StopTrace();

/// Executes the named fault point: records it when tracing, kills the
/// process when an armed crash triggers, returns true when an armed error
/// triggers (the caller then fails with Status::Internal), false otherwise.
bool HitAndShouldFail(const char* point);

}  // namespace fault

}  // namespace xvm

/// Declares a fault point inside a Status-returning durability function.
/// Expands to nothing observable in normal operation; under an armed
/// injection it either kills the process or returns an Internal error.
#define XVM_FAULT_POINT(point)                                           \
  do {                                                                   \
    if (::xvm::fault::HitAndShouldFail(point)) {                         \
      return ::xvm::Status::Internal(std::string("injected fault at ") + \
                                     (point));                           \
    }                                                                    \
  } while (0)

#endif  // XVM_COMMON_FILE_IO_H_
