#include "persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/trace_log.h"
#include "persist/crc32c.h"
#include "persist/wire.h"

namespace apollo::persist {

const char* SectionName(uint32_t type) {
  switch (type) {
    case kSectionTemplates:
      return "templates";
    case kSectionParamMapper:
      return "param_mapper";
    case kSectionDependencyGraph:
      return "dependency_graph";
    case kSectionSessions:
      return "sessions";
    default:
      return "unknown";
  }
}

void SnapshotWriter::AddSection(uint32_t type, std::string payload) {
  sections_.push_back(Pending{type, std::move(payload)});
}

std::string SnapshotWriter::Serialize(uint64_t created_at_us) const {
  ByteWriter w;
  for (char c : kSnapshotMagic) w.U8(static_cast<uint8_t>(c));
  w.U32(kFormatVersion);
  w.U32(static_cast<uint32_t>(sections_.size()));
  w.U64(created_at_us);
  for (const Pending& s : sections_) {
    w.U32(s.type);
    w.U32(0);  // flags, reserved
    w.U64(s.payload.size());
    w.U32(Crc32c(s.payload));
    for (char c : s.payload) w.U8(static_cast<uint8_t>(c));
  }
  return std::string(w.bytes());
}

util::Status SnapshotWriter::WriteAtomic(const std::string& path,
                                         uint64_t created_at_us) const {
  return WriteFileAtomic(path, Serialize(created_at_us));
}

namespace {

std::string DirnameOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

util::Status SyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    return util::Status::Internal("fsync " + what + ": " +
                                  std::strerror(errno));
  }
  return util::Status::OK();
}

}  // namespace

util::Status WriteFileAtomic(const std::string& path,
                             std::string_view bytes) {
  // The tmp file lives in the target's directory so the final rename
  // stays within one filesystem (rename(2) atomicity). The name must be
  // unique per writer, not just per process: two threads checkpointing
  // the same path concurrently would otherwise truncate each other's
  // half-written tmp file and then race the rename.
  static std::atomic<uint64_t> seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                          "." + std::to_string(seq.fetch_add(1));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return util::Status::Internal("open " + tmp + ": " +
                                  std::strerror(errno));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return util::Status::Internal("write " + tmp + ": " +
                                    std::strerror(err));
    }
    off += static_cast<size_t>(n);
  }
  if (util::Status s = SyncFd(fd, tmp); !s.ok()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return util::Status::Internal("close " + tmp + ": " +
                                  std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    ::unlink(tmp.c_str());
    return util::Status::Internal("rename " + tmp + " -> " + path + ": " +
                                  std::strerror(err));
  }
  // fsync the directory so the rename itself is durable; failure here is
  // reported (the data may not survive a power cut) but the file is
  // already in place.
  int dfd = ::open(DirnameOf(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return util::Status::Internal("open dir of " + path + ": " +
                                  std::strerror(errno));
  }
  util::Status s = SyncFd(dfd, "dir of " + path);
  ::close(dfd);
  return s;
}

util::Result<Snapshot> ParseSnapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes) {
    return util::Status::InvalidArgument(
        "snapshot too short for header (" + std::to_string(bytes.size()) +
        " bytes)");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return util::Status::InvalidArgument("bad snapshot magic");
  }
  ByteReader r(bytes.substr(sizeof(kSnapshotMagic)));
  Snapshot snap;
  snap.format_version = r.U32();
  snap.section_count = r.U32();
  snap.created_at_us = r.U64();
  if (snap.format_version != kFormatVersion) {
    return util::Status::InvalidArgument(
        "unsupported snapshot format version " +
        std::to_string(snap.format_version));
  }

  // Section scan. Every length is validated against the bytes actually
  // present; a header or payload that overruns the file ends the scan
  // with `truncated` set and the sections already recovered intact.
  size_t pos = kHeaderBytes;
  for (uint32_t i = 0; i < snap.section_count; ++i) {
    if (bytes.size() - pos < kSectionHeaderBytes) {
      snap.truncated = true;
      break;
    }
    ByteReader h(bytes.substr(pos, kSectionHeaderBytes));
    SnapshotSection sec;
    sec.type = h.U32();
    h.U32();  // flags
    uint64_t len = h.U64();
    sec.crc_stored = h.U32();
    pos += kSectionHeaderBytes;
    if (len > bytes.size() - pos) {
      snap.truncated = true;
      break;
    }
    sec.payload.assign(bytes.substr(pos, len));
    pos += len;
    sec.crc_computed = Crc32c(sec.payload);
    sec.crc_ok = sec.crc_computed == sec.crc_stored;
    snap.sections.push_back(std::move(sec));
  }
  return snap;
}

util::Result<Snapshot> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::NotFound("snapshot file not found: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return util::Status::Internal("read " + path + " failed");
  }
  std::string bytes = std::move(buf).str();
  return ParseSnapshot(bytes);
}

void ApplySections(
    const Snapshot& snap, RestoreStats* stats, obs::TraceLog* trace,
    const std::function<util::Status(uint32_t type, const std::string& payload,
                                     RestoreStats* stats)>& apply) {
  RestoreStats local;
  if (stats == nullptr) stats = &local;
  stats->sections_total = static_cast<uint32_t>(snap.sections.size());
  stats->truncated = snap.truncated;
  const bool traced = trace != nullptr && trace->enabled();
  for (const SnapshotSection& sec : snap.sections) {
    stats->snapshot_bytes += kSectionHeaderBytes + sec.payload.size();
    util::Status s =
        sec.crc_ok ? apply(sec.type, sec.payload, stats)
                   : util::Status::InvalidArgument("section crc mismatch");
    if (s.ok()) {
      ++stats->sections_loaded;
      continue;
    }
    if (s.code() == util::StatusCode::kNotFound) {
      ++stats->sections_unknown;
    } else {
      ++stats->sections_corrupt;
    }
    if (traced) {
      trace->Record(obs::TraceEventType::kSnapshotSectionSkipped, -1, 0,
                    obs::SkipReason::kNone, sec.type);
    }
  }
  stats->snapshot_bytes += kHeaderBytes;
  if (traced) {
    trace->Record(obs::TraceEventType::kSnapshotRestored, -1, 0,
                  obs::SkipReason::kNone, stats->sections_loaded);
  }
}

}  // namespace apollo::persist
