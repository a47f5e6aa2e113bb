#include "common/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.hpp"
#include "common/failpoint.hpp"

namespace eugene::io {
namespace {

[[noreturn]] void raise_errno(const std::string& op, const std::string& path) {
  throw IoError(op + " '" + path + "': " + std::strerror(errno));
}

void write_all(int fd, const std::uint8_t* data, std::size_t n, const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      raise_errno("write", path);
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// fsync the directory containing `path` so a completed rename survives a
/// power cut, not just a process kill. Best effort: some filesystems reject
/// directory fsync; the rename is still atomic with respect to crashes.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

void atomic_write_file(const std::string& path, const std::uint8_t* data, std::size_t n) {
  // Failpoint seams mutate what reaches the disk, simulating the three ways
  // hardware and kernels betray writers (DESIGN.md §9): a short write that
  // still commits, a flipped bit that still commits, and a crash that leaves
  // only a partial temp file.
  std::vector<std::uint8_t> mutated;
  bool torn_crash = false;
  if (FailpointRegistry::any_armed()) [[unlikely]] {
    if (EUGENE_FAILPOINT_FIRED("io.atomic.short") && n > 0) {
      mutated.assign(data, data + n - (n + 3) / 4);  // drop the last quarter
      data = mutated.data();
      n = mutated.size();
    }
    if (EUGENE_FAILPOINT_FIRED("io.atomic.corrupt") && n > 0) {
      if (mutated.empty()) mutated.assign(data, data + n);
      mutated[mutated.size() / 2] ^= 0x20;
      data = mutated.data();
      n = mutated.size();
    }
    torn_crash = EUGENE_FAILPOINT_FIRED("io.atomic.torn");
  }

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) raise_errno("open", tmp);

  if (torn_crash) {
    // Simulated kill -9 mid-write: half the payload reaches the temp file,
    // no rename, no cleanup — exactly the debris a real crash leaves.
    write_all(fd, data, n / 2, tmp);
    ::close(fd);
    throw FailpointError("io.atomic.torn: simulated crash while writing " + tmp);
  }

  write_all(fd, data, n, tmp);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = saved;
    raise_errno("fsync", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    raise_errno("close", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    raise_errno("rename", path);
  }
  fsync_parent_dir(path);
}

void atomic_write_file(const std::string& path, const std::vector<std::uint8_t>& payload) {
  atomic_write_file(path, payload.data(), payload.size());
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) raise_errno("open", path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      raise_errno("read", path);
    }
    if (r == 0) break;
    bytes.insert(bytes.end(), chunk, chunk + r);
  }
  ::close(fd);
  return bytes;
}

std::vector<std::uint8_t> encode_blob(std::uint32_t magic, std::uint32_t version,
                                      const std::vector<std::uint8_t>& payload) {
  ByteWriter w;
  w.reserve(16 + payload.size() + 4);  // header, payload, CRC footer
  w.u32(magic);
  w.u32(version);
  w.u64(payload.size());
  w.raw(payload.data(), payload.size());
  w.u32(crc32(payload.data(), payload.size()));
  return w.take();
}

Blob decode_blob(const std::vector<std::uint8_t>& bytes, std::uint32_t magic,
                 std::uint32_t max_version, const std::string& what) {
  ByteReader r(bytes, what);
  if (r.remaining() < 16)
    throw CorruptionError(what + ": file too small to hold a blob header (" +
                          std::to_string(r.remaining()) + " byte(s))");
  const std::uint32_t got_magic = r.u32();
  if (got_magic != magic)
    throw CorruptionError(what + ": bad magic (not this artifact type, or garbage)");
  Blob blob;
  blob.version = r.u32();
  if (blob.version == 0 || blob.version > max_version)
    throw CorruptionError(what + ": unsupported format version " +
                          std::to_string(blob.version) + " (this build reads <= " +
                          std::to_string(max_version) + ")");
  const std::uint64_t len = r.u64();
  if (len > r.remaining() || len + 4 != r.remaining())
    throw CorruptionError(what + ": payload length " + std::to_string(len) +
                          " does not match file size (torn or truncated write)");
  blob.payload.assign(bytes.begin() + 16,
                      bytes.begin() + 16 + static_cast<std::ptrdiff_t>(len));
  const std::uint32_t computed = crc32(blob.payload.data(), blob.payload.size());
  ByteReader footer(bytes.data() + 16 + len, 4, what);
  if (footer.u32() != computed)
    throw CorruptionError(what + ": CRC32 mismatch (bit flip or torn write)");
  return blob;
}

void write_blob_file(const std::string& path, std::uint32_t magic, std::uint32_t version,
                     const std::vector<std::uint8_t>& payload) {
  atomic_write_file(path, encode_blob(magic, version, payload));
}

Blob read_blob_file(const std::string& path, std::uint32_t magic,
                    std::uint32_t max_version, const std::string& what) {
  return decode_blob(read_file_bytes(path), magic, max_version, what + " (" + path + ")");
}

}  // namespace eugene::io
