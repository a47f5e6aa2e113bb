// Durable-state primitives (DESIGN.md §9 "Durability model").
//
// Eugene's premise is that the service *caches* trained, calibrated,
// profiled models so clients never pay for retraining (paper §I/§II-B) —
// which makes the on-disk state a first-class citizen. Every artifact the
// serving path depends on is written through this layer:
//
//   * atomic_write_file — temp file + fsync + rename(2) + directory fsync,
//     so a crash at any instant leaves either the complete old file or the
//     complete new file, never a torn mixture.
//   * blob files — a versioned, CRC32-checksummed container
//     ([magic][version][length][payload][crc]); readers surface bad magic,
//     future versions, truncation, and bit flips as typed CorruptionError.
//   * ByteWriter / ByteReader — bounds-checked (de)serialization of the
//     primitive types artifacts are made of; over-reads throw
//     CorruptionError instead of reading garbage.
//
// Byte order is native (like the v1 checkpoint format): artifacts are a
// cache local to one service host, not a wire format.
//
// Failpoint seams (armed by the recovery chaos suite and CI):
//   io.atomic.torn     crash after writing half the temp file (no rename)
//   io.atomic.short    commit a file missing its tail bytes
//   io.atomic.corrupt  commit a file with one bit flipped
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace eugene::io {

/// True iff `path` exists and is a regular file.
[[nodiscard]] bool file_exists(const std::string& path);

/// Writes `n` bytes to `path` atomically: the payload goes to `path + ".tmp"`,
/// is fsynced, and is renamed over `path`; the containing directory is then
/// fsynced so the rename itself is durable. Throws IoError on OS failure.
/// A simulated crash (io.atomic.torn) leaves the partial temp file behind,
/// exactly like a real kill -9 — readers never see it because they only open
/// committed names.
void atomic_write_file(const std::string& path, const std::uint8_t* data, std::size_t n);
void atomic_write_file(const std::string& path, const std::vector<std::uint8_t>& payload);

/// Reads a whole file. Throws IoError when the file cannot be opened or read.
[[nodiscard]] std::vector<std::uint8_t> read_file_bytes(const std::string& path);

/// A validated blob: the stored format version and the raw payload.
struct Blob {
  std::uint32_t version = 0;
  std::vector<std::uint8_t> payload;
};

/// Serializes a blob container to bytes: [magic u32][version u32]
/// [payload length u64][payload][crc32(payload) u32].
[[nodiscard]] std::vector<std::uint8_t> encode_blob(std::uint32_t magic, std::uint32_t version,
                                      const std::vector<std::uint8_t>& payload);

/// Parses and validates an encode_blob container. Throws CorruptionError on
/// bad magic, version > max_version, truncation, trailing bytes, or CRC
/// mismatch. `what` names the artifact in error messages.
[[nodiscard]] Blob decode_blob(const std::vector<std::uint8_t>& bytes, std::uint32_t magic,
                 std::uint32_t max_version, const std::string& what);

/// atomic_write_file of an encode_blob container.
void write_blob_file(const std::string& path, std::uint32_t magic, std::uint32_t version,
                     const std::vector<std::uint8_t>& payload);

/// read_file_bytes + decode_blob.
[[nodiscard]] Blob read_blob_file(const std::string& path, std::uint32_t magic,
                    std::uint32_t max_version, const std::string& what);

/// Append-only serialization buffer for artifact payloads.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }

  /// Length-prefixed string (u64 length + bytes).
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  /// Length-prefixed vector of doubles.
  void f64_vec(const std::vector<double>& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }

  // resize+memcpy rather than insert(range): GCC 12 -O3 trips false
  // stringop-overflow/restrict warnings on the inlined insert path.
  void raw(const void* data, std::size_t n) {
    if (n == 0) return;
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, data, n);
  }

  /// Reserves room for `n` bytes in total, so a writer that knows its final
  /// size grows its buffer once.
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a byte span. Every accessor throws
/// CorruptionError (tagged with `what`) instead of reading past the end.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size, std::string what)
      : data_(data), size_(size), what_(std::move(what)) {}
  ByteReader(const std::vector<std::uint8_t>& bytes, std::string what)
      : ByteReader(bytes.data(), bytes.size(), std::move(what)) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32() { return scalar<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return scalar<std::uint64_t>(); }
  [[nodiscard]] double f64() { return scalar<double>(); }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = length_prefix(1);
    std::string s;
    if (n != 0) s.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::vector<double> f64_vec() {
    const std::uint64_t n = length_prefix(sizeof(double));
    std::vector<double> v(n);
    // n == 0 gives memcpy a null destination (empty vector) — UB even for
    // zero bytes, and a null source too when reading an empty buffer.
    if (n != 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return v;
  }

  /// Copies `n` raw bytes into `dst`.
  void raw_into(void* dst, std::size_t n) {
    need(n);
    if (n != 0) std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// Throws CorruptionError if any bytes were left unread (a payload longer
  /// than its schema is as suspect as a truncated one).
  void expect_exhausted() const {
    if (pos_ != size_)
      throw CorruptionError(what_ + ": " + std::to_string(size_ - pos_) +
                            " trailing byte(s) after payload");
  }

 private:
  template <typename T>
  T scalar() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Reads a u64 count and validates that `count * elem_size` bytes follow.
  std::uint64_t length_prefix(std::size_t elem_size) {
    const std::uint64_t n = scalar<std::uint64_t>();
    if (n > remaining() / elem_size)
      throw CorruptionError(what_ + ": length prefix " + std::to_string(n) +
                            " exceeds remaining payload");
    return n;
  }

  void need(std::size_t n) const {
    if (n > remaining())
      throw CorruptionError(what_ + ": truncated payload (need " + std::to_string(n) +
                            " byte(s), have " + std::to_string(remaining()) + ")");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string what_;
};

}  // namespace eugene::io
