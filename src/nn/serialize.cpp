#include "nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/io.hpp"

namespace eugene::nn {
namespace {

constexpr std::uint32_t kMagicV2 = 0x45554732;  // "EUG2": versioned, CRC-checked
constexpr std::uint32_t kFormatVersion = 2;

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in.good()) throw CorruptionError("load_params: truncated stream");
  return v;
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in.good()) throw CorruptionError("load_params: truncated stream");
  return v;
}

std::size_t body_size_bytes(const std::vector<ParamRef>& params) {
  std::size_t bytes = 4;  // tensor count
  for (const auto& p : params)
    bytes += 4 + 4 * p.value->rank() + p.value->numel() * sizeof(float);
  return bytes;
}

/// Serializes the checkpoint body: tensor count, then per tensor rank +
/// shape + raw floats.
std::vector<std::uint8_t> encode_body(const std::vector<ParamRef>& params) {
  io::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(params.size()));
  for (const auto& p : params) {
    const auto& shape = p.value->shape();
    w.u32(static_cast<std::uint32_t>(shape.size()));
    for (std::size_t d : shape) w.u32(static_cast<std::uint32_t>(d));
    w.raw(p.value->raw(), p.value->numel() * sizeof(float));
  }
  return w.take();
}

}  // namespace

void save_params(const std::vector<ParamRef>& params, std::ostream& out) {
  const std::vector<std::uint8_t> body = encode_body(params);
  write_u32(out, kMagicV2);
  write_u32(out, kFormatVersion);
  write_u64(out, body.size());
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  write_u32(out, crc32(body.data(), body.size()));
  EUGENE_CHECK(out.good()) << "save_params: stream write failed";
}

void load_params(const std::vector<ParamRef>& params, std::istream& in) {
  const std::uint32_t magic = read_u32(in);
  if (magic != kMagicV2)
    throw CorruptionError("load_params: bad magic (not a Eugene checkpoint)");

  const std::uint32_t version = read_u32(in);
  if (version == 0 || version > kFormatVersion)
    throw CorruptionError("load_params: unsupported checkpoint version " +
                          std::to_string(version) + " (this build reads <= " +
                          std::to_string(kFormatVersion) + ")");

  const std::uint64_t body_len = read_u64(in);
  // Never trust a stored length for the allocation: read what the stream
  // actually holds, in bounded chunks, so a corrupt length cannot OOM the
  // server — it surfaces as truncation instead.
  std::vector<std::uint8_t> body;
  body.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(body_len, body_size_bytes(params))));
  char chunk[1 << 16];
  for (std::uint64_t left = body_len; left > 0;) {
    const auto want =
        static_cast<std::streamsize>(std::min<std::uint64_t>(left, sizeof(chunk)));
    in.read(chunk, want);
    const std::streamsize got = in.gcount();
    if (got <= 0) throw CorruptionError("load_params: truncated checkpoint body");
    body.insert(body.end(), chunk, chunk + got);
    left -= static_cast<std::uint64_t>(got);
  }
  const std::uint32_t stored_crc = read_u32(in);
  if (stored_crc != crc32(body.data(), body.size()))
    throw CorruptionError("load_params: CRC32 mismatch (bit flip or torn write)");

  io::ByteReader r(body, "load_params");
  const std::uint32_t count = r.u32();
  EUGENE_REQUIRE(count == params.size(),
                 "load_params: parameter count mismatch (architecture differs)");
  for (const auto& p : params) {
    const std::uint32_t rank = r.u32();
    EUGENE_REQUIRE(rank == p.value->rank(), "load_params: tensor rank mismatch");
    for (std::size_t d = 0; d < rank; ++d)
      EUGENE_REQUIRE(r.u32() == p.value->dim(d), "load_params: tensor shape mismatch");
    r.raw_into(p.value->raw(), p.value->numel() * sizeof(float));
  }
  r.expect_exhausted();
}

void save_params_file(const std::vector<ParamRef>& params, const std::string& path) {
  std::ostringstream out(std::ios::binary);
  save_params(params, out);
  const std::string bytes = out.str();
  io::atomic_write_file(path, reinterpret_cast<const std::uint8_t*>(bytes.data()),
                        bytes.size());
}

void load_params_file(const std::vector<ParamRef>& params, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EUGENE_REQUIRE(in.is_open(), "load_params_file: cannot open " + path);
  load_params(params, in);
  // A stream may legitimately carry more data after the checkpoint; a file
  // holds exactly one. Trailing bytes mean damage or tampering.
  in.peek();
  if (!in.eof())
    throw CorruptionError("load_params_file: trailing bytes after checkpoint in " + path);
}

std::size_t serialized_size_bytes(const std::vector<ParamRef>& params) {
  // v2 envelope: magic + version + body length + body + CRC footer.
  return 4 + 4 + 8 + body_size_bytes(params) + 4;
}

}  // namespace eugene::nn
