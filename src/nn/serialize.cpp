#include "nn/serialize.hpp"

#include <cstdint>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/io.hpp"

namespace eugene::nn {
namespace {

constexpr std::uint32_t kMagicV2 = 0x45554732;  // "EUG2": versioned, CRC-checked
constexpr std::uint32_t kFormatVersion = 2;

/// Serializes the checkpoint body: tensor count, then per tensor rank +
/// shape + raw floats.
std::vector<std::uint8_t> encode_body(const ParamValues& params) {
  io::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(params.size()));
  for (const tensor::Tensor* p : params) {
    const auto& shape = p->shape();
    w.u32(static_cast<std::uint32_t>(shape.size()));
    for (std::size_t d : shape) w.u32(static_cast<std::uint32_t>(d));
    w.raw(p->raw(), p->numel() * sizeof(float));
  }
  return w.take();
}

/// Copies a validated body into `params`, whose shapes must match it.
void decode_body(const std::vector<ParamRef>& params,
                 const std::vector<std::uint8_t>& body) {
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

}  // namespace

void save_params(const ParamValues& params, std::ostream& out) {
  const std::vector<std::uint8_t> blob =
      io::encode_blob(kMagicV2, kFormatVersion, encode_body(params));
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  EUGENE_CHECK(out.good()) << "save_params: stream write failed";
}

void load_params(const std::vector<ParamRef>& params, std::istream& in) {
  std::vector<std::uint8_t> bytes;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0)
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
  decode_body(params,
              io::decode_blob(bytes, kMagicV2, kFormatVersion, "load_params").payload);
}

void save_params_file(const ParamValues& params, const std::string& path) {
  io::write_blob_file(path, kMagicV2, kFormatVersion, encode_body(params));
}

void load_params_file(const std::vector<ParamRef>& params, const std::string& path) {
  decode_body(params, io::read_blob_file(path, kMagicV2, kFormatVersion,
                                         "load_params_file").payload);
}

std::size_t serialized_size_bytes(const ParamValues& params) {
  // Blob envelope (magic + version + body length + CRC footer) plus the
  // body's tensor count, then per tensor rank + shape + raw floats.
  std::size_t bytes = 4 + 4 + 8 + 4 + 4;
  for (const tensor::Tensor* p : params)
    bytes += 4 + 4 * p->rank() + p->numel() * sizeof(float);
  return bytes;
}

}  // namespace eugene::nn
