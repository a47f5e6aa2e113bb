// Binary (de)serialization of model parameters.
//
// Serves Eugene's model-caching service: the server trains/reduces a model,
// serializes it, and the client deserializes into an identically built
// architecture ("caching appropriately trained neural network models",
// paper §I/§II-B).
//
// A checkpoint is a common/io blob (DESIGN.md §9 "One container format")
// with magic "EUG2" and version 2:
//
//   [magic "EUG2" u32][version u32][body length u64][body][crc32(body) u32]
//
// where body = tensor count + per tensor rank, shape, raw floats. The CRC
// footer turns bit flips and torn writes into typed eugene::CorruptionError;
// the version field lets future formats fail with a typed error instead of
// misparsing. Only v2 is read: a legacy v1 stream (magic "EUG1") fails as a
// bad magic.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace eugene::nn {

/// Writes all parameters to a stream in checkpoint format v2.
void save_params(const ParamValues& params, std::ostream& out);

/// Reads parameters saved by save_params (v2) into an architecture with
/// exactly matching shapes. Consumes the whole stream, which must hold
/// exactly one checkpoint. Throws eugene::CorruptionError on a damaged
/// stream (bad magic, future version, truncation, CRC mismatch, bytes after
/// the checkpoint) and eugene::InvalidArgument when the stream is intact but
/// the architecture does not match.
void load_params(const std::vector<ParamRef>& params, std::istream& in);

/// File wrappers. save_params_file writes atomically (temp + fsync +
/// rename via common/io), so a crash mid-save never destroys a previous
/// checkpoint at the same path. load_params_file throws eugene::IoError when
/// the file cannot be opened or read, and otherwise fails as load_params.
void save_params_file(const ParamValues& params, const std::string& path);
void load_params_file(const std::vector<ParamRef>& params, const std::string& path);

/// Total serialized (v2) size in bytes (used by the caching policy to reason
/// about download cost).
[[nodiscard]] std::size_t serialized_size_bytes(const ParamValues& params);

}  // namespace eugene::nn
