// Fuzz harness: snapshot MANIFEST + artifact decoding (serving/snapshot).
//
// Typed-error contract (DESIGN.md §10): arbitrary bytes presented as a
// snapshot manifest or a model-artifacts payload are either decoded or
// rejected with a typed CorruptionError — bad magic, bad CRC, truncation,
// implausible model counts, inconsistent curve geometry, and mixed-snapshot
// stage counts are all *expected* outcomes. Restore must never build
// garbage serving state or die untyped.
//
// Each input is interpreted three ways so one corpus covers every decode
// layer: as a raw manifest payload, as a raw artifacts payload, and as a
// full CRC-framed blob container holding a manifest.
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/io.hpp"
#include "nn/staged_model.hpp"
#include "serving/snapshot.hpp"

namespace {

// Mirrors kManifestMagic in serving/snapshot.cpp ("EUGM", little-endian).
constexpr std::uint32_t kManifestMagic = 0x4D475545;
constexpr std::uint32_t kManifestVersion = 1;

eugene::serving::ModelEntry& fuzz_entry() {
  static eugene::serving::ModelEntry entry = [] {
    eugene::nn::StagedResNetConfig cfg;
    cfg.in_channels = 2;
    cfg.height = 8;
    cfg.width = 8;
    cfg.num_classes = 4;
    cfg.stage_channels = {3, 4};
    cfg.head_hidden = 8;
    cfg.seed = 1;
    return eugene::serving::ModelEntry("fuzz", eugene::nn::build_staged_resnet(cfg));
  }();
  // A previous iteration may have restored artifacts into the entry; reset
  // the mutable fields so every input decodes against the same baseline.
  entry.stage_ms.clear();
  entry.calibration_alpha.clear();
  entry.calibrated = false;
  return entry;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  try {
    (void)eugene::serving::detail::decode_manifest_payload(bytes);
  } catch (const eugene::CorruptionError&) {
  }
  try {
    eugene::serving::detail::decode_artifacts_payload(bytes, fuzz_entry(),
                                                      "fuzz artifacts");
  } catch (const eugene::CorruptionError&) {
  }
  try {
    const eugene::io::Blob blob = eugene::io::decode_blob(
        bytes, kManifestMagic, kManifestVersion, "fuzz manifest blob");
    (void)eugene::serving::detail::decode_manifest_payload(blob.payload);
  } catch (const eugene::CorruptionError&) {
  }
  return 0;
}
