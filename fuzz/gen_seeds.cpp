// Seed-corpus generator for the fuzz harnesses.
//
// Emits one directory per harness under the output root:
//
//   <out>/serialize/      EUG2 checkpoints, valid and damaged
//   <out>/snapshot/       manifest payloads/blobs and artifacts payloads
//   <out>/usage_journal/  journal images: valid, torn tail, mid-file damage
//
// Valid seeds are produced by the production encoders (save_params,
// save_snapshot) wherever one exists, so the corpus tracks format changes
// instead of fossilizing a hand-rolled copy. Damaged variants are then
// derived from the valid bytes: truncation, bit flips, hostile length
// prefixes — each one a shape the decoders advertise a typed error for.
//
// Usage: gen_seeds <output-root>   (directories are created; files overwrite)
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/io.hpp"
#include "nn/serialize.hpp"
#include "nn/staged_model.hpp"
#include "serving/registry.hpp"
#include "serving/snapshot.hpp"

namespace {

namespace fs = std::filesystem;
using eugene::crc32;
using eugene::io::ByteWriter;

// Wire magics mirrored from the decoders (serialize.cpp, snapshot.cpp,
// usage.cpp). gen_seeds only *writes* corpus files; the replay tests prove
// the real decoders still accept/reject these bytes as intended.
constexpr std::uint32_t kCkptMagicV2 = 0x45554732;      // "EUG2"
constexpr std::uint32_t kManifestMagic = 0x4D475545;    // "EUGM"
constexpr std::uint32_t kJournalMagic = 0x4A475545;     // "EUGJ"
constexpr std::uint32_t kJournalVersion = 1;

fs::path g_out_root;

void write_seed(const std::string& harness, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  const fs::path dir = g_out_root / harness;
  fs::create_directories(dir);
  const fs::path path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    std::fprintf(stderr, "gen_seeds: write failed: %s\n", path.c_str());
    std::exit(1);
  }
}

std::vector<std::uint8_t> flip_byte(std::vector<std::uint8_t> bytes, std::size_t at) {
  if (at < bytes.size()) bytes[at] ^= 0xFF;
  return bytes;
}

std::vector<std::uint8_t> truncate_to(std::vector<std::uint8_t> bytes, std::size_t n) {
  if (n < bytes.size()) bytes.resize(n);
  return bytes;
}

eugene::nn::StagedModel tiny_model() {
  eugene::nn::StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 4;
  cfg.stage_channels = {3, 4};
  cfg.head_hidden = 8;
  cfg.seed = 1;
  return eugene::nn::build_staged_resnet(cfg);
}

// ---------------------------------------------------------------------------
// serialize: EUG2 checkpoints for fuzz_serialize
// ---------------------------------------------------------------------------
void gen_serialize() {
  const eugene::nn::StagedModel model = tiny_model();

  std::ostringstream v2s(std::ios::binary);
  eugene::nn::save_params(model.param_values(), v2s);
  const std::string v2str = v2s.str();
  const std::vector<std::uint8_t> v2(v2str.begin(), v2str.end());
  write_seed("serialize", "v2_valid", v2);
  write_seed("serialize", "v2_truncated", truncate_to(v2, v2.size() / 2));
  write_seed("serialize", "v2_body_bitflip", flip_byte(v2, 40));
  write_seed("serialize", "v2_bad_magic", flip_byte(v2, 0));
  write_seed("serialize", "v2_header_only", truncate_to(v2, 16));

  // Future version: decoders must refuse it typed, not misparse the body.
  {
    auto bytes = v2;
    bytes[4] = 9;
    write_seed("serialize", "v2_future_version", bytes);
  }
  // Hostile body length: claims far more than the stream holds.
  {
    ByteWriter w;
    w.u32(kCkptMagicV2);
    w.u32(2);
    w.u64(std::uint64_t{1} << 40);
    w.u32(0xABCD);
    write_seed("serialize", "v2_hostile_body_len", w.take());
  }

  write_seed("serialize", "empty", {});
}

// ---------------------------------------------------------------------------
// snapshot: manifest blobs/payloads and artifacts payloads for fuzz_snapshot
// ---------------------------------------------------------------------------
void gen_snapshot() {
  // Produce a real snapshot with the production writer, then lift the
  // manifest blob and the per-model payloads out of it.
  eugene::serving::ModelRegistry registry;
  (void)registry.add("seed", tiny_model());
  const fs::path snapdir = g_out_root / ".snapshot_tmp";
  fs::create_directories(snapdir);
  (void)eugene::serving::save_snapshot(registry, snapdir.string());

  const std::vector<std::uint8_t> manifest_file =
      eugene::io::read_file_bytes((snapdir / "MANIFEST").string());
  write_seed("snapshot", "manifest_blob_valid", manifest_file);
  write_seed("snapshot", "manifest_blob_bitflip", flip_byte(manifest_file, 12));
  write_seed("snapshot", "manifest_blob_truncated",
             truncate_to(manifest_file, manifest_file.size() / 2));

  const eugene::io::Blob manifest_blob = eugene::io::decode_blob(
      manifest_file, kManifestMagic, 1, "gen_seeds manifest");
  write_seed("snapshot", "manifest_payload_valid", manifest_blob.payload);

  // A model count the payload cannot hold: the decoder's capacity check.
  {
    ByteWriter w;
    w.u64(1);                          // epoch
    w.u64(std::uint64_t{1} << 50);     // model count
    write_seed("snapshot", "manifest_hostile_count", w.take());
  }

  // Artifacts payload from the real artifacts file, if present.
  for (const auto& de : fs::directory_iterator(snapdir)) {
    const std::string fname = de.path().filename().string();
    if (fname.find("artifacts") == std::string::npos) continue;
    const std::vector<std::uint8_t> art_file =
        eugene::io::read_file_bytes(de.path().string());
    const eugene::io::Blob art_blob = eugene::io::decode_blob(
        art_file, 0x41475545 /* "EUGA" */, 1, "gen_seeds artifacts");
    write_seed("snapshot", "artifacts_payload_valid", art_blob.payload);
    write_seed("snapshot", "artifacts_payload_bitflip", flip_byte(art_blob.payload, 1));
    break;
  }

  // Calibrated flag set but zero curve stages: semantic-validation path.
  {
    ByteWriter w;
    w.u8(1);
    w.u64(0);
    w.f64_vec({});
    w.f64(0.0);
    w.f64_vec({});
    write_seed("snapshot", "artifacts_calibrated_no_curves", w.take());
  }
  // Prior count disagreeing with the curve stage count.
  {
    ByteWriter w;
    w.u8(1);
    w.u64(2);             // curve_stages
    w.f64_vec({0.5});     // one prior for two stages
    w.u64(1);             // num_pairs
    w.f64(0.0);
    w.f64(1.0);
    w.f64_vec({0.1, 0.9});
    w.f64_vec({1.0, 2.0});
    w.f64(0.05);
    w.f64_vec({});
    write_seed("snapshot", "artifacts_prior_count_mismatch", w.take());
  }
  // Pair count exceeding what the payload can hold.
  {
    ByteWriter w;
    w.u8(1);
    w.u64(2);
    w.f64_vec({0.5, 0.5});
    w.u64(std::uint64_t{1} << 48);
    write_seed("snapshot", "artifacts_hostile_pair_count", w.take());
  }

  write_seed("snapshot", "empty", {});
  fs::remove_all(snapdir);
}

// ---------------------------------------------------------------------------
// usage_journal: EUGJ images for fuzz_usage_journal
// ---------------------------------------------------------------------------

// One journal frame: u64 touched-class count, then per class the column
// deltas (u32 class, u64 requests, u64 stages, f64 compute_ms, u64 expired,
// u64 early_exits, u64 shed, u64 retries), CRC-framed as [len][crc][payload].
std::vector<std::uint8_t> journal_frame(std::uint32_t cls, std::uint64_t requests,
                                        std::uint64_t stages, double compute_ms) {
  ByteWriter p;
  p.u64(1);
  p.u32(cls);
  p.u64(requests);
  p.u64(stages);
  p.f64(compute_ms);
  p.u64(0);  // expired
  p.u64(1);  // early_exits
  p.u64(0);  // shed
  p.u64(0);  // retries
  const std::vector<std::uint8_t> payload = p.take();
  ByteWriter f;
  f.u32(static_cast<std::uint32_t>(payload.size()));
  f.u32(crc32(payload.data(), payload.size()));
  f.raw(payload.data(), payload.size());
  return f.take();
}

void gen_usage_journal() {
  ByteWriter header;
  header.u32(kJournalMagic);
  header.u32(kJournalVersion);
  const std::vector<std::uint8_t> hdr = header.take();

  std::vector<std::uint8_t> valid = hdr;
  for (std::uint32_t c = 0; c < 3; ++c) {
    const auto frame = journal_frame(c, 10 + c, 20 + c, 1.5 * (c + 1));
    valid.insert(valid.end(), frame.begin(), frame.end());
  }
  write_seed("usage_journal", "valid_three_frames", valid);
  write_seed("usage_journal", "header_only", hdr);
  write_seed("usage_journal", "torn_tail", truncate_to(valid, valid.size() - 5));
  write_seed("usage_journal", "midfile_crc_damage", flip_byte(valid, hdr.size() + 12));
  write_seed("usage_journal", "bad_magic", flip_byte(valid, 0));
  write_seed("usage_journal", "future_version", flip_byte(valid, 4));

  // Committed frame naming a class the meter does not have: semantic check.
  {
    std::vector<std::uint8_t> img = hdr;
    const auto frame = journal_frame(250, 1, 1, 1.0);
    img.insert(img.end(), frame.begin(), frame.end());
    write_seed("usage_journal", "unknown_class", img);
  }
  // Hostile frame length prefix with a matching-CRC claim.
  {
    std::vector<std::uint8_t> img = hdr;
    ByteWriter f;
    f.u32(0xFFFFFFF0);
    f.u32(0xDEADBEEF);
    const auto frame = f.take();
    img.insert(img.end(), frame.begin(), frame.end());
    write_seed("usage_journal", "hostile_frame_len", img);
  }
  // One committed version-2 frame, the layout earlier builds wrote: the
  // class row carries an eighth (brown-out) column and the frame ends in a
  // three-counter block (hedges issued, hedges won, breaker trips). Replay
  // reads both and discards them; no build writes this layout any more.
  {
    ByteWriter p;
    p.u64(1);    // touched classes
    p.u32(1);    // class
    p.u64(4);    // requests
    p.u64(7);    // stages
    p.f64(6.5);  // compute_ms
    p.u64(1);    // expired
    p.u64(2);    // early_exits
    p.u64(0);    // shed
    p.u64(1);    // retries
    p.u64(1);    // brown-out column
    p.u64(3);    // hedges issued
    p.u64(1);    // hedges won
    p.u64(1);    // breaker trips
    const std::vector<std::uint8_t> payload = p.take();
    ByteWriter img;
    img.u32(kJournalMagic);
    img.u32(2);
    img.u32(static_cast<std::uint32_t>(payload.size()));
    img.u32(crc32(payload.data(), payload.size()));
    img.raw(payload.data(), payload.size());
    write_seed("usage_journal", "v2_valid", img.take());
  }
  write_seed("usage_journal", "empty", {});
  write_seed("usage_journal", "short_header", truncate_to(hdr, 5));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-root>\n", argv[0]);
    return 1;
  }
  g_out_root = argv[1];
  gen_serialize();
  gen_snapshot();
  gen_usage_journal();
  std::printf("seed corpora written under %s\n", g_out_root.string().c_str());
  return 0;
}
