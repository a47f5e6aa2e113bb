#include "serving/snapshot.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/logging.hpp"
#include "nn/serialize.hpp"

namespace eugene::serving {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kManifestMagic = 0x4D475545;   // "EUGM"
constexpr std::uint32_t kArtifactsMagic = 0x41475545;  // "EUGA"
constexpr std::uint32_t kManifestVersion = 1;
constexpr std::uint32_t kArtifactsVersion = 1;

struct ManifestEntry {
  std::string name;
  std::string params_file;     ///< relative to the snapshot dir
  std::string artifacts_file;  ///< relative to the snapshot dir
};

struct Manifest {
  std::uint64_t epoch = 0;
  std::vector<ManifestEntry> models;
};

std::vector<std::uint8_t> encode_manifest(const Manifest& m) {
  io::ByteWriter w;
  w.u64(m.epoch);
  w.u64(m.models.size());
  for (const auto& e : m.models) {
    w.str(e.name);
    w.str(e.params_file);
    w.str(e.artifacts_file);
  }
  return w.take();
}

Manifest decode_manifest(const std::vector<std::uint8_t>& payload) {
  io::ByteReader r(payload, "snapshot manifest");
  Manifest m;
  m.epoch = r.u64();
  const std::uint64_t count = r.u64();
  // Each entry is three length-prefixed strings, ≥ 24 bytes of prefixes
  // alone — a count the payload cannot possibly hold is corruption that
  // slipped past the CRC (or tampering), not a big snapshot; reject it
  // typed instead of letting resize() throw length_error/bad_alloc.
  if (count > r.remaining() / 24)
    throw CorruptionError("snapshot manifest: model count " + std::to_string(count) +
                          " exceeds payload capacity");
  m.models.resize(count);
  for (auto& e : m.models) {
    e.name = r.str();
    e.params_file = r.str();
    e.artifacts_file = r.str();
  }
  r.expect_exhausted();
  return m;
}

/// Serializes everything in a ModelEntry except the weights: curves (as
/// piecewise-linear profiles + priors), stage times, α, calibrated flag.
std::vector<std::uint8_t> encode_artifacts(const ModelEntry& entry) {
  io::ByteWriter w;
  w.u8(entry.calibrated ? 1 : 0);

  const gp::ConfidenceCurveModel& curves = entry.curves;
  w.u64(curves.fitted() ? curves.num_stages() : 0);
  if (curves.fitted()) {
    w.f64_vec(curves.priors());
    const std::size_t n = curves.num_stages();
    w.u64(n * (n - 1) / 2);
    for (std::size_t from = 0; from < n; ++from) {
      for (std::size_t to = from + 1; to < n; ++to) {
        const gp::PiecewiseLinear& pl = curves.approximation(from, to);
        w.f64(pl.lo());
        w.f64(pl.hi());
        w.f64_vec(pl.knot_values());
      }
    }
  }

  w.f64_vec(entry.stage_ms);
  w.f64(0.0);  // retired stage-time jitter slot: written as 0, skipped on read
  w.f64_vec(entry.calibration_alpha);
  return w.take();
}

/// Inverse of encode_artifacts, with semantic validation: a calibrated
/// entry must carry fitted curves, and curve/model stage counts must agree
/// (a mismatch means the files come from different snapshots).
void decode_artifacts(const std::vector<std::uint8_t>& payload, ModelEntry& entry,
                      const std::string& what) {
  io::ByteReader r(payload, what);
  const bool calibrated = r.u8() != 0;

  const std::uint64_t curve_stages = r.u64();
  if (curve_stages > 0) {
    std::vector<double> priors = r.f64_vec();
    if (priors.size() != curve_stages)
      throw CorruptionError(what + ": prior count " + std::to_string(priors.size()) +
                            " does not match curve stage count " +
                            std::to_string(curve_stages));
    const std::uint64_t num_pairs = r.u64();
    if (curve_stages < 2 || num_pairs != curve_stages * (curve_stages - 1) / 2)
      throw CorruptionError(what + ": inconsistent confidence-curve pair count");
    // Each profile is at least lo + hi + a knot-vector length prefix; a pair
    // count the remaining bytes cannot possibly hold is corruption, and
    // rejecting it here keeps a hostile count from driving a giant reserve().
    if (num_pairs > r.remaining() / 24)
      throw CorruptionError(what + ": confidence-curve pair count exceeds payload");
    std::vector<gp::PiecewiseLinear> approximations;
    approximations.reserve(num_pairs);
    for (std::uint64_t p = 0; p < num_pairs; ++p) {
      const double lo = r.f64();
      const double hi = r.f64();
      std::vector<double> knots = r.f64_vec();
      if (knots.size() < 2 || !(lo < hi))
        throw CorruptionError(what + ": malformed piecewise-linear profile");
      approximations.emplace_back(std::move(knots), lo, hi);
    }
    if (curve_stages != entry.model.num_stages())
      throw CorruptionError(what + ": curve stage count " +
                            std::to_string(curve_stages) + " does not match model (" +
                            std::to_string(entry.model.num_stages()) +
                            "); mixed-snapshot artifacts");
    entry.curves.restore(curve_stages, std::move(approximations), std::move(priors));
  } else if (calibrated) {
    throw CorruptionError(what + ": calibrated entry without fitted curves");
  }

  entry.stage_ms = r.f64_vec();
  (void)r.f64();  // retired jitter slot; any value a snapshot holds is ignored
  entry.calibration_alpha = r.f64_vec();
  r.expect_exhausted();
  // Costs and α are per-stage vectors when present (empty = never profiled /
  // calibrated). Any other length means the params and artifacts files come
  // from different snapshots — fail here, typed, instead of restoring
  // successfully and dying confusingly at serving time.
  const std::size_t stages = entry.model.num_stages();
  if (!entry.stage_ms.empty() && entry.stage_ms.size() != stages)
    throw CorruptionError(what + ": stage cost count " +
                          std::to_string(entry.stage_ms.size()) +
                          " does not match model (" + std::to_string(stages) +
                          "); mixed-snapshot artifacts");
  if (!entry.calibration_alpha.empty() && entry.calibration_alpha.size() != stages)
    throw CorruptionError(what + ": calibration alpha count " +
                          std::to_string(entry.calibration_alpha.size()) +
                          " does not match model (" + std::to_string(stages) +
                          "); mixed-snapshot artifacts");
  entry.calibrated = calibrated;
}

void ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    throw IoError("mkdir '" + dir + "': " + std::strerror(errno));
}

std::string manifest_path(const std::string& dir) { return dir + "/MANIFEST"; }

/// The committed manifest, or nullopt when none exists. Corrupt manifests
/// propagate as CorruptionError — the caller decides whether that is fatal.
std::optional<Manifest> read_manifest(const std::string& dir) {
  if (!io::file_exists(manifest_path(dir))) return std::nullopt;
  const io::Blob blob = io::read_blob_file(manifest_path(dir), kManifestMagic,
                                           kManifestVersion, "snapshot manifest");
  return decode_manifest(blob.payload);
}

/// Epoch suffix of a snapshot data file ("model-3.params.17" → 17), or
/// nullopt for MANIFEST, temp files, and anything foreign.
std::optional<std::uint64_t> file_epoch(const std::string& filename) {
  if (filename.rfind("model-", 0) != 0) return std::nullopt;
  const std::size_t dot = filename.find_last_of('.');
  if (dot == std::string::npos || dot + 1 >= filename.size()) return std::nullopt;
  std::uint64_t epoch = 0;
  for (std::size_t i = dot + 1; i < filename.size(); ++i) {
    if (filename[i] < '0' || filename[i] > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<std::uint64_t>(filename[i] - '0');
  }
  return epoch;
}

/// Removes data files from older epochs and stray ".tmp" debris left by
/// crashed writers. Best effort — GC failure never fails a snapshot.
void gc_old_epochs(const std::string& dir, std::uint64_t keep_epoch) {
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    const std::string name = de.path().filename().string();
    const bool stale_tmp = name.find(".tmp") != std::string::npos;
    const auto epoch = file_epoch(name);
    if (stale_tmp || (epoch.has_value() && *epoch != keep_epoch))
      fs::remove(de.path(), ec);
  }
}

/// The next epoch to write: one past the committed manifest's, or — when
/// the manifest is missing or unreadable — one past any epoch visible on
/// disk, so a fresh snapshot never collides with files a previous (possibly
/// torn) snapshot left behind.
std::uint64_t next_epoch(const std::string& dir) {
  try {
    if (const auto m = read_manifest(dir)) return m->epoch + 1;
  } catch (const Error&) {
    // Unreadable manifest: fall through to the disk scan.
  }
  std::uint64_t max_seen = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    const auto epoch = file_epoch(de.path().filename().string());
    if (epoch.has_value() && *epoch > max_seen) max_seen = *epoch;
  }
  return max_seen + 1;
}

}  // namespace

namespace detail {

std::size_t decode_manifest_payload(const std::vector<std::uint8_t>& payload) {
  return decode_manifest(payload).models.size();
}

void decode_artifacts_payload(const std::vector<std::uint8_t>& payload,
                              ModelEntry& entry, const std::string& what) {
  decode_artifacts(payload, entry, what);
}

}  // namespace detail

std::uint64_t save_snapshot(const ModelRegistry& registry, const std::string& dir) {
  ensure_dir(dir);
  const std::uint64_t epoch = next_epoch(dir);

  // Pin one registry epoch for the whole walk: every write below reads this
  // immutable view, so concurrent update/replace/reload publications cannot
  // tear the snapshot — they land in later epochs the pin never sees.
  const ModelRegistry::ViewPtr view = registry.pin();
  // Chaos seam: widen the pin-to-write window so mutator publications overlap
  // the file walk (the lifecycle chaos suite races swaps against this).
  EUGENE_FAILPOINT("snapshot.live.race");

  Manifest manifest;
  manifest.epoch = epoch;
  const std::size_t count = view->size();
  for (std::size_t i = 0; i < count; ++i) {
    const ModelEntry& entry = view->entry(i);
    ManifestEntry me;
    me.name = entry.name;
    me.params_file = "model-" + std::to_string(i) + ".params." + std::to_string(epoch);
    me.artifacts_file =
        "model-" + std::to_string(i) + ".artifacts." + std::to_string(epoch);

    nn::save_params_file(entry.model.param_values(), dir + "/" + me.params_file);
    io::write_blob_file(dir + "/" + me.artifacts_file, kArtifactsMagic,
                        kArtifactsVersion, encode_artifacts(entry));
    manifest.models.push_back(std::move(me));
  }

  // The commit point. A crash before (or at) this line leaves the previous
  // MANIFEST — and the previous epoch's files — untouched.
  EUGENE_FAILPOINT("snapshot.manifest.crash");
  io::write_blob_file(manifest_path(dir), kManifestMagic, kManifestVersion,
                      encode_manifest(manifest));

  gc_old_epochs(dir, epoch);
  EUGENE_LOG(Info) << "snapshot: committed epoch " << epoch << " (" << count
                   << " model(s)) to " << dir;
  return epoch;
}

namespace {

/// Loads one manifest entry into a fully-built, unpublished ModelEntry:
/// factory architecture → checkpoint weights → artifacts. Publication is the
/// caller's move (add_entry for restore, replace_or_add for reload).
std::shared_ptr<ModelEntry> build_entry(const std::string& dir, const ManifestEntry& me,
                                        const ModelFactory& factory) {
  auto entry = std::make_shared<ModelEntry>(me.name, factory(me.name));
  nn::load_params_file(entry->model.params(), dir + "/" + me.params_file);
  const io::Blob blob =
      io::read_blob_file(dir + "/" + me.artifacts_file, kArtifactsMagic,
                         kArtifactsVersion, "model artifacts");
  decode_artifacts(blob.payload, *entry, "model artifacts '" + me.name + "'");
  return entry;
}

}  // namespace

std::optional<RestoreResult> restore_snapshot(ModelRegistry& registry,
                                              const std::string& dir,
                                              const ModelFactory& factory) {
  EUGENE_REQUIRE(factory != nullptr, "restore_snapshot: null model factory");
  const std::optional<Manifest> manifest = read_manifest(dir);
  if (!manifest.has_value()) return std::nullopt;

  RestoreResult result;
  result.epoch = manifest->epoch;
  for (const auto& me : manifest->models) {
    registry.add_entry(build_entry(dir, me, factory));
    ++result.models_restored;
  }
  EUGENE_LOG(Info) << "snapshot: restored epoch " << result.epoch << " ("
                   << result.models_restored << " model(s)) from " << dir;
  return result;
}

std::optional<RestoreResult> reload_snapshot(ModelRegistry& registry,
                                             const std::string& dir,
                                             const ModelFactory& factory) {
  EUGENE_REQUIRE(factory != nullptr, "reload_snapshot: null model factory");
  const std::optional<Manifest> manifest = read_manifest(dir);
  if (!manifest.has_value()) return std::nullopt;

  // Build everything off to the side first: a corrupt file aborts the reload
  // before any publication, and the batch publish below lands every model in
  // ONE registry epoch — live traffic never sees a half-reloaded set.
  std::vector<std::shared_ptr<ModelEntry>> entries;
  entries.reserve(manifest->models.size());
  for (const auto& me : manifest->models)
    entries.push_back(build_entry(dir, me, factory));

  RestoreResult result;
  result.epoch = manifest->epoch;
  result.models_restored = entries.size();
  registry.replace_or_add(std::move(entries));
  EUGENE_LOG(Info) << "snapshot: reloaded epoch " << result.epoch << " ("
                   << result.models_restored << " model(s)) from " << dir;
  return result;
}

}  // namespace eugene::serving
