// Recovery chaos suite (DESIGN.md §9 "Durability model"): snapshots a
// registry of calibrated models, tears process state down, restores into a
// fresh registry, and proves the warm-restarted server answers identically —
// then arms failpoints that kill the writer mid-checkpoint, commit short or
// bit-flipped files, and cut journal frames in half, asserting that restore
// either falls back to the previous good snapshot or fails with a typed
// error. Never garbage weights, never a hang.
//
// The deterministic Recovery.* tests disarm environment failpoints via
// FailpointGuard; RecoveryEnv.* deliberately leaves EUGENE_FAILPOINTS armed
// so CI's kill-mid-checkpoint job can inject background crashes.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>

#include "calib/evaluation.hpp"
#include "common/crc32.hpp"
#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/metrics.hpp"
#include "core/eugene_service.hpp"
#include "nn/serialize.hpp"
#include "serving/snapshot.hpp"
#include "serving/usage.hpp"
#include "serving_fixtures.hpp"

namespace eugene {
namespace {

namespace fs = std::filesystem;

std::vector<serving::InferenceResponse> serve(const serving::ModelEntry& entry,
                                              const std::vector<serving::InferenceRequest>& requests) {
  serving::ServerConfig cfg;
  cfg.early_exit_confidence = 0.8;
  serving::InferenceServer server(entry, cfg);
  return server.process_batch(requests);
}

// ---- the acceptance-criteria test -----------------------------------------

TEST(Recovery, WarmRestartServesIdenticalResults) {
  FailpointGuard guard;
  TempDir dir("recovery_warm");

  // "Old process": registered + calibrated models, snapshotted to disk.
  serving::ModelRegistry before;
  add_calibrated_model(before, "doorbell", 1);
  add_calibrated_model(before, "camera", 2);
  const auto requests = make_requests(12);
  const auto expected = serve(before.pin()->entry(0), requests);
  const std::uint64_t epoch = serving::save_snapshot(before, dir.path);
  EXPECT_EQ(epoch, 1u);

  // "New process" after kill -9: nothing survives but the directory.
  serving::ModelRegistry after;
  const auto result = serving::restore_snapshot(after, dir.path, tiny_factory());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->models_restored, 2u);
  EXPECT_EQ(result->epoch, 1u);
  EXPECT_EQ(after.find("doorbell").value(), 0u);
  EXPECT_EQ(after.find("camera").value(), 1u);

  // The restored entry is serve-ready — calibrated, costed, curve-fitted —
  // and answers with identical (label, confidence) pairs.
  const serving::ModelRegistry::ViewPtr view = after.pin();
  const serving::ModelEntry& e = view->entry(0);
  EXPECT_TRUE(e.calibrated);
  EXPECT_EQ(e.stage_ms, (std::vector<double>{2.0, 2.0}));
  EXPECT_EQ(e.calibration_alpha, (std::vector<double>{0.4, 0.6}));
  EXPECT_TRUE(e.curves.fitted());

  const auto actual = serve(e, requests);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].label, expected[i].label) << "request " << i;
    EXPECT_NEAR(actual[i].confidence, expected[i].confidence, 1e-12) << "request " << i;
    EXPECT_EQ(actual[i].stages_run, expected[i].stages_run) << "request " << i;
  }
}

TEST(Recovery, KillMidCheckpointFallsBackToPreviousGoodSnapshot) {
  FailpointGuard guard;
  TempDir dir("recovery_fallback");

  serving::ModelRegistry registry;
  add_calibrated_model(registry, "model", 1);
  ASSERT_EQ(serving::save_snapshot(registry, dir.path), 1u);

  // Mutate state, then die right before the manifest commit.
  registry.update(0, [](serving::ModelEntry& e) { e.calibration_alpha = {9.9, 9.9}; });
  FailpointRegistry::instance().arm("snapshot.manifest.crash", FailpointSpec{});
  EXPECT_THROW((void)serving::save_snapshot(registry, dir.path), FailpointError);
  FailpointRegistry::instance().disarm_all();

  // The torn attempt left epoch-2 debris but no commit: restore must see
  // epoch 1 with the original α.
  serving::ModelRegistry restored;
  const auto result = serving::restore_snapshot(restored, dir.path, tiny_factory());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->epoch, 1u);
  EXPECT_EQ(restored.pin()->entry(0).calibration_alpha, (std::vector<double>{0.4, 0.6}));

  // The next snapshot reuses the torn epoch number — its debris is
  // atomically overwritten — and commits cleanly.
  const std::uint64_t epoch3 = serving::save_snapshot(registry, dir.path);
  EXPECT_EQ(epoch3, 2u);
  serving::ModelRegistry restored2;
  const auto r2 = serving::restore_snapshot(restored2, dir.path, tiny_factory());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(restored2.pin()->entry(0).calibration_alpha, (std::vector<double>{9.9, 9.9}));
}

TEST(Recovery, TornWriteDuringArtifactSaveKeepsPreviousSnapshot) {
  FailpointGuard guard;
  TempDir dir("recovery_torn");

  serving::ModelRegistry registry;
  add_calibrated_model(registry, "model", 1);
  ASSERT_EQ(serving::save_snapshot(registry, dir.path), 1u);

  registry.update(0, [](serving::ModelEntry& e) { e.calibration_alpha = {7.7, 7.7}; });
  FailpointSpec one_shot;
  one_shot.max_fires = 1;
  FailpointRegistry::instance().arm("io.atomic.torn", one_shot);
  EXPECT_THROW((void)serving::save_snapshot(registry, dir.path), FailpointError);
  FailpointRegistry::instance().disarm_all();

  serving::ModelRegistry restored;
  const auto result = serving::restore_snapshot(restored, dir.path, tiny_factory());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->epoch, 1u);
  EXPECT_EQ(restored.pin()->entry(0).calibration_alpha, (std::vector<double>{0.4, 0.6}));
}

TEST(Recovery, ShortAndBitFlippedCheckpointsThrowTypedErrors) {
  for (const char* fp : {"io.atomic.short", "io.atomic.corrupt"}) {
    FailpointGuard guard;
    TempDir dir(std::string("recovery_") + (fp + 10));  // strip "io.atomic."

    serving::ModelRegistry registry;
    add_calibrated_model(registry, "model", 1);

    // Every file of this snapshot commits damaged (the failpoint fires on
    // each atomic write, manifest included): restore must refuse with a
    // typed CorruptionError, not load garbage.
    FailpointRegistry::instance().arm(fp, FailpointSpec{});
    (void)serving::save_snapshot(registry, dir.path);
    FailpointRegistry::instance().disarm_all();

    serving::ModelRegistry restored;
    EXPECT_THROW((void)serving::restore_snapshot(restored, dir.path, tiny_factory()),
                 CorruptionError)
        << fp;
  }
}

TEST(Recovery, MissingCheckpointFileThrowsIoError) {
  // A file the manifest names but the disk lacks is an I/O failure, the same
  // type a missing artifacts file raises, not a caller's broken
  // precondition.
  FailpointGuard guard;
  TempDir dir("recovery_missing_params");
  serving::ModelRegistry registry;
  add_calibrated_model(registry, "model", 1);
  const std::uint64_t epoch = serving::save_snapshot(registry, dir.path);
  const std::string params_path =
      dir.path + "/model-0.params." + std::to_string(epoch);
  ASSERT_TRUE(io::file_exists(params_path));
  fs::remove(params_path);

  serving::ModelRegistry restored;
  EXPECT_THROW((void)serving::restore_snapshot(restored, dir.path, tiny_factory()),
               IoError);
  nn::StagedModel model = nn::build_staged_resnet(tiny_model_config());
  EXPECT_THROW(nn::load_params_file(model.params(), params_path), IoError);
}

TEST(Recovery, RestoreFromEmptyOrMissingDirIsCleanColdStart) {
  FailpointGuard guard;
  TempDir dir("recovery_cold");
  serving::ModelRegistry registry;
  EXPECT_FALSE(
      serving::restore_snapshot(registry, dir.path, tiny_factory()).has_value());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Recovery, RestoreIntoOccupiedRegistryRejectsDuplicateName) {
  // Regression for ModelRegistry::add's unique-name contract, exercised
  // through the restore path.
  FailpointGuard guard;
  TempDir dir("recovery_dup");
  serving::ModelRegistry registry;
  add_calibrated_model(registry, "model", 1);
  (void)serving::save_snapshot(registry, dir.path);

  EXPECT_THROW((void)serving::restore_snapshot(registry, dir.path, tiny_factory()),
               InvalidArgument);
  // Direct duplicate add keeps throwing too.
  EXPECT_THROW(registry.add("model", nn::build_staged_resnet(tiny_model_config())),
               InvalidArgument);
}

TEST(Recovery, EugeneServiceFacadeRoundTrips) {
  FailpointGuard guard;
  TempDir dir("recovery_facade");

  core::EugeneService old_service;
  add_calibrated_model(old_service.registry(), "svc-model", 3);
  EXPECT_EQ(old_service.snapshot(dir.path), 1u);

  core::EugeneService new_service;
  EXPECT_EQ(new_service.restore(dir.path, tiny_factory()), 1u);
  const auto requests = make_requests(4);
  const auto old_responses = serve(old_service.registry().pin()->entry(0), requests);
  const auto new_responses = serve(new_service.registry().pin()->entry(0), requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(new_responses[i].label, old_responses[i].label);
    EXPECT_NEAR(new_responses[i].confidence, old_responses[i].confidence, 1e-12);
  }
}

TEST(Recovery, RestoredCurvesEqualPublishedOnes) {
  FailpointGuard guard;
  TempDir dir("recovery_gp");
  serving::ModelRegistry registry;
  add_calibrated_model(registry, "model", 1);
  (void)serving::save_snapshot(registry, dir.path);

  serving::ModelRegistry restored;
  ASSERT_TRUE(serving::restore_snapshot(restored, dir.path, tiny_factory()).has_value());
  const serving::ModelRegistry::ViewPtr published = registry.pin();
  const serving::ModelRegistry::ViewPtr restored_view = restored.pin();
  const gp::ConfidenceCurveModel& original = published->entry(0).curves;
  const gp::ConfidenceCurveModel& curves = restored_view->entry(0).curves;
  // The curves the scheduler queries match the original...
  for (double c = 0.0; c <= 1.0; c += 0.125)
    EXPECT_NEAR(curves.predict(0, 1, c), original.predict(0, 1, c), 1e-12);
  EXPECT_NEAR(curves.prior_confidence(0), original.prior_confidence(0), 1e-12);
  // ...because the model is nothing but its profiles and priors, and those
  // round-trip bit for bit.
  ASSERT_EQ(curves.num_stages(), original.num_stages());
  EXPECT_EQ(curves.priors(), original.priors());
  const gp::PiecewiseLinear& knots = curves.approximation(0, 1);
  const gp::PiecewiseLinear& original_knots = original.approximation(0, 1);
  EXPECT_EQ(knots.knot_values(), original_knots.knot_values());
  EXPECT_EQ(knots.lo(), original_knots.lo());
  EXPECT_EQ(knots.hi(), original_knots.hi());
}

// ---- usage-journal recovery -----------------------------------------------

std::vector<double> journal_costs() { return {2.0, 3.0}; }

serving::InferenceResponse fake_response(std::size_t stages, bool expired,
                                         bool degraded, std::size_t retries) {
  serving::InferenceResponse r;
  r.stages_run = stages;
  r.expired = expired;
  r.degraded = degraded;
  r.retries = retries;
  return r;
}

TEST(Recovery, UsageJournalReplayRebuildsLedger) {
  FailpointGuard guard;
  TempDir dir("recovery_journal");
  const std::string path = dir.path;
  std::error_code ec;
  fs::create_directory(path, ec);
  const std::string journal = path + "/usage.journal";

  serving::UsageMeter meter(journal_costs(), {"interactive", "batch"});
  meter.open_journal(journal);
  meter.record({{tensor::Tensor::zeros({1}), 0}, {tensor::Tensor::zeros({1}), 1}},
               {fake_response(2, false, false, 0), fake_response(1, false, true, 3)},
               kStages);
  meter.record({{tensor::Tensor::zeros({1}), 1}},
               {fake_response(1, true, false, 0)}, kStages);

  // Crash; a fresh meter replays the ledger.
  serving::UsageMeter recovered(journal_costs(), {"interactive", "batch"});
  const serving::JournalReplay replay = recovered.replay_journal(journal);
  EXPECT_EQ(replay.frames, 2u);
  EXPECT_FALSE(replay.truncated);

  const auto before = meter.usage();
  const auto after = recovered.usage();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t c = 0; c < after.size(); ++c) {
    EXPECT_EQ(after[c].requests, before[c].requests);
    EXPECT_EQ(after[c].stages_executed, before[c].stages_executed);
    EXPECT_DOUBLE_EQ(after[c].compute_ms, before[c].compute_ms);
    EXPECT_EQ(after[c].expired, before[c].expired);
    EXPECT_EQ(after[c].early_exits, before[c].early_exits);
    EXPECT_EQ(after[c].shed, before[c].shed);
    EXPECT_EQ(after[c].retries, before[c].retries);
  }
  // Billing derived from the replayed ledger matches.
  serving::PricingPolicy pricing;
  EXPECT_DOUBLE_EQ(recovered.total_charge(pricing), meter.total_charge(pricing));
}

TEST(Recovery, UsageJournalBillsNoDrainedResponse) {
  // A draining response was refused at the lifecycle gate before any stage
  // ran. It is not a request admitted, an early exit or a charge, in the
  // ledger, the journal or the usage.* metrics.
  FailpointGuard guard;
  TempDir dir("recovery_jdrain");
  std::error_code ec;
  fs::create_directory(dir.path, ec);
  const std::string journal = dir.path + "/usage.journal";
  telemetry::MetricsRegistry& metrics = telemetry::MetricsRegistry::global();
  const std::uint64_t requests_before = metrics.counter("usage.requests").value();

  serving::InferenceResponse drained;
  drained.draining = true;
  serving::UsageMeter meter(journal_costs(), {"interactive", "batch"});
  meter.open_journal(journal);
  meter.record({{tensor::Tensor::zeros({1}), 0}, {tensor::Tensor::zeros({1}), 1}},
               {drained, drained}, kStages);
  meter.close_journal();
  EXPECT_EQ(metrics.counter("usage.requests").value(), requests_before);

  serving::UsageMeter recovered(journal_costs(), {"interactive", "batch"});
  const serving::JournalReplay replay = recovered.replay_journal(journal);
  EXPECT_EQ(replay.frames, 0u);
  EXPECT_FALSE(replay.truncated);
  const serving::PricingPolicy pricing;
  for (const serving::UsageMeter* m : {&meter, &recovered}) {
    EXPECT_EQ(m->total_charge(pricing), 0.0);
    for (const serving::ClassUsage& u : m->usage()) {
      EXPECT_EQ(u.requests, 0u) << u.class_name;
      EXPECT_EQ(u.stages_executed, 0u) << u.class_name;
      EXPECT_EQ(u.compute_ms, 0.0) << u.class_name;
      EXPECT_EQ(u.expired, 0u) << u.class_name;
      EXPECT_EQ(u.early_exits, 0u) << u.class_name;
      EXPECT_EQ(u.shed, 0u) << u.class_name;
      EXPECT_EQ(u.retries, 0u) << u.class_name;
    }
  }
}

TEST(Recovery, UsageJournalTornTailKeepsCommittedFrames) {
  FailpointGuard guard;
  TempDir dir("recovery_jtorn");
  std::error_code ec;
  fs::create_directory(dir.path, ec);
  const std::string journal = dir.path + "/usage.journal";

  serving::UsageMeter meter(journal_costs(), {"only"});
  meter.open_journal(journal);
  meter.record({{tensor::Tensor::zeros({1}), 0}}, {fake_response(2, false, false, 0)},
               kStages);

  // The second append dies halfway through its frame.
  FailpointRegistry::instance().arm("usage.journal.torn", FailpointSpec{});
  EXPECT_THROW(meter.record({{tensor::Tensor::zeros({1}), 0}},
                            {fake_response(1, false, false, 0)}, kStages),
               FailpointError);
  FailpointRegistry::instance().disarm_all();

  serving::UsageMeter recovered(journal_costs(), {"only"});
  const serving::JournalReplay replay = recovered.replay_journal(journal);
  EXPECT_EQ(replay.frames, 1u);  // the committed frame survives
  EXPECT_TRUE(replay.truncated);
  EXPECT_EQ(recovered.usage()[0].requests, 1u);
  EXPECT_EQ(recovered.usage()[0].stages_executed, 2u);
}

TEST(Recovery, UsageJournalReopenAfterCrashTruncatesTornTail) {
  // Regression: the documented recovery flow (replay, reopen, record) used
  // to append fresh frames *after* the torn tail, so every later replay hit
  // a CRC mismatch mid-file and threw — permanently losing the ledger.
  FailpointGuard guard;
  TempDir dir("recovery_jreopen");
  std::error_code ec;
  fs::create_directory(dir.path, ec);
  const std::string journal = dir.path + "/usage.journal";

  serving::UsageMeter meter(journal_costs(), {"only"});
  meter.open_journal(journal);
  meter.record({{tensor::Tensor::zeros({1}), 0}}, {fake_response(2, false, false, 0)},
               kStages);
  FailpointRegistry::instance().arm("usage.journal.torn", FailpointSpec{});
  EXPECT_THROW(meter.record({{tensor::Tensor::zeros({1}), 0}},
                            {fake_response(1, false, false, 0)}, kStages),
               FailpointError);
  FailpointRegistry::instance().disarm_all();

  // "Restarted process": replay, reopen (cutting the torn tail), record on.
  serving::UsageMeter recovered(journal_costs(), {"only"});
  EXPECT_EQ(recovered.replay_journal(journal).frames, 1u);
  recovered.open_journal(journal);
  recovered.record({{tensor::Tensor::zeros({1}), 0}},
                   {fake_response(1, false, false, 0)}, kStages);

  // Every subsequent restart replays the whole ledger cleanly.
  serving::UsageMeter final_meter(journal_costs(), {"only"});
  const serving::JournalReplay replay = final_meter.replay_journal(journal);
  EXPECT_EQ(replay.frames, 2u);
  EXPECT_FALSE(replay.truncated);
  EXPECT_EQ(final_meter.usage()[0].requests, 2u);
  EXPECT_EQ(final_meter.usage()[0].stages_executed, 3u);
}

TEST(Recovery, UsageJournalReopenAfterPartialHeaderStartsFresh) {
  // A crash between journal creation and the header write leaves a 0-byte
  // (or shorter-than-header) file; reopening must rewrite the header, not
  // append after the stump and poison every later replay.
  FailpointGuard guard;
  TempDir dir("recovery_jstub");
  std::error_code ec;
  fs::create_directory(dir.path, ec);
  for (const std::vector<std::uint8_t>& stump :
       {std::vector<std::uint8_t>{}, std::vector<std::uint8_t>{0x45, 0x55, 0x47}}) {
    const std::string journal = dir.path + "/usage.journal";
    io::atomic_write_file(journal, stump);

    serving::UsageMeter meter(journal_costs(), {"only"});
    meter.open_journal(journal);
    meter.record({{tensor::Tensor::zeros({1}), 0}},
                 {fake_response(2, false, false, 0)}, kStages);

    serving::UsageMeter recovered(journal_costs(), {"only"});
    const serving::JournalReplay replay = recovered.replay_journal(journal);
    EXPECT_EQ(replay.frames, 1u) << "stump size " << stump.size();
    EXPECT_FALSE(replay.truncated) << "stump size " << stump.size();
    fs::remove(journal, ec);
  }
}

TEST(Recovery, UsageJournalRejectsForeignFile) {
  FailpointGuard guard;
  TempDir dir("recovery_jbad");
  std::error_code ec;
  fs::create_directory(dir.path, ec);
  const std::string journal = dir.path + "/usage.journal";
  io::atomic_write_file(journal, {'n', 'o', 't', ' ', 'a', ' ', 'j', 'o', 'u', 'r',
                                  'n', 'a', 'l', '!', '!', '!'});

  serving::UsageMeter meter(journal_costs(), {"only"});
  EXPECT_THROW(meter.replay_journal(journal), CorruptionError);
  // open_journal refuses to append to a non-journal, too.
  EXPECT_THROW(meter.open_journal(journal), CorruptionError);
  // A missing journal is a cold start, not an error.
  EXPECT_EQ(meter.replay_journal(dir.path + "/absent.journal").frames, 0u);
}

/// A byte-exact version-1 journal image, the layout the meter writes:
/// header {magic, 1} and one frame whose class rows have seven fields and
/// nothing after them. Replay must accept it forever.
std::vector<std::uint8_t> v1_journal_image() {
  io::ByteWriter payload;
  payload.u64(1);    // touched classes
  payload.u32(0);    // class id
  payload.u64(2);    // requests
  payload.u64(3);    // stages_executed
  payload.f64(7.0);  // compute_ms
  payload.u64(1);    // expired
  payload.u64(0);    // early_exits
  payload.u64(1);    // shed
  payload.u64(2);    // retries — v1 rows end here
  const std::vector<std::uint8_t>& p = payload.buffer();
  io::ByteWriter file;
  file.u32(0x4A475545);  // "EUGJ"
  file.u32(1);           // version 1
  file.u32(static_cast<std::uint32_t>(p.size()));
  file.u32(crc32(p.data(), p.size()));
  file.raw(p.data(), p.size());
  return file.take();
}

TEST(Recovery, UsageJournalV1ImageReplaysCompatibly) {
  // The written format, pinned byte for byte: a v1 image replays every
  // column of its class row.
  FailpointGuard guard;
  serving::UsageMeter meter(journal_costs(), {"only"});
  const serving::JournalReplay replay =
      meter.replay_journal_image(v1_journal_image(), "v1 image");
  EXPECT_EQ(replay.frames, 1u);
  EXPECT_FALSE(replay.truncated);
  const serving::ClassUsage u = meter.usage()[0];
  EXPECT_EQ(u.requests, 2u);
  EXPECT_EQ(u.stages_executed, 3u);
  EXPECT_DOUBLE_EQ(u.compute_ms, 7.0);
  EXPECT_EQ(u.expired, 1u);
  EXPECT_EQ(u.shed, 1u);
  EXPECT_EQ(u.retries, 2u);
}

TEST(Recovery, UsageJournalAppendToV1FileStaysV1) {
  // open_journal on an existing v1 file appends v1 frames after it, so the
  // file keeps one encoding and replays whole.
  FailpointGuard guard;
  TempDir dir("recovery_jv1");
  std::error_code ec;
  fs::create_directory(dir.path, ec);
  const std::string journal = dir.path + "/usage.journal";
  io::atomic_write_file(journal, v1_journal_image());

  serving::UsageMeter meter(journal_costs(), {"only"});
  meter.replay_journal(journal);
  meter.open_journal(journal);
  meter.record({{tensor::Tensor::zeros({1}), 0}}, {fake_response(1, false, false, 0)},
               kStages);

  serving::UsageMeter recovered(journal_costs(), {"only"});
  const serving::JournalReplay replay = recovered.replay_journal(journal);
  EXPECT_EQ(replay.frames, 2u);  // v1 seed frame + the appended frame
  EXPECT_FALSE(replay.truncated);
  EXPECT_EQ(recovered.usage()[0].requests, 3u);
  EXPECT_EQ(recovered.usage()[0].stages_executed, 4u);
  EXPECT_DOUBLE_EQ(recovered.usage()[0].compute_ms, meter.usage()[0].compute_ms);
}

TEST(Recovery, UsageJournalWritesVersionOneRows) {
  // A journal this build creates carries header version 1, and each frame
  // holds seven-column class rows: the touched-class count, then per class
  // its id and seven 8-byte columns, and nothing after them.
  FailpointGuard guard;
  TempDir dir("recovery_jwrite");
  std::error_code ec;
  fs::create_directory(dir.path, ec);
  const std::string journal = dir.path + "/usage.journal";

  serving::UsageMeter meter(journal_costs(), {"interactive", "batch"});
  meter.open_journal(journal);
  meter.record({{tensor::Tensor::zeros({1}), 0}, {tensor::Tensor::zeros({1}), 1}},
               {fake_response(2, false, false, 1), fake_response(1, true, false, 0)},
               kStages);
  meter.close_journal();

  const std::vector<std::uint8_t> bytes = io::read_file_bytes(journal);
  io::ByteReader r(bytes, "journal");
  EXPECT_EQ(r.u32(), 0x4A475545u);  // "EUGJ"
  EXPECT_EQ(r.u32(), 1u);           // header version
  const std::uint32_t len = r.u32();
  (void)r.u32();                    // CRC
  EXPECT_EQ(len, 8u + 2u * (4u + 7u * 8u));
  EXPECT_EQ(r.u64(), 2u);           // touched classes
  for (std::uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(r.u32(), c);
    for (int col = 0; col < 7; ++col) (void)r.u64();
  }
  r.expect_exhausted();
}

/// A byte-exact version-2 journal image, the layout earlier builds wrote:
/// header {magic, 2}, one frame whose class row carries an eighth
/// (brown-out) column and which ends in a three-counter block (hedges
/// issued, hedges won, breaker trips).
std::vector<std::uint8_t> v2_journal_image() {
  io::ByteWriter payload;
  payload.u64(1);    // touched classes
  payload.u32(0);    // class id
  payload.u64(4);    // requests
  payload.u64(6);    // stages_executed
  payload.f64(9.5);  // compute_ms
  payload.u64(1);    // expired
  payload.u64(2);    // early_exits
  payload.u64(1);    // shed
  payload.u64(3);    // retries
  payload.u64(1);    // brown-out column
  payload.u64(5);    // hedges issued
  payload.u64(2);    // hedges won
  payload.u64(1);    // breaker trips
  const std::vector<std::uint8_t>& p = payload.buffer();
  io::ByteWriter file;
  file.u32(0x4A475545);  // "EUGJ"
  file.u32(2);           // version 2
  file.u32(static_cast<std::uint32_t>(p.size()));
  file.u32(crc32(p.data(), p.size()));
  file.raw(p.data(), p.size());
  return file.take();
}

TEST(Recovery, UsageJournalV2ImageReplaysAndRefusesAppend) {
  // A v2 journal still replays: its class columns count, and the brown-out
  // column and the counter block are read and discarded. Appending to it is
  // refused typed, with the file left exactly as it was.
  FailpointGuard guard;
  TempDir dir("recovery_jv2");
  std::error_code ec;
  fs::create_directory(dir.path, ec);
  const std::string journal = dir.path + "/usage.journal";
  const std::vector<std::uint8_t> image = v2_journal_image();
  io::atomic_write_file(journal, image);

  serving::UsageMeter meter(journal_costs(), {"only"});
  const serving::JournalReplay replay = meter.replay_journal(journal);
  EXPECT_EQ(replay.frames, 1u);
  EXPECT_FALSE(replay.truncated);
  const serving::ClassUsage u = meter.usage()[0];
  EXPECT_EQ(u.requests, 4u);
  EXPECT_EQ(u.stages_executed, 6u);
  EXPECT_DOUBLE_EQ(u.compute_ms, 9.5);
  EXPECT_EQ(u.expired, 1u);
  EXPECT_EQ(u.early_exits, 2u);
  EXPECT_EQ(u.shed, 1u);
  EXPECT_EQ(u.retries, 3u);

  EXPECT_THROW(meter.open_journal(journal), InvalidArgument);
  EXPECT_EQ(io::read_file_bytes(journal), image);
  // The meter stays detached: a record counts in memory only.
  meter.record({{tensor::Tensor::zeros({1}), 0}}, {fake_response(1, false, false, 0)},
               kStages);
  EXPECT_EQ(io::read_file_bytes(journal), image);
}

TEST(Recovery, UsageJournalFailedAppendKeepsLedgerReplayable) {
  // A write that fails partway (here: the file-size limit cuts the second
  // frame 10 bytes in) must leave neither the partial frame on disk nor the
  // batch in memory. Otherwise the next append lands after the stray bytes,
  // every replay throws CRC mismatch mid-file, and the whole ledger is lost.
  FailpointGuard guard;
  TempDir dir("recovery_jfsize");
  std::error_code ec;
  fs::create_directory(dir.path, ec);
  const std::string journal = dir.path + "/usage.journal";

  serving::UsageMeter meter(journal_costs(), {"only"});
  meter.open_journal(journal);
  meter.record({{tensor::Tensor::zeros({1}), 0}}, {fake_response(2, false, false, 0)},
               kStages);
  const std::uintmax_t committed = fs::file_size(journal);

  // Past RLIMIT_FSIZE a write fails with EFBIG instead of raising SIGXFSZ.
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction saved_action {};
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore, &saved_action), 0);
  rlimit saved_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  rlimit capped = saved_limit;
  capped.rlim_cur = static_cast<rlim_t>(committed + 10);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  bool threw = false;
  try {
    meter.record({{tensor::Tensor::zeros({1}), 0}}, {fake_response(1, false, false, 0)},
                 kStages);
  } catch (const IoError&) {
    threw = true;
  }
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  ASSERT_EQ(::sigaction(SIGXFSZ, &saved_action, nullptr), 0);
  EXPECT_TRUE(threw);
  EXPECT_EQ(fs::file_size(journal), committed);  // the partial frame is gone
  EXPECT_EQ(meter.usage()[0].requests, 1u);      // and the batch never counted

  meter.record({{tensor::Tensor::zeros({1}), 0}}, {fake_response(1, false, false, 0)},
               kStages);
  serving::UsageMeter recovered(journal_costs(), {"only"});
  const serving::JournalReplay replay = recovered.replay_journal(journal);
  EXPECT_EQ(replay.frames, 2u);
  EXPECT_FALSE(replay.truncated);
  const serving::ClassUsage live = meter.usage()[0];
  const serving::ClassUsage replayed = recovered.usage()[0];
  EXPECT_EQ(replayed.requests, live.requests);
  EXPECT_EQ(replayed.stages_executed, live.stages_executed);
  EXPECT_DOUBLE_EQ(replayed.compute_ms, live.compute_ms);
}

// ---- adversarial snapshot payloads ------------------------------------------

TEST(Recovery, ManifestWithImplausibleModelCountThrowsTyped) {
  // A CRC-valid (tampered or colliding) manifest claiming 2^40 models must
  // surface as CorruptionError, not std::length_error/bad_alloc from resize.
  FailpointGuard guard;
  TempDir dir("recovery_mcount");
  std::error_code ec;
  fs::create_directory(dir.path, ec);
  io::ByteWriter w;
  w.u64(1);                        // epoch
  w.u64(std::uint64_t{1} << 40);   // model count far beyond the payload
  io::write_blob_file(dir.path + "/MANIFEST", 0x4D475545u /* "EUGM" */, 1u,
                      w.take());

  serving::ModelRegistry registry;
  EXPECT_THROW((void)serving::restore_snapshot(registry, dir.path, tiny_factory()),
               CorruptionError);
}

/// An artifacts payload in the snapshot layout: an uncalibrated entry (no
/// curves), its stage times, the retired jitter slot, and α.
std::vector<std::uint8_t> artifacts_payload(const std::vector<double>& stage_ms,
                                            double jitter_slot,
                                            const std::vector<double>& alpha) {
  io::ByteWriter w;
  w.u8(0);  // calibrated
  w.u64(0);  // curve stages
  w.f64_vec(stage_ms);
  w.f64(jitter_slot);
  w.f64_vec(alpha);
  return w.take();
}

TEST(Recovery, ArtifactsWithNonZeroJitterSlotDecode) {
  // Snapshots written before stage times became a plain vector may hold a
  // non-zero jitter fraction in the slot after them; it is skipped, and the
  // stage times and α decode as written.
  FailpointGuard guard;
  serving::ModelEntry entry("model", nn::build_staged_resnet(tiny_model_config()));
  serving::detail::decode_artifacts_payload(
      artifacts_payload({1.5, 2.5}, 0.25, {0.4, 0.6}), entry, "parent layout");
  EXPECT_EQ(entry.stage_ms, (std::vector<double>{1.5, 2.5}));
  EXPECT_EQ(entry.calibration_alpha, (std::vector<double>{0.4, 0.6}));
  EXPECT_FALSE(entry.calibrated);
}

TEST(Recovery, ArtifactsWriteZeroInJitterSlot) {
  // The writer keeps the layout, so older builds restore these snapshots:
  // the artifacts file holds exactly the hand-built payload, jitter slot 0.
  FailpointGuard guard;
  TempDir dir("recovery_artlayout");
  serving::ModelRegistry registry;
  const std::size_t handle =
      registry.add("model", nn::build_staged_resnet(tiny_model_config()));
  registry.update(handle, [](serving::ModelEntry& e) {
    e.stage_ms = {1.5, 2.5};
    e.calibration_alpha = {0.4, 0.6};
  });
  (void)serving::save_snapshot(registry, dir.path);

  std::vector<std::uint8_t> payload;
  for (const auto& de : fs::directory_iterator(dir.path)) {
    if (de.path().filename().string().find("artifacts") == std::string::npos) continue;
    payload = io::decode_blob(io::read_file_bytes(de.path().string()), 0x41475545u,
                              1u, "artifacts")
                  .payload;
  }
  EXPECT_EQ(payload, artifacts_payload({1.5, 2.5}, 0.0, {0.4, 0.6}));
}

TEST(Recovery, MixedSnapshotArtifactVectorsThrowTyped) {
  // Per-stage cost/α vectors whose length disagrees with the model are the
  // mixed-snapshot signature: restore must fail typed at load time, not
  // later at serving time with an error far from the cause.
  for (const bool bad_alpha : {false, true}) {
    FailpointGuard guard;
    TempDir dir(bad_alpha ? "recovery_mixalpha" : "recovery_mixcost");
    auto entry = make_calibrated_entry("model", 1);
    if (bad_alpha)
      entry->calibration_alpha = {0.1, 0.2, 0.3};  // 3-stage α
    else
      entry->stage_ms = {1.0, 2.0, 3.0};  // 3-stage costs
    serving::ModelRegistry registry;
    registry.add_entry(std::move(entry));
    (void)serving::save_snapshot(registry, dir.path);

    serving::ModelRegistry restored;
    EXPECT_THROW((void)serving::restore_snapshot(restored, dir.path, tiny_factory()),
                 CorruptionError)
        << (bad_alpha ? "alpha" : "costs");
  }
}

// ---- environment-armed chaos (CI's kill-mid-checkpoint job) ---------------

// With EUGENE_FAILPOINTS arming snapshot.manifest.crash (or io.atomic.torn)
// probabilistically, this loop snapshots, sometimes dies mid-checkpoint,
// restores, and asserts the invariant that makes crashes survivable: every
// restore yields the state of the *last committed* snapshot, bit for bit.
// With nothing armed it degenerates to a plain snapshot/restore stress loop.
TEST(RecoveryEnv, RestoreAlwaysSeesLastCommittedSnapshot) {
  TempDir dir("recovery_env");
  serving::ModelRegistry registry;
  add_calibrated_model(registry, "model", 1);

  std::vector<double> committed_alpha = {0.4, 0.6};  // state of the last commit
  bool any_commit = false;
  for (int round = 0; round < 12; ++round) {
    const std::vector<double> next_alpha = {0.1 * round, 0.2 * round};
    registry.update(0, [&](serving::ModelEntry& e) { e.calibration_alpha = next_alpha; });
    try {
      (void)serving::save_snapshot(registry, dir.path);
      committed_alpha = next_alpha;
      any_commit = true;
    } catch (const FailpointError&) {
      // Simulated kill mid-checkpoint: the previous commit must survive.
    }

    serving::ModelRegistry restored;
    try {
      const auto result = serving::restore_snapshot(restored, dir.path, tiny_factory());
      if (any_commit) {
        ASSERT_TRUE(result.has_value()) << "round " << round;
        EXPECT_EQ(restored.pin()->entry(0).calibration_alpha, committed_alpha)
            << "round " << round;
      }
    } catch (const FailpointError&) {
      // io.atomic failpoints may also fire on restore-side reads? They do
      // not — reads have no failpoint sites — but a probabilistic
      // environment spec may arm arbitrary names; only writer seams exist.
    }
  }
}

}  // namespace
}  // namespace eugene
