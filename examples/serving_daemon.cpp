// Zero-downtime serving daemon (DESIGN.md §13): the operational shape of a
// long-lived Eugene process.
//
//   1. warm restart — restore() the last committed snapshot (or register a
//      fresh model when the directory is empty);
//   2. serve — client threads push inference batches to one shared model
//      while a background operator thread takes *live* snapshots and
//      hot-swaps retrained weights, all without pausing traffic
//      (epoch-pinned registry);
//   3. graceful shutdown — SIGTERM flips a flag; the main loop calls
//      begin_drain(), which rejects new work with typed drain responses,
//      waits for in-flight requests, flushes the usage journal, and writes
//      the final snapshot before the process exits 0.
//
// Build & run:  ./build/examples/serving_daemon [state_dir]
// The daemon raises SIGTERM against itself after ~2 s of traffic so the
// example terminates unattended; `kill -TERM <pid>` works identically.
#include <csignal>
#include <cstdio>

#include <atomic>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "calib/evaluation.hpp"
#include "common/logging.hpp"
#include "core/eugene_service.hpp"
#include "serving/usage.hpp"

using namespace eugene;

namespace {

// SIGTERM handling, the POSIX way: the handler only sets a lock-free flag
// (the only thing that is async-signal-safe here); the serving loop polls it
// and runs the drain sequence in normal thread context.
std::atomic<bool> g_terminate{false};  // NOLINT(*-avoid-non-const-global-variables)

extern "C" void handle_sigterm(int /*signum*/) { g_terminate.store(true); }

nn::StagedResNetConfig daemon_model_config() {
  nn::StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 4;
  cfg.stage_channels = {3, 4};
  cfg.head_hidden = 8;
  return cfg;
}

// Fabricated confidences stand in for a real calibration set: enough for the
// curve fit the serving path requires.
calib::StagedEvaluation fake_eval() {
  calib::StagedEvaluation eval;
  eval.records.resize(2);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double base = rng.uniform(0.1, 0.9);
    for (std::size_t s = 0; s < 2; ++s) {
      calib::StageRecord r;
      r.confidence = static_cast<float>(std::min(
          1.0, base + 0.2 * (static_cast<double>(s) + rng.uniform(0.0, 0.1))));
      eval.records[s].push_back(r);
    }
  }
  return eval;
}

std::size_t register_fresh_model(core::EugeneService& service,
                                 const std::string& name) {
  auto entry = std::make_shared<serving::ModelEntry>(
      name, nn::build_staged_resnet(daemon_model_config()));
  entry->curves.fit(fake_eval());
  entry->stage_ms = {1.0, 2.0};
  entry->calibration_alpha = {0.4, 0.6};
  entry->calibrated = true;
  return service.registry().add_entry(std::move(entry));
}

constexpr std::size_t kClients = 3;

}  // namespace

int main(int argc, char** argv) {
  const std::string state_dir = argc > 1 ? argv[1] : "/tmp/eugene_daemon_state";
  set_log_level(LogLevel::Info);
  std::signal(SIGTERM, handle_sigterm);

  // -- 1. warm restart --------------------------------------------------------
  core::EugeneService service;
  const serving::ModelFactory factory = [](const std::string&) {
    return nn::build_staged_resnet(daemon_model_config());
  };
  const std::size_t restored = service.restore(state_dir, factory);
  if (restored > 0)
    std::printf("[daemon] warm restart: %zu model(s) from %s\n", restored,
                state_dir.c_str());
  // Every client thread serves this one handle: published entries are
  // immutable and inference is const, so any number of threads may serve
  // them (DESIGN.md §13). Register it if the snapshot did not provide it.
  const std::string name = "doorbell";
  std::size_t handle = 0;
  if (const std::optional<std::size_t> found = service.registry().find(name)) {
    handle = *found;
  } else {
    handle = register_fresh_model(service, name);
    std::printf("[daemon] registered fresh model '%s'\n", name.c_str());
  }
  service.lifecycle().set_serving();

  std::filesystem::create_directories(state_dir);
  // Priced from the served entry's profiled stage times (restored from the
  // snapshot on a warm restart).
  serving::UsageMeter meter(service.registry().pin()->entry(handle).stage_ms,
                            {"default"});
  meter.open_journal(state_dir + "/usage.journal");

  // -- 2. serve (clients + a live operator) -----------------------------------
  std::atomic<std::size_t> answered{0}, drain_rejected{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &meter, &answered, &drain_rejected, handle, c] {
      Rng rng(100 + static_cast<std::uint64_t>(c));
      serving::ServerConfig cfg;
      cfg.early_exit_confidence = 0.8;
      for (;;) {
        std::vector<serving::InferenceRequest> batch;
        for (int i = 0; i < 4; ++i)
          batch.push_back({tensor::Tensor::randn({2, 8, 8}, rng), 0});
        const auto responses = service.infer_batch(handle, batch, cfg);
        if (responses.front().draining) {
          // The typed shutdown answer: a load balancer resubmits elsewhere.
          drain_rejected.fetch_add(responses.size());
          return;
        }
        meter.record(batch, responses, 2);
        answered.fetch_add(responses.size());
      }
    });
  }

  std::thread operator_thread([&service, &state_dir, handle] {
    // Live operations under full traffic: snapshot cadence + a hot swap of
    // "retrained" weights. Neither pauses a single request.
    for (int round = 0; !g_terminate.load(); ++round) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      const std::uint64_t epoch = service.snapshot(state_dir);
      nn::StagedResNetConfig retrained = daemon_model_config();
      retrained.seed = static_cast<std::uint64_t>(round + 2);
      service.swap_model(handle, nn::build_staged_resnet(retrained));
      std::printf("[operator] live snapshot epoch %llu + hot swap, traffic uninterrupted\n",
                  static_cast<unsigned long long>(epoch));
    }
  });

  // Self-terminate so the example runs unattended; a real deployment gets
  // this signal from its init system.
  std::thread timer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2000));
    std::raise(SIGTERM);
  });

  while (!g_terminate.load()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::printf("[daemon] SIGTERM received — draining\n");

  // -- 3. graceful shutdown ---------------------------------------------------
  // Stop the operator first so the drain's snapshot is the last word on disk.
  operator_thread.join();
  timer.join();
  core::DrainOptions options;
  options.timeout_ms = 10000.0;
  options.snapshot_dir = state_dir;
  options.usage = &meter;
  const core::DrainOutcome outcome = service.begin_drain(options);
  for (auto& t : clients) t.join();

  std::printf("[daemon] drain %s in %.1f ms (%zu in flight at begin, %zu abandoned)\n",
              outcome.report.completed ? "completed" : "timed out",
              outcome.report.duration_ms, outcome.report.inflight_at_begin,
              outcome.report.inflight_abandoned);
  std::printf("[daemon] answered %zu requests, drain-rejected %zu, journal %s, "
              "final snapshot epoch %llu\n",
              answered.load(), drain_rejected.load(),
              outcome.journal_flushed ? "flushed" : "left open",
              static_cast<unsigned long long>(outcome.snapshot_epoch));
  std::printf("[daemon] state: %s — exit 0\n",
              server_state_name(service.lifecycle().state()));
  return outcome.report.completed ? 0 : 1;
}
