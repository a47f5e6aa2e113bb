// Regenerates paper Fig. 4: the scheduling scalability study on a
// three-stage ResNet over the CIFAR-10 stand-in.
//
//   Fig. 4a — mean service accuracy vs number of concurrent services:
//             RTDeepIoT-1/2/3 vs RR
//   Fig. 4b — RTDeepIoT-1 vs RTDeepIoT-DC-1/2/3 vs FIFO
//   Fig. 4c — std-dev of service accuracy (fairness) for all policies
//
// Setup mirrors the paper's: N concurrent client streams of shuffled test
// images, a shared worker pool, per-image latency constraints enforced by
// the daemon, utility = predicted confidence gain from GP curves profiled
// into piecewise-linear functions. Stage outcomes replay real model outputs
// through the deterministic discrete-event engine (DESIGN.md §5).
//
// Extras beyond the paper's plot: an EDF baseline, the early-exit stage
// histogram, and wasted (aborted) stage executions.
#include <cstdio>
#include <functional>

#include "bench_common.hpp"
#include "sched/simulator.hpp"
#include "sched/workload.hpp"

using namespace eugene;

namespace {

struct PolicyResult {
  double mean_acc = 0.0;   ///< averaged over trials
  double std_acc = 0.0;    ///< averaged over trials (per-service spread)
  double stages_per_task = 0.0;
  double aborted = 0.0;
};

constexpr std::size_t kConcurrency[] = {2, 5, 10, 20};
constexpr std::size_t kTrials = 5;

}  // namespace

int main() {
  bench::Bundle bundle = bench::make_bundle();
  calib::calibrate_heads_entropy(bundle.model, bundle.calib_set);

  const calib::StagedEvaluation curve_train =
      calib::evaluate_staged(bundle.model, bundle.calib_set);
  const calib::StagedEvaluation test_eval =
      calib::evaluate_staged(bundle.model, bundle.test_set);
  gp::ConfidenceCurveModel curves;
  curves.fit(curve_train);

  std::vector<double> priors(3);
  for (std::size_t s = 0; s < 3; ++s) priors[s] = curves.prior_confidence(s);
  sched::GpUtilityEstimator gp_estimator(curves);
  sched::ConstantSlopeEstimator dc_estimator(priors, 0.1);  // 10 classes

  // Policy factory table (fresh policy per run: policies are stateful).
  struct PolicySpec {
    const char* name;
    std::function<std::unique_ptr<sched::SchedulingPolicy>()> make;
  };
  // All RTDeepIoT variants know the (equal) stage execution time, so their
  // planners skip stages that cannot finish before the deadline — the
  // paper's "no utility is accrued for tasks that are not completed".
  auto greedy = [](const sched::UtilityEstimator& est, std::size_t k) {
    auto policy = std::make_unique<sched::GreedyUtilityPolicy>(est, k);
    policy->set_stage_cost_hint(10.0);
    return policy;
  };
  const std::vector<PolicySpec> policies = {
      {"RTDeepIoT-1", [&] { return greedy(gp_estimator, 1); }},
      {"RTDeepIoT-2", [&] { return greedy(gp_estimator, 2); }},
      {"RTDeepIoT-3", [&] { return greedy(gp_estimator, 3); }},
      {"RTDeepIoT-DC-1", [&] { return greedy(dc_estimator, 1); }},
      {"RTDeepIoT-DC-2", [&] { return greedy(dc_estimator, 2); }},
      {"RTDeepIoT-DC-3", [&] { return greedy(dc_estimator, 3); }},
      {"RR", [] { return std::make_unique<sched::RoundRobinPolicy>(); }},
      {"FIFO", [] { return std::make_unique<sched::FifoPolicy>(); }},
      {"EDF*", [] { return std::make_unique<sched::EarliestDeadlinePolicy>(); }},
  };

  // Fig. 4 setup: equal stage times (the paper's optimality condition),
  // per-image deadline, shared worker pool. Load crosses saturation
  // between N=5 and N=10.
  const std::vector<double> stage_ms{10.0, 10.0, 10.0};
  sched::SimulationConfig sim_cfg;
  sim_cfg.num_workers = 4;

  std::vector<std::vector<PolicyResult>> results(
      policies.size(), std::vector<PolicyResult>(std::size(kConcurrency)));
  std::vector<std::vector<std::size_t>> exit_hist(std::size(kConcurrency),
                                                  std::vector<std::size_t>(4, 0));

  for (std::size_t ci = 0; ci < std::size(kConcurrency); ++ci) {
    const std::size_t n = kConcurrency[ci];
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      sched::WorkloadConfig wl;
      wl.num_services = n;
      wl.tasks_per_service = 30;
      wl.mean_interarrival_ms = 45.0;
      wl.deadline_ms = 70.0;
      Rng wl_rng(1000 * n + trial);
      const auto tasks = sched::build_workload(test_eval, wl, wl_rng);
      for (std::size_t pi = 0; pi < policies.size(); ++pi) {
        auto policy = policies[pi].make();
        const sched::SimulationResult r = simulate(tasks, *policy, stage_ms, sim_cfg);
        results[pi][ci].mean_acc += r.mean_accuracy() / kTrials;
        results[pi][ci].std_acc += r.std_accuracy() / kTrials;
        results[pi][ci].stages_per_task += r.mean_stages_per_task() / kTrials;
        results[pi][ci].aborted += static_cast<double>(r.aborted_stage_executions) / kTrials;
        if (pi == 0)  // RTDeepIoT-1 exit histogram for the ablation section
          for (std::size_t s = 0; s < r.exit_stage_histogram.size() && s < 4; ++s)
            exit_hist[ci][s] += r.exit_stage_histogram[s];
      }
    }
  }

  auto print_table = [&](const char* title, const std::vector<std::size_t>& rows,
                         auto field) {
    std::printf("%s\n%-16s", title, "policy");
    for (std::size_t n : kConcurrency) std::printf("  N=%-5zu", n);
    std::printf("\n");
    for (std::size_t pi : rows) {
      std::printf("%-16s", policies[pi].name);
      for (std::size_t ci = 0; ci < std::size(kConcurrency); ++ci)
        std::printf("  %6.1f ", field(results[pi][ci]) * 100.0);
      std::printf("\n");
    }
    std::printf("\n");
  };

  std::printf("== Fig. 4: scheduling scalability (3-stage ResNet) ==\n");
  std::printf("workers=4, stage=10ms, deadline=70ms, %zu tasks/stream, %zu trials\n\n",
              static_cast<std::size_t>(30), kTrials);
  print_table("[4a] mean service accuracy (%) — RTDeepIoT-k vs RR",
              {0, 1, 2, 6}, [](const PolicyResult& r) { return r.mean_acc; });
  print_table("[4b] mean service accuracy (%) — RTDeepIoT-1 vs DC variants vs FIFO",
              {0, 3, 4, 5, 7}, [](const PolicyResult& r) { return r.mean_acc; });
  print_table("[4c] std of service accuracy (%) — fairness, all policies",
              {0, 1, 2, 3, 4, 5, 6, 7, 8},
              [](const PolicyResult& r) { return r.std_acc; });

  const auto& rt = results[0];
  const auto& rr = results[6];
  const auto& fifo = results[7];
  std::printf("shape checks at N=10: RTDeepIoT-1 > RR: %s; RTDeepIoT-1 > FIFO: %s; "
              "RTDeepIoT-1 std < FIFO std: %s\n\n",
              rt[2].mean_acc > rr[2].mean_acc ? "yes" : "NO",
              rt[2].mean_acc > fifo[2].mean_acc ? "yes" : "NO",
              rt[2].std_acc < fifo[2].std_acc ? "yes" : "NO");

  // ---- ablations ----------------------------------------------------------
  bench::print_rule();
  std::printf("ablation: executed stages per task and wasted (aborted) stage runs\n");
  std::printf("%-16s", "policy");
  for (std::size_t n : kConcurrency) std::printf("  N=%zu st/ab ", n);
  std::printf("\n");
  for (std::size_t pi : {std::size_t{0}, std::size_t{6}, std::size_t{7}}) {
    std::printf("%-16s", policies[pi].name);
    for (std::size_t ci = 0; ci < std::size(kConcurrency); ++ci)
      std::printf("  %4.2f/%-5.1f", results[pi][ci].stages_per_task,
                  results[pi][ci].aborted);
    std::printf("\n");
  }
  std::printf("\nablation: RTDeepIoT-1 last-executed-stage histogram "
              "(tasks stopped after stage s; 0 = none ran)\n");
  std::printf("%-8s %8s %8s %8s %8s\n", "N", "none", "stage1", "stage2", "stage3");
  for (std::size_t ci = 0; ci < std::size(kConcurrency); ++ci)
    std::printf("%-8zu %8zu %8zu %8zu %8zu\n", kConcurrency[ci], exit_hist[ci][0],
                exit_hist[ci][1], exit_hist[ci][2], exit_hist[ci][3]);
  std::printf("(under overload the utility scheduler spreads stage-1 executions "
              "across tasks instead of finishing few tasks end-to-end)\n");
  return 0;
}
