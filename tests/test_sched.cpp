// Scheduler tests: utility estimators, policies, the discrete-event engine,
// and the workload builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>

#include "calib/evaluation.hpp"
#include "gp/confidence_curve.hpp"
#include "nn/staged_model.hpp"
#include "sched/engine.hpp"
#include "sched/policy.hpp"
#include "sched/simulator.hpp"
#include "sched/workload.hpp"

namespace eugene::sched {
namespace {

/// Synthetic 3-stage confidence-curve model: c_{s+1} = a_s + b_s·c_s.
gp::ConfidenceCurveModel linear_curve_model() {
  calib::StagedEvaluation eval;
  eval.records.resize(3);
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const double c1 = rng.uniform(0.1, 0.9);
    const double c2 = std::min(1.0, 0.2 + 0.8 * c1 + rng.normal(0.0, 0.02));
    const double c3 = std::min(1.0, 0.4 + 0.6 * c2 + rng.normal(0.0, 0.02));
    const double cs[3] = {c1, c2, c3};
    for (std::size_t s = 0; s < 3; ++s) {
      calib::StageRecord r;
      r.confidence = static_cast<float>(std::max(0.0, cs[s]));
      eval.records[s].push_back(r);
    }
  }
  gp::ConfidenceCurveModel curves;
  curves.fit(eval);
  return curves;
}

TEST(ConstantSlopeEstimator, ColdStartUsesPrior) {
  ConstantSlopeEstimator est({0.5, 0.7, 0.85}, 0.1);
  EXPECT_DOUBLE_EQ(est.predict_confidence_after({}, 0), 0.5);
  EXPECT_DOUBLE_EQ(est.predict_confidence_after({}, 2), 0.85);
}

TEST(ConstantSlopeEstimator, ExtrapolatesLastSlope) {
  ConstantSlopeEstimator est({0.5, 0.7, 0.85}, 0.1);
  // One observation: slope measured from the random-guess baseline.
  const std::vector<double> one = {0.4};
  EXPECT_NEAR(est.predict_confidence_after(one, 1), 0.4 + (0.4 - 0.1), 1e-12);
  // Two observations: slope of the latest stage.
  const std::vector<double> two = {0.4, 0.6};
  EXPECT_NEAR(est.predict_confidence_after(two, 2), 0.8, 1e-12);
}

TEST(ConstantSlopeEstimator, ClampsToUnitInterval) {
  ConstantSlopeEstimator est({0.5, 0.7, 0.85}, 0.1);
  const std::vector<double> two = {0.5, 0.95};
  EXPECT_DOUBLE_EQ(est.predict_confidence_after(two, 2), 1.0);
}

TEST(ConstantSlopeEstimator, MultiHopExtrapolationAndValidation) {
  ConstantSlopeEstimator est({0.5, 0.7, 0.85}, 0.1);
  // Two hops from one observation: slope (0.4 − 0.1) applied twice.
  const std::vector<double> one = {0.4};
  EXPECT_NEAR(est.predict_confidence_after(one, 2), 1.0, 1e-12);  // clamped
  // History may not already cover the requested stage.
  const std::vector<double> three = {0.4, 0.5, 0.6};
  EXPECT_THROW(est.predict_confidence_after(three, 2), InvalidArgument);
  EXPECT_THROW(est.predict_confidence_after(three, 5), InvalidArgument);
}

TEST(GpUtilityEstimator, UsesCurveModelAndPriors) {
  const auto curves = linear_curve_model();
  GpUtilityEstimator est(curves);
  EXPECT_NEAR(est.predict_confidence_after({}, 0), curves.prior_confidence(0), 1e-12);
  const std::vector<double> one = {0.5};
  EXPECT_NEAR(est.predict_confidence_after(one, 1), 0.2 + 0.8 * 0.5, 0.05);
}

TaskView make_view(std::size_t id, std::size_t service, double arrival, double deadline,
                   std::size_t done, std::size_t total,
                   const std::vector<double>& conf) {
  TaskView v;
  v.task_id = id;
  v.service = service;
  v.arrival_ms = arrival;
  v.deadline_ms = deadline;
  v.stages_done = done;
  v.total_stages = total;
  v.observed_confidence = conf;
  return v;
}

TEST(FifoPolicy, PicksEarliestArrival) {
  FifoPolicy policy;
  const std::vector<double> none;
  std::vector<TaskView> runnable = {make_view(0, 0, 5.0, 100, 0, 3, none),
                                    make_view(1, 0, 2.0, 100, 0, 3, none),
                                    make_view(2, 0, 9.0, 100, 0, 3, none)};
  EXPECT_EQ(policy.pick(runnable, 0.0).value(), 1u);
}

TEST(EdfPolicy, PicksEarliestDeadline) {
  EarliestDeadlinePolicy policy;
  const std::vector<double> none;
  std::vector<TaskView> runnable = {make_view(0, 0, 0.0, 300, 0, 3, none),
                                    make_view(1, 0, 0.0, 100, 0, 3, none),
                                    make_view(2, 0, 0.0, 200, 0, 3, none)};
  EXPECT_EQ(policy.pick(runnable, 0.0).value(), 1u);
}

TEST(RoundRobinPolicy, RotatesAcrossServices) {
  RoundRobinPolicy policy;
  const std::vector<double> none;
  std::vector<TaskView> runnable = {make_view(10, 0, 0.0, 100, 0, 3, none),
                                    make_view(11, 1, 0.0, 100, 0, 3, none),
                                    make_view(12, 2, 0.0, 100, 0, 3, none)};
  EXPECT_EQ(policy.pick(runnable, 0.0).value(), 10u);
  EXPECT_EQ(policy.pick(runnable, 0.0).value(), 11u);
  EXPECT_EQ(policy.pick(runnable, 0.0).value(), 12u);
  EXPECT_EQ(policy.pick(runnable, 0.0).value(), 10u);  // wraps
}

TEST(GreedyPolicy, PicksMaximumDifferentialUtility) {
  const auto curves = linear_curve_model();
  GpUtilityEstimator est(curves);
  GreedyUtilityPolicy policy(est, 1);
  // Task 0 already confident (0.9 at stage 1 → small gain); task 1 fresh
  // (no stages → utility = prior ≈ 0.65, large).
  const std::vector<double> confident = {0.9};
  const std::vector<double> none;
  std::vector<TaskView> runnable = {make_view(0, 0, 0.0, 100, 1, 3, confident),
                                    make_view(1, 0, 0.0, 100, 0, 3, none)};
  EXPECT_EQ(policy.pick(runnable, 0.0).value(), 1u);
}

TEST(GreedyPolicy, LookaheadPlansMultipleStagesOfBestTask) {
  const auto curves = linear_curve_model();
  GpUtilityEstimator est(curves);
  GreedyUtilityPolicy policy(est, 3);
  // A single low-confidence task: the plan should schedule its remaining
  // stages back to back.
  const std::vector<double> low = {0.3};
  std::vector<TaskView> runnable = {make_view(5, 0, 0.0, 100, 1, 3, low)};
  EXPECT_EQ(policy.pick(runnable, 0.0).value(), 5u);
  EXPECT_EQ(policy.pick(runnable, 0.0).value(), 5u);
}

TEST(GreedyPolicy, ServiceWeightsBiasSelection) {
  const auto curves = linear_curve_model();
  GpUtilityEstimator est(curves);
  GreedyUtilityPolicy policy(est, 1);
  policy.set_service_weights({1.0, 10.0});
  // Both tasks identical except service class; the weighted one wins.
  const std::vector<double> c0 = {0.5};
  const std::vector<double> c1 = {0.5};
  std::vector<TaskView> runnable = {make_view(0, 0, 0.0, 100, 1, 3, c0),
                                    make_view(1, 1, 0.0, 100, 1, 3, c1)};
  EXPECT_EQ(policy.pick(runnable, 0.0).value(), 1u);
  EXPECT_THROW(policy.set_service_weights({0.0}), InvalidArgument);
}

/// Oracle for GreedyUtilityPolicy: the direct greedy planner with no cache.
/// Every plan copies every task's history into a hypothetical state and
/// re-predicts every task at every step.
class ReferenceGreedyPlanner {
 public:
  ReferenceGreedyPlanner(const UtilityEstimator& estimator, std::size_t lookahead)
      : estimator_(estimator), lookahead_(lookahead) {}

  void set_service_weights(std::vector<double> weights) { weights_ = std::move(weights); }
  void set_stage_cost_hint(double stage_ms) { hint_ms_ = stage_ms; }
  void reset() { timeline_.clear(); }

  std::optional<std::size_t> pick(const std::vector<TaskView>& runnable, double now_ms) {
    if (runnable.empty()) return std::nullopt;
    for (auto it = timeline_.begin(); it != timeline_.end(); ++it) {
      const std::size_t id = *it;
      if (std::any_of(runnable.begin(), runnable.end(),
                      [id](const TaskView& t) { return t.task_id == id; })) {
        timeline_.erase(it);
        return id;
      }
    }
    plan(runnable, now_ms);
    if (timeline_.empty()) return std::nullopt;
    const std::size_t id = timeline_.front();
    timeline_.pop_front();
    return id;
  }

 private:
  void plan(const std::vector<TaskView>& runnable, double now_ms) {
    timeline_.clear();
    struct Hypothetical {
      std::size_t task_id;
      std::size_t service;
      std::size_t total_stages;
      double arrival_ms;
      std::vector<double> conf;
    };
    std::vector<Hypothetical> state;
    for (const auto& t : runnable) {
      if (hint_ms_ > 0.0 && now_ms + hint_ms_ > t.deadline_ms) continue;
      state.push_back({t.task_id, t.service, t.total_stages, t.arrival_ms,
                       {t.observed_confidence.begin(), t.observed_confidence.end()}});
    }
    for (std::size_t step = 0; step < lookahead_; ++step) {
      double best_utility = -std::numeric_limits<double>::infinity();
      Hypothetical* best = nullptr;
      for (auto& h : state) {
        if (h.conf.size() >= h.total_stages) continue;
        const double predicted = estimator_.predict_confidence_after(h.conf, h.conf.size());
        const double current = h.conf.empty() ? 0.0 : h.conf.back();
        const double weight = h.service < weights_.size() ? weights_[h.service] : 1.0;
        const double utility = (predicted - current) * weight;
        constexpr double kTie = 1e-12;
        const bool wins = best == nullptr || utility > best_utility + kTie ||
                          (utility > best_utility - kTie && h.arrival_ms < best->arrival_ms);
        if (wins) {
          best_utility = std::max(utility, best_utility);
          best = &h;
        }
      }
      if (best == nullptr) break;
      timeline_.push_back(best->task_id);
      best->conf.push_back(estimator_.predict_confidence_after(best->conf, best->conf.size()));
    }
  }

  const UtilityEstimator& estimator_;
  std::size_t lookahead_;
  std::vector<double> weights_;
  double hint_ms_ = 0.0;
  std::deque<std::size_t> timeline_;
};

TEST(GreedyPolicy, MatchesReferencePlanner) {
  // Engine-style runs on seeded random task sets: tasks arrive over time,
  // every pick runs the picked task's next stage (one confidence appended to
  // its history, as every engine does), a stage may stay in flight for a few
  // picks (the task leaves the runnable set meanwhile, as on a pool of
  // workers), and tasks leave on completion, early exit, or deadline. Both
  // planners see the same runnable set at every pick and must make the same
  // pick every time.
  // Weight changes and reset() between runs must invalidate cached utilities.
  const auto curves = linear_curve_model();
  const GpUtilityEstimator gp_estimator(curves);
  const ConstantSlopeEstimator slope_estimator({0.5, 0.7, 0.85}, 0.1);
  struct SimTask {
    std::size_t service = 0;
    double arrival_ms = 0.0;
    double deadline_ms = 0.0;
    std::vector<double> conf;
    std::size_t in_flight_until = 0;  ///< pick index its stage completes at
    bool done = false;
  };
  std::size_t total_picks = 0;
  for (std::size_t config = 0; config < 8; ++config) {
    const UtilityEstimator& estimator =
        config % 2 == 0 ? static_cast<const UtilityEstimator&>(gp_estimator)
                        : static_cast<const UtilityEstimator&>(slope_estimator);
    const std::size_t lookahead = config % 4 < 2 ? 1 : 3;
    const bool prune = config >= 4;
    GreedyUtilityPolicy policy(estimator, lookahead);
    ReferenceGreedyPlanner reference(estimator, lookahead);
    if (prune) {
      policy.set_stage_cost_hint(2.0);
      reference.set_stage_cost_hint(2.0);
    }
    Rng rng(500 + config);
    // Several runs per policy object, separated by reset(): task ids restart
    // at 0 with fresh histories, so a cache surviving reset() would diverge.
    // Odd runs keep the previous weights, so only reset() invalidates there.
    for (std::size_t run = 0; run < 5; ++run) {
      policy.reset();
      reference.reset();
      if (run % 2 == 0) {
        const std::vector<double> weights =
            run == 2 ? std::vector<double>{1.0, 1.0} : std::vector<double>{4.0, 1.0};
        policy.set_service_weights(weights);
        reference.set_service_weights(weights);
      }
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 300));
      std::vector<SimTask> tasks(n);
      for (SimTask& t : tasks) {
        t.service = static_cast<std::size_t>(rng.uniform_int(0, 1));
        // Coarse arrivals and cold starts: many tasks tie on the prior and
        // on arrival, so runnable order decides.
        t.arrival_ms = std::floor(rng.uniform(0.0, 4.0));
        t.deadline_ms = prune ? rng.uniform(3.0, 400.0) : 1e9;
      }
      for (std::size_t pick_index = 0;; ++pick_index) {
        const double now = static_cast<double>(pick_index) * 0.5;
        if (pick_index == 150) {
          // Mid-run weight change: every cached utility is stale.
          policy.set_service_weights({1.0, 6.0});
          reference.set_service_weights({1.0, 6.0});
        }
        std::vector<TaskView> runnable;
        bool any_left = false;
        for (std::size_t i = 0; i < n; ++i) {
          SimTask& t = tasks[i];
          if (t.done) continue;
          if (now >= t.deadline_ms) {
            t.done = true;
            continue;
          }
          any_left = true;
          if (t.arrival_ms > now || t.in_flight_until > pick_index) continue;
          runnable.push_back(make_view(i, t.service, t.arrival_ms, t.deadline_ms,
                                       t.conf.size(), 3, t.conf));
        }
        if (!any_left) break;
        const std::optional<std::size_t> got = policy.pick(runnable, now);
        const std::optional<std::size_t> want = reference.pick(runnable, now);
        ASSERT_EQ(got, want) << "config " << config << " run " << run << " pick "
                             << pick_index << " of " << runnable.size() << " runnable";
        ++total_picks;
        if (!got.has_value()) continue;
        SimTask& t = tasks[*got];
        // Quantized confidences: warm tasks tie on identical histories too.
        t.conf.push_back(std::round(rng.uniform(0.1, 1.0) * 20.0) / 20.0);
        if (rng.bernoulli(0.2))
          t.in_flight_until = pick_index + static_cast<std::size_t>(rng.uniform_int(1, 4));
        if (t.conf.size() == 3 || t.conf.back() >= 0.95) t.done = true;
      }
    }
  }
  EXPECT_GT(total_picks, 2000u);
}

// ----------------------------------------------------------- simulator ----

TaskSpec make_task(std::size_t service, double arrival, double deadline,
                   std::initializer_list<std::pair<bool, double>> stages) {
  TaskSpec t;
  t.service = service;
  t.arrival_ms = arrival;
  t.deadline_ms = deadline;
  for (const auto& [correct, conf] : stages) {
    StageOutcome o;
    o.correct = correct;
    o.confidence = conf;
    o.predicted = correct ? 1 : 0;
    t.stages.push_back(o);
  }
  return t;
}

std::vector<double> unit_costs() { return {10.0, 10.0, 10.0}; }

TEST(Simulator, CompletesEverythingWithGenerousDeadlines) {
  std::vector<TaskSpec> tasks;
  for (std::size_t i = 0; i < 6; ++i)
    tasks.push_back(make_task(i % 2, 0.0, 1e9,
                              {{false, 0.4}, {false, 0.6}, {true, 0.9}}));
  FifoPolicy policy;
  SimulationConfig cfg;
  cfg.num_workers = 2;
  const SimulationResult result = simulate(tasks, policy, unit_costs(), cfg);
  ASSERT_EQ(result.services.size(), 2u);
  for (const auto& s : result.services) {
    EXPECT_EQ(s.tasks, 3u);
    EXPECT_EQ(s.completed_all_stages, 3u);
    EXPECT_EQ(s.correct, 3u);
    EXPECT_EQ(s.stages_executed, 9u);
  }
  // 6 tasks × 3 stages × 10 ms over 2 workers = 90 ms of busy time.
  EXPECT_NEAR(result.makespan_ms, 90.0, 1e-6);
  EXPECT_EQ(result.exit_stage_histogram[3], 6u);
}

TEST(Simulator, DeadlineKillsRunningStageAndWastesWork) {
  // One worker, one task whose first stage (10 ms) outlives a 5 ms deadline.
  std::vector<TaskSpec> tasks = {
      make_task(0, 0.0, 5.0, {{true, 0.9}, {true, 0.95}, {true, 0.99}})};
  FifoPolicy policy;
  SimulationConfig cfg;
  cfg.num_workers = 1;
  const SimulationResult result = simulate(tasks, policy, unit_costs(), cfg);
  EXPECT_EQ(result.aborted_stage_executions, 1u);
  EXPECT_EQ(result.services[0].expired_without_result, 1u);
  EXPECT_EQ(result.services[0].correct, 0u);
  EXPECT_EQ(result.exit_stage_histogram[0], 1u);
}

TEST(Simulator, EarlyExitSkipsRemainingStages) {
  std::vector<TaskSpec> tasks = {
      make_task(0, 0.0, 1e9, {{true, 0.95}, {true, 0.97}, {true, 0.99}})};
  FifoPolicy policy;
  SimulationConfig cfg;
  cfg.num_workers = 1;
  cfg.early_exit_confidence = 0.9;
  const SimulationResult result = simulate(tasks, policy, unit_costs(), cfg);
  EXPECT_EQ(result.services[0].early_exits, 1u);
  EXPECT_EQ(result.services[0].stages_executed, 1u);
  EXPECT_EQ(result.exit_stage_histogram[1], 1u);
}

TEST(Simulator, PartialResultCountsAtDeadline) {
  // Stage 1 (correct, 0.6) finishes at t=10; deadline at 15 kills the task
  // during stage 2: final answer is stage 1's label.
  std::vector<TaskSpec> tasks = {
      make_task(0, 0.0, 15.0, {{true, 0.6}, {false, 0.8}, {false, 0.9}})};
  FifoPolicy policy;
  SimulationConfig cfg;
  cfg.num_workers = 1;
  const SimulationResult result = simulate(tasks, policy, unit_costs(), cfg);
  EXPECT_EQ(result.services[0].correct, 1u);
  EXPECT_EQ(result.services[0].expired_with_result, 1u);
  EXPECT_EQ(result.aborted_stage_executions, 1u);
  EXPECT_EQ(result.exit_stage_histogram[1], 1u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto curves = linear_curve_model();
  GpUtilityEstimator est(curves);
  Rng rng(3);
  std::vector<TaskSpec> tasks;
  for (std::size_t i = 0; i < 30; ++i) {
    const double c1 = rng.uniform(0.2, 0.8);
    tasks.push_back(make_task(i % 5, rng.uniform(0.0, 50.0), 1e9,
                              {{rng.bernoulli(c1), c1},
                               {rng.bernoulli(0.7), 0.7},
                               {rng.bernoulli(0.9), 0.9}}));
  }
  GreedyUtilityPolicy p1(est, 2), p2(est, 2);
  SimulationConfig cfg;
  cfg.num_workers = 3;
  const auto r1 = simulate(tasks, p1, unit_costs(), cfg);
  const auto r2 = simulate(tasks, p2, unit_costs(), cfg);
  EXPECT_EQ(r1.mean_accuracy(), r2.mean_accuracy());
  EXPECT_EQ(r1.makespan_ms, r2.makespan_ms);
}

TEST(Simulator, UtilitySchedulingBeatsFifoUnderOverload) {
  // 1 worker, tight shared deadline: FIFO burns all budget finishing early
  // arrivals' stage 3 while the greedy scheduler spreads stage 1 across
  // everyone (first stages have the largest confidence gain).
  const auto curves = linear_curve_model();
  GpUtilityEstimator est(curves);
  std::vector<TaskSpec> tasks;
  Rng rng(4);
  for (std::size_t i = 0; i < 10; ++i) {
    // Stage 1 already gives a mostly right answer; later stages refine.
    tasks.push_back(make_task(i, 0.0, 60.0,
                              {{rng.bernoulli(0.8), 0.75},
                               {rng.bernoulli(0.85), 0.85},
                               {rng.bernoulli(0.95), 0.95}}));
  }
  SimulationConfig cfg;
  cfg.num_workers = 1;
  GreedyUtilityPolicy greedy(est, 1);
  FifoPolicy fifo;
  const auto r_greedy = simulate(tasks, greedy, unit_costs(), cfg);
  const auto r_fifo = simulate(tasks, fifo, unit_costs(), cfg);
  // Budget: 6 stage slots for 10 tasks. FIFO fully serves 2 tasks; greedy
  // gives 6 tasks their first stage.
  EXPECT_GT(r_greedy.mean_accuracy(), r_fifo.mean_accuracy());
}

TEST(Simulator, ValidatesInputs) {
  FifoPolicy policy;
  SimulationConfig cfg;
  EXPECT_THROW(simulate({}, policy, unit_costs(), cfg), InvalidArgument);
  std::vector<TaskSpec> tasks = {make_task(0, 0.0, 1e9, {})};
  EXPECT_THROW(simulate(tasks, policy, unit_costs(), cfg), InvalidArgument);
  std::vector<TaskSpec> four_stages = {
      make_task(0, 0.0, 1e9,
                {{true, 0.5}, {true, 0.6}, {true, 0.7}, {true, 0.8}})};
  EXPECT_THROW(simulate(four_stages, policy, unit_costs(), cfg), InvalidArgument);
}

TEST(Engine, CompletesOnlyAHeldTask) {
  // A stage runs only on the worker that holds its task, so recording one
  // for a waiting, runnable or finished task is an engine bug.
  FifoPolicy policy;
  Engine engine(policy, 2, 2, /*max_retries=*/0, /*early_exit_confidence=*/2.0,
                /*trace=*/nullptr);
  engine.add(0, 0.0, 1e9, 2);
  engine.add(0, 0.0, 1e9, 1);
  EXPECT_THROW(engine.complete(0, 1, 0.5, 0.0), InternalError);  // waiting
  engine.enqueue(0);
  engine.enqueue(1);
  EXPECT_THROW(engine.complete(0, 1, 0.5, 0.0), InternalError);  // runnable
  EXPECT_EQ(engine.result(0).stages_run, 0u);

  engine.hold(0);
  engine.complete(0, 1, 0.5, 1.0);  // one stage left: runnable again
  EXPECT_EQ(engine.result(0).stages_run, 1u);
  EXPECT_FALSE(engine.held(0));
  EXPECT_FALSE(engine.finished(0));

  engine.hold(1);
  engine.complete(1, 2, 0.7, 2.0);  // its only stage: finished
  EXPECT_TRUE(engine.finished(1));
  EXPECT_THROW(engine.complete(1, 2, 0.7, 3.0), InternalError);  // finished
  EXPECT_EQ(engine.result(1).stages_run, 1u);
}

// ------------------------------------------------------------ workload ----

calib::StagedEvaluation tiny_eval() {
  calib::StagedEvaluation eval;
  eval.records.resize(3);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    for (std::size_t s = 0; s < 3; ++s) {
      calib::StageRecord r;
      r.predicted = static_cast<std::size_t>(rng.uniform_int(0, 4));
      r.truth = static_cast<std::size_t>(rng.uniform_int(0, 4));
      r.confidence = static_cast<float>(rng.uniform(0.3, 1.0));
      eval.records[s].push_back(r);
    }
  }
  return eval;
}

TEST(Workload, BuildsRequestedStreams) {
  const auto eval = tiny_eval();
  WorkloadConfig cfg;
  cfg.num_services = 4;
  cfg.tasks_per_service = 10;
  cfg.deadline_ms = 50.0;
  Rng rng(6);
  const auto tasks = build_workload(eval, cfg, rng);
  ASSERT_EQ(tasks.size(), 40u);
  std::vector<double> last_arrival(4, -1.0);
  for (const auto& t : tasks) {
    EXPECT_LT(t.service, 4u);
    EXPECT_EQ(t.stages.size(), 3u);
    EXPECT_GT(t.arrival_ms, last_arrival[t.service]);
    last_arrival[t.service] = t.arrival_ms;
    EXPECT_DOUBLE_EQ(t.deadline_ms, t.arrival_ms + 50.0);
  }
}

// ------------------------------------------------------------ replicas ----

TEST(LiveScheduler, ReplicasShareWeights) {
  // A clone answers bitwise like its source, so any number of model copies
  // serve the same answers.
  nn::StagedResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_classes = 4;
  cfg.stage_channels = {4, 6, 8};
  cfg.seed = 77;
  const nn::StagedModel source = nn::build_staged_resnet(cfg);
  const nn::StagedModel clones[] = {source.clone(), source.clone(), source.clone()};
  Rng rng(10);
  const tensor::Tensor input = tensor::Tensor::randn({2, 8, 8}, rng);
  const auto expected = source.forward_all(input);
  for (const nn::StagedModel& clone : clones) {
    const auto got = clone.forward_all(input);
    EXPECT_EQ(got.back().predicted_label, expected.back().predicted_label);
    EXPECT_EQ(got.back().confidence, expected.back().confidence);
  }
}

}  // namespace
}  // namespace eugene::sched
