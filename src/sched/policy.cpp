#include "sched/policy.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace eugene::sched {

// ------------------------------------------------------ GreedyUtilityPolicy

GreedyUtilityPolicy::GreedyUtilityPolicy(const UtilityEstimator& estimator,
                                         std::size_t lookahead)
    : estimator_(estimator), lookahead_(lookahead) {
  EUGENE_REQUIRE(lookahead >= 1, "GreedyUtilityPolicy: lookahead must be >= 1");
}

void GreedyUtilityPolicy::set_service_weights(std::vector<double> weights) {
  for (double w : weights)
    EUGENE_REQUIRE(w > 0.0, "set_service_weights: weights must be positive");
  service_weights_ = std::move(weights);
  ++cache_epoch_;  // cached utilities carry the old weights
}

void GreedyUtilityPolicy::set_stage_cost_hint(double stage_ms) {
  EUGENE_REQUIRE(stage_ms >= 0.0, "set_stage_cost_hint: negative stage time");
  stage_cost_hint_ms_ = stage_ms;
}

GreedyUtilityPolicy::Estimate GreedyUtilityPolicy::estimate(std::span<const double> conf,
                                                            std::size_t service) const {
  const double predicted = estimator_.predict_confidence_after(conf, conf.size());
  const double current = conf.empty() ? 0.0 : conf.back();
  return {predicted, (predicted - current) * service_weight(service)};
}

void GreedyUtilityPolicy::plan(const std::vector<TaskView>& runnable, double now_ms) {
  timeline_.clear();
  // Twice the runnable count keeps dense ids (sched::Engine numbers its
  // tasks 0..n-1) collision-free; the cache only ever grows.
  if (cache_.size() < 2 * runnable.size())
    cache_.assign(std::bit_ceil(2 * runnable.size()), CacheSlot{});
  // Members read into locals once: the scan below calls the estimator on a
  // miss, after which the compiler would otherwise reload them every task.
  CacheSlot* const slots = cache_.data();
  const std::size_t mask = cache_.size() - 1;
  const std::uint64_t epoch = cache_epoch_;
  const double hint_ms = stage_cost_hint_ms_;
  auto cached_estimate = [&](const TaskView& t) -> const Estimate& {
    // The history only grows (TaskView contract), so its length identifies it.
    const std::size_t done = t.observed_confidence.size();
    CacheSlot& slot = slots[t.task_id & mask];
    if (slot.epoch != epoch || slot.task_id != t.task_id || slot.stages_done != done)
      slot = {t.task_id, done, epoch, estimate(t.observed_confidence, t.service)};
    return slot.estimate;
  };

  // Tasks this plan has committed stages of, with their confidence history
  // extended by the predicted values. Every other task is read in place.
  // Only a lookahead beyond 1 extends anything, so at most k-1 entries.
  struct Hypothetical {
    std::size_t index;          ///< position in `runnable`
    std::vector<double> conf;   ///< observed then predicted
    Estimate next;
  };
  std::vector<Hypothetical> committed;

  for (std::size_t step = 0; step < lookahead_; ++step) {
    // Utilities may be negative (the estimator can predict a confidence
    // drop); the greedy rule still picks the max, so the floor is -inf.
    double best_utility = -std::numeric_limits<double>::infinity();
    std::size_t best = runnable.size();
    Hypothetical* best_hypothetical = nullptr;
    for (std::size_t i = 0; i < runnable.size(); ++i) {
      const TaskView& t = runnable[i];
      // Deadline feasibility: never plan a stage that cannot complete
      // ("no utility is accrued for tasks that are not completed").
      if (hint_ms > 0.0 && now_ms + hint_ms > t.deadline_ms) continue;
      Hypothetical* h = nullptr;
      for (Hypothetical& c : committed)
        if (c.index == i) h = &c;
      const std::size_t planned = h != nullptr ? h->conf.size() : t.observed_confidence.size();
      if (planned >= t.total_stages) continue;  // plan already completes it
      const double utility = h != nullptr ? h->next.utility : cached_estimate(t).utility;
      // Utility ties are common (every cold task shares the same prior);
      // breaking them by iteration order would systematically starve
      // higher-numbered services, so ties go to the earliest arrival.
      constexpr double kTie = 1e-12;
      const bool wins = best == runnable.size() || utility > best_utility + kTie ||
                        (utility > best_utility - kTie &&
                         t.arrival_ms < runnable[best].arrival_ms);
      if (wins) {
        best_utility = std::max(utility, best_utility);
        best = i;
        best_hypothetical = h;
      }
    }
    if (best == runnable.size()) break;  // every runnable task fully planned
    const TaskView& chosen = runnable[best];
    timeline_.push_back(chosen.task_id);
    if (step + 1 == lookahead_) break;  // no later step reads the extension

    // Commit the stage hypothetically: its predicted confidence joins the
    // task's history as if observed, and the next step scores the stage after.
    Hypothetical* h = best_hypothetical;
    if (h == nullptr) {
      h = &committed.emplace_back();
      h->index = best;
      h->conf.assign(chosen.observed_confidence.begin(), chosen.observed_confidence.end());
      h->next = cached_estimate(chosen);
    }
    h->conf.push_back(h->next.predicted);
    if (h->conf.size() < chosen.total_stages) h->next = estimate(h->conf, chosen.service);
  }
}

std::optional<std::size_t> GreedyUtilityPolicy::pick(
    const std::vector<TaskView>& runnable, double now_ms) {
  if (runnable.empty()) return std::nullopt;

  // Serve the planned timeline first. Entries whose task is temporarily
  // blocked (its previous stage is still executing on another worker) are
  // kept in place for a later pick; only the entry actually dispatched is
  // removed.
  for (auto it = timeline_.begin(); it != timeline_.end(); ++it) {
    const std::size_t id = *it;
    const bool runnable_now =
        std::any_of(runnable.begin(), runnable.end(),
                    [id](const TaskView& t) { return t.task_id == id; });
    if (runnable_now) {
      timeline_.erase(it);
      return id;
    }
  }

  // No dispatchable entry left: replan "with the most recent utility
  // estimates" (stale entries for finished or still-running tasks are
  // discarded; running tasks re-enter consideration once their stage ends).
  plan(runnable, now_ms);
  if (timeline_.empty()) return std::nullopt;
  const std::size_t id = timeline_.front();
  timeline_.erase(timeline_.begin());
  return id;
}

// --------------------------------------------------------- RoundRobinPolicy

std::optional<std::size_t> RoundRobinPolicy::pick(const std::vector<TaskView>& runnable,
                                                  double /*now_ms*/) {
  if (runnable.empty()) return std::nullopt;
  // Pick the runnable task whose service id is the smallest value >=
  // next_service_ (cyclically); within a service, the earliest arrival.
  const TaskView* best = nullptr;
  auto cyclic_key = [this](std::size_t service) {
    return service >= next_service_ ? service - next_service_
                                    : service + (1u << 20) - next_service_;
  };
  for (const auto& t : runnable) {
    if (best == nullptr || cyclic_key(t.service) < cyclic_key(best->service) ||
        (t.service == best->service && t.arrival_ms < best->arrival_ms)) {
      best = &t;
    }
  }
  next_service_ = best->service + 1;
  return best->task_id;
}

// --------------------------------------------------------------- FifoPolicy

std::optional<std::size_t> FifoPolicy::pick(const std::vector<TaskView>& runnable,
                                            double /*now_ms*/) {
  if (runnable.empty()) return std::nullopt;
  const TaskView* best = &runnable.front();
  for (const auto& t : runnable) {
    if (t.arrival_ms < best->arrival_ms ||
        (t.arrival_ms == best->arrival_ms && t.task_id < best->task_id)) {
      best = &t;
    }
  }
  return best->task_id;
}

// ----------------------------------------------------- EarliestDeadlinePolicy

std::optional<std::size_t> EarliestDeadlinePolicy::pick(
    const std::vector<TaskView>& runnable, double /*now_ms*/) {
  if (runnable.empty()) return std::nullopt;
  const TaskView* best = &runnable.front();
  for (const auto& t : runnable) {
    if (t.deadline_ms < best->deadline_ms ||
        (t.deadline_ms == best->deadline_ms && t.arrival_ms < best->arrival_ms)) {
      best = &t;
    }
  }
  return best->task_id;
}

}  // namespace eugene::sched
