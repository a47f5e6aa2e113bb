#include "labeling/pool_guard.hpp"

#include <algorithm>

#include "common/stats.hpp"

namespace eugene::labeling {

std::vector<ContributorReport> screen_pool(
    const std::vector<Contribution>& contributions,
    const std::function<nn::Sequential(std::uint64_t)>& factory,
    const PoolGuardConfig& config) {
  EUGENE_REQUIRE(contributions.size() >= 3,
                 "screen_pool: need at least three contributors to vote");
  EUGENE_REQUIRE(factory != nullptr, "screen_pool: null model factory");

  std::vector<ContributorReport> reports(contributions.size());
  for (std::size_t held_out = 0; held_out < contributions.size(); ++held_out) {
    EUGENE_REQUIRE(!contributions[held_out].data.empty(),
                   "screen_pool: empty contribution");
    // Train on everyone else's data.
    data::Dataset others;
    for (std::size_t j = 0; j < contributions.size(); ++j)
      if (j != held_out) others.append(contributions[j].data);
    nn::Sequential model = factory(held_out);
    nn::train_classifier(model, others.samples, others.labels, config.training);

    // Score the held-out contributor's claimed labels.
    const data::Dataset& mine = contributions[held_out].data;
    std::size_t disagreements = 0;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const auto probs = nn::softmax_probs(nn::infer(model, mine.samples[i]));
      if (argmax(probs) != mine.labels[i]) ++disagreements;
    }
    reports[held_out].device_id = contributions[held_out].device_id;
    reports[held_out].samples = mine.size();
    reports[held_out].disagreement_rate =
        static_cast<double>(disagreements) / static_cast<double>(mine.size());
  }

  // Flag against the median: honest contributors share the model's natural
  // error rate; a rogue's mislabeled share sits on top of it.
  std::vector<double> rates;
  rates.reserve(reports.size());
  for (const auto& r : reports) rates.push_back(r.disagreement_rate);
  std::sort(rates.begin(), rates.end());
  const double median = rates[rates.size() / 2];
  for (auto& r : reports)
    r.flagged = r.disagreement_rate > median + config.flag_margin;
  return reports;
}

data::Dataset clean_pool(const std::vector<Contribution>& contributions,
                         const std::vector<ContributorReport>& reports) {
  EUGENE_REQUIRE(contributions.size() == reports.size(),
                 "clean_pool: contributions/reports size mismatch");
  data::Dataset pool;
  for (std::size_t i = 0; i < contributions.size(); ++i) {
    EUGENE_REQUIRE(contributions[i].device_id == reports[i].device_id,
                   "clean_pool: report order does not match contributions");
    if (!reports[i].flagged) pool.append(contributions[i].data);
  }
  return pool;
}

}  // namespace eugene::labeling
