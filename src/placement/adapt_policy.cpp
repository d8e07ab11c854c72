#include "placement/adapt_policy.h"

#include <cmath>
#include <stdexcept>

#include "placement/masked_draw.h"

namespace adapt::placement {

WeightedHashPolicy::WeightedHashPolicy(std::string name,
                                       const std::vector<double>& weights,
                                       std::uint64_t blocks,
                                       ChainWeighting weighting)
    : name_(std::move(name)), table_(weights, blocks, weighting) {}

std::optional<cluster::NodeIndex> WeightedHashPolicy::choose(
    const cluster::NodeMask& eligible, common::Rng& rng) const {
  if (eligible.size() != table_.node_count()) {
    throw std::invalid_argument("choose: eligibility mask size mismatch");
  }
  // Rejection-sample the hash table; the bounded fallback draws from the
  // table's realized selection probabilities (not the raw weights, which
  // the paper's chain normalization distorts).
  return masked_choose(
      [this](common::Rng& r) { return table_.sample(r); },
      table_.selection_probabilities(), eligible, rng);
}

PolicyPtr make_adapt_policy(const std::vector<double>& expected_task_times,
                            std::uint64_t blocks, ChainWeighting weighting) {
  std::vector<double> weights;
  weights.reserve(expected_task_times.size());
  for (double et : expected_task_times) {
    if (et <= 0) {
      throw std::invalid_argument("adapt policy: E[T] must be positive");
    }
    weights.push_back(std::isfinite(et) ? 1.0 / et : 0.0);
  }
  return std::make_shared<WeightedHashPolicy>("adapt", weights, blocks,
                                              weighting);
}

}  // namespace adapt::placement
