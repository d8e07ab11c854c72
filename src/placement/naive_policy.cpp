#include "placement/naive_policy.h"

namespace adapt::placement {

PolicyPtr make_naive_policy(
    const std::vector<avail::InterruptionParams>& params,
    std::uint64_t blocks, ChainWeighting weighting) {
  std::vector<double> weights;
  weights.reserve(params.size());
  for (const avail::InterruptionParams& p : params) {
    weights.push_back(p.steady_state_availability());
  }
  return std::make_shared<WeightedHashPolicy>("naive", weights, blocks,
                                              weighting);
}

}  // namespace adapt::placement
