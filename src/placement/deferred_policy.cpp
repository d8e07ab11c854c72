#include "placement/deferred_policy.h"

#include <stdexcept>

namespace adapt::placement {

DeferredPolicy::DeferredPolicy(std::function<PolicyPtr()> build)
    : build_(std::move(build)) {
  if (!build_) throw std::invalid_argument("deferred policy: no builder");
}

const PlacementPolicy& DeferredPolicy::policy() const {
  if (!policy_) {
    PolicyPtr built = build_();
    if (!built) {
      throw std::logic_error("deferred policy: builder returned null");
    }
    policy_ = std::move(built);
    build_ = nullptr;  // frees whatever the recipe captured
  }
  return *policy_;
}

std::optional<cluster::NodeIndex> DeferredPolicy::choose(
    const cluster::NodeMask& eligible, common::Rng& rng) const {
  return policy().choose(eligible, rng);
}

std::optional<cluster::NodeIndex> DeferredPolicy::choose_keyed(
    std::uint64_t key, std::uint32_t ordinal,
    const cluster::NodeMask& eligible, common::Rng& rng) const {
  return policy().choose_keyed(key, ordinal, eligible, rng);
}

std::string DeferredPolicy::name() const { return policy().name(); }

std::vector<double> DeferredPolicy::target_shares() const {
  return policy().target_shares();
}

}  // namespace adapt::placement
