// A placement policy that is built on first use.
//
// The simulator refreshes its re-replication and migration policy at
// every dead declaration, revive and rebalance pass, but most refreshed
// policies are replaced before any repair draws from them. A
// DeferredPolicy holds the recipe instead of the built policy: the
// builder runs once, at the first choose / choose_keyed / name /
// target_shares call, and every call delegates to what it built. Draws
// and RNG consumption are therefore exactly those of the eagerly built
// policy. A builder that throws leaves the policy unbuilt; the next call
// runs it again.
//
// The first call mutates the object, so a DeferredPolicy must not be
// shared across threads before it is built. A simulation owns its
// policies and drives them from one thread.
#pragma once

#include <functional>

#include "placement/policy.h"

namespace adapt::placement {

class DeferredPolicy : public PlacementPolicy {
 public:
  // `build` must return a non-null policy.
  explicit DeferredPolicy(std::function<PolicyPtr()> build);

  std::optional<cluster::NodeIndex> choose(const cluster::NodeMask& eligible,
                                           common::Rng& rng) const override;
  std::optional<cluster::NodeIndex> choose_keyed(
      std::uint64_t key, std::uint32_t ordinal,
      const cluster::NodeMask& eligible, common::Rng& rng) const override;
  std::string name() const override;
  std::vector<double> target_shares() const override;

 private:
  const PlacementPolicy& policy() const;

  mutable std::function<PolicyPtr()> build_;
  mutable PolicyPtr policy_;
};

}  // namespace adapt::placement
