// Algorithm 1's hash table: construction, collision chains, sampling
// proportionality, and the paper-vs-overlap chain weighting ablation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "placement/hash_table.h"

namespace {

using namespace adapt::placement;
using adapt::common::Rng;

TEST(HashTable, UniformWeightsGiveSingletonChains) {
  // Integral widths: every cell maps to exactly one node.
  const BlockHashTable table({1.0, 1.0, 1.0, 1.0}, 100,
                             ChainWeighting::kPaper);
  const auto hist = table.chain_length_histogram();
  ASSERT_GE(hist.size(), 2u);
  EXPECT_EQ(hist[1], 100u);  // all chains length 1
  const auto probs = table.selection_probabilities();
  for (const double p : probs) EXPECT_NEAR(p, 0.25, 1e-12);
}

TEST(HashTable, SharesAreNormalizedWeights) {
  const BlockHashTable table({2.0, 6.0}, 10, ChainWeighting::kPaper);
  EXPECT_NEAR(table.shares()[0], 0.25, 1e-12);
  EXPECT_NEAR(table.shares()[1], 0.75, 1e-12);
}

TEST(HashTable, FractionalBoundariesCreateChains) {
  // Widths 2.5 and 2.5 over 5 cells: cell 2 is shared.
  const BlockHashTable table({1.0, 1.0}, 5, ChainWeighting::kOverlap);
  const auto hist = table.chain_length_histogram();
  EXPECT_EQ(hist[1], 4u);
  EXPECT_EQ(hist[2], 1u);
}

TEST(HashTable, OverlapWeightingIsExact) {
  const std::vector<double> weights = {0.3, 1.7, 2.0, 0.1, 5.9};
  const BlockHashTable table(weights, 997, ChainWeighting::kOverlap);
  const double total =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  const auto probs = table.selection_probabilities();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(probs[i], weights[i] / total, 1e-6) << "node " << i;
  }
}

TEST(HashTable, PaperWeightingIsCloseButNotExact) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  const BlockHashTable table(weights, 101, ChainWeighting::kPaper);
  const auto probs = table.selection_probabilities();
  double distortion = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    distortion += std::abs(probs[i] - table.shares()[i]);
  }
  // The paper's rate_i/Omega rule distorts shares slightly; with m >>
  // n the total distortion is bounded by ~n/m.
  EXPECT_GT(distortion, 0.0);
  EXPECT_LT(distortion, 4.0 / 101.0 * 2.0);
}

class HashTableSampling
    : public ::testing::TestWithParam<ChainWeighting> {};

TEST_P(HashTableSampling, EmpiricalFrequenciesMatchProbabilities) {
  const std::vector<double> weights = {0.5, 1.0, 0.0, 2.5, 1.0};
  const BlockHashTable table(weights, 200, GetParam());
  const auto probs = table.selection_probabilities();
  Rng rng(31);
  std::vector<std::size_t> counts(weights.size(), 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.sample(rng)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double freq = static_cast<double>(counts[i]) / kDraws;
    EXPECT_NEAR(freq, probs[i], 0.01) << "node " << i;
  }
  EXPECT_EQ(counts[2], 0u);  // zero weight -> never sampled
}

INSTANTIATE_TEST_SUITE_P(BothWeightings, HashTableSampling,
                         ::testing::Values(ChainWeighting::kPaper,
                                           ChainWeighting::kOverlap),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(HashTable, SingleNodeTakesEverything) {
  const BlockHashTable table({3.0}, 7, ChainWeighting::kPaper);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(HashTable, ManyMoreNodesThanCells) {
  // n > m: every cell is a long chain; probabilities still normalized.
  const std::vector<double> weights(64, 1.0);
  const BlockHashTable table(weights, 8, ChainWeighting::kOverlap);
  const auto probs = table.selection_probabilities();
  double sum = 0.0;
  for (const double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// Property: a positive construction weight must never round away to a
// zero selection probability. Adversarial vectors drive the cumulative
// boundary cursor into rounding drift (tiny trailing shares at the
// clamped top end of the table, extreme dynamic range whose resolution
// weights would underflow the float chain entries).
TEST(HashTable, PositiveWeightAlwaysSelectable) {
  std::vector<std::vector<double>> vectors = {
      {1e12, 1.0, 1e12, 1e-9},
      {1e30, 1e-30, 1e30, 1e-30, 1.0},
      {0.1, 0.0, 1e-12, 7.7, 1e-40},
      {1e150, 1e-150, 1.0},
  };
  // Log-uniform random vectors sprinkle tiny segments across the whole
  // table, not just the top end.
  Rng rng(2024);
  for (int v = 0; v < 16; ++v) {
    std::vector<double> w;
    for (int i = 0; i < 64; ++i) w.push_back(std::exp(rng.uniform(-80.0, 10.0)));
    w[3] = 0.0;  // keep the zero-weight -> zero-probability leg covered
    vectors.push_back(std::move(w));
  }
  for (const auto& weights : vectors) {
    for (const auto weighting :
         {ChainWeighting::kPaper, ChainWeighting::kOverlap}) {
      for (const std::uint64_t cells : {7ull, 128ull, 1009ull}) {
        const BlockHashTable table(weights, cells, weighting);
        const auto probs = table.selection_probabilities();
        for (std::size_t i = 0; i < weights.size(); ++i) {
          if (weights[i] > 0.0) {
            EXPECT_GT(probs[i], 0.0)
                << "node " << i << " cells " << cells << " weighting "
                << to_string(weighting);
          } else {
            EXPECT_EQ(probs[i], 0.0) << "node " << i;
          }
        }
      }
    }
  }
}

TEST(HashTable, CursorDriftKeepsTopEndProportional) {
  // The cumulative boundary cursor accumulates one rounding error per
  // node; with hundreds of irrational widths it drifts either way at
  // the top end. The guard must close a downward gap below m without
  // ever widening a segment past its fair share when the cursor
  // overshoots, so the tail nodes keep proportional probabilities.
  std::vector<double> weights;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    weights.push_back(1.0 / 3.0 + rng.uniform() * 1e-3);
  }
  double total = 0.0;
  for (const double w : weights) total += w;
  for (const std::uint64_t cells : {401ull, 997ull, 4096ull}) {
    const BlockHashTable table(weights, cells, ChainWeighting::kOverlap);
    const auto probs = table.selection_probabilities();
    double sum = 0.0;
    for (const double p : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "cells " << cells;
    // The last node sits on the drift-prone boundary; its probability
    // must stay close to its share, not absorb or lose the drift.
    const std::size_t last = weights.size() - 1;
    EXPECT_NEAR(probs[last], weights[last] / total,
                2.0 / static_cast<double>(cells))
        << "cells " << cells;
  }
}

// Reference implementation of Algorithm 1's table: the straightforward
// per-cell-chain construction (one heap vector per cell, filled segment
// by segment, then normalized chain by chain) and its sampler. The
// one-sweep BlockHashTable builder must reproduce it bit for bit.
class OracleTable {
 public:
  OracleTable(const std::vector<double>& weights, std::uint64_t cells,
              ChainWeighting weighting)
      : chains_(cells), node_count_(weights.size()) {
    double total = 0.0;
    for (const double w : weights) total += w;
    std::vector<double> shares(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      shares[i] = weights[i] / total;
    }
    struct Segment {
      std::uint32_t node;
      double begin;
      double end;
      double rate;
    };
    std::vector<Segment> segments;
    double cursor = 0.0;
    const double m = static_cast<double>(cells);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const double width = shares[i] * m;
      if (width <= 0.0) continue;
      const double begin = std::min(cursor, m);
      cursor += width;
      segments.push_back({static_cast<std::uint32_t>(i), begin,
                          std::min(cursor, m), shares[i]});
    }
    if (cursor < m) segments.back().end = m;
    const auto entry_weight = [](double w) {
      return std::max(static_cast<float>(w),
                      std::numeric_limits<float>::min());
    };
    for (const Segment& seg : segments) {
      const auto anchor =
          std::min(static_cast<std::uint64_t>(seg.begin), cells - 1);
      const auto last = static_cast<std::uint64_t>(
          std::min(m - 1.0, std::ceil(seg.end) - 1.0));
      bool inserted = false;
      for (std::uint64_t j = anchor; j <= last && j < cells; ++j) {
        const double lo = static_cast<double>(j);
        const double overlap =
            std::min(seg.end, lo + 1.0) - std::max(seg.begin, lo);
        if (overlap <= 0.0) continue;
        chains_[j].push_back(
            {seg.node, entry_weight(weighting == ChainWeighting::kPaper
                                        ? seg.rate
                                        : overlap)});
        inserted = true;
      }
      if (!inserted) {
        chains_[anchor].push_back({seg.node, entry_weight(seg.rate)});
      }
    }
    for (auto& chain : chains_) {
      double sum = 0.0;
      for (const Entry& e : chain) sum += e.weight;
      for (Entry& e : chain) e.weight = static_cast<float>(e.weight / sum);
    }
  }

  std::uint32_t sample(Rng& rng) const {
    const auto& chain = chains_[rng.uniform_index(chains_.size())];
    if (chain.size() == 1) return chain[0].node;
    const double r1 = rng.uniform();
    double low = 0.0;
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const double high = low + chain[k].weight;
      if (r1 < high || k + 1 == chain.size()) return chain[k].node;
      low = high;
    }
    return chain.back().node;
  }

  std::vector<double> selection_probabilities() const {
    std::vector<double> probs(node_count_, 0.0);
    const double cell_prob = 1.0 / static_cast<double>(chains_.size());
    for (const auto& chain : chains_) {
      for (const Entry& e : chain) probs[e.node] += cell_prob * e.weight;
    }
    return probs;
  }

  std::vector<std::size_t> chain_length_histogram() const {
    std::vector<std::size_t> hist;
    for (const auto& chain : chains_) {
      if (hist.size() <= chain.size()) hist.resize(chain.size() + 1, 0);
      ++hist[chain.size()];
    }
    return hist;
  }

 private:
  struct Entry {
    std::uint32_t node;
    float weight;
  };
  std::vector<std::vector<Entry>> chains_;
  std::size_t node_count_;
};

// Same probabilities (compared as doubles, so bit for bit), same chain
// lengths and the same draw sequence under one Rng seed.
void expect_matches_oracle(const std::vector<double>& weights,
                           std::uint64_t cells, ChainWeighting weighting) {
  SCOPED_TRACE("n=" + std::to_string(weights.size()) +
               " m=" + std::to_string(cells) + " " + to_string(weighting));
  const BlockHashTable table(weights, cells, weighting);
  const OracleTable oracle(weights, cells, weighting);
  EXPECT_EQ(table.selection_probabilities(),
            oracle.selection_probabilities());
  EXPECT_EQ(table.chain_length_histogram(), oracle.chain_length_histogram());
  Rng a(cells * 31 + weights.size());
  Rng b(cells * 31 + weights.size());
  for (int i = 0; i < 512; ++i) {
    ASSERT_EQ(table.sample(a), oracle.sample(b)) << "draw " << i;
  }
}

TEST(HashTable, OneSweepBuildMatchesPerCellOracle) {
  Rng rng(1312);
  const double subnormal = std::numeric_limits<double>::denorm_min() * 64;
  for (int v = 0; v < 60; ++v) {
    const auto n = static_cast<std::size_t>(1 + rng.uniform_index(96));
    std::vector<double> weights(n);
    for (double& w : weights) {
      switch (rng.uniform_index(6)) {
        case 0:
          w = 0.0;
          break;
        case 1:
          w = subnormal;
          break;
        case 2:
          w = 1e-300;
          break;
        case 3:
          w = 1e-9;
          break;
        default:
          w = std::exp(rng.uniform(-40.0, 10.0));
      }
    }
    weights[rng.uniform_index(n)] = 1.0 + rng.uniform();  // total > 0
    // m = 1, m < n (every cell a long chain) and m >> n.
    for (const std::uint64_t cells :
         {std::uint64_t{1}, std::uint64_t{1 + n / 3},
          std::uint64_t{7 + rng.uniform_index(2000)}}) {
      for (const auto weighting :
           {ChainWeighting::kPaper, ChainWeighting::kOverlap}) {
        expect_matches_oracle(weights, cells, weighting);
      }
    }
  }
}

TEST(HashTable, OneSweepBuildMatchesOracleUnderCursorDrift) {
  // Hundreds of irrational widths drift the cumulative cursor both ways
  // at the top end: the gap-closing stretch and the overshoot clamp
  // must both match the reference construction.
  Rng rng(7);
  std::vector<double> weights;
  for (int i = 0; i < 400; ++i) {
    weights.push_back(1.0 / 3.0 + rng.uniform() * 1e-3);
  }
  for (const std::uint64_t cells : {401ull, 997ull, 4096ull, 51200ull}) {
    for (const auto weighting :
         {ChainWeighting::kPaper, ChainWeighting::kOverlap}) {
      expect_matches_oracle(weights, cells, weighting);
    }
  }
  // Tiny trailing shares clamped at m and extreme dynamic range.
  for (const auto& extreme : std::vector<std::vector<double>>{
           {1e12, 1.0, 1e12, 1e-9},
           {1e30, 1e-30, 1e30, 1e-30, 1.0},
           {0.1, 0.0, 1e-12, 7.7, 1e-40},
           {1e150, 1e-150, 1.0}}) {
    for (const std::uint64_t cells : {1ull, 7ull, 128ull, 1009ull}) {
      for (const auto weighting :
           {ChainWeighting::kPaper, ChainWeighting::kOverlap}) {
        expect_matches_oracle(extreme, cells, weighting);
      }
    }
  }
}

// A one-entry chain normalizes to exactly 1.0f, so each singleton cell
// adds exactly 1/m to its node's selection probability. Integral widths
// make every chain a singleton: node i's probability is 1/m added up
// once per cell it owns, in cell order.
TEST(HashTable, OneEntryChainsCarryExactlyOne) {
  for (const auto weighting :
       {ChainWeighting::kPaper, ChainWeighting::kOverlap}) {
    const BlockHashTable table({1.0, 3.0, 2.0, 2.0}, 51200, weighting);
    const auto hist = table.chain_length_histogram();
    ASSERT_EQ(hist.size(), 2u);
    ASSERT_EQ(hist[1], 51200u);
    const double cell_prob = 1.0 / 51200.0;
    const std::vector<std::size_t> cells_owned = {6400, 19200, 12800, 12800};
    for (std::size_t i = 0; i < cells_owned.size(); ++i) {
      double expected = 0.0;
      for (std::size_t k = 0; k < cells_owned[i]; ++k) expected += cell_prob;
      EXPECT_EQ(table.selection_probabilities()[i], expected)
          << "node " << i << " " << to_string(weighting);
    }
  }
}

TEST(HashTable, Validation) {
  EXPECT_THROW(BlockHashTable({}, 10, ChainWeighting::kPaper),
               std::invalid_argument);
  EXPECT_THROW(BlockHashTable({1.0}, 0, ChainWeighting::kPaper),
               std::invalid_argument);
  EXPECT_THROW(BlockHashTable({0.0, 0.0}, 10, ChainWeighting::kPaper),
               std::invalid_argument);
  EXPECT_THROW(BlockHashTable({-1.0, 2.0}, 10, ChainWeighting::kPaper),
               std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(BlockHashTable({inf, 1.0}, 10, ChainWeighting::kPaper),
               std::invalid_argument);
}

}  // namespace
