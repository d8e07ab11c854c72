#include "placement/hash_table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace adapt::placement {

std::string to_string(ChainWeighting weighting) {
  switch (weighting) {
    case ChainWeighting::kPaper:
      return "paper";
    case ChainWeighting::kOverlap:
      return "overlap";
  }
  return "?";
}

BlockHashTable::BlockHashTable(const std::vector<double>& weights,
                               std::uint64_t cells, ChainWeighting weighting)
    : cells_(cells), weighting_(weighting) {
  if (cells == 0) throw std::invalid_argument("hash table: zero cells");
  if (weights.empty()) throw std::invalid_argument("hash table: no nodes");

  double total = 0.0;
  for (double w : weights) {
    if (w < 0 || !std::isfinite(w)) {
      throw std::invalid_argument("hash table: weights must be finite, >= 0");
    }
    total += w;
  }
  if (total <= 0) {
    throw std::invalid_argument("hash table: all weights are zero");
  }

  shares_.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    shares_[i] = weights[i] / total;
  }

  // Node i owns the interval [a_i, b_i) of the key range [0, m), in node
  // order. Every cell it overlaps gets a chain entry. Because the
  // intervals are contiguous and in node order, the cells they touch
  // arrive in non-decreasing order, so each chain is appended straight
  // into the flat arrays and closed (normalized, its realized
  // probabilities added up) when the sweep moves past its cell.
  const double m = static_cast<double>(cells);
  std::size_t last_node = weights.size();
  while (last_node > 0 && shares_[last_node - 1] * m <= 0.0) --last_node;
  // Neighbouring segments share at most their boundary cell, so there are
  // at most m + n - 1 overlap entries, plus at most one forced anchor
  // entry per node.
  offsets_.reserve(cells + 1);
  entries_.reserve(cells + 2 * weights.size());
  probabilities_.assign(weights.size(), 0.0);
  offsets_.push_back(0);

  const double cell_prob = 1.0 / m;
  std::uint64_t open = 0;  // the cell whose chain is being appended
  const auto close_chain = [&] {
    const std::size_t begin = offsets_.back();
    const std::size_t end = entries_.size();
    if (begin == end) {
      throw std::logic_error("hash table: empty chain (rounding bug)");
    }
    if (end - begin == 1) {
      // Most cells hold one entry, which normalizes to exactly 1 (x / x
      // for a finite positive x) and adds exactly cell_prob.
      entries_[begin].weight = 1.0f;
      probabilities_[entries_[begin].node] += cell_prob;
      offsets_.push_back(static_cast<std::uint32_t>(end));
      return;
    }
    // Normalize resolution weights within the chain.
    double sum = 0.0;
    for (std::size_t k = begin; k < end; ++k) sum += entries_[k].weight;
    for (std::size_t k = begin; k < end; ++k) {
      Entry& e = entries_[k];
      e.weight = static_cast<float>(e.weight / sum);
      probabilities_[e.node] += cell_prob * e.weight;
    }
    offsets_.push_back(static_cast<std::uint32_t>(end));
  };
  // A resolution weight must survive the float narrowing: a subnormal
  // double share would otherwise round to 0.0f and vanish in the chain
  // normalization.
  const auto append = [&](std::uint64_t cell, std::uint32_t node,
                          double w) {
    for (; open < cell; ++open) close_chain();
    entries_.push_back(
        {node, std::max(static_cast<float>(w),
                        std::numeric_limits<float>::min())});
  };

  double cursor = 0.0;
  for (std::size_t i = 0; i < last_node; ++i) {
    const double rate = shares_[i];
    const double width = rate * m;
    if (width <= 0.0) continue;
    // Clamp every boundary to [0, m]: the cumulative cursor accumulates
    // rounding drift, and upward drift can push a later segment's begin
    // past m, which would silently give that node zero selection
    // probability (its cell range would be empty).
    const double begin = std::min(cursor, m);
    cursor += width;
    double end = std::min(cursor, m);
    // Guard the accumulated rounding drift at the top end: only stretch
    // the last segment when downward drift left a gap below m. When the
    // cursor overshot, the segment is already clamped to m and must not
    // be widened.
    if (i + 1 == last_node && cursor < m) end = m;

    const auto node = static_cast<std::uint32_t>(i);
    const auto anchor =
        std::min(static_cast<std::uint64_t>(begin), cells - 1);
    const auto last = static_cast<std::uint64_t>(
        std::min(m - 1.0, std::ceil(end) - 1.0));
    bool inserted = false;
    for (std::uint64_t j = anchor; j <= last && j < cells; ++j) {
      const double cell_lo = static_cast<double>(j);
      const double overlap =
          std::min(end, cell_lo + 1.0) - std::max(begin, cell_lo);
      if (overlap <= 0.0) continue;
      append(j, node, weighting_ == ChainWeighting::kPaper ? rate : overlap);
      inserted = true;
    }
    // Rounding squeezed the segment to zero width (tiny share, or a
    // clamped boundary at m). Every positive-weight node must keep a
    // positive selection probability, so force one chain entry at the
    // segment's anchor cell.
    if (!inserted) append(anchor, node, rate);
  }
  for (; open < cells; ++open) close_chain();
}

std::uint32_t BlockHashTable::sample(common::Rng& rng) const {
  const std::uint64_t r = rng.uniform_index(cells_);
  const std::uint32_t begin = offsets_[r];
  const std::uint32_t end = offsets_[r + 1];
  if (end - begin == 1) return entries_[begin].node;
  const double r1 = rng.uniform();
  double low = 0.0;
  for (std::uint32_t k = begin; k < end; ++k) {
    const double high = low + entries_[k].weight;
    if (r1 < high || k + 1 == end) return entries_[k].node;
    low = high;
  }
  return entries_[end - 1].node;
}

std::vector<std::size_t> BlockHashTable::chain_length_histogram() const {
  std::vector<std::size_t> hist;
  for (std::uint64_t j = 0; j < cells_; ++j) {
    const std::size_t len = offsets_[j + 1] - offsets_[j];
    if (hist.size() <= len) hist.resize(len + 1, 0);
    ++hist[len];
  }
  return hist;
}

}  // namespace adapt::placement
