// Oracle tests for the repair and migration bookkeeping indexes: the
// NameNode's per-block pending-move index and per-node replica index,
// and the ReReplicator's per-block tracked flag. Random mutation
// sequences run on a small NameNode, and after every step each indexed
// answer is compared with a brute-force scan of the public state.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/fault_domains.h"
#include "cluster/network.h"
#include "hdfs/namenode.h"
#include "placement/random_policy.h"
#include "sim/event_queue.h"
#include "sim/rereplication.h"

namespace {

using namespace adapt;
using namespace adapt::hdfs;
using adapt::common::Rng;

constexpr std::size_t kNodes = 8;

// Four racks of two nodes, so revive trims can swap a holder whose rack
// holds a duplicate for the revived node's disk copy.
std::shared_ptr<const cluster::FaultDomains> two_per_rack() {
  return std::make_shared<const cluster::FaultDomains>(
      std::vector<std::uint32_t>{0, 0, 1, 1, 2, 2, 3, 3},
      std::vector<std::uint32_t>{0, 0, 0, 0});
}

// Every indexed query of `nn` against a scan of its public state.
void expect_indexes_match(const NameNode& nn) {
  const std::vector<ReplicaMove>& moves = nn.pending_moves();
  for (BlockId b = 0; b < nn.block_count(); ++b) {
    const bool scan =
        std::any_of(moves.begin(), moves.end(),
                    [b](const ReplicaMove& m) { return m.block == b; });
    ASSERT_EQ(nn.has_pending_moves(b), scan) << "block " << b;

    // Eligibility: placeable nodes minus holders minus pending targets,
    // then the anti-affine step over holders plus targets (in
    // pending_moves() order).
    cluster::NodeMask expected = nn.placement_mask();
    std::vector<cluster::NodeIndex> taken = nn.block(b).replicas;
    for (const cluster::NodeIndex holder : taken) expected.reset(holder);
    for (const ReplicaMove& m : moves) {
      if (m.block != b) continue;
      expected.reset(m.to);
      taken.push_back(m.to);
    }
    nn.fault_domains()->restrict_anti_affine(expected, taken);
    ASSERT_EQ(nn.eligibility_for_new_replica(b), expected) << "block " << b;
  }
  for (const ReplicaMove& m : moves) {
    ASSERT_TRUE(nn.has_pending_move(m.block, m.from, m.to));
  }
  // mark_node_dead answers from the per-node index (built on first use);
  // run it on a copy per node and compare with an ascending scan.
  for (cluster::NodeIndex n = 0; n < kNodes; ++n) {
    NameNode copy = nn;
    std::vector<BlockId> scan;
    for (BlockId b = 0; b < copy.block_count(); ++b) {
      if (copy.block(b).hosted_on(n)) scan.push_back(b);
    }
    if (nn.is_dead(n)) {
      ASSERT_TRUE(scan.empty()) << "dead node " << n << " holds replicas";
      ASSERT_TRUE(copy.mark_node_dead(n).empty());
    } else {
      ASSERT_EQ(copy.mark_node_dead(n), scan) << "node " << n;
    }
  }
}

// What the random sequences exercised, so the test can insist that
// every mutation path it claims to cover was actually taken.
struct Coverage {
  int creates = 0;
  int rollbacks = 0;
  int adds = 0;
  int duplicate_adds = 0;
  int removes = 0;
  int begins = 0;
  int commits = 0;
  int commits_from_written_off = 0;
  int aborts = 0;
  int inbound_aborts_by_death = 0;
  int deaths = 0;
  int revives = 0;
  int trim_swaps = 0;
};

void run_random_sequence(std::uint64_t seed, int steps, Coverage& cov) {
  // Capacity 14 blocks per node: big creates run out of room part-way
  // and must roll back every block they placed.
  NameNode nn(std::vector<std::uint64_t>(kNodes, 14), NameNode::Options{});
  nn.set_fault_domains(two_per_rack(), /*anti_affine=*/true);
  const placement::PolicyPtr policy = placement::make_random_policy(kNodes);
  Rng rng(seed);
  int file_seq = 0;

  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_index(n));
  };
  auto live_nodes = [&] {
    std::vector<cluster::NodeIndex> out;
    for (cluster::NodeIndex n = 0; n < kNodes; ++n) {
      if (!nn.is_dead(n)) out.push_back(n);
    }
    return out;
  };
  auto dead_nodes = [&] {
    std::vector<cluster::NodeIndex> out;
    for (cluster::NodeIndex n = 0; n < kNodes; ++n) {
      if (nn.is_dead(n)) out.push_back(n);
    }
    return out;
  };
  auto create = [&](std::uint32_t blocks) {
    const std::string name = "f" + std::to_string(file_seq++);
    try {
      nn.create_file(name, blocks, 2, policy, rng);
      ++cov.creates;
    } catch (const std::runtime_error&) {
      ++cov.rollbacks;
    }
  };

  create(6);
  for (int step = 0; step < steps; ++step) {
    const std::size_t op = pick(12);
    const std::size_t blocks = nn.block_count();
    if (op == 0) {
      // Mostly small files; one in four asks for more room than is left.
      create(pick(4) == 0 ? 40 : static_cast<std::uint32_t>(1 + pick(3)));
    } else if (op == 1 && blocks > 0) {
      const BlockId b = pick(blocks);
      const cluster::NodeMask mask = nn.placement_mask();
      std::vector<cluster::NodeIndex> targets;
      for (cluster::NodeIndex n = 0; n < kNodes; ++n) {
        if (mask.test(n)) targets.push_back(n);
      }
      if (targets.empty()) continue;
      const cluster::NodeIndex n = targets[pick(targets.size())];
      if (nn.block(b).hosted_on(n)) ++cov.duplicate_adds;
      nn.add_replica(b, n);
      ++cov.adds;
    } else if (op == 2 && blocks > 0) {
      const BlockId b = pick(blocks);
      const std::vector<cluster::NodeIndex>& holders = nn.block(b).replicas;
      if (holders.empty()) continue;
      nn.remove_replica(b, holders[pick(holders.size())]);
      ++cov.removes;
    } else if ((op == 3 || op == 4) && blocks > 0) {
      const BlockId b = pick(blocks);
      const std::vector<cluster::NodeIndex>& holders = nn.block(b).replicas;
      if (holders.empty()) continue;
      const cluster::NodeIndex from = holders[pick(holders.size())];
      const cluster::NodeMask eligible = nn.eligibility_for_new_replica(b);
      std::vector<cluster::NodeIndex> targets;
      for (cluster::NodeIndex n = 0; n < kNodes; ++n) {
        if (eligible.test(n)) targets.push_back(n);
      }
      if (targets.empty()) continue;
      nn.begin_move(b, from, targets[pick(targets.size())]);
      ++cov.begins;
    } else if (op == 5 && !nn.pending_moves().empty()) {
      const ReplicaMove m = nn.pending_moves()[pick(nn.pending_moves().size())];
      if (!nn.block(m.block).hosted_on(m.from)) ++cov.commits_from_written_off;
      nn.commit_move(m.block, m.from, m.to);
      ++cov.commits;
    } else if (op == 6 && !nn.pending_moves().empty()) {
      const ReplicaMove m = nn.pending_moves()[pick(nn.pending_moves().size())];
      nn.abort_move(m.block, m.from, m.to);
      ++cov.aborts;
    } else if ((op == 7 || op == 8) && live_nodes().size() > 3) {
      const std::vector<cluster::NodeIndex> live = live_nodes();
      const cluster::NodeIndex n = live[pick(live.size())];
      for (const ReplicaMove& m : nn.pending_moves()) {
        if (m.to == n) ++cov.inbound_aborts_by_death;
      }
      nn.mark_node_dead(n);
      ++cov.deaths;
    } else if ((op == 9 || op == 10) && !dead_nodes().empty()) {
      const std::vector<cluster::NodeIndex> dead = dead_nodes();
      const cluster::NodeIndex n = dead[pick(dead.size())];
      const NameNode::ReviveReport report = nn.revive_node(n);
      for (const NameNode::ReplicaDrop& drop : report.trimmed) {
        if (drop.node != n) ++cov.trim_swaps;
      }
      ++cov.revives;
    } else if (op == 11 && !nn.pending_moves().empty()) {
      // Write off the source of a pending move, then commit it: the new
      // replica still lands.
      const ReplicaMove m = nn.pending_moves()[pick(nn.pending_moves().size())];
      if (live_nodes().size() <= 3) continue;
      nn.mark_node_dead(m.from);
      ++cov.deaths;
      if (nn.has_pending_move(m.block, m.from, m.to)) {
        ++cov.commits_from_written_off;
        nn.commit_move(m.block, m.from, m.to);
        ++cov.commits;
      }
    }
    expect_indexes_match(nn);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << " step " << step << " op " << op;
      return;
    }
  }
}

TEST(RepairIndex, NameNodeIndexesMatchBruteForceUnderRandomMutations) {
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_random_sequence(seed, 300, total);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(total.creates, 0);
  EXPECT_GT(total.rollbacks, 0);
  EXPECT_GT(total.adds, 0);
  EXPECT_GT(total.duplicate_adds, 0);
  EXPECT_GT(total.removes, 0);
  EXPECT_GT(total.begins, 0);
  EXPECT_GT(total.commits, 0);
  EXPECT_GT(total.commits_from_written_off, 0);
  EXPECT_GT(total.aborts, 0);
  EXPECT_GT(total.inbound_aborts_by_death, 0);
  EXPECT_GT(total.deaths, 0);
  EXPECT_GT(total.revives, 0);
  EXPECT_GT(total.trim_swaps, 0);
}

// A rollback that happens after the per-node index exists must unlist
// every block it placed, including the earlier, complete ones.
TEST(RepairIndex, FailedCreateAfterFirstDeathLeavesNoIndexEntries) {
  NameNode nn(std::vector<std::uint64_t>(kNodes, 4), NameNode::Options{});
  nn.set_fault_domains(two_per_rack(), /*anti_affine=*/true);
  const placement::PolicyPtr policy = placement::make_random_policy(kNodes);
  Rng rng(3);
  nn.create_file("a", 4, 2, policy, rng);
  nn.mark_node_dead(7);  // builds the per-node index
  EXPECT_THROW(nn.create_file("b", 40, 2, policy, rng), std::runtime_error);
  EXPECT_EQ(nn.block_count(), 4u);
  expect_indexes_match(nn);
}

// -- ReReplicator tracked flag ----------------------------------------

cluster::Network make_net(std::size_t nodes) {
  cluster::Network::Config config;
  config.uplink_bps.assign(nodes, 1024.0 * 1024.0 * 8);
  config.downlink_bps.assign(nodes, 1024.0 * 1024.0 * 8);
  return cluster::Network(config);
}

// Six nodes, one three-way-replicated file; the pipeline is built
// unarmed (no policy), so enqueued blocks wait as pending until arm().
struct RepairHarness {
  sim::EventQueue queue;
  NameNode nn{6};
  cluster::Network net = make_net(6);
  std::vector<bool> up = std::vector<bool>(6, true);
  sim::ReReplicator repl;
  FileId file = 0;

  explicit RepairHarness(std::uint32_t blocks, int max_concurrent = 4)
      : repl(queue, nn, net, 1024 * 1024, config(max_concurrent), Rng(7),
             [this](cluster::NodeIndex n) { return up[n]; }) {
    Rng rng(11);
    file = nn.create_file("f", blocks, 3, placement::make_random_policy(6),
                          rng);
  }

  static sim::ReReplicator::Config config(int max_concurrent) {
    sim::ReReplicator::Config c;
    c.max_concurrent = max_concurrent;
    c.backoff_jitter = 0.0;
    return c;
  }

  void arm() {
    repl.set_policy(placement::make_random_policy(6));
    repl.on_node_up(0);  // any availability change pumps the queue
  }
  void drop_one(BlockId b) { nn.remove_replica(b, nn.block(b).replicas[0]); }
  int under_replicated() const {
    int count = 0;
    for (const BlockId b : nn.file(file).blocks) {
      if (nn.block(b).replicas.size() < 3) ++count;
    }
    return count;
  }
};

TEST(RepairIndex, DuplicateEnqueueIgnoredWhilePendingOrInFlight) {
  RepairHarness h(4);
  h.drop_one(2);
  h.repl.enqueue(2);
  h.repl.enqueue(2);  // pending
  EXPECT_EQ(h.repl.stats().enqueued, 1u);
  EXPECT_EQ(h.repl.backlog(), 1u);

  h.arm();
  EXPECT_EQ(h.repl.stats().started, 1u);
  h.repl.enqueue(2);  // in flight
  EXPECT_EQ(h.repl.stats().enqueued, 1u);
  EXPECT_EQ(h.repl.backlog(), 1u);

  while (h.queue.run_next()) {
  }
  EXPECT_EQ(h.repl.stats().completed, 1u);
  EXPECT_EQ(h.repl.backlog(), 0u);
  EXPECT_EQ(h.nn.block(2).replicas.size(), 3u);
}

TEST(RepairIndex, BlockIsAdmittedAgainAfterFinishing) {
  RepairHarness h(4);
  h.arm();
  h.drop_one(1);
  h.repl.enqueue(1);
  while (h.queue.run_next()) {
  }
  ASSERT_EQ(h.repl.backlog(), 0u);
  h.repl.enqueue(1);  // back at target: nothing to do, not admitted
  EXPECT_EQ(h.repl.stats().enqueued, 1u);

  h.drop_one(1);
  h.repl.enqueue(1);
  EXPECT_EQ(h.repl.stats().enqueued, 2u);
  while (h.queue.run_next()) {
  }
  EXPECT_EQ(h.repl.stats().completed, 2u);
  EXPECT_EQ(h.repl.backlog(), 0u);
}

TEST(RepairIndex, BlockLostWhileWaitingIsCountedOnce) {
  RepairHarness h(4);
  h.drop_one(3);
  h.repl.enqueue(3);
  ASSERT_EQ(h.repl.backlog(), 1u);
  while (!h.nn.block(3).replicas.empty()) h.drop_one(3);

  h.arm();  // the drain finds the entry stale and drops it
  EXPECT_EQ(h.repl.stats().unrecoverable, 1u);
  EXPECT_EQ(h.repl.backlog(), 0u);
  h.repl.on_node_up(1);
  h.repl.on_node_down(2);
  EXPECT_EQ(h.repl.stats().unrecoverable, 1u);
  EXPECT_EQ(h.repl.stats().started, 0u);

  // Dropping the entry untracked the block: once a copy reappears (a
  // revive block report), the block is admitted again.
  h.nn.add_replica(3, 4);
  h.repl.enqueue(3);
  EXPECT_EQ(h.repl.stats().enqueued, 2u);
  EXPECT_EQ(h.repl.backlog(), 1u);
}

// With a transfer cap of two and a node dying mid-repair, the backlog
// always equals the number of admitted blocks still below target, and
// every one of them is tracked (a second enqueue is ignored).
TEST(RepairIndex, BacklogIsPendingPlusInFlight) {
  RepairHarness h(30, /*max_concurrent=*/2);
  const std::vector<BlockId> affected = h.nn.mark_node_dead(5);
  ASSERT_GT(affected.size(), 4u);
  h.up[5] = false;
  for (const BlockId b : affected) h.repl.enqueue(b);
  const std::uint64_t admitted = h.repl.stats().enqueued;
  ASSERT_EQ(admitted, affected.size());
  EXPECT_EQ(h.repl.backlog(), affected.size());

  h.arm();
  bool failed_one = false;
  for (int step = 0; step < 10000; ++step) {
    ASSERT_EQ(h.repl.backlog(),
              static_cast<std::size_t>(h.under_replicated()));
    for (const BlockId b : affected) h.repl.enqueue(b);
    ASSERT_EQ(h.repl.stats().enqueued, admitted);
    if (!failed_one && h.repl.stats().started >= 3) {
      // Every live node goes down mid-transfer: each in-flight repair
      // moves back to pending with a retry, and stays tracked.
      for (cluster::NodeIndex n = 0; n < 5; ++n) {
        h.up[n] = false;
        h.repl.on_node_down(n);
      }
      ASSERT_EQ(h.repl.backlog(),
                static_cast<std::size_t>(h.under_replicated()));
      for (cluster::NodeIndex n = 0; n < 5; ++n) {
        h.up[n] = true;
        h.repl.on_node_up(n);
      }
      failed_one = true;
    }
    if (!h.queue.run_next()) break;
  }
  EXPECT_TRUE(failed_one);
  EXPECT_GT(h.repl.stats().retries, 0u);
  EXPECT_EQ(h.repl.backlog(), 0u);
  EXPECT_EQ(h.under_replicated(), 0);
  EXPECT_EQ(h.repl.stats().completed, affected.size());
}

}  // namespace
