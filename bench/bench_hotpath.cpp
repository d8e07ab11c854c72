// Hot-path perf baseline: the regression surface for the NodeMask
// placement API, the memoized interruption model and the pooled
// simulator internals. Five measurements:
//   1. placement micro  — ns per ADAPT draw against a pre-built
//      all-eligible NodeMask (pure Algorithm-1 lookup + rejection),
//      plus the jump-hash draw and the ms per Algorithm-1 table build
//      that every policy refresh pays.
//   2. create_file      — end-to-end ns per placement draw through the
//      NameNode (mask maintenance + fidelity cap + policy feedback).
//   2b. repair layer    — µs per NameNode dead declaration and ns per
//      re-replication enqueue against a standing backlog.
//   3. simulation       — events/s of a full map-phase run on the
//      emulated 256-node cluster (event queue + network hot loops).
//   4. churn recovery   — wall time of a churn run with the
//      re-replication pipeline on (policy rebuilds hit the shared
//      Eq. 5 cache; repair placement goes through the mask path),
//      plus the same run with only the causal lineage index enabled
//      (churn_lineage/wall_s) to bound the --lineage streaming cost.
//
// The committed BENCH_hotpath.json at the repo root is the --quick
// baseline CI compares against (warn-only; see tools/compare_bench.py
// and DESIGN.md §7). Timings are machine-dependent — regenerate the
// baseline with this binary when reference hardware changes.
//
//   ./bench_hotpath [--quick] [--obs] [--runs R] [--seed S] [--json PATH]
//                   [--threads T] [--trace PATH] [--metrics]
//
// --obs turns the full observability stack on for the simulation and
// churn measurements (metrics + spans + calibration + 5 s time-series
// sampling) while keeping metric names unchanged, so CI can run the
// bench twice and diff the two JSONs with tools/compare_bench.py to
// bound the enabled-path overhead (warn-only). Without --obs every
// hook sits on its disabled path, which is the committed baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/network.h"
#include "cluster/node_mask.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "hdfs/namenode.h"
#include "placement/adapt_policy.h"
#include "placement/jump_hash_policy.h"
#include "placement/random_policy.h"
#include "sim/event_queue.h"
#include "sim/rereplication.h"
#include "trace/generator.h"
#include "workload/terasort.h"

namespace {

using namespace adapt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One row of BENCH_hotpath.json. `better` tells the compare script
// which direction is a regression ("lower", "higher") or to report
// without comparing ("info").
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string better;
};

std::vector<double> synthetic_expected_times(std::size_t nodes) {
  common::Rng rng(17);
  std::vector<double> et(nodes);
  for (double& v : et) v = 8.0 + rng.uniform() * 72.0;
  return et;
}

// 1. Pure draw cost: Algorithm-1 hash-table lookup plus the rejection
// loop, against a fully eligible mask (the common case in a healthy
// cluster — every rejection-path draw hits on the first try).
void bench_placement_micro(std::vector<Metric>& metrics, bool quick) {
  // Even --quick keeps 1M draws: the loop costs milliseconds and
  // anything shorter is dominated by timer/cache noise.
  const std::uint64_t iterations = quick ? 1'000'000 : 2'000'000;
  std::printf("\n--- placement micro (%llu draws per size) ---\n",
              static_cast<unsigned long long>(iterations));
  for (const std::size_t nodes : {std::size_t{128}, std::size_t{1024},
                                  std::size_t{8192}}) {
    const auto policy =
        placement::make_adapt_policy(synthetic_expected_times(nodes),
                                     nodes * 20);
    const cluster::NodeMask eligible(nodes, true);
    common::Rng rng(23);
    std::uint64_t sink = 0;  // keep the draws observable
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
      sink += policy->choose(eligible, rng).value_or(0);
    }
    const double ns = seconds_since(t0) * 1e9 /
                      static_cast<double>(iterations);
    std::printf("nodes=%5zu  %7.1f ns/draw  (checksum %llu)\n", nodes, ns,
                static_cast<unsigned long long>(sink));
    metrics.push_back({"placement_micro/nodes=" + std::to_string(nodes),
                       ns, "ns/draw", "lower"});
  }
}

// 1b. Jump-consistent-hash draw cost: the keyed O(ln n) bucket walk plus
// the ring probe, against a fully eligible mask (zero probing in the
// common case). No rng, no hash table — this is the policy the churn
// bench credits with O(1/n) remap; its draw must stay competitive.
void bench_jump_micro(std::vector<Metric>& metrics, bool quick) {
  const std::uint64_t iterations = quick ? 1'000'000 : 2'000'000;
  std::printf("\n--- jump placement micro (%llu draws per size) ---\n",
              static_cast<unsigned long long>(iterations));
  for (const std::size_t nodes : {std::size_t{128}, std::size_t{1024},
                                  std::size_t{8192}}) {
    std::vector<cluster::NodeIndex> order(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      order[i] = static_cast<cluster::NodeIndex>(i);
    }
    const placement::JumpHashPolicy policy(std::move(order));
    const cluster::NodeMask eligible(nodes, true);
    common::Rng rng(23);  // untouched by the keyed path
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
      sink += policy
                  .choose_keyed(i, static_cast<std::uint32_t>(i & 1),
                                eligible, rng)
                  .value_or(0);
    }
    const double ns = seconds_since(t0) * 1e9 /
                      static_cast<double>(iterations);
    std::printf("nodes=%5zu  %7.1f ns/draw  (checksum %llu)\n", nodes, ns,
                static_cast<unsigned long long>(sink));
    metrics.push_back({"jump_micro/nodes=" + std::to_string(nodes), ns,
                       "ns/draw", "lower"});
  }
}

// 1c. Algorithm-1 table build: the cost every policy refresh pays (dead
// declaration, revive, rebalance pass) on top of the load. 100 cells per
// node, as in the churn and rebalance workloads. Median of repeated
// builds, since one build is short enough for a single timer tick or
// page fault to dominate it.
void bench_table_build(std::vector<Metric>& metrics, bool quick) {
  const int builds = quick ? 15 : 41;
  std::printf("\n--- hash-table build (100 cells/node, median of %d) ---\n",
              builds);
  for (const std::size_t nodes : {std::size_t{256}, std::size_t{1024},
                                  std::size_t{8192}}) {
    std::vector<double> weights;
    for (const double et : synthetic_expected_times(nodes)) {
      weights.push_back(1.0 / et);
    }
    std::vector<double> ms;
    double sink = 0.0;  // keep the builds observable
    for (int i = 0; i < builds; ++i) {
      const auto t0 = Clock::now();
      const placement::BlockHashTable table(weights, nodes * 100,
                                            placement::ChainWeighting::kPaper);
      ms.push_back(seconds_since(t0) * 1e3);
      sink += table.selection_probabilities().back();
    }
    std::nth_element(ms.begin(), ms.begin() + builds / 2, ms.end());
    const double median = ms[builds / 2];
    std::printf("nodes=%5zu  %8.3f ms/build  (checksum %.6g)\n", nodes,
                median, sink);
    metrics.push_back({"table_build/nodes=" + std::to_string(nodes), median,
                       "ms", "lower"});
  }
}

// 2. End-to-end placement through the NameNode: incremental mask
// maintenance, per-call fidelity cap, capacity bookkeeping and the
// policy feedback loop. 20480 blocks x 2 replicas per size.
void bench_create_file(std::vector<Metric>& metrics) {
  const std::uint32_t blocks = 20480;
  const int replication = 2;
  std::printf("\n--- create_file end-to-end (%u blocks, r%d) ---\n", blocks,
              replication);
  for (const std::size_t nodes : {std::size_t{128}, std::size_t{1024},
                                  std::size_t{8192}}) {
    const auto policy =
        placement::make_adapt_policy(synthetic_expected_times(nodes),
                                     blocks);
    hdfs::NameNode::Options options;
    options.fidelity_cap = true;
    hdfs::NameNode namenode(nodes, options);
    common::Rng rng(23);
    const auto t0 = Clock::now();
    namenode.create_file("f", blocks, replication, policy, rng);
    const double ns = seconds_since(t0) * 1e9 /
                      (static_cast<double>(blocks) * replication);
    std::printf("nodes=%5zu  %7.1f ns/draw\n", nodes, ns);
    metrics.push_back({"create_file/nodes=" + std::to_string(nodes), ns,
                       "ns/draw", "lower"});
  }
}

// Median of a sample, in place.
double median_of(std::vector<double>& xs) {
  std::nth_element(xs.begin(),
                   xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2),
                   xs.end());
  return xs[xs.size() / 2];
}

// 2b. Repair layer. A dead declaration writes off every replica the
// node held (100 blocks per node, r3, so about 300 per node); the first
// declaration also builds the per-node replica index and is printed
// apart. Then the re-replication admission check: duplicate enqueues
// against a standing backlog of `backlog` pending blocks (a block that
// loses another holder while it waits is announced again).
void bench_repair_layer(std::vector<Metric>& metrics, bool quick) {
  const int deaths = quick ? 21 : 61;
  std::printf("\n--- mark_node_dead (100 blocks/node, r3, median of %d) "
              "---\n",
              deaths);
  for (const std::size_t nodes : {std::size_t{1024}, std::size_t{8192}}) {
    hdfs::NameNode namenode(nodes);
    common::Rng rng(29);
    namenode.create_file("f", static_cast<std::uint32_t>(nodes * 100), 3,
                         placement::make_random_policy(nodes), rng);
    auto t0 = Clock::now();
    std::size_t sink = namenode.mark_node_dead(0).size();
    const double first_us = seconds_since(t0) * 1e6;
    std::vector<double> us;
    for (int i = 1; i <= deaths; ++i) {
      const auto node = static_cast<cluster::NodeIndex>(
          static_cast<std::size_t>(i) * (nodes / (deaths + 1)));
      t0 = Clock::now();
      sink += namenode.mark_node_dead(node).size();
      us.push_back(seconds_since(t0) * 1e6);
    }
    const double median = median_of(us);
    std::printf("nodes=%5zu  %8.2f us/call  (first call %.0f us, "
                "%zu blocks written off)\n",
                nodes, median, first_us, sink);
    metrics.push_back({"mark_node_dead/nodes=" + std::to_string(nodes),
                       median, "us", "lower"});
  }

  const int trials = quick ? 15 : 41;
  std::printf("\n--- rereplication enqueue (duplicates against the "
              "backlog, median of %d) ---\n",
              trials);
  for (const std::size_t backlog : {std::size_t{1000}, std::size_t{10000}}) {
    const std::size_t nodes = 256;
    hdfs::NameNode namenode(nodes);
    common::Rng rng(31);
    namenode.create_file("f", static_cast<std::uint32_t>(backlog), 3,
                         placement::make_random_policy(nodes), rng);
    for (hdfs::BlockId b = 0; b < backlog; ++b) {
      namenode.remove_replica(b, namenode.block(b).replicas[0]);
    }
    cluster::Network::Config net;
    net.uplink_bps.assign(nodes, 1e8);
    net.downlink_bps.assign(nodes, 1e8);
    cluster::Network network(net);
    sim::EventQueue queue;
    std::vector<double> ns;
    std::size_t sink = 0;
    for (int t = 0; t < trials; ++t) {
      // No policy installed: the pipeline queues but never starts a
      // transfer, so the backlog stays at `backlog` blocks.
      sim::ReReplicator repl(queue, namenode, network, 1 << 20, {},
                             common::Rng(37),
                             [](cluster::NodeIndex) { return true; });
      for (hdfs::BlockId b = 0; b < backlog; ++b) repl.enqueue(b);
      const auto t0 = Clock::now();
      for (hdfs::BlockId b = 0; b < backlog; ++b) repl.enqueue(b);
      ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(backlog));
      sink += repl.backlog();
    }
    const double median = median_of(ns);
    std::printf("backlog=%5zu  %8.1f ns/call  (checksum %zu)\n", backlog,
                median, sink);
    metrics.push_back({"rereplication_enqueue/backlog=" +
                           std::to_string(backlog),
                       median, "ns", "lower"});
  }
}

// 3. Simulator throughput: full map-phase runs on the emulated cluster;
// the inner loops are the slab-pooled event queue and the span-arena
// network model.
// With `obs` every collection hook is live: metrics, spans, calibration
// pairing and 5 s sampling — the enabled-path cost CI bounds warn-only.
obs::Options obs_stack() {
  obs::Options obs;
  obs.metrics = true;
  obs.spans = true;
  obs.sample_dt = 5.0;
  obs.calibration.enabled = true;
  obs.calibration.per_node = true;
  obs.lineage = true;
  return obs;
}

void bench_simulation(std::vector<Metric>& metrics, int runs, bool obs) {
  cluster::EmulationConfig emu;
  emu.node_count = 256;
  const cluster::Cluster cl = cluster::emulated_cluster(emu);
  core::ExperimentConfig config;
  config.policy = core::PolicyKind::kAdapt;
  config.replication = 2;
  config.blocks = 5120;
  config.job.gamma = 8.0;
  config.seed = 7;
  if (obs) config.obs = obs_stack();
  std::uint64_t events = 0;
  double wall = 0.0;
  for (int i = 0; i < runs; ++i) {
    const auto t0 = Clock::now();
    const core::ExperimentResult r = core::run_experiment(cl, config);
    wall += seconds_since(t0);
    events += r.job.events_processed;
  }
  const double rate = static_cast<double>(events) / wall;
  std::printf("\n--- simulation (256 nodes, adapt r2, %d run(s)) ---\n"
              "%llu events in %.3f s -> %.0f events/s\n",
              runs, static_cast<unsigned long long>(events), wall, rate);
  metrics.push_back({"simulation/events_per_s", rate, "events/s",
                     "higher"});
}

// 4. Churn recovery: permanent departures with the re-replication
// pipeline on. Every dead declaration rebuilds the destination policy
// (shared TaskTimeCache) and every repair draws through the mask path.
void bench_churn_recovery(std::vector<Metric>& metrics, int runs,
                          std::uint64_t seed, bool obs) {
  const std::size_t nodes = 128;
  trace::GeneratorConfig gc;
  gc.node_count = nodes;
  gc.horizon = 14.0 * 24 * 3600;
  gc.seed = seed;
  const trace::GeneratedTrace gen = trace::generate_seti_like_trace(gc);
  std::vector<avail::InterruptionParams> params;
  params.reserve(gen.truth.size());
  for (const trace::HostTruth& host : gen.truth) {
    params.push_back(host.params());
  }
  const cluster::Cluster cl =
      cluster::model_cluster(params, cluster::TraceClusterConfig{});
  const workload::Workload w = workload::simulation_workload();

  core::ExperimentConfig config;
  config.policy = core::PolicyKind::kAdapt;
  config.replication = 2;
  config.blocks = w.blocks_for(nodes);
  config.job.gamma = w.gamma();
  config.job.allow_origin_fetch = false;
  config.seed = seed;
  config.job.churn.enabled = true;
  config.job.churn.departure_rate = 1.0 / 7200.0;
  config.job.churn.dead_timeout = 60.0;
  config.job.churn.rereplication.enabled = true;
  if (obs) config.obs = obs_stack();

  std::uint64_t rereplications = 0;
  double wall = 0.0;
  for (int i = 0; i < runs; ++i) {
    config.seed = seed + static_cast<std::uint64_t>(i);
    const auto t0 = Clock::now();
    const core::ExperimentResult r = core::run_experiment(cl, config);
    wall += seconds_since(t0);
    rereplications += r.job.rereplications;
  }
  std::printf("\n--- churn recovery (128 nodes, adapt r2 +rr, %d run(s)) "
              "---\n%.3f s wall, %llu re-replication(s)\n",
              runs, wall,
              static_cast<unsigned long long>(rereplications));
  metrics.push_back({"churn_recovery/wall_s", wall, "s", "lower"});
  metrics.push_back({"churn_recovery/rereplications",
                     static_cast<double>(rereplications), "count",
                     "info"});

  // 4b. Lineage overhead: the same churn run with ONLY the lineage
  // index on — event tracer plus the streaming causal accumulator and
  // its final snapshot. The delta against churn_recovery/wall_s bounds
  // the --lineage cost; the --obs comparison covers the full stack.
  obs::Options lineage_only;
  lineage_only.lineage = true;
  config.obs = lineage_only;
  std::uint64_t losses = 0;
  double lineage_wall = 0.0;
  for (int i = 0; i < runs; ++i) {
    config.seed = seed + static_cast<std::uint64_t>(i);
    const auto t0 = Clock::now();
    const core::ExperimentResult r = core::run_experiment(cl, config);
    lineage_wall += seconds_since(t0);
    if (r.obs.lineage != nullptr) {
      losses += obs::post_mortem(*r.obs.lineage).total;
    }
  }
  std::printf("\n--- churn recovery + lineage index (%d run(s)) ---\n"
              "%.3f s wall, %llu classified loss(es)\n",
              runs, lineage_wall, static_cast<unsigned long long>(losses));
  metrics.push_back({"churn_lineage/wall_s", lineage_wall, "s", "lower"});
}

void write_json(const std::vector<Metric>& metrics, bool quick,
                const std::string& path) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"hotpath\",\n  \"schema\": 1,\n"
                    "  \"mode\": \"%s\",\n  \"metrics\": [\n",
               quick ? "quick" : "full");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": "
                 "\"%s\", \"better\": \"%s\"}%s\n",
                 m.name.c_str(), m.value, m.unit.c_str(),
                 m.better.c_str(), i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %zu metric(s) to %s\n", metrics.size(),
              path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  const common::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const bool obs = flags.get_bool("obs", false);
  const bench::BenchOptions common_opts =
      bench::bench_options(flags, {.runs = 3, .seed = 7});
  const int runs = quick ? 1 : common_opts.runs;
  const std::uint64_t seed = common_opts.seed;
  const bench::RunnerOptions& options = common_opts.runner;
  bench::abort_on_unused_flags(flags);

  bench::print_header(
      "Hot-path perf baseline (DESIGN.md §7)",
      std::string("placement draw / table build / create_file / "
                  "repair layer / simulation / churn recovery; ") +
          (quick ? "--quick (CI smoke scale)" : "full scale") +
          (obs ? "; full observability stack ON" : ""));

  std::vector<Metric> metrics;
  bench_placement_micro(metrics, quick);
  bench_jump_micro(metrics, quick);
  bench_table_build(metrics, quick);
  bench_create_file(metrics);
  bench_repair_layer(metrics, quick);
  bench_simulation(metrics, runs, obs);
  bench_churn_recovery(metrics, runs, seed, obs);
  write_json(metrics, quick, options.json_path);
  return 0;
}
