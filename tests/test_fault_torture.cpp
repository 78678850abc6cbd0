// Randomized protocol-torture suite for the fault-injection layer: many
// seeded iterations of (sparsity, topology, loss, fault schedule) tuples.
// The contract under test is graceful degradation (docs/ROBUSTNESS.md):
// every run either completes with a result bit-equal to the serial
// reference reduction, or terminates with a structured failure verdict
// before the bounded simulated-time watchdog — it never hangs. Either
// outcome must replay bit-identically from the same seeds.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/collectives.h"
#include "core/engine.h"
#include "core/session.h"
#include "report_goldens.h"
#include "sim/rng.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

constexpr std::size_t kIterations = 220;

struct TortureCase {
  Config cfg;
  ClusterSpec cluster;
  std::size_t n_workers = 0;
  std::size_t n_elements = 0;
  double block_sparsity = 0.0;
  std::uint64_t tensor_seed = 0;
};

std::vector<tensor::DenseTensor> case_tensors(const TortureCase& tc) {
  sim::Rng rng(tc.tensor_seed);
  return tensor::make_multi_worker(tc.n_workers, tc.n_elements,
                                   tc.cfg.block_size, tc.block_sparsity,
                                   tensor::OverlapMode::kRandom, rng);
}

bool bit_equal(const tensor::DenseTensor& a, const tensor::DenseTensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(float)) == 0;
}

/// One torture tuple, derived entirely from the iteration index. Iterations
/// i % 10 == 0 are forced failures (a worker crashes at t=0 and never
/// restarts — the liveness check must convict it); i % 10 == 5 are
/// fault-light (stragglers only — guaranteed to complete). Everything else
/// draws a random mixture of crashes, stalls and flaps.
TortureCase make_case(std::uint64_t i) {
  sim::Rng rng(0xfa017u + i * 0x9e3779b97f4a7c15ULL);
  TortureCase tc;
  tc.n_workers = 2 + rng.next_below(5);
  tc.n_elements = std::size_t{4096} << rng.next_below(3);
  tc.block_sparsity = 0.2 + 0.7 * rng.next_double();
  tc.tensor_seed = rng.next_u64();

  tc.cfg = Config::for_transport(rng.next_bool(0.5) ? Transport::kDpdk
                                                    : Transport::kRdma);
  // Bit-exact completion needs order-independent folding; the serial
  // reference is the ground truth every completing run must reproduce.
  tc.cfg.deterministic_reduction = true;
  tc.cfg.retransmit_timeout = sim::microseconds(200);

  FabricConfig fabric;
  fabric.seed = rng.next_u64() | 1;
  switch (rng.next_below(3)) {
    case 1:
      fabric.loss_rate = 0.005 + 0.015 * rng.next_double();
      break;
    case 2:
      fabric.burst_loss.p_good_to_bad = 0.01;
      fabric.burst_loss.p_bad_to_good = 0.25;
      break;
    default:
      break;
  }
  if (rng.next_bool(0.2)) {
    tc.cluster = ClusterSpec::colocated(fabric);
  } else {
    tc.cluster = ClusterSpec::dedicated(1 + rng.next_below(2), fabric);
  }
  if (rng.next_bool(0.3)) {
    tc.cluster.topology =
        TopologySpec::two_tier_racks(2, rng.next_bool(0.5) ? 1.0 : 4.0);
  }
  const std::size_t n_aggs =
      tc.cluster.deployment == Deployment::kColocated
          ? tc.n_workers
          : tc.cluster.n_aggregator_nodes;

  FaultSpec& f = tc.cluster.faults;
  f.seed = rng.next_u64() | 1;
  f.watchdog = sim::seconds(1);
  // Liveness deadlines sized to the schedule below: every injected outage
  // ends well under 50 ms, so a conviction always names a genuinely dead
  // peer, and forced failures resolve far before the watchdog.
  f.retry.peer_dead_after = sim::milliseconds(50);
  f.retry.unreachable_after = sim::milliseconds(200);

  const std::uint64_t mode = i % 10;
  if (mode == 0) {
    f.crashes.push_back({static_cast<std::uint32_t>(
                             rng.next_below(tc.n_workers)),
                         0, 0});
  } else if (mode == 5) {
    f.stragglers.mean_delay_ns = 2e3 + 2e4 * rng.next_double();
  } else {
    if (rng.next_bool(0.5)) {
      f.stragglers.mean_delay_ns = 3e4 * rng.next_double();
    }
    if (rng.next_bool(0.6)) {
      CrashSpec c;
      c.worker = static_cast<std::uint32_t>(rng.next_below(tc.n_workers));
      c.at = sim::microseconds(10 + static_cast<sim::Time>(
                                        rng.next_below(400)));
      c.restart_after = rng.next_bool(0.85)
                            ? sim::microseconds(20 + static_cast<sim::Time>(
                                                         rng.next_below(300)))
                            : 0;
      f.crashes.push_back(c);
    }
    if (rng.next_bool(0.4)) {
      AggStallSpec s;
      s.aggregator = static_cast<std::uint32_t>(rng.next_below(n_aggs));
      s.at = sim::microseconds(static_cast<sim::Time>(rng.next_below(300)));
      s.duration =
          sim::microseconds(1 + static_cast<sim::Time>(rng.next_below(500)));
      f.agg_stalls.push_back(s);
    }
    if (rng.next_bool(0.3)) {
      NicFlapSpec nf;
      nf.on_aggregator = rng.next_bool(0.5);
      nf.index = static_cast<std::uint32_t>(
          rng.next_below(nf.on_aggregator ? n_aggs : tc.n_workers));
      nf.at = sim::microseconds(static_cast<sim::Time>(rng.next_below(300)));
      nf.duration =
          sim::microseconds(1 + static_cast<sim::Time>(rng.next_below(200)));
      f.nic_flaps.push_back(nf);
    }
    if (tc.cluster.topology.two_tier() && rng.next_bool(0.3)) {
      LinkFlapSpec lf;
      lf.rack = static_cast<std::uint32_t>(rng.next_below(2));
      lf.downlink = rng.next_bool(0.5);
      lf.at = sim::microseconds(static_cast<sim::Time>(rng.next_below(300)));
      lf.duration =
          sim::microseconds(1 + static_cast<sim::Time>(rng.next_below(300)));
      f.link_flaps.push_back(lf);
    }
    if (!f.enabled()) f.stragglers.mean_delay_ns = 1e3;
  }
  return tc;
}

struct Outcome {
  RunStats stats;
  std::vector<tensor::DenseTensor> tensors;
};

Outcome run_case(const TortureCase& tc) {
  Outcome out;
  out.tensors = case_tensors(tc);
  out.stats = run_allreduce(out.tensors, tc.cfg, tc.cluster,
                            /*verify=*/false);
  return out;
}

TEST(FaultTorture, RandomizedSchedulesCompleteExactlyOrReportVerdicts) {
  std::size_t completed = 0;
  std::size_t failed = 0;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const TortureCase tc = make_case(i);
    const tensor::DenseTensor reference =
        reference_reduce(case_tensors(tc), tc.cfg);
    const Outcome out = run_case(tc);

    if (out.stats.completed()) {
      ++completed;
      // Graceful degradation, completing arm: the result must be *exactly*
      // the serial reference at every worker — faults may cost time, never
      // precision.
      for (std::size_t w = 0; w < tc.n_workers; ++w) {
        EXPECT_TRUE(bit_equal(out.tensors[w], reference))
            << "worker " << w << " diverged from the serial reference";
      }
      EXPECT_EQ(out.stats.failure.verdict, RunVerdict::kCompleted);
    } else {
      ++failed;
      // Failing arm: a structured verdict naming what blocked the run,
      // declared inside the watchdog bound.
      EXPECT_NE(out.stats.failure.verdict, RunVerdict::kCompleted);
      EXPECT_LE(out.stats.failure.at, tc.cluster.faults.watchdog);
      EXPECT_FALSE(out.stats.failure.detail.empty());
      if (out.stats.failure.verdict == RunVerdict::kPeerDead) {
        EXPECT_GE(out.stats.failure.peer, 0);
      }
    }
    if (i % 10 == 0) {
      // Forced failure: the never-restarting crash must be convicted, and
      // attribution must name the crashed worker.
      ASSERT_FALSE(out.stats.completed());
      EXPECT_EQ(out.stats.failure.verdict, RunVerdict::kPeerDead);
      EXPECT_FALSE(out.stats.failure.peer_is_aggregator);
      EXPECT_EQ(out.stats.failure.peer,
                static_cast<std::int32_t>(tc.cluster.faults.crashes[0].worker));
    }
    if (i % 10 == 5) {
      ASSERT_TRUE(out.stats.completed());
      EXPECT_GT(out.stats.worker_fault_stall_ns.size(), 0u);
    }

    if (i % 20 == 3) {
      // Replay check: same seeds, same schedule — the entire outcome
      // (statistics, verdict and the byte content of every tensor, even a
      // partially-reduced one from an aborted run) must be bit-identical.
      const Outcome replay = run_case(tc);
      EXPECT_EQ(out.stats.completion_time, replay.stats.completion_time);
      EXPECT_EQ(out.stats.worker_finish, replay.stats.worker_finish);
      EXPECT_EQ(out.stats.total_messages, replay.stats.total_messages);
      EXPECT_EQ(out.stats.retransmissions, replay.stats.retransmissions);
      EXPECT_EQ(out.stats.dropped_messages, replay.stats.dropped_messages);
      EXPECT_EQ(out.stats.rounds, replay.stats.rounds);
      EXPECT_EQ(out.stats.resyncs, replay.stats.resyncs);
      EXPECT_EQ(out.stats.worker_crashes, replay.stats.worker_crashes);
      EXPECT_EQ(out.stats.worker_retries, replay.stats.worker_retries);
      EXPECT_EQ(out.stats.failure.verdict, replay.stats.failure.verdict);
      EXPECT_EQ(out.stats.failure.peer, replay.stats.failure.peer);
      EXPECT_EQ(out.stats.failure.at, replay.stats.failure.at);
      for (std::size_t w = 0; w < tc.n_workers; ++w) {
        EXPECT_TRUE(bit_equal(out.tensors[w], replay.tensors[w]));
      }
    }
  }
  // Both arms of the contract must actually have been exercised.
  EXPECT_GE(completed, kIterations / 10);
  EXPECT_GE(failed, kIterations / 10);
}

TEST(FaultTorture, WorkerGiveUpConvictsTheAggregator) {
  // Liveness disabled; the aggregator stalls for longer than the
  // worker-side unreachable deadline, so the retry policy's give-up path
  // must fire and name the aggregator node.
  Config cfg = Config::for_transport(Transport::kDpdk);
  cfg.loss_recovery = true;
  cfg.retransmit_timeout = sim::microseconds(100);
  ClusterSpec cluster = ClusterSpec::dedicated(1);
  cluster.faults.agg_stalls.push_back({0, 0, sim::milliseconds(50)});
  cluster.faults.retry.peer_dead_after = 0;  // aggregator-side check off
  cluster.faults.retry.unreachable_after = sim::milliseconds(2);
  cluster.faults.watchdog = sim::milliseconds(200);

  sim::Rng rng(11);
  auto tensors = tensor::make_multi_worker(2, 8192, cfg.block_size, 0.5,
                                           tensor::OverlapMode::kRandom, rng);
  const RunStats stats = run_allreduce(tensors, cfg, cluster, false);
  ASSERT_FALSE(stats.completed());
  EXPECT_EQ(stats.failure.verdict, RunVerdict::kPeerDead);
  EXPECT_TRUE(stats.failure.peer_is_aggregator);
  EXPECT_EQ(stats.failure.peer, 0);
  EXPECT_GT(stats.failure.at, sim::milliseconds(2));
  EXPECT_LT(stats.failure.at, sim::milliseconds(50));
}

TEST(FaultTorture, RetryCapConvictsTheAggregator) {
  // Same stall, but the give-up trigger is the retry cap instead of the
  // wall deadline.
  Config cfg = Config::for_transport(Transport::kDpdk);
  cfg.loss_recovery = true;
  cfg.retransmit_timeout = sim::microseconds(100);
  ClusterSpec cluster = ClusterSpec::dedicated(1);
  cluster.faults.agg_stalls.push_back({0, 0, sim::milliseconds(100)});
  cluster.faults.retry.peer_dead_after = 0;
  cluster.faults.retry.unreachable_after = 0;  // wall deadline off
  cluster.faults.retry.max_retries = 3;
  cluster.faults.watchdog = sim::milliseconds(500);

  sim::Rng rng(12);
  auto tensors = tensor::make_multi_worker(2, 8192, cfg.block_size, 0.5,
                                           tensor::OverlapMode::kRandom, rng);
  const RunStats stats = run_allreduce(tensors, cfg, cluster, false);
  ASSERT_FALSE(stats.completed());
  EXPECT_EQ(stats.failure.verdict, RunVerdict::kPeerDead);
  EXPECT_TRUE(stats.failure.peer_is_aggregator);
}

TEST(FaultTorture, CrashWithRestartResyncsAndCompletesBitExact) {
  Config cfg = Config::for_transport(Transport::kDpdk);
  cfg.deterministic_reduction = true;
  cfg.retransmit_timeout = sim::microseconds(200);
  ClusterSpec cluster = ClusterSpec::dedicated(2);
  cluster.fabric.seed = 9;
  cluster.faults.crashes.push_back(
      {1, sim::microseconds(300), sim::microseconds(200)});
  cluster.faults.retry.peer_dead_after = sim::milliseconds(50);
  cluster.faults.watchdog = sim::seconds(1);

  sim::Rng rng(21);
  auto tensors = tensor::make_multi_worker(4, 65536, cfg.block_size, 0.7,
                                           tensor::OverlapMode::kRandom, rng);
  const tensor::DenseTensor reference = reference_reduce(tensors, cfg);
  const RunStats stats = run_allreduce(tensors, cfg, cluster, false);
  ASSERT_TRUE(stats.completed());
  EXPECT_EQ(stats.worker_crashes, 1u);
  EXPECT_GT(stats.resyncs, 0u);
  for (const auto& t : tensors) EXPECT_TRUE(bit_equal(t, reference));
}

TEST(FaultTorture, WatchdogBoundsARunWithAllEscalationDisabled) {
  // Crash without restart, liveness and give-up both off: nothing can
  // convict a peer, so the watchdog must be what terminates the run.
  Config cfg = Config::for_transport(Transport::kDpdk);
  cfg.retransmit_timeout = sim::microseconds(500);
  ClusterSpec cluster = ClusterSpec::dedicated(1);
  cluster.faults.crashes.push_back({0, 0, 0});
  cluster.faults.retry.peer_dead_after = 0;
  cluster.faults.retry.unreachable_after = 0;
  cluster.faults.watchdog = sim::milliseconds(20);

  sim::Rng rng(31);
  auto tensors = tensor::make_multi_worker(3, 8192, cfg.block_size, 0.5,
                                           tensor::OverlapMode::kRandom, rng);
  const RunStats stats = run_allreduce(tensors, cfg, cluster, false);
  ASSERT_FALSE(stats.completed());
  EXPECT_EQ(stats.failure.verdict, RunVerdict::kWatchdog);
  EXPECT_EQ(stats.failure.at, sim::milliseconds(20));
  EXPECT_EQ(stats.completion_time, sim::milliseconds(20));
}

TEST(FaultTorture, FaultedRunReportsAreByteIdentical) {
  // Same seed + FaultSpec => byte-identical serialized RunReport, for a
  // recovering schedule and for one that ends in a verdict alike.
  const auto report_json = [](sim::Time restart_after) {
    Config cfg = Config::for_transport(Transport::kDpdk);
    FabricConfig fabric;
    fabric.seed = 7;
    fabric.loss_rate = 0.01;
    ClusterSpec cluster = ClusterSpec::dedicated(2, fabric);
    cluster.telemetry.enabled = true;
    cluster.faults.crashes.push_back(
        {1, sim::microseconds(200), restart_after});
    cluster.faults.retry.peer_dead_after = sim::milliseconds(5);
    cluster.faults.watchdog = sim::milliseconds(100);
    sim::Rng rng(51);
    auto tensors = tensor::make_multi_worker(3, 16384, cfg.block_size, 0.6,
                                             tensor::OverlapMode::kRandom,
                                             rng);
    const telemetry::RunReport report =
        run_allreduce_report(tensors, cfg, cluster, /*verify=*/false);
    std::ostringstream os;
    report.write_json(os);
    return os.str();
  };
  const std::string completing = report_json(sim::microseconds(100));
  EXPECT_EQ(completing, report_json(sim::microseconds(100)));
  EXPECT_NE(completing.find("\"verdict\":\"completed\""), std::string::npos);
  const std::string failing = report_json(0);
  EXPECT_EQ(failing, report_json(0));
  EXPECT_NE(failing.find("\"verdict\":\"peer_dead\""), std::string::npos);
}

TEST(FaultTorture, FaultedSessionRunsOneCollective) {
  // Fault times sit on the first collective's clock: a faulted Session's
  // first allreduce is exactly the pinned one-shot run (verdicts and
  // traces included), and a second collective is refused.
  for (const golden::ReportGolden& g : golden::kReportGoldens) {
    auto [cfg, cluster] = golden::golden_setup(g);
    if (!cluster.faults.enabled()) continue;
    SCOPED_TRACE(g.name);
    auto tensors = golden::golden_inputs(cfg);
    Session session(cfg, tensors.size(), cluster);
    session.allreduce(tensors);
    EXPECT_EQ(golden::report_digest(session.last_report()), g.report_digest);
    EXPECT_EQ(golden::tensor_digest(tensors), g.tensor_digest);
    auto again = golden::golden_inputs(cfg);
    EXPECT_THROW(session.allreduce(again), std::logic_error);
    EXPECT_EQ(session.collectives_run(), 1u);
  }
}

TEST(FaultTorture, BroadcastWithStragglersCompletesAndVerifies) {
  Config cfg = Config::for_transport(Transport::kDpdk);
  ClusterSpec cluster = ClusterSpec::dedicated(2);
  cluster.faults.stragglers.mean_delay_ns = 5e3;
  tensor::DenseTensor root(8192);
  for (std::size_t i = 0; i < root.size(); i += 3) {
    root[i] = 0.5f + static_cast<float>(i % 17);
  }
  std::vector<tensor::DenseTensor> outputs;
  const RunStats stats = run_broadcast(root, 1, 3, outputs, cfg, cluster);
  EXPECT_TRUE(stats.completed());
  EXPECT_TRUE(stats.verified);
  EXPECT_EQ(stats.worker_fault_stall_ns.size(), 3u);
  ASSERT_EQ(outputs.size(), 3u);
  for (const auto& out : outputs) EXPECT_TRUE(bit_equal(out, root));
}

TEST(FaultTorture, InvalidFaultSpecsAreRejected) {
  sim::Rng rng(41);
  auto tensors = tensor::make_multi_worker(2, 4096, 256, 0.5,
                                           tensor::OverlapMode::kRandom, rng);
  Config cfg;
  // One validator: every one-shot collective rejects the same specs.
  const auto expect_rejected = [&](const ClusterSpec& cluster) {
    EXPECT_THROW(run_allreduce(tensors, cfg, cluster, false),
                 std::invalid_argument);
    tensor::DenseTensor gathered;
    EXPECT_THROW(run_allgather(tensors, gathered, cfg, cluster),
                 std::invalid_argument);
    std::vector<tensor::DenseTensor> outputs;
    EXPECT_THROW(run_broadcast(tensors[0], 0, 2, outputs, cfg, cluster),
                 std::invalid_argument);
  };
  {
    ClusterSpec cluster = ClusterSpec::dedicated(1);
    cluster.faults.crashes.push_back({7, 0, 0});  // unknown worker
    expect_rejected(cluster);
  }
  {
    ClusterSpec cluster = ClusterSpec::dedicated(1);
    cluster.faults.link_flaps.push_back({0, false, 0, 1000});
    // Link flaps need a two-tier fabric to name a rack uplink.
    expect_rejected(cluster);
  }
  {
    ClusterSpec cluster = ClusterSpec::dedicated(1);
    cluster.faults.stragglers.mean_delay_ns = 1e3;
    cluster.faults.watchdog = 0;  // a faulted run must be time-bounded
    expect_rejected(cluster);
  }
}

}  // namespace
}  // namespace omr::core
