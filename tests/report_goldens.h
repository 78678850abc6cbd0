// Pinned single-job OmniReduce runs shared by the determinism and fault
// suites: FNV-1a digests of the serialized RunReport (full trace
// included) and of every worker's result-tensor bits, per cluster
// configuration. The values were recorded when run_allreduce still had its
// own cluster host, before it became a one-collective Session; any change
// to the single-job path must keep every one of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "sim/rng.h"
#include "telemetry/report.h"
#include "tensor/dense.h"
#include "tensor/generators.h"

namespace omr::core::golden {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  }
};

struct ReportGolden {
  const char* name;
  void (*setup)(Config&, ClusterSpec&);
  std::uint64_t report_digest;
  std::uint64_t tensor_digest;
};

inline void traced(ClusterSpec& c) {
  c.telemetry.enabled = true;
  c.telemetry.trace_events = true;
}

// A crash/stall-tolerant baseline: Algorithm 2 with order-independent
// folding, bounded liveness deadlines and a 1 s watchdog.
inline void faulted_base(Config& cfg, ClusterSpec& c) {
  cfg = Config::for_transport(Transport::kDpdk);
  cfg.deterministic_reduction = true;
  cfg.retransmit_timeout = sim::microseconds(200);
  c.fabric.seed = 9;
  c.faults.retry.peer_dead_after = sim::milliseconds(50);
  c.faults.watchdog = sim::seconds(1);
}

inline const ReportGolden kReportGoldens[] = {
    {"Rdma", [](Config&, ClusterSpec&) {},
     0x8118299edf59601cULL, 0x2db09f319130dbc5ULL},
    {"LossyDpdk",
     [](Config& cfg, ClusterSpec& c) {
       cfg = Config::for_transport(Transport::kDpdk);
       c.fabric.loss_rate = 0.01;
     },
     0x07990eed42966db4ULL, 0x2db09f319130dbc5ULL},
    {"Q8Codec",
     [](Config& cfg, ClusterSpec&) {
       cfg.codec.codec = compress::WireCodec::kQ8;
     },
     0x4a671b9672a23c47ULL, 0x444061da3d7b959dULL},
    {"TwoTierSpineLoss",
     [](Config& cfg, ClusterSpec& c) {
       cfg = Config::for_transport(Transport::kDpdk);
       c.topology = TopologySpec::two_tier_racks(2, 4.0);
       c.topology.spine_loss_rate = 0.005;
     },
     0x64fbc756179173f7ULL, 0xc9ea7d02ab205c25ULL},
    {"Colocated",
     [](Config&, ClusterSpec& c) {
       c = ClusterSpec::colocated(c.fabric);
     },
     0x58f6ea59ae9c3aabULL, 0x2db09f319130dbc5ULL},
    {"StartOffsets",
     [](Config&, ClusterSpec& c) {
       c.fabric.worker_start_offsets = {0, sim::microseconds(7), 0,
                                        sim::microseconds(30)};
     },
     0x46de07310caf1571ULL, 0x36d3b79ff2c95ed5ULL},
    {"Traced", [](Config&, ClusterSpec& c) { traced(c); },
     0x2ca9111e73b9d329ULL, 0x2db09f319130dbc5ULL},
    {"TracedLossy",
     [](Config& cfg, ClusterSpec& c) {
       cfg = Config::for_transport(Transport::kDpdk);
       c.fabric.loss_rate = 0.01;
       traced(c);
     },
     0x647bf6b07228beecULL, 0x2db09f319130dbc5ULL},
    {"CrashRestart",
     [](Config& cfg, ClusterSpec& c) {
       faulted_base(cfg, c);
       c.faults.crashes.push_back(
           {1, sim::microseconds(60), sim::microseconds(80)});
       traced(c);
     },
     0x873c06d9b535819eULL, 0x2db09f319130dbc5ULL},
    {"NicFlap",
     [](Config& cfg, ClusterSpec& c) {
       faulted_base(cfg, c);
       c.faults.nic_flaps.push_back(
           {true, 1, sim::microseconds(20), sim::microseconds(60)});
       c.faults.nic_flaps.push_back(
           {false, 2, sim::microseconds(40), sim::microseconds(30)});
     },
     0x4fa828acbaf964d4ULL, 0x2db09f319130dbc5ULL},
    {"LinkFlap",
     [](Config& cfg, ClusterSpec& c) {
       faulted_base(cfg, c);
       c.topology = TopologySpec::two_tier_racks(2, 4.0);
       c.faults.link_flaps.push_back(
           {1, false, sim::microseconds(30), sim::microseconds(90)});
       c.faults.link_flaps.push_back(
           {0, true, sim::microseconds(50), sim::microseconds(40)});
     },
     0x3440ebdbee05dc98ULL, 0x2db09f319130dbc5ULL},
    {"StallAndStragglers",
     [](Config& cfg, ClusterSpec& c) {
       faulted_base(cfg, c);
       c.faults.agg_stalls.push_back(
           {0, sim::microseconds(25), sim::microseconds(120)});
       c.faults.stragglers.mean_delay_ns = 4e3;
       c.faults.stragglers.per_worker_mean_ns = {0.0, 2e4};
     },
     0x23f82f1df2631128ULL, 0x2db09f319130dbc5ULL},
    {"PeerDead",
     [](Config& cfg, ClusterSpec& c) {
       faulted_base(cfg, c);
       c.faults.crashes.push_back({2, sim::microseconds(40), 0});
       c.faults.retry.peer_dead_after = sim::milliseconds(5);
       traced(c);
     },
     0x0072a9736c5f0d04ULL, 0xa9b651c85bc5126dULL},
    {"Watchdog",
     [](Config& cfg, ClusterSpec& c) {
       faulted_base(cfg, c);
       c.faults.crashes.push_back({0, 0, 0});
       c.faults.retry.peer_dead_after = 0;
       c.faults.retry.unreachable_after = 0;
       c.faults.watchdog = sim::milliseconds(20);
     },
     0xa9b6bde05fc00860ULL, 0x897889d5d75471e4ULL},
};

/// The configuration's Config and ClusterSpec: an RDMA pair of dedicated
/// aggregators at fabric seed 7, adjusted by the case's setup.
inline std::pair<Config, ClusterSpec> golden_setup(const ReportGolden& g) {
  Config cfg = Config::for_transport(Transport::kRdma);
  FabricConfig fabric;
  fabric.seed = 7;
  ClusterSpec cluster = ClusterSpec::dedicated(2, fabric);
  g.setup(cfg, cluster);
  return {cfg, cluster};
}

/// Four workers' 32K-element inputs at 80% block sparsity.
inline std::vector<tensor::DenseTensor> golden_inputs(const Config& cfg) {
  sim::Rng rng(42);
  return tensor::make_multi_worker(4, 32768, cfg.block_size, 0.8,
                                   tensor::OverlapMode::kRandom, rng);
}

inline std::uint64_t report_digest(const telemetry::RunReport& report) {
  std::ostringstream os;
  report.write_json(os, /*include_trace=*/true);
  const std::string json = os.str();
  Fnv d;
  d.bytes(json.data(), json.size());
  return d.h;
}

inline std::uint64_t tensor_digest(
    const std::vector<tensor::DenseTensor>& tensors) {
  Fnv d;
  for (const auto& t : tensors) {
    d.bytes(t.values().data(), t.size() * sizeof(float));
  }
  return d.h;
}

}  // namespace omr::core::golden
