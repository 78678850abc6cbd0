#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "core/cluster.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/faults.h"
#include "core/worker.h"
#include "device/device_model.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "telemetry/report.h"

namespace omr::core {

/// A persistent OmniReduce deployment: the cluster (simulator, fabric,
/// worker and aggregator endpoints) is built once and reused for a
/// sequence of collectives, as in training where one AllReduce runs per
/// iteration. Virtual time is continuous across calls — per-iteration
/// completion times are deltas. State resets between tensors follow the
/// paper's "wait for new tensor" transition (Fig. 2f / Algorithm 1 line
/// 26): fresh per-stream slots for each collective.
///
/// Tensors of different sizes may be reduced by the same session (the
/// stream layout is rebuilt per call); the worker/aggregator topology and
/// NIC state persist. When spec.telemetry.enabled, a Tracer lives for the
/// whole session, so traces and counter totals span all collectives run
/// through it.
///
/// When spec.faults is enabled the session runs exactly one native
/// collective: fault times sit on that collective's clock, so a second
/// call throws std::logic_error. A faulted collective either completes or
/// ends in RunStats::failure (docs/ROBUSTNESS.md). This one-collective
/// session is also run_allreduce's host.
class Session {
 public:
  Session(const Config& cfg, std::size_t n_workers,
          const ClusterSpec& cluster);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Reduce `tensors` (one per worker, equal sizes) in place. Returns the
  /// per-call statistics; completion_time is the duration of this call
  /// (not the absolute virtual time).
  RunStats allreduce(std::vector<tensor::DenseTensor>& tensors,
                     bool verify = true);

  /// AllGather over this session's workers (§7): worker w contributes
  /// `shards[w]`; each shard lands at its offset in a concatenated tensor
  /// and the engine's zero-block skipping transmits only owned blocks.
  /// `out` receives the concatenation (equal shard sizes not required).
  RunStats allgather(std::vector<tensor::DenseTensor>& shards,
                     tensor::DenseTensor& out, bool verify = true);

  /// Broadcast `root_data` from worker `root`: the degenerate sparse
  /// AllReduce where the other N-1 inputs are all-zero. `outputs[w]`
  /// receives the broadcast tensor for every w.
  RunStats broadcast(const tensor::DenseTensor& root_data, std::size_t root,
                     std::vector<tensor::DenseTensor>& outputs,
                     bool verify = true);

  /// Route subsequent allreduce() calls through the named registry
  /// algorithm instead of this session's native engine. The name must be
  /// registered (throws std::invalid_argument otherwise) and its
  /// capabilities must cover this session's (Config, ClusterSpec).
  ///
  /// "omnireduce" (the default) restores the native path: the persistent
  /// simulated cluster, with virtual time continuous across calls. Any
  /// other algorithm runs on a fresh fabric per call — CollectiveAlgorithm
  /// implementations keep per-call state on the stack — so now() does not
  /// advance and the per-call completion_time is the whole story.
  /// allgather() and broadcast() always use the native engine.
  void set_algorithm(const std::string& name);
  const std::string& algorithm() const { return algorithm_; }

  std::size_t n_workers() const { return n_workers_; }
  /// Absolute virtual time consumed so far.
  sim::Time now() const;
  std::size_t collectives_run() const { return collectives_run_; }

  const ClusterSpec& cluster() const { return spec_; }
  /// Telemetry report for the most recent collective run through this
  /// session. Stats and the label are per-call; tracer-derived totals,
  /// histograms and the trace are cumulative over the session's lifetime.
  /// Valid after the first collective.
  const telemetry::RunReport& last_report() const { return last_report_; }
  /// The session-lifetime tracer, or nullptr when telemetry is disabled.
  const telemetry::Tracer* tracer() const { return tracer_.get(); }

 private:
  friend RunStats run_allreduce(std::vector<tensor::DenseTensor>&,
                                const Config&, const ClusterSpec&, bool);
  friend telemetry::RunReport run_allreduce_report(
      std::vector<tensor::DenseTensor>&, const Config&, const ClusterSpec&,
      bool, const std::string&);

  RunStats run_collective(std::vector<tensor::DenseTensor>& tensors,
                          bool verify, const char* label);
  void schedule_faults(sim::Time t0);

  Config cfg_;
  ClusterSpec spec_;
  std::string algorithm_ = "omnireduce";
  std::size_t n_workers_;
  std::size_t n_aggregators_;

  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<telemetry::Tracer> tracer_;
  std::unique_ptr<FaultController> faults_;  // null unless spec.faults is on
  std::vector<net::NicId> worker_nics_;
  std::vector<net::NicId> agg_nics_;
  // Workers and aggregators persist across collectives; per-tensor state
  // is reset in Worker::start / Aggregator::begin_collective.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Aggregator>> aggregators_;
  std::vector<net::EndpointId> worker_eps_;
  std::vector<net::EndpointId> agg_eps_;
  std::size_t collectives_run_ = 0;
  telemetry::RunReport last_report_;
};

}  // namespace omr::core
