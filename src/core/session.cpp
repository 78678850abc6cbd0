#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/algorithm.h"
#include "core/fabric.h"
#include "core/stream_layout.h"
#include "core/wiring.h"
#include "tensor/blocks.h"

namespace omr::core {

Session::Session(const Config& cfg, std::size_t n_workers,
                 const ClusterSpec& cluster)
    : cfg_(cfg),
      spec_(cluster),
      n_workers_(n_workers),
      n_aggregators_(cluster.deployment == Deployment::kColocated
                         ? n_workers
                         : cluster.n_aggregator_nodes) {
  if (n_workers_ == 0) throw std::invalid_argument("no workers");
  if (n_aggregators_ == 0) throw std::invalid_argument("no aggregators");
  if (cfg_.fixed_point && cfg_.op != ReduceOp::kSum) {
    throw std::invalid_argument("fixed-point slots support only sum");
  }
  const FaultSpec& fault_spec = spec_.faults;
  validate_fault_spec(fault_spec, spec_.topology, n_workers_, n_aggregators_);
  const FabricConfig& fabric = spec_.fabric;
  if (!fabric.worker_start_offsets.empty() &&
      fabric.worker_start_offsets.size() != n_workers_) {
    throw std::invalid_argument("start-offset count != worker count");
  }
  if (fabric.lossy() || spec_.topology.spine_lossy() ||
      fault_spec.needs_recovery()) {
    cfg_.loss_recovery = true;
  }

  const bool colocated = spec_.deployment == Deployment::kColocated;
  simulator_ = std::make_unique<sim::Simulator>();
  network_ = std::make_unique<net::Network>(
      *simulator_,
      make_topology(spec_.topology, fabric.one_way_latency,
                    resolve_nic_racks(spec_.topology, n_workers_,
                                      colocated ? 0 : n_aggregators_)),
      fabric.seed);
  apply_fabric_loss(*network_, fabric);
  if (spec_.telemetry.enabled) {
    tracer_ = std::make_unique<telemetry::Tracer>(spec_.telemetry);
    network_->set_tracer(tracer_.get());
  }
  if (fault_spec.enabled()) {
    faults_ = std::make_unique<FaultController>(
        fault_spec, cfg_.retransmit_timeout, tracer_.get());
  }

  for (std::size_t w = 0; w < n_workers_; ++w) {
    worker_nics_.push_back(network_->add_nic(
        {fabric.worker_bandwidth_bps, fabric.worker_bandwidth_bps,
         fabric.worker_rx_overhead_ns}));
    if (tracer_ != nullptr) {
      tracer_->map_nic(worker_nics_[w], telemetry::worker_pid(w));
      tracer_->name_process(telemetry::worker_pid(w),
                            "worker " + std::to_string(w));
    }
  }
  for (std::size_t a = 0; a < n_aggregators_; ++a) {
    agg_nics_.push_back(
        colocated ? worker_nics_[a]
                  : network_->add_nic({fabric.aggregator_bandwidth_bps,
                                       fabric.aggregator_bandwidth_bps,
                                       fabric.aggregator_rx_overhead_ns}));
    if (tracer_ != nullptr) {
      tracer_->name_process(telemetry::aggregator_pid(a),
                            "aggregator " + std::to_string(a));
      if (!colocated) {
        tracer_->map_nic(agg_nics_[a], telemetry::aggregator_pid(a));
      }
    }
  }

  // Outage windows need resolved NIC ids: flaps on the fabric's NICs and
  // (two-tier only) on per-rack spine links.
  for (const NicFlapSpec& f : fault_spec.nic_flaps) {
    const net::NicId nic =
        f.on_aggregator ? agg_nics_[f.index] : worker_nics_[f.index];
    network_->add_nic_flap(nic, f.at, f.at + f.duration);
  }
  if (!fault_spec.link_flaps.empty()) {
    net::Topology& topo = network_->topology();
    topo.finalize();  // materialize the lazy link table
    auto& two_tier = dynamic_cast<net::TwoTierFabric&>(topo);
    for (const LinkFlapSpec& f : fault_spec.link_flaps) {
      const int rack = static_cast<int>(f.rack);
      const net::LinkId id =
          f.downlink ? two_tier.downlink(rack) : two_tier.uplink(rack);
      topo.add_link_flap(id, f.at, f.at + f.duration);
    }
  }

  ProtocolWiring wiring =
      wire_protocol(cfg_, *network_, worker_nics_, agg_nics_,
                    {tracer_.get(), faults_.get()});
  workers_ = std::move(wiring.workers);
  aggregators_ = std::move(wiring.aggregators);
  worker_eps_ = std::move(wiring.worker_eps);
  agg_eps_ = std::move(wiring.agg_eps);
}

Session::~Session() = default;

sim::Time Session::now() const { return simulator_->now(); }

void Session::set_algorithm(const std::string& name) {
  CollectiveAlgorithm& algo = CollectiveRegistry::global().at(name);
  validate_capabilities(algo.capabilities(), cfg_, spec_, name);
  algorithm_ = name;
}

RunStats Session::allreduce(std::vector<tensor::DenseTensor>& tensors,
                            bool verify) {
  if (algorithm_ != "omnireduce") {
    if (tensors.size() != n_workers_) {
      throw std::invalid_argument("tensor count != worker count");
    }
    RunStats stats =
        core::run_collective(algorithm_, tensors, cfg_, spec_, verify);
    if (verify && stats.completed() && !stats.verified) {
      throw std::logic_error("session result mismatch");
    }
    ++collectives_run_;
    last_report_ = make_run_report("allreduce", stats, spec_, n_workers_,
                                   tensors.front().size(), nullptr);
    last_report_.algorithm = algorithm_;
    return stats;
  }
  return run_collective(tensors, verify, "allreduce");
}

void Session::schedule_faults(sim::Time t0) {
  for (const CrashSpec& c : spec_.faults.crashes) {
    Worker* worker = workers_[c.worker].get();
    simulator_->schedule_at(t0 + c.at, [worker]() { worker->crash(); });
    if (c.restart_after > 0) {
      simulator_->schedule_at(t0 + c.at + c.restart_after,
                              [worker]() { worker->restart(); });
    }
  }
  // Bounded simulated-time watchdog: whatever else goes wrong, an
  // unfinished collective turns into a structured verdict at this point
  // and the event queue drains (post-abort, no handler schedules new work).
  const sim::Time deadline = t0 + spec_.faults.watchdog;
  simulator_->schedule_at(deadline, [this, deadline]() {
    if (faults_->aborted()) return;
    for (const auto& w : workers_) {
      if (!w->done()) {
        faults_->watchdog_fired(deadline);
        return;
      }
    }
  });
}

RunStats Session::run_collective(std::vector<tensor::DenseTensor>& tensors,
                                 bool verify, const char* label) {
  if (faults_ != nullptr && collectives_run_ > 0) {
    throw std::logic_error(
        "a faulted Session runs one collective: its fault times sit on the "
        "first collective's clock");
  }
  if (tensors.size() != n_workers_) {
    throw std::invalid_argument("tensor count != worker count");
  }
  const std::size_t n = tensors.front().size();
  for (const auto& t : tensors) {
    if (t.size() != n) throw std::invalid_argument("tensor size mismatch");
  }
  ResultCheck check;
  if (verify) check = ResultCheck(tensors, cfg_);

  const sim::Time t0 = simulator_->now();
  std::vector<net::NicStats> nic_before;
  for (net::NicId nic : worker_nics_) {
    nic_before.push_back(network_->nic_stats(nic));
  }
  const std::uint64_t dropped_before = network_->total_dropped();
  const std::vector<telemetry::LinkReport> links_before =
      collect_link_reports(*network_);

  const StreamLayout layout = StreamLayout::build(n, cfg_);
  for (auto& agg : aggregators_) agg->begin_collective();
  const std::vector<net::EndpointId> agg_of_stream =
      shard_streams(layout, aggregators_, agg_eps_);
  const auto& offsets = spec_.fabric.worker_start_offsets;
  for (std::size_t w = 0; w < n_workers_; ++w) {
    workers_[w]->bind(worker_eps_[w], agg_of_stream);
    const sim::Time offset = offsets.empty() ? 0 : offsets[w];
    if (offset == 0) {
      workers_[w]->start(tensors[w], layout, spec_.device);
    } else {
      Worker* worker = workers_[w].get();
      tensor::DenseTensor* t = &tensors[w];
      const device::DeviceModel* device = &spec_.device;
      const StreamLayout* lp = &layout;
      simulator_->schedule_at(t0 + offset, [worker, t, lp, device]() {
        worker->start(*t, *lp, *device);
      });
    }
  }
  if (faults_ != nullptr) schedule_faults(t0);
  simulator_->run();
  ++collectives_run_;

  RunStats stats;
  const bool aborted = faults_ != nullptr && faults_->aborted();
  if (aborted) stats.failure = faults_->failure();
  for (const auto& w : workers_) {
    if (!w->done() && !aborted) {
      throw std::logic_error("session collective stalled");
    }
    const sim::Time finish = w->done() ? w->finish_time() - t0 : 0;
    stats.worker_finish.push_back(finish);
    stats.worker_data_bytes.push_back(w->data_bytes_sent());
    stats.retransmissions += w->retransmissions();
    stats.acks += w->acks_sent();
    stats.completion_time = std::max(stats.completion_time, finish);
  }
  if (aborted) stats.completion_time = stats.failure.at - t0;
  if (faults_ != nullptr) {
    for (const auto& w : workers_) {
      stats.worker_retries.push_back(w->retransmissions());
      stats.worker_fault_stall_ns.push_back(w->fault_stall());
      stats.worker_crashes += w->crashes();
      stats.resyncs += w->resyncs_sent();
    }
  }
  for (const auto& a : aggregators_) {
    stats.rounds += a->rounds_completed();
    stats.duplicate_resends += a->duplicate_resends();
  }
  if (cfg_.codec.enabled()) {
    stats.codec = compress::codec_name(cfg_.codec.codec);
    double residual_sq = 0.0;
    for (const auto& w : workers_) {
      stats.codec_saved_bytes += w->codec_saved_bytes();
      residual_sq += w->codec_residual_sq();
    }
    for (const auto& a : aggregators_) {
      stats.codec_saved_bytes += a->codec_saved_bytes();
      stats.codec_exact_folds += a->codec_exact_folds();
      stats.codec_requant_folds += a->codec_requant_folds();
    }
    stats.codec_residual_l2 = std::sqrt(residual_sq);
  }
  for (std::size_t w = 0; w < n_workers_; ++w) {
    stats.total_messages += network_->nic_stats(worker_nics_[w]).tx_messages -
                            nic_before[w].tx_messages;
  }
  stats.dropped_messages = network_->total_dropped() - dropped_before;
  stats.links = collect_link_reports(*network_, &links_before);
  if (tracer_ != nullptr) {
    tracer_->collective_span(t0, t0 + stats.completion_time,
                             collectives_run_ - 1);
  }
  if (verify && !aborted) {
    const double err = check.max_error(tensors);
    stats.max_error = err;
    // Float sums of <= n_workers addends in a different association order:
    // tolerance grows mildly with worker count and value magnitude.
    double tol = 1e-4 * static_cast<double>(n_workers_);
    if (cfg_.codec.enabled()) {
      tol += compress::codec_verify_slack(cfg_.codec.codec,
                                          check.input_amax(), n_workers_);
    }
    stats.verified = err <= tol;
    if (!stats.verified) throw std::logic_error("session result mismatch");
  }
  last_report_ = make_run_report(label, stats, spec_, n_workers_, n,
                                 tracer_.get());
  last_report_.sim_events_executed = simulator_->events_executed();
  return stats;
}

RunStats Session::allgather(std::vector<tensor::DenseTensor>& shards,
                            tensor::DenseTensor& out, bool verify) {
  if (shards.size() != n_workers_) {
    throw std::invalid_argument("shard count != worker count");
  }
  std::size_t total = 0;
  for (const auto& s : shards) total += s.size();
  // Place each worker's shard at its offset; all other positions are zero,
  // so the engine transmits only each worker's own blocks.
  std::vector<tensor::DenseTensor> inputs;
  inputs.reserve(shards.size());
  std::size_t offset = 0;
  for (const auto& s : shards) {
    tensor::DenseTensor t(total);
    for (std::size_t i = 0; i < s.size(); ++i) t[offset + i] = s[i];
    inputs.push_back(std::move(t));
    offset += s.size();
  }
  RunStats stats = run_collective(inputs, verify, "allgather");
  out = inputs.front();
  return stats;
}

RunStats Session::broadcast(const tensor::DenseTensor& root_data,
                            std::size_t root,
                            std::vector<tensor::DenseTensor>& outputs,
                            bool verify) {
  if (root >= n_workers_) throw std::invalid_argument("bad root");
  std::vector<tensor::DenseTensor> inputs(
      n_workers_, tensor::DenseTensor(root_data.size()));
  inputs[root] = root_data;
  RunStats stats = run_collective(inputs, verify, "broadcast");
  outputs = std::move(inputs);
  return stats;
}

// --- one-shot entry points ---------------------------------------------------

RunStats run_allreduce(std::vector<tensor::DenseTensor>& tensors,
                       const Config& cfg, const ClusterSpec& cluster,
                       bool verify) {
  // No report leaves this call, so no tracer records one.
  ClusterSpec untraced = cluster;
  untraced.telemetry.enabled = false;
  Session session(cfg, tensors.size(), untraced);
  return session.run_collective(tensors, verify, "allreduce");
}

telemetry::RunReport run_allreduce_report(
    std::vector<tensor::DenseTensor>& tensors, const Config& cfg,
    const ClusterSpec& cluster, bool verify, const std::string& label) {
  Session session(cfg, tensors.size(), cluster);
  session.run_collective(tensors, verify, label.c_str());
  return std::move(session.last_report_);
}

telemetry::RunReport make_run_report(const std::string& label,
                                     const RunStats& stats,
                                     const ClusterSpec& cluster,
                                     std::size_t n_workers,
                                     std::size_t n_elements,
                                     const telemetry::Tracer* tracer) {
  telemetry::RunReport report;
  report.label = label;
  report.completion_time = stats.completion_time;
  report.worker_finish = stats.worker_finish;
  report.worker_data_bytes = stats.worker_data_bytes;
  report.total_messages = stats.total_messages;
  report.retransmissions = stats.retransmissions;
  report.dropped_messages = stats.dropped_messages;
  report.rounds = stats.rounds;
  report.acks = stats.acks;
  report.duplicate_resends = stats.duplicate_resends;
  report.verified = stats.verified;
  report.max_error = stats.max_error;
  report.links = stats.links;
  report.n_workers = n_workers;
  report.n_aggregators = cluster.deployment == Deployment::kColocated
                             ? n_workers
                             : cluster.n_aggregator_nodes;
  report.tensor_elements = n_elements;
  if (cluster.faults.enabled()) {
    report.fault_layer = true;
    report.verdict = verdict_name(stats.failure.verdict);
    report.failed_peer = stats.failure.peer;
    report.failed_peer_is_aggregator = stats.failure.peer_is_aggregator;
    report.failure_at = stats.failure.at;
    report.failure_detail = stats.failure.detail;
    report.worker_retries = stats.worker_retries;
    report.worker_fault_stall_ns = stats.worker_fault_stall_ns;
    report.worker_crashes = stats.worker_crashes;
    report.resyncs = stats.resyncs;
  }
  if (!stats.codec.empty()) {
    report.codec = stats.codec;
    report.codec_saved_bytes = stats.codec_saved_bytes;
    report.codec_exact_folds = stats.codec_exact_folds;
    report.codec_requant_folds = stats.codec_requant_folds;
    report.codec_residual_l2 = stats.codec_residual_l2;
  }
  if (tracer != nullptr) {
    for (std::size_t w = 0; w < n_workers; ++w) {
      report.traced_worker_payload_bytes +=
          tracer->tx_payload_bytes(telemetry::worker_pid(w));
    }
    report.retransmit_payload_bytes = tracer->retransmit_payload_bytes();
    report.wire_tx_bytes_total = tracer->tx_wire_bytes_total();
    report.message_wire_bytes = tracer->message_wire_hist();
    report.round_gap_ns = tracer->round_gap_hist();
    report.streams = tracer->stream_timelines();
    report.trace = tracer->snapshot_trace();
  }
  return report;
}

}  // namespace omr::core
