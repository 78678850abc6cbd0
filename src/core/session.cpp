#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

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
  if (spec_.faults.enabled()) {
    // Fault injection is per-run state (crash events, verdicts, watchdog);
    // a long-lived Session would carry it across collectives. Documented
    // limitation — see docs/ROBUSTNESS.md.
    throw std::invalid_argument(
        "fault injection is not supported on Session; dispatch one-shot "
        "runs through CollectiveAlgorithm::run() (core::run_collective)");
  }
  const FabricConfig& fabric = spec_.fabric;
  if (!fabric.worker_start_offsets.empty() &&
      fabric.worker_start_offsets.size() != n_workers_) {
    throw std::invalid_argument("start-offset count != worker count");
  }
  if (fabric.lossy() || spec_.topology.spine_lossy()) {
    cfg_.loss_recovery = true;
  }

  simulator_ = std::make_unique<sim::Simulator>();
  network_ = std::make_unique<net::Network>(
      *simulator_,
      make_topology(spec_, n_workers_,
                    spec_.deployment == Deployment::kColocated
                        ? 0
                        : n_aggregators_),
      fabric.seed);
  apply_fabric_loss(*network_, fabric);
  if (spec_.telemetry.enabled) {
    tracer_ = std::make_unique<telemetry::Tracer>(spec_.telemetry);
    network_->set_tracer(tracer_.get());
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
        spec_.deployment == Deployment::kColocated
            ? worker_nics_[a]
            : network_->add_nic({fabric.aggregator_bandwidth_bps,
                                 fabric.aggregator_bandwidth_bps,
                                 fabric.aggregator_rx_overhead_ns}));
    if (tracer_ != nullptr) {
      tracer_->name_process(telemetry::aggregator_pid(a),
                            "aggregator " + std::to_string(a));
      if (spec_.deployment != Deployment::kColocated) {
        tracer_->map_nic(agg_nics_[a], telemetry::aggregator_pid(a));
      }
    }
  }
  rebuild_endpoints();
}

Session::~Session() = default;

void Session::rebuild_endpoints() {
  ProtocolWiring wiring = wire_protocol(cfg_, *network_, worker_nics_,
                                        agg_nics_, {tracer_.get(), nullptr});
  workers_ = std::move(wiring.workers);
  aggregators_ = std::move(wiring.aggregators);
  worker_eps_ = std::move(wiring.worker_eps);
  agg_eps_ = std::move(wiring.agg_eps);
}

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

RunStats Session::run_collective(std::vector<tensor::DenseTensor>& tensors,
                                 bool verify, const char* label) {
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
  simulator_->run();
  ++collectives_run_;

  RunStats stats;
  for (const auto& w : workers_) {
    if (!w->done()) throw std::logic_error("session collective stalled");
    stats.worker_finish.push_back(w->finish_time() - t0);
    stats.worker_data_bytes.push_back(w->data_bytes_sent());
    stats.retransmissions += w->retransmissions();
    stats.acks += w->acks_sent();
    stats.completion_time =
        std::max(stats.completion_time, w->finish_time() - t0);
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
    tracer_->collective_span(t0, simulator_->now(), collectives_run_ - 1);
  }
  if (verify) {
    const double err = check.max_error(tensors);
    stats.max_error = err;
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

}  // namespace omr::core
