// Benchmark driver: runs one named workload in this single-threaded process
// through the program's public entry points (core::Session, core::Fabric +
// serve::ServingJob, core::run_collective), checks every op's output and
// prints one JSON record on stdout.
//
//   omr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate,
// traced run that reports the per-layer metrics (see README.md) and writes
// the benchmark's spans to <out-dir>/spans-<workload>-<seed>.json.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/zoo.h"
#include "compress/wire_codec.h"
#include "core/algorithm.h"
#include "core/engine.h"
#include "core/session.h"
#include "core/tenancy.h"
#include "ddl/workloads.h"
#include "harness.h"
#include "serve/cache.h"
#include "serve/serving.h"
#include "serve/shard_map.h"
#include "serve/traffic.h"
#include "sim/rng.h"
#include "tensor/blocks.h"
#include "tensor/generators.h"

#ifndef OMR_PERFBENCH_BUILD_TYPE
#define OMR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace omr;
using perfbench::Clock;
using perfbench::JsonObject;
using perfbench::ScopedSpan;
using perfbench::Spans;
using perfbench::median;
using perfbench::seconds_between;
using perfbench::seconds_since;

using Step = std::vector<tensor::DenseTensor>;  // one tensor per worker

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  sim::Rng rng(seed ^ (tag * 0x9e3779b97f4a7c15ULL));
  return rng.next_u64();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

const std::vector<std::string>& zoo_algorithms() {
  static const std::vector<std::string> algos = {
      "ring",         "recursive_doubling", "agsparse", "sparcml_ssar",
      "sparcml_dsar", "ps_sparse",          "oktopk",   "sketch"};
  return algos;
}

/// Every per-layer metric and its unit, in report order. A workload that
/// does not exercise a layer's counter reports 0 for it; every host time
/// is measured on every workload (see README.md).
const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"sim.events_per_op", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"tensor.block_density", "ratio"},
        {"tensor.bitmap_ns_per_elem", "ns"},
        {"core.engine_ms_per_op", "ms"},
        {"core.verify_ms_per_op", "ms"},
        {"core.reference_ms_per_op", "ms"},
        {"core.rounds_per_op", "count"},
        {"core.worker_bytes_per_op", "B"},
        {"core.retransmissions_per_op", "count"},
        {"compress.encode_ns_per_elem", "ns"},
        {"compress.decode_ns_per_elem", "ns"},
        {"compress.saved_bytes_per_op", "B"},
        {"compress.exact_fold_frac", "ratio"},
        {"net.messages_per_op", "count"},
        {"net.wire_bytes_per_op", "B"},
        {"net.spine_bytes_per_op", "B"},
        {"net.spine_drops_per_op", "count"},
        {"net.fairness_index", "ratio"},
        {"net.serve_spine_share", "ratio"},
        {"serve.hit_rate", "ratio"},
        {"serve.batch_occupancy", "count"},
        {"serve.shard_busy_max_frac", "ratio"},
        {"serve.evictions_per_req", "count"},
        {"serve.zipf_ns_per_draw", "ns"},
        {"serve.cache_ns_per_access", "ns"},
        {"serve.route_ns_per_key", "ns"},
    };
    for (const std::string& algo : zoo_algorithms()) {
      u.emplace_back("baselines." + algo + ".host_ms", "ms");
      u.emplace_back("baselines." + algo + ".sim_us", "us");
    }
    u.emplace_back("runner.psim_speedup_2t", "x");
    u.emplace_back("telemetry.trace_overhead_frac", "ratio");
    u.emplace_back("telemetry.report_json_ms", "ms");
    return u;
  }();
  return units;
}

// ---------------------------------------------------------------------------
// Run-wide tallies.

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure messages

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
};

/// One equal, deterministic slice of a workload's work.
struct Batch {
  double host_s = 0.0;  // time inside the program's calls only
  std::uint64_t ops = 0;
};

struct SimSummary {
  double p50_us = 0.0;
  perfbench::Tail tail;  // tail.samples: size of the whole sample
};

/// Layer metrics filled by a traced run; starts with every name at 0.
class LayerMetrics {
 public:
  LayerMetrics() {
    for (const auto& [name, unit] : per_layer_units()) values_[name] = 0.0;
  }
  double& operator[](const std::string& name) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      throw std::logic_error("unknown per-layer metric " + name);
    }
    return it->second;
  }
  std::string render() const {
    JsonObject out;
    for (const auto& [name, unit] : per_layer_units()) {
      JsonObject m;
      m.num("value", values_.at(name)).str("unit", unit);
      out.raw(name, m.render());
    }
    return out.render();
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Layer probes over a workload's own inputs.

/// Timed BlockBitmap builds plus q8 encode/decode over the non-zero blocks
/// of `steps`, as the engine's worker scan and codec lanes see them.
void probe_tensor_and_codec(const std::vector<Step>& steps,
                            std::size_t block_size, Spans& spans,
                            LayerMetrics& m) {
  double elems = 0.0, nonzero_blocks = 0.0, blocks = 0.0;
  double bitmap_s = 0.0;
  {
    ScopedSpan span(spans, "tensor.bitmap");
    for (int rep = 0; rep < 3; ++rep) {
      for (const Step& step : steps) {
        for (const tensor::DenseTensor& t : step) {
          const auto t0 = Clock::now();
          const tensor::BlockBitmap bm(t.span(), block_size);
          bitmap_s += seconds_since(t0);
          if (rep == 0) {
            elems += static_cast<double>(t.size());
            blocks += static_cast<double>(bm.size());
            nonzero_blocks += static_cast<double>(bm.nonzero_count());
          }
        }
      }
    }
  }
  m["tensor.block_density"] = nonzero_blocks / blocks;
  m["tensor.bitmap_ns_per_elem"] = bitmap_s * 1e9 / (3.0 * elems);

  compress::EncodedBlock enc;
  std::vector<float> out(block_size);
  double coded = 0.0, encode_s = 0.0, decode_s = 0.0;
  ScopedSpan span(spans, "compress.codec");
  for (const Step& step : steps) {
    for (const tensor::DenseTensor& t : step) {
      const float* data = t.values().data();
      for (std::size_t off = 0; off + block_size <= t.size();
           off += block_size) {
        bool nonzero = false;
        for (std::size_t i = 0; i < block_size && !nonzero; ++i) {
          nonzero = data[off + i] != 0.0f;
        }
        if (!nonzero) continue;
        const auto t0 = Clock::now();
        compress::encode_block(data + off, block_size,
                               compress::WireCodec::kQ8, enc);
        const auto t1 = Clock::now();
        compress::decode_block(enc, out.data());
        decode_s += seconds_since(t1);
        encode_s += seconds_between(t0, t1);
        coded += static_cast<double>(block_size);
      }
    }
  }
  if (coded > 0.0) {
    m["compress.encode_ns_per_elem"] = encode_s * 1e9 / coded;
    m["compress.decode_ns_per_elem"] = decode_s * 1e9 / coded;
  }
}

/// The serving tier's request stream shape (serve_cotenant).
core::ServeSpec serve_spec(std::uint64_t seed) {
  core::ServeSpec s;
  s.n_shards = 4;
  s.n_clients = 4;
  s.key_space = std::size_t{1} << 20;
  s.zipf_alpha = 0.9;
  s.update_fraction = 0.05;
  s.requests_per_client = 6000;
  s.interarrival = sim::microseconds(2);
  s.batch_window = sim::microseconds(1);
  s.cache_capacity = 32768;
  s.cache_policy = core::ServeSpec::CachePolicy::kLru;
  s.routing = core::ServeSpec::Routing::kHash;
  s.seed = seed;
  return s;
}

/// Timed replays of the serving tier's key-level functions over one
/// seeded Zipf key stream: generation, cache lookup/fill, routing.
void probe_serve_keys(std::uint64_t seed, Spans& spans, LayerMetrics& m) {
  const core::ServeSpec spec = serve_spec(mix_seed(seed, 11));
  const serve::ZipfGenerator zipf(spec.key_space, spec.zipf_alpha);
  constexpr std::size_t kKeys = 1u << 20;
  std::vector<std::uint64_t> keys(kKeys);
  sim::Rng rng(spec.seed);
  {
    ScopedSpan span(spans, "serve.zipf");
    const auto t0 = Clock::now();
    for (auto& k : keys) k = zipf.next(rng);
    m["serve.zipf_ns_per_draw"] = seconds_since(t0) * 1e9 / kKeys;
  }
  {
    ScopedSpan span(spans, "serve.cache");
    serve::EmbeddingCache cache(spec.cache_policy, spec.cache_capacity);
    const auto t0 = Clock::now();
    for (std::uint64_t k : keys) {
      if (!cache.lookup(k)) cache.put(k, 0);
    }
    m["serve.cache_ns_per_access"] = seconds_since(t0) * 1e9 / kKeys;
  }
  {
    ScopedSpan span(spans, "serve.route");
    const serve::ShardMap map(spec.routing, spec.n_shards, spec.key_space);
    std::vector<std::uint64_t> per_shard(spec.n_shards);
    const auto t0 = Clock::now();
    for (std::uint64_t k : keys) ++per_shard[map.shard_of(k)];
    m["serve.route_ns_per_key"] = seconds_since(t0) * 1e9 / kKeys;
    for (std::uint64_t n : per_shard) {
      if (n == 0) throw std::runtime_error("routing left a shard idle");
    }
  }
}

/// One collective host: the engine and cluster a Session runs on.
struct SessionShape {
  std::size_t workers = 0;
  core::Config config;
  core::ClusterSpec cluster;
};

/// Traced engine pair over `steps`: one Session verifies every result, a
/// twin fed the identical sequence does not; reference_reduce is timed on
/// the same inputs. Both Sessions trace counters (no event timeline).
struct EngineProbe {
  std::vector<double> verify_s, plain_s, reference_s;
  std::vector<sim::Time> sim_ns;  // completion per op (verifying Session)
  std::uint64_t events = 0;
  std::uint64_t rounds = 0, worker_bytes = 0, retransmissions = 0;
  std::uint64_t messages = 0, wire_bytes = 0, spine_bytes = 0;
  std::uint64_t spine_drops = 0, saved_bytes = 0, exact_folds = 0;
  std::uint64_t requant_folds = 0;
  double report_json_ms = 0.0;

  std::size_t ops() const { return verify_s.size(); }
};

EngineProbe probe_engine(const SessionShape& shape,
                         const std::vector<Step>& steps, std::size_t ops,
                         Spans& spans, Tally& tally) {
  core::ClusterSpec cluster = shape.cluster;
  cluster.telemetry.enabled = true;
  cluster.telemetry.trace_events = false;
  core::Session verifying(shape.config, shape.workers, cluster);
  core::Session plain(shape.config, shape.workers, cluster);
  EngineProbe p;
  Step work;
  std::uint64_t events_before = 0, wire_before = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    const Step& in = steps[i % steps.size()];
    ScopedSpan op(spans, "op");
    ++tally.attempted;
    work = in;
    core::RunStats v;
    {
      ScopedSpan span(spans, "core.allreduce_verify");
      const auto t0 = Clock::now();
      v = verifying.allreduce(work, true);
      p.verify_s.push_back(seconds_since(t0));
    }
    work = in;
    core::RunStats n;
    {
      ScopedSpan span(spans, "core.allreduce");
      const auto t0 = Clock::now();
      n = plain.allreduce(work, false);
      p.plain_s.push_back(seconds_since(t0));
    }
    {
      ScopedSpan span(spans, "core.reference_reduce");
      const auto t0 = Clock::now();
      const tensor::DenseTensor ref = core::reference_reduce(in, shape.config);
      p.reference_s.push_back(seconds_since(t0));
    }
    if (!v.verified || !v.completed()) {
      tally.fail("traced op not verified");
    } else if (v.completion_time != n.completion_time ||
               v.total_messages != n.total_messages) {
      tally.fail("verification changed the simulated outcome");
    }
    const telemetry::RunReport& rn = plain.last_report();
    p.events += rn.sim_events_executed - events_before;
    events_before = rn.sim_events_executed;
    const telemetry::RunReport& rv = verifying.last_report();
    p.wire_bytes += rv.wire_tx_bytes_total - wire_before;
    wire_before = rv.wire_tx_bytes_total;
    p.sim_ns.push_back(v.completion_time);
    p.rounds += v.rounds;
    for (auto b : v.worker_data_bytes) p.worker_bytes += b;
    p.retransmissions += v.retransmissions;
    p.messages += v.total_messages;
    for (const auto& l : v.links) {
      p.spine_bytes += l.tx_bytes;
      p.spine_drops += l.dropped_messages;
    }
    p.saved_bytes += v.codec_saved_bytes;
    p.exact_folds += v.codec_exact_folds;
    p.requant_folds += v.codec_requant_folds;
  }
  std::vector<double> json_ms;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span(spans, "telemetry.write_json");
    std::ostringstream os;
    const auto t0 = Clock::now();
    verifying.last_report().write_json(os);
    json_ms.push_back(seconds_since(t0) * 1e3);
  }
  p.report_json_ms = median(json_ms);
  return p;
}

void fill_engine_times(const EngineProbe& p, LayerMetrics& m) {
  std::vector<double> verify_extra;
  double plain_total = 0.0;
  for (std::size_t i = 0; i < p.ops(); ++i) {
    verify_extra.push_back(p.verify_s[i] - p.plain_s[i]);
    plain_total += p.plain_s[i];
  }
  m["core.engine_ms_per_op"] = median(p.plain_s) * 1e3;
  m["core.verify_ms_per_op"] = median(verify_extra) * 1e3;
  m["core.reference_ms_per_op"] = median(p.reference_s) * 1e3;
  const double ops = static_cast<double>(p.ops());
  m["sim.events_per_op"] = static_cast<double>(p.events) / ops;
  m["sim.host_ns_per_event"] =
      plain_total * 1e9 / static_cast<double>(p.events);
}

void fill_engine_counts(const EngineProbe& p, LayerMetrics& m) {
  const double ops = static_cast<double>(p.ops());
  m["core.rounds_per_op"] = static_cast<double>(p.rounds) / ops;
  m["core.worker_bytes_per_op"] = static_cast<double>(p.worker_bytes) / ops;
  m["core.retransmissions_per_op"] =
      static_cast<double>(p.retransmissions) / ops;
  m["compress.saved_bytes_per_op"] =
      static_cast<double>(p.saved_bytes) / ops;
  const std::uint64_t folds = p.exact_folds + p.requant_folds;
  if (folds > 0) {
    m["compress.exact_fold_frac"] =
        static_cast<double>(p.exact_folds) / static_cast<double>(folds);
  }
  m["net.messages_per_op"] = static_cast<double>(p.messages) / ops;
  m["net.wire_bytes_per_op"] = static_cast<double>(p.wire_bytes) / ops;
  m["net.spine_bytes_per_op"] = static_cast<double>(p.spine_bytes) / ops;
  m["net.spine_drops_per_op"] = static_cast<double>(p.spine_drops) / ops;
  m["telemetry.report_json_ms"] = p.report_json_ms;
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  Workload(std::uint64_t seed, Tally& tally) : seed_(seed), tally_(tally) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generate the inputs from the seed and build the run host (replacing
  /// any previous ones).
  virtual void setup() = 0;
  /// Setup samples this workload takes beside the repeated setup() calls
  /// (serve_cotenant's per-episode builds); empty = time setup().
  virtual std::vector<double> build_samples() const { return {}; }
  virtual Batch run_batch(std::size_t b) = 0;
  /// True once every op that feeds the simulated-time metrics has run.
  virtual bool sim_complete() const = 0;
  virtual SimSummary sim_summary() const = 0;
  virtual void traced(double seconds, Spans& spans, LayerMetrics& m) = 0;
  /// Informational fields: digest of the simulated outputs, shape.
  virtual void describe(JsonObject& info) const = 0;

 protected:
  /// Host time of a traced run's reference pass: untraced batches for a
  /// third of the run, at least `min_batches`. The traced pass then replays
  /// the same ops, so the two per-op times compare like with like.
  struct Pass {
    double host_s = 0.0;
    std::uint64_t ops = 0;
    std::size_t batches = 0;
    double per_op() const { return host_s / static_cast<double>(ops); }
  };
  Pass untraced_pass(double seconds, std::size_t min_batches) {
    Pass pass;
    const auto t0 = Clock::now();
    while (pass.batches < min_batches || seconds_since(t0) < seconds / 3.0) {
      const Batch b = run_batch(pass.batches++);
      pass.host_s += b.host_s;
      pass.ops += b.ops;
    }
    return pass;
  }

  std::uint64_t seed_;
  Tally& tally_;
  perfbench::Digest digest_;
};

SimSummary summarize(const std::vector<double>& us) {
  SimSummary s;
  s.p50_us = median(us);
  s.tail = perfbench::tail_of(us);
  return s;
}

/// sparse_embed and codec_spine: a persistent Session cycling through a
/// pool of distinct gradient steps sampled from Table-1 profiles.
struct SessionWorkloadSpec {
  SessionShape shape;
  std::size_t elements = 0;
  std::vector<std::string> profiles;  // one pool step per entry
  std::size_t sim_ops = 0;            // leading ops feeding sim_* metrics
  /// Ops per batch. Shorter batches catch more quiet spells of the host;
  /// a batch must still hold equal work, so a mixed pool needs a full cycle.
  std::size_t batch_ops = 0;
};

class SessionWorkload final : public Workload {
 public:
  SessionWorkload(SessionWorkloadSpec spec, std::uint64_t seed, Tally& tally)
      : Workload(seed, tally), spec_(std::move(spec)) {}

  void setup() override {
    session_.reset();
    pool_.clear();
    sim::Rng rng(mix_seed(seed_, 1));
    for (const std::string& profile : spec_.profiles) {
      pool_.push_back(ddl::sample_gradients(
          ddl::workload(profile), spec_.shape.workers, spec_.elements, rng));
    }
    work_ = pool_.front();
    shape_ = spec_.shape;
    shape_.cluster.fabric.seed = mix_seed(seed_, 2);
    session_ = std::make_unique<core::Session>(shape_.config, shape_.workers,
                                               shape_.cluster);
    ops_ = 0;
  }

  Batch run_batch(std::size_t /*b*/) override {
    Batch out;
    for (std::size_t k = 0; k < spec_.batch_ops; ++k) {
      work_ = pool_[ops_ % pool_.size()];
      ++tally_.attempted;
      core::RunStats stats;
      const auto t0 = Clock::now();
      try {
        stats = session_->allreduce(work_, true);
      } catch (const std::exception& e) {
        out.host_s += seconds_since(t0);
        ++out.ops;
        tally_.fail(e.what());
        ++ops_;
        continue;
      }
      out.host_s += seconds_since(t0);
      ++out.ops;
      if (!stats.verified || !stats.completed()) {
        tally_.fail("allreduce result not verified");
      }
      if (sim_us_.size() < spec_.sim_ops) {
        sim_us_.push_back(static_cast<double>(stats.completion_time) / 1e3);
        digest_.add(static_cast<std::uint64_t>(stats.completion_time));
        digest_.add(stats.total_messages);
        digest_.add(stats.rounds);
        for (auto b : stats.worker_data_bytes) digest_.add(b);
      }
      ++ops_;
    }
    return out;
  }

  bool sim_complete() const override { return sim_us_.size() >= spec_.sim_ops; }
  SimSummary sim_summary() const override { return summarize(sim_us_); }

  void traced(double seconds, Spans& spans, LayerMetrics& m) override {
    setup();
    const Pass untraced = untraced_pass(seconds, 2);
    const EngineProbe p = probe_engine(shape_, pool_, untraced.ops, spans,
                                       tally_);
    // Telemetry is zero-cost by contract: the traced Session must
    // reproduce the untraced one's simulated times exactly.
    for (std::size_t i = 0; i < p.ops() && i < sim_us_.size(); ++i) {
      if (static_cast<double>(p.sim_ns[i]) / 1e3 != sim_us_[i]) {
        tally_.fail("tracing changed the simulated outcome");
        break;
      }
    }
    fill_engine_times(p, m);
    fill_engine_counts(p, m);
    double traced_s = 0.0;
    for (double t : p.verify_s) traced_s += t;
    m["telemetry.trace_overhead_frac"] =
        traced_s / static_cast<double>(p.ops()) / untraced.per_op() - 1.0;
    probe_tensor_and_codec(pool_, shape_.config.block_size, spans, m);
  }

  void describe(JsonObject& info) const override {
    info.num("workers", std::uint64_t{spec_.shape.workers})
        .num("elements", std::uint64_t{spec_.elements})
        .num("pool_steps", std::uint64_t{pool_.size()})
        .str("sim_digest", digest_.hex());
  }

 private:
  SessionWorkloadSpec spec_;
  SessionShape shape_;  // spec_.shape with the seeded fabric
  std::vector<Step> pool_;
  Step work_;
  std::unique_ptr<core::Session> session_;
  std::size_t ops_ = 0;
  std::vector<double> sim_us_;
};

SessionWorkloadSpec sparse_embed_spec() {
  SessionWorkloadSpec s;
  s.shape.workers = 8;
  s.shape.config = core::Config::for_transport(core::Transport::kRdma);
  s.shape.cluster = core::ClusterSpec::dedicated(4);  // ideal 10 Gbps switch
  s.elements = std::size_t{1} << 20;
  // Three NCF steps put the median op inside one profile rather than on
  // the boundary between two.
  s.profiles = {"DeepLight", "LSTM", "NCF", "BERT", "NCF", "BERT", "NCF"};
  s.sim_ops = 56;
  s.batch_ops = s.profiles.size();
  return s;
}

SessionWorkloadSpec codec_spine_spec() {
  SessionWorkloadSpec s;
  s.shape.workers = 32;
  s.shape.config = core::Config::for_transport(core::Transport::kDpdk);
  s.shape.config.codec.codec = compress::WireCodec::kQ8;
  s.shape.config.codec.error_feedback = true;
  s.shape.cluster = core::ClusterSpec::dedicated(8);
  s.shape.cluster.topology = core::TopologySpec::two_tier_racks(4, 4.0);
  s.shape.cluster.topology.spine_loss_rate = 1e-4;
  s.elements = std::size_t{1} << 18;
  s.profiles = {"BERT", "BERT", "BERT", "BERT"};
  s.sim_ops = 40;
  s.batch_ops = 1;
  return s;
}

/// The eight registry collectives, each run on a pool of NCF-profile steps
/// with 8 workers on the ideal switch. The step size is drawn from the seed
/// (up to 6% under 2^18 elements), so even the dense algorithms' simulated
/// times differ between seeds.
class ZooWorkload final : public Workload {
 public:
  static constexpr std::size_t kWorkers = 8;
  static constexpr std::size_t kMaxElements = std::size_t{1} << 18;
  static constexpr std::size_t kPool = 4;
  static constexpr std::size_t kSimOps = 64;

  ZooWorkload(std::uint64_t seed, Tally& tally)
      : Workload(seed, tally),
        config_(core::Config::for_transport(core::Transport::kRdma)),
        cluster_(core::ClusterSpec::dedicated(4)) {
    baselines::register_zoo();
  }

  void setup() override {
    pool_.clear();
    sim::Rng rng(mix_seed(seed_, 3));
    const std::size_t n = kMaxElements - 256 * rng.next_below(64);
    for (std::size_t i = 0; i < kPool; ++i) {
      pool_.push_back(
          ddl::sample_gradients(ddl::workload("NCF"), kWorkers, n, rng));
    }
    work_ = pool_.front();
    cluster_.fabric.seed = mix_seed(seed_, 4);
  }

  /// One op: `algo` on pool step `step`; returns host seconds.
  double run_op(const std::string& algo, const Step& in, core::RunStats& out) {
    work_ = in;
    ++tally_.attempted;
    const auto t0 = Clock::now();
    try {
      out = core::run_collective(algo, work_, config_, cluster_, true);
    } catch (const std::exception& e) {
      const double dt = seconds_since(t0);
      tally_.fail(algo + ": " + e.what());
      return dt;
    }
    const double dt = seconds_since(t0);
    if (!out.verified || !out.completed()) {
      tally_.fail(algo + ": result outside its tolerance");
    }
    return dt;
  }

  /// One batch: every algorithm once on pool step b.
  Batch run_batch(std::size_t b) override {
    Batch out;
    const Step& in = pool_[b % pool_.size()];
    for (const std::string& algo : zoo_algorithms()) {
      core::RunStats stats;
      out.host_s += run_op(algo, in, stats);
      ++out.ops;
      if (sim_us_.size() < kSimOps) {
        sim_us_.push_back(static_cast<double>(stats.completion_time) / 1e3);
        digest_.add(static_cast<std::uint64_t>(stats.completion_time));
        digest_.add(stats.total_messages);
        for (auto bytes : stats.worker_data_bytes) digest_.add(bytes);
      }
    }
    return out;
  }

  bool sim_complete() const override { return sim_us_.size() >= kSimOps; }
  SimSummary sim_summary() const override { return summarize(sim_us_); }

  /// Per-algorithm median host and simulated time, plus per-op counters,
  /// over `cycles` pool cycles. Returns the host seconds spent in the ops.
  double rotate(std::size_t cycles, Spans& spans, LayerMetrics& m) {
    double host_s = 0.0, ops = 0.0, worker_bytes = 0.0, messages = 0.0;
    double rounds = 0.0, retransmissions = 0.0;
    for (const std::string& algo : zoo_algorithms()) {
      std::vector<double> host_ms, sim_us;
      ScopedSpan span(spans, ("baselines." + algo).c_str());
      for (std::size_t c = 0; c < cycles; ++c) {
        for (const Step& in : pool_) {
          core::RunStats stats;
          const double dt = run_op(algo, in, stats);
          host_s += dt;
          ops += 1.0;
          host_ms.push_back(dt * 1e3);
          sim_us.push_back(static_cast<double>(stats.completion_time) / 1e3);
          rounds += static_cast<double>(stats.rounds);
          for (auto b : stats.worker_data_bytes) {
            worker_bytes += static_cast<double>(b);
          }
          retransmissions += static_cast<double>(stats.retransmissions);
          messages += static_cast<double>(stats.total_messages);
        }
      }
      m["baselines." + algo + ".host_ms"] = median(host_ms);
      m["baselines." + algo + ".sim_us"] = median(sim_us);
    }
    m["core.rounds_per_op"] = rounds / ops;
    m["core.worker_bytes_per_op"] = worker_bytes / ops;
    m["core.retransmissions_per_op"] = retransmissions / ops;
    m["net.messages_per_op"] = messages / ops;
    return host_s;
  }

  void traced(double seconds, Spans& spans, LayerMetrics& m) override {
    setup();
    const Pass untraced = untraced_pass(seconds, 2 * kPool);
    // The same ops as the untraced batches, grouped by algorithm.
    const double traced_s = rotate(untraced.batches / kPool, spans, m);
    const double traced_ops = static_cast<double>(
        untraced.batches / kPool * kPool * zoo_algorithms().size());
    m["telemetry.trace_overhead_frac"] =
        traced_s / traced_ops / untraced.per_op() - 1.0;

    // The OmniReduce engine on the same NCF steps, for the core and sim
    // layers' host times.
    const EngineProbe p = probe_engine({kWorkers, config_, cluster_}, pool_,
                                       2 * kPool, spans, tally_);
    fill_engine_times(p, m);
    m["telemetry.report_json_ms"] = p.report_json_ms;
    probe_tensor_and_codec(pool_, config_.block_size, spans, m);
  }

  void describe(JsonObject& info) const override {
    info.num("workers", std::uint64_t{kWorkers})
        .num("elements", std::uint64_t{kMaxElements})
        .num("pool_steps", std::uint64_t{kPool})
        .num("algorithms", std::uint64_t{zoo_algorithms().size()})
        .str("sim_digest", digest_.hex());
  }

 private:
  core::Config config_;
  core::ClusterSpec cluster_;
  std::vector<Step> pool_;
  Step work_;
  std::vector<double> sim_us_;
};

/// Rank-r value (1-based) of a log-binned histogram, interpolated
/// geometrically inside its bin (bin i covers (bounds[i-1], bounds[i]]).
double histogram_rank_value(const telemetry::Histogram& h, std::uint64_t r) {
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const std::uint64_t c = h.counts[i];
    if (c == 0 || before + c < r) {
      before += c;
      continue;
    }
    double lo = i == 0 ? h.min : h.bounds[i - 1];
    double hi = i < h.bounds.size() ? h.bounds[i] : h.max;
    lo = std::max(lo, h.min);
    hi = std::min(hi, h.max);
    const double f = (static_cast<double>(r - before) - 0.5) /
                     static_cast<double>(c);
    if (lo <= 0.0 || hi <= lo) return hi;
    return lo * std::pow(hi / lo, f);
  }
  return h.max;
}

/// serve_cotenant: the serving tier beside a 2-worker trainer on an
/// 11-machine, 2-rack 8:1 fabric, rebuilt every episode.
class ServeWorkload final : public Workload {
 public:
  static constexpr std::size_t kVariants = 4;  // distinct episode seeds
  static constexpr std::size_t kTrainerSteps = 8;
  static constexpr std::size_t kTrainerElements = std::size_t{1} << 18;

  ServeWorkload(std::uint64_t seed, Tally& tally) : Workload(seed, tally) {}

  void setup() override {
    trainer_.clear();
    sim::Rng rng(mix_seed(seed_, 5));
    for (std::size_t v = 0; v < kVariants; ++v) {
      core::Fabric::StepTensors steps(kTrainerSteps);
      for (Step& step : steps) {
        for (int w = 0; w < 2; ++w) {
          step.push_back(
              tensor::make_block_sparse(kTrainerElements, 256, 0.5, rng));
        }
      }
      trainer_.push_back(std::move(steps));
    }
    work_ = trainer_.front();
  }

  std::vector<double> build_samples() const override { return builds_; }

  struct Episode {
    double build_s = 0.0;
    double run_s = 0.0;
    telemetry::FabricReport report;
    std::string report_json;
  };

  /// Builds and runs episode variant `v`; checks conservation and the
  /// trainer's results.
  Episode episode(std::size_t v, Spans& spans) {
    ScopedSpan op(spans, "episode");
    const std::uint64_t eseed = mix_seed(seed_, 100 + v);
    const core::ServeSpec spec = serve_spec(eseed);
    work_ = trainer_[v];
    Episode ep;
    auto t0 = Clock::now();
    core::TenantFabricSpec fspec;
    fspec.n_machines = 11;
    fspec.topology = core::TopologySpec::two_tier_racks(2, 8.0);
    fspec.machine_racks = {0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1};
    fspec.seed = eseed;
    std::unique_ptr<core::Fabric> fabric;
    std::unique_ptr<serve::ServingJob> job;
    {
      ScopedSpan span(spans, "fabric.build");
      fabric = std::make_unique<core::Fabric>(fspec);
      job = std::make_unique<serve::ServingJob>(
          spec, std::vector<std::size_t>{0, 1, 2, 3},
          std::vector<std::size_t>{4, 5, 6, 7});
      fabric->add_custom_job({"serve"}, *job);
      core::JobSpec t;
      t.name = "trainer";
      t.config.deterministic_reduction = true;
      t.worker_machines = {8, 9};
      t.aggregator_machines = {10};
      fabric->add_job(t, work_);
    }
    auto t1 = Clock::now();
    ep.build_s = seconds_between(t0, t1);
    bool ran = true;
    {
      ScopedSpan span(spans, "fabric.run");
      try {
        fabric->run();
      } catch (const std::exception& e) {
        tally_.fail(std::string("fabric run: ") + e.what());
        ran = false;
      }
    }
    ep.run_s = seconds_since(t1);
    const std::uint64_t requests = spec.n_clients * spec.requests_per_client;
    tally_.attempted += requests;
    if (!ran) {
      tally_.failed += requests - 1;
      return ep;
    }
    ScopedSpan span(spans, "fabric.report");
    ep.report = fabric->report();
    std::ostringstream os;
    ep.report.write_json(os);
    ep.report_json = os.str();
    const telemetry::ServeReport& r = job->serve_report();
    const std::uint64_t unanswered =
        r.requests_issued - std::min(r.requests_issued, r.responses_received);
    if (r.requests_issued != requests || unanswered > 0 ||
        r.in_flight_at_drain > 0) {
      tally_.fail("serving requests not conserved");
      tally_.failed += std::max<std::uint64_t>(
          unanswered + r.in_flight_at_drain, 1) - 1;
    }
    for (const auto& row : ep.report.jobs) {
      if (row.name != "trainer") continue;
      if (!row.verified) tally_.fail("trainer result not verified");
      // How much of the serving window the trainer overlaps (>= 1: all).
      trainer_cover_ = std::min(trainer_cover_,
                                static_cast<double>(row.finish) /
                                    static_cast<double>(r.finish));
    }
    return ep;
  }

  Batch run_batch(std::size_t b) override {
    Spans off(false);
    const std::size_t v = b % kVariants;
    Episode ep = episode(v, off);
    builds_.push_back(ep.build_s);
    if (b < kVariants) {
      for (const auto& s : ep.report.serve) {
        for (const auto& lane : s.lanes) {
          if (lane.name == "lookup") lookup_.merge(lane.latency_ns);
        }
      }
      digest_.add(ep.report_json);
      sims_done_ = b + 1;
    }
    Batch out;
    out.host_s = ep.run_s;
    const core::ServeSpec spec = serve_spec(0);
    out.ops = spec.n_clients * spec.requests_per_client;
    return out;
  }

  bool sim_complete() const override { return sims_done_ >= kVariants; }

  SimSummary sim_summary() const override {
    SimSummary s;
    const std::uint64_t n = lookup_.total;
    s.p50_us = histogram_rank_value(
                   lookup_, static_cast<std::uint64_t>(std::ceil(0.5 * n))) /
               1e3;
    s.tail.value = histogram_rank_value(lookup_, n - 10) / 1e3;
    s.tail.percentile =
        100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    s.tail.samples = n;
    return s;
  }

  void traced(double seconds, Spans& spans, LayerMetrics& m) override {
    setup();
    const Pass untraced = untraced_pass(seconds, kVariants);
    const std::size_t episodes = untraced.batches;
    double traced_s = 0.0;
    std::vector<double> json_ms;
    double hits = 0.0, lookups = 0.0, occupancy = 0.0, batches = 0.0;
    double evictions = 0.0, requests = 0.0, busy_max = 0.0;
    double spine = 0.0, serve_spine = 0.0, fairness = 0.0, messages = 0.0;
    double rounds = 0.0, worker_bytes = 0.0, retrans = 0.0;
    for (std::size_t e = 0; e < episodes; ++e) {
      const Episode ep = episode(e % kVariants, spans);
      const telemetry::FabricReport& r = ep.report;
      const telemetry::ServeReport& s = r.serve.front();
      traced_s += ep.run_s;
      {
        ScopedSpan span(spans, "telemetry.write_json");
        std::ostringstream os;
        const auto tj = Clock::now();
        r.write_json(os);
        json_ms.push_back(seconds_since(tj) * 1e3);
      }
      hits += static_cast<double>(s.cache_hits);
      lookups += static_cast<double>(s.lookups);
      requests += static_cast<double>(s.requests_issued);
      const double window = static_cast<double>(s.finish - s.first_issue);
      for (const auto& shard : s.shards) {
        occupancy += shard.mean_batch_occupancy *
                     static_cast<double>(shard.batches);
        batches += static_cast<double>(shard.batches);
        evictions += static_cast<double>(shard.cache_evictions);
        busy_max = std::max(busy_max,
                            static_cast<double>(shard.busy_ns) / window);
      }
      for (const auto& share : r.link_shares) {
        spine += static_cast<double>(share.tx_bytes);
        messages += static_cast<double>(share.tx_messages);
        if (share.job == "serve") {
          serve_spine += static_cast<double>(share.tx_bytes);
        }
      }
      fairness += r.fairness_index;
      for (const auto& job : r.jobs) {
        if (job.name != "trainer") continue;
        rounds += static_cast<double>(job.rounds);
        worker_bytes += static_cast<double>(job.data_bytes);
        retrans += static_cast<double>(job.retransmissions);
      }
    }
    const double n = static_cast<double>(episodes);
    m["telemetry.trace_overhead_frac"] =
        traced_s / requests / untraced.per_op() - 1.0;
    m["telemetry.report_json_ms"] = median(json_ms);
    m["serve.hit_rate"] = hits / lookups;
    m["serve.batch_occupancy"] = occupancy / batches;
    m["serve.shard_busy_max_frac"] = busy_max;
    m["serve.evictions_per_req"] = evictions / requests;
    m["net.spine_bytes_per_op"] = spine / requests;
    m["net.messages_per_op"] = messages / requests;
    m["net.serve_spine_share"] = serve_spine / spine;
    m["net.fairness_index"] = fairness / n;
    m["core.rounds_per_op"] = rounds / requests;
    m["core.worker_bytes_per_op"] = worker_bytes / requests;
    m["core.retransmissions_per_op"] = retrans / requests;

    m["runner.psim_speedup_2t"] = psim_speedup(spans);

    // The trainer's engine on its own steps, on an ideal switch (Session
    // hosts no co-tenants).
    core::ClusterSpec cluster = core::ClusterSpec::dedicated(1);
    core::Config config;
    config.deterministic_reduction = true;
    const EngineProbe p = probe_engine({2, config, cluster}, trainer_.front(),
                                       2 * kTrainerSteps, spans, tally_);
    fill_engine_times(p, m);
    probe_tensor_and_codec(trainer_.front(), 256, spans, m);
  }

  /// Serial vs OMR_SIM_THREADS=2 host time of the same episodes; the two
  /// engines must produce byte-identical fabric reports.
  double psim_speedup(Spans& spans) {
    std::vector<double> ratio;
    for (std::size_t v = 0; v < 2; ++v) {
      const Episode serial = episode(v, spans);
      setenv("OMR_SIM_THREADS", "2", 1);
      Episode parallel;
      {
        ScopedSpan span(spans, "runner.psim_2t");
        parallel = episode(v, spans);
      }
      unsetenv("OMR_SIM_THREADS");
      if (parallel.report_json != serial.report_json) {
        tally_.fail("OMR_SIM_THREADS=2 changed the fabric report");
      }
      ratio.push_back(serial.run_s / parallel.run_s);
    }
    return median(ratio);
  }

  void describe(JsonObject& info) const override {
    const core::ServeSpec spec = serve_spec(0);
    info.num("requests_per_episode",
             std::uint64_t{spec.n_clients * spec.requests_per_client})
        .num("episode_variants", std::uint64_t{kVariants})
        .num("trainer_steps", std::uint64_t{kTrainerSteps})
        .num("trainer_cover_min", trainer_cover_)
        .str("sim_digest", digest_.hex());
  }

 private:
  std::vector<core::Fabric::StepTensors> trainer_;
  core::Fabric::StepTensors work_;
  std::vector<double> builds_;
  telemetry::Histogram lookup_;
  std::size_t sims_done_ = 0;
  double trainer_cover_ = std::numeric_limits<double>::infinity();
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Tally& tally) {
  if (name == "sparse_embed") {
    return std::make_unique<SessionWorkload>(sparse_embed_spec(), seed, tally);
  }
  if (name == "codec_spine") {
    return std::make_unique<SessionWorkload>(codec_spine_spec(), seed, tally);
  }
  if (name == "serve_cotenant") {
    return std::make_unique<ServeWorkload>(seed, tally);
  }
  if (name == "zoo_rotation") {
    return std::make_unique<ZooWorkload>(seed, tally);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// The two kinds of run.

std::string end_to_end(Workload& w, double seconds, Tally& tally,
                       JsonObject& info) {
  // Several setups, enough that a cheap one is not judged on a few ms.
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < 5 || (setup_total < 2.0 && setups.size() < 200)) {
    const auto t0 = Clock::now();
    w.setup();
    setups.push_back(seconds_since(t0));
    setup_total += setups.back();
  }
  std::vector<double> rates;
  std::uint64_t batch_ops = 0;
  const auto t0 = Clock::now();
  for (std::size_t b = 0;
       b < 3 || !w.sim_complete() || seconds_since(t0) < seconds; ++b) {
    const Batch out = w.run_batch(b);
    rates.push_back(static_cast<double>(out.ops) / out.host_s);
    batch_ops = out.ops;
  }
  const std::vector<double> builds = w.build_samples();
  const double setup_s = builds.empty() ? median(setups) : median(builds);
  const SimSummary sim = w.sim_summary();

  JsonObject spread;
  spread.num("q1", perfbench::quantile(rates, 0.25))
      .num("median", median(rates))
      .num("q3", perfbench::quantile(rates, 0.75))
      .num("min", perfbench::quantile(rates, 0.0))
      .num("max", perfbench::quantile(rates, 1.0));
  info.num("batches", std::uint64_t{rates.size()})
      .raw("batch_rate", spread.render())
      .raw("batch_rates", [&] {
        std::string out = "[";
        for (std::size_t i = 0; i < rates.size(); ++i) {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", rates[i]);
          out += buf;
        }
        return out + "]";
      }())
      .num("ops_per_batch", batch_ops)
      .num("setup_samples",
           std::uint64_t{builds.empty() ? setups.size() : builds.size()})
      .num("sim_tail_percentile", sim.tail.percentile)
      .num("sim_tail_samples", std::uint64_t{sim.tail.samples})
      .num("measured_s", seconds_since(t0));

  auto metric = [](double v, const char* unit) {
    JsonObject m;
    m.num("value", v).str("unit", unit);
    return m.render();
  };
  const double ok = tally.attempted == 0
                        ? 0.0
                        : 1.0 - static_cast<double>(tally.failed) /
                                    static_cast<double>(tally.attempted);
  // Host contention only ever slows a batch, so the fastest batch tracks
  // the program; the median tracks the neighbours (README.md).
  JsonObject metrics;
  metrics.raw("setup_s", metric(setup_s, "s"))
      .raw("ops_per_s", metric(perfbench::quantile(rates, 1.0), "1/s"))
      .raw("sim_p50_us", metric(sim.p50_us, "us"))
      .raw("sim_tail_us", metric(sim.tail.value, "us"))
      .raw("peak_rss_mb", metric(peak_rss_mb(), "MB"))
      .raw("ok_frac", metric(ok, "ratio"));
  return metrics.render();
}

std::string traced_run(Workload& w, const std::string& name,
                       std::uint64_t seed, double seconds, Tally& tally,
                       const std::string& out_dir, JsonObject& info) {
  Spans spans(true);
  LayerMetrics m;
  {
    ScopedSpan root(spans, name.c_str());
    w.traced(seconds, spans, m);
    probe_serve_keys(seed, spans, m);
    if (name != "zoo_rotation") {
      // Every traced run reports the baselines' host times; the workloads
      // that do not run them measure one rotation on the zoo's inputs.
      ZooWorkload zoo(seed, tally);
      zoo.setup();
      LayerMetrics zm;
      zoo.rotate(1, spans, zm);
      for (const std::string& algo : zoo_algorithms()) {
        for (const char* k : {".host_ms", ".sim_us"}) {
          m["baselines." + algo + k] = zm["baselines." + algo + k];
        }
      }
    }
  }
  JsonObject self;
  for (const auto& [span, t] : spans.totals()) {
    JsonObject row;
    row.num("total_s", t.first).num("self_s", t.second);
    self.raw(span, row.render());
  }
  info.raw("span_seconds", self.render());
  if (!out_dir.empty()) {
    const std::string path =
        out_dir + "/spans-" + name + "-" + std::to_string(seed) + ".json";
    std::ofstream os(path);
    os << "[";
    const auto& all = spans.spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      JsonObject s;
      s.str("name", all[i].name)
          .num("start_s", all[i].start_s)
          .num("end_s", all[i].end_s)
          .num("parent", static_cast<double>(all[i].parent));
      os << (i ? ",\n" : "") << s.render();
    }
    os << "]\n";
    if (!os) throw std::runtime_error("cannot write " + path);
    info.str("spans_file", path);
  }
  return m.render();
}

int usage() {
  std::fprintf(stderr,
               "usage: omr_perfbench --workload "
               "<sparse_embed|codec_spine|serve_cotenant|zoo_rotation> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, out_dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") name = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::atof(val);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--out-dir") out_dir = val;
    else return usage();
  }
  if (argc % 2 == 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return usage();
  }
  Tally tally;
  std::unique_ptr<Workload> w = make_workload(name, seed, tally);
  if (w == nullptr) return usage();

  JsonObject info;
  std::string metrics;
  try {
    metrics = trace == 1
                  ? traced_run(*w, name, seed, seconds, tally, out_dir, info)
                  : end_to_end(*w, seconds, tally, info);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omr_perfbench: %s\n", e.what());
    return 1;
  }
  info.str("workload", name).num("seed", seed);
  w->describe(info);
  std::string errors = "[";
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    errors += (i ? "," : "") + JsonObject::quote(tally.errors[i]);
  }
  info.raw("errors", errors + "]").str("build_type", OMR_PERFBENCH_BUILD_TYPE);

  JsonObject record;
  record.boolean("correct", tally.failed == 0 && tally.attempted > 0)
      .num("attempted", tally.attempted)
      .num("failed", tally.failed)
      .raw("metrics", metrics)
      .raw("info", info.render());
  std::printf("%s\n", record.render().c_str());
  return 0;
}
