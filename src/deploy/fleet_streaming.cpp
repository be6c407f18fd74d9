#include "snipr/deploy/fleet_streaming.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "snipr/contact/trace_replay.hpp"
#include "snipr/core/crc32.hpp"
#include "snipr/core/json_writer.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/core/thread_pool.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/node/mobile_node.hpp"
#include "snipr/node/node_block.hpp"
#include "snipr/radio/channel.hpp"
#include "snipr/sim/simulator.hpp"
#include "snipr/stats/online_stats.hpp"
#include "snipr/stats/quantile_sketch.hpp"
#include "snipr/trace/trace_catalog.hpp"

namespace snipr::deploy {
namespace {

/// Per-node means a shard hands back — a few doubles per node, freed as
/// soon as the batch folds. (Folding happens on the caller's thread, in
/// node order, so the accumulator state never depends on the partition.)
struct NodeAgg {
  double mean_zeta_s{0.0};
  double mean_phi_s{0.0};
  double mean_bytes{0.0};
  std::uint64_t probed_sessions{0};
};

struct ShardResult {
  std::vector<NodeAgg> nodes;
  std::uint64_t events{0};
};

/// Running aggregate across all folded shards — the entire resident
/// state of a streaming run between batches.
struct Accumulator {
  stats::OnlineStats zeta;
  stats::QuantileSketch sketch{0.01};
  // Naive node-order sums, matching finalize_outcome term for term so
  // the streaming totals are bit-equal to the materialising engine's.
  double total_zeta_s{0.0};
  double total_phi_s{0.0};
  double total_bytes{0.0};
  std::uint64_t contacts_probed{0};
  std::uint64_t events{0};

  void fold(const ShardResult& shard) {
    for (const NodeAgg& n : shard.nodes) {
      zeta.add(n.mean_zeta_s);
      sketch.add(n.mean_zeta_s);
      total_zeta_s += n.mean_zeta_s;
      total_phi_s += n.mean_phi_s;
      total_bytes += n.mean_bytes;
      contacts_probed += n.probed_sessions;
    }
    events += shard.events;
  }
};

/// Everything shard workers share read-only: the fleet's deterministic
/// inputs, materialised once.
struct StreamingInputs {
  const core::RoadsideScenario* scenario{nullptr};
  const FleetSpec* spec{nullptr};
  DeploymentConfig deployment;
  sim::Duration horizon{};
  std::vector<sim::Rng> node_rngs;      ///< channel stream per node
  // Road workload.
  std::vector<double> positions_m;
  std::vector<VehicleEntry> vehicles;
  // Trace workload.
  std::vector<contact::Contact> trace_base;
  sim::Duration trace_period{};
  std::vector<sim::Rng> trace_rngs;     ///< replay stream per node
};

StreamingInputs build_inputs(const core::RoadsideScenario& scenario,
                             const FleetSpec& spec,
                             const FleetConfig& config) {
  if (spec.nodes == 0) {
    throw std::invalid_argument("run_streaming_fleet: needs at least one node");
  }
  if (spec.routing.has_value()) {
    throw std::invalid_argument(
        "run_streaming_fleet: store-and-forward routing needs the per-node "
        "session export of FleetEngine::run");
  }
  if (spec.faults != nullptr && spec.faults->enabled()) {
    throw std::invalid_argument(
        "run_streaming_fleet: fault plans need the per-node injectors of "
        "FleetEngine::run; the streaming path would run fault-free");
  }

  StreamingInputs in;
  in.scenario = &scenario;
  in.spec = &spec;
  in.deployment = config.deployment;
  in.horizon = spec.flow_profile.epoch() *
               static_cast<std::int64_t>(config.deployment.epochs);

  // The run() determinism contract, replayed exactly: node channel
  // streams are the first `nodes` forks of root(seed); every auxiliary
  // stream (vehicle flow, exit draws, trace replay streams) comes from
  // the root *after* those forks.
  sim::Rng channel_root{config.deployment.seed};
  in.node_rngs.reserve(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    in.node_rngs.push_back(channel_root.fork());
  }
  sim::Rng root{config.deployment.seed};
  for (std::size_t i = 0; i < spec.nodes; ++i) (void)root.fork();

  if (const TraceWorkload* trace = spec.trace_workload()) {
    const trace::TraceEntry& entry =
        trace::TraceCatalog::instance().at(trace->trace);
    in.trace_base = trace::TraceCatalog::load(entry, trace->data_dir);
    in.trace_period = entry.epoch;
    in.trace_rngs.reserve(spec.nodes);
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      in.trace_rngs.push_back(root.fork());
    }
    return in;
  }

  const RoadWorkload& road = *spec.road_workload();
  if (road.spacing_m <= 0.0 || road.range_m <= 0.0) {
    throw std::invalid_argument(
        "run_streaming_fleet: spacing and range must be positive");
  }
  VehicleFlow flow;
  flow.profile = spec.flow_profile;
  flow.jitter = road.jitter;
  if (road.speed_stddev_mps > 0.0) {
    flow.speed_mps = std::make_unique<sim::TruncatedNormalDistribution>(
        road.speed_mean_mps, road.speed_stddev_mps, road.speed_min_mps);
  } else {
    flow.speed_mps =
        std::make_unique<sim::FixedDistribution>(road.speed_mean_mps);
  }
  in.vehicles = materialize_vehicles(flow, in.horizon, root);
  in.positions_m.reserve(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    in.positions_m.push_back(road.first_position_m +
                             road.spacing_m * static_cast<double>(i));
  }
  if (road.through_fraction < 1.0) {
    if (road.through_fraction < 0.0) {
      throw std::invalid_argument(
          "run_streaming_fleet: through_fraction must be in [0, 1]");
    }
    const double road_end = in.positions_m.back() + road.range_m;
    for (VehicleEntry& v : in.vehicles) {
      if (!root.bernoulli(road.through_fraction)) {
        v.exit_m = root.uniform(0.0, road_end);
      }
    }
  }
  return in;
}

/// Build schedules for nodes [begin, end) only — the lazy step that
/// bounds memory: a shard's schedules exist only while it runs.
std::vector<contact::ContactSchedule> build_shard_schedules(
    StreamingInputs& in, std::size_t begin, std::size_t end) {
  if (const TraceWorkload* trace = in.spec->trace_workload()) {
    std::vector<contact::ContactSchedule> schedules;
    schedules.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      contact::TraceReplayConfig config;
      config.period = in.trace_period;
      config.offset = sim::Duration::seconds(trace->stagger_s *
                                             static_cast<double>(i));
      config.jitter_stddev_s = trace->jitter_stddev_s;
      contact::TraceReplayProcess process{in.trace_base, config};
      sim::Rng rng = in.trace_rngs[i];  // copy: shard re-runs are possible
      schedules.emplace_back(contact::materialize(process, in.horizon, rng));
    }
    return schedules;
  }
  const RoadWorkload& road = *in.spec->road_workload();
  const std::vector<double> positions(in.positions_m.begin() +
                                          static_cast<std::ptrdiff_t>(begin),
                                      in.positions_m.begin() +
                                          static_cast<std::ptrdiff_t>(end));
  return build_road_schedules(positions, road.range_m, in.vehicles);
}

ShardResult run_streaming_shard(StreamingInputs& in, std::size_t begin,
                                std::size_t end) {
  std::vector<contact::ContactSchedule> schedules =
      build_shard_schedules(in, begin, end);
  sim::Simulator simulator{in.deployment.seed};
  const std::size_t count = end - begin;
  node::NodeBlock block{count};

  node::SensorNodeConfig node_config = in.deployment.node;
  node_config.expected_epochs = in.deployment.epochs;
  node_config.record_epoch_history = false;
  node_config.record_probed_contacts = false;

  const double phi_max_s = in.deployment.node.budget_limit.to_seconds();
  struct NodeWorld {
    std::unique_ptr<radio::Channel> channel;
    std::unique_ptr<node::MobileNode> sink;
    std::unique_ptr<node::Scheduler> scheduler;
    std::unique_ptr<node::SensorNode> sensor;
  };
  std::vector<NodeWorld> worlds;
  worlds.reserve(count);
  for (std::size_t i = begin; i < end; ++i) {
    NodeWorld w;
    sim::Rng rng = in.node_rngs[i];  // copy: keep the inputs re-runnable
    w.channel = std::make_unique<radio::Channel>(std::move(schedules[i - begin]),
                                                 in.deployment.link, rng);
    w.sink = std::make_unique<node::MobileNode>();
    w.scheduler = core::make_scheduler(*in.scenario, in.spec->strategy,
                                       in.spec->zeta_target_s, phi_max_s,
                                       in.spec->exploration);
    w.sensor = std::make_unique<node::SensorNode>(
        simulator, *w.channel, *w.sink, *w.scheduler, node_config, block,
        i - begin);
    w.sensor->start();
    worlds.push_back(std::move(w));
  }

  ShardResult result;
  result.events = simulator.run_until(sim::TimePoint::zero() + in.horizon);
  result.nodes.resize(count);
  for (std::size_t lane = 0; lane < count; ++lane) {
    NodeAgg& n = result.nodes[lane];
    const std::uint64_t epochs = block.epochs(lane);
    if (epochs > 0) {
      const auto e = static_cast<double>(epochs);
      n.mean_zeta_s = block.sum_zeta_s(lane) / e;
      n.mean_phi_s = block.sum_phi_s(lane) / e;
      n.mean_bytes = block.sum_bytes(lane) / e;
    }
    n.probed_sessions = block.probed_sessions(lane);
  }
  return result;
}

// --- Checkpointing -----------------------------------------------------
//
// Text format, one value per token; doubles as hexfloats ("%a") so
// restore round-trips bit-exactly. Hardened (v2):
//  - the last line is a CRC-32 frame over every preceding byte, so a
//    torn write, truncation or bit flip is *detected*, never parsed into
//    a silently-wrong accumulator;
//  - writes go to <path>.tmp, the current checkpoint is demoted to
//    <path>.prev, then the tmp is renamed in — keep-last-good: damage to
//    the newest file costs at most one batch of progress;
//  - restore prefers <path>, falls back to an intact <path>.prev when
//    the main file is damaged or missing, and throws only when damage
//    exists with no good fallback (a damaged checkpoint must never turn
//    into a silent from-scratch rerun).

constexpr const char* kCheckpointMagic = "snipr-fleet-checkpoint-v2";

void append_hex(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a ", v);
  out += buf;
}

void write_checkpoint(const std::string& path, const FleetConfig& config,
                      std::uint64_t nodes, std::uint64_t shards,
                      std::uint64_t shards_done, const Accumulator& acc) {
  std::string out;
  out.reserve(4096);
  out += kCheckpointMagic;
  out += '\n';
  out += std::to_string(nodes) + ' ' +
         std::to_string(config.deployment.epochs) + ' ' +
         std::to_string(config.deployment.seed) + ' ' +
         std::to_string(shards) + ' ' + std::to_string(shards_done) + '\n';
  const stats::OnlineStats::Snapshot z = acc.zeta.snapshot();
  out += std::to_string(z.n) + ' ';
  append_hex(out, z.mean);
  append_hex(out, z.m2);
  append_hex(out, z.min);
  append_hex(out, z.max);
  append_hex(out, acc.total_zeta_s);
  append_hex(out, acc.total_phi_s);
  append_hex(out, acc.total_bytes);
  out += std::to_string(acc.contacts_probed) + ' ' +
         std::to_string(acc.events) + '\n';
  const stats::QuantileSketch::Snapshot s = acc.sketch.snapshot();
  append_hex(out, s.relative_error);
  out += std::to_string(s.base) + ' ' + std::to_string(s.zero_count) + ' ' +
         std::to_string(s.counts.size()) + '\n';
  for (const std::uint64_t c : s.counts) {
    out += std::to_string(c);
    out += ' ';
  }
  out += '\n';

  // CRC frame over every byte above, as the final line.
  char crc_line[20];
  std::snprintf(crc_line, sizeof crc_line, "crc %08x\n",
                core::crc32(out));
  out += crc_line;

  const std::string tmp = path + ".tmp";
  {
    std::ofstream f{tmp, std::ios::binary | std::ios::trunc};
    if (!f) {
      throw std::runtime_error("run_streaming_fleet: cannot write " + tmp);
    }
    f << out;
  }
  // Keep-last-good: demote the current checkpoint before promoting the
  // new one. Both steps may fail benignly (first write: nothing to
  // demote), so only the final promotion is checked.
  const std::string prev = path + ".prev";
  (void)std::remove(prev.c_str());
  (void)std::rename(path.c_str(), prev.c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("run_streaming_fleet: cannot move checkpoint to " +
                             path);
  }
}

enum class CheckpointLoad { kMissing, kCorrupt, kOk };

/// Parse one checkpoint file into (shards_done, acc) — committed only on
/// success. kCorrupt covers torn writes, truncation, bit flips and
/// foreign formats: anything the CRC frame or the parser rejects. A
/// config mismatch throws instead — that file is *intact* but belongs to
/// a different run, and resuming it would silently blend two runs.
CheckpointLoad load_checkpoint(const std::string& path,
                               const FleetConfig& config, std::uint64_t nodes,
                               std::uint64_t shards,
                               std::uint64_t& shards_done, Accumulator& acc) {
  std::string content;
  {
    std::ifstream file{path, std::ios::binary};
    if (!file) return CheckpointLoad::kMissing;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    content = buffer.str();
  }
  // Verify the CRC frame: the final line must read "crc <hex>" and match
  // the CRC-32 of every byte before it.
  const std::size_t crc_pos = content.rfind("crc ");
  if (crc_pos == std::string::npos ||
      (crc_pos != 0 && content[crc_pos - 1] != '\n')) {
    return CheckpointLoad::kCorrupt;
  }
  const std::string body = content.substr(0, crc_pos);
  char* hex_end = nullptr;
  const unsigned long stored =
      std::strtoul(content.c_str() + crc_pos + 4, &hex_end, 16);
  if (hex_end == content.c_str() + crc_pos + 4 ||
      static_cast<std::uint32_t>(stored) != core::crc32(body)) {
    return CheckpointLoad::kCorrupt;
  }

  std::istringstream f{body};
  std::string magic;
  std::getline(f, magic);
  if (magic != kCheckpointMagic) return CheckpointLoad::kCorrupt;
  std::uint64_t ck_nodes = 0;
  std::uint64_t ck_epochs = 0;
  std::uint64_t ck_seed = 0;
  std::uint64_t ck_shards = 0;
  std::uint64_t ck_done = 0;
  f >> ck_nodes >> ck_epochs >> ck_seed >> ck_shards >> ck_done;
  if (!f) return CheckpointLoad::kCorrupt;
  if (ck_nodes != nodes || ck_epochs != config.deployment.epochs ||
      ck_seed != config.deployment.seed || ck_shards != shards ||
      ck_done > shards) {
    throw std::runtime_error("run_streaming_fleet: checkpoint " + path +
                             " belongs to a different run configuration");
  }
  Accumulator parsed;
  stats::OnlineStats::Snapshot z;
  std::string tok;
  const auto next_double = [&]() {
    f >> tok;
    return std::strtod(tok.c_str(), nullptr);
  };
  f >> z.n;
  z.mean = next_double();
  z.m2 = next_double();
  z.min = next_double();
  z.max = next_double();
  parsed.zeta.restore(z);
  parsed.total_zeta_s = next_double();
  parsed.total_phi_s = next_double();
  parsed.total_bytes = next_double();
  f >> parsed.contacts_probed >> parsed.events;
  stats::QuantileSketch::Snapshot s;
  s.relative_error = next_double();
  std::size_t bucket_count = 0;
  f >> s.base >> s.zero_count >> bucket_count;
  if (!f) return CheckpointLoad::kCorrupt;
  s.counts.resize(bucket_count);
  for (std::size_t i = 0; i < bucket_count; ++i) f >> s.counts[i];
  if (!f) return CheckpointLoad::kCorrupt;
  parsed.sketch = stats::QuantileSketch{s};
  shards_done = ck_done;
  acc = std::move(parsed);
  return CheckpointLoad::kOk;
}

/// Restore a checkpoint into (shards_done, acc): the main file when it
/// verifies, else an intact <path>.prev. Returns false when neither file
/// exists (fresh start); throws when damage exists with no good
/// fallback, or on a config mismatch.
bool read_checkpoint(const std::string& path, const FleetConfig& config,
                     std::uint64_t nodes, std::uint64_t shards,
                     std::uint64_t& shards_done, Accumulator& acc) {
  const CheckpointLoad main_state =
      load_checkpoint(path, config, nodes, shards, shards_done, acc);
  if (main_state == CheckpointLoad::kOk) return true;
  const std::string prev = path + ".prev";
  const CheckpointLoad prev_state =
      load_checkpoint(prev, config, nodes, shards, shards_done, acc);
  if (prev_state == CheckpointLoad::kOk) return true;
  if (main_state == CheckpointLoad::kMissing &&
      prev_state == CheckpointLoad::kMissing) {
    return false;  // fresh start
  }
  // Some checkpoint exists but nothing verifies: surface it rather than
  // silently recomputing from scratch (the damage may be a sign of a
  // bigger problem, and the rerun cost may be enormous).
  throw std::runtime_error("run_streaming_fleet: checkpoint " + path +
                           " is damaged and no intact .prev fallback exists");
}

FleetSummary finalize(const Accumulator& acc, std::uint64_t nodes,
                      std::uint64_t epochs, std::uint64_t shards) {
  FleetSummary s;
  s.nodes = nodes;
  s.epochs = epochs;
  s.shards = shards;
  s.total_zeta_s = acc.total_zeta_s;
  s.total_phi_s = acc.total_phi_s;
  s.total_bytes = acc.total_bytes;
  s.contacts_probed = acc.contacts_probed;
  s.events_executed = acc.events;
  if (acc.zeta.count() == 0) return s;
  s.min_zeta_s = acc.zeta.min();
  s.max_zeta_s = acc.zeta.max();
  s.mean_zeta_s = acc.zeta.mean();
  s.zeta_variance = acc.zeta.variance();
  s.zeta_stddev_s = acc.zeta.stddev();
  // Jain's index on (mean, variance) — see finalize_outcome.
  const double mean_sq = s.mean_zeta_s * s.mean_zeta_s;
  const double denom = mean_sq + s.zeta_variance;
  s.zeta_fairness = denom > 0.0 ? mean_sq / denom : 1.0;
  s.zeta_p50_s = acc.sketch.quantile(0.50);
  s.zeta_p90_s = acc.sketch.quantile(0.90);
  s.zeta_p99_s = acc.sketch.quantile(0.99);
  return s;
}

}  // namespace

std::optional<FleetSummary> run_streaming_fleet(
    const core::RoadsideScenario& scenario, const FleetSpec& spec,
    const FleetConfig& config, const StreamingOptions& options) {
  StreamingInputs in = build_inputs(scenario, spec, config);

  const std::size_t n = spec.nodes;
  std::size_t shards = config.shards;
  if (shards == 0) {
    shards = std::max(core::ThreadPool::hardware_threads(), n / 16);
  }
  shards = std::min(shards, n);

  const core::ThreadPool pool{
      std::min(config.threads == 0 ? core::ThreadPool::hardware_threads()
                                   : config.threads,
               shards)};
  const std::size_t batch_shards =
      options.batch_shards == 0 ? pool.threads() : options.batch_shards;

  Accumulator acc;
  std::uint64_t done = 0;
  if (!options.checkpoint_path.empty()) {
    (void)read_checkpoint(options.checkpoint_path, config, n, shards, done,
                          acc);
  }

  std::size_t processed = 0;
  while (done < shards) {
    if (options.max_shards != 0 && processed >= options.max_shards) {
      return std::nullopt;  // time slice exhausted; checkpoint holds state
    }
    std::size_t batch = std::min<std::size_t>(batch_shards, shards - done);
    if (options.max_shards != 0) {
      batch = std::min(batch, options.max_shards - processed);
    }
    std::vector<ShardResult> results(batch);
    pool.parallel_for(batch, [&](std::size_t b) {
      const std::size_t s = static_cast<std::size_t>(done) + b;
      const std::size_t begin = n * s / shards;
      const std::size_t end = n * (s + 1) / shards;
      results[b] = run_streaming_shard(in, begin, end);
    });
    // Fold on this thread, in shard order — node order overall, so the
    // accumulator state is independent of the thread count.
    for (const ShardResult& r : results) acc.fold(r);
    done += batch;
    processed += batch;
    if (!options.checkpoint_path.empty()) {
      write_checkpoint(options.checkpoint_path, config, n, shards, done, acc);
    }
  }
  if (!options.checkpoint_path.empty()) {
    // Completed: retire both generations, or a stale .prev could
    // resurrect this run's partial state into a future one.
    (void)std::remove(options.checkpoint_path.c_str());
    (void)std::remove((options.checkpoint_path + ".prev").c_str());
  }
  return finalize(acc, n, config.deployment.epochs, shards);
}

std::string to_json(const FleetSummary& s) {
  using core::json::append_field;
  using core::json::append_uint_field;
  std::string out;
  out.reserve(512);
  core::json::open_document(out, core::json::kFleetSummarySchemaV1);
  append_uint_field(out, "nodes", s.nodes);
  append_uint_field(out, "epochs", s.epochs);
  // No "shards" field: the partition is a performance knob, and the JSON
  // must be byte-identical across partitions (shard invariance test).
  append_field(out, "total_zeta_s", s.total_zeta_s);
  append_field(out, "total_phi_s", s.total_phi_s);
  append_field(out, "total_bytes", s.total_bytes);
  append_field(out, "mean_zeta_s", s.mean_zeta_s);
  append_field(out, "zeta_variance", s.zeta_variance);
  append_field(out, "zeta_stddev_s", s.zeta_stddev_s);
  append_field(out, "min_zeta_s", s.min_zeta_s);
  append_field(out, "max_zeta_s", s.max_zeta_s);
  append_field(out, "zeta_fairness", s.zeta_fairness);
  append_field(out, "zeta_p50_s", s.zeta_p50_s);
  append_field(out, "zeta_p90_s", s.zeta_p90_s);
  append_field(out, "zeta_p99_s", s.zeta_p99_s);
  append_uint_field(out, "contacts_probed", s.contacts_probed);
  append_uint_field(out, "events_executed", s.events_executed,
                    /*comma=*/false);
  out += '}';
  return out;
}

}  // namespace snipr::deploy
