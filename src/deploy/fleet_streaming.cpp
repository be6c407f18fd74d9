#include "snipr/deploy/fleet_streaming.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fleet_pipeline.hpp"
#include "snipr/core/crc32.hpp"
#include "snipr/core/json_writer.hpp"
#include "snipr/core/thread_pool.hpp"
#include "snipr/stats/online_stats.hpp"
#include "snipr/stats/quantile_sketch.hpp"

namespace snipr::deploy {
namespace {

/// Running aggregate across all folded shards — the entire resident
/// state of a streaming run between batches. Shards fold on the
/// caller's thread in node order, so the state never depends on the
/// partition.
struct Accumulator {
  pipeline::FleetFold fold;
  stats::QuantileSketch sketch{0.01};
  std::uint64_t contacts_probed{0};
  std::uint64_t events{0};

  void add(const pipeline::ShardResult& shard) {
    for (const NodeOutcome& n : shard.nodes) {
      fold.add(n);
      sketch.add(n.mean_zeta_s);
    }
    contacts_probed += shard.probed_sessions;
    events += shard.events;
  }
};

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
  const stats::OnlineStats::Snapshot z = acc.fold.zeta.snapshot();
  out += std::to_string(z.n) + ' ';
  append_hex(out, z.mean);
  append_hex(out, z.m2);
  append_hex(out, z.min);
  append_hex(out, z.max);
  append_hex(out, acc.fold.total_zeta_s);
  append_hex(out, acc.fold.total_phi_s);
  append_hex(out, acc.fold.total_bytes);
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
  parsed.fold.zeta.restore(z);
  parsed.fold.total_zeta_s = next_double();
  parsed.fold.total_phi_s = next_double();
  parsed.fold.total_bytes = next_double();
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

}  // namespace

std::optional<FleetSummary> run_streaming_fleet(
    const core::RoadsideScenario& scenario, const FleetSpec& spec,
    const FleetConfig& config, const StreamingOptions& options) {
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
  if (options.max_shards != 0 && options.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "run_streaming_fleet: max_shards needs a checkpoint_path; without "
        "one every sliced call would discard its work");
  }
  const pipeline::FleetInputs in =
      pipeline::build_inputs(scenario, spec, config.deployment);
  const pipeline::Partition part = pipeline::partition(spec.nodes, config);
  const core::ThreadPool pool{part.threads};
  const std::size_t batch_shards =
      options.batch_shards == 0 ? pool.threads() : options.batch_shards;

  Accumulator acc;
  std::uint64_t done = 0;
  if (!options.checkpoint_path.empty()) {
    (void)read_checkpoint(options.checkpoint_path, config, spec.nodes,
                          part.shards, done, acc);
  }

  std::size_t processed = 0;
  while (done < part.shards) {
    if (options.max_shards != 0 && processed >= options.max_shards) {
      return std::nullopt;  // time slice exhausted; checkpoint holds state
    }
    std::size_t batch = std::min<std::size_t>(batch_shards, part.shards - done);
    if (options.max_shards != 0) {
      batch = std::min(batch, options.max_shards - processed);
    }
    std::vector<pipeline::ShardResult> results(batch);
    pool.parallel_for(batch, [&](std::size_t b) {
      const std::size_t s = static_cast<std::size_t>(done) + b;
      results[b] = pipeline::run_shard(in, part.begin(s), part.begin(s + 1),
                                       nullptr, /*routed=*/false);
    });
    // Fold on this thread, in shard order — node order overall, so the
    // accumulator state is independent of the thread count.
    for (const pipeline::ShardResult& r : results) acc.add(r);
    done += batch;
    processed += batch;
    if (!options.checkpoint_path.empty()) {
      write_checkpoint(options.checkpoint_path, config, spec.nodes,
                       part.shards, done, acc);
    }
  }
  if (!options.checkpoint_path.empty()) {
    // Completed: retire both generations, or a stale .prev could
    // resurrect this run's partial state into a future one.
    (void)std::remove(options.checkpoint_path.c_str());
    (void)std::remove((options.checkpoint_path + ".prev").c_str());
  }
  FleetSummary summary;
  summary.nodes = spec.nodes;
  summary.epochs = config.deployment.epochs;
  summary.shards = part.shards;
  summary.contacts_probed = acc.contacts_probed;
  summary.events_executed = acc.events;
  acc.fold.write(summary);
  if (acc.fold.zeta.count() > 0) {
    summary.zeta_p50_s = acc.sketch.quantile(0.50);
    summary.zeta_p90_s = acc.sketch.quantile(0.90);
    summary.zeta_p99_s = acc.sketch.quantile(0.99);
  }
  return summary;
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
