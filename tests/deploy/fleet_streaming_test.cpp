#include "snipr/deploy/fleet_streaming.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "snipr/core/json_writer.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/deploy/fleet_engine.hpp"

namespace snipr::deploy {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small road fleet from the catalog: real scenario, real schedulers,
/// few enough node-epochs that every test replays it several times.
const core::CatalogEntry& fleet_entry() {
  for (const auto& entry : core::ScenarioCatalog::instance().entries()) {
    if (entry.is_fleet() && entry.fleet->road_workload() != nullptr) {
      return entry;
    }
  }
  throw std::logic_error("no road fleet entry in the catalog");
}

struct FleetCase {
  core::RoadsideScenario scenario;
  FleetSpec spec;
  FleetConfig config;
};

FleetCase small_fleet(std::size_t nodes = 24, std::size_t shards = 0) {
  const core::CatalogEntry& entry = fleet_entry();
  FleetCase s{entry.scenario, *entry.fleet, {}};
  s.spec.nodes = nodes;
  s.spec.routing.reset();
  s.config.deployment = make_fleet_deployment_config(
      entry.scenario, s.spec, entry.phi_max_s, /*epochs=*/2, /*seed=*/7);
  s.config.shards = shards;
  return s;
}

std::vector<std::string> fleet_entry_names() {
  std::vector<std::string> names;
  for (const auto& entry : core::ScenarioCatalog::instance().entries()) {
    if (entry.is_fleet()) names.push_back(entry.name);
  }
  return names;
}

/// Every fleet catalog entry x shard count, at 2 epochs and seed 7.
class FleetStreamingCrossPath
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
};

TEST_P(FleetStreamingCrossPath, MatchesMaterialisingEngineBitForBit) {
  // Either the streaming path folds exactly the values FleetEngine::run
  // folds (per-node means in node order), so every aggregate it shares
  // with DeploymentOutcome matches to the last bit, or it refuses the
  // spec with a reason that names what it cannot run.
  const auto& [name, shards] = GetParam();
  const core::CatalogEntry& entry = core::ScenarioCatalog::instance().at(name);
  const FleetSpec& spec = *entry.fleet;
  FleetConfig config;
  config.deployment = make_fleet_deployment_config(
      entry.scenario, spec, entry.phi_max_s, /*epochs=*/2, /*seed=*/7);
  config.shards = shards;

  const bool faulted = spec.faults != nullptr && spec.faults->enabled();
  if (spec.routing.has_value() || faulted) {
    const char* reason = spec.routing.has_value() ? "routing" : "fault plan";
    try {
      (void)run_streaming_fleet(entry.scenario, spec, config);
      FAIL() << name << " must not stream";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string{err.what()}.find(reason), std::string::npos)
          << err.what();
    }
    return;
  }

  const DeploymentOutcome reference =
      FleetEngine{}.run(entry.scenario, spec, config);
  const auto summary = run_streaming_fleet(entry.scenario, spec, config);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->nodes, reference.nodes.size());
  EXPECT_EQ(summary->epochs, 2u);
  EXPECT_EQ(summary->total_zeta_s, reference.total_zeta_s);
  EXPECT_EQ(summary->total_phi_s, reference.total_phi_s);
  EXPECT_EQ(summary->total_bytes, reference.total_bytes);
  EXPECT_EQ(summary->mean_zeta_s, reference.mean_zeta_s);
  EXPECT_EQ(summary->zeta_variance, reference.zeta_variance);
  EXPECT_EQ(summary->zeta_stddev_s, reference.zeta_stddev_s);
  EXPECT_EQ(summary->min_zeta_s, reference.min_zeta_s);
  EXPECT_EQ(summary->max_zeta_s, reference.max_zeta_s);
  EXPECT_EQ(summary->zeta_fairness, reference.zeta_fairness);
  // The sketch is lossy by design; its quantiles must still sit inside
  // the exact range (1% relative error on per-node means).
  EXPECT_GE(summary->zeta_p50_s, reference.min_zeta_s * 0.98);
  EXPECT_LE(summary->zeta_p99_s, reference.max_zeta_s * 1.02);
  EXPECT_GE(summary->zeta_p90_s, summary->zeta_p50_s);
  EXPECT_GE(summary->zeta_p99_s, summary->zeta_p90_s);
}

INSTANTIATE_TEST_SUITE_P(
    FleetStreaming, FleetStreamingCrossPath,
    ::testing::Combine(::testing::ValuesIn(fleet_entry_names()),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8})),
    [](const auto& info) {
      std::string label = std::get<0>(info.param) + "_shards" +
                          std::to_string(std::get<1>(info.param));
      for (char& c : label) {
        if (c == '-') c = '_';
      }
      return label;
    });

TEST(FleetStreaming, JsonIsShardAndBatchInvariant) {
  const FleetCase base = small_fleet();
  const auto one = run_streaming_fleet(base.scenario, base.spec,
                                       small_fleet(24, 1).config);
  const auto five = run_streaming_fleet(base.scenario, base.spec,
                                        small_fleet(24, 5).config);
  StreamingOptions tiny_batches;
  tiny_batches.batch_shards = 1;
  const auto batched = run_streaming_fleet(
      base.scenario, base.spec, small_fleet(24, 5).config, tiny_batches);
  ASSERT_TRUE(one && five && batched);
  const std::string json = to_json(*one);
  EXPECT_EQ(json, to_json(*five));
  EXPECT_EQ(json, to_json(*batched));
  EXPECT_EQ(core::json::extract_schema(json), "snipr.fleet_summary.v1");
}

TEST(FleetStreaming, CheckpointResumeIsBitIdentical) {
  const FleetCase s = small_fleet(24, 6);
  const auto reference = run_streaming_fleet(s.scenario, s.spec, s.config);
  ASSERT_TRUE(reference.has_value());

  const std::string path =
      ::testing::TempDir() + "/fleet_streaming_checkpoint";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  StreamingOptions slice;
  slice.checkpoint_path = path;
  slice.batch_shards = 1;
  slice.max_shards = 2;
  // Drive the run two shards at a time, dropping all in-memory state
  // between calls — exactly a kill/restart cycle.
  std::optional<FleetSummary> resumed;
  int calls = 0;
  while (!resumed.has_value()) {
    resumed = run_streaming_fleet(s.scenario, s.spec, s.config, slice);
    ASSERT_LT(++calls, 10) << "streaming run failed to converge";
  }
  EXPECT_GT(calls, 1) << "max_shards never sliced the run";
  EXPECT_EQ(to_json(*resumed), to_json(*reference));
  std::remove(path.c_str());
}

TEST(FleetStreaming, MismatchedCheckpointIsRejected) {
  const FleetCase s = small_fleet(24, 6);
  const std::string path =
      ::testing::TempDir() + "/fleet_streaming_checkpoint_mismatch";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  StreamingOptions slice;
  slice.checkpoint_path = path;
  slice.max_shards = 2;
  ASSERT_FALSE(
      run_streaming_fleet(s.scenario, s.spec, s.config, slice).has_value());
  // Same checkpoint, different seed: resuming would silently blend two
  // different runs, so it must throw instead.
  FleetCase other = small_fleet(24, 6);
  other.config.deployment.seed = 8;
  EXPECT_THROW(
      (void)run_streaming_fleet(other.scenario, other.spec, other.config,
                                slice),
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(FleetStreaming, TornCheckpointFallsBackToPreviousGeneration) {
  // A write torn mid-stream (power loss after the rename of the old
  // generation) must not poison the run: the CRC frame rejects the
  // truncated file and restore falls back to <path>.prev, redoing only
  // the shards since the previous generation — bit-identically.
  const FleetCase s = small_fleet(24, 6);
  const auto reference = run_streaming_fleet(s.scenario, s.spec, s.config);
  ASSERT_TRUE(reference.has_value());

  const std::string path = ::testing::TempDir() + "/fleet_streaming_torn";
  const std::string prev = path + ".prev";
  std::remove(path.c_str());
  std::remove(prev.c_str());
  StreamingOptions slice;
  slice.checkpoint_path = path;
  slice.batch_shards = 1;
  slice.max_shards = 3;
  ASSERT_FALSE(
      run_streaming_fleet(s.scenario, s.spec, s.config, slice).has_value());
  // Three single-shard batches wrote three generations: main holds
  // shards 1-3, .prev shards 1-2. Tear the newest one in half.
  const std::string intact = slurp(path);
  ASSERT_FALSE(intact.empty());
  ASSERT_FALSE(slurp(prev).empty());
  spill(path, intact.substr(0, intact.size() / 2));

  StreamingOptions resume;
  resume.checkpoint_path = path;
  const auto resumed =
      run_streaming_fleet(s.scenario, s.spec, s.config, resume);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(to_json(*resumed), to_json(*reference));
}

TEST(FleetStreaming, BitFlippedCheckpointFallsBackToPreviousGeneration) {
  const FleetCase s = small_fleet(24, 6);
  const auto reference = run_streaming_fleet(s.scenario, s.spec, s.config);
  ASSERT_TRUE(reference.has_value());

  const std::string path = ::testing::TempDir() + "/fleet_streaming_flip";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  StreamingOptions slice;
  slice.checkpoint_path = path;
  slice.batch_shards = 1;
  slice.max_shards = 3;
  ASSERT_FALSE(
      run_streaming_fleet(s.scenario, s.spec, s.config, slice).has_value());
  // Flip one bit in the middle of the body: the text still parses as a
  // plausible checkpoint, so only the CRC frame can catch it.
  std::string bytes = slurp(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 3] ^= 0x01;
  spill(path, bytes);

  StreamingOptions resume;
  resume.checkpoint_path = path;
  const auto resumed =
      run_streaming_fleet(s.scenario, s.spec, s.config, resume);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(to_json(*resumed), to_json(*reference));
}

TEST(FleetStreaming, DamageWithoutFallbackThrows) {
  // Damage with no intact generation anywhere must never degrade into a
  // silent from-scratch rerun — the caller has to see it.
  const FleetCase s = small_fleet(24, 6);
  const std::string path = ::testing::TempDir() + "/fleet_streaming_damaged";
  const std::string prev = path + ".prev";
  std::remove(prev.c_str());
  spill(path, "snipr-fleet-checkpoint-v2\nnot a real checkpoint\n");
  StreamingOptions opts;
  opts.checkpoint_path = path;
  EXPECT_THROW(
      (void)run_streaming_fleet(s.scenario, s.spec, s.config, opts),
      std::runtime_error);
  // A damaged .prev beside the damaged main is no better.
  spill(prev, "garbage");
  EXPECT_THROW(
      (void)run_streaming_fleet(s.scenario, s.spec, s.config, opts),
      std::runtime_error);
  std::remove(path.c_str());
  std::remove(prev.c_str());
}

TEST(FleetStreaming, CompletionRetiresBothCheckpointGenerations) {
  // After a run completes, neither generation may linger: a stale .prev
  // would resurrect this run's partial state into a future run.
  const FleetCase s = small_fleet(24, 6);
  const std::string path = ::testing::TempDir() + "/fleet_streaming_retire";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  StreamingOptions opts;
  opts.checkpoint_path = path;
  opts.batch_shards = 1;
  ASSERT_TRUE(
      run_streaming_fleet(s.scenario, s.spec, s.config, opts).has_value());
  EXPECT_TRUE(slurp(path).empty());
  EXPECT_TRUE(slurp(path + ".prev").empty());
}

TEST(FleetStreaming, RejectsRoutingAndEmptyFleets) {
  FleetCase s = small_fleet();
  s.spec.routing = RoutingSpec{};
  EXPECT_THROW((void)run_streaming_fleet(s.scenario, s.spec, s.config),
               std::invalid_argument);
  FleetCase empty = small_fleet();
  empty.spec.nodes = 0;
  EXPECT_THROW(
      (void)run_streaming_fleet(empty.scenario, empty.spec, empty.config),
      std::invalid_argument);

  // Time slices without a checkpoint would each return nullopt and keep
  // nothing: the run could never complete.
  const FleetCase sliced = small_fleet(24, 6);
  StreamingOptions no_checkpoint;
  no_checkpoint.max_shards = 2;
  try {
    (void)run_streaming_fleet(sliced.scenario, sliced.spec, sliced.config,
                              no_checkpoint);
    ADD_FAILURE() << "max_shards without a checkpoint accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string{err.what()}.find("checkpoint"), std::string::npos)
        << err.what();
  }

  // Road geometry goes through the same validation as FleetEngine::run.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [](FleetCase c, const char* reason) {
    try {
      (void)run_streaming_fleet(c.scenario, c.spec, c.config);
      ADD_FAILURE() << reason << " accepted";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string{err.what()}.find(reason), std::string::npos)
          << err.what();
    }
  };
  for (const double through : {-0.1, 1.5, nan}) {
    FleetCase c = small_fleet();
    std::get<RoadWorkload>(c.spec.workload).through_fraction = through;
    expect_rejected(c, "through_fraction");
  }
  for (const double spacing : {0.0, nan}) {
    FleetCase c = small_fleet();
    std::get<RoadWorkload>(c.spec.workload).spacing_m = spacing;
    expect_rejected(c, "spacing_m");
  }
  for (const double range : {-1.0, nan}) {
    FleetCase c = small_fleet();
    std::get<RoadWorkload>(c.spec.workload).range_m = range;
    expect_rejected(c, "range_m");
  }
  for (const double first : {-5.0, nan}) {
    FleetCase c = small_fleet();
    std::get<RoadWorkload>(c.spec.workload).first_position_m = first;
    expect_rejected(c, "first_position_m");
  }
}

TEST(FleetStreaming, RejectsFaultPlansWithANamedReason) {
  // Streaming has no per-node fault injectors: running a faulted spec
  // would report the fault-free fleet's numbers as the faulted one's.
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at("chaos-lossy-radio");
  ASSERT_TRUE(entry.is_fleet());
  FleetSpec spec = *entry.fleet;
  ASSERT_NE(spec.faults, nullptr);
  ASSERT_TRUE(spec.faults->enabled());
  spec.nodes = 8;
  FleetConfig config;
  config.deployment = make_fleet_deployment_config(
      entry.scenario, spec, entry.phi_max_s, /*epochs=*/1, /*seed=*/7);
  try {
    (void)run_streaming_fleet(entry.scenario, spec, config);
    FAIL() << "a faulted spec must not stream";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string{err.what()}.find("fault"), std::string::npos)
        << err.what();
  }
  // An all-zero fault spec is "no faults" and still streams.
  spec.faults = std::make_shared<const fault::FaultSpec>();
  EXPECT_TRUE(run_streaming_fleet(entry.scenario, spec, config).has_value());
}

}  // namespace
}  // namespace snipr::deploy
