#include "fleet_pipeline.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "snipr/contact/trace_replay.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/core/thread_pool.hpp"
#include "snipr/node/mobile_node.hpp"
#include "snipr/radio/channel.hpp"
#include "snipr/sim/simulator.hpp"
#include "snipr/trace/trace_catalog.hpp"

namespace snipr::deploy {

void finalize_outcome(DeploymentOutcome& outcome) {
  pipeline::FleetFold fold;
  for (const NodeOutcome& n : outcome.nodes) fold.add(n);
  fold.write(outcome);
}

namespace pipeline {
namespace {

/// Node channel streams: the first `nodes` forks of root(seed), taken
/// before any auxiliary stream, so node i's stream is a pure function of
/// (seed, i).
FleetInputs fork_node_streams(std::size_t nodes, SchedulerFactory factory,
                              const DeploymentConfig& config, sim::Rng& root) {
  FleetInputs in;
  in.deployment = config;
  in.make_scheduler = std::move(factory);
  in.node_rngs.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) in.node_rngs.push_back(root.fork());
  return in;
}

/// Schedules of nodes [begin, end). Carriers are kept for road workloads
/// (the collection pass needs them) and left empty otherwise.
RoadContactPlan shard_schedules(const FleetInputs& in, std::size_t begin,
                                std::size_t end) {
  if (in.road != nullptr) {
    const auto first = in.positions_m.begin();
    return build_road_contact_plan(
        std::vector<double>(first + static_cast<std::ptrdiff_t>(begin),
                            first + static_cast<std::ptrdiff_t>(end)),
        in.road->range_m, in.vehicles);
  }
  RoadContactPlan plan;
  plan.schedules.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    if (in.prebuilt != nullptr) {
      plan.schedules.push_back(std::move((*in.prebuilt)[i]));
      continue;
    }
    contact::TraceReplayConfig config;
    config.period = in.trace_period;
    config.offset = sim::Duration::seconds(in.trace->stagger_s *
                                           static_cast<double>(i));
    config.jitter_stddev_s = in.trace->jitter_stddev_s;
    contact::TraceReplayProcess process{in.trace_base, config};
    sim::Rng rng = in.trace_rngs[i];  // copy: the inputs stay re-runnable
    plan.schedules.emplace_back(
        contact::materialize(process, in.flow_horizon, rng));
  }
  return plan;
}

}  // namespace

FleetInputs build_inputs(std::vector<contact::ContactSchedule>& schedules,
                         SchedulerFactory make_scheduler,
                         const DeploymentConfig& config) {
  if (schedules.empty()) {
    throw std::invalid_argument("FleetEngine: no schedules");
  }
  if (!make_scheduler) {
    throw std::invalid_argument("FleetEngine: scheduler factory required");
  }
  sim::Rng root{config.seed};
  FleetInputs in = fork_node_streams(schedules.size(),
                                     std::move(make_scheduler), config, root);
  in.prebuilt = &schedules;
  return in;
}

FleetInputs build_inputs(const core::RoadsideScenario& scenario,
                         const FleetSpec& spec,
                         const DeploymentConfig& config) {
  if (spec.nodes == 0) {
    throw std::invalid_argument("fleet spec: needs at least one node");
  }
  if (spec.trace_workload() != nullptr && spec.routing.has_value()) {
    throw std::invalid_argument(
        "fleet spec: store-and-forward routing needs a road workload "
        "(a trace replay has no vehicle identity to ferry data with)");
  }
  if (const RoadWorkload* road = spec.road_workload()) {
    if (!(road->spacing_m > 0.0)) {
      throw std::invalid_argument("fleet spec: spacing_m must be > 0");
    }
    if (!(road->range_m > 0.0)) {
      throw std::invalid_argument("fleet spec: range_m must be > 0");
    }
    if (!(road->first_position_m >= 0.0)) {
      throw std::invalid_argument("fleet spec: first_position_m must be >= 0");
    }
    if (!(road->through_fraction >= 0.0 && road->through_fraction <= 1.0)) {
      throw std::invalid_argument(
          "fleet spec: through_fraction must be in [0, 1]");
    }
  }

  const double phi_max_s = config.node.budget_limit.to_seconds();
  sim::Rng root{config.seed};
  FleetInputs in = fork_node_streams(
      spec.nodes,
      [&scenario, &spec, phi_max_s](std::size_t) {
        return core::make_scheduler(scenario, spec.strategy,
                                    spec.zeta_target_s, phi_max_s,
                                    spec.exploration);
      },
      config, root);
  in.flow_horizon =
      spec.flow_profile.epoch() * static_cast<std::int64_t>(config.epochs);

  if (const TraceWorkload* trace = spec.trace_workload()) {
    // Node i replays the catalog trace phase-rotated by i * stagger,
    // jittered from its own stream; tiled at the trace's recorded epoch
    // (the flow profile's epoch governs the horizon and slot grids).
    const trace::TraceEntry& entry =
        trace::TraceCatalog::instance().at(trace->trace);
    in.trace = trace;
    in.trace_base = trace::TraceCatalog::load(entry, trace->data_dir);
    in.trace_period = entry.epoch;
    in.trace_rngs.reserve(spec.nodes);
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      in.trace_rngs.push_back(root.fork());
    }
    return in;
  }

  const RoadWorkload& road = *spec.road_workload();
  in.road = &road;
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
  in.vehicles = materialize_vehicles(flow, in.flow_horizon, root);
  in.positions_m.reserve(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    in.positions_m.push_back(road.first_position_m +
                             road.spacing_m * static_cast<double>(i));
  }
  // Early exits, drawn from the root *after* the flow so a pure
  // through-flow (through_fraction == 1, no draws) leaves every stream —
  // and therefore every existing golden — byte-identical.
  if (road.through_fraction < 1.0) {
    const double road_end = in.positions_m.back() + road.range_m;
    for (VehicleEntry& v : in.vehicles) {
      if (!root.bernoulli(road.through_fraction)) {
        v.exit_m = root.uniform(0.0, road_end);
      }
    }
  }
  return in;
}

Partition partition(std::size_t nodes, const FleetConfig& config) {
  Partition p;
  p.nodes = nodes;
  p.shards = config.shards;
  if (p.shards == 0) {
    // Default: one shard per worker for parallelism, but never fewer
    // than one per ~16 nodes — small per-shard event heaps pay even on a
    // single core (shorter sift paths, hotter cache: ~2.4x at 1024
    // nodes), and results never depend on the partition anyway.
    p.shards = std::max(core::ThreadPool::hardware_threads(), nodes / 16);
  }
  p.shards = std::min(p.shards, nodes);
  p.threads = std::min(config.threads == 0
                           ? core::ThreadPool::hardware_threads()
                           : config.threads,
                       p.shards);
  return p;
}

ShardResult run_shard(const FleetInputs& in, std::size_t begin,
                      std::size_t end, fault::FaultPlan* faults,
                      bool routed) {
  RoadContactPlan plan = shard_schedules(in, begin, end);
  const DeploymentConfig& config = in.deployment;
  sim::Simulator simulator{config.seed};

  // One struct-of-arrays hot-state block for the whole shard: every
  // node's per-wakeup counters sit in contiguous lanes instead of being
  // scattered across the node objects.
  const std::size_t count = end - begin;
  node::NodeBlock block{count};
  struct NodeWorld {
    std::unique_ptr<radio::Channel> channel;
    std::unique_ptr<node::MobileNode> sink;
    std::unique_ptr<node::Scheduler> scheduler;
    std::unique_ptr<node::SensorNode> sensor;
  };
  std::vector<NodeWorld> worlds;
  worlds.reserve(count);

  node::SensorNodeConfig node_config = config.node;
  node_config.expected_epochs = config.epochs;
  // Rows read the block's streaming totals, so the per-epoch vectors
  // would be dead weight; per-contact records are kept only for the
  // collection pass.
  node_config.record_epoch_history = false;
  node_config.record_probed_contacts = routed;

  for (std::size_t lane = 0; lane < count; ++lane) {
    const std::size_t i = begin + lane;
    NodeWorld w;
    w.channel = std::make_unique<radio::Channel>(
        std::move(plan.schedules[lane]), config.link, in.node_rngs[i]);
    w.sink = std::make_unique<node::MobileNode>();
    w.scheduler = in.make_scheduler(i);
    if (w.scheduler == nullptr) {
      throw std::invalid_argument("FleetEngine: factory returned null");
    }
    w.sensor = std::make_unique<node::SensorNode>(
        simulator, *w.channel, *w.sink, *w.scheduler, node_config, block,
        lane);
    if (faults != nullptr) {
      // Node i's injector was forked in node order before partitioning,
      // so its stream — and every fault decision — is independent of the
      // shard layout. Injectors are never shared across nodes, so shard
      // workers never race on one.
      w.sensor->attach_faults(&faults->node(i));
    }
    w.sensor->start();
    worlds.push_back(std::move(w));
  }

  ShardResult result;
  result.events = simulator.run_until(
      sim::TimePoint::zero() +
      config.node.epoch * static_cast<std::int64_t>(config.epochs));
  result.nodes.resize(count);
  for (std::size_t lane = 0; lane < count; ++lane) {
    const NodeWorld& w = worlds[lane];
    const std::vector<contact::Contact>& contacts =
        w.channel->schedule().contacts();
    // Rows read the block's streaming totals, not the per-epoch history:
    // the fold at each epoch boundary performed the identical double
    // additions in the identical order, so they are bit-equal to a
    // history-based summary.
    NodeOutcome& n = result.nodes[lane];
    n.node_index = begin + lane;
    n.scheduler_name = w.scheduler->name();
    n.epochs = block.epochs(lane);
    if (n.epochs > 0) {
      const auto epochs = static_cast<double>(n.epochs);
      n.mean_zeta_s = block.sum_zeta_s(lane) / epochs;
      n.mean_phi_s = block.sum_phi_s(lane) / epochs;
      n.mean_bytes_uploaded = block.sum_bytes(lane) / epochs;
      n.mean_contacts_probed = block.sum_contacts(lane) / epochs;
    }
    if (!contacts.empty()) {
      n.miss_ratio = 1.0 - static_cast<double>(block.probed_sessions(lane)) /
                               static_cast<double>(contacts.size());
    }
    n.mean_delivery_latency_s = w.sensor->buffer().mean_delivery_latency_s();
    result.probed_sessions += block.probed_sessions(lane);
    if (!routed) continue;
    // Map each probed contact back to its carrier through the shard's
    // own contact plan.
    for (const node::ProbedContactRecord& record :
         w.sensor->probed_contacts()) {
      const auto it = std::lower_bound(
          contacts.begin(), contacts.end(), record.contact.arrival,
          [](const contact::Contact& c, sim::TimePoint t) {
            return c.arrival < t;
          });
      if (it == contacts.end() || it->arrival != record.contact.arrival) {
        throw std::logic_error(
            "FleetEngine: probed contact missing from the contact plan");
      }
      CollectionSession session;
      session.node = static_cast<std::uint32_t>(begin + lane);
      session.vehicle =
          plan.carriers[lane][static_cast<std::size_t>(it - contacts.begin())];
      session.probe_time_s = record.probe_time.to_seconds();
      session.departure_s = record.contact.departure().to_seconds();
      result.sessions.push_back(session);
    }
  }
  return result;
}

}  // namespace pipeline
}  // namespace snipr::deploy
