#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "layer_trace.hpp"
#include "snipr/core/json_writer.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/deploy/collection.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/deploy/fleet_streaming.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/fault/fault_plan.hpp"

namespace perfbench {
namespace {

namespace core = snipr::core;
namespace deploy = snipr::deploy;
namespace sim = snipr::sim;

// Horizons and scales. Each keeps one 1-thread entry-point run near a
// second, so a measured run holds several samples of every metric.
// `fleet-highway-1k` keeps its 1024 nodes; only its epochs shrink.
constexpr std::size_t kHighwayEpochs = 2;
constexpr std::size_t kUrbanEpochs = 14;
constexpr std::size_t kRelayNodes = 384;
constexpr std::size_t kRelayEpochs = 14;
constexpr std::size_t kGridEpochs = 14;
constexpr std::size_t kGridSeeds = 8;

const core::CatalogEntry& catalog(std::string_view name) {
  return core::ScenarioCatalog::instance().at(name);
}

/// Catalog fault plan with its stream root moved by the workload seed
/// (seed 1 keeps the catalog's own plan).
std::shared_ptr<const snipr::fault::FaultSpec> reseeded(
    const snipr::fault::FaultSpec& spec, std::uint64_t seed) {
  auto out = std::make_shared<snipr::fault::FaultSpec>(spec);
  out->seed += seed - 1;
  return out;
}

deploy::FleetConfig fleet_config(const Workload& w, std::size_t threads) {
  deploy::FleetConfig config;
  config.deployment = deploy::make_fleet_deployment_config(
      w.entry->scenario, w.spec, w.entry->phi_max_s, w.epochs, w.seed);
  config.threads = threads;
  return config;
}

/// The inputs FleetEngine::run(scenario, spec, config) builds for a road
/// workload, through the same public builders and RNG draw order.
struct FleetInputs {
  std::vector<deploy::VehicleEntry> vehicles;
  std::vector<double> positions_m;
  std::vector<snipr::contact::ContactSchedule> schedules;
  std::vector<std::vector<std::uint32_t>> carriers;  // routing only
};

FleetInputs build_fleet_inputs(const Workload& w,
                               const deploy::FleetConfig& config) {
  const deploy::FleetSpec& spec = w.spec;
  const deploy::RoadWorkload& road = *spec.road_workload();
  sim::Rng root{config.deployment.seed};
  for (std::size_t i = 0; i < spec.nodes; ++i) (void)root.fork();
  const sim::Duration horizon =
      spec.flow_profile.epoch() *
      static_cast<std::int64_t>(config.deployment.epochs);

  deploy::VehicleFlow flow;
  flow.profile = spec.flow_profile;
  flow.jitter = road.jitter;
  if (road.speed_stddev_mps > 0.0) {
    flow.speed_mps = std::make_unique<sim::TruncatedNormalDistribution>(
        road.speed_mean_mps, road.speed_stddev_mps, road.speed_min_mps);
  } else {
    flow.speed_mps =
        std::make_unique<sim::FixedDistribution>(road.speed_mean_mps);
  }
  FleetInputs in;
  in.vehicles = deploy::materialize_vehicles(flow, horizon, root);
  in.positions_m.reserve(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    in.positions_m.push_back(road.first_position_m +
                             road.spacing_m * static_cast<double>(i));
  }
  if (road.through_fraction < 1.0) {
    const double road_end = in.positions_m.back() + road.range_m;
    for (deploy::VehicleEntry& v : in.vehicles) {
      if (!root.bernoulli(road.through_fraction)) {
        v.exit_m = root.uniform(0.0, road_end);
      }
    }
  }
  if (spec.routing.has_value()) {
    deploy::RoadContactPlan plan = deploy::build_road_contact_plan(
        in.positions_m, road.range_m, in.vehicles);
    in.schedules = std::move(plan.schedules);
    in.carriers = std::move(plan.carriers);
  } else {
    in.schedules =
        deploy::build_road_schedules(in.positions_m, road.range_m, in.vehicles);
  }
  return in;
}

/// One scheduler per node (fleet) or per run (grid), each wrapped in a
/// CountingScheduler over its own slot when `counters` is non-null.
std::vector<std::unique_ptr<snipr::node::Scheduler>> build_schedulers(
    const Workload& w, const deploy::FleetConfig* config,
    std::vector<SchedulerCounters>* counters) {
  std::vector<std::unique_ptr<snipr::node::Scheduler>> out;
  const std::size_t n = w.is_grid ? w.runs.size() : w.spec.nodes;
  out.reserve(n);
  if (counters != nullptr) counters->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::unique_ptr<snipr::node::Scheduler> s;
    if (w.is_grid) {
      const core::BatchRun& run = w.runs[i];
      s = core::make_scheduler(run.scenario, run.strategy, run.zeta_target_s,
                               run.phi_max_s);
    } else {
      s = core::make_scheduler(
          w.entry->scenario, w.spec.strategy, w.spec.zeta_target_s,
          config->deployment.node.budget_limit.to_seconds(),
          w.spec.exploration);
    }
    if (counters != nullptr) {
      s = std::make_unique<CountingScheduler>(std::move(s), (*counters)[i]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Aggregate fields shared by DeploymentOutcome and FleetSummary, in one
/// byte format, so the engine and the streaming path compare exactly.
template <class Aggregates>
std::string aggregate_bytes(std::uint64_t nodes, const Aggregates& a) {
  std::string out;
  core::json::append_uint_field(out, "nodes", nodes);
  core::json::append_field(out, "total_zeta_s", a.total_zeta_s);
  core::json::append_field(out, "total_phi_s", a.total_phi_s);
  core::json::append_field(out, "total_bytes", a.total_bytes);
  core::json::append_field(out, "mean_zeta_s", a.mean_zeta_s);
  core::json::append_field(out, "zeta_variance", a.zeta_variance);
  core::json::append_field(out, "zeta_stddev_s", a.zeta_stddev_s);
  core::json::append_field(out, "min_zeta_s", a.min_zeta_s);
  core::json::append_field(out, "max_zeta_s", a.max_zeta_s);
  core::json::append_field(out, "zeta_fairness", a.zeta_fairness,
                           /*comma=*/false);
  return out;
}

/// Rebuild the store-and-forward sessions from the counted schedulers'
/// probed-session log and run the collection pass, as the entry point
/// does with its private probed-contact export.
void collect(const Workload& w, const deploy::FleetConfig& config,
             FleetInputs& in,
             const std::vector<snipr::contact::ContactSchedule>& schedules,
             const std::vector<SchedulerCounters>& counters,
             deploy::DeploymentOutcome& outcome) {
  const deploy::FleetSpec& spec = w.spec;
  deploy::CollectionInput input;
  input.routing = *spec.routing;
  input.sensing_rate_bps = config.deployment.node.sensing_rate_bps;
  input.data_rate_bps = config.deployment.link.data_rate_bps;
  input.range_m = spec.road_workload()->range_m;
  input.horizon_s = (spec.flow_profile.epoch() *
                     static_cast<std::int64_t>(config.deployment.epochs))
                        .to_seconds();
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    const auto& contacts = schedules[i].contacts();
    for (const auto& [wakeup, probe_time] : counters[i].sessions) {
      // The contact the probing wakeup found: the last arrival <= wakeup.
      const auto it = std::upper_bound(
          contacts.begin(), contacts.end(), wakeup,
          [](sim::TimePoint t, const snipr::contact::Contact& c) {
            return t < c.arrival;
          });
      if (it == contacts.begin() || !std::prev(it)->covers(wakeup)) {
        throw std::logic_error("probed session without a covering contact");
      }
      const auto idx = static_cast<std::size_t>(it - contacts.begin()) - 1;
      deploy::CollectionSession session;
      session.node = static_cast<std::uint32_t>(i);
      session.vehicle = in.carriers[i][idx];
      session.probe_time_s = probe_time.to_seconds();
      session.departure_s = contacts[idx].departure().to_seconds();
      input.sessions.push_back(session);
    }
  }
  input.positions_m = std::move(in.positions_m);
  input.vehicles = std::move(in.vehicles);

  const snipr::fault::FaultSpec* faults = spec.faults.get();
  std::unique_ptr<snipr::fault::FaultPlan> plan;
  std::unique_ptr<snipr::fault::CollectionFaultState> collection_faults;
  if (faults != nullptr && faults->enabled() &&
      faults->collection.enabled()) {
    plan = std::make_unique<snipr::fault::FaultPlan>(*faults, spec.nodes);
    collection_faults = std::make_unique<snipr::fault::CollectionFaultState>(
        faults->collection, plan->collection_stream(),
        config.deployment.link.data_rate_bps);
    input.faults = collection_faults.get();
  }
  outcome.network = deploy::run_collection(input);
  if (outcome.resilience.has_value()) {
    if (collection_faults != nullptr) {
      outcome.resilience->collection = collection_faults->counters();
    }
    outcome.resilience->delivery_ratio_under_loss =
        outcome.network->delivery_ratio;
  }
}

SchedulerCounters total(const std::vector<SchedulerCounters>& counters) {
  SchedulerCounters t;
  for (const SchedulerCounters& c : counters) {
    t.wakeups += c.wakeups;
    t.probes += c.probes;
    t.detections += c.detections;
    t.completions += c.completions;
    t.epoch_starts += c.epoch_starts;
    t.resets += c.resets;
    t.restores += c.restores;
    t.checkpoints += c.checkpoints;
    t.decide_samples += c.decide_samples;
    t.decide_ns += c.decide_ns;
    t.epoch_start_ns += c.epoch_start_ns;
  }
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"highway-rh", "urban-chaos",
                                              "relay-collect", "paper-grid"};
  return names;
}

Workload make_workload(std::string_view name, std::uint64_t seed,
                       std::size_t epochs) {
  Workload w;
  w.name = std::string{name};
  w.seed = seed;
  if (name == "highway-rh") {
    w.entry = &catalog("fleet-highway-1k");
    w.spec = *w.entry->fleet;
    w.epochs = kHighwayEpochs;
  } else if (name == "urban-chaos") {
    w.entry = &catalog("chaos-crash-amnesia");
    w.spec = *w.entry->fleet;
    w.spec.nodes = catalog("fleet-urban-grid").fleet->nodes;
    w.spec.faults = reseeded(*w.spec.faults, seed);
    w.epochs = kUrbanEpochs;
  } else if (name == "relay-collect") {
    w.entry = &catalog("chaos-lossy-collection");
    w.spec = *w.entry->fleet;
    w.spec.nodes = kRelayNodes;
    w.spec.routing->sink_node = kRelayNodes - 1;
    w.spec.faults = reseeded(*w.spec.faults, seed);
    w.epochs = kRelayEpochs;
  } else if (name == "paper-grid") {
    w.entry = &catalog("roadside");
    w.is_grid = true;
    w.epochs = kGridEpochs;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string{name} +
                                "'");
  }
  if (epochs != 0) w.epochs = epochs;
  if (w.is_grid) {
    w.sweep.label = w.entry->name;
    w.sweep.scenario = w.entry->scenario;
    const auto strategies = core::all_strategies();
    w.sweep.strategies.assign(strategies.begin(), strategies.end());
    w.sweep.zeta_targets_s = {16.0, 24.0, 32.0, 40.0, 48.0, 56.0};
    w.sweep.phi_maxes_s = {w.entry->phi_max_s};
    w.sweep.seeds.clear();
    for (std::uint64_t s = 0; s < kGridSeeds; ++s) {
      w.sweep.seeds.push_back((seed - 1) * kGridSeeds + s + 1);
    }
    w.sweep.epochs = w.epochs;
    w.runs = core::expand_sweep(w.sweep);
  }
  return w;
}

Workload checkpoint_variant(const Workload& w) {
  if (w.spec.faults == nullptr) {
    throw std::invalid_argument("checkpoint variant needs a fault plan");
  }
  Workload v = w;
  v.name = w.name + "+checkpoint";
  v.spec.nodes = w.entry->fleet->nodes;
  auto faults = std::make_shared<snipr::fault::FaultSpec>(*w.spec.faults);
  faults->node.restore_from_checkpoint = true;
  faults->radio.spurious_detect_prob =
      catalog("chaos-lossy-radio").fleet->faults->radio.spurious_detect_prob;
  v.spec.faults = std::move(faults);
  return v;
}

void build_inputs(const Workload& w) {
  if (w.is_grid) {
    // What BatchRunner::run builds before it simulates: one contact
    // schedule per distinct seed (from the same fresh Rng{seed}) and one
    // scheduler per run, incl. SNIP-AT/OPT planning.
    const std::vector<core::BatchRun> runs = core::expand_sweep(w.sweep);
    std::vector<std::uint64_t> seeds;
    std::size_t contacts = 0;
    for (const core::BatchRun& run : runs) {
      if (std::find(seeds.begin(), seeds.end(), run.seed) != seeds.end()) {
        continue;
      }
      seeds.push_back(run.seed);
      sim::Rng rng{run.seed};
      contacts += run.scenario.make_schedule(run.epochs, run.jitter, rng).size();
    }
    const auto schedulers = build_schedulers(w, nullptr, nullptr);
    if (runs.size() != schedulers.size() || contacts == 0) {
      throw std::logic_error("grid inputs came out empty or resized");
    }
    return;
  }
  const deploy::FleetConfig config = fleet_config(w, 1);
  const FleetInputs in = build_fleet_inputs(w, config);
  const auto schedulers = build_schedulers(w, &config, nullptr);
  if (in.schedules.size() != schedulers.size()) {
    throw std::logic_error("one schedule per scheduler expected");
  }
}

std::string run_entry_point(const Workload& w, std::size_t threads) {
  if (w.is_grid) {
    const core::BatchRunner runner{core::BatchRunner::Config{threads}};
    return core::BatchRunner::to_json(runner.run(w.runs));
  }
  const deploy::DeploymentOutcome outcome = deploy::FleetEngine{}.run(
      w.entry->scenario, w.spec, fleet_config(w, threads));
  return deploy::FleetEngine::to_json(outcome);
}

TracedRun run_traced(const Workload& w, std::size_t threads,
                     double timer_ns) {
  TracedRun out;
  std::vector<SchedulerCounters> counters;
  double contact_build_s = 0.0;
  double sweep_build_s = 0.0;
  double sched_build_s = 0.0;
  double simulate_s = 0.0;
  double batch_s = 0.0;
  double collect_s = 0.0;
  double json_s = 0.0;
  double vehicles = 0.0;
  double contacts = 0.0;
  double schedule_builds = 0.0;
  deploy::DeploymentOutcome outcome;
  const Clock::time_point start = Clock::now();

  if (w.is_grid) {
    Clock::time_point t = Clock::now();
    std::vector<core::BatchRun> runs = core::expand_sweep(w.sweep);
    sweep_build_s = seconds_since(t);

    t = Clock::now();
    auto schedulers = build_schedulers(w, nullptr, &counters);
    sched_build_s = seconds_since(t);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      runs[i].scheduler_factory = [&schedulers, i] {
        return std::move(schedulers[i]);
      };
    }

    const std::uint64_t builds_before = core::BatchRunner::schedule_builds();
    t = Clock::now();
    const core::BatchRunner runner{core::BatchRunner::Config{threads}};
    const auto results = runner.run(runs);
    batch_s = seconds_since(t);
    schedule_builds = static_cast<double>(core::BatchRunner::schedule_builds() -
                                          builds_before);

    t = Clock::now();
    out.json = core::BatchRunner::to_json(results);
    json_s = seconds_since(t);
  } else {
    const deploy::FleetConfig config = fleet_config(w, threads);
    const bool routed = w.spec.routing.has_value();

    Clock::time_point t = Clock::now();
    FleetInputs in = build_fleet_inputs(w, config);
    contact_build_s = seconds_since(t);
    vehicles = static_cast<double>(in.vehicles.size());
    for (const auto& s : in.schedules) {
      contacts += static_cast<double>(s.size());
    }

    t = Clock::now();
    auto schedulers = build_schedulers(w, &config, &counters);
    sched_build_s = seconds_since(t);
    for (SchedulerCounters& c : counters) c.record_sessions = routed;

    // The engine takes the schedules by value; the collection pass needs
    // them afterwards to map each session to its carrier.
    std::vector<snipr::contact::ContactSchedule> kept;
    if (routed) {
      t = Clock::now();
      kept = in.schedules;
      collect_s += seconds_since(t);
    }

    const deploy::SchedulerFactory factory = [&schedulers](std::size_t i) {
      return std::move(schedulers[i]);
    };
    t = Clock::now();
    outcome = deploy::FleetEngine{}.run(std::move(in.schedules), factory,
                                        config, w.spec.faults.get());
    simulate_s = seconds_since(t);

    if (routed) {
      t = Clock::now();
      collect(w, config, in, kept, counters, outcome);
      collect_s += seconds_since(t);
    }

    t = Clock::now();
    out.json = deploy::FleetEngine::to_json(outcome);
    json_s = seconds_since(t);
    out.aggregates = aggregate_bytes(outcome.nodes.size(), outcome);
  }
  out.wall_s = seconds_since(start);

  const SchedulerCounters c = total(counters);
  const double wakeups = static_cast<double>(c.wakeups);
  const double probes = static_cast<double>(c.probes);
  const double decide_ns =
      std::max(0.0, ratio(static_cast<double>(c.decide_ns),
                          static_cast<double>(c.decide_samples)) -
                        timer_ns);
  const double epoch_start_s = std::max(
      0.0, (static_cast<double>(c.epoch_start_ns) -
            timer_ns * static_cast<double>(c.epoch_starts)) *
               1e-9);
  const double work_s = w.is_grid ? batch_s : simulate_s;

  snipr::fault::NodeResilience probing;
  snipr::fault::CollectionResilience handoffs;
  if (outcome.resilience.has_value()) {
    probing = outcome.resilience->probing;
    handoffs = outcome.resilience->collection;
  }
  double pickups = 0.0;
  double deliveries = 0.0;
  double delivery_ratio = 0.0;
  if (outcome.network.has_value()) {
    pickups = static_cast<double>(outcome.network->pickups);
    deliveries = static_cast<double>(outcome.network->deliveries);
    delivery_ratio = outcome.network->delivery_ratio;
  }
  const double batch_runs = w.is_grid ? static_cast<double>(w.runs.size())
                                      : 0.0;

  out.phases = {
      {"contact.build_s", contact_build_s},
      {"core.sweep_build_s", sweep_build_s},
      {"core.sched_build_s", sched_build_s},
      {"deploy.simulate_s", simulate_s},
      {"core.batch_s", batch_s},
      {"deploy.collect_s", collect_s},
      {"deploy.json_s", json_s},
  };
  out.timings = {
      {"deploy.ns_per_wakeup", ratio(work_s * 1e9, wakeups)},
      {"core.decide_ns", decide_ns},
      {"core.epoch_start_s", epoch_start_s},
  };
  out.counters = {
      {"contact.vehicles", vehicles},
      {"contact.contacts", contacts},
      {"core.wakeups", wakeups},
      {"core.probes", probes},
      {"core.detections", static_cast<double>(c.detections)},
      {"core.detect_per_probe",
       ratio(static_cast<double>(c.detections), probes)},
      {"core.decide_samples", static_cast<double>(c.decide_samples)},
      {"core.epoch_starts", static_cast<double>(c.epoch_starts)},
      {"core.resets", static_cast<double>(c.resets)},
      {"core.restores", static_cast<double>(c.restores)},
      {"core.checkpoints", static_cast<double>(c.checkpoints)},
      {"fault.crashes", static_cast<double>(probing.crashes)},
      {"fault.detections_lost", static_cast<double>(probing.detections_lost)},
      {"fault.spurious_detections",
       static_cast<double>(probing.spurious_detections)},
      {"fault.reconvergence_epochs",
       static_cast<double>(probing.reconvergence_epochs)},
      {"deploy.sessions", static_cast<double>(c.completions)},
      {"deploy.pickups", pickups},
      {"deploy.deliveries", deliveries},
      {"deploy.delivery_ratio", delivery_ratio},
      {"fault.handoffs_retried",
       static_cast<double>(handoffs.handoffs_retried)},
      {"fault.handoffs_abandoned",
       static_cast<double>(handoffs.handoffs_abandoned)},
      {"core.batch_runs", batch_runs},
      {"core.schedule_builds", schedule_builds},
      {"core.runs_per_schedule_build", ratio(batch_runs, schedule_builds)},
  };
  return out;
}

StreamRun run_streaming(const Workload& w, std::size_t threads) {
  StreamRun out;
  const Clock::time_point start = Clock::now();
  const auto summary = deploy::run_streaming_fleet(w.entry->scenario, w.spec,
                                                   fleet_config(w, threads));
  out.wall_s = seconds_since(start);
  if (!summary.has_value()) {
    throw std::logic_error("streaming run stopped before completion");
  }
  out.aggregates = aggregate_bytes(summary->nodes, *summary);
  out.contacts_probed = summary->contacts_probed;
  return out;
}

}  // namespace perfbench
