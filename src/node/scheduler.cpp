#include "snipr/node/scheduler.hpp"

namespace snipr::node {

sim::TimePoint Scheduler::probe_run_end(const SensorContext& ctx,
                                       sim::Duration /*probe_cost*/) const {
  return ctx.now;
}

void Scheduler::on_probe_detected(sim::TimePoint /*when*/) {}

void Scheduler::on_contact_probed(const ProbedContactObservation& /*obs*/) {}

void Scheduler::on_epoch_start(std::int64_t /*epoch_index*/) {}

}  // namespace snipr::node
