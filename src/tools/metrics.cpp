#include "src/tools/metrics.h"

#include <algorithm>
#include <fstream>
#include <ostream>

namespace delirium::tools {

std::vector<RunStatField> run_stat_fields(const RunStats& s) {
  return {
      {"activations_created", s.activations_created},
      {"peak_live_activations", s.peak_live_activations},
      {"activations_pooled", s.activations_pooled},
      {"activations_allocated", s.activations_allocated},
      {"nodes_executed", s.nodes_executed},
      {"operator_invocations", s.operator_invocations},
      {"operator_ticks", static_cast<uint64_t>(s.operator_ticks)},
      {"cow_copies", s.cow_copies},
      {"cow_skipped", s.cow_skipped},
      {"remote_block_moves", s.remote_block_moves},
      {"remote_bytes_pulled", s.remote_bytes_pulled},
      {"sched_local_enqueues", s.sched_local_enqueues},
      {"sched_injected_enqueues", s.sched_injected_enqueues},
      {"sched_steals", s.sched_steals},
      {"sched_failed_steals", s.sched_failed_steals},
      {"sched_local_steals", s.sched_local_steals},
      {"sched_remote_steals", s.sched_remote_steals},
      {"sched_parks", s.sched_parks},
      {"sched_wakeups", s.sched_wakeups},
      {"sched_hint_promotions", s.sched_hint_promotions},
      {"sched_cost_promotions", s.sched_cost_promotions},
      {"faults_raised", s.faults_raised},
      {"faults_injected", s.faults_injected},
      {"retries", s.retries},
      {"retries_exhausted", s.retries_exhausted},
      {"items_purged", s.items_purged},
      {"watchdog_fires", s.watchdog_fires},
      {"instances_admitted", s.instances_admitted},
      {"instances_completed", s.instances_completed},
      {"instances_faulted", s.instances_faulted},
      {"instances_budget_killed", s.instances_budget_killed},
      {"instances_shed", s.instances_shed},
  };
}

const std::string* operator_name(const OperatorRegistry& registry, int32_t op) {
  if (op < 0 || static_cast<size_t>(op) >= registry.size()) return nullptr;
  return &registry.at(static_cast<size_t>(op)).info.name;
}

void add_named(std::map<std::string, LogHistogram>& by_name,
               const std::vector<LogHistogram>& by_op, const OperatorRegistry& registry) {
  for (size_t op = 0; op < by_op.size(); ++op) {
    const std::string* name = operator_name(registry, static_cast<int32_t>(op));
    if (name != nullptr && by_op[op].count() > 0) by_name[*name].merge(by_op[op]);
  }
}

void MetricsRegistry::observe_run(const RunStats& stats,
                                  const std::vector<TraceEvent>& events,
                                  const OperatorRegistry& registry,
                                  const std::vector<LogHistogram>& overwritten) {
  ++runs_;
  totals_.activations_created += stats.activations_created;
  totals_.peak_live_activations =
      std::max(totals_.peak_live_activations, stats.peak_live_activations);
  totals_.activations_pooled += stats.activations_pooled;
  totals_.activations_allocated += stats.activations_allocated;
  totals_.nodes_executed += stats.nodes_executed;
  totals_.operator_invocations += stats.operator_invocations;
  totals_.operator_ticks += stats.operator_ticks;
  totals_.cow_copies += stats.cow_copies;
  totals_.cow_skipped += stats.cow_skipped;
  totals_.remote_block_moves += stats.remote_block_moves;
  totals_.remote_bytes_pulled += stats.remote_bytes_pulled;
  totals_.sched_local_enqueues += stats.sched_local_enqueues;
  totals_.sched_injected_enqueues += stats.sched_injected_enqueues;
  totals_.sched_steals += stats.sched_steals;
  totals_.sched_failed_steals += stats.sched_failed_steals;
  totals_.sched_local_steals += stats.sched_local_steals;
  totals_.sched_remote_steals += stats.sched_remote_steals;
  totals_.sched_parks += stats.sched_parks;
  totals_.sched_wakeups += stats.sched_wakeups;
  totals_.sched_hint_promotions += stats.sched_hint_promotions;
  totals_.sched_cost_promotions += stats.sched_cost_promotions;
  totals_.faults_raised += stats.faults_raised;
  totals_.faults_injected += stats.faults_injected;
  totals_.retries += stats.retries;
  totals_.retries_exhausted += stats.retries_exhausted;
  totals_.items_purged += stats.items_purged;
  totals_.watchdog_fires += stats.watchdog_fires;
  totals_.instances_admitted += stats.instances_admitted;
  totals_.instances_completed += stats.instances_completed;
  totals_.instances_faulted += stats.instances_faulted;
  totals_.instances_budget_killed += stats.instances_budget_killed;
  totals_.instances_shed += stats.instances_shed;
  add_named(per_op_, op_histograms(events), registry);
  add_named(per_op_, overwritten, registry);
}

void MetricsRegistry::observe_instances(const InstanceCounters& counters,
                                        const std::vector<int64_t>& latencies_ns) {
  instances_observed_ = true;
  instance_totals_.admitted += counters.admitted;
  instance_totals_.completed += counters.completed;
  instance_totals_.faulted += counters.faulted;
  instance_totals_.budget_killed += counters.budget_killed;
  instance_totals_.shed += counters.shed;
  instance_totals_.live = counters.live;
  for (const int64_t lat : latencies_ns) instance_latency_.observe(lat);
}

namespace {

void write_json_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

void MetricsRegistry::to_json(std::ostream& os) const {
  os << "{\n  \"runs\": " << runs_ << ",\n  \"stats\": {\n";
  const std::vector<RunStatField> fields = run_stat_fields(totals_);
  for (size_t i = 0; i < fields.size(); ++i) {
    os << "    \"" << fields[i].name << "\": " << fields[i].value;
    os << (i + 1 < fields.size() ? ",\n" : "\n");
  }
  os << "  },\n  \"operators\": {\n";
  size_t i = 0;
  for (const auto& [op, h] : per_op_) {
    os << "    \"";
    write_json_escaped(os, op);
    os << "\": {\"count\": " << h.count() << ", \"total_ns\": " << h.total()
       << ", \"min_ns\": " << h.min() << ", \"max_ns\": " << h.max()
       << ", \"p50_ns\": " << h.percentile(0.5) << ", \"p99_ns\": " << h.percentile(0.99)
       << "}";
    os << (++i < per_op_.size() ? ",\n" : "\n");
  }
  // The instance section is present only for multi-instance sessions so
  // single-run exports (and their golden files) are unchanged.
  if (!instances_observed_) {
    os << "  }\n}\n";
    return;
  }
  const LogHistogram& h = instance_latency_;
  os << "  },\n  \"instances\": {\n"
     << "    \"admitted\": " << instance_totals_.admitted << ",\n"
     << "    \"completed\": " << instance_totals_.completed << ",\n"
     << "    \"faulted\": " << instance_totals_.faulted << ",\n"
     << "    \"budget_killed\": " << instance_totals_.budget_killed << ",\n"
     << "    \"shed\": " << instance_totals_.shed << ",\n"
     << "    \"live\": " << instance_totals_.live << ",\n"
     << "    \"latency_ns\": {\"count\": " << h.count() << ", \"total_ns\": " << h.total()
     << ", \"min_ns\": " << h.min() << ", \"max_ns\": " << h.max()
     << ", \"p50_ns\": " << h.percentile(0.5) << ", \"p99_ns\": " << h.percentile(0.99)
     << "}\n  }\n}\n";
}

void MetricsRegistry::to_prometheus(std::ostream& os) const {
  os << "# HELP delirium_runs_total Runs observed by this registry.\n"
     << "# TYPE delirium_runs_total counter\n"
     << "delirium_runs_total " << runs_ << "\n";
  for (const RunStatField& f : run_stat_fields(totals_)) {
    os << "# TYPE delirium_" << f.name << " counter\n"
       << "delirium_" << f.name << " " << f.value << "\n";
  }
  if (!per_op_.empty()) {
    os << "# HELP delirium_operator_duration_ns Operator execution time (log2-bucket "
          "percentile estimates).\n"
       << "# TYPE delirium_operator_duration_ns summary\n";
    for (const auto& [op, h] : per_op_) {
      os << "delirium_operator_duration_ns{operator=\"" << op << "\",quantile=\"0.5\"} "
         << h.percentile(0.5) << "\n"
         << "delirium_operator_duration_ns{operator=\"" << op << "\",quantile=\"0.99\"} "
         << h.percentile(0.99) << "\n"
         << "delirium_operator_duration_ns_sum{operator=\"" << op << "\"} " << h.total()
         << "\n"
         << "delirium_operator_duration_ns_count{operator=\"" << op << "\"} " << h.count()
         << "\n";
    }
  }
  if (instances_observed_) {
    os << "# HELP delirium_instances_live Instances admitted and not yet finalized.\n"
       << "# TYPE delirium_instances_live gauge\n"
       << "delirium_instances_live " << instance_totals_.live << "\n"
       << "# HELP delirium_instance_latency_ns Submit-to-finalize instance latency "
          "(log2-bucket percentile estimates).\n"
       << "# TYPE delirium_instance_latency_ns summary\n"
       << "delirium_instance_latency_ns{quantile=\"0.5\"} "
       << instance_latency_.percentile(0.5) << "\n"
       << "delirium_instance_latency_ns{quantile=\"0.99\"} "
       << instance_latency_.percentile(0.99) << "\n"
       << "delirium_instance_latency_ns_sum " << instance_latency_.total() << "\n"
       << "delirium_instance_latency_ns_count " << instance_latency_.count() << "\n";
  }
}

bool MetricsRegistry::write_file(const std::string& path, const std::string& format) const {
  std::ofstream out(path);
  if (!out) return false;
  if (format == "json") {
    to_json(out);
  } else if (format == "prom") {
    to_prometheus(out);
  } else {
    return false;
  }
  return out.good();
}

}  // namespace delirium::tools
