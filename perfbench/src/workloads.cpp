#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/consistent_hash.h"
#include "core/assignment.h"
#include "core/controller.h"
#include "core/planners.h"
#include "engine/threaded_engine.h"
#include "net/net_engine.h"
#include "oracle.h"
#include "trace.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using skewless::Controller;
using skewless::NetEngine;
using skewless::ThreadedEngine;

constexpr std::uint64_t kRingSeed = 0x5eed;  // ConsistentHashRing default
constexpr double kSkew = 1.2;
constexpr int kFluctuateEvery = 3;
constexpr double kThetaMax = 0.08;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
std::vector<WorkloadSpec> make_workloads() {
  WorkloadSpec steady;
  steady.name = "zipf-steady";

  // Reference row, not a workload: zipf-shift-net's input on the threaded
  // engine. It left BENCHMARK.json so that the other two could run longer
  // within the benchmark's total time (README.md).
  WorkloadSpec shift = steady;
  shift.name = "zipf-shift";
  shift.fluctuation = 1.0;

  WorkloadSpec shift_net = shift;
  shift_net.name = "zipf-shift-net";
  shift_net.net = true;

  // Reference row, not a workload: zipf-steady on one hash-routed worker,
  // the single-threaded scaling baseline.
  WorkloadSpec single = steady;
  single.name = "ref-steady-1worker";
  single.hash_only = true;
  single.workers = 1;

  return {steady, shift, shift_net, single};
}

/// Everything one set-up builds. The probe outlives the engine (the
/// logic wrapper writes into it until the workers stop).
struct Rig {
  std::unique_ptr<SharedProbe> probe;
  PregeneratedSource* source = nullptr;
  TimedPlanner* planner = nullptr;  // owned by the controller
  std::unique_ptr<ThreadedEngine> threaded;
  std::unique_ptr<NetEngine> net;
  std::int64_t ctor_begin_us = 0;
  std::int64_t ctor_end_us = 0;
  /// Wall time of build_rig: the set-up.
  double setup_s = 0.0;

  [[nodiscard]] Controller* controller() {
    return threaded ? threaded->controller() : net->controller();
  }
};

std::unique_ptr<Rig> build_rig(const WorkloadSpec& spec,
                               PregeneratedSource& input, bool traced) {
  ScopedSpan span("setup");
  const std::int64_t start = steady_ns();
  auto rig = std::make_unique<Rig>();
  rig->probe = std::make_unique<SharedProbe>();
  rig->source = &input;

  auto logic = std::make_shared<ProbedLogic>(
      std::make_shared<skewless::WordCountLogic>(), *rig->probe, traced);

  std::unique_ptr<Controller> controller;
  if (!spec.hash_only) {
    auto planner =
        std::make_unique<TimedPlanner>(std::make_unique<skewless::MixedPlanner>());
    rig->planner = planner.get();
    skewless::ControllerConfig ccfg;
    ccfg.planner.theta_max = kThetaMax;
    ccfg.planner.max_table_entries = 0;
    ccfg.stats_mode = skewless::StatsMode::kSketch;
    controller = std::make_unique<Controller>(
        skewless::AssignmentFunction(
            skewless::ConsistentHashRing(spec.workers, 128, kRingSeed), 0),
        std::move(planner), ccfg, spec.keys);
  }
  skewless::ThreadedConfig tcfg;
  tcfg.num_workers = spec.workers;
  tcfg.batch_size = spec.batch;
  tcfg.stats_mode = skewless::StatsMode::kSketch;
  skewless::NetConfig ncfg;
  ncfg.batch_size = spec.batch;

  rig->ctor_begin_us = steady_us();
  if (spec.hash_only) {
    rig->threaded = std::make_unique<ThreadedEngine>(tcfg, logic, spec.workers,
                                                     kRingSeed);
  } else if (spec.net) {
    rig->net = std::make_unique<NetEngine>(ncfg, logic, std::move(controller));
  } else {
    rig->threaded =
        std::make_unique<ThreadedEngine>(tcfg, logic, std::move(controller));
  }
  rig->ctor_end_us = steady_us();
  rig->probe->region().epoch_us.store(rig->ctor_begin_us,
                                      std::memory_order_relaxed);
  rig->setup_s = static_cast<double>(steady_ns() - start) / 1e9;
  return rig;
}

template <typename Report>
void collect_reports(const std::vector<Report>& reports, EpisodeResult& r) {
  double migrated = 0.0;
  for (const Report& rep : reports) {
    r.stall_ms.push_back(rep.stall_ms);
    r.merge_ms.push_back(rep.merge_ms);
    r.queue_wait_ms.push_back(rep.avg_latency_ms);
    r.ingest_ms.push_back(rep.wall_ms - rep.stall_ms);
    r.report_theta.push_back(rep.max_theta);
    migrated += rep.migration_bytes;
  }
  r.migrated_mb = migrated / 1e6;
  if (!reports.empty()) {
    r.stats_mb = static_cast<double>(reports.back().stats_memory_bytes) / 1e6;
  }
}

/// Worker CPU clocks: read while the workers are still alive.
void collect_worker_cpu(const SharedProbe& probe, EpisodeResult& r) {
  for (std::size_t i = 0; i < probe.slots_used(); ++i) {
    const ProbeSlot& slot = probe.region().slots[i];
    if (slot.tuples == 0) continue;
    r.worker_cpu_s.push_back(slot.has_clock ? cpu_seconds(slot.cpu_clock) : 0.0);
  }
}

/// Probe counters: read after the workers have stopped.
void collect_probe(const Rig& rig, EpisodeResult& r) {
  const SharedProbe& probe = *rig.probe;
  std::int64_t epoch_hi = rig.ctor_end_us;
  std::uint64_t process_ns = 0;
  for (std::size_t i = 0; i < probe.slots_used(); ++i) {
    const ProbeSlot& slot = probe.region().slots[i];
    r.states_created += slot.states_created;
    r.states_deserialized += slot.states_deserialized;
    if (slot.tuples == 0) continue;
    r.worker_tuples.push_back(slot.tuples);
    process_ns += slot.process_ns;
    epoch_hi = std::min(epoch_hi, slot.min_raw_us);
    r.latency.add_counts(slot.hist);
  }
  r.process_s = static_cast<double>(process_ns) / 1e9;
  if (r.latency.total != 0) {
    r.epoch_bound_ms = static_cast<double>(epoch_hi - rig.ctor_begin_us) / 1e3;
  }
  if (probe.region().overflowed.load() != 0) {
    r.failures.push_back("more worker threads/processes than probe slots");
  }
}

void check_outputs(const WorkloadSpec& spec, const Rig& rig,
                   std::uint64_t outputs, std::size_t state_entries,
                   const std::vector<bool>& migrated,
                   const std::vector<std::size_t>& report_moves,
                   EpisodeResult& r) {
  auto fail = [&](const std::string& what) { r.failures.push_back(what); };
  const auto& intervals = rig.source->intervals();
  for (const SparseInterval& iv : intervals) r.generated += iv.total;

  // Exactly once: the engine's counters and the wrapper's own count.
  std::uint64_t seen = 0;
  for (const std::uint64_t t : r.worker_tuples) seen += t;
  if (r.emitted != r.generated) fail("emitted != generated");
  if (r.processed != r.generated) fail("processed != generated");
  if (seen != r.generated) fail("process() calls != generated");
  if (outputs != r.processed) fail("output tuples != processed");

  std::size_t expected_entries = 0;
  const std::uint64_t expected =
      expected_checksum(intervals, spec.keys, &expected_entries);
  if (r.checksum != expected) fail("state_checksum != checksum of the input");
  if (state_entries != expected_entries) fail("state entries != live keys");

  // Realized θ from the generated counts and the assignment in force in
  // each interval: F0 = the controller's hash ring, then every plan's
  // moves applied after the boundary that returned it.
  std::vector<const std::vector<skewless::KeyMove>*> moves_after(
      migrated.size(), nullptr);
  std::size_t next_plan = 0;
  if (rig.planner != nullptr) {
    const auto& records = rig.planner->records();
    for (std::size_t i = 0; i < migrated.size(); ++i) {
      if (!migrated[i]) continue;
      while (next_plan < records.size() && records[next_plan].moves.empty()) {
        ++next_plan;
      }
      if (next_plan == records.size() ||
          records[next_plan].moves.size() != report_moves[i]) {
        fail("engine migrations do not match the planner's plans");
        break;
      }
      moves_after[i] = &records[next_plan++].moves;
    }
    while (next_plan < records.size() && records[next_plan].moves.empty()) {
      ++next_plan;
    }
    if (next_plan != records.size()) fail("a plan with moves was not migrated");
  }
  const skewless::AssignmentFunction initial(
      skewless::ConsistentHashRing(spec.workers, 128, kRingSeed), 0);
  r.realized_theta = realized_theta(
      intervals, initial.materialize(spec.keys), moves_after, spec.workers);
  if (r.report_theta.size() != r.realized_theta.size()) {
    fail("fewer interval reports than generated intervals");
  } else if (!spec.hash_only) {
    for (std::size_t i = 0; i < r.realized_theta.size(); ++i) {
      if (std::abs(r.realized_theta[i] - r.report_theta[i]) > 1e-6) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "interval %zu: realized theta %.6f != report %.6f", i,
                      r.realized_theta[i], r.report_theta[i]);
        fail(buf);
        break;
      }
    }
  }
}

void collect_controller(Rig& rig, EpisodeResult& r) {
  Controller* ctrl = rig.controller();
  if (ctrl == nullptr) return;
  r.plan_digest = ctrl->plan_history_digest();
  r.table_entries = ctrl->assignment().table().size();
  r.heavy_churn = ctrl->heavy_promotions() + ctrl->heavy_demotions();
  for (const PlanRecord& rec : rig.planner->records()) {
    r.plan_ms.push_back(rec.plan_ms);
    r.plan_theta.push_back(rec.achieved_theta);
    r.moves += rec.moves.size();
  }
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::unique_ptr<PregeneratedSource> generate_input(const WorkloadSpec& spec,
                                                  std::uint64_t population) {
  ScopedSpan span("generate");
  skewless::ZipfFluctuatingSource::Options opts;
  opts.num_keys = spec.keys;
  opts.skew = kSkew;
  opts.tuples_per_interval = spec.tuples_per_interval;
  opts.fluctuation = spec.fluctuation;
  opts.fluctuate_every = kFluctuateEvery;
  opts.reference_instances = spec.workers;
  opts.seed = population;
  skewless::ZipfFluctuatingSource generator(opts);
  return std::make_unique<PregeneratedSource>(generator, spec.intervals);
}

double setup_only(const WorkloadSpec& spec, PregeneratedSource& input) {
  const std::unique_ptr<Rig> rig = build_rig(spec, input, false);
  if (rig->threaded) {
    rig->threaded->shutdown();
  } else {
    rig->net->shutdown();
  }
  return rig->setup_s;
}

EpisodeResult run_episode(const WorkloadSpec& spec, PregeneratedSource& input,
                          std::uint64_t order_seed, bool traced) {
  EpisodeResult r;
  ScopedSpan episode("episode");
  input.rewind();

  const std::unique_ptr<Rig> rig = build_rig(spec, input, traced);
  r.setup_s = rig->setup_s;

  // Both engines' run() draw each interval from the source, expand and
  // shuffle it with `order_seed`, route it and close the boundary.
  std::vector<bool> migrated;
  std::vector<std::size_t> report_moves;
  const auto run = [&](auto& engine) {
    const double cpu0 = this_thread_cpu_seconds();
    const std::int64_t start = steady_ns();
    const int run_span = tracer().begin("engine.run");
    input.set_mark_intervals(true);
    auto reports = engine.run(input, spec.intervals, order_seed);
    input.close_interval_span();
    input.set_mark_intervals(false);
    tracer().end(run_span);
    r.run_s = static_cast<double>(steady_ns() - start) / 1e9;
    r.driver_cpu_s = this_thread_cpu_seconds() - cpu0;
    collect_worker_cpu(*rig->probe, r);
    {
      ScopedSpan span("teardown");
      engine.shutdown();
    }
    collect_reports(reports, r);
    for (const auto& rep : reports) {
      migrated.push_back(rep.migrated);
      report_moves.push_back(rep.moves);
    }
    r.emitted = engine.total_emitted();
    r.processed = engine.total_processed();
    r.checksum = engine.state_checksum();
    return reports;
  };

  std::uint64_t outputs = 0;
  std::size_t state_entries = 0;
  if (rig->threaded) {
    ThreadedEngine& engine = *rig->threaded;
    (void)run(engine);
    outputs = engine.total_output_tuples();
    state_entries = engine.total_state_entries();
  } else {
    NetEngine& engine = *rig->net;
    for (const auto& rep : run(engine)) {
      r.data_wire_bytes += rep.data_wire_bytes;
      r.ctrl_wire_bytes += rep.ctrl_wire_bytes;
    }
    r.recoveries = engine.recoveries();
    if (!engine.ok()) r.failures.push_back("net engine failed: " + engine.error());
    if (engine.recoveries() != 0) r.failures.push_back("net engine recovered a worker");
    if (engine.degraded()) r.failures.push_back("net engine degraded");
    outputs = engine.total_output_tuples();
    state_entries = engine.total_state_entries();
  }

  ScopedSpan check("check");
  collect_probe(*rig, r);
  collect_controller(*rig, r);
  check_outputs(spec, *rig, outputs, state_entries, migrated, report_moves, r);
  return r;
}

}  // namespace perfbench
