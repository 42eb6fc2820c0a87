// perfbench — draws the workload's input for every key population once,
// then runs it for at least --seconds as whole cycles of episodes, one
// episode per key population (see WorkloadSpec), checks every episode's
// outputs, and prints one JSON object with every metric as its last line.
//
//   perfbench --workload zipf-steady --seed 7 --seconds 40 --trace 0
//             [--trace-out FILE]
//
// --trace 1 alternates untraced and traced cycles: the traced ones record
// spans (written to --trace-out as Chrome trace-event JSON) and time
// every tuple's latency and process() call; trace.overhead compares the
// two kinds.
// Exit status: 0 when every check passed, 1 on a failed check, 2 on bad
// arguments.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "oracle.h"
#include "sketch/simd/sketch_kernels.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr int kExtraSetups = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               why);
  for (const WorkloadSpec& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("--seconds takes a number > 0");
    } else if (flag == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") usage("--trace takes 0 or 1");
      a.trace = std::string(v) == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown --workload");
  return a;
}

double max_over_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  double mx = 0.0;
  for (const double x : v) {
    sum += x;
    mx = std::max(mx, x);
  }
  return sum > 0.0 ? mx / (sum / static_cast<double>(v.size())) : 0.0;
}

double sum_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum_of(v) / static_cast<double>(v.size());
}

double max_of(const std::vector<double>& v) {
  double mx = 0.0;
  for (const double x : v) mx = std::max(mx, x);
  return mx;
}

/// Mean over episodes of a per-episode value. Episodes come in whole
/// cycles, so every key population weighs the same.
template <typename F>
double per_episode(const std::vector<const EpisodeResult*>& eps, F f) {
  std::vector<double> v;
  for (const EpisodeResult* e : eps) v.push_back(f(*e));
  return mean(v);
}

/// Median of a per-interval (or per-call) series pooled over episodes.
template <typename F>
double pooled(const std::vector<const EpisodeResult*>& eps, F f) {
  std::vector<double> v;
  for (const EpisodeResult* e : eps) {
    const std::vector<double>& s = f(*e);
    v.insert(v.end(), s.begin(), s.end());
  }
  return median(v);
}

struct Metric {
  double value;
  const char* unit;
};

double peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadSpec& spec = *find_workload(args.workload);
  // Whole cycles over the key populations, so every population weighs
  // the same in every metric; a traced run alternates untraced and traced
  // cycles and needs one of each.
  const int min_cycles = args.trace ? 2 : 1;

  // The load generator runs before anything is measured: every episode
  // replays the same pre-drawn input of its population.
  std::vector<std::unique_ptr<PregeneratedSource>> inputs;
  tracer().enable(args.trace);
  for (const std::uint64_t population : kPopulations) {
    inputs.push_back(generate_input(spec, population));
  }
  tracer().enable(false);

  std::vector<EpisodeResult> episodes;
  std::vector<bool> episode_traced;
  std::vector<double> setups;
  const std::int64_t start = steady_ns();
  for (int cycle = 0;; ++cycle) {
    const bool traced = args.trace && cycle % 2 == 1;
    for (std::size_t p = 0; p < kPopulations.size(); ++p) {
      // Set-up takes milliseconds, so one sample per episode is too few
      // for a steady median: each episode is preceded by kExtraSetups
      // more set-ups of its input, torn down unused, each from the
      // trimmed heap an episode starts from.
      for (int k = 0; k < kExtraSetups; ++k) {
        setups.push_back(setup_only(spec, *inputs[p]));
        malloc_trim(0);
      }
      tracer().enable(traced);
      episodes.push_back(run_episode(spec, *inputs[p], args.seed, traced));
      tracer().enable(false);
      // Hand the episode's freed heap back to the system, so the next
      // episode (and the workers it forks) starts from the same state.
      malloc_trim(0);
      episode_traced.push_back(traced);
      const EpisodeResult& e = episodes.back();
      std::fprintf(stderr,
                   "# population %llu%s: %.3f s set-up, %.2f s run, "
                   "%.2f s driver CPU, %.2f s worker CPU, %s\n",
                   static_cast<unsigned long long>(kPopulations[p]),
                   traced ? " (traced)" : "", e.setup_s, e.run_s,
                   e.driver_cpu_s, sum_of(e.worker_cpu_s),
                   e.failures.empty() ? "checks passed" : "CHECK FAILED");
    }
    const double elapsed = static_cast<double>(steady_ns() - start) / 1e9;
    if (cycle + 1 >= min_cycles && elapsed >= args.seconds) break;
  }
  const double measured_s = static_cast<double>(steady_ns() - start) / 1e9;
  const double driver_rss_mb = peak_rss_mb(RUSAGE_SELF);

  // ---- output checks --------------------------------------------------
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::size_t num_populations = kPopulations.size();
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const EpisodeResult& e = episodes[i];
    const std::string where =
        "population " + std::to_string(kPopulations[i % num_populations]) +
        ", cycle " + std::to_string(i / num_populations + 1) + ": ";
    attempted += e.generated;
    if (!e.failures.empty()) failed += e.generated;
    for (const std::string& f : e.failures) failures.push_back(where + f);
    // Same population, same arrival order: the same plans and final state.
    const EpisodeResult& first = episodes[i % num_populations];
    if (e.checksum != first.checksum || e.plan_digest != first.plan_digest) {
      failures.push_back(where + "checksum or plan digest differs from cycle 1");
      if (e.failures.empty()) failed += e.generated;
    }
  }
  if (spec.net) {
    // The socket engine must decide exactly what the threaded engine
    // decides on the same input: same plans, same final state. One
    // population per run (chosen by the seed) keeps the run short.
    const std::size_t p = args.seed % num_populations;
    WorkloadSpec threaded = spec;
    threaded.net = false;
    const EpisodeResult ref = run_episode(threaded, *inputs[p], args.seed, false);
    std::vector<std::string> cross;
    if (!ref.failures.empty()) {
      cross.push_back("threaded reference run: " + ref.failures.front());
    }
    if (ref.plan_digest != episodes[p].plan_digest) {
      cross.push_back("plan digest differs from the threaded engine's");
    }
    if (ref.checksum != episodes[p].checksum) {
      cross.push_back("state checksum differs from the threaded engine's");
    }
    if (!cross.empty()) failed = attempted;
    failures.insert(failures.end(), cross.begin(), cross.end());
  }
  for (const std::string& f : failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());

  // ---- metrics --------------------------------------------------------
  std::vector<const EpisodeResult*> plain;   // untraced episodes
  std::vector<const EpisodeResult*> traced;  // traced episodes
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    (episode_traced[i] ? traced : plain).push_back(&episodes[i]);
  }
  std::vector<const EpisodeResult*> all;
  for (const EpisodeResult& e : episodes) all.push_back(&e);

  const auto throughput = [](const std::vector<const EpisodeResult*>& eps) {
    double tuples = 0.0;
    double secs = 0.0;
    for (const EpisodeResult* e : eps) {
      tuples += static_cast<double>(e->processed);
      secs += e->run_s;
    }
    return secs > 0.0 ? tuples / secs : 0.0;
  };
  LatencyHistogram latency;
  for (const EpisodeResult* e : traced) latency.add_counts(e->latency.counts.data());
  std::uint64_t tuples_all = 0;
  for (const EpisodeResult* e : all) tuples_all += e->processed;

  std::map<std::string, Metric> m;
  // End to end (from untraced episodes).
  m["throughput_tps"] = {throughput(plain), "tuples/s"};
  m["theta_post"] = {per_episode(plain,
                                 [](const EpisodeResult& e) {
                                   const auto& t = e.realized_theta;
                                   if (t.size() < 2) return 0.0;
                                   return mean(std::vector<double>(t.begin() + 1, t.end()));
                                 }),
                     "ratio"};
  m["migrated_mb"] = {per_episode(plain, [](const EpisodeResult& e) { return e.migrated_mb; }),
                      "MB"};
  m["peak_rss_mb"] = {driver_rss_mb, "MB"};
  for (const EpisodeResult* e : all) setups.push_back(e->setup_s);
  m["setup_s"] = {median(setups), "s"};

  // Per layer. The latency percentiles were meant to be end to end; they
  // do not repeat within a bound across runs (see README.md). They, the
  // process() timer and the epoch bound come from traced episodes only.
  m["latency_p50_ms"] = {latency.quantile(0.50) / 1e3, "ms"};
  m["latency_p99_ms"] = {latency.quantile(0.99) / 1e3, "ms"};
  std::vector<double> generate_ms;
  for (const auto& input : inputs) generate_ms.push_back(sum_of(input->call_ms()));
  m["workload.next_interval_ms"] = {mean(generate_ms), "ms"};
  m["engine.driver_cpu_s"] = {
      per_episode(plain, [](const EpisodeResult& e) { return e.driver_cpu_s; }), "s"};
  m["engine.queue_wait_ms"] = {
      pooled(plain, [](const EpisodeResult& e) -> const auto& { return e.queue_wait_ms; }),
      "ms"};
  m["engine.stall_ms.p50"] = {
      pooled(plain, [](const EpisodeResult& e) -> const auto& { return e.stall_ms; }), "ms"};
  m["engine.stall_ms.max"] = {
      per_episode(plain, [](const EpisodeResult& e) { return max_of(e.stall_ms); }), "ms"};
  m["engine.ingest_ms"] = {
      pooled(plain, [](const EpisodeResult& e) -> const auto& { return e.ingest_ms; }), "ms"};
  m["worker.cpu_s"] = {
      per_episode(plain, [](const EpisodeResult& e) { return sum_of(e.worker_cpu_s); }), "s"};
  m["worker.cpu_imbalance"] = {
      per_episode(plain, [](const EpisodeResult& e) { return max_over_mean(e.worker_cpu_s); }),
      "ratio"};
  m["operator.process_s"] = {
      per_episode(traced, [](const EpisodeResult& e) { return e.process_s; }), "s"};
  m["operator.share"] = {per_episode(traced,
                                     [](const EpisodeResult& e) {
                                       const double cpu = sum_of(e.worker_cpu_s);
                                       return cpu > 0.0 ? e.process_s / cpu : 0.0;
                                     }),
                         "ratio"};
  m["operator.tuples_imbalance"] = {
      per_episode(all,
                  [](const EpisodeResult& e) {
                    std::vector<double> t(e.worker_tuples.begin(), e.worker_tuples.end());
                    return max_over_mean(t);
                  }),
      "ratio"};
  m["operator.states_created"] = {
      per_episode(all,
                  [](const EpisodeResult& e) { return static_cast<double>(e.states_created); }),
      "count"};
  m["operator.states_deserialized"] = {
      per_episode(all,
                  [](const EpisodeResult& e) {
                    return static_cast<double>(e.states_deserialized);
                  }),
      "count"};
  m["core.plan_ms"] = {
      pooled(all, [](const EpisodeResult& e) -> const auto& { return e.plan_ms; }), "ms"};
  m["core.moves"] = {
      per_episode(all, [](const EpisodeResult& e) { return static_cast<double>(e.moves); }),
      "count"};
  m["core.table_entries"] = {
      per_episode(all,
                  [](const EpisodeResult& e) { return static_cast<double>(e.table_entries); }),
      "count"};
  m["core.plan_theta"] = {
      per_episode(all, [](const EpisodeResult& e) { return mean(e.plan_theta); }), "ratio"};
  m["sketch.merge_ms"] = {
      pooled(plain, [](const EpisodeResult& e) -> const auto& { return e.merge_ms; }), "ms"};
  m["sketch.stats_mb"] = {
      per_episode(all, [](const EpisodeResult& e) { return e.stats_mb; }), "MB"};
  m["sketch.heavy_churn"] = {
      per_episode(all,
                  [](const EpisodeResult& e) { return static_cast<double>(e.heavy_churn); }),
      "count"};
  m["net.data_bytes_per_tuple"] = {
      per_episode(all,
                  [](const EpisodeResult& e) {
                    return static_cast<double>(e.data_wire_bytes) /
                           static_cast<double>(std::max<std::uint64_t>(1, e.processed));
                  }),
      "B/tuple"};
  m["net.ctrl_bytes_per_tuple"] = {
      per_episode(all,
                  [](const EpisodeResult& e) {
                    return static_cast<double>(e.ctrl_wire_bytes) /
                           static_cast<double>(std::max<std::uint64_t>(1, e.processed));
                  }),
      "B/tuple"};
  m["net.worker_peak_rss_mb"] = {spec.net ? peak_rss_mb(RUSAGE_CHILDREN) : 0.0, "MB"};
  m["net.recoveries"] = {
      per_episode(all, [](const EpisodeResult& e) { return static_cast<double>(e.recoveries); }),
      "count"};
  m["latency.samples"] = {static_cast<double>(latency.total), "count"};
  m["latency.epoch_bound_ms"] = {
      per_episode(traced, [](const EpisodeResult& e) { return e.epoch_bound_ms; }), "ms"};
  m["trace.overhead"] = {traced.empty() ? 1.0 : throughput(plain) / throughput(traced),
                         "ratio"};

  // ---- trace ----------------------------------------------------------
  if (args.trace) {
    const auto self = tracer().self_ms();
    std::fprintf(stderr, "# self time per span over %zu traced episode(s):\n",
                 traced.size());
    for (const auto& [name, ms] : self) {
      std::fprintf(stderr, "#   %-26s %12.3f ms\n", name.c_str(), ms);
    }
    if (!args.trace_out.empty() && !tracer().write_chrome_json(args.trace_out)) {
      failures.push_back("could not write " + args.trace_out);
    }
  }

  // ---- result line ----------------------------------------------------
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"episodes\":%zu,"
              "\"measured_s\":%.3f,\"tuples\":%llu,",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              episodes.size(), measured_s,
              static_cast<unsigned long long>(tuples_all));
  std::printf("\"host\":{\"hardware_threads\":%u,\"kernel_tier\":\"%s\"},",
              std::max(1u, std::thread::hardware_concurrency()),
              skewless::simd::active_kernels().name);
  std::printf("\"plan_digest\":\"%016llx\",\"state_checksum\":\"%016llx\",",
              static_cast<unsigned long long>(episodes[0].plan_digest),
              static_cast<unsigned long long>(episodes[0].checksum));
  std::printf("\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                name.c_str(), std::isfinite(metric.value) ? metric.value : -1.0,
                metric.unit);
    first = false;
  }
  std::printf("}}\n");
  return failures.empty() ? 0 : 1;
}
