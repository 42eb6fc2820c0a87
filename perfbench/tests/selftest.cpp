// The benchmark's own tests: the measurement and checking code must be
// right before any number it prints means anything. Runs in a few
// seconds on tiny inputs; exit status 0 when every check passes.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/controller.h"
#include "core/planners.h"
#include "engine/threaded_engine.h"
#include "oracle.h"
#include "probes.h"
#include "trace.h"
#include "workload/operators.h"
#include "workload/synthetic.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool near(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

void test_buckets() {
  // Every value lands in a bucket whose range holds it, buckets are
  // ordered, and a bucket is never wider than 1/32 of its lowest value.
  for (std::uint64_t v : {0ULL, 1ULL, 31ULL, 32ULL, 33ULL, 63ULL, 64ULL, 65ULL,
                          1000ULL, 123456789ULL, (1ULL << 40) + 7, ~0ULL}) {
    const std::size_t b = bucket_of(v);
    CHECK(b < kHistBuckets);
    CHECK(bucket_low(b) <= v);
    CHECK(v - bucket_low(b) < bucket_width(b));
    if (v >= kSubBuckets) CHECK(bucket_width(b) * kSubBuckets <= bucket_low(b));
  }
  for (std::size_t b = 1; b < kHistBuckets; ++b) {
    CHECK(bucket_low(b) == bucket_low(b - 1) + bucket_width(b - 1));
  }
}

void test_percentiles() {
  // Exact below 32: nearest rank over 0..31.
  LatencyHistogram small;
  for (std::uint64_t v = 0; v < 32; ++v) small.add(v);
  CHECK(small.quantile(0.5) == 15.0);   // rank 16 of 32
  CHECK(small.quantile(1.0) == 31.0);
  CHECK(small.quantile(0.01) == 0.0);

  // 1..100000 us: the true p50 is 50000 and p99 is 99000; a log bucket
  // is at most 1/32 wide, so the midpoint is within 1/64 of the truth.
  LatencyHistogram big;
  for (std::uint64_t v = 1; v <= 100000; ++v) big.add(v);
  CHECK(big.total == 100000);
  CHECK(near(big.quantile(0.50), 50000.0, 1.0 / 64));
  CHECK(near(big.quantile(0.99), 99000.0, 1.0 / 64));
  LatencyHistogram empty;
  CHECK(empty.quantile(0.5) == 0.0);

  // Merging two halves equals adding everything to one histogram.
  LatencyHistogram lo;
  LatencyHistogram hi;
  for (std::uint64_t v = 1; v <= 50000; ++v) lo.add(v);
  for (std::uint64_t v = 50001; v <= 100000; ++v) hi.add(v);
  lo.add_counts(hi.counts.data());
  CHECK(lo.quantile(0.99) == big.quantile(0.99));

  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_checksum_formula() {
  // The engine's state checksum after WordCountLogic has seen a tiny
  // stream equals the benchmark's formula over the generated counts.
  skewless::ZipfFluctuatingSource::Options opts;
  opts.num_keys = 500;
  opts.skew = 1.2;
  opts.tuples_per_interval = 4000;
  opts.fluctuation = 1.0;
  opts.reference_instances = 2;
  opts.seed = 3;
  skewless::ZipfFluctuatingSource generator(opts);
  PregeneratedSource source(generator, 3);
  skewless::ThreadedConfig cfg;
  cfg.num_workers = 2;
  skewless::ThreadedEngine engine(cfg, std::make_shared<skewless::WordCountLogic>(),
                                  2, 0x5eed);
  (void)engine.run(source, 3, 11);
  engine.shutdown();
  std::size_t entries = 0;
  const std::uint64_t expected =
      expected_checksum(source.intervals(), opts.num_keys, &entries);
  CHECK(engine.state_checksum() == expected);
  CHECK(engine.total_state_entries() == entries);
  CHECK(source.intervals().size() == 3);
  CHECK(source.call_ms().size() == 3);
}

WorkloadSpec tiny(bool net) {
  WorkloadSpec s;
  s.name = "tiny";
  s.net = net;
  s.fluctuation = 1.0;
  s.keys = 3000;
  s.tuples_per_interval = 30000;
  s.intervals = 7;
  s.batch = 256;
  return s;
}

void test_episode_checks() {
  // A full episode on a tiny input: the outside-computed θ matches the
  // controller's max_theta every interval (run_episode fails otherwise),
  // plans migrate, every tuple is seen once, and the socket engine makes
  // the threaded engine's decisions.
  const auto input = generate_input(tiny(false), 5);
  const EpisodeResult t = run_episode(tiny(false), *input, 9, true);
  for (const std::string& f : t.failures) std::fprintf(stderr, "threaded: %s\n", f.c_str());
  CHECK(t.failures.empty());
  CHECK(t.realized_theta.size() == 7);
  CHECK(t.report_theta.size() == 7);
  for (std::size_t i = 0; i < t.realized_theta.size() && i < t.report_theta.size(); ++i) {
    CHECK(std::abs(t.realized_theta[i] - t.report_theta[i]) <= 1e-9);
  }
  CHECK(t.moves > 0);
  CHECK(t.migrated_mb > 0.0);
  CHECK(t.latency.total == t.processed);
  CHECK(t.worker_tuples.size() == 3);
  CHECK(t.worker_cpu_s.size() == 3);
  CHECK(t.process_s > 0.0);
  for (const double c : t.worker_cpu_s) CHECK(c > 0.0);

  // Epoch calibration: the engine's private epoch lies between the clock
  // read before its constructor and the earliest (process - stamp); that
  // window must be non-negative and short.
  CHECK(t.epoch_bound_ms >= 0.0);
  CHECK(t.epoch_bound_ms < 20.0);

  // The same input replays from its first interval on another engine.
  const EpisodeResult n = run_episode(tiny(true), *input, 9, true);
  for (const std::string& f : n.failures) std::fprintf(stderr, "net: %s\n", f.c_str());
  CHECK(n.failures.empty());
  CHECK(n.plan_digest == t.plan_digest);
  CHECK(n.checksum == t.checksum);
  CHECK(n.latency.total == n.processed);
  CHECK(n.worker_cpu_s.size() == 3);
  CHECK(n.data_wire_bytes > 0);
  for (const double c : n.worker_cpu_s) CHECK(c > 0.0);
  CHECK(n.epoch_bound_ms >= 0.0);
  CHECK(n.epoch_bound_ms < 20.0);

  // Untraced episodes read no clock per tuple, yet still count every
  // tuple once for the exactly-once check.
  const EpisodeResult u = run_episode(tiny(false), *input, 9, false);
  for (const std::string& f : u.failures) std::fprintf(stderr, "untraced: %s\n", f.c_str());
  CHECK(u.failures.empty());
  CHECK(u.checksum == t.checksum);
  CHECK(u.latency.total == 0);
  CHECK(u.process_s == 0.0);
  std::uint64_t seen = 0;
  for (const std::uint64_t c : u.worker_tuples) seen += c;
  CHECK(seen == u.processed);
}

void test_tracer_self_time() {
  Tracer& tr = tracer();
  tr.enable(true);
  const std::size_t before = tr.size();
  {
    ScopedSpan outer("selftest.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      ScopedSpan inner("selftest.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  tr.enable(false);
  CHECK(tr.size() == before + 2);
  const auto self = tr.self_ms();
  CHECK(self.at("selftest.inner") >= 20.0);
  CHECK(self.at("selftest.outer") >= 2.0);
  CHECK(self.at("selftest.outer") < 20.0);  // the inner span is not its own
}

}  // namespace

int main() {
  test_buckets();
  test_percentiles();
  test_checksum_formula();
  test_episode_checks();
  test_tracer_self_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
