// The standing benchmark: SQL text through ServingEngine, rows out, every
// result checked against the reference evaluator.
//
//   perfbench --workload <solo_scan|io_cpu_batch> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no tracing attached.
// --trace 1 attaches a MetricsRegistry and a TraceSink to the engine, runs
// the same loop, then times each layer's public calls from outside. The last
// line of standard output is one JSON object: correct, attempted, failed and
// the metrics by name with their units.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// A run goes on past --seconds until it has timed this many queries, so
/// that at least 10 lie beyond the 95th percentile.
constexpr size_t kMinSamples = 200;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Nearest-rank percentile; 0 for no samples.
double Percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<size_t>(rank, 1, xs.size()) - 1];
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 0.5); }

/// The 95th percentile of consecutive chunks of at least 200 samples (so at
/// least 10 lie beyond it in each), then the median over chunks: a stretch of
/// the run slowed by other load on the host moves one chunk, not the figure.
double ChunkedP95(const std::vector<double>& xs) {
  const size_t chunks = std::max<size_t>(1, xs.size() / kMinSamples);
  std::vector<double> p95s;
  for (size_t c = 0; c < chunks; ++c)
    p95s.push_back(Percentile(
        std::vector<double>(xs.begin() + c * xs.size() / chunks,
                            xs.begin() + (c + 1) * xs.size() / chunks),
        0.95));
  return Median(p95s);
}

// --- result checking -------------------------------------------------------

ref::Result FromEngine(const xprs::SqlResult& r) {
  ref::Result rows;
  rows.reserve(r.rows.size());
  for (const xprs::Tuple& t : r.rows) {
    ref::Row row;
    row.reserve(t.size());
    for (const xprs::Value& v : t.values()) {
      if (const int32_t* i = std::get_if<int32_t>(&v))
        row.push_back(ref::Val::Int(*i));
      else if (const std::string* s = std::get_if<std::string>(&v))
        row.push_back(ref::Val::Text(*s));
      else
        row.push_back(ref::Val::Null());
    }
    rows.push_back(std::move(row));
  }
  ref::Canonicalize(&rows);
  return rows;
}

/// Counts operations and checks each one against the reference. The CPU
/// the checks take is kept apart so cpu_ms_per_query excludes it.
class Checker {
 public:
  /// Counts a failure unless `r` is OK and equals the reference answer.
  void Check(const BenchQuery& q, const xprs::StatusOr<xprs::SqlResult>& r,
             const char* path) {
    const double c0 = ThreadCpuSeconds();
    ++attempted_;
    std::string detail;
    if (!r.ok()) {
      detail = r.status().ToString();
    } else {
      ref::Result got = FromEngine(*r);
      if (got != q.expected)
        detail = "got " + ref::Describe(got) + "; want " + ref::Describe(q.expected);
    }
    if (!detail.empty()) {
      ++failed_;
      if (reported_.insert(q.sql + path).second && reported_.size() <= 8)
        std::fprintf(stderr, "FAILED [%s] %s: %s\n", path, q.sql.c_str(),
                     detail.c_str());
    }
    check_cpu_s_ += ThreadCpuSeconds() - c0;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double check_cpu_seconds() const { return check_cpu_s_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  double check_cpu_s_ = 0;
  std::set<std::string> reported_;
};

// --- the closed loop -------------------------------------------------------

struct Sample {
  int shape = 0;
  double latency_ms = 0;
  double submit_ms = 0;
};

struct LoopResult {
  std::vector<Sample> samples;      ///< timed rounds only
  std::vector<double> round_s;      ///< turnaround of each timed round
  std::vector<double> round_wall_s; ///< wall time of each timed round
  double measured_s = 0;            ///< wall time of the timed rounds
  double measured_cpu_s = 0;        ///< process CPU of the timed rounds
  double measured_check_cpu_s = 0;  ///< of which result checks
  int rounds = 0;                   ///< timed rounds
};

/// The engine's own counters over the loop, read as soon as it ends: the
/// traced run's idle passes afterwards share the pool, the registry and the
/// slow-query log, and must not count in these.
struct LoopCounters {
  double wall_s = 0;
  double pool_hits = 0;
  double pool_misses = 0;
  xprs::DiskStats disk;
  double pair_starts = 0;
  double adjustments = 0;
  double degree_mean = 0;
  double degree_max = 0;
  double slow_log_entries = 0;
};

/// The timed window: opened once warm-up is over, closed when the last
/// round ends.
class Window {
 public:
  explicit Window(Checker* checker) : checker_(checker) {}
  void Open() {
    start_ = Clock::now();
    cpu0_ = ProcessCpuSeconds();
    check0_ = checker_->check_cpu_seconds();
  }
  double elapsed() const { return Since(start_); }
  void Close(LoopResult* out) const {
    out->measured_s = elapsed();
    out->measured_cpu_s = ProcessCpuSeconds() - cpu0_;
    out->measured_check_cpu_s = checker_->check_cpu_seconds() - check0_;
  }

 private:
  Checker* checker_;
  Clock::time_point start_;
  double cpu0_ = 0;
  double check0_ = 0;
};

/// Batch mode: one thread submits the whole round at once and waits for all
/// of it; a round's turnaround runs from the first submit to the last
/// completion. The first round warms the pool and is checked, not timed.
LoopResult RunBatches(World* world, const std::vector<BenchQuery>& round,
                      double seconds, Checker* checker) {
  LoopResult out;
  Window window(checker);
  auto session = world->engine->OpenSession();
  const size_t n = round.size();
  std::vector<Clock::time_point> done(n);
  for (bool warm = true;; warm = false) {
    const Clock::time_point r0 = Clock::now();
    std::vector<xprs::StatusOr<xprs::SubmittedQuery>> handles;
    std::vector<Clock::time_point> submitted(n);
    std::vector<Sample> local;
    for (size_t i = 0; i < n; ++i) {
      xprs::QueryOptions options;
      options.on_complete = [&done, i](const xprs::Status&) {
        done[i] = Clock::now();
      };
      submitted[i] = Clock::now();
      handles.push_back(session->Submit(round[i].sql, options));
      local.push_back({round[i].shape, 0.0, 1e3 * Since(submitted[i])});
    }
    for (size_t i = 0; i < n; ++i) {
      if (!handles[i].ok()) {
        checker->Check(round[i], handles[i].status(), "batch");
        continue;
      }
      xprs::StatusOr<xprs::SqlResult> r = handles[i]->ticket.Wait();
      local[i].latency_ms =
          1e3 * std::chrono::duration<double>(done[i] - submitted[i]).count();
      checker->Check(round[i], r, "batch");
    }
    if (warm) {
      window.Open();
      continue;
    }
    const Clock::time_point last = *std::max_element(done.begin(), done.end());
    out.round_s.push_back(
        std::chrono::duration<double>(last - submitted.front()).count());
    out.round_wall_s.push_back(Since(r0));
    out.samples.insert(out.samples.end(), local.begin(), local.end());
    ++out.rounds;
    if (window.elapsed() >= seconds && out.samples.size() >= kMinSamples) break;
  }
  window.Close(&out);
  world->engine->CloseSession(session);
  return out;
}

/// Closed loop: one client sends the round one query at a time, round after
/// round, until `seconds` have passed. The first round warms the pool and
/// is checked, not timed.
LoopResult RunClient(World* world, const std::vector<BenchQuery>& round,
                     double seconds, Checker* checker) {
  LoopResult out;
  Window window(checker);
  auto session = world->engine->OpenSession();
  for (bool warm = true;; warm = false) {
    std::vector<Sample> local;
    const Clock::time_point r0 = Clock::now();
    for (const BenchQuery& q : round) {
      const Clock::time_point t0 = Clock::now();
      auto h = session->Submit(q.sql);
      Sample s{q.shape, 0.0, 1e3 * Since(t0)};
      if (!h.ok()) {
        checker->Check(q, h.status(), "served");
        continue;
      }
      xprs::StatusOr<xprs::SqlResult> r = h->ticket.Wait();
      s.latency_ms = 1e3 * Since(t0);
      local.push_back(s);
      checker->Check(q, r, "served");
    }
    if (warm) {
      window.Open();
      continue;
    }
    out.samples.insert(out.samples.end(), local.begin(), local.end());
    out.round_s.push_back(Since(r0));
    out.round_wall_s.push_back(out.round_s.back());
    ++out.rounds;
    if (window.elapsed() >= seconds && out.samples.size() >= kMinSamples) break;
  }
  window.Close(&out);
  world->engine->CloseSession(session);
  return out;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics)
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- traced run: per-layer measurements ------------------------------------

const xprs::TraceValue* Arg(const xprs::TraceEvent& e, const char* key) {
  for (const auto& [k, v] : e.args)
    if (k == key) return &v;
  return nullptr;
}

double HistMean(xprs::Histogram* h) {
  return h->count() > 0 ? h->sum() / static_cast<double>(h->count()) : 0.0;
}
double HistMax(xprs::Histogram* h) { return h->count() > 0 ? h->max() : 0.0; }

/// One pass of `run` over the round, every result checked.
struct Pass {
  double seconds = 0;
  double cpu_seconds = 0;
  std::vector<double> per_query_ms;
};

template <typename Fn>
Pass RunPass(const std::vector<BenchQuery>& round, Checker* checker,
             const char* path, Fn run) {
  Pass pass;
  const double cpu0 = ProcessCpuSeconds();
  for (const BenchQuery& q : round) {
    const Clock::time_point t0 = Clock::now();
    xprs::StatusOr<xprs::SqlResult> r = run(q.sql);
    const double s = Since(t0);
    pass.seconds += s;
    pass.per_query_ms.push_back(1e3 * s);
    checker->Check(q, r, path);
  }
  pass.cpu_seconds = ProcessCpuSeconds() - cpu0;
  return pass;
}

void LayerMetrics(World* world, const std::vector<BenchQuery>& round,
                  const LoopResult& loop, const LoopCounters& counters,
                  xprs::MemoryTraceRecorder& recorder, Checker* checker,
                  std::vector<Metric>* m) {
  xprs::ServingEngine& engine = *world->engine;
  xprs::SqlEngine& sql = engine.sql_engine();

  // sql / opt: planning and admission estimates, timed per query.
  std::vector<double> plan_ms, estimate_ms;
  for (const BenchQuery& q : round) {
    Clock::time_point t0 = Clock::now();
    (void)sql.Explain(q.sql);
    plan_ms.push_back(1e3 * Since(t0));
    t0 = Clock::now();
    (void)sql.EstimateProfile(q.sql);
    estimate_ms.push_back(1e3 * Since(t0));
  }
  m->push_back({"sql.plan_ms", Median(plan_ms), "ms"});
  m->push_back({"sql.estimate_ms", Median(estimate_ms), "ms"});

  // serve: lifecycle spans and grants of the traced loop.
  std::vector<double> queue_ms, exec_ms, grants;
  for (const xprs::TraceEvent& e : recorder.snapshot()) {
    if (e.category != "serve") continue;
    if (e.phase == 'X' && e.name == "queue_wait") queue_ms.push_back(1e3 * e.duration);
    if (e.phase == 'X' && e.name == "execute") exec_ms.push_back(1e3 * e.duration);
    if (e.phase == 'i' && e.name == "grant")
      if (const xprs::TraceValue* p = Arg(e, "parallelism")) grants.push_back(p->num);
  }
  std::vector<double> submit_ms;
  for (const Sample& s : loop.samples) submit_ms.push_back(s.submit_ms);
  double grant_sum = 0, grant_max = 0;
  for (double g : grants) {
    grant_sum += g;
    grant_max = std::max(grant_max, g);
  }

  // Serial, then the parallel ladder, vectorized, and EXPLAIN ANALYZE, each
  // one pass over the round on the idle engine.
  xprs::ExecContext ctx;
  ctx.pool = engine.pool();
  Pass serial = RunPass(round, checker, "serial",
                        [&](const std::string& s) { return sql.Execute(s, ctx); });
  std::map<int, Pass> ladder;
  double d1_degree_max = 0;
  for (int slots : {1, 2, 4}) {
    xprs::MetricsRegistry pass_metrics;
    xprs::MasterOptions master;
    master.ctx = ctx;
    master.max_slots = slots;
    master.obs.metrics = &pass_metrics;
    ladder[slots] = RunPass(round, checker, "parallel", [&](const std::string& s) {
      return sql.ExecuteParallel(s, master);
    });
    if (slots == 1)
      d1_degree_max = HistMax(pass_metrics.histogram("sched.parallelism"));
  }
  xprs::ExecContext vctx = ctx;
  vctx.vectorized = true;
  Pass vectorized = RunPass(round, checker, "vectorized", [&](const std::string& s) {
    return sql.Execute(s, vctx);
  });
  Pass analyze = RunPass(round, checker, "analyze", [&](const std::string& s) {
    return sql.ExplainAnalyze(s, ctx);
  });
  // Serving overhead: what a client of the idle engine waits beyond the
  // query's own execute span (admission, dispatch, hand-back). Queries run
  // one at a time, so the execute spans are recorded in round order.
  recorder.Clear();
  auto session = engine.OpenSession();
  Pass served = RunPass(round, checker, "served_idle", [&](const std::string& s) {
    return session->Execute(s);
  });
  engine.CloseSession(session);
  std::vector<double> idle_exec_ms;
  for (const xprs::TraceEvent& e : recorder.snapshot())
    if (e.category == "serve" && e.phase == 'X' && e.name == "execute")
      idle_exec_ms.push_back(1e3 * e.duration);
  std::vector<double> overhead_ms;
  for (size_t i = 0; i < round.size() && i < idle_exec_ms.size(); ++i)
    overhead_ms.push_back(served.per_query_ms[i] - idle_exec_ms[i]);

  m->push_back({"serve.submit_ms", Median(submit_ms), "ms"});
  m->push_back({"serve.overhead_ms", Median(overhead_ms), "ms"});
  m->push_back({"serve.queue_wait_ms", Median(queue_ms), "ms"});
  m->push_back({"serve.execute_ms", Median(exec_ms), "ms"});
  m->push_back({"serve.grant_mean",
                grants.empty() ? 0.0 : grant_sum / static_cast<double>(grants.size()),
                "slots"});
  m->push_back({"serve.grant_max", grant_max, "slots"});

  m->push_back({"sched.pair_starts", counters.pair_starts, "count"});
  m->push_back({"sched.adjustments", counters.adjustments, "count"});
  m->push_back({"sched.degree_mean", counters.degree_mean, "slots"});
  m->push_back({"sched.degree_max", counters.degree_max, "slots"});

  m->push_back({"parallel.serial_ms", 1e3 * serial.seconds, "ms"});
  m->push_back({"parallel.d1_ms", 1e3 * ladder[1].seconds, "ms"});
  m->push_back({"parallel.d2_ms", 1e3 * ladder[2].seconds, "ms"});
  m->push_back({"parallel.d4_ms", 1e3 * ladder[4].seconds, "ms"});
  m->push_back({"parallel.speedup_d4", serial.seconds / ladder[4].seconds, "x"});
  m->push_back({"parallel.cpu_ratio_d1", ladder[1].cpu_seconds / serial.cpu_seconds, "x"});
  m->push_back({"parallel.d1_degree_max", d1_degree_max, "slots"});

  double input_rows = 0;
  for (const BenchQuery& q : round)
    for (const ref::Table* t : q.query.from)
      input_rows += static_cast<double>(t->num_rows());
  m->push_back({"exec.tuple_rows_per_s", input_rows / serial.seconds, "rows/s"});
  m->push_back({"exec.batch_rows_per_s", input_rows / vectorized.seconds, "rows/s"});

  m->push_back({"obs.profile_ratio", analyze.seconds / serial.seconds, "x"});
  m->push_back({"obs.slow_log_entries", counters.slow_log_entries, "count"});

  const double accesses = counters.pool_hits + counters.pool_misses;
  m->push_back({"storage.pool_hit_rate",
                accesses > 0 ? counters.pool_hits / accesses : 0, "ratio"});
  const xprs::DiskStats& disk = counters.disk;
  m->push_back({"storage.disk_reads", static_cast<double>(disk.reads), "count"});
  m->push_back({"storage.rand_reads", static_cast<double>(disk.rand_reads), "count"});
  m->push_back({"storage.disk_busy_s", disk.busy_seconds, "s"});
  m->push_back({"storage.interference_s", disk.interference_seconds, "s"});
  m->push_back({"storage.disk_utilization",
                disk.busy_seconds / (world->disks->num_disks() * counters.wall_s),
                "ratio"});

  std::printf(
      "over-grant: sched.degree_max=%g, largest serve grant=%g, host cores=%d, "
      "degree_max at max_slots 1=%g\n",
      counters.degree_max, grant_max, BenchMachine().num_cpus, d1_degree_max);
}

int Run(const std::string& name, uint64_t seed, double seconds, bool trace) {
  const Workload* w = FindWorkload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }

  // Declared before the world: the engine publishes into them until it is
  // destroyed.
  // A quarter of a million events covers tens of thousands of queries and
  // keeps a traced run's memory small.
  xprs::MemoryTraceRecorder recorder(1u << 18);
  xprs::MetricsRegistry registry;
  xprs::Observability obs;
  if (trace) obs = {&recorder, &registry};

  // Set up seven times and report the median; the last world is measured.
  constexpr int kSetups = 7;
  std::vector<SetupTimes> setups;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    auto built = SetUp(*w, seed, obs);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    world = std::move(*built);
    setups.push_back(world->times);
  }
  std::vector<BenchQuery> round = BuildRound(*w, *world, seed);
  std::printf("workload %s, seed %llu, %zu queries per round%s\n", w->name.c_str(),
              static_cast<unsigned long long>(seed), round.size(),
              w->batch ? ", submitted as one batch" : "");

  Checker checker;
  recorder.Clear();
  const xprs::BufferPoolStats pool0 = world->engine->pool()->stats();
  world->disks->ResetStats();
  const Clock::time_point loop0 = Clock::now();
  LoopResult loop = w->batch ? RunBatches(world.get(), round, seconds, &checker)
                             : RunClient(world.get(), round, seconds, &checker);
  LoopCounters counters;
  counters.wall_s = Since(loop0);
  counters.disk = world->disks->total_stats();
  const xprs::BufferPoolStats pool1 = world->engine->pool()->stats();
  counters.pool_hits = static_cast<double>(pool1.hits - pool0.hits);
  counters.pool_misses = static_cast<double>(pool1.misses - pool0.misses);
  counters.pair_starts =
      static_cast<double>(registry.counter("sched.pair_starts")->value());
  counters.adjustments =
      static_cast<double>(registry.counter("sched.adjustments")->value());
  counters.degree_mean = HistMean(registry.histogram("sched.parallelism"));
  counters.degree_max = HistMax(registry.histogram("sched.parallelism"));
  counters.slow_log_entries =
      static_cast<double>(world->engine->slow_query_log().size());

  std::vector<double> latencies;
  std::map<int, std::vector<double>> by_shape;
  for (const Sample& s : loop.samples) {
    latencies.push_back(s.latency_ms);
    by_shape[s.shape].push_back(s.latency_ms);
  }
  const double completed = static_cast<double>(loop.samples.size());
  // Throughput from the median round, so that a stretch of the run slowed by
  // other load on the host moves it less than a whole-window average would.
  const double qps = static_cast<double>(round.size()) / Median(loop.round_wall_s);
  std::printf("%d timed rounds, %zu timed queries in %.3f s\n", loop.rounds,
              loop.samples.size(), loop.measured_s);
  for (int i = 0; i < kShapes; ++i)
    std::printf("  q%d %-13s n=%-6zu p50=%.3f ms\n", i + 1, w->shapes[i].c_str(),
                by_shape[i].size(), Median(by_shape[i]));

  auto median_of = [&](double SetupTimes::*part) {
    std::vector<double> xs;
    for (const SetupTimes& t : setups) xs.push_back(t.*part);
    return Median(xs);
  };
  std::vector<double> setup_totals;
  for (const SetupTimes& t : setups) setup_totals.push_back(t.total());

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", Median(setup_totals), "s"},
        {"queries_per_s", qps, "1/s"},
        {"latency_p50_ms", Percentile(latencies, 0.50), "ms"},
        {"latency_p95_ms", ChunkedP95(latencies), "ms"},
        {"cpu_ms_per_query",
         1e3 * (loop.measured_cpu_s - loop.measured_check_cpu_s) / completed, "ms"},
        {"batch_turnaround_s", Median(loop.round_s), "s"},
    };
  } else {
    LayerMetrics(world.get(), round, loop, counters, recorder, &checker, &metrics);
    metrics.push_back({"setup.generate_s", median_of(&SetupTimes::generate_s), "s"});
    metrics.push_back({"setup.load_s", median_of(&SetupTimes::load_s), "s"});
    metrics.push_back({"setup.index_s", median_of(&SetupTimes::index_s), "s"});
    metrics.push_back({"setup.stats_s", median_of(&SetupTimes::stats_s), "s"});
    metrics.push_back({"setup.engine_s", median_of(&SetupTimes::engine_s), "s"});
    metrics.push_back({"trace.queries_per_s", qps, "1/s"});
    // Allocator arenas of the per-fragment slave threads make the peak vary
    // by a fifth between runs of one seed, too much for an end-to-end bound.
    metrics.push_back({"process.peak_rss_mb", PeakRssMb(), "MB"});
    for (int i = 0; i < kShapes; ++i)
      metrics.push_back({"query.q" + std::to_string(i + 1) + ".p50_ms",
                         Median(by_shape[i]), "ms"});
  }

  std::printf("checked %lld operations, %lld failed\n",
              static_cast<long long>(checker.attempted()),
              static_cast<long long>(checker.failed()));
  PrintResult(checker.failed() == 0, checker.attempted(), checker.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") trace = std::atoi(value);
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (workload.empty() || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(workload, seed, seconds, trace != 0);
}
