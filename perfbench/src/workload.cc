#include "workload.h"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace perfbench {

using ref::Agg;

namespace {

/// Seeded generator owned by the benchmark (splitmix64), so the inputs do
/// not change when the engine's own generator does.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(double p) { return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p; }

 private:
  uint64_t state_;
};

using Kind = ColumnGen::Kind;

ColumnGen Key(const char* name) { return {name, Kind::kKey}; }
ColumnGen Uni(const char* name, int64_t lo, int64_t hi, double null_frac = 0) {
  return {name, Kind::kUniform, lo, hi, null_frac};
}
ColumnGen Pad(const char* name, int width) {
  return {name, Kind::kPad, 0, 0, 0.0, width};
}
TableGen Gen(const char* name, int64_t rows, std::vector<ColumnGen> columns,
             int index_col = -1) {
  TableGen t;
  t.name = name;
  t.rows = rows;
  t.columns = std::move(columns);
  t.index_col = index_col;
  return t;
}

// Join output grows with the product of matching rows, so every join key
// is drawn from a domain sized to keep a join a few times its inputs.
std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  // One client, every query may take the whole machine: intra-operator
  // parallelism, the operators and the scans do the work. The buffer pool
  // holds a fraction of fact's pages, disks are instant.
  Workload solo;
  solo.name = "solo_scan";
  solo.tables = {
      Gen("fact", 240000,
          {Key("k"), Uni("g", 0, 49), Uni("v", 0, 999, 0.10),
           Uni("d", 0, 3999, 0.05), Pad("pad", 12)},
          0),
      Gen("dim", 4000, {Uni("k", 0, 3999, 0.05), Uni("w", 0, 99)}, 0),
  };
  solo.engine.pool_frames = 256;
  solo.engine.max_concurrent = 4;
  solo.batch = false;
  solo.shapes = {"sum_band",   "min_filter", "group_count",
                 "join_count", "join_rows",  "scan_rows"};
  all.push_back(solo);

  // The paper's section 3 scenario: batches that mix IO-bound scans of
  // wide tuples (two per page) with CPU-bound joins and aggregates over
  // narrow relations, on throttled disks and a small pool. The disks are
  // slow enough that the CPU-bound half fits in the shadow of the IO-bound
  // half when the two are paired.
  Workload batch;
  batch.name = "io_cpu_batch";
  batch.tables = {
      Gen("wide1", 800,
          {Key("k"), Uni("g", 0, 9), Uni("v", 0, 999, 0.10), Pad("pad", 3000)}),
      Gen("wide2", 800,
          {Key("k"), Uni("g", 0, 9), Uni("v", 0, 999, 0.10), Pad("pad", 3000)}),
      Gen("nar1", 30000,
          {Key("k"), Uni("j", 0, 9999, 0.05), Uni("g", 0, 99),
           Uni("v", 0, 999, 0.10)}),
      Gen("nar2", 30000,
          {Key("k"), Uni("j", 0, 9999, 0.05), Uni("g", 0, 99),
           Uni("v", 0, 999, 0.10)}),
  };
  batch.engine.disk_mode = xprs::DiskMode::kThrottled;
  batch.engine.disk_time_scale = 0.05;
  batch.engine.pool_frames = 32;
  batch.engine.max_concurrent = 8;
  // Armed as a deployed server runs it: every statement is profiled, and
  // the queries a batch keeps waiting land in the log.
  batch.engine.slow_query_ms = 500.0;
  batch.batch = true;
  batch.shapes = {"wide_sum",    "wide_min",     "wide_group",
                  "narrow_join", "narrow_group", "narrow_sum"};
  all.push_back(batch);
  return all;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

using Clock = std::chrono::steady_clock;
double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::unique_ptr<ref::Table> Generate(const TableGen& gen, Rand* rand) {
  std::vector<std::string> names;
  for (const ColumnGen& c : gen.columns) names.push_back(c.name);
  std::vector<bool> is_text;
  for (const ColumnGen& c : gen.columns) is_text.push_back(c.kind == Kind::kPad);
  const size_t n = static_cast<size_t>(gen.rows);
  auto table = std::make_unique<ref::Table>(gen.name, names, is_text, n);
  for (size_t c = 0; c < gen.columns.size(); ++c) {
    const ColumnGen& col = gen.columns[c];
    if (col.kind == Kind::kKey) {
      std::vector<int64_t> keys(n);
      std::iota(keys.begin(), keys.end(), 0);
      for (size_t i = n; i > 1; --i)
        std::swap(keys[i - 1], keys[rand->Next() % i]);
      for (size_t r = 0; r < n; ++r) table->Set(r, c, ref::Val::Int(keys[r]));
    } else if (col.kind == Kind::kUniform) {
      for (size_t r = 0; r < n; ++r)
        if (!rand->Chance(col.null_frac))
          table->Set(r, c, ref::Val::Int(rand->Uniform(col.lo, col.hi)));
    } else {
      for (size_t r = 0; r < n; ++r) {
        std::string s(static_cast<size_t>(col.width), 'a');
        const uint64_t bits = rand->Next();
        for (size_t i = 0; i < s.size(); i += 61)
          s[i] = static_cast<char>('a' + (bits >> (i % 60)) % 26);
        table->Set(r, c, ref::Val::Text(std::move(s)));
      }
    }
  }
  return table;
}

xprs::Schema EngineSchema(const TableGen& gen) {
  std::vector<xprs::Column> cols;
  for (const ColumnGen& c : gen.columns)
    cols.push_back({c.name, c.kind == Kind::kPad ? xprs::TypeId::kText
                                                 : xprs::TypeId::kInt4});
  return xprs::Schema(std::move(cols));
}

xprs::Tuple EngineTuple(const ref::Table& table, size_t row) {
  std::vector<xprs::Value> values;
  values.reserve(table.columns().size());
  for (size_t c = 0; c < table.columns().size(); ++c) {
    if (table.null(row, c))
      values.emplace_back(std::monostate());
    else if (table.is_text(c))
      values.emplace_back(table.At(row, c).s);
    else
      values.emplace_back(static_cast<int32_t>(table.Int(row, c)));
  }
  return xprs::Tuple(std::move(values));
}

// --- query construction ----------------------------------------------------

const ref::Table& TableNamed(const World& world, const std::string& name) {
  for (const auto& t : world.tables)
    if (t->name() == name) return *t;
  std::abort();  // workload definitions name only their own tables
}

int ColumnNamed(const ref::Table& t, const std::string& name) {
  for (size_t i = 0; i < t.columns().size(); ++i)
    if (t.columns()[i] == name) return static_cast<int>(i);
  std::abort();
}

/// Builds a ref::Query and its SQL text side by side.
class QueryBuilder {
 public:
  QueryBuilder(const World& world, const char* t0, const char* t1 = nullptr) {
    q_.from.push_back(&TableNamed(world, t0));
    if (t1 != nullptr) q_.from.push_back(&TableNamed(world, t1));
  }
  /// `col BETWEEN lo AND lo + width - 1`.
  QueryBuilder& Band(int rel, const char* col, int64_t lo, int64_t width) {
    q_.filters.push_back({C(rel, col), lo, lo + width - 1});
    return *this;
  }
  QueryBuilder& Join(const char* left_col, const char* right_col) {
    q_.join = {C(0, left_col), C(1, right_col)};
    return *this;
  }
  QueryBuilder& Select(std::vector<std::pair<int, const char*>> cols) {
    for (const auto& [rel, col] : cols) q_.select.push_back(C(rel, col));
    return *this;
  }
  QueryBuilder& Aggregate(Agg agg, int rel, const char* col) {
    q_.agg = agg;
    q_.agg_col = C(rel, col);
    return *this;
  }
  QueryBuilder& GroupBy(int rel, const char* col) {
    q_.group_by = C(rel, col);
    return *this;
  }

  BenchQuery Build(int shape) const {
    BenchQuery b;
    b.shape = shape;
    b.query = q_;
    b.sql = Sql();
    b.expected = ref::Evaluate(q_);
    return b;
  }

 private:
  ref::ColRef C(int rel, const char* col) const {
    return {rel, ColumnNamed(*q_.from[rel], col)};
  }
  std::string Name(const ref::ColRef& c) const {
    return std::string(c.rel == 0 ? "x." : "y.") +
           q_.from[c.rel]->columns()[c.col];
  }
  std::string Sql() const {
    static const char* kAgg[] = {"", "count", "sum", "min"};
    std::string s = "SELECT ";
    if (q_.agg == Agg::kNone) {
      for (size_t i = 0; i < q_.select.size(); ++i)
        s += (i ? ", " : "") + Name(q_.select[i]);
    } else {
      s += std::string(kAgg[static_cast<int>(q_.agg)]) + "(" +
           Name(q_.agg_col) + ")";
    }
    s += " FROM " + q_.from[0]->name() + " x";
    if (q_.from.size() > 1) s += ", " + q_.from[1]->name() + " y";
    std::vector<std::string> conds;
    if (q_.join.has_value())
      conds.push_back(Name(q_.join->first) + " = " + Name(q_.join->second));
    for (const ref::Filter& f : q_.filters)
      conds.push_back(Name(f.col) + " BETWEEN " + std::to_string(f.lo) +
                      " AND " + std::to_string(f.hi));
    for (size_t i = 0; i < conds.size(); ++i)
      s += (i ? " AND " : " WHERE ") + conds[i];
    if (q_.group_by.has_value()) s += " GROUP BY " + Name(*q_.group_by);
    return s;
  }

  ref::Query q_;
};

// Every constant moves where a filter looks, never how much it keeps, so
// each seed asks for the same amount of work.
BenchQuery SoloQuery(const World& w, Rand* r, int shape) {
  switch (shape) {
    case 0:
      return QueryBuilder(w, "fact")
          .Band(0, "k", r->Uniform(0, 120000), 120000)
          .Aggregate(Agg::kSum, 0, "v")
          .Build(0);
    case 1:
      return QueryBuilder(w, "fact")
          .Band(0, "g", r->Uniform(0, 25), 25)
          .Aggregate(Agg::kMin, 0, "v")
          .Build(1);
    case 2:
      return QueryBuilder(w, "fact")
          .Band(0, "k", r->Uniform(0, 120000), 120000)
          .Aggregate(Agg::kCount, 0, "v")
          .GroupBy(0, "g")
          .Build(2);
    case 3:
      return QueryBuilder(w, "fact", "dim")
          .Join("d", "k")
          .Band(0, "g", r->Uniform(0, 40), 10)
          .Band(1, "w", r->Uniform(0, 80), 20)
          .Aggregate(Agg::kCount, 0, "v")
          .Build(3);
    case 4:
      return QueryBuilder(w, "fact", "dim")
          .Join("d", "k")
          .Band(0, "v", r->Uniform(0, 995), 5)
          .Select({{0, "k"}, {1, "w"}})
          .Build(4);
    default:
      return QueryBuilder(w, "fact")
          .Band(0, "v", r->Uniform(0, 990), 10)
          .Select({{0, "k"}, {0, "v"}})
          .Build(5);
  }
}

// Twenty queries. join_count, about twice as slow as any other shape, is
// two of them, a tenth of the round: the 95th percentile falls at the
// middle of its latencies, not in their tail, which other load on a shared
// host stretches most.
std::vector<BenchQuery> SoloRound(const World& w, Rand* r) {
  constexpr int kCopies[kShapes] = {4, 4, 4, 2, 3, 3};
  std::vector<BenchQuery> round;
  for (int rep = 0; rep < 4; ++rep)
    for (int shape = 0; shape < kShapes; ++shape)
      if (rep < kCopies[shape]) round.push_back(SoloQuery(w, r, shape));
  return round;
}

// Four IO-bound scans of wide tuples, four CPU-bound narrow queries.
std::vector<BenchQuery> BatchRound(const World& w, Rand* r) {
  std::vector<BenchQuery> round;
  for (const char* t : {"wide1", "wide2"})
    round.push_back(QueryBuilder(w, t)
                        .Band(0, "g", r->Uniform(0, 5), 5)
                        .Aggregate(Agg::kSum, 0, "v")
                        .Build(0));
  round.push_back(QueryBuilder(w, "wide2")
                      .Band(0, "k", r->Uniform(0, 400), 400)
                      .Aggregate(Agg::kMin, 0, "v")
                      .Build(1));
  round.push_back(QueryBuilder(w, "wide1")
                      .Aggregate(Agg::kCount, 0, "v")
                      .GroupBy(0, "g")
                      .Build(2));
  for (int rep = 0; rep < 2; ++rep)
    round.push_back(QueryBuilder(w, "nar1", "nar2")
                        .Join("j", "j")
                        .Band(0, "k", r->Uniform(0, 15000), 15000)
                        .Aggregate(Agg::kCount, 1, "v")
                        .Build(3));
  round.push_back(QueryBuilder(w, "nar1")
                      .Band(0, "j", r->Uniform(0, 5000), 5000)
                      .Aggregate(Agg::kCount, 0, "v")
                      .GroupBy(0, "g")
                      .Build(4));
  round.push_back(QueryBuilder(w, "nar2")
                      .Band(0, "j", r->Uniform(0, 5000), 5000)
                      .Aggregate(Agg::kSum, 0, "v")
                      .Build(5));
  return round;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads())
    if (w.name == name) return &w;
  return nullptr;
}

xprs::MachineConfig BenchMachine() {
  xprs::MachineConfig machine = xprs::MachineConfig::PaperConfig();
  machine.num_cpus = 4;
  return machine;
}

xprs::StatusOr<std::unique_ptr<World>> SetUp(const Workload& w, uint64_t seed,
                                             const xprs::Observability& obs) {
  auto world = std::make_unique<World>();
  const xprs::MachineConfig machine = BenchMachine();

  auto t0 = Clock::now();
  Rand rand(seed);
  for (const TableGen& gen : w.tables) world->tables.push_back(Generate(gen, &rand));
  world->times.generate_s = Since(t0);

  t0 = Clock::now();
  xprs::DiskTimings timings;
  timings.time_scale = w.engine.disk_time_scale;
  world->disks = std::make_unique<xprs::DiskArray>(machine.num_disks,
                                                   w.engine.disk_mode, timings);
  world->catalog = std::make_unique<xprs::Catalog>(world->disks.get());
  std::vector<xprs::Table*> loaded;
  for (size_t i = 0; i < w.tables.size(); ++i) {
    XPRS_ASSIGN_OR_RETURN(
        xprs::Table * table,
        world->catalog->CreateTable(w.tables[i].name, EngineSchema(w.tables[i])));
    const ref::Table& rows = *world->tables[i];
    for (size_t r = 0; r < rows.num_rows(); ++r)
      XPRS_RETURN_IF_ERROR(table->file().Append(EngineTuple(rows, r)));
    XPRS_RETURN_IF_ERROR(table->file().Flush());
    loaded.push_back(table);
  }
  world->times.load_s = Since(t0);

  t0 = Clock::now();
  for (size_t i = 0; i < w.tables.size(); ++i)
    if (w.tables[i].index_col >= 0)
      XPRS_RETURN_IF_ERROR(loaded[i]->BuildIndex(w.tables[i].index_col));
  world->times.index_s = Since(t0);

  t0 = Clock::now();
  for (size_t i = 0; i < w.tables.size(); ++i)
    XPRS_RETURN_IF_ERROR(
        loaded[i]->ComputeStats(std::max(0, w.tables[i].index_col)));
  world->times.stats_s = Since(t0);

  t0 = Clock::now();
  world->model = std::make_unique<xprs::CostModel>();
  xprs::ServingEngine::Options options;
  options.serve.machine = machine;
  options.serve.max_concurrent = w.engine.max_concurrent;
  options.serve.max_queue_depth = 1024;
  options.serve.obs = obs;
  options.buffer_pool_frames = w.engine.pool_frames;
  options.slow_query_seconds = w.engine.slow_query_ms / 1e3;
  world->engine = std::make_unique<xprs::ServingEngine>(
      world->catalog.get(), machine, world->model.get(), std::move(options));
  world->times.engine_s = Since(t0);
  return world;
}

std::vector<BenchQuery> BuildRound(const Workload& w, const World& world,
                                   uint64_t seed) {
  Rand rand(seed ^ 0x5EED0F0E7A11ULL);
  return w.batch ? BatchRound(world, &rand) : SoloRound(world, &rand);
}

}  // namespace perfbench
