// The benchmark's workloads: seeded table generators, the engine
// configuration each one runs under, and the fixed round of queries each
// one repeats, with the reference answer of every query.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "opt/cost_model.h"
#include "reference.h"
#include "serve/serving_engine.h"
#include "storage/catalog.h"

namespace perfbench {

struct ColumnGen {
  enum class Kind {
    kKey,      ///< a shuffled permutation of 0..rows-1, never NULL
    kUniform,  ///< uniform in [lo, hi], NULL with probability null_frac
    kPad,      ///< text of `width` letters
  };
  std::string name;
  Kind kind = Kind::kUniform;
  int64_t lo = 0;
  int64_t hi = 0;
  double null_frac = 0.0;
  int width = 0;
};

struct TableGen {
  std::string name;
  int64_t rows = 0;
  std::vector<ColumnGen> columns;
  /// Column carrying the B+tree index and the key statistics; -1 = none
  /// (statistics then describe column 0).
  int index_col = -1;
};

/// How the engine is configured for a workload.
struct EngineConfig {
  xprs::DiskMode disk_mode = xprs::DiskMode::kInstant;
  double disk_time_scale = 1.0;
  size_t pool_frames = 0;
  int max_concurrent = 4;
  double slow_query_ms = 0.0;
};

/// One query of a round: the SQL the engine gets, the same query for the
/// reference, and the reference's answer.
struct BenchQuery {
  int shape = 0;  ///< index into Workload::shapes
  std::string sql;
  ref::Query query;
  ref::Result expected;
};

struct Workload {
  std::string name;
  std::vector<TableGen> tables;
  EngineConfig engine;
  /// false: one client sends the round one query at a time. true: one
  /// thread submits the whole round at once and waits for all of it.
  bool batch = false;
  /// Exactly kShapes names; query.q<i>.p50_ms reports shape i-1.
  std::vector<std::string> shapes;
};

constexpr int kShapes = 6;

/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// The host size every workload is configured for.
xprs::MachineConfig BenchMachine();

struct SetupTimes {
  double generate_s = 0;
  double load_s = 0;
  double index_s = 0;
  double stats_s = 0;
  double engine_s = 0;
  double total() const {
    return generate_s + load_s + index_s + stats_s + engine_s;
  }
};

/// Everything one set-up builds. Members are destroyed engine first.
struct World {
  std::vector<std::unique_ptr<ref::Table>> tables;  ///< the reference copy
  std::unique_ptr<xprs::DiskArray> disks;
  std::unique_ptr<xprs::Catalog> catalog;
  std::unique_ptr<xprs::CostModel> model;
  std::unique_ptr<xprs::ServingEngine> engine;
  SetupTimes times;
};

/// Generates the workload's tables from `seed`, loads them through the
/// public storage API, and starts a ServingEngine with `obs` attached.
xprs::StatusOr<std::unique_ptr<World>> SetUp(const Workload& w, uint64_t seed,
                                             const xprs::Observability& obs);

/// The workload's fixed round of queries for `seed`, with reference answers.
std::vector<BenchQuery> BuildRound(const Workload& w, const World& world,
                                   uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
