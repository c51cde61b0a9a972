// Tests for the Aggregate operator and its integration with plans,
// fragments (blocking boundary) and the cost model.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/fragment.h"
#include "opt/cost_model.h"
#include "sql/engine.h"
#include "storage/catalog.h"

namespace xprs {
namespace {

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(2, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    t_ = catalog_->CreateTable("t", Schema::PaperSchema()).value();
    // Keys 0,1,2 cycling over 90 rows; values = row index.
    for (int i = 0; i < 90; ++i) {
      ASSERT_TRUE(t_->file()
                      .Append(Tuple({Value(int32_t{i % 3}),
                                     Value(std::string("x"))}))
                      .ok());
    }
    // A NULL key row (skipped by group-by) and a NULL never happens for
    // int col 0 here; instead test NULL agg input via a second table.
    ASSERT_TRUE(t_->file().Flush().ok());
    ASSERT_TRUE(t_->ComputeStats().ok());
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* t_ = nullptr;
  ExecContext ctx_;
};

TEST_F(AggregateTest, GlobalCount) {
  auto plan = MakeAggregate(MakeSeqScan(t_, Predicate()), AggFunc::kCount, 0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(std::get<int32_t>((*rows)[0].value(0)), 90);
}

TEST_F(AggregateTest, GlobalSumMinMax) {
  for (auto [func, expected] :
       std::vector<std::pair<AggFunc, int32_t>>{{AggFunc::kSum, 90},
                                                {AggFunc::kMin, 0},
                                                {AggFunc::kMax, 2}}) {
    auto plan = MakeAggregate(MakeSeqScan(t_, Predicate()), func, 0);
    auto rows = ExecutePlanSequential(*plan, ctx_);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ(std::get<int32_t>((*rows)[0].value(0)), expected)
        << AggFuncName(func);
  }
}

TEST_F(AggregateTest, GroupByCountsPerGroup) {
  auto plan = MakeAggregate(MakeSeqScan(t_, Predicate()), AggFunc::kCount, 0,
                            /*group_col=*/0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);  // groups 0,1,2 in key order
  for (int g = 0; g < 3; ++g) {
    EXPECT_EQ(std::get<int32_t>((*rows)[g].value(0)), g);
    EXPECT_EQ(std::get<int32_t>((*rows)[g].value(1)), 30);
  }
}

TEST_F(AggregateTest, PredicateBeforeAggregate) {
  auto plan = MakeAggregate(MakeSeqScan(t_, Predicate::Between(0, 1, 2)),
                            AggFunc::kCount, 0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(std::get<int32_t>((*rows)[0].value(0)), 60);
}

TEST_F(AggregateTest, EmptyInputCountIsZero) {
  auto plan = MakeAggregate(MakeSeqScan(t_, Predicate::Between(0, 99, 99)),
                            AggFunc::kCount, 0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(std::get<int32_t>((*rows)[0].value(0)), 0);
}

TEST_F(AggregateTest, EmptyInputMinIsOneNullRow) {
  auto plan = MakeAggregate(MakeSeqScan(t_, Predicate::Between(0, 99, 99)),
                            AggFunc::kMin, 0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_TRUE(IsNull((*rows)[0].value(0)));
}

TEST_F(AggregateTest, NullInputsSkipped) {
  Table* n = catalog_->CreateTable("nulls", Schema::PaperSchema()).value();
  ASSERT_TRUE(
      n->file().Append(Tuple({Value(int32_t{5}), Value(std::string())})).ok());
  ASSERT_TRUE(n->file()
                  .Append(Tuple({Value(std::monostate{}),
                                 Value(std::string())}))
                  .ok());
  ASSERT_TRUE(n->file().Flush().ok());
  ASSERT_TRUE(n->ComputeStats().ok());
  auto plan = MakeAggregate(MakeSeqScan(n, Predicate()), AggFunc::kCount, 0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(std::get<int32_t>((*rows)[0].value(0)), 1);  // NULL skipped
}

// SQL NULL semantics through every execution path: the serial and
// vectorized executors and the parallel master (tuple and batch slaves,
// whose partial aggregates the two-phase combine merges).
class AggregateNullTest : public AggregateTest {
 protected:
  // The probe table (g, v): rows (1,5), (1,NULL), (NULL,3), (NULL,NULL),
  // (2,NULL), repeated `copies` times. A wide pad column makes many copies
  // span several pages, so parallel slaves each aggregate a share.
  void MakeProbe(int copies) {
    Table* probe =
        catalog_
            ->CreateTable("probe", Schema({{"g", TypeId::kInt4},
                                           {"v", TypeId::kInt4},
                                           {"pad", TypeId::kText}}))
            .value();
    const Value null;
    const std::vector<std::pair<Value, Value>> rows = {
        {Value(int32_t{1}), Value(int32_t{5})},
        {Value(int32_t{1}), null},
        {null, Value(int32_t{3})},
        {null, null},
        {Value(int32_t{2}), null}};
    for (int c = 0; c < copies; ++c) {
      for (const auto& [g, v] : rows) {
        ASSERT_TRUE(probe->file()
                        .Append(Tuple({g, v, Value(std::string(400, 'p'))}))
                        .ok());
      }
    }
    ASSERT_TRUE(probe->file().Flush().ok());
    ASSERT_TRUE(probe->ComputeStats().ok());
    engine_ = std::make_unique<SqlEngine>(
        catalog_.get(), MachineConfig::PaperConfig(), &model_);
  }

  // Runs `sql` through every path and expects exactly `want` (in order).
  void ExpectEverywhere(const std::string& sql,
                        const std::vector<std::string>& want) {
    ExecContext vectorized;
    vectorized.vectorized = true;
    MasterOptions parallel;
    parallel.max_slots = 4;
    MasterOptions parallel_vectorized = parallel;
    parallel_vectorized.ctx.vectorized = true;
    const std::vector<std::pair<std::string, StatusOr<SqlResult>>> runs = {
        {"serial", engine_->Execute(sql)},
        {"vectorized", engine_->Execute(sql, vectorized)},
        {"parallel", engine_->ExecuteParallel(sql, parallel)},
        {"parallel-vectorized",
         engine_->ExecuteParallel(sql, parallel_vectorized)}};
    for (const auto& [mode, result] : runs) {
      ASSERT_TRUE(result.ok()) << mode << ": " << result.status().ToString();
      std::vector<std::string> got;
      for (const Tuple& row : result->rows) got.push_back(row.ToString());
      EXPECT_EQ(got, want) << mode << ": " << sql;
    }
  }

  CostModel model_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(AggregateNullTest, NullGroupKeysFormOneGroup) {
  MakeProbe(1);
  // The NULL key is a group; group 2 holds only NULL values.
  ExpectEverywhere("SELECT count(x.v) FROM probe x GROUP BY x.g",
                   {"(NULL, 1)", "(1, 1)", "(2, 0)"});
  ExpectEverywhere("SELECT sum(x.v) FROM probe x GROUP BY x.g",
                   {"(NULL, 3)", "(1, 5)", "(2, NULL)"});
  ExpectEverywhere("SELECT min(x.v) FROM probe x GROUP BY x.g",
                   {"(NULL, 3)", "(1, 5)", "(2, NULL)"});
}

TEST_F(AggregateNullTest, NullGroupsCombineAcrossSlaves) {
  MakeProbe(40);
  ASSERT_GE(catalog_->GetTable("probe").value()->file().num_pages(), 8u);
  ExpectEverywhere("SELECT count(x.v) FROM probe x GROUP BY x.g",
                   {"(NULL, 40)", "(1, 40)", "(2, 0)"});
  ExpectEverywhere("SELECT sum(x.v) FROM probe x GROUP BY x.g",
                   {"(NULL, 120)", "(1, 200)", "(2, NULL)"});
  ExpectEverywhere("SELECT max(x.v) FROM probe x GROUP BY x.g",
                   {"(NULL, 3)", "(1, 5)", "(2, NULL)"});
}

TEST_F(AggregateNullTest, EmptyRangeYieldsOneRow) {
  MakeProbe(40);
  const std::string empty = " FROM probe x WHERE x.g BETWEEN -10 AND -1";
  ExpectEverywhere("SELECT sum(x.v)" + empty, {"(NULL)"});
  ExpectEverywhere("SELECT min(x.v)" + empty, {"(NULL)"});
  ExpectEverywhere("SELECT count(x.v)" + empty, {"(0)"});
  // A global aggregate over values that are all NULL.
  ExpectEverywhere("SELECT sum(x.v) FROM probe x WHERE x.g BETWEEN 2 AND 2",
                   {"(NULL)"});
}

TEST_F(AggregateTest, AggregateOverJoin) {
  // count rows of t join t on key: 90 rows x 30 matches each = 2700.
  auto plan = MakeAggregate(
      MakeHashJoin(MakeSeqScan(t_, Predicate()), MakeSeqScan(t_, Predicate()),
                   0, 0),
      AggFunc::kCount, 0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(std::get<int32_t>((*rows)[0].value(0)), 2700);
}

TEST_F(AggregateTest, AggregateIsFragmentBoundaryMidPlan) {
  // Aggregate feeding a hash-join probe: the aggregate subtree must form
  // its own fragment (blocking producer), like Sort.
  auto agg = MakeAggregate(MakeSeqScan(t_, Predicate()), AggFunc::kCount, 0,
                           /*group_col=*/0);
  auto plan = MakeHashJoin(std::move(agg), MakeSeqScan(t_, Predicate()), 0, 0);
  FragmentGraph g = FragmentGraph::Decompose(*plan);
  // probe fragment + aggregate fragment + build fragment.
  EXPECT_EQ(g.fragments().size(), 3u);

  auto seq = ExecutePlanSequential(*plan, ctx_);
  auto frag = ExecutePlanFragmented(*plan, ctx_);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  EXPECT_EQ(seq->size(), frag->size());
  EXPECT_EQ(seq->size(), 90u);  // 3 groups x 30 matching rows each
}

TEST_F(AggregateTest, RootAggregateIsSingleFragment) {
  auto plan = MakeAggregate(MakeSeqScan(t_, Predicate()), AggFunc::kSum, 0);
  FragmentGraph g = FragmentGraph::Decompose(*plan);
  EXPECT_EQ(g.fragments().size(), 1u);
}

TEST_F(AggregateTest, CostModelEstimatesAggregate) {
  CostModel model;
  auto scan = MakeSeqScan(t_, Predicate());
  double scan_cost = model.SeqCost(*scan);
  auto plan = MakeAggregate(std::move(scan), AggFunc::kCount, 0, 0);
  PlanEstimate est = model.Estimate(*plan);
  EXPECT_GT(est.seq_time, scan_cost);  // aggregation adds cpu
  EXPECT_LT(est.rows, 91.0);           // grouping reduces cardinality
  EXPECT_GE(est.rows, 1.0);
}

TEST_F(AggregateTest, OutputSchemaShape) {
  auto global = MakeAggregate(MakeSeqScan(t_, Predicate()), AggFunc::kMax, 0);
  EXPECT_EQ(global->output_schema.num_columns(), 1u);
  auto grouped = MakeAggregate(MakeSeqScan(t_, Predicate()), AggFunc::kMax, 0,
                               /*group_col=*/0);
  EXPECT_EQ(grouped->output_schema.num_columns(), 2u);
  EXPECT_EQ(grouped->output_schema.column(1).name, "max");
}

}  // namespace
}  // namespace xprs
