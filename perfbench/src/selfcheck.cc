// Self-check of the reference evaluator: hand-written tables whose answers
// were worked out by hand. Covers NULL keys (in filters, joins and GROUP BY),
// an empty range, duplicate join keys and group-by.
//
//   reference_selfcheck        exits 0 when every case matches

#include <cstdio>
#include <tuple>

#include "reference.h"

namespace {

using ref::Agg;
using ref::ColRef;
using ref::Query;
using ref::Result;
using ref::Row;
using ref::Val;

Val I(int64_t v) { return Val::Int(v); }
const Val N = Val::Null();

// t(k, g, v):
//   (1, 10, 5) (2, 10, NULL) (3, 20, 7) (4, NULL, 2) (5, NULL, NULL)
//   (6, 30, NULL)
const ref::Table kT = ref::Table::FromRows(
    "t", {"k", "g", "v"},
    {{I(1), I(10), I(5)},
     {I(2), I(10), N},
     {I(3), I(20), I(7)},
     {I(4), N, I(2)},
     {I(5), N, N},
     {I(6), I(30), N}});

// u(k, w): key 1 appears twice, one key is NULL.
//   (1, 100) (1, 101) (3, 300) (NULL, 999) (7, 700)
const ref::Table kU = ref::Table::FromRows(
    "u", {"k", "w"},
    {{I(1), I(100)},
     {I(1), I(101)},
     {I(3), I(300)},
     {N, I(999)},
     {I(7), I(700)}});

Query Agg1(Agg agg, int col) {
  Query q;
  q.from = {&kT};
  q.agg = agg;
  q.agg_col = {0, col};
  return q;
}

int failures = 0;

void Expect(const char* name, const Query& q, Result want) {
  ref::Canonicalize(&want);
  const Result got = ref::Evaluate(q);
  const bool ok = got == want;
  if (!ok) ++failures;
  std::printf("%-4s %-40s got %s\n", ok ? "ok" : "FAIL", name,
              ref::Describe(got, 8).c_str());
  if (!ok) std::printf("     want %s\n", ref::Describe(want, 8).c_str());
}

}  // namespace

int main() {
  // count/sum/min skip NULL values: v = {5, 7, 2}.
  Expect("count(v)", Agg1(Agg::kCount, 2), {{I(3)}});
  Expect("sum(v)", Agg1(Agg::kSum, 2), {{I(14)}});
  Expect("min(v)", Agg1(Agg::kMin, 2), {{I(2)}});

  // An empty range still yields one row: count 0, sum/min NULL.
  for (auto [agg, want, name] :
       {std::tuple{Agg::kCount, I(0), "count(v) k BETWEEN 10 AND 20"},
        std::tuple{Agg::kSum, N, "sum(v) k BETWEEN 10 AND 20"},
        std::tuple{Agg::kMin, N, "min(v) k BETWEEN 10 AND 20"}}) {
    Query q = Agg1(agg, 2);
    q.filters = {{{0, 0}, 10, 20}};
    Expect(name, q, {{want}});
  }

  // A comparison with NULL is unknown: rows with v NULL never qualify.
  {
    Query q;
    q.from = {&kT};
    q.filters = {{{0, 2}, 5, 100}};
    q.select = {{0, 0}};
    Expect("k WHERE v BETWEEN 5 AND 100", q, {{I(1)}, {I(3)}});
    q.filters = {{{0, 2}, 0, 6}};
    Expect("k WHERE v BETWEEN 0 AND 6", q, {{I(1)}, {I(4)}});
  }

  // GROUP BY: NULL keys form one group; an all-NULL group counts 0 and
  // sums to NULL.
  {
    Query q = Agg1(Agg::kCount, 2);
    q.group_by = ColRef{0, 1};
    Expect("count(v) GROUP BY g", q,
           {{N, I(1)}, {I(10), I(1)}, {I(20), I(1)}, {I(30), I(0)}});
    q.agg = Agg::kSum;
    Expect("sum(v) GROUP BY g", q,
           {{N, I(2)}, {I(10), I(5)}, {I(20), I(7)}, {I(30), N}});
  }

  // Equi-join: duplicate key 1 yields two rows, the NULL key none.
  Query join;
  join.from = {&kT, &kU};
  join.join = {{0, 0}, {1, 0}};
  join.select = {{0, 0}, {1, 1}};
  Expect("t.k, u.w WHERE t.k = u.k", join,
         {{I(1), I(100)}, {I(1), I(101)}, {I(3), I(300)}});
  {
    Query q = join;
    q.join = {{0, 2}, {1, 0}};  // t.v = u.k: NULLs on both sides
    Expect("t.k, u.w WHERE t.v = u.k", q, {{I(3), I(700)}});
  }
  {
    Query q = join;
    q.select.clear();
    q.agg = Agg::kCount;
    q.agg_col = {1, 1};
    q.filters = {{{1, 1}, 101, 999}};
    Expect("count(u.w) join, u.w BETWEEN 101 AND 999", q, {{I(2)}});
    q.filters.clear();
    q.group_by = ColRef{0, 1};
    Expect("count(u.w) join GROUP BY t.g", q, {{I(10), I(2)}, {I(20), I(1)}});
  }

  std::printf("reference self-check: %s (%d failed)\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
