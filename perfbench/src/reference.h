// Reference evaluator: the benchmark's own answer to every query it sends
// through the engine.
//
// It shares no code with the engine. It runs plain loops over the
// benchmark's copy of the generated rows: BETWEEN filters, count/sum/min
// with or without GROUP BY, and one equi-join through per-key row lists, all
// with SQL NULL semantics:
//   - a comparison with NULL is unknown, so the row does not qualify;
//   - NULL join keys match nothing;
//   - count(c) counts non-NULL values; sum/min ignore NULLs and are NULL
//     when no non-NULL value remains;
//   - an aggregate without GROUP BY returns exactly one row;
//   - GROUP BY puts every NULL key into one group, and a group whose
//     aggregated values are all NULL still appears.
// Results are multisets of typed rows, compared after sorting.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ref {

/// One typed SQL value: NULL, an integer or a text.
struct Val {
  enum class Kind : uint8_t { kNull, kInt, kText };
  Kind kind = Kind::kNull;
  int64_t i = 0;
  std::string s;

  static Val Null() { return Val(); }
  static Val Int(int64_t v) {
    Val x;
    x.kind = Kind::kInt;
    x.i = v;
    return x;
  }
  static Val Text(std::string v) {
    Val x;
    x.kind = Kind::kText;
    x.s = std::move(v);
    return x;
  }
  bool null() const { return kind == Kind::kNull; }

  bool operator==(const Val& o) const {
    return kind == o.kind && i == o.i && s == o.s;
  }
  bool operator<(const Val& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (i != o.i) return i < o.i;
    return s < o.s;
  }
  std::string ToString() const;
};

using Row = std::vector<Val>;

/// A relation stored column by column: integers in one vector with a NULL
/// flag beside each, text in another.
class Table {
 public:
  Table(std::string name, std::vector<std::string> columns,
        std::vector<bool> is_text, size_t num_rows);
  /// A table from literal rows; a column is text when any value is.
  static Table FromRows(std::string name, std::vector<std::string> columns,
                        const std::vector<Row>& rows);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& columns() const { return columns_; }
  size_t num_rows() const { return num_rows_; }
  bool is_text(size_t col) const { return data_[col].is_text; }

  bool null(size_t row, size_t col) const { return data_[col].null[row]; }
  int64_t Int(size_t row, size_t col) const { return data_[col].ints[row]; }
  Val At(size_t row, size_t col) const;
  void Set(size_t row, size_t col, const Val& v);

 private:
  struct Column {
    bool is_text = false;
    std::vector<uint8_t> null;
    std::vector<int64_t> ints;
    std::vector<std::string> texts;
  };
  std::string name_;
  std::vector<std::string> columns_;
  size_t num_rows_;
  std::vector<Column> data_;
};

/// A column of the query's i-th FROM relation.
struct ColRef {
  int rel = 0;
  int col = 0;
};

/// `col BETWEEN lo AND hi`. Constants are integers.
struct Filter {
  ColRef col;
  int64_t lo = 0;
  int64_t hi = 0;
};

enum class Agg { kNone, kCount, kSum, kMin };

/// SELECT <select | agg(agg_col)> FROM <tables> WHERE <filters> [AND join]
/// [GROUP BY group_by]. With GROUP BY the result rows are (key, aggregate).
struct Query {
  std::vector<const Table*> from;  ///< one or two relations
  std::vector<Filter> filters;
  std::optional<std::pair<ColRef, ColRef>> join;  ///< from[0] = from[1]
  std::vector<ColRef> select;                     ///< when agg == kNone
  Agg agg = Agg::kNone;
  ColRef agg_col;
  std::optional<ColRef> group_by;
};

/// Sorted multiset of result rows.
using Result = std::vector<Row>;

/// Evaluates `q` by plain loops. The result is sorted.
Result Evaluate(const Query& q);

/// Sorts rows into the canonical order Evaluate returns.
void Canonicalize(Result* rows);

/// Human-readable rendering of a few rows, for mismatch reports.
std::string Describe(const Result& rows, size_t limit = 4);

}  // namespace ref

#endif  // PERFBENCH_REFERENCE_H_
