#include "reference.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace ref {

std::string Val::ToString() const {
  switch (kind) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInt:
      return std::to_string(i);
    case Kind::kText:
      return "'" + (s.size() > 12 ? s.substr(0, 12) + "..." : s) + "'";
  }
  return "?";
}

Table::Table(std::string name, std::vector<std::string> columns,
             std::vector<bool> is_text, size_t num_rows)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      num_rows_(num_rows),
      data_(columns_.size()) {
  for (size_t c = 0; c < data_.size(); ++c) {
    data_[c].is_text = is_text[c];
    data_[c].null.assign(num_rows, 1);
    if (is_text[c])
      data_[c].texts.resize(num_rows);
    else
      data_[c].ints.resize(num_rows);
  }
}

Table Table::FromRows(std::string name, std::vector<std::string> columns,
                      const std::vector<Row>& rows) {
  std::vector<bool> is_text(columns.size(), false);
  for (const Row& row : rows)
    for (size_t c = 0; c < row.size(); ++c)
      if (row[c].kind == Val::Kind::kText) is_text[c] = true;
  Table t(std::move(name), std::move(columns), is_text, rows.size());
  for (size_t r = 0; r < rows.size(); ++r)
    for (size_t c = 0; c < rows[r].size(); ++c) t.Set(r, c, rows[r][c]);
  return t;
}

Val Table::At(size_t row, size_t col) const {
  const Column& c = data_[col];
  if (c.null[row]) return Val::Null();
  return c.is_text ? Val::Text(c.texts[row]) : Val::Int(c.ints[row]);
}

void Table::Set(size_t row, size_t col, const Val& v) {
  Column& c = data_[col];
  c.null[row] = v.null();
  if (v.null()) return;
  if (c.is_text)
    c.texts[row] = v.s;
  else
    c.ints[row] = v.i;
}

namespace {

// SQL three-valued comparison collapsed to "qualifies": NULL never does.
bool Qualifies(const Table& t, size_t row, const Filter& f) {
  if (t.is_text(f.col.col) || t.null(row, f.col.col)) return false;
  const int64_t v = t.Int(row, f.col.col);
  return v >= f.lo && v <= f.hi;
}

std::vector<size_t> FilterRelation(const Query& q, int rel) {
  const Table& t = *q.from[rel];
  std::vector<size_t> out;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    bool keep = true;
    for (const Filter& f : q.filters)
      if (f.col.rel == rel && !Qualifies(t, row, f)) {
        keep = false;
        break;
      }
    if (keep) out.push_back(row);
  }
  return out;
}

// One qualifying combination of input rows (right is unused without a join).
struct Combo {
  size_t left;
  size_t right;
};

struct Acc {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
};

void Add(Acc* acc, const Table& t, size_t row, int col) {
  if (t.is_text(col) || t.null(row, col)) return;  // NULL: ignored
  const int64_t v = t.Int(row, col);
  if (acc->count == 0 || v < acc->min) acc->min = v;
  acc->sum += v;
  ++acc->count;
}

Val Finish(const Acc& acc, Agg agg) {
  if (agg == Agg::kCount) return Val::Int(acc.count);
  if (acc.count == 0) return Val::Null();
  switch (agg) {
    case Agg::kSum:
      return Val::Int(acc.sum);
    case Agg::kMin:
      return Val::Int(acc.min);
    default:
      return Val::Null();
  }
}

}  // namespace

void Canonicalize(Result* rows) { std::sort(rows->begin(), rows->end()); }

Result Evaluate(const Query& q) {
  std::vector<Combo> combos;
  std::vector<size_t> left = FilterRelation(q, 0);
  if (!q.join.has_value()) {
    combos.reserve(left.size());
    for (size_t l : left) combos.push_back({l, 0});
  } else {
    const ColRef lk = q.join->first.rel == 0 ? q.join->first : q.join->second;
    const ColRef rk = q.join->first.rel == 0 ? q.join->second : q.join->first;
    const Table& lt = *q.from[0];
    const Table& rt = *q.from[1];
    std::unordered_map<int64_t, std::vector<size_t>> by_key;
    for (size_t r : FilterRelation(q, 1))
      if (!rt.null(r, rk.col)) by_key[rt.Int(r, rk.col)].push_back(r);
    for (size_t l : left) {
      if (lt.null(l, lk.col)) continue;
      auto it = by_key.find(lt.Int(l, lk.col));
      if (it == by_key.end()) continue;
      for (size_t r : it->second) combos.push_back({l, r});
    }
  }
  auto table = [&](const ColRef& c) -> const Table& { return *q.from[c.rel]; };
  auto row = [](const Combo& combo, const ColRef& c) {
    return c.rel == 0 ? combo.left : combo.right;
  };

  Result out;
  if (q.agg == Agg::kNone) {
    out.reserve(combos.size());
    for (const Combo& c : combos) {
      Row r;
      r.reserve(q.select.size());
      for (const ColRef& s : q.select) r.push_back(table(s).At(row(c, s), s.col));
      out.push_back(std::move(r));
    }
  } else if (!q.group_by.has_value()) {
    Acc acc;
    for (const Combo& c : combos)
      Add(&acc, table(q.agg_col), row(c, q.agg_col), q.agg_col.col);
    out.push_back({Finish(acc, q.agg)});
  } else {
    const ColRef& g = *q.group_by;
    std::map<Val, Acc> groups;  // the NULL key is one group like any other
    for (const Combo& c : combos)
      Add(&groups[table(g).At(row(c, g), g.col)], table(q.agg_col),
          row(c, q.agg_col), q.agg_col.col);
    for (const auto& [key, acc] : groups) out.push_back({key, Finish(acc, q.agg)});
  }
  Canonicalize(&out);
  return out;
}

std::string Describe(const Result& rows, size_t limit) {
  std::string s = std::to_string(rows.size()) + " rows";
  for (size_t i = 0; i < rows.size() && i < limit; ++i) {
    s += i == 0 ? ": (" : ", (";
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (j > 0) s += ",";
      s += rows[i][j].ToString();
    }
    s += ")";
  }
  if (rows.size() > limit) s += ", ...";
  return s;
}

}  // namespace ref
