#include "truth.h"

#include <algorithm>
#include <limits>

namespace aqpp {
namespace e2e {

Result<double> AggregateOf(AggregateFunction func, const Moments& m) {
  switch (func) {
    case AggregateFunction::kCount:
      return static_cast<double>(m.count);
    case AggregateFunction::kSum:
      return static_cast<double>(m.sum);
    case AggregateFunction::kAvg:
      if (m.count == 0) return 0.0;
      return static_cast<double>(m.sum / m.count);
    case AggregateFunction::kVar: {
      if (m.count == 0) return 0.0;
      const long double mean = m.sum / m.count;
      return static_cast<double>(m.sum_sq / m.count - mean * mean);
    }
    default:
      return Status::Unimplemented("truth covers COUNT/SUM/AVG/VAR only");
  }
}

Result<RangeTruth> RangeTruth::Build(const Table& table, size_t x_column,
                                     size_t y_column, size_t measure_column) {
  if (x_column >= table.num_columns() || y_column >= table.num_columns() ||
      measure_column >= table.num_columns()) {
    return Status::InvalidArgument("truth column out of range");
  }
  const Column& xc = table.column(x_column);
  const Column& yc = table.column(y_column);
  const Column& mc = table.column(measure_column);
  if (xc.type() == DataType::kDouble || yc.type() == DataType::kDouble ||
      mc.type() != DataType::kDouble) {
    return Status::InvalidArgument(
        "truth needs two ordinal condition columns and a DOUBLE measure");
  }
  const size_t n = table.num_rows();
  RangeTruth t;
  t.x_column_ = x_column;
  t.y_column_ = y_column;
  const std::vector<int64_t>& xs = xc.Int64Data();
  const std::vector<int64_t>& ys = yc.Int64Data();
  const std::vector<double>& vs = mc.DoubleData();
  t.y_values_.assign(ys.begin(), ys.end());
  std::sort(t.y_values_.begin(), t.y_values_.end());
  t.y_values_.erase(std::unique(t.y_values_.begin(), t.y_values_.end()),
                    t.y_values_.end());
  t.rows_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const auto it =
        std::lower_bound(t.y_values_.begin(), t.y_values_.end(), ys[i]);
    t.rows_[i] = {xs[i], static_cast<uint32_t>(it - t.y_values_.begin()),
                  vs[i]};
  }
  std::sort(t.rows_.begin(), t.rows_.end(),
            [](const Row& a, const Row& b) { return a.x < b.x; });
  return t;
}

Result<std::vector<Moments>> RangeTruth::Evaluate(
    const std::vector<RangeQuery>& queries) const {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Per query: inclusive y-rank window [y_lo, y_hi) and the two sweep events
  // (prefix up to x_hi, minus prefix up to x_lo - 1).
  struct Event {
    int64_t x;  // rows with x <= this are in the prefix
    size_t query;
    int sign;
  };
  std::vector<std::pair<size_t, size_t>> y_window(queries.size());
  std::vector<Event> events;
  events.reserve(2 * queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    int64_t x_lo = kMin, x_hi = kMax, y_lo = kMin, y_hi = kMax;
    for (const RangeCondition& c : queries[q].predicate.conditions()) {
      if (c.column == x_column_) {
        x_lo = std::max(x_lo, c.lo);
        x_hi = std::min(x_hi, c.hi);
      } else if (c.column == y_column_) {
        y_lo = std::max(y_lo, c.lo);
        y_hi = std::min(y_hi, c.hi);
      } else {
        return Status::InvalidArgument("truth: condition on column " +
                                       std::to_string(c.column) +
                                       " outside the two indexed columns");
      }
    }
    const size_t r_lo = static_cast<size_t>(
        std::lower_bound(y_values_.begin(), y_values_.end(), y_lo) -
        y_values_.begin());
    const size_t r_hi = static_cast<size_t>(
        std::upper_bound(y_values_.begin(), y_values_.end(), y_hi) -
        y_values_.begin());
    y_window[q] = {r_lo, std::max(r_lo, r_hi)};
    if (x_lo > x_hi) continue;  // empty x range: all-zero moments
    events.push_back({x_hi, q, +1});
    if (x_lo != kMin) events.push_back({x_lo - 1, q, -1});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.x < b.x; });

  // Fenwick tree over y ranks (1-based).
  std::vector<Moments> tree(y_values_.size() + 1);
  auto add = [&tree](size_t rank, double v) {
    for (size_t i = rank + 1; i < tree.size(); i += i & (~i + 1)) {
      tree[i].count += 1;
      tree[i].sum += v;
      tree[i].sum_sq += static_cast<long double>(v) * v;
    }
  };
  auto prefix = [&tree](size_t end_rank) {  // ranks [0, end_rank)
    Moments m;
    for (size_t i = end_rank; i > 0; i -= i & (~i + 1)) {
      m.count += tree[i].count;
      m.sum += tree[i].sum;
      m.sum_sq += tree[i].sum_sq;
    }
    return m;
  };

  std::vector<Moments> out(queries.size());
  size_t next_row = 0;
  for (const Event& e : events) {
    while (next_row < rows_.size() && rows_[next_row].x <= e.x) {
      add(rows_[next_row].y_rank, rows_[next_row].value);
      ++next_row;
    }
    const auto [r_lo, r_hi] = y_window[e.query];
    const Moments hi = prefix(r_hi);
    const Moments lo = prefix(r_lo);
    Moments& m = out[e.query];
    m.count += e.sign * (hi.count - lo.count);
    m.sum += e.sign * (hi.sum - lo.sum);
    m.sum_sq += e.sign * (hi.sum_sq - lo.sum_sq);
  }
  return out;
}

Result<std::vector<double>> RangeTruth::Answers(
    const std::vector<RangeQuery>& queries) const {
  AQPP_ASSIGN_OR_RETURN(std::vector<Moments> moments, Evaluate(queries));
  std::vector<double> out(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    AQPP_ASSIGN_OR_RETURN(out[q], AggregateOf(queries[q].func, moments[q]));
  }
  return out;
}

}  // namespace e2e
}  // namespace aqpp
