// Exact answers for two-column range aggregates, computed by the benchmark
// independently of the engine under test: one offline sweep over the rows
// sorted on the first column, with a Fenwick tree of (count, sum, sum of
// squares) over the ranks of the second. O((rows + queries) log rows) for a
// whole query set, so every answer of a run can be checked against its
// truth without a scan per query.

#ifndef AQPP_E2E_BENCH_TRUTH_H_
#define AQPP_E2E_BENCH_TRUTH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "expr/query.h"
#include "storage/table.h"

namespace aqpp {
namespace e2e {

struct Moments {
  long double count = 0;
  long double sum = 0;
  long double sum_sq = 0;
};

// COUNT / SUM / AVG / population VAR of `m` (the engine's definitions).
Result<double> AggregateOf(AggregateFunction func, const Moments& m);

class RangeTruth {
 public:
  // `x_column` and `y_column` are the ordinal condition columns every query
  // may constrain; `measure_column` is the DOUBLE aggregate column.
  static Result<RangeTruth> Build(const Table& table, size_t x_column,
                                  size_t y_column, size_t measure_column);

  // Moments of the measure over each query's predicate. Conditions may name
  // only the two condition columns; a missing one spans its whole domain.
  Result<std::vector<Moments>> Evaluate(
      const std::vector<RangeQuery>& queries) const;

  // Exact aggregate of each query (its own func).
  Result<std::vector<double>> Answers(
      const std::vector<RangeQuery>& queries) const;

 private:
  struct Row {
    int64_t x = 0;
    uint32_t y_rank = 0;
    double value = 0;
  };
  size_t x_column_ = 0;
  size_t y_column_ = 0;
  std::vector<Row> rows_;         // sorted by x
  std::vector<int64_t> y_values_;  // sorted distinct y
};

}  // namespace e2e
}  // namespace aqpp

#endif  // AQPP_E2E_BENCH_TRUTH_H_
