#include "catalog/selectivity.h"

#include <algorithm>
#include <cmath>

namespace costsense::catalog {

double JoinSelectivity(const ColumnStats& left, const ColumnStats& right) {
  return 1.0 / std::max({1.0, left.n_distinct, right.n_distinct});
}

double ExpectedPagesFetched(double rows_fetched, double table_rows,
                            double table_pages) {
  if (rows_fetched <= 0.0 || table_pages <= 0.0) return 0.0;
  if (table_pages <= 1.0) return 1.0;
  // pages * (1 - (1 - 1/pages)^k), with (1-1/p)^k = exp(k * log1p(-1/p))
  // to stay stable when p is ~1e7 and k is ~1e9.
  const double log_miss = rows_fetched * std::log1p(-1.0 / table_pages);
  const double touched = table_pages * -std::expm1(log_miss);
  return std::min(touched, std::min(rows_fetched, table_pages));
}

}  // namespace costsense::catalog
