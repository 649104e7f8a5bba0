#ifndef COSTSENSE_CATALOG_SELECTIVITY_H_
#define COSTSENSE_CATALOG_SELECTIVITY_H_

#include "catalog/column.h"

namespace costsense::catalog {

/// Selinger default equi-join selectivity: 1 / max(ndv_left, ndv_right).
double JoinSelectivity(const ColumnStats& left, const ColumnStats& right);

/// Expected number of distinct pages touched when fetching `rows_fetched`
/// random rows of a table with `table_rows` rows on `table_pages` pages —
/// the Cardenas/Yao estimate pages * (1 - (1 - 1/pages)^rows), evaluated
/// in a numerically stable way for the billions-of-rows scale of TPC-H
/// SF 100. Used to price unclustered index fetches.
double ExpectedPagesFetched(double rows_fetched, double table_rows,
                            double table_pages);

}  // namespace costsense::catalog

#endif  // COSTSENSE_CATALOG_SELECTIVITY_H_
