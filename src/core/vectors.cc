#include "core/vectors.h"

namespace costsense::core {

double TotalCost(const UsageVector& usage, const CostVector& costs) {
  return linalg::Dot(usage, costs);
}

}  // namespace costsense::core
