#ifndef COSTSENSE_STORAGE_DEVICE_H_
#define COSTSENSE_STORAGE_DEVICE_H_

#include <string>

namespace costsense::storage {

/// What a storage device holds, which determines the semantic class of its
/// resource dimensions (needed by the complementarity taxonomy of paper
/// Section 5.6).
enum class DeviceRole {
  /// All data structures share this device (paper Section 8.1.1).
  kShared,
  /// Holds one table's data pages (Section 8.1.2).
  kTableData,
  /// Holds one table's indexes (Section 8.1.2; DB2 limited the paper to
  /// one device per table's whole index set).
  kTableIndexes,
  /// Holds one table together with its indexes (Section 8.1.3).
  kTableColocated,
  /// Holds temporary structures: sorted runs, hash partitions.
  kTemp,
};

/// One storage device, modeled as the paper models a disk (Section 3.1):
/// two resources, d_s for queueing/rotational/seek time per random access
/// and d_t for sequentially transferring one page. The defaults are DB2's
/// default values, which the paper adopts as the initial cost vector
/// (Section 8.1): d_s = 24.1 and d_t = 9.0 time units.
struct Device {
  std::string name;
  DeviceRole role = DeviceRole::kShared;
  /// Table this device serves (kTableData/kTableIndexes/kTableColocated);
  /// -1 otherwise.
  int table_id = -1;
  /// Baseline cost of one random positioning operation (DB2 default).
  double seek_cost = 24.1;
  /// Baseline cost of transferring one page (DB2 default).
  double transfer_cost = 9.0;
};

}  // namespace costsense::storage

#endif  // COSTSENSE_STORAGE_DEVICE_H_
