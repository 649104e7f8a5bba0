#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>

#include "catalog/selectivity.h"
#include "common/macros.h"
#include "common/strings.h"

namespace costsense::opt {

namespace {

/// Restriction selectivity on `column` of `ref` if a sargable one exists;
/// 1.0 otherwise.
double SargableSelectivityOn(const query::TableRef& ref, size_t column) {
  for (const query::ColumnRestriction& r : ref.restrictions) {
    if (r.column == column && r.sargable) return r.selectivity;
  }
  return 1.0;
}

/// Charges a formula's work into a usage vector (the charge functions).
class UsageAccumulator {
 public:
  UsageAccumulator(const storage::ResourceSpace& space,
                   core::UsageVector& usage)
      : space_(space), usage_(usage) {}

  void Io(int device, double seeks, double pages) {
    space_.ChargeIo(usage_, device, seeks, pages);
  }
  void Cpu(double instructions) { space_.ChargeCpu(usage_, instructions); }
  void Rescan(const CostModel::Input& input, double times) {
    for (size_t i = 0; i < usage_.size(); ++i) {
      usage_[i] += input.usage[i] * times;
    }
  }

 private:
  const storage::ResourceSpace& space_;
  core::UsageVector& usage_;
};

/// Sums a formula's work priced at per-unit costs (the price functions).
class PriceAccumulator {
 public:
  explicit PriceAccumulator(const CostModel::UnitPrices& prices)
      : prices_(prices) {}

  void Io(int device, double seeks, double pages) {
    total_ += seeks * prices_.seek[device] + pages * prices_.page[device];
  }
  void Cpu(double instructions) { total_ += instructions * prices_.cpu; }
  void Rescan(const CostModel::Priced& input, double times) {
    total_ += input.cost * times;
  }
  double total() const { return total_; }

 private:
  const CostModel::UnitPrices& prices_;
  double total_ = 0.0;
};

}  // namespace

CostModel::Priced::Priced(const PlanNode& node, double total_cost)
    : cost(total_cost),
      rows(node.output_rows),
      pages(node.output_pages),
      base_access(node.op == OpType::kSeqScan ||
                  node.op == OpType::kIndexScan) {}

CostModel::CostModel(const catalog::Catalog& catalog,
                     const storage::StorageLayout& layout,
                     const storage::ResourceSpace& space,
                     const query::Query& query)
    : catalog_(catalog),
      layout_(layout),
      space_(space),
      query_(query),
      config_(catalog.config()) {
  edge_selectivity_.reserve(query_.joins.size());
  for (const query::JoinEdge& e : query_.joins) {
    if (e.selectivity_override >= 0.0) {
      edge_selectivity_.push_back(e.selectivity_override);
      continue;
    }
    const catalog::Table& lt = catalog_.table(query_.refs[e.left_ref].table_id);
    const catalog::Table& rt =
        catalog_.table(query_.refs[e.right_ref].table_id);
    edge_selectivity_.push_back(catalog::JoinSelectivity(
        lt.column(e.left_column).stats, rt.column(e.right_column).stats));
  }
}

double CostModel::PagesFor(double rows, double width_bytes) const {
  if (rows <= 0.0) return 0.0;
  return std::max(1.0, std::ceil(rows * width_bytes /
                                 (config_.page_size_bytes * 0.9)));
}

CostModel::UnitPrices CostModel::Prices(const core::CostVector& costs) const {
  UnitPrices prices;
  const size_t devices = space_.devices().size();
  prices.seek.resize(devices);
  prices.page.resize(devices);
  core::UsageVector unit = space_.ZeroUsage();
  const auto price = [&](auto charge) {
    for (size_t i = 0; i < unit.size(); ++i) unit[i] = 0.0;
    charge();
    return core::TotalCost(unit, costs);
  };
  for (size_t d = 0; d < devices; ++d) {
    const int device = static_cast<int>(d);
    prices.seek[d] = price([&] { space_.ChargeIo(unit, device, 1.0, 0.0); });
    prices.page[d] = price([&] { space_.ChargeIo(unit, device, 0.0, 1.0); });
  }
  prices.cpu = price([&] { space_.ChargeCpu(unit, 1.0); });
  return prices;
}

double CostModel::JoinOutputInstructions(const JoinProps& props) const {
  return props.output_rows *
         (config_.cpu_join_output_instructions +
          props.residual_edges * config_.cpu_predicate_instructions);
}

double CostModel::PriceJoinOutput(const JoinProps& props,
                                  const UnitPrices& prices) const {
  return JoinOutputInstructions(props) * prices.cpu;
}

std::vector<size_t> CostModel::UsedColumns(size_t ref) const {
  std::vector<size_t> used;
  auto add = [&used](size_t col) {
    if (std::find(used.begin(), used.end(), col) == used.end()) {
      used.push_back(col);
    }
  };
  for (const query::ColumnRestriction& r : query_.refs[ref].restrictions) {
    add(r.column);
  }
  for (const query::JoinEdge& e : query_.joins) {
    if (e.left_ref == ref) add(e.left_column);
    if (e.right_ref == ref) add(e.right_column);
  }
  for (const query::SortKey& k : query_.aggregation.group_keys) {
    if (k.ref == ref) add(k.column);
  }
  for (const query::SortKey& k : query_.order_by) {
    if (k.ref == ref) add(k.column);
  }
  return used;
}

bool CostModel::IndexCoversRef(size_t ref, int index_id) const {
  const catalog::Index& idx = catalog_.index(index_id);
  for (size_t col : UsedColumns(ref)) {
    if (std::find(idx.key_columns.begin(), idx.key_columns.end(), col) ==
        idx.key_columns.end()) {
      return false;
    }
  }
  // The index must also supply the columns the query *outputs* from this
  // reference, approximated by the projected width. Semi/anti probe sides
  // project nothing, so only the key columns matter for them.
  for (const query::JoinEdge& e : query_.joins) {
    if (e.kind != query::JoinKind::kInner && e.right_ref == ref) return true;
  }
  const query::TableRef& tref = query_.refs[ref];
  const double needed = catalog_.table(tref.table_id).row_width_bytes() *
                        tref.projected_width_fraction;
  return needed <= idx.key_width_bytes + 16.0;
}

PlanNodePtr CostModel::SeqScan(size_t ref) const {
  const query::TableRef& tref = query_.refs[ref];
  const catalog::Table& table = catalog_.table(tref.table_id);

  auto node = std::make_shared<PlanNode>();
  node->op = OpType::kSeqScan;
  node->ref = static_cast<int>(ref);
  node->tables = uint32_t{1} << ref;
  node->output_rows = table.row_count() * tref.local_selectivity;
  node->output_width_bytes =
      table.row_width_bytes() * tref.projected_width_fraction;
  node->output_pages = PagesFor(node->output_rows, node->output_width_bytes);

  node->usage = space_.ZeroUsage();
  const double pages = table.pages();
  const double seeks = std::max(1.0, pages / config_.prefetch_pages);
  space_.ChargeIo(node->usage, layout_.DataDevice(tref.table_id), seeks,
                  pages);
  const double preds = static_cast<double>(tref.restrictions.size());
  space_.ChargeCpu(node->usage,
                   table.row_count() *
                       (config_.cpu_tuple_instructions +
                        std::max(1.0, preds) *
                            config_.cpu_predicate_instructions));
  node->id = StrFormat("SCAN(%s)", tref.alias.c_str());
  return node;
}

PlanNodePtr CostModel::IndexScan(size_t ref, int index_id,
                                 bool index_only) const {
  const query::TableRef& tref = query_.refs[ref];
  const catalog::Table& table = catalog_.table(tref.table_id);
  const catalog::Index& idx = catalog_.index(index_id);
  COSTSENSE_CHECK(idx.table_id == tref.table_id);

  const size_t lead_col = idx.key_columns.front();
  const double index_sel = SargableSelectivityOn(tref, lead_col);
  const double matches = table.row_count() * index_sel;

  auto node = std::make_shared<PlanNode>();
  node->op = OpType::kIndexScan;
  node->ref = static_cast<int>(ref);
  node->index_id = index_id;
  node->index_only = index_only;
  node->tables = uint32_t{1} << ref;
  node->output_rows = table.row_count() * tref.local_selectivity;
  node->output_width_bytes =
      index_only ? idx.key_width_bytes
                 : table.row_width_bytes() * tref.projected_width_fraction;
  node->output_pages = PagesFor(node->output_rows, node->output_width_bytes);
  // The stream leaves in index-key order.
  for (size_t col : idx.key_columns) node->order.push_back({ref, col});

  node->usage = space_.ZeroUsage();
  const int index_device = layout_.IndexDevice(tref.table_id);
  // Descend the tree once, then walk qualifying leaves sequentially.
  const double leaf_pages = std::max(1.0, idx.leaf_pages * index_sel);
  const double leaf_seeks =
      idx.levels + std::max(1.0, leaf_pages / config_.prefetch_pages);
  space_.ChargeIo(node->usage, index_device, leaf_seeks, leaf_pages);

  if (!index_only) {
    const int data_device = layout_.DataDevice(tref.table_id);
    if (idx.clustered) {
      const double pages = std::max(1.0, table.pages() * index_sel);
      space_.ChargeIo(node->usage, data_device,
                      std::max(1.0, pages / config_.prefetch_pages), pages);
    } else {
      const double pages = catalog::ExpectedPagesFetched(
          matches, table.row_count(), table.pages());
      // Unclustered fetches are random: one positioning per page touched.
      space_.ChargeIo(node->usage, data_device, pages, pages);
    }
  }
  const double preds = static_cast<double>(tref.restrictions.size());
  space_.ChargeCpu(node->usage,
                   config_.cpu_probe_instructions * idx.levels +
                       matches * (config_.cpu_tuple_instructions +
                                  std::max(1.0, preds) *
                                      config_.cpu_predicate_instructions));
  node->id = StrFormat("IXS(%s.%s%s)", tref.alias.c_str(), idx.name.c_str(),
                       index_only ? ":io" : "");
  return node;
}

template <typename In, typename Acc>
void CostModel::SortFormula(const In& child, Acc& acc) const {
  if (child.rows <= 1.0) return;
  const double compares = child.rows * std::log2(std::max(2.0, child.rows));
  acc.Cpu(compares * config_.cpu_sort_compare_instructions);
  if (child.pages <= config_.sort_heap_pages) return;  // in-memory sort

  // External sort: run generation writes all pages to temp and each merge
  // pass reads and rewrites them.
  const double runs = std::ceil(child.pages / config_.sort_heap_pages);
  const int passes = static_cast<int>(std::max(
      1.0, std::ceil(std::log(runs) / std::log(config_.merge_fan_in))));
  const double total_pages = 2.0 * child.pages * passes;  // write + read
  acc.Io(layout_.TempDevice(),
         std::max(1.0, total_pages / config_.prefetch_pages), total_pages);
}

void CostModel::ChargeSort(const Input& child,
                           core::UsageVector& usage) const {
  usage = child.usage;
  UsageAccumulator acc(space_, usage);
  SortFormula(child, acc);
}

double CostModel::PriceSortOwn(const Priced& child,
                               const UnitPrices& prices) const {
  PriceAccumulator acc(prices);
  SortFormula(child, acc);
  return acc.total();
}

CostModel::Input CostModel::SortedInput(
    const PlanNode& child, const std::vector<query::SortKey>& keys,
    core::UsageVector& scratch) const {
  if (keys.empty() || OrderSatisfies(child.order, keys)) return child;
  ChargeSort(child, scratch);
  return Input(scratch, child.output_rows, child.output_pages);
}

PlanNodePtr CostModel::Sort(PlanNodePtr child,
                            std::vector<query::SortKey> keys) const {
  if (keys.empty() || OrderSatisfies(child->order, keys)) return child;
  auto node = std::make_shared<PlanNode>();
  node->op = OpType::kSort;
  node->keys = keys;
  node->tables = child->tables;
  node->output_rows = child->output_rows;
  node->output_width_bytes = child->output_width_bytes;
  node->output_pages = child->output_pages;
  node->order = std::move(keys);
  ChargeSort(*child, node->usage);
  node->left = std::move(child);
  return node;
}

std::shared_ptr<PlanNode> CostModel::NewJoin(OpType op, PlanNodePtr left,
                                             PlanNodePtr right,
                                             const JoinProps& props) const {
  auto node = std::make_shared<PlanNode>();
  node->op = op;
  node->join_edge = props.edge;
  node->join_kind = props.edge >= 0 ? query_.joins[props.edge].kind
                                    : query::JoinKind::kInner;
  node->tables = left->tables | right->tables;
  node->output_rows = props.output_rows;
  node->output_width_bytes = props.output_width_bytes;
  node->output_pages = PagesFor(props.output_rows, props.output_width_bytes);
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

template <typename In, typename Acc>
void CostModel::HashJoinFormula(const In& left, const In& right,
                                const JoinProps& props, Acc& acc) const {
  const double memory =
      config_.buffer_pool_pages * config_.hash_build_memory_fraction;
  if (right.pages > memory) {
    // Hybrid hash: partition both inputs to temp and read them back.
    const double spill = 2.0 * (left.pages + right.pages);
    acc.Io(layout_.TempDevice(), std::max(1.0, spill / config_.prefetch_pages),
           spill);
    acc.Cpu((left.rows + right.rows) * config_.cpu_tuple_instructions);
  }
  acc.Cpu(right.rows * config_.cpu_hash_build_instructions +
          left.rows * config_.cpu_hash_probe_instructions +
          JoinOutputInstructions(props));
}

void CostModel::ChargeHashJoin(const Input& left, const Input& right,
                               const JoinProps& props,
                               core::UsageVector& usage) const {
  usage = left.usage;
  usage += right.usage;
  UsageAccumulator acc(space_, usage);
  HashJoinFormula(left, right, props, acc);
}

double CostModel::PriceHashJoinOwn(const Priced& left, const Priced& right,
                                   const JoinProps& props,
                                   const UnitPrices& prices) const {
  PriceAccumulator acc(prices);
  HashJoinFormula(left, right, props, acc);
  return acc.total();
}

PlanNodePtr CostModel::HashJoin(PlanNodePtr left, PlanNodePtr right,
                                const JoinProps& props) const {
  // Hash join output follows the probe (left) order only when nothing
  // spilled; stay conservative and declare it unordered.
  auto node = NewJoin(OpType::kHashJoin, std::move(left), std::move(right),
                      props);
  ChargeHashJoin(*node->left, *node->right, props, node->usage);
  return node;
}

template <typename In, typename Acc>
void CostModel::SortMergeJoinFormula(const In& left, const In& right,
                                     const JoinProps& props, Acc& acc) const {
  acc.Cpu((left.rows + right.rows) * config_.cpu_sort_compare_instructions +
          JoinOutputInstructions(props));
}

void CostModel::ChargeSortMergeJoin(const Input& left, const Input& right,
                                    const JoinProps& props,
                                    core::UsageVector& usage) const {
  usage = left.usage;
  usage += right.usage;
  UsageAccumulator acc(space_, usage);
  SortMergeJoinFormula(left, right, props, acc);
}

double CostModel::PriceSortMergeJoinOwn(const Priced& left,
                                        const Priced& right,
                                        const JoinProps& props,
                                        const UnitPrices& prices) const {
  PriceAccumulator acc(prices);
  SortMergeJoinFormula(left, right, props, acc);
  return acc.total();
}

PlanNodePtr CostModel::SortMergeJoin(PlanNodePtr left, PlanNodePtr right,
                                     const JoinProps& props) const {
  COSTSENSE_CHECK(props.edge >= 0);
  const query::JoinEdge& edge = query_.joins[props.edge];
  auto node = NewJoin(OpType::kSortMergeJoin, std::move(left),
                      std::move(right), props);
  ChargeSortMergeJoin(*node->left, *node->right, props, node->usage);
  // Output keeps the merge order, expressed on whichever edge endpoint
  // lives in the left subtree.
  const bool left_holds_edge_left =
      (node->left->tables >> edge.left_ref) & 1u;
  node->order = {left_holds_edge_left
                     ? query::SortKey{edge.left_ref, edge.left_column}
                     : query::SortKey{edge.right_ref, edge.right_column}};
  return node;
}

template <typename In, typename Acc>
void CostModel::IndexNLJoinFormula(const In& left, size_t right_ref,
                                   int index_id, bool index_only,
                                   const JoinProps& props, Acc& acc) const {
  COSTSENSE_CHECK(props.edge >= 0);
  const query::TableRef& tref = query_.refs[right_ref];
  const catalog::Table& table = catalog_.table(tref.table_id);
  const catalog::Index& idx = catalog_.index(index_id);
  const query::JoinEdge& edge = query_.joins[props.edge];

  // The edge may be written in either orientation; the probed (inner)
  // side is right_ref.
  const size_t inner_col =
      edge.right_ref == right_ref ? edge.right_column : edge.left_column;
  COSTSENSE_CHECK(inner_col == idx.key_columns.front());

  // Matches fetched per probe follow the edge's join selectivity (before
  // the inner's residual local predicates); it is symmetric in the two
  // columns, so the orientation does not matter.
  const double probes = left.rows;
  const double fetched_rows =
      probes * table.row_count() * EdgeSelectivity(props.edge);

  const int index_device = layout_.IndexDevice(tref.table_id);
  // Each probe descends to one leaf; upper levels are assumed cached after
  // the first probe, leaving one random leaf access per probe.
  acc.Io(index_device, probes, probes);
  if (!index_only) {
    const int data_device = layout_.DataDevice(tref.table_id);
    const double pages = catalog::ExpectedPagesFetched(
        fetched_rows, table.row_count(), table.pages());
    acc.Io(data_device, pages, pages);
  }
  const double preds = static_cast<double>(tref.restrictions.size());
  acc.Cpu(probes * config_.cpu_probe_instructions +
          fetched_rows * (config_.cpu_tuple_instructions +
                          std::max(1.0, preds) *
                              config_.cpu_predicate_instructions) +
          JoinOutputInstructions(props));
}

void CostModel::ChargeIndexNLJoin(const Input& left, size_t right_ref,
                                  int index_id, bool index_only,
                                  const JoinProps& props,
                                  core::UsageVector& usage) const {
  usage = left.usage;
  UsageAccumulator acc(space_, usage);
  IndexNLJoinFormula(left, right_ref, index_id, index_only, props, acc);
}

double CostModel::PriceIndexNLJoinOwn(const Priced& left, size_t right_ref,
                                      int index_id, bool index_only,
                                      const JoinProps& props,
                                      const UnitPrices& prices) const {
  PriceAccumulator acc(prices);
  IndexNLJoinFormula(left, right_ref, index_id, index_only, props, acc);
  return acc.total();
}

PlanNodePtr CostModel::ProbeLeaf(size_t ref, int index_id,
                                 bool index_only) const {
  const query::TableRef& tref = query_.refs[ref];
  const catalog::Table& table = catalog_.table(tref.table_id);
  const catalog::Index& idx = catalog_.index(index_id);
  auto leaf = std::make_shared<PlanNode>();
  leaf->op = OpType::kIndexScan;
  leaf->ref = static_cast<int>(ref);
  leaf->index_id = index_id;
  leaf->index_only = index_only;
  leaf->tables = uint32_t{1} << ref;
  leaf->output_rows = table.row_count() * tref.local_selectivity;
  leaf->output_width_bytes =
      index_only ? idx.key_width_bytes
                 : table.row_width_bytes() * tref.projected_width_fraction;
  leaf->output_pages = PagesFor(leaf->output_rows, leaf->output_width_bytes);
  leaf->usage = space_.ZeroUsage();
  leaf->id = StrFormat("PROBE(%s.%s%s)", tref.alias.c_str(), idx.name.c_str(),
                       index_only ? ":io" : "");
  return leaf;
}

PlanNodePtr CostModel::IndexNLJoin(PlanNodePtr left, PlanNodePtr probe,
                                   const JoinProps& props) const {
  const size_t right_ref = static_cast<size_t>(probe->ref);
  const int index_id = probe->index_id;
  const bool index_only = probe->index_only;
  auto node =
      NewJoin(OpType::kIndexNLJoin, std::move(left), std::move(probe), props);
  ChargeIndexNLJoin(*node->left, right_ref, index_id, index_only, props,
                    node->usage);
  // Nested loops preserves the outer order.
  node->order = node->left->order;
  return node;
}

template <typename In, typename Acc>
void CostModel::BlockNLJoinFormula(const In& left, const In& right,
                                   const JoinProps& props, Acc& acc) const {
  const double block_pages = std::max(1.0, config_.sort_heap_pages);
  const double blocks = std::max(1.0, std::ceil(left.pages / block_pages));

  if (right.base_access) {
    // Rescan the base access path (blocks - 1) extra times.
    acc.Rescan(right, blocks - 1.0);
  } else {
    // Materialize the inner once to temp, then scan it per block.
    const double mat = right.pages;
    const double total = mat + blocks * mat;
    acc.Io(layout_.TempDevice(), std::max(1.0, total / config_.prefetch_pages),
           total);
  }
  acc.Cpu(left.rows * right.rows * config_.cpu_predicate_instructions +
          JoinOutputInstructions(props));
}

void CostModel::ChargeBlockNLJoin(const Input& left, const Input& right,
                                  const JoinProps& props,
                                  core::UsageVector& usage) const {
  usage = left.usage;
  usage += right.usage;
  UsageAccumulator acc(space_, usage);
  BlockNLJoinFormula(left, right, props, acc);
}

double CostModel::PriceBlockNLJoinOwn(const Priced& left, const Priced& right,
                                      const JoinProps& props,
                                      const UnitPrices& prices) const {
  PriceAccumulator acc(prices);
  BlockNLJoinFormula(left, right, props, acc);
  return acc.total();
}

PlanNodePtr CostModel::BlockNLJoin(PlanNodePtr left, PlanNodePtr right,
                                   const JoinProps& props) const {
  auto node = NewJoin(OpType::kBlockNLJoin, std::move(left), std::move(right),
                      props);
  ChargeBlockNLJoin(*node->left, *node->right, props, node->usage);
  return node;
}

PlanNodePtr CostModel::Aggregate(PlanNodePtr child, bool sort_based) const {
  const query::Aggregation& agg = query_.aggregation;
  COSTSENSE_CHECK(agg.present);
  auto node = std::make_shared<PlanNode>();
  node->op = OpType::kAggregate;
  node->keys = agg.group_keys;
  node->tables = child->tables;
  node->output_rows = std::min(agg.output_groups, child->output_rows);
  node->output_width_bytes = child->output_width_bytes;
  node->output_pages = PagesFor(node->output_rows, node->output_width_bytes);
  node->usage = child->usage;
  space_.ChargeCpu(node->usage,
                   child->output_rows * config_.cpu_agg_instructions);
  if (sort_based) {
    COSTSENSE_CHECK(OrderSatisfies(child->order, agg.group_keys));
    node->order = child->order;  // grouping preserves the input order
  } else {
    // Hash aggregation: spill partitions to temp if the group table
    // exceeds the sort heap.
    const double group_pages =
        PagesFor(agg.output_groups, child->output_width_bytes);
    if (group_pages > config_.sort_heap_pages) {
      const double spill = 2.0 * child->output_pages;
      space_.ChargeIo(node->usage, layout_.TempDevice(),
                      std::max(1.0, spill / config_.prefetch_pages), spill);
    }
  }
  node->sort_based = sort_based;
  node->left = std::move(child);
  return node;
}

}  // namespace costsense::opt
