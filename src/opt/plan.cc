#include "opt/plan.h"

#include <string>

#include "common/macros.h"
#include "common/strings.h"

namespace costsense::opt {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kSeqScan:
      return "SCAN";
    case OpType::kIndexScan:
      return "IXS";
    case OpType::kIndexNLJoin:
      return "INL";
    case OpType::kBlockNLJoin:
      return "BNL";
    case OpType::kSortMergeJoin:
      return "SMJ";
    case OpType::kHashJoin:
      return "HSJ";
    case OpType::kSort:
      return "SORT";
    case OpType::kAggregate:
      return "AGG";
  }
  return "?";
}

bool OrderSatisfies(const std::vector<query::SortKey>& produced,
                    const std::vector<query::SortKey>& required) {
  if (required.size() > produced.size()) return false;
  for (size_t i = 0; i < required.size(); ++i) {
    if (produced[i].ref != required[i].ref ||
        produced[i].column != required[i].column) {
      return false;
    }
  }
  return true;
}

namespace {

void AppendPlanId(const PlanNode& node, std::string& out) {
  if (!node.id.empty()) {
    out += node.id;
    return;
  }
  COSTSENSE_CHECK(node.left != nullptr);  // leaves always carry their id
  out += OpTypeName(node.op);
  switch (node.op) {
    case OpType::kSort:
      out += '[';
      out += KeysToString(node.keys);
      out += "](";
      break;
    case OpType::kAggregate:
      out += node.sort_based ? "[sort](" : "[hash](";
      break;
    default:
      out += "[e";
      out += std::to_string(node.join_edge);
      out += "](";
      break;
  }
  AppendPlanId(*node.left, out);
  if (node.right) {
    out += ',';
    AppendPlanId(*node.right, out);
  }
  out += ')';
}

}  // namespace

std::string PlanId(const PlanNode& node) {
  std::string out;
  AppendPlanId(node, out);
  return out;
}

std::string KeysToString(const std::vector<query::SortKey>& keys) {
  std::vector<std::string> parts;
  parts.reserve(keys.size());
  for (const query::SortKey& k : keys) {
    parts.push_back(StrFormat("r%zu.c%zu", k.ref, k.column));
  }
  return Join(parts, ",");
}

}  // namespace costsense::opt
