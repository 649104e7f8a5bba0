#include "opt/explain.h"

#include "common/strings.h"

namespace costsense::opt {
namespace {

void ExplainNode(const PlanNode& node, const query::Query& query,
                 const std::string& indent, bool last, std::string& out) {
  out += indent;
  if (!indent.empty()) out += last ? "`- " : "+- ";
  out += OpTypeName(node.op);
  if (node.ref >= 0) {
    out += StrFormat("(%s)", query.refs[static_cast<size_t>(node.ref)]
                                 .alias.c_str());
  }
  if (node.index_only) out += " index-only";
  if (!node.keys.empty()) {
    out += StrFormat(" keys=[%s]", KeysToString(node.keys).c_str());
  }
  out += StrFormat("  rows=%s width=%s", FormatDouble(node.output_rows).c_str(),
                   FormatDouble(node.output_width_bytes).c_str());
  if (!node.order.empty()) {
    out += StrFormat(" order=[%s]", KeysToString(node.order).c_str());
  }
  out += "\n";
  const std::string child_indent =
      indent.empty() ? "  " : indent + (last ? "   " : "|  ");
  if (node.left && node.right) {
    ExplainNode(*node.left, query, child_indent, false, out);
    ExplainNode(*node.right, query, child_indent, true, out);
  } else if (node.left) {
    ExplainNode(*node.left, query, child_indent, true, out);
  }
}

}  // namespace

std::string Explain(const PlanNode& plan, const query::Query& query) {
  std::string out;
  ExplainNode(plan, query, "", true, out);
  return out;
}

std::string ExplainSummary(const PlanNode& plan,
                           const storage::ResourceSpace& space,
                           const core::CostVector& costs) {
  std::string out = PlanId(plan);
  out += StrFormat("\n  total cost: %s\n  usage:",
                   FormatDouble(core::TotalCost(plan.usage, costs)).c_str());
  const auto& dims = space.dim_info();
  for (size_t i = 0; i < dims.size(); ++i) {
    if (plan.usage[i] == 0.0) continue;
    out += StrFormat(" %s=%s", dims[i].name.c_str(),
                     FormatDouble(plan.usage[i]).c_str());
  }
  out += "\n";
  return out;
}

}  // namespace costsense::opt
