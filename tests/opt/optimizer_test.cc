#include "opt/optimizer.h"

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/feasible_region.h"
#include "opt/explain.h"
#include "opt/join_enum.h"
#include "query/builder.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace costsense::opt {
namespace {

using query::Query;
using query::QueryBuilder;
using storage::LayoutPolicy;
using storage::StorageLayout;

/// Star schema: a 10M-row fact with a selective filter column and two
/// dimensions, all indexed.
catalog::Catalog StarCatalog() {
  catalog::Catalog cat;
  const int fact = cat.AddTable(catalog::Table(
      "fact", 1e7, 4096,
      {catalog::MakeColumn("id", 1e7, 1, 1e7, 4),
       catalog::MakeColumn("d1_id", 1e4, 1, 1e4, 4),
       catalog::MakeColumn("d2_id", 1e3, 1, 1e3, 4),
       catalog::MakeColumn("filter_col", 1e5, 1, 1e5, 4),
       catalog::MakeColumn("payload", 1e7, 0, 0, 80)}));
  const int d1 = cat.AddTable(
      catalog::Table("d1", 1e4, 4096,
                     {catalog::MakeColumn("id", 1e4, 1, 1e4, 4),
                      catalog::MakeColumn("attr", 100, 0, 99, 4),
                      catalog::MakeColumn("pad", 1e4, 0, 0, 60)}));
  const int d2 = cat.AddTable(
      catalog::Table("d2", 1e3, 4096,
                     {catalog::MakeColumn("id", 1e3, 1, 1e3, 4),
                      catalog::MakeColumn("attr", 10, 0, 9, 4),
                      catalog::MakeColumn("pad", 1e3, 0, 0, 60)}));
  cat.AddIndex("fact_pk", fact, {0}, true, true);
  cat.AddIndex("fact_d1", fact, {1}, false, false);
  cat.AddIndex("fact_filter", fact, {3}, false, false);
  cat.AddIndex("d1_pk", d1, {0}, true, true);
  cat.AddIndex("d2_pk", d2, {0}, true, true);
  return cat;
}

struct Rig {
  catalog::Catalog cat;
  StorageLayout layout;
  storage::ResourceSpace space;
  Optimizer optimizer;

  Rig(catalog::Catalog c, const Query& q,
      LayoutPolicy policy = LayoutPolicy::kSharedDevice,
      OptimizerOptions options = {})
      : cat(std::move(c)),
        layout(policy, cat, query::ReferencedTables(q)),
        space(layout.BuildResourceSpace()),
        optimizer(cat, layout, space, options) {}
};

Query FilterQuery(const catalog::Catalog& cat, double sel) {
  return QueryBuilder(cat, "filter")
      .Table("fact", "f")
      .Restrict("f", "filter_col", sel)
      .Build();
}

TEST(OptimizerTest, SelectiveFilterUsesIndex) {
  catalog::Catalog cat = StarCatalog();
  const Query q = FilterQuery(cat, 1e-6);
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->plan->id.find("IXS"), std::string::npos) << r->plan->id;
}

TEST(OptimizerTest, WideFilterUsesScan) {
  catalog::Catalog cat = StarCatalog();
  const Query q = FilterQuery(cat, 0.9);
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->id, "SCAN(f)");
}

TEST(OptimizerTest, ExpensiveSeeksFlipIndexToScan) {
  // The classic access-path switchover the paper's Figure 5 discussion
  // hinges on: random I/O cost pushes the optimizer from an unclustered
  // index scan to a sequential scan.
  catalog::Catalog cat = StarCatalog();
  const Query q = FilterQuery(cat, 2e-3);
  Rig rig(std::move(cat), q);
  core::CostVector costs = rig.space.BaselineCosts();

  costs[0] = 0.1;  // seeks nearly free
  const Result<Optimized> cheap_seek = rig.optimizer.Optimize(q, costs);
  ASSERT_TRUE(cheap_seek.ok());
  EXPECT_NE(cheap_seek->plan->id.find("IXS"), std::string::npos)
      << cheap_seek->plan->id;

  costs[0] = 1e5;  // seeks ruinous
  const Result<Optimized> dear_seek = rig.optimizer.Optimize(q, costs);
  ASSERT_TRUE(dear_seek.ok());
  EXPECT_EQ(dear_seek->plan->id, "SCAN(f)");
}

TEST(OptimizerTest, TotalCostIsDotProduct) {
  catalog::Catalog cat = StarCatalog();
  const Query q = FilterQuery(cat, 0.01);
  Rig rig(std::move(cat), q);
  Rng rng(3);
  const core::Box box =
      core::Box::MultiplicativeBand(rig.space.BaselineCosts(), 100.0);
  for (int i = 0; i < 20; ++i) {
    const core::CostVector c = box.SampleLogUniform(rng);
    const Result<Optimized> r = rig.optimizer.Optimize(q, c);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r->total_cost, core::TotalCost(r->plan->usage, c),
                1e-9 * r->total_cost);
  }
}

Query JoinQuery(const catalog::Catalog& cat) {
  return QueryBuilder(cat, "join2")
      .Table("fact", "f")
      .Table("d1", "d")
      .Restrict("d", "attr", 0.01)
      .Join("f", "d1_id", "d", "id")
      .Build();
}

TEST(OptimizerTest, JoinPlanCoversBothTables) {
  catalog::Catalog cat = StarCatalog();
  const Query q = JoinQuery(cat);
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->tables, 0b11u);
  EXPECT_GT(r->plan->output_rows, 0.0);
}

TEST(OptimizerTest, ChoicesAreOptimalAcrossCostVectors) {
  // Core optimality property: the plan chosen at cost vector v is never
  // beaten at v by a plan the optimizer chose at some other vector w.
  catalog::Catalog cat = StarCatalog();
  const Query q = QueryBuilder(cat, "join3")
                      .Table("fact", "f")
                      .Table("d1", "a")
                      .Table("d2", "b")
                      .Restrict("f", "filter_col", 1e-4)
                      .Restrict("a", "attr", 0.05)
                      .Join("f", "d1_id", "a", "id")
                      .Join("f", "d2_id", "b", "id")
                      .Build();
  Rig rig(std::move(cat), q);
  Rng rng(7);
  const core::Box box =
      core::Box::MultiplicativeBand(rig.space.BaselineCosts(), 1000.0);
  std::vector<core::UsageVector> usages;
  std::vector<core::CostVector> points;
  for (int i = 0; i < 25; ++i) {
    const core::CostVector c = box.SampleLogUniform(rng);
    const Result<Optimized> r = rig.optimizer.Optimize(q, c);
    ASSERT_TRUE(r.ok());
    usages.push_back(r->plan->usage);
    points.push_back(c);
  }
  for (size_t i = 0; i < points.size(); ++i) {
    const double chosen = core::TotalCost(usages[i], points[i]);
    for (size_t j = 0; j < usages.size(); ++j) {
      EXPECT_LE(chosen,
                core::TotalCost(usages[j], points[i]) * (1 + 1e-9))
          << "plan from point " << j << " beats choice at point " << i;
    }
  }
}

TEST(OptimizerTest, DeterministicAcrossRepeatedCalls) {
  catalog::Catalog cat = StarCatalog();
  const Query q = JoinQuery(cat);
  Rig rig(std::move(cat), q);
  const Result<Optimized> a = rig.optimizer.OptimizeAtBaseline(q);
  const Result<Optimized> b = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->plan->id, b->plan->id);
  EXPECT_DOUBLE_EQ(a->total_cost, b->total_cost);
}

TEST(OptimizerTest, SemiJoinKeepsAtMostOuterRows) {
  catalog::Catalog cat = StarCatalog();
  const Query q = QueryBuilder(cat, "semi")
                      .Table("d1", "d")
                      .Table("fact", "f")
                      .Join("d", "id", "f", "d1_id", query::JoinKind::kSemi)
                      .Build();
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->plan->output_rows, 1e4 * (1 + 1e-9));
}

TEST(OptimizerTest, AntiJoinKeepsFewerThanSemi) {
  catalog::Catalog cat = StarCatalog();
  auto build = [&cat](query::JoinKind kind) {
    return QueryBuilder(cat, "k")
        .Table("d1", "d")
        .Table("fact", "f")
        .LocalSelectivity("f", 1e-4)
        .Join("d", "id", "f", "d1_id", kind)
        .Build();
  };
  const Query semi = build(query::JoinKind::kSemi);
  const Query anti = build(query::JoinKind::kAnti);
  Rig rig_s(StarCatalog(), semi);
  Rig rig_a(StarCatalog(), anti);
  const double semi_rows =
      rig_s.optimizer.OptimizeAtBaseline(semi)->plan->output_rows;
  const double anti_rows =
      rig_a.optimizer.OptimizeAtBaseline(anti)->plan->output_rows;
  EXPECT_NEAR(semi_rows + anti_rows, 1e4, 1.0);
}

TEST(OptimizerTest, OrderByProducesSortedPlan) {
  catalog::Catalog cat = StarCatalog();
  const Query q = QueryBuilder(cat, "sorted")
                      .Table("d1", "d")
                      .OrderBy("d", "attr")
                      .Build();
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->plan->order.empty());
  EXPECT_EQ(r->plan->order[0].column, 1u);
}

TEST(OptimizerTest, InterestingOrderAvoidsRedundantSort) {
  // ORDER BY the primary key of the big table: the clustered index scan
  // already delivers the order, while sort-after-scan would pay a large
  // external sort; no SORT node should appear.
  catalog::Catalog cat = StarCatalog();
  const Query q = QueryBuilder(cat, "pkorder")
                      .Table("fact", "d")
                      .OrderBy("d", "id")
                      .Build();
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->id.find("SORT"), std::string::npos) << r->plan->id;
}

TEST(OptimizerTest, LeftDeepOnlyWhenBushyDisabled) {
  catalog::Catalog cat = StarCatalog();
  const Query q = QueryBuilder(cat, "j")
                      .Table("fact", "f")
                      .Table("d1", "a")
                      .Table("d2", "b")
                      .Join("f", "d1_id", "a", "id")
                      .Join("f", "d2_id", "b", "id")
                      .Build();
  OptimizerOptions opts;
  opts.bushy_joins = false;
  Rig rig(std::move(cat), q, LayoutPolicy::kSharedDevice, opts);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  // Verify every join's right child is a leaf (left-deep shape).
  std::function<void(const PlanNode&)> check = [&](const PlanNode& n) {
    if (n.left && n.right) {
      EXPECT_TRUE(n.right->left == nullptr ||
                  n.right->op == OpType::kIndexScan)
          << Explain(*r->plan, q);
    }
    if (n.left) check(*n.left);
    if (n.right) check(*n.right);
  };
  check(*r->plan);
}

TEST(OptimizerTest, DimensionMismatchRejected) {
  catalog::Catalog cat = StarCatalog();
  const Query q = FilterQuery(cat, 0.5);
  Rig rig(std::move(cat), q);
  EXPECT_FALSE(rig.optimizer.Optimize(q, core::CostVector{1.0}).ok());
}

TEST(OptimizerTest, ExplainRendersTree) {
  catalog::Catalog cat = StarCatalog();
  const Query q = JoinQuery(cat);
  Rig rig(std::move(cat), q);
  const Result<Optimized> r = rig.optimizer.OptimizeAtBaseline(q);
  ASSERT_TRUE(r.ok());
  const std::string text = Explain(*r->plan, q);
  EXPECT_NE(text.find("rows="), std::string::npos);
  const std::string summary =
      ExplainSummary(*r->plan, rig.space, rig.space.BaselineCosts());
  EXPECT_NE(summary.find("total cost"), std::string::npos);
}

TEST(OptimizerTest, ZeroCostTiesKeepTheirWinner) {
  // Under an all-zero cost vector every plan costs 0, so the DP's
  // insertion order and the final canonical-id tie-break alone pick the
  // plan. Pinning the winners (bushy enumeration, every layout) pins both.
  const catalog::Catalog cat = tpch::MakeTpchCatalog(100.0);
  const std::pair<int, const char*> pins[] = {
      {8,
       "AGG[hash](SMJ[e1](INL[e5](INL[e4](INL[e0](INL[e3](INL[e2](IXS(l.l_"
       "sk),PROBE(o.o_pk)),PROBE(c.c_pk)),PROBE(p.p_pk)),PROBE(n1.n_pk)),"
       "PROBE(r.r_pk)),SORT[r2.c0](INL[e6](IXS(n2.n_pk),PROBE(s.s_nk)))))"},
      {9,
       "SORT[r5.c1](AGG[hash](INL[e5](INL[e2](INL[e4](INL[e0](INL[e1](IXS(l."
       "l_sk),PROBE(s.s_pk)),PROBE(p.p_pk)),PROBE(o.o_pk)),PROBE(ps.ps_pk)),"
       "PROBE(n.n_pk))))"},
  };
  for (const auto& [number, id] : pins) {
    const Query q = tpch::MakeTpchQuery(cat, number);
    for (LayoutPolicy policy :
         {LayoutPolicy::kSharedDevice, LayoutPolicy::kPerTableAndIndex,
          LayoutPolicy::kPerTableColocated}) {
      const StorageLayout layout(policy, cat, query::ReferencedTables(q));
      const storage::ResourceSpace space = layout.BuildResourceSpace();
      const Optimizer optimizer(cat, layout, space);
      ASSERT_TRUE(optimizer.options().bushy_joins);
      const Result<Optimized> r =
          optimizer.Optimize(q, core::CostVector(space.dims()));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->total_cost, 0.0);
      EXPECT_EQ(r->plan->id, id)
          << q.name << " under " << storage::LayoutPolicyName(policy);
    }
  }
}


TEST(OptimizerTest, WinnersCostsAndCandidateCountsArePinned) {
  // Q3, Q5, Q8 and Q9 under every layout at the baseline, four vertices of
  // the delta=100 band (all low, all high, and the two alternating masks)
  // and two seeded log-uniform points: the winner's id, its total cost bit
  // for bit, and the DP's priced, charged and kept join candidates per
  // call. Any change to the enumeration's candidates, pruning or ties
  // shows here; `charged` (usage vectors computed) pins the bound-first
  // rejections, the rest were recorded before them.
  constexpr LayoutPolicy kShared = LayoutPolicy::kSharedDevice;
  constexpr LayoutPolicy kPerTableAndIndex = LayoutPolicy::kPerTableAndIndex;
  constexpr LayoutPolicy kColocated = LayoutPolicy::kPerTableColocated;
  static const char* const kIds[] = {
      "SORT[r1.c4](AGG[hash](HSJ[e1](SCAN(l),HSJ[e0](SCAN(o),SCAN(c"
      ")))))",
      "SORT[r1.c4](AGG[sort](SMJ[e1](IXS(l.l_ok),SORT[r1.c0](HSJ[e0"
      "](SCAN(o),SCAN(c))))))",
      "SORT[r1.c4](AGG[hash](HSJ[e1](SCAN(l),INL[e0](SCAN(c),PROBE("
      "o.o_ck)))))",
      "AGG[hash](HSJ[e0](HSJ[e2](HSJ[e1](SCAN(l),SCAN(o)),HSJ[e4](S"
      "CAN(s),BNL[e5](SCAN(r),SCAN(n)))),SCAN(c)))",
      "AGG[hash](HSJ[e0](HSJ[e2](HSJ[e1](SCAN(l),SCAN(o)),INL[e4](B"
      "NL[e5](SCAN(r),SCAN(n)),PROBE(s.s_nk))),SCAN(c)))",
      "AGG[hash](HSJ[e0](HSJ[e1](INL[e2](HSJ[e4](SCAN(s),INL[e5](SC"
      "AN(r),PROBE(n.n_rk))),PROBE(l.l_sk)),SCAN(o)),SCAN(c)))",
      "AGG[hash](HSJ[e6](HSJ[e1](SCAN(s),HSJ[e4](HSJ[e3](SCAN(c),HS"
      "J[e2](SCAN(o),INL[e0](SCAN(p),PROBE(l.l_pk_sk)))),BNL[e5](SC"
      "AN(r),SCAN(n1)))),SCAN(n2)))",
      "AGG[hash](HSJ[e6](HSJ[e1](SCAN(s),HSJ[e4](HSJ[e3](SCAN(c),HS"
      "J[e2](SCAN(o),HSJ[e0](SCAN(l),SCAN(p)))),BNL[e5](SCAN(r),SCA"
      "N(n1)))),SCAN(n2)))",
      "AGG[hash](HSJ[e6](HSJ[e1](SCAN(s),HSJ[e3](INL[e4](BNL[e5](SC"
      "AN(r),SCAN(n1)),PROBE(c.c_nk)),HSJ[e2](SCAN(o),INL[e0](SCAN("
      "p),PROBE(l.l_pk_sk))))),SCAN(n2)))",
      "AGG[hash](HSJ[e6](HSJ[e1](SCAN(s),HSJ[e3](INL[e4](BNL[e5](SC"
      "AN(r),SCAN(n1)),PROBE(c.c_nk)),HSJ[e2](SCAN(o),HSJ[e0](SCAN("
      "l),SCAN(p))))),SCAN(n2)))",
      "AGG[hash](HSJ[e6](HSJ[e1](SCAN(s),HSJ[e4](HSJ[e3](SCAN(c),IN"
      "L[e2](INL[e0](SCAN(p),PROBE(l.l_pk_sk)),PROBE(o.o_pk))),INL["
      "e5](SCAN(r),PROBE(n1.n_rk)))),SCAN(n2)))",
      "SORT[r5.c1](AGG[hash](INL[e4](HSJ[e5](INL[e1](SMJ[e2](IXS(ps"
      ".ps_pk),SORT[r1.c1](HSJ[e0](SCAN(l),SCAN(p)))),PROBE(s.s_pk)"
      "),SCAN(n)),PROBE(o.o_pk:io))))",
      "SORT[r5.c1](AGG[hash](INL[e4](HSJ[e5](INL[e1](SMJ[e3](IXS(ps"
      ".ps_sk),SORT[r1.c2](INL[e0](SCAN(p),PROBE(l.l_pk_sk)))),PROB"
      "E(s.s_pk)),SCAN(n)),PROBE(o.o_pk:io))))",
      "SORT[r5.c1](AGG[hash](INL[e4](HSJ[e5](HSJ[e1](SCAN(s),HSJ[e2"
      "](SCAN(ps),HSJ[e0](SCAN(l),SCAN(p)))),SCAN(n)),PROBE(o.o_pk:"
      "io))))",
      "SORT[r5.c1](AGG[hash](INL[e4](HSJ[e5](INL[e1](HSJ[e2](SCAN(p"
      "s),HSJ[e0](SCAN(l),SCAN(p))),PROBE(s.s_pk)),SCAN(n)),PROBE(o"
      ".o_pk:io))))",
      "SORT[r5.c1](AGG[hash](INL[e4](HSJ[e5](INL[e1](HSJ[e2](SCAN(p"
      "s),INL[e0](SCAN(p),PROBE(l.l_pk_sk))),PROBE(s.s_pk)),SCAN(n)"
      "),PROBE(o.o_pk:io))))",
      "SORT[r5.c1](AGG[hash](INL[e4](HSJ[e5](INL[e1](INL[e0](SMJ[e2"
      "](IXS(ps.ps_pk),IXS(l.l_pk_sk)),PROBE(p.p_pk)),PROBE(s.s_pk)"
      "),SCAN(n)),PROBE(o.o_pk:io))))"};
  struct Pin {
    int query;
    LayoutPolicy policy;
    size_t point;
    size_t id;
    double total_cost;
    size_t priced;
    size_t charged;
    size_t kept;
  };
  static const Pin kPins[] = {
      {3, kShared, 0, 0, 0x1.11067988c4bdfp+28, 306, 42, 17},
      {3, kShared, 1, 0, 0x1.5d78ed7bdd1c1p+21, 306, 42, 17},
      {3, kShared, 2, 0, 0x1.aa9a1de5b368cp+34, 306, 42, 17},
      {3, kShared, 3, 0, 0x1.0c72184f72508p+31, 306, 42, 17},
      {3, kShared, 4, 0, 0x1.8916c6a330fdap+34, 306, 46, 17},
      {3, kShared, 5, 0, 0x1.87dc2d4891ab4p+30, 306, 42, 17},
      {3, kShared, 6, 0, 0x1.576a6bb067216p+31, 306, 42, 17},
      {3, kPerTableAndIndex, 0, 0, 0x1.11067988c4bep+28, 306, 42, 17},
      {3, kPerTableAndIndex, 1, 0, 0x1.5d78ed7bdd1c2p+21, 306, 42, 17},
      {3, kPerTableAndIndex, 2, 0, 0x1.aa9a1de5b368cp+34, 306, 42, 17},
      {3, kPerTableAndIndex, 3, 1, 0x1.9fcd747d32bd1p+34, 306, 40, 17},
      {3, kPerTableAndIndex, 4, 0, 0x1.54ac4b2b691d2p+25, 306, 36, 17},
      {3, kPerTableAndIndex, 5, 0, 0x1.ef3d8b2e07c13p+31, 306, 33, 17},
      {3, kPerTableAndIndex, 6, 0, 0x1.bbcd2bc045c3cp+26, 306, 42, 17},
      {3, kColocated, 0, 0, 0x1.11067988c4bep+28, 306, 42, 17},
      {3, kColocated, 1, 0, 0x1.5d78ed7bdd1c2p+21, 306, 42, 17},
      {3, kColocated, 2, 0, 0x1.aa9a1de5b368cp+34, 306, 42, 17},
      {3, kColocated, 3, 2, 0x1.4d729fdec31bep+34, 274, 47, 17},
      {3, kColocated, 4, 1, 0x1.4bdbf1b9839c1p+32, 306, 37, 17},
      {3, kColocated, 5, 0, 0x1.9d8bff771e3f9p+33, 306, 42, 17},
      {3, kColocated, 6, 0, 0x1.1124d17aeef66p+33, 306, 35, 17},
      {5, kShared, 0, 3, 0x1.016eb5e69897dp+28, 9476, 535, 139},
      {5, kShared, 1, 3, 0x1.498378316728bp+21, 9476, 535, 139},
      {5, kShared, 2, 3, 0x1.923cfc384e6d4p+34, 9476, 535, 139},
      {5, kShared, 3, 3, 0x1.faf5f108dc967p+30, 9476, 534, 139},
      {5, kShared, 4, 4, 0x1.7296c9b1f2329p+34, 9476, 543, 139},
      {5, kShared, 5, 3, 0x1.71e2f15879f73p+30, 9476, 523, 139},
      {5, kShared, 6, 3, 0x1.43fe90a092a32p+31, 9476, 532, 139},
      {5, kPerTableAndIndex, 0, 3, 0x1.016eb5e69897fp+28, 9476, 535, 139},
      {5, kPerTableAndIndex, 1, 3, 0x1.498378316728cp+21, 9476, 535, 139},
      {5, kPerTableAndIndex, 2, 3, 0x1.923cfc384e6d4p+34, 9476, 535, 139},
      {5, kPerTableAndIndex, 3, 3, 0x1.919a006570991p+34, 9476, 601, 139},
      {5, kPerTableAndIndex, 4, 4, 0x1.5a672b8a7d49p+25, 9476, 552, 139},
      {5, kPerTableAndIndex, 5, 3, 0x1.b2af7377a2cd4p+31, 9476, 528, 139},
      {5, kPerTableAndIndex, 6, 3, 0x1.65f676ec19cb1p+33, 9476, 563, 139},
      {5, kColocated, 0, 3, 0x1.016eb5e69897fp+28, 9476, 535, 139},
      {5, kColocated, 1, 3, 0x1.498378316728cp+21, 9476, 535, 139},
      {5, kColocated, 2, 3, 0x1.923cfc384e6d4p+34, 9476, 535, 139},
      {5, kColocated, 3, 3, 0x1.4ce0c765fe323p+34, 9476, 569, 139},
      {5, kColocated, 4, 5, 0x1.1444c32cf296fp+32, 9476, 540, 139},
      {5, kColocated, 5, 3, 0x1.79caaaadde31p+33, 9476, 515, 139},
      {5, kColocated, 6, 3, 0x1.cc1912e8f94a7p+27, 9476, 537, 139},
      {8, kShared, 0, 6, 0x1.633be8617354fp+27, 15020, 974, 211},
      {8, kShared, 1, 6, 0x1.c6b314f79ddd7p+20, 15020, 974, 211},
      {8, kShared, 2, 6, 0x1.1586cd8c221a6p+34, 15020, 974, 211},
      {8, kShared, 3, 7, 0x1.0487b117d8cf3p+31, 15020, 961, 211},
      {8, kShared, 4, 8, 0x1.0c29de9bfd68ep+33, 15020, 1016, 211},
      {8, kShared, 5, 6, 0x1.bf00b61c234fap+29, 15020, 986, 211},
      {8, kShared, 6, 7, 0x1.4d34bde792a29p+31, 15020, 964, 211},
      {8, kPerTableAndIndex, 0, 6, 0x1.633be8617354ep+27, 15020, 974, 211},
      {8, kPerTableAndIndex, 1, 6, 0x1.c6b314f79ddd7p+20, 15020, 974, 211},
      {8, kPerTableAndIndex, 2, 6, 0x1.1586cd8c221a7p+34, 15020, 974, 211},
      {8, kPerTableAndIndex, 3, 6, 0x1.0ed235cec7855p+34, 15020, 1058, 211},
      {8, kPerTableAndIndex, 4, 9, 0x1.4e536bfa0265bp+25, 15020, 932, 211},
      {8, kPerTableAndIndex, 5, 6, 0x1.01cc78f638e71p+33, 15020, 1049, 211},
      {8, kPerTableAndIndex, 6, 6, 0x1.920a94272ebdfp+32, 15020, 981, 211},
      {8, kColocated, 0, 6, 0x1.633be8617354ep+27, 15020, 974, 211},
      {8, kColocated, 1, 6, 0x1.c6b314f79ddd7p+20, 15020, 974, 211},
      {8, kColocated, 2, 6, 0x1.1586cd8c221a7p+34, 15020, 974, 211},
      {8, kColocated, 3, 10, 0x1.63a338f7eb19ap+30, 14730, 924, 211},
      {8, kColocated, 4, 6, 0x1.fe83f8d6c8a2p+33, 15020, 970, 211},
      {8, kColocated, 5, 6, 0x1.f4db83e53d9dap+31, 15020, 991, 211},
      {8, kColocated, 6, 6, 0x1.41387aeee28e3p+26, 15020, 1009, 211},
      {9, kShared, 0, 11, 0x1.0889b0afb7f75p+28, 5949, 570, 142},
      {9, kShared, 1, 11, 0x1.529bc37047a3p+21, 5949, 570, 142},
      {9, kShared, 2, 11, 0x1.9d5724128f727p+34, 5949, 570, 142},
      {9, kShared, 3, 11, 0x1.04bb74da54ba7p+31, 5949, 576, 142},
      {9, kShared, 4, 12, 0x1.4e4704019f0a5p+34, 5949, 617, 142},
      {9, kShared, 5, 11, 0x1.7c413a5da45e1p+30, 5949, 553, 142},
      {9, kShared, 6, 11, 0x1.4d16e95a47debp+31, 5949, 573, 142},
      {9, kPerTableAndIndex, 0, 11, 0x1.0889b0afb7f75p+28, 5949, 570, 142},
      {9, kPerTableAndIndex, 1, 11, 0x1.529bc37047a3p+21, 5949, 570, 142},
      {9, kPerTableAndIndex, 2, 11, 0x1.9d5724128f726p+34, 5949, 570, 142},
      {9, kPerTableAndIndex, 3, 11, 0x1.96285a00f2356p+34, 5949, 582, 142},
      {9, kPerTableAndIndex, 4, 13, 0x1.5ed15f1beffabp+25, 6370, 559, 142},
      {9, kPerTableAndIndex, 5, 14, 0x1.8fa39537d2188p+33, 5949, 517, 142},
      {9, kPerTableAndIndex, 6, 15, 0x1.70199a41da737p+30, 5867, 532, 141},
      {9, kColocated, 0, 11, 0x1.0889b0afb7f75p+28, 5949, 570, 142},
      {9, kColocated, 1, 11, 0x1.529bc37047a3p+21, 5949, 570, 142},
      {9, kColocated, 2, 11, 0x1.9d5724128f727p+34, 5949, 570, 142},
      {9, kColocated, 3, 16, 0x1.82bee93279566p+24, 5949, 491, 142},
      {9, kColocated, 4, 14, 0x1.7627110a3634bp+34, 5949, 526, 142},
      {9, kColocated, 5, 11, 0x1.10193bc3982fdp+32, 5949, 587, 142},
      {9, kColocated, 6, 14, 0x1.7906b1e59bbe9p+31, 5949, 502, 142},
  };
  const catalog::Catalog cat = tpch::MakeTpchCatalog(100.0);
  size_t checked = 0;
  for (int number : {3, 5, 8, 9}) {
    const Query q = tpch::MakeTpchQuery(cat, number);
    for (LayoutPolicy policy : {kShared, kPerTableAndIndex, kColocated}) {
      const StorageLayout layout(policy, cat, query::ReferencedTables(q));
      const storage::ResourceSpace space = layout.BuildResourceSpace();
      const Optimizer optimizer(cat, layout, space);
      const auto prepared = optimizer.Prepare(q);
      ASSERT_TRUE(prepared.ok());
      const core::CostVector baseline = space.BaselineCosts();
      const core::Box box = core::Box::MultiplicativeBand(baseline, 100.0);
      const uint64_t all = box.VertexCount() - 1;
      std::vector<core::CostVector> points = {
          baseline, box.Vertex(0), box.Vertex(all),
          box.Vertex(0x5555555555555555ull & all),
          box.Vertex(0xAAAAAAAAAAAAAAAAull & all)};
      Rng rng(17);
      points.push_back(box.SampleLogUniform(rng));
      points.push_back(box.SampleLogUniform(rng));
      for (const Pin& pin : kPins) {
        if (pin.query != number || pin.policy != policy) continue;
        const core::CostVector& c = points[pin.point];
        const Result<Optimized> r = optimizer.Optimize(**prepared, c);
        ASSERT_TRUE(r.ok());
        JoinEnumerator enumerator(**prepared);
        ASSERT_TRUE(enumerator.BestPlan(c).ok());
        const std::string where = q.name + " under " +
                                  storage::LayoutPolicyName(policy) +
                                  " at point " + std::to_string(pin.point);
        EXPECT_EQ(r->plan->id, kIds[pin.id]) << where;
        EXPECT_EQ(r->total_cost, pin.total_cost) << where;
        EXPECT_EQ(enumerator.counters().priced, pin.priced) << where;
        EXPECT_EQ(enumerator.counters().charged, pin.charged) << where;
        EXPECT_EQ(enumerator.counters().kept, pin.kept) << where;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPins));
}

TEST(OptimizerTest, AllQueriesMatchParentDigest) {
  // All 22 queries under every layout, at the baseline, at four vertices
  // (all low, all high, the two alternating masks) and four seeded
  // log-uniform points of the delta = 2, 100 and 1e4 bands, and at two
  // points off the box: the baseline with its first coordinate at zero,
  // and with it negative (discovery's LP can probe there). One FNV-64
  // digest over every call's winner id, total cost and usage, each cost
  // and coordinate as a hexfloat, so any bit of any answer that moves
  // shows. Recorded from the point DP before bound-first pruning.
  const catalog::Catalog cat = tpch::MakeTpchCatalog(100.0);
  uint64_t digest = 0xcbf29ce484222325ull;
  const auto mix = [&digest](const std::string& text) {
    for (const unsigned char ch : text) {
      digest ^= ch;
      digest *= 0x100000001b3ull;
    }
  };
  size_t calls = 0;
  for (const Query& q : tpch::MakeTpchQueries(cat)) {
    for (LayoutPolicy policy :
         {LayoutPolicy::kSharedDevice, LayoutPolicy::kPerTableAndIndex,
          LayoutPolicy::kPerTableColocated}) {
      const StorageLayout layout(policy, cat, query::ReferencedTables(q));
      const storage::ResourceSpace space = layout.BuildResourceSpace();
      const Optimizer optimizer(cat, layout, space);
      const auto prepared = optimizer.Prepare(q);
      ASSERT_TRUE(prepared.ok());
      const core::CostVector baseline = space.BaselineCosts();
      std::vector<core::CostVector> points = {baseline};
      Rng rng(29);
      for (double delta : {2.0, 100.0, 1e4}) {
        const core::Box box = core::Box::MultiplicativeBand(baseline, delta);
        const uint64_t all = box.VertexCount() - 1;
        for (const uint64_t mask :
             {uint64_t{0}, all, uint64_t{0x5555555555555555ull} & all,
              uint64_t{0xAAAAAAAAAAAAAAAAull} & all}) {
          points.push_back(box.Vertex(mask));
        }
        for (int i = 0; i < 4; ++i) points.push_back(box.SampleLogUniform(rng));
      }
      core::CostVector zero = baseline;
      zero[0] = 0.0;
      points.push_back(zero);
      core::CostVector negative = baseline;
      negative[0] = -1e3 * baseline[0];
      points.push_back(negative);
      for (const core::CostVector& c : points) {
        const Result<Optimized> r = optimizer.Optimize(**prepared, c);
        ASSERT_TRUE(r.ok()) << q.name;
        mix(r->plan->id);
        mix(StrFormat(" %a", r->total_cost));
        for (const double u : r->plan->usage) mix(StrFormat(" %a", u));
        mix("\n");
        ++calls;
      }
    }
  }
  EXPECT_EQ(calls, 22u * 3u * 27u);
  EXPECT_EQ(digest, 0x05ce99aeee6df850ull)
      << StrFormat("0x%016llx", static_cast<unsigned long long>(digest));
}

}  // namespace
}  // namespace costsense::opt
