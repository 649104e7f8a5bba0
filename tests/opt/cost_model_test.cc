// Unit tests of the per-operator cost formulas: where each operator
// charges I/O (which device), how much, and how memory thresholds flip
// spill behaviour. These are the mechanics that create the paper's
// access-path and temp complementary plans.
#include "opt/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/feasible_region.h"
#include "query/builder.h"

namespace costsense::opt {
namespace {

using query::Query;
using query::QueryBuilder;
using storage::LayoutPolicy;
using storage::StorageLayout;

catalog::Catalog MakeCatalog(catalog::SystemConfig config = {}) {
  catalog::Catalog cat(std::move(config));
  const int big = cat.AddTable(catalog::Table(
      "big", 100000, 4096,
      {catalog::MakeColumn("id", 100000, 1, 100000, 4),
       catalog::MakeColumn("grp", 50, 1, 50, 4),
       catalog::MakeColumn("pad", 100000, 0, 0, 100)}));
  const int small = cat.AddTable(catalog::Table(
      "small", 1000, 4096,
      {catalog::MakeColumn("id", 1000, 1, 1000, 4),
       catalog::MakeColumn("pad", 1000, 0, 0, 50)}));
  cat.AddIndex("big_id", big, {0}, true, /*clustered=*/true);
  cat.AddIndex("big_grp", big, {1}, false, /*clustered=*/false);
  cat.AddIndex("small_id", small, {0}, true, false);
  return cat;
}

/// Shared-device split space: dims [seek, transfer, cpu].
struct SplitRig {
  catalog::Catalog cat;
  Query q;
  StorageLayout layout;
  storage::ResourceSpace space;
  CostModel model;

  SplitRig(catalog::Catalog c, Query query)
      : cat(std::move(c)),
        q(std::move(query)),
        layout(LayoutPolicy::kSharedDevice, cat, query::ReferencedTables(q)),
        space(layout.BuildResourceSpace()),
        model(cat, layout, space, q) {}
};

/// Separate-device tied space for temp isolation.
struct TiedRig {
  catalog::Catalog cat;
  Query q;
  StorageLayout layout;
  storage::ResourceSpace space;
  CostModel model;
  size_t temp_dim;

  TiedRig(catalog::Catalog c, Query query)
      : cat(std::move(c)),
        q(std::move(query)),
        layout(LayoutPolicy::kPerTableColocated, cat,
               query::ReferencedTables(q)),
        space(layout.BuildResourceSpace()),
        model(cat, layout, space, q),
        temp_dim(0) {
    for (size_t i = 0; i < space.dim_info().size(); ++i) {
      if (space.dim_info()[i].cls == core::DimClass::kTemp) temp_dim = i;
    }
  }
};

TEST(CostModelTest, SeqScanCharges) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "t")
                .Table("big", "b")
                .Restrict("b", "grp", 0.02)
                .Build();
  SplitRig rig(std::move(cat), std::move(q));
  const PlanNodePtr scan = rig.model.SeqScan(0);
  const double pages = rig.cat.table(0).pages();
  EXPECT_DOUBLE_EQ(scan->usage[0], std::max(1.0, pages / 32.0));  // seeks
  EXPECT_DOUBLE_EQ(scan->usage[1], pages);                        // transfer
  EXPECT_DOUBLE_EQ(scan->usage[2], 100000 * (300.0 + 100.0));     // cpu
  EXPECT_DOUBLE_EQ(scan->output_rows, 2000.0);
  EXPECT_TRUE(scan->order.empty());
}

TEST(CostModelTest, UnclusteredIndexScanPaysRandomFetches) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "t")
                .Table("big", "b")
                .Restrict("b", "grp", 0.02)
                .Build();
  SplitRig rig(std::move(cat), std::move(q));
  const int grp_index = rig.cat.FindIndexByLeadingColumn(0, 1);
  ASSERT_GE(grp_index, 0);
  const PlanNodePtr ixs = rig.model.IndexScan(0, grp_index, false);
  // Fetches are random: seeks track pages one-for-one and land well
  // below the full table but far above the sequential scan's seek count.
  EXPECT_GT(ixs->usage[0], 100.0);
  EXPECT_LT(ixs->usage[1], rig.cat.table(0).pages());
  // The stream carries the index order.
  ASSERT_FALSE(ixs->order.empty());
  EXPECT_EQ(ixs->order[0].column, 1u);
}

TEST(CostModelTest, ClusteredIndexScanIsMostlySequential) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "t")
                .Table("big", "b")
                .Restrict("b", "id", 0.02)
                .Build();
  SplitRig rig(std::move(cat), std::move(q));
  const int id_index = rig.cat.FindIndexByLeadingColumn(0, 0);
  const PlanNodePtr clustered = rig.model.IndexScan(0, id_index, false);
  const int grp_index = rig.cat.FindIndexByLeadingColumn(0, 1);
  // Compare seek-to-transfer balance: the clustered path is sequential.
  const PlanNodePtr unclustered = rig.model.IndexScan(0, grp_index, false);
  EXPECT_LT(clustered->usage[0] / clustered->usage[1],
            unclustered->usage[0] / unclustered->usage[1]);
}

TEST(CostModelTest, IndexOnlySkipsDataPages) {
  catalog::Catalog cat = MakeCatalog();
  // Query touching only the id column, narrow projection: coverable.
  Query q = QueryBuilder(cat, "t")
                .Table("big", "b")
                .Restrict("b", "id", 0.1)
                .Project("b", 0.05)
                .Build();
  SplitRig rig(std::move(cat), std::move(q));
  const int id_index = rig.cat.FindIndexByLeadingColumn(0, 0);
  ASSERT_TRUE(rig.model.IndexCoversRef(0, id_index));
  const PlanNodePtr io = rig.model.IndexScan(0, id_index, true);
  const PlanNodePtr fetch = rig.model.IndexScan(0, id_index, false);
  EXPECT_LT(io->usage[1], fetch->usage[1]);
  EXPECT_LT(io->output_width_bytes, fetch->output_width_bytes);
}

TEST(CostModelTest, WideProjectionBlocksIndexOnly) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "t")
                .Table("big", "b")
                .Restrict("b", "id", 0.1)
                .Build();  // default projection: whole row
  SplitRig rig(std::move(cat), std::move(q));
  EXPECT_FALSE(
      rig.model.IndexCoversRef(0, rig.cat.FindIndexByLeadingColumn(0, 0)));
}

TEST(CostModelTest, UsedColumnsCollectsAllRoles) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "t")
                .Table("big", "b")
                .Table("small", "s")
                .Restrict("b", "grp", 0.5)
                .Join("b", "id", "s", "id")
                .OrderBy("b", "pad")
                .Build();
  SplitRig rig(std::move(cat), std::move(q));
  const std::vector<size_t> used = rig.model.UsedColumns(0);
  EXPECT_EQ(used.size(), 3u);  // grp (restriction), id (join), pad (order)
}

TEST(CostModelTest, SmallSortStaysInMemory) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "t").Table("small", "s").Build();
  TiedRig rig(std::move(cat), std::move(q));
  const PlanNodePtr sorted =
      rig.model.Sort(rig.model.SeqScan(0), {{0, 1}});
  EXPECT_DOUBLE_EQ(sorted->usage[rig.temp_dim], 0.0);
  ASSERT_EQ(sorted->order.size(), 1u);
}

TEST(CostModelTest, BigSortSpillsToTemp) {
  catalog::SystemConfig config;
  config.sort_heap_pages = 10.0;  // force external sort
  catalog::Catalog cat = MakeCatalog(config);
  Query q = QueryBuilder(cat, "t").Table("big", "b").Build();
  TiedRig rig(std::move(cat), std::move(q));
  const PlanNodePtr sorted =
      rig.model.Sort(rig.model.SeqScan(0), {{0, 1}});
  EXPECT_GT(sorted->usage[rig.temp_dim], 0.0);
}

TEST(CostModelTest, SortIsNoOpWhenOrderSatisfied) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "t")
                .Table("big", "b")
                .Restrict("b", "id", 0.1)
                .Build();
  SplitRig rig(std::move(cat), std::move(q));
  const PlanNodePtr ixs =
      rig.model.IndexScan(0, rig.cat.FindIndexByLeadingColumn(0, 0), false);
  const PlanNodePtr sorted = rig.model.Sort(ixs, {{0, 0}});
  EXPECT_EQ(sorted.get(), ixs.get());  // same node, no wrapper
}

Query JoinQuery(const catalog::Catalog& cat) {
  return QueryBuilder(cat, "t")
      .Table("big", "b")
      .Table("small", "s")
      .Join("b", "id", "s", "id")
      .Build();
}

TEST(CostModelTest, HashJoinSpillsOnlyWhenBuildExceedsMemory) {
  catalog::SystemConfig small_mem;
  small_mem.buffer_pool_pages = 40.0;  // build side (small: ~18 pages) fits
  {
    catalog::Catalog cat = MakeCatalog(small_mem);
    Query q = JoinQuery(cat);
    TiedRig rig(std::move(cat), std::move(q));
    CostModel::JoinProps props{100000.0, 170.0, 0, 0};
    const PlanNodePtr big = rig.model.SeqScan(0);
    const PlanNodePtr small = rig.model.SeqScan(1);
    const PlanNodePtr join = rig.model.HashJoin(big, small, props);
    EXPECT_DOUBLE_EQ(join->usage[rig.temp_dim], 0.0) << "build fits";
    // Swap: big build side (3000+ pages) must spill.
    const PlanNodePtr spilled = rig.model.HashJoin(small, big, props);
    EXPECT_GT(spilled->usage[rig.temp_dim], 0.0);
    // The charge function prices either case exactly as the node.
    core::UsageVector usage;
    rig.model.ChargeHashJoin(*big, *small, props, usage);
    EXPECT_EQ(usage, join->usage);
    rig.model.ChargeHashJoin(*small, *big, props, usage);  // reused scratch
    EXPECT_EQ(usage, spilled->usage);
  }
}

TEST(CostModelTest, IndexNLJoinChargesIndexDevicePerProbe) {
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "t")
                .Table("small", "s")
                .Table("big", "b")
                .Join("s", "id", "b", "id")
                .Build();
  SplitRig rig(std::move(cat), std::move(q));
  const int id_index = rig.cat.FindIndexByLeadingColumn(1, 0);
  CostModel::JoinProps props{1000.0, 170.0, 0, 0};
  const PlanNodePtr outer = rig.model.SeqScan(0);
  const PlanNodePtr join =
      rig.model.IndexNLJoin(outer, rig.model.ProbeLeaf(1, id_index, false),
                            props);
  // 1000 probes => at least 1000 extra seeks beyond the outer's.
  EXPECT_GE(join->usage[0], outer->usage[0] + 1000.0);
  // Nested loops preserves outer order (outer is unordered here).
  EXPECT_EQ(join->order, outer->order);
  EXPECT_EQ(join->output_rows, 1000.0);
  // The charge function prices plain and index-only probes exactly as
  // the nodes; index-only skips the data-page fetches.
  const PlanNodePtr index_only =
      rig.model.IndexNLJoin(outer, rig.model.ProbeLeaf(1, id_index, true),
                            props);
  core::UsageVector usage;
  rig.model.ChargeIndexNLJoin(*outer, 1, id_index, false, props, usage);
  EXPECT_EQ(usage, join->usage);
  rig.model.ChargeIndexNLJoin(*outer, 1, id_index, true, props, usage);
  EXPECT_EQ(usage, index_only->usage);
  EXPECT_LT(index_only->usage[1], join->usage[1]);
}

TEST(CostModelTest, BlockNLJoinMaterializesNonLeafInner) {
  catalog::Catalog cat = MakeCatalog();
  Query q = JoinQuery(cat);
  TiedRig rig(std::move(cat), std::move(q));
  CostModel::JoinProps props{100000.0, 170.0, 0, 0};
  const PlanNodePtr outer = rig.model.SeqScan(0);
  const PlanNodePtr leaf = rig.model.SeqScan(1);
  // Leaf inner: rescans the base table, no temp.
  const PlanNodePtr leaf_inner = rig.model.BlockNLJoin(outer, leaf, props);
  EXPECT_DOUBLE_EQ(leaf_inner->usage[rig.temp_dim], 0.0);
  // Non-leaf inner (a sort) must materialize to temp.
  const PlanNodePtr sorted_inner = rig.model.Sort(leaf, {{1, 1}});
  ASSERT_EQ(sorted_inner->op, OpType::kSort);
  const PlanNodePtr mat = rig.model.BlockNLJoin(outer, sorted_inner, props);
  EXPECT_GT(mat->usage[rig.temp_dim], 0.0);
  // The charge function prices both exactly as the nodes.
  core::UsageVector usage;
  rig.model.ChargeBlockNLJoin(*outer, *leaf, props, usage);
  EXPECT_EQ(usage, leaf_inner->usage);
  rig.model.ChargeBlockNLJoin(*outer, *sorted_inner, props, usage);
  EXPECT_EQ(usage, mat->usage);
}

TEST(CostModelTest, SortMergeJoinDeclaresMergeOrder) {
  catalog::Catalog cat = MakeCatalog();
  Query q = JoinQuery(cat);
  SplitRig rig(std::move(cat), std::move(q));
  CostModel::JoinProps props{100000.0, 170.0, 0, 0};
  const PlanNodePtr l = rig.model.Sort(rig.model.SeqScan(0), {{0, 0}});
  const PlanNodePtr r = rig.model.Sort(rig.model.SeqScan(1), {{1, 0}});
  const PlanNodePtr join = rig.model.SortMergeJoin(l, r, props);
  ASSERT_EQ(join->order.size(), 1u);
  EXPECT_EQ(join->order[0].ref, 0u);
  EXPECT_EQ(join->order[0].column, 0u);
}

TEST(CostModelTest, SortMergeJoinChargeEqualsNodeUsage) {
  // Charge functions are the one place each join's usage is computed, so
  // pricing in scratch space must give exactly the built node's usage.
  // Here the merge is priced over sorted inputs that exist only in
  // scratch space, as the enumerator does, and compared with the built
  // Sort + merge.
  const auto check = [](const CostModel& m, const PlanNodePtr& l,
                        const PlanNodePtr& r) {
    const std::vector<query::SortKey> lkey = {{0, 0}};
    const std::vector<query::SortKey> rkey = {{1, 0}};
    const CostModel::JoinProps props{100000.0, 170.0, 0, 0};
    core::UsageVector l_sorted;
    core::UsageVector r_sorted;
    core::UsageVector usage;
    m.ChargeSortMergeJoin(m.SortedInput(*l, lkey, l_sorted),
                          m.SortedInput(*r, rkey, r_sorted), props, usage);
    EXPECT_EQ(usage,
              m.SortMergeJoin(m.Sort(l, lkey), m.Sort(r, rkey), props)->usage);
    return usage;
  };
  {  // In-memory sorts of both inputs.
    catalog::Catalog cat = MakeCatalog();
    Query q = JoinQuery(cat);
    TiedRig rig(std::move(cat), std::move(q));
    const core::UsageVector usage =
        check(rig.model, rig.model.SeqScan(0), rig.model.SeqScan(1));
    EXPECT_DOUBLE_EQ(usage[rig.temp_dim], 0.0);
  }
  {  // External sorts, and a left input already in key order.
    catalog::SystemConfig config;
    config.sort_heap_pages = 10.0;
    catalog::Catalog cat = MakeCatalog(config);
    Query q = JoinQuery(cat);
    TiedRig rig(std::move(cat), std::move(q));
    const core::UsageVector external =
        check(rig.model, rig.model.SeqScan(0), rig.model.SeqScan(1));
    EXPECT_GT(external[rig.temp_dim], 0.0);
    const PlanNodePtr ordered = rig.model.IndexScan(
        0, rig.cat.FindIndexByLeadingColumn(0, 0), false);
    ASSERT_FALSE(ordered->order.empty());
    check(rig.model, ordered, rig.model.SeqScan(1));
  }
}

TEST(CostModelTest, PriceFunctionsMatchChargedCosts) {
  // The enumerator rejects join candidates on their inputs' costs plus an
  // own price, so each price function must agree with its charge
  // function: inputs' costs plus own price equal the charged usage priced
  // at C, to 1e-12 relative, and no join prices below the join-output
  // CPU. Random inputs and cost vectors under both granularities reach
  // every branch: hash spills, external sorts, rescanned and materialized
  // inners, plain and index-only probes.
  catalog::SystemConfig config;
  config.sort_heap_pages = 10.0;
  config.buffer_pool_pages = 40.0;
  const auto check = [](const CostModel& m,
                        const storage::ResourceSpace& space,
                        const catalog::Catalog& cat) {
    const int small_id = cat.FindIndexByLeadingColumn(1, 0);
    ASSERT_GE(small_id, 0);
    Rng rng(5);
    const core::Box box =
        core::Box::MultiplicativeBand(space.BaselineCosts(), 1e4);
    const auto random_input = [&rng, &space](bool base_access) {
      PlanNode n;
      n.op = base_access ? OpType::kSeqScan : OpType::kHashJoin;
      n.output_rows = rng.LogUniform(0.5, 1e7);
      n.output_pages = rng.LogUniform(1.0, 1e5);
      n.usage = space.ZeroUsage();
      for (size_t i = 0; i < n.usage.size(); ++i) {
        n.usage[i] = rng.LogUniform(1e-3, 1e9);
      }
      return n;
    };
    core::UsageVector usage;
    for (int trial = 0; trial < 200; ++trial) {
      const core::CostVector c = box.SampleLogUniform(rng);
      const CostModel::UnitPrices prices = m.Prices(c);
      const PlanNode l = random_input(rng.Uniform() < 0.5);
      const PlanNode r = random_input(rng.Uniform() < 0.5);
      const CostModel::Priced lp(l, core::TotalCost(l.usage, c));
      const CostModel::Priced rp(r, core::TotalCost(r.usage, c));
      const CostModel::JoinProps props{rng.LogUniform(0.5, 1e8), 100.0, 0,
                                       static_cast<int>(rng.Index(3))};
      const double output = m.PriceJoinOutput(props, prices);
      const auto expect = [&](double inputs, double own, bool join,
                              const char* what) {
        const double exact = core::TotalCost(usage, c);
        EXPECT_NEAR(inputs + own, exact, 1e-12 * exact)
            << what << " at trial " << trial;
        if (join) {
          EXPECT_LE(output, own) << what << " at trial " << trial;
        }
      };
      m.ChargeHashJoin(l, r, props, usage);
      expect(lp.cost + rp.cost, m.PriceHashJoinOwn(lp, rp, props, prices),
             true, "hash join");
      m.ChargeSortMergeJoin(l, r, props, usage);
      expect(lp.cost + rp.cost,
             m.PriceSortMergeJoinOwn(lp, rp, props, prices), true,
             "sort-merge join");
      m.ChargeBlockNLJoin(l, r, props, usage);
      expect(lp.cost + rp.cost, m.PriceBlockNLJoinOwn(lp, rp, props, prices),
             true, "block nested-loops join");
      for (const bool index_only : {false, true}) {
        m.ChargeIndexNLJoin(l, 1, small_id, index_only, props, usage);
        expect(lp.cost,
               m.PriceIndexNLJoinOwn(lp, 1, small_id, index_only, props,
                                     prices),
               true, "index nested-loops join");
      }
      m.ChargeSort(l, usage);
      expect(lp.cost, m.PriceSortOwn(lp, prices), false, "sort");
    }
  };
  {
    catalog::Catalog cat = MakeCatalog(config);
    Query q = JoinQuery(cat);
    SplitRig rig(std::move(cat), std::move(q));
    check(rig.model, rig.space, rig.cat);
  }
  {
    catalog::Catalog cat = MakeCatalog(config);
    Query q = JoinQuery(cat);
    TiedRig rig(std::move(cat), std::move(q));
    check(rig.model, rig.space, rig.cat);
  }
}

TEST(CostModelTest, HashAggSpillsWhenGroupsExceedHeap) {
  catalog::SystemConfig config;
  config.sort_heap_pages = 5.0;
  catalog::Catalog cat = MakeCatalog(config);
  Query q = QueryBuilder(cat, "t")
                .Table("big", "b")
                .GroupBy(50000, {"b.id"})
                .Build();
  TiedRig rig(std::move(cat), std::move(q));
  const PlanNodePtr agg = rig.model.Aggregate(rig.model.SeqScan(0), false);
  EXPECT_GT(agg->usage[rig.temp_dim], 0.0);
  EXPECT_DOUBLE_EQ(agg->output_rows, 50000.0);
}

TEST(CostModelTest, ResidualEdgesAddCpu) {
  catalog::Catalog cat = MakeCatalog();
  Query q = JoinQuery(cat);
  SplitRig rig(std::move(cat), std::move(q));
  CostModel::JoinProps base{100000.0, 170.0, 0, 0};
  CostModel::JoinProps residual{100000.0, 170.0, 0, 2};
  const PlanNodePtr j0 = rig.model.HashJoin(rig.model.SeqScan(0),
                                            rig.model.SeqScan(1), base);
  const PlanNodePtr j2 = rig.model.HashJoin(rig.model.SeqScan(0),
                                            rig.model.SeqScan(1), residual);
  EXPECT_GT(j2->usage[2], j0->usage[2]);
  EXPECT_DOUBLE_EQ(j2->usage[0], j0->usage[0]);  // same I/O
}

TEST(CostModelTest, CanonicalIdsDistinguishVariants) {
  {
    catalog::Catalog cat = MakeCatalog();
    Query q = QueryBuilder(cat, "t")
                  .Table("big", "b")
                  .Restrict("b", "id", 0.1)
                  .Project("b", 0.05)
                  .Build();
    SplitRig rig(std::move(cat), std::move(q));
    const int id_index = rig.cat.FindIndexByLeadingColumn(0, 0);
    EXPECT_NE(rig.model.IndexScan(0, id_index, true)->id,
              rig.model.IndexScan(0, id_index, false)->id);
    EXPECT_NE(rig.model.SeqScan(0)->id,
              rig.model.IndexScan(0, id_index, false)->id);
  }
  // Plan ids are what the sensitivity layer sees, so their exact text is
  // part of the interface: join, sort and aggregate ids are rendered from
  // the tree (PlanId) and must read exactly as they always have.
  catalog::Catalog cat = MakeCatalog();
  Query q = QueryBuilder(cat, "t")
                .Table("big", "b")
                .Table("small", "s")
                .Join("b", "id", "s", "id")
                .GroupBy(50, {"b.grp"})
                .Build();
  SplitRig rig(std::move(cat), std::move(q));
  const CostModel& m = rig.model;
  const int big_id = rig.cat.FindIndexByLeadingColumn(0, 0);
  const int small_id = rig.cat.FindIndexByLeadingColumn(1, 0);
  const CostModel::JoinProps props{1000.0, 170.0, 0, 0};
  const CostModel::JoinProps cross{1000.0, 170.0, -1, 0};
  const PlanNodePtr b = m.SeqScan(0);
  const PlanNodePtr s = m.SeqScan(1);
  const PlanNodePtr b_ix = m.IndexScan(0, big_id, false);
  const PlanNodePtr sorted = m.Sort(s, {{1, 0}, {1, 1}});
  const PlanNodePtr hash = m.HashJoin(b, s, props);

  EXPECT_EQ(PlanId(*b), "SCAN(b)");
  EXPECT_EQ(PlanId(*b_ix), "IXS(b.big_id)");
  EXPECT_EQ(PlanId(*m.IndexScan(0, big_id, true)), "IXS(b.big_id:io)");
  EXPECT_EQ(PlanId(*sorted), "SORT[r1.c0,r1.c1](SCAN(s))");
  EXPECT_EQ(PlanId(*hash), "HSJ[e0](SCAN(b),SCAN(s))");
  EXPECT_EQ(PlanId(*m.SortMergeJoin(b_ix, sorted, props)),
            "SMJ[e0](IXS(b.big_id),SORT[r1.c0,r1.c1](SCAN(s)))");
  EXPECT_EQ(PlanId(*m.BlockNLJoin(b, sorted, props)),
            "BNL[e0](SCAN(b),SORT[r1.c0,r1.c1](SCAN(s)))");
  EXPECT_EQ(PlanId(*m.BlockNLJoin(b, s, cross)), "BNL[e-1](SCAN(b),SCAN(s))");
  EXPECT_EQ(PlanId(*m.IndexNLJoin(b, m.ProbeLeaf(1, small_id, false), props)),
            "INL[e0](SCAN(b),PROBE(s.small_id))");
  EXPECT_EQ(PlanId(*m.IndexNLJoin(b, m.ProbeLeaf(1, small_id, true), props)),
            "INL[e0](SCAN(b),PROBE(s.small_id:io))");
  EXPECT_EQ(PlanId(*m.Aggregate(hash, false)),
            "AGG[hash](HSJ[e0](SCAN(b),SCAN(s)))");
  EXPECT_EQ(PlanId(*m.Aggregate(m.Sort(hash, {{0, 1}}), true)),
            "AGG[sort](SORT[r0.c1](HSJ[e0](SCAN(b),SCAN(s))))");
}

TEST(PlanTest, OrderSatisfiesPrefixSemantics) {
  const std::vector<query::SortKey> produced = {{0, 1}, {0, 2}};
  EXPECT_TRUE(OrderSatisfies(produced, {}));
  EXPECT_TRUE(OrderSatisfies(produced, {{0, 1}}));
  EXPECT_TRUE(OrderSatisfies(produced, {{0, 1}, {0, 2}}));
  EXPECT_FALSE(OrderSatisfies(produced, {{0, 2}}));
  EXPECT_FALSE(OrderSatisfies(produced, {{0, 1}, {0, 2}, {0, 3}}));
}

TEST(PlanTest, KeysToStringFormat) {
  EXPECT_EQ(KeysToString({{0, 1}, {2, 3}}), "r0.c1,r2.c3");
  EXPECT_EQ(KeysToString({}), "");
}

}  // namespace
}  // namespace costsense::opt
