#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include <cmath>

#include "catalog/selectivity.h"

namespace costsense::catalog {
namespace {

Table SmallTable() {
  return Table("t", /*row_count=*/100000, /*page_size_bytes=*/4096,
               {MakeColumn("id", 100000, 1, 100000, 4),
                MakeColumn("grp", 50, 1, 50, 4),
                MakeColumn("payload", 100000, 0, 0, 100)});
}

TEST(TableTest, PageCountFromWidths) {
  const Table t = SmallTable();
  // Row width = 10 (overhead) + 4 + 4 + 100 = 118; 4096*0.9/118 = 31
  // rows/page; 100000/31 = 3226 pages.
  EXPECT_DOUBLE_EQ(t.row_width_bytes(), 118.0);
  EXPECT_DOUBLE_EQ(t.pages(), std::ceil(100000.0 / 31.0));
}

TEST(TableTest, ColumnIndexLookups) {
  const Table t = SmallTable();
  EXPECT_EQ(t.ColumnIndex("grp").value(), 1u);
  EXPECT_FALSE(t.ColumnIndex("nope").ok());
}

TEST(TableTest, TinyTableHasOnePage) {
  const Table t("tiny", 5, 4096, {MakeColumn("k", 5, 0, 4, 4)});
  EXPECT_DOUBLE_EQ(t.pages(), 1.0);
}

TEST(CatalogTest, AddAndLookup) {
  Catalog cat;
  const int id = cat.AddTable(SmallTable());
  EXPECT_EQ(cat.TableId("t").value(), id);
  EXPECT_FALSE(cat.TableId("u").ok());
  EXPECT_EQ(cat.num_tables(), 1u);
}

TEST(CatalogTest, IndexConstructionAndLookup) {
  Catalog cat;
  const int t = cat.AddTable(SmallTable());
  const int pk = cat.AddIndex("t_pk", t, {0}, true, true);
  const int gi = cat.AddIndex("t_grp", t, {1}, false, false);
  EXPECT_EQ(cat.IndexesOn(t), (std::vector<int>{pk, gi}));
  EXPECT_EQ(cat.FindIndexByLeadingColumn(t, 1), gi);
  EXPECT_EQ(cat.FindIndexByLeadingColumn(t, 2), -1);

  const Index& idx = cat.index(pk);
  // Entry = 4 (key) + 8 (rid) = 12 bytes; 4096*0.7/12 = 238 entries/leaf;
  // 100000/238 = 421 leaves; levels: 421 -> 2 -> 1 => 3.
  EXPECT_DOUBLE_EQ(idx.leaf_pages, std::ceil(100000.0 / 238.0));
  EXPECT_EQ(idx.levels, 3);
  EXPECT_TRUE(idx.clustered);
}

TEST(SelectivityTest, JoinUsesLargerDomain) {
  ColumnStats a, b;
  a.n_distinct = 100;
  b.n_distinct = 1000;
  EXPECT_DOUBLE_EQ(JoinSelectivity(a, b), 1e-3);
}

TEST(YaoTest, BoundsAndMonotonicity) {
  const double rows = 1e6, pages = 1e4;
  EXPECT_DOUBLE_EQ(ExpectedPagesFetched(0, rows, pages), 0.0);
  double prev = 0.0;
  for (double k : {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6}) {
    const double got = ExpectedPagesFetched(k, rows, pages);
    EXPECT_GE(got, prev);            // monotone in rows fetched
    EXPECT_LE(got, pages * 1.0001);  // never more than all pages
    EXPECT_LE(got, k * 1.0001);      // never more than one page per row
    prev = got;
  }
  // Fetching every row touches essentially every page.
  EXPECT_NEAR(ExpectedPagesFetched(rows, rows, pages), pages, pages * 0.01);
  // Tiny fetch counts touch ~one page each.
  EXPECT_NEAR(ExpectedPagesFetched(5, rows, pages), 5.0, 0.01);
}

TEST(YaoTest, StableAtTpchScale) {
  // SF-100 lineitem: 6e8 rows, ~2e7 pages; must not over/underflow.
  const double got = ExpectedPagesFetched(1e4, 6e8, 2e7);
  EXPECT_GT(got, 9.9e3);
  EXPECT_LT(got, 1.0001e4);
}

TEST(SystemConfigTest, ParameterTableMatchesPaper) {
  const SystemConfig config;
  const auto params = config.ToParameterTable();
  ASSERT_EQ(params.size(), 15u);
  EXPECT_EQ(params[9].first, "DFT_DEGREE");
  EXPECT_EQ(params[9].second, "32");
  EXPECT_EQ(params[13].first, "OPT_BUFFPAGE");
  EXPECT_EQ(params[13].second, "640000");
  EXPECT_EQ(params[14].second, "128000");
}

}  // namespace
}  // namespace costsense::catalog
