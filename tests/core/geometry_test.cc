// Tests for the feasible cost region of the framework: the box of cost
// vectors the true costs may lie in (paper Section 3.3).
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "core/feasible_region.h"

namespace costsense::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(BoxTest, MultiplicativeBandBounds) {
  const Box box = Box::MultiplicativeBand(CostVector{24.1, 9.0, 1e-6}, 10.0);
  EXPECT_NEAR(box.lower()[0], 2.41, 1e-12);
  EXPECT_NEAR(box.upper()[0], 241.0, 1e-12);
  EXPECT_NEAR(box.lower()[2], 1e-7, 1e-18);
  EXPECT_NEAR(box.upper()[2], 1e-5, 1e-16);
}

TEST(BoxTest, CenterOfBandIsBaseline) {
  const CostVector baseline{24.1, 9.0, 1e-6};
  const Box box = Box::MultiplicativeBand(baseline, 100.0);
  const CostVector center = box.Center();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(center[i], baseline[i], 1e-9 * baseline[i]);
  }
}

TEST(BoxTest, VertexEnumeration) {
  const Box box(CostVector{1.0, 2.0}, CostVector{3.0, 4.0});
  EXPECT_EQ(box.VertexCount(), 4u);
  EXPECT_EQ(box.Vertex(0b00), (CostVector{1.0, 2.0}));
  EXPECT_EQ(box.Vertex(0b01), (CostVector{3.0, 2.0}));
  EXPECT_EQ(box.Vertex(0b10), (CostVector{1.0, 4.0}));
  EXPECT_EQ(box.Vertex(0b11), (CostVector{3.0, 4.0}));
}

TEST(BoxTest, ContainsItsVerticesAndCenter) {
  const Box box = Box::MultiplicativeBand(CostVector{2.0, 5.0}, 7.0);
  for (uint64_t m = 0; m < box.VertexCount(); ++m) {
    EXPECT_TRUE(box.Contains(box.Vertex(m)));
  }
  EXPECT_TRUE(box.Contains(box.Center()));
  EXPECT_FALSE(box.Contains(CostVector{100.0, 5.0}));
}

TEST(BoxTest, SamplesStayInside) {
  Rng rng(31);
  const Box box = Box::MultiplicativeBand(CostVector{24.1, 9.0, 1e-6}, 1000.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(box.Contains(box.SampleLogUniform(rng)));
  }
}

TEST(BoxTest, DeltaOneIsAPoint) {
  const Box box = Box::MultiplicativeBand(CostVector{3.0}, 1.0);
  EXPECT_EQ(box.lower()[0], box.upper()[0]);
  Rng rng(1);
  EXPECT_EQ(box.SampleLogUniform(rng)[0], 3.0);
}

TEST(BoxDeathTest, RejectsNonPositiveLower) {
  EXPECT_DEATH(Box(CostVector{0.0}, CostVector{1.0}), "positive");
}

TEST(BoxDeathTest, RejectsDeltaBelowOne) {
  EXPECT_DEATH(Box::MultiplicativeBand(CostVector{1.0}, 0.5), "delta");
}

TEST(BoxDeathTest, RejectsNonFiniteBounds) {
  EXPECT_DEATH(Box(CostVector{1.0}, CostVector{kInf}), "finite");
  EXPECT_DEATH(Box(CostVector{kNan}, CostVector{1.0}), "finite");
}

TEST(BoxDeathTest, RejectsLowerAboveUpper) {
  EXPECT_DEATH(Box(CostVector{2.0}, CostVector{1.0}), "lower bound above");
}

TEST(BoxValidatedTest, AcceptsGoodBoundsAndMatchesConstructor) {
  const Result<Box> box = Box::Validated(CostVector{1.0, 2.0},
                                         CostVector{3.0, 4.0});
  ASSERT_TRUE(box.ok());
  EXPECT_EQ(box->lower(), (CostVector{1.0, 2.0}));
  EXPECT_EQ(box->upper(), (CostVector{3.0, 4.0}));
}

TEST(BoxValidatedTest, RejectsBadBoundsWithTypedStatus) {
  // Each violation is a typed InvalidArgument, not a process abort: these
  // bounds may arrive from checkpoints or config rather than local math.
  EXPECT_EQ(Box::Validated(CostVector{2.0}, CostVector{1.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Box::Validated(CostVector{0.0}, CostVector{1.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Box::Validated(CostVector{1.0}, CostVector{kInf}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Box::Validated(CostVector{kNan}, CostVector{1.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      Box::Validated(CostVector{1.0}, CostVector{1.0, 2.0}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(BoxValidatedTest, MultiplicativeBandValidatesDeltaAndBaseline) {
  ASSERT_TRUE(Box::ValidatedMultiplicativeBand(CostVector{1.0, 2.0}, 10.0)
                  .ok());
  EXPECT_EQ(Box::ValidatedMultiplicativeBand(CostVector{1.0}, 0.5)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Box::ValidatedMultiplicativeBand(CostVector{1.0}, kNan)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Box::ValidatedMultiplicativeBand(CostVector{kNan}, 10.0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace costsense::core
