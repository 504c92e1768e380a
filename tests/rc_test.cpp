// Tests for RC tree analysis (Elmore, RPH bounds), with textbook
// oracles.
#include <gtest/gtest.h>

#include "rc/rc_tree.h"
#include "util/contracts.h"

namespace sldm {
namespace {

TEST(RcTree, SingleSectionElmoreIsRc) {
  RcTree t;
  const std::size_t n = t.add_node(0, 1e3, 1e-12);
  EXPECT_DOUBLE_EQ(t.elmore(n), 1e-9);
  EXPECT_DOUBLE_EQ(t.total_time_constant(), 1e-9);
  EXPECT_DOUBLE_EQ(t.delay_50(n), kLn2 * 1e-9);
  EXPECT_DOUBLE_EQ(t.slope(n), kSlopeFactor * 1e-9);
}

TEST(RcTree, UniformChainElmoreFormula) {
  // N equal sections of R and C: Elmore at the end = RC * N(N+1)/2.
  const int N = 5;
  const double R = 2e3;
  const double C = 50e-15;
  RcTree t;
  std::size_t cur = 0;
  for (int i = 0; i < N; ++i) cur = t.add_node(cur, R, C);
  EXPECT_NEAR(t.elmore(cur), R * C * N * (N + 1) / 2.0, 1e-20);
  // Lumped product would be (NR)(NC) = N^2 RC: the chain is ~2x faster.
  EXPECT_NEAR((R * N) * (C * N) / t.elmore(cur),
              2.0 * N / (N + 1.0), 1e-9);
}

TEST(RcTree, BranchCapsLoadTheTrunk) {
  // A side branch hanging off the middle of a chain adds its cap times
  // the shared (trunk) resistance to the far node's Elmore delay.
  RcTree t;
  const std::size_t a = t.add_node(0, 1e3, 10e-15);
  const std::size_t b = t.add_node(a, 1e3, 10e-15);
  const Seconds before = t.elmore(b);
  const std::size_t side = t.add_node(a, 5e3, 20e-15);
  (void)side;
  const Seconds after = t.elmore(b);
  // The branch cap (20 fF) sees only the shared 1 kOhm.
  EXPECT_NEAR(after - before, 1e3 * 20e-15, 1e-21);
}

TEST(RcTree, CommonResistanceIsLcaPath) {
  RcTree t;
  const std::size_t a = t.add_node(0, 1e3, 1e-15);
  const std::size_t b = t.add_node(a, 2e3, 1e-15);
  const std::size_t c = t.add_node(a, 4e3, 1e-15);
  EXPECT_DOUBLE_EQ(t.common_resistance(b, c), 1e3);     // share root->a
  EXPECT_DOUBLE_EQ(t.common_resistance(b, b), 3e3);     // full path
  EXPECT_DOUBLE_EQ(t.common_resistance(b, 0), 0.0);     // root
  EXPECT_DOUBLE_EQ(t.path_resistance(c), 5e3);
}

TEST(RcTree, SubtreeAndTotalCap) {
  RcTree t(2e-15);
  const std::size_t a = t.add_node(0, 1e3, 3e-15);
  const std::size_t b = t.add_node(a, 1e3, 5e-15);
  t.add_cap(b, 1e-15);
  EXPECT_DOUBLE_EQ(t.subtree_cap(a), 9e-15);
  EXPECT_DOUBLE_EQ(t.subtree_cap(b), 6e-15);
  EXPECT_DOUBLE_EQ(t.total_cap(), 11e-15);
}

TEST(RcTree, RphBoundsBracketTheExponentialEstimate) {
  RcTree t;
  std::size_t cur = 0;
  for (int i = 0; i < 4; ++i) cur = t.add_node(cur, 1e3, 20e-15);
  const auto b = t.rph_bounds(cur, 0.5);
  EXPECT_LE(b.lower, t.delay_50(cur));
  EXPECT_GE(b.upper, t.delay_50(cur));
  EXPECT_GE(b.lower, 0.0);
}

TEST(RcTree, RphBoundsTightenTowardLowThreshold) {
  RcTree t;
  const std::size_t n = t.add_node(0, 1e3, 1e-12);
  const auto b20 = t.rph_bounds(n, 0.2);
  const auto b80 = t.rph_bounds(n, 0.8);
  EXPECT_LT(b20.upper, b80.upper);
  EXPECT_LE(b20.lower, b80.lower);
  EXPECT_THROW(t.rph_bounds(n, 0.0), ContractViolation);
  EXPECT_THROW(t.rph_bounds(n, 1.0), ContractViolation);
}

TEST(RcTree, SingleSectionBoundsAreClassic) {
  // For a single RC section, T_D == T_P == RC:
  // lower(v) = v * RC, upper(v) = RC / (1 - v).
  RcTree t;
  const std::size_t n = t.add_node(0, 1e3, 1e-12);
  const auto b = t.rph_bounds(n, 0.5);
  EXPECT_NEAR(b.lower, 0.5e-9, 1e-15);
  EXPECT_NEAR(b.upper, 2e-9, 1e-15);
}

TEST(RcTree, InputValidation) {
  RcTree t;
  EXPECT_THROW(t.add_node(5, 1e3, 0.0), ContractViolation);   // bad parent
  EXPECT_THROW(t.add_node(0, 0.0, 0.0), ContractViolation);   // zero R
  EXPECT_THROW(t.add_node(0, 1e3, -1.0), ContractViolation);  // negative C
  EXPECT_THROW(t.elmore(3), ContractViolation);
}

}  // namespace
}  // namespace sldm
