// Cross-validation of the analytic RC machinery against the transient
// simulator on randomly generated *linear* RC trees (no transistors):
// the simulated 50% crossing must land inside the RPH bounds (they are
// provable for exactly this circuit class) and near ln2 * Elmore.
#include <gtest/gtest.h>

#include <random>

#include "analog/transient.h"
#include "rc/rc_tree.h"
#include "util/strings.h"
#include "util/units.h"

namespace sldm {
namespace {

struct RandomTree {
  RcTree tree;
  Circuit circuit;
  std::vector<AnalogNode> analog_of;  // tree node -> analog node
  AnalogNode source = kGround;
};

/// Builds a random RC tree (as both an RcTree and an analog circuit
/// driven by a step source at the root).
RandomTree build(std::uint64_t seed, int nodes) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> r_dist(1e3, 20e3);
  std::uniform_real_distribution<double> c_dist(10e-15, 200e-15);

  RandomTree out;
  out.source = out.circuit.add_node("src");
  out.circuit.add_vsource(out.source, kGround,
                          PwlSource::edge(0.0, 1.0, 1e-10, 1e-12));
  out.analog_of.push_back(out.source);  // tree root == driven source

  for (int i = 1; i <= nodes; ++i) {
    // Pick a random existing tree node as parent.
    std::uniform_int_distribution<std::size_t> pick(
        0, out.tree.node_count() - 1);
    const std::size_t parent = pick(rng);
    const double r = r_dist(rng);
    const double c = c_dist(rng);
    const std::size_t t = out.tree.add_node(parent, r, c);
    const AnalogNode a = out.circuit.add_node(format("n%zu", t));
    out.circuit.add_resistor(out.analog_of[parent], a, r);
    out.circuit.add_capacitor(a, kGround, c);
    out.analog_of.push_back(a);
  }
  return out;
}

class RcTreeValidation : public ::testing::TestWithParam<int> {};

TEST_P(RcTreeValidation, SimulatedCrossingInsideRphBounds) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  RandomTree rt = build(seed * 7919u + 3u, 4 + GetParam() % 6);

  TransientOptions opt;
  opt.t_stop = 40.0 * rt.tree.total_time_constant() + 5e-9;
  opt.dv_max = 0.02;
  const TransientResult sim = simulate(rt.circuit, opt);

  for (std::size_t t = 1; t < rt.tree.node_count(); ++t) {
    const Waveform& w = sim.at(rt.analog_of[t]);
    const auto cross = w.cross(0.5, Transition::kRise);
    ASSERT_TRUE(cross.has_value()) << "node " << t << " seed " << seed;
    const Seconds measured = *cross - 1e-10;  // subtract the edge launch

    const auto bounds = rt.tree.rph_bounds(t, 0.5);
    EXPECT_GE(measured, bounds.lower - 0.02 * bounds.upper)
        << "node " << t << " seed " << seed;
    EXPECT_LE(measured, bounds.upper * 1.02)
        << "node " << t << " seed " << seed;

    // Gupta/Boyd: for RC trees under a step, the 50% crossing (median
    // of the impulse response) never exceeds the Elmore constant (its
    // mean).  Check that provable ordering with a small numerical
    // margin.
    EXPECT_LE(measured, rt.tree.elmore(t) * 1.02)
        << "node " << t << " seed " << seed;
  }

  // For the dominant (largest-Elmore) node, the single-pole point
  // estimate ln2*T_D is a good prediction; near-source nodes respond
  // faster than single-pole, so only the dominant node is checked.
  std::size_t dominant = 1;
  for (std::size_t t = 2; t < rt.tree.node_count(); ++t) {
    if (rt.tree.elmore(t) > rt.tree.elmore(dominant)) dominant = t;
  }
  const Waveform& wd = sim.at(rt.analog_of[dominant]);
  const auto cross_d = wd.cross(0.5, Transition::kRise);
  ASSERT_TRUE(cross_d.has_value());
  EXPECT_NEAR((*cross_d - 1e-10) / rt.tree.delay_50(dominant), 1.0, 0.45)
      << "dominant node " << dominant << " seed " << seed;
}

TEST_P(RcTreeValidation, LeafSlopeMatchesSinglePoleEstimate) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  RandomTree rt = build(seed * 104729u + 11u, 3);

  TransientOptions opt;
  opt.t_stop = 40.0 * rt.tree.total_time_constant() + 5e-9;
  opt.dv_max = 0.02;
  const TransientResult sim = simulate(rt.circuit, opt);

  // Deepest node: the single-pole transition-time estimate
  // (ln9/0.8 * Elmore) should be within ~40% of the measured value.
  const std::size_t leaf = rt.tree.node_count() - 1;
  const Waveform& w = sim.at(rt.analog_of[leaf]);
  const auto measured = w.transition_time(0.0, 1.0, Transition::kRise);
  ASSERT_TRUE(measured.has_value());
  EXPECT_NEAR(*measured / rt.tree.slope(leaf), 1.0, 0.4) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcTreeValidation, ::testing::Range(0, 12));

}  // namespace
}  // namespace sldm
