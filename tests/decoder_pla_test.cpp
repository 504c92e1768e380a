// Tests for the address decoder and PLA generators, including timing
// propagation through them.
#include <gtest/gtest.h>

#include "delay/rctree.h"
#include "gen/generators.h"
#include "netlist/checks.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "util/contracts.h"
#include "util/strings.h"

namespace sldm {
namespace {

TEST(Decoder, StructureScalesExponentially) {
  const GeneratedCircuit d2 = address_decoder(Style::kNmos, 2);
  const GeneratedCircuit d4 = address_decoder(Style::kNmos, 4);
  EXPECT_TRUE(all_ok(check(d2.netlist)));
  EXPECT_TRUE(all_ok(check(d4.netlist)));
  // nMOS: 2 inverters per address bit (4 devices) + per row: bits
  // pull-downs + 1 load; + output inverter (2).
  const auto rows = [](int bits) { return 1u << bits; };
  EXPECT_EQ(d2.netlist.device_count(), 2u * 4u + rows(2) * 3u + 2u);
  EXPECT_EQ(d4.netlist.device_count(), 4u * 4u + rows(4) * 5u + 2u);
}

TEST(Decoder, AddressLinesCarryHeavyFanout) {
  const GeneratedCircuit g = address_decoder(Style::kCmos, 4);
  // Each true/complement line gates one row device in half the rows
  // (CMOS: two devices per NOR input).
  const NodeId atrue0 = *g.netlist.find_node("atrue0");
  EXPECT_GE(g.netlist.gated_by(atrue0).size(), 8u);
}

TEST(Decoder, HoldsOtherAddressBitsLow) {
  const GeneratedCircuit g = address_decoder(Style::kNmos, 3);
  EXPECT_EQ(g.low_inputs.size(), 2u);
  EXPECT_TRUE(g.netlist.node(g.input).is_input);
  EXPECT_TRUE(g.netlist.node(g.output).is_output);
}

TEST(Decoder, TimingPropagatesToRowOutput) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = address_decoder(Style::kNmos, 3);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  // a0 rise -> abar0 fall -> row1 rise -> out fall.
  const NodeId row1 = *g.netlist.find_node("row1");
  const auto rise = an.arrival(row1, Transition::kRise);
  ASSERT_TRUE(rise.has_value());
  const auto out = an.arrival(g.output, Transition::kFall);
  ASSERT_TRUE(out.has_value());
  EXPECT_GT(out->time, rise->time);
}

TEST(Decoder, ParameterValidation) {
  EXPECT_THROW(address_decoder(Style::kNmos, 0), ContractViolation);
  EXPECT_THROW(address_decoder(Style::kNmos, 9), ContractViolation);
}

TEST(Pla, DeterministicInSeed) {
  const GeneratedCircuit a = pla(Style::kCmos, 4, 8, 3, 11);
  const GeneratedCircuit b = pla(Style::kCmos, 4, 8, 3, 11);
  EXPECT_EQ(a.netlist.device_count(), b.netlist.device_count());
  EXPECT_TRUE(all_ok(check(a.netlist)));
}

TEST(Pla, OutputZeroAlwaysReachableFromInputZero) {
  // Product 0 is pinned to !a0 and output 0 includes product 0, so the
  // timing event a0-rise must reach output o0 for any seed.
  const Tech tech = nmos4();
  const RcTreeModel model;
  for (std::uint64_t seed : {1u, 2u, 3u, 17u, 99u}) {
    const GeneratedCircuit g = pla(Style::kNmos, 4, 6, 2, seed);
    TimingAnalyzer an(g.netlist, tech, model);
    an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
    an.run();
    const bool rise = an.arrival(g.output, Transition::kRise).has_value();
    const bool fall = an.arrival(g.output, Transition::kFall).has_value();
    EXPECT_TRUE(rise || fall) << "seed " << seed;
  }
}

TEST(Pla, EveryProductHasAtLeastOneLiteral) {
  const GeneratedCircuit g = pla(Style::kNmos, 3, 10, 2, 5);
  for (int p = 0; p < 10; ++p) {
    const auto node = g.netlist.find_node(format("p%d", p));
    ASSERT_TRUE(node.has_value());
    // An nMOS NOR row with k literals has k pull-downs + 1 load
    // channel-connected at the row node.
    EXPECT_GE(g.netlist.channels_at(*node).size(), 2u) << "product " << p;
  }
}

TEST(Pla, ParameterValidation) {
  EXPECT_THROW(pla(Style::kNmos, 0, 1, 1, 1), ContractViolation);
  EXPECT_THROW(pla(Style::kNmos, 1, 0, 1, 1), ContractViolation);
  EXPECT_THROW(pla(Style::kNmos, 1, 1, 0, 1), ContractViolation);
}

TEST(SramColumn, StructureAndRoles) {
  const GeneratedCircuit g = sram_read_column(Style::kNmos, 8);
  EXPECT_TRUE(all_ok(check(g.netlist)));
  // 8 access transistors + 1 cell pull-down + 2 output inverter devices.
  EXPECT_EQ(g.netlist.device_count(), 11u);
  const NodeId bit = *g.netlist.find_node("bit");
  EXPECT_TRUE(g.netlist.node(bit).is_precharged);
  EXPECT_EQ(g.netlist.channels_at(bit).size(), 8u);
  EXPECT_EQ(g.low_inputs.size(), 7u);
  EXPECT_THROW(sram_read_column(Style::kNmos, 0), ContractViolation);
}

TEST(SramColumn, BitLineDischargeStageExists) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  const GeneratedCircuit g = sram_read_column(Style::kNmos, 4);
  TimingAnalyzer an(g.netlist, tech, model);
  an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
  an.run();
  const NodeId bit = *g.netlist.find_node("bit");
  const auto fall = an.arrival(bit, Transition::kFall);
  ASSERT_TRUE(fall.has_value());
  // Discharge path: access transistor + cell pull-down (2 devices).
  const auto path = an.critical_path(bit, Transition::kFall);
  EXPECT_EQ(path.back().node, bit);
  // And the observer output rises after the bit line falls.
  const auto out = an.arrival(g.output, Transition::kRise);
  ASSERT_TRUE(out.has_value());
  EXPECT_GT(out->time, fall->time);
}

TEST(SramColumn, MoreRowsMeansSlowerRead) {
  const Tech tech = nmos4();
  const RcTreeModel model;
  Seconds prev = 0.0;
  for (int rows : {2, 8, 32}) {
    const GeneratedCircuit g = sram_read_column(Style::kNmos, rows);
    TimingAnalyzer an(g.netlist, tech, model);
    an.add_input_event(g.input, Transition::kRise, 0.0, 1e-9);
    an.run();
    const auto out = an.worst_arrival(true);
    ASSERT_TRUE(out.has_value()) << rows;
    EXPECT_GT(out->time, prev) << rows;
    prev = out->time;
  }
}

}  // namespace
}  // namespace sldm
