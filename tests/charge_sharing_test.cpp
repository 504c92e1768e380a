// Tests for charge-sharing analysis, including a cross-check against
// the analog simulator's actual redistribution behavior.
#include <gtest/gtest.h>

#include "analog/elaborate.h"
#include "analog/transient.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/charge_sharing.h"
#include "util/contracts.h"
#include "util/strings.h"
#include "util/units.h"

namespace sldm {
namespace {

using namespace units;

TEST(ChargeSharing, RequiresPrechargedNode) {
  const Tech tech = nmos4();
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 1, 1);
  EXPECT_THROW(analyze_charge_sharing(g.netlist, tech, g.output),
               ContractViolation);
}

TEST(ChargeSharing, IsolatedDynamicNodeKeepsItsLevel) {
  Netlist nl;
  nl.mark_power("vdd");
  nl.mark_ground("gnd");
  const NodeId dyn = nl.mark_precharged("dyn");
  nl.add_cap(dyn, 50 * fF);
  const Tech tech = nmos4();
  const auto r = analyze_charge_sharing(nl, tech, dyn);
  EXPECT_DOUBLE_EQ(r.shared_cap, 0.0);
  EXPECT_DOUBLE_EQ(r.v_after, tech.vdd());
  EXPECT_TRUE(r.sharing_nodes.empty());
  EXPECT_FALSE(r.fails(2.5));
}

TEST(ChargeSharing, TwoNodeRedistributionFormula) {
  // dyn (C1) -- pass -- empty (C2): V_after = Vdd * C1/(C1+C2), where
  // both caps include the pass transistor's diffusion contributions.
  Netlist nl;
  nl.mark_power("vdd");
  nl.mark_ground("gnd");
  const NodeId sel = nl.mark_input("sel");
  const NodeId dyn = nl.mark_precharged("dyn");
  const NodeId empty = nl.add_node("empty");
  nl.add_cap(dyn, 100 * fF);
  nl.add_cap(empty, 25 * fF);
  nl.add_transistor(TransistorType::kNEnhancement, sel, dyn, empty, 8 * um,
                    4 * um);
  const Tech tech = nmos4();
  const auto r = analyze_charge_sharing(nl, tech, dyn);
  const Farads c1 = tech.node_capacitance(nl, dyn);
  const Farads c2 = tech.node_capacitance(nl, empty);
  EXPECT_NEAR(r.node_cap, c1, 1e-21);
  EXPECT_NEAR(r.shared_cap, c2, 1e-21);
  EXPECT_NEAR(r.v_after, 5.0 * c1 / (c1 + c2), 1e-9);
  ASSERT_EQ(r.sharing_nodes.size(), 1u);
  EXPECT_EQ(r.sharing_nodes[0], empty);
}

TEST(ChargeSharing, RailPathsDoNotCountAsSharing) {
  // A pull-down to ground is a drive event, not charge sharing.
  Netlist nl;
  nl.mark_power("vdd");
  const NodeId gnd = nl.mark_ground("gnd");
  const NodeId gate = nl.mark_input("g");
  const NodeId dyn = nl.mark_precharged("dyn");
  nl.add_cap(dyn, 50 * fF);
  nl.add_transistor(TransistorType::kNEnhancement, gate, gnd, dyn, 8 * um,
                    4 * um);
  const auto r = analyze_charge_sharing(nl, nmos4(), dyn);
  EXPECT_DOUBLE_EQ(r.shared_cap, 0.0);
}

TEST(ChargeSharing, PermanentlyOffDevicesIgnored) {
  Netlist nl;
  nl.mark_power("vdd");
  const NodeId gnd = nl.mark_ground("gnd");
  const NodeId dyn = nl.mark_precharged("dyn");
  const NodeId island = nl.add_node("island");
  nl.add_cap(dyn, 50 * fF);
  nl.add_cap(island, 50 * fF);
  // Gate tied to ground: can never conduct, so no sharing.
  nl.add_transistor(TransistorType::kNEnhancement, gnd, dyn, island, 8 * um,
                    4 * um);
  const auto r = analyze_charge_sharing(nl, nmos4(), dyn);
  EXPECT_DOUBLE_EQ(r.shared_cap, 0.0);
}

TEST(ChargeSharing, DepthLimitStopsTheWalk) {
  Netlist nl;
  nl.mark_power("vdd");
  nl.mark_ground("gnd");
  const NodeId sel = nl.mark_input("sel");
  const NodeId dyn = nl.mark_precharged("dyn");
  nl.add_cap(dyn, 100 * fF);
  NodeId prev = dyn;
  for (int i = 0; i < 6; ++i) {
    const NodeId next = nl.add_node(format("n%d", i));
    nl.add_cap(next, 10 * fF);
    nl.add_transistor(TransistorType::kNEnhancement, sel, prev, next, 8 * um,
                      4 * um);
    prev = next;
  }
  ChargeSharingOptions shallow;
  shallow.max_depth = 2;
  const auto r2 = analyze_charge_sharing(nl, nmos4(), dyn, shallow);
  const auto r_all = analyze_charge_sharing(nl, nmos4(), dyn);
  EXPECT_EQ(r2.sharing_nodes.size(), 2u);
  EXPECT_EQ(r_all.sharing_nodes.size(), 6u);
  EXPECT_LT(r2.shared_cap, r_all.shared_cap);
  EXPECT_GT(r2.v_after, r_all.v_after);
}

TEST(ChargeSharing, BusAnalysisCoversAllDrivers) {
  const GeneratedCircuit g = precharged_bus(Style::kNmos, 4);
  const auto all = analyze_all_charge_sharing(g.netlist, nmos4());
  ASSERT_EQ(all.size(), 1u);  // only the bus is precharged
  // Every driver's internal node is reachable through its (potentially
  // conducting) select transistor.
  EXPECT_EQ(all[0].sharing_nodes.size(), 4u);
  EXPECT_GT(all[0].v_after, 2.5) << "bus must not sag below threshold";
}

TEST(ChargeSharing, PredictionMatchesAnalogSimulator) {
  // The analysis assumes every select conducts; to compare against the
  // simulator, enable every select line so both see the same topology,
  // and keep all data pull-downs off.
  const Tech tech = nmos4();
  const GeneratedCircuit g = precharged_bus(Style::kNmos, 3);
  const NodeId bus = *g.netlist.find_node("bus");
  const auto pred = analyze_charge_sharing(g.netlist, tech, bus);

  std::vector<Stimulus> stimuli;
  for (NodeId n : g.netlist.node_ids()) {
    const Node& info = g.netlist.node(n);
    if (!info.is_input) continue;
    const bool is_select = info.name.view().starts_with("sel");
    stimuli.push_back({n, PwlSource::dc(is_select ? tech.vdd() : 0.0)});
  }
  const Elaboration e = elaborate(g.netlist, tech, stimuli);
  TransientOptions opt;
  opt.t_stop = 50e-9;
  e.apply_precharge(g.netlist, tech.vdd(), opt);
  const TransientResult r = simulate(e.circuit(), opt);
  const Volts v_settled = r.at(e.analog(bus)).value(
      r.at(e.analog(bus)).size() - 1);

  // The static prediction ignores the threshold drop across the pass
  // devices (charge stops flowing when the internal node reaches
  // Vg - Vt), so it is a *lower* bound on the settled level; with these
  // capacitance ratios they should still agree within a few hundred mV.
  EXPECT_LE(pred.v_after, v_settled + 0.05);
  EXPECT_NEAR(pred.v_after, v_settled, 0.5);
}

TEST(ChargeSharing, ReportFormatsFailures) {
  Netlist nl;
  nl.mark_power("vdd");
  nl.mark_ground("gnd");
  const NodeId sel = nl.mark_input("sel");
  const NodeId dyn = nl.mark_precharged("dyn");
  const NodeId big = nl.add_node("big");
  nl.add_cap(dyn, 10 * fF);
  nl.add_cap(big, 200 * fF);  // sharing dominates: dyn collapses
  nl.add_transistor(TransistorType::kNEnhancement, sel, dyn, big, 8 * um,
                    4 * um);
  const auto all = analyze_all_charge_sharing(nl, nmos4());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].fails(2.5));
  const std::string report = format_charge_sharing(nl, all, 2.5);
  EXPECT_NE(report.find("FAILS"), std::string::npos);
  EXPECT_NE(report.find("dyn"), std::string::npos);
}

}  // namespace
}  // namespace sldm
