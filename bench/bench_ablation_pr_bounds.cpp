// Ablation B: Rubinstein-Penfield-Horowitz bounds vs the Elmore point
// estimate on pass-transistor chains.
//
// For each chain length, the stage's RC tree yields a [lower, upper]
// bracket on the 50% crossing; the table reports the bracket, the Elmore
// point estimate, and where the simulator actually lands.
#include <iostream>

#include "bench_io.h"
#include "compare/harness.h"
#include "rc/rc_tree.h"
#include "timing/stage_extract.h"
#include "util/strings.h"
#include "util/text_table.h"

int main(int argc, char** argv) {
  using namespace sldm;
  benchio::BenchMain bench("bench_ablation_pr_bounds", argc, argv);
  std::cout << "Ablation B: RPH bounds tightness on pass chains (nMOS)\n\n";
  const CompareContext& ctx = CompareContext::get(Style::kNmos);

  TextTable table({"chain", "lower (ns)", "elmore ln2*Td (ns)",
                   "upper (ns)", "upper/lower", "sim stage (ns)"});
  for (int n : {1, 2, 4, 6, 8}) {
    const GeneratedCircuit g = pass_chain(Style::kNmos, n);

    // The full discharge stage: driver + n passes, ending at p<n>.
    const NodeId dest = *g.netlist.find_node(format("p%d", n));
    const auto stages = stages_to(g.netlist, dest, Transition::kFall);
    if (stages.empty()) continue;
    std::size_t longest = 0;
    for (std::size_t i = 1; i < stages.size(); ++i) {
      if (stages[i].path.size() > stages[longest].path.size()) longest = i;
    }
    const Stage stage =
        make_stage(g.netlist, ctx.tech(), stages[longest], 0.0);
    const RcTree tree = to_rc_tree(stage);
    const std::size_t leaf = stage.elements.size();
    const auto bounds = tree.rph_bounds(leaf, 0.5);
    const Seconds elmore50 = tree.delay_50(leaf);

    // Simulator reference for the same internal node (not the output
    // inverter): measure the p<n> 50% fall directly.
    GeneratedCircuit probe = g;
    probe.netlist.mark_output(g.netlist.node(dest).name);
    probe.output = dest;
    const SimulateOnlyResult sim =
        run_simulation(probe, ctx.tech(), 0.2e-9);
    benchio::note_circuit(g.name, g.netlist.device_count());
    benchio::note_error_pct(100.0 * (elmore50 - sim.delay) / sim.delay);

    table.add_row({std::to_string(n), format("%.3f", to_ns(bounds.lower)),
                   format("%.3f", to_ns(elmore50)),
                   format("%.3f", to_ns(bounds.upper)),
                   format("%.2f", bounds.upper / std::max(1e-15,
                                                          bounds.lower)),
                   format("%.3f", to_ns(sim.delay))});
  }
  std::cout << table.to_string();
  std::cout << "\n(sim stage delay includes the driver's own response to "
               "the 0.2 ns input edge)\n";
  return 0;
}
