// Fig. 7 (reconstruction): waveforms along a chain, simulator vs model
// event times.
//
// The paper illustrates its models with node waveforms; this bench
// simulates a 4-stage nMOS inverter chain, writes the waveforms as CSV
// and digitized VCD next to the binary, and prints each stage's 50%
// crossing from the simulator alongside the slope model's predicted
// arrival -- the data behind the figure.
#include <iostream>

#include "analog/elaborate.h"
#include "bench_io.h"
#include "analog/export.h"
#include "analog/transient.h"
#include "compare/harness.h"
#include "delay/slope.h"
#include "timing/analyzer.h"
#include "util/strings.h"
#include "util/text_table.h"

int main(int argc, char** argv) {
  using namespace sldm;
  benchio::BenchMain bench("bench_fig7_waveforms", argc, argv);
  std::cout << "Fig. 7 (reconstructed): chain waveforms, simulator "
               "crossings vs slope-model arrivals\n\n";
  const CompareContext& ctx = CompareContext::get(Style::kNmos);
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 4, 2);
  const Seconds edge = 2e-9;
  const Seconds t0 = 2e-9;  // harness edge launch time

  // Analog run.
  std::vector<Stimulus> stimuli;
  stimuli.push_back(
      {g.input, PwlSource::edge(0.0, ctx.tech().vdd(), t0, edge)});
  const Elaboration elab = elaborate(g.netlist, ctx.tech(), stimuli);
  TransientOptions topt;
  topt.t_stop = 40e-9;
  const TransientResult sim = simulate(elab.circuit(), topt);

  // Timing run.
  SlopeModel model(ctx.calibration().tables);
  TimingAnalyzer an(g.netlist, ctx.tech(), model);
  an.add_input_event(g.input, Transition::kRise, 0.0, edge);
  an.run();

  // Collect the chain nodes.
  std::vector<NodeId> chain = {g.input};
  for (int i = 1; i <= 4; ++i) {
    chain.push_back(*g.netlist.find_node(format("s%d", i)));
  }

  std::vector<WaveformColumn> columns;
  for (NodeId n : chain) {
    columns.push_back(
        {g.netlist.node(n).name.str(), &sim.at(elab.analog(n))});
  }
  write_waveforms_csv_file(columns, "fig7_waveforms.csv");
  write_waveforms_vcd_file(columns, ctx.tech().vdd(), "fig7_waveforms.vcd");
  std::cout << "wrote fig7_waveforms.csv and fig7_waveforms.vcd\n\n";

  TextTable table({"node", "transition", "sim 50% (ns)",
                   "slope model (ns)", "diff (ns)"});
  const Volts v_mid = ctx.tech().v_switch();
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const Transition dir =
        (i % 2 == 1) ? Transition::kFall : Transition::kRise;
    const auto cross = sim.at(elab.analog(chain[i]))
                           .cross(v_mid, dir, t0);
    const auto arrival = an.arrival(chain[i], dir);
    if (!cross || !arrival) continue;
    // The analyzer's t=0 is the input's 50% point: t0 + edge/2.
    const Seconds sim_rel = *cross - (t0 + edge / 2.0);
    benchio::note_circuit(g.name, g.netlist.device_count());
    benchio::note_error_pct(100.0 * (arrival->time - sim_rel) / sim_rel);
    table.add_row({g.netlist.node(chain[i]).name.str(), to_string(dir),
                   format("%.3f", to_ns(sim_rel)),
                   format("%.3f", to_ns(arrival->time)),
                   format("%+.3f", to_ns(arrival->time - sim_rel))});
  }
  std::cout << table.to_string();
  return 0;
}
