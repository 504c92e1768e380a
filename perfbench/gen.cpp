// perfbench_gen: writes one generated benchmark circuit as a .sim file.
//
//   perfbench_gen <out.sim> random <nmos|cmos> <layers> <width> <seed>
//   perfbench_gen <out.sim> barrel <nmos|cmos> <bits>
//
// The circuits come from the public generator library (gen/generators.h),
// so the benchmark's inputs are the same families the tests and the
// paper-reproduction benches use.  Exit status: 0 ok, 2 usage error.
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "netlist/sim_io.h"
#include "util/strings.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench_gen <out.sim> random <nmos|cmos> <layers> "
               "<width> <seed>\n"
               "       perfbench_gen <out.sim> barrel <nmos|cmos> <bits>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 3) return usage();
  const std::string& style_name = args[2];
  if (style_name != "nmos" && style_name != "cmos") return usage();
  const sldm::Style style =
      style_name == "nmos" ? sldm::Style::kNmos : sldm::Style::kCmos;
  std::vector<long> numbers;
  for (std::size_t i = 3; i < args.size(); ++i) {
    const auto v = sldm::parse_long(args[i]);
    if (!v || *v < 1) return usage();
    numbers.push_back(*v);
  }
  try {
    sldm::GeneratedCircuit circuit;
    if (args[1] == "random" && numbers.size() == 3) {
      circuit = sldm::random_logic(style, static_cast<int>(numbers[0]),
                                   static_cast<int>(numbers[1]),
                                   static_cast<std::uint64_t>(numbers[2]));
    } else if (args[1] == "barrel" && numbers.size() == 1) {
      circuit = sldm::barrel_shifter(style, static_cast<int>(numbers[0]));
    } else {
      return usage();
    }
    sldm::write_sim_file(circuit.netlist, args[0]);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_gen: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
