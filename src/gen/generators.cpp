#include "gen/generators.h"

#include <random>

#include "util/contracts.h"
#include "util/strings.h"
#include "util/units.h"

namespace sldm {

GeneratedCircuit inverter_chain(Style style, int stages, int fanout) {
  SLDM_EXPECTS(stages >= 1);
  SLDM_EXPECTS(fanout >= 1);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("inv_chain_s%d_f%d_%s", stages, fanout,
                  to_string(style).c_str());
  g.style = style;
  g.input = b.input("in");
  NodeId cur = g.input;
  for (int i = 0; i < stages; ++i) {
    cur = b.inverter(cur, format("s%d", i + 1));
    if (i + 1 < stages) {
      b.add_fanout_load(cur, fanout - 1);
    }
  }
  b.netlist().mark_output(b.netlist().node(cur).name);
  // The final stage sees the same fanout load as the internal ones.
  b.add_fanout_load(cur, fanout - 1);
  g.output = cur;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit nand_chain(Style style, int inputs) {
  SLDM_EXPECTS(inputs >= 1);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("nand%d_%s", inputs, to_string(style).c_str());
  g.style = style;
  std::vector<NodeId> ins;
  for (int i = 0; i < inputs; ++i) {
    const NodeId in = b.input(format("a%d", i));
    ins.push_back(in);
    if (i > 0) g.high_inputs.push_back(in);
  }
  g.input = ins[0];  // the device nearest the output switches (worst case)
  const NodeId y = b.nand_gate(ins, "y");
  const NodeId out = b.inverter(y, "out");
  b.netlist().mark_output("out");
  g.output = out;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit nor_chain(Style style, int inputs) {
  SLDM_EXPECTS(inputs >= 1);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("nor%d_%s", inputs, to_string(style).c_str());
  g.style = style;
  std::vector<NodeId> ins;
  for (int i = 0; i < inputs; ++i) {
    const NodeId in = b.input(format("a%d", i));
    ins.push_back(in);
    if (i > 0) g.low_inputs.push_back(in);
  }
  g.input = ins[0];
  const NodeId y = b.nor_gate(ins, "y");
  const NodeId out = b.inverter(y, "out");
  b.netlist().mark_output("out");
  g.output = out;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit pass_chain(Style style, int length) {
  SLDM_EXPECTS(length >= 1);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("pass_chain_%d_%s", length, to_string(style).c_str());
  g.style = style;
  g.input = b.input("in");
  NodeId cur = b.inverter(g.input, "p0");
  const NodeId sel = b.input("sel");
  g.high_inputs.push_back(sel);
  for (int i = 1; i <= length; ++i) {
    const NodeId next = b.node(format("p%d", i));
    b.pass(cur, next, sel);
    cur = next;
  }
  const NodeId out = b.inverter(cur, "out");
  b.netlist().mark_output("out");
  g.output = out;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit barrel_shifter(Style style, int bits) {
  SLDM_EXPECTS(bits >= 1);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("barrel_%d_%s", bits, to_string(style).c_str());
  g.style = style;
  g.input = b.input("in");

  // Data lines: line 0 is driven from the stimulated input; the others
  // are externally held low.
  std::vector<NodeId> data(static_cast<std::size_t>(bits));
  data[0] = b.inverter(g.input, "d0");
  for (int i = 1; i < bits; ++i) {
    data[static_cast<std::size_t>(i)] = b.input(format("d%d", i));
    g.low_inputs.push_back(data[static_cast<std::size_t>(i)]);
  }

  // One-hot shift selects; shift 0 active.
  std::vector<NodeId> sel(static_cast<std::size_t>(bits));
  for (int s = 0; s < bits; ++s) {
    sel[static_cast<std::size_t>(s)] = b.input(format("sh%d", s));
    if (s == 0) {
      g.high_inputs.push_back(sel[static_cast<std::size_t>(s)]);
    } else {
      g.low_inputs.push_back(sel[static_cast<std::size_t>(s)]);
    }
  }

  // Output lines; out_j connects to data_{(j+s) mod bits} under sh_s.
  std::vector<NodeId> out(static_cast<std::size_t>(bits));
  for (int j = 0; j < bits; ++j) {
    out[static_cast<std::size_t>(j)] = b.node(format("o%d", j));
  }
  for (int s = 0; s < bits; ++s) {
    for (int j = 0; j < bits; ++j) {
      const int i = (j + s) % bits;
      b.pass(data[static_cast<std::size_t>(i)],
             out[static_cast<std::size_t>(j)],
             sel[static_cast<std::size_t>(s)]);
    }
  }
  const NodeId y = b.inverter(out[0], "out");
  b.netlist().mark_output("out");
  g.output = y;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit manchester_carry(Style style, int bits) {
  SLDM_EXPECTS(bits >= 1);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("manchester_%d_%s", bits, to_string(style).c_str());
  g.style = style;

  // Precharged carry nodes c0..c<bits-1>.
  std::vector<NodeId> carry(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    carry[static_cast<std::size_t>(i)] =
        b.netlist().mark_precharged(format("c%d", i));
  }
  const Sizing s = Sizing::standard(style);

  // generate[0] is the stimulated input; its pull-down discharges c0.
  g.input = b.input("g0");
  b.netlist().add_transistor(TransistorType::kNEnhancement, g.input, b.gnd(),
                             carry[0], s.driver_w, s.driver_l);

  // Propagate pass transistors chain the carries; all held high.
  for (int i = 1; i < bits; ++i) {
    const NodeId p = b.input(format("p%d", i));
    g.high_inputs.push_back(p);
    b.pass(carry[static_cast<std::size_t>(i - 1)],
           carry[static_cast<std::size_t>(i)], p);
  }

  const NodeId out =
      b.inverter(carry[static_cast<std::size_t>(bits - 1)], "out");
  b.netlist().mark_output("out");
  g.output = out;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit precharged_bus(Style style, int drivers) {
  SLDM_EXPECTS(drivers >= 1);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("bus_%d_%s", drivers, to_string(style).c_str());
  g.style = style;
  const NodeId bus = b.netlist().mark_precharged("bus");
  // Bus wiring capacitance grows with the number of taps.
  b.netlist().add_cap(bus, 10e-15 * drivers);

  const Sizing s = Sizing::standard(style);
  for (int j = 0; j < drivers; ++j) {
    const NodeId sel = b.input(format("sel%d", j));
    const NodeId data = b.input(format("data%d", j));
    const NodeId mid = b.node(format("mid%d", j));
    b.netlist().add_transistor(TransistorType::kNEnhancement, sel, mid, bus,
                               s.driver_w, s.driver_l);
    b.netlist().add_transistor(TransistorType::kNEnhancement, data, b.gnd(),
                               mid, s.driver_w, s.driver_l);
    if (j == 0) {
      g.input = data;
      g.high_inputs.push_back(sel);
    } else {
      g.low_inputs.push_back(sel);
      g.low_inputs.push_back(data);
    }
  }
  const NodeId out = b.inverter(bus, "out");
  b.netlist().mark_output("out");
  g.output = out;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit driver_chain(Style style, int stages, double taper,
                              double load_fF) {
  SLDM_EXPECTS(stages >= 1);
  SLDM_EXPECTS(taper >= 1.0);
  SLDM_EXPECTS(load_fF > 0.0);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("driver_s%d_t%.1f_%s", stages, taper,
                  to_string(style).c_str());
  g.style = style;
  g.input = b.input("in");
  NodeId cur = g.input;
  double strength = 1.0;
  for (int i = 0; i < stages; ++i) {
    cur = b.inverter(cur, format("d%d", i + 1), strength);
    strength *= taper;
  }
  b.netlist().add_cap(cur, load_fF * units::fF);
  b.netlist().mark_output(b.netlist().node(cur).name);
  g.output = cur;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit address_decoder(Style style, int bits) {
  SLDM_EXPECTS(bits >= 1 && bits <= 8);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("decoder_%d_%s", bits, to_string(style).c_str());
  g.style = style;

  // Buffered true/complement address lines.
  std::vector<NodeId> a_true(static_cast<std::size_t>(bits));
  std::vector<NodeId> a_bar(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    const NodeId a = b.input(format("a%d", i));
    if (i == 0) {
      g.input = a;
    } else {
      g.low_inputs.push_back(a);
    }
    a_bar[static_cast<std::size_t>(i)] =
        b.inverter(a, format("abar%d", i));
    a_true[static_cast<std::size_t>(i)] =
        b.inverter(a_bar[static_cast<std::size_t>(i)],
                   format("atrue%d", i));
  }

  // One NOR row per address value: row r goes high when a == r.
  const int rows = 1 << bits;
  NodeId row1 = NodeId::invalid();
  for (int r = 0; r < rows; ++r) {
    std::vector<NodeId> literals;
    for (int i = 0; i < bits; ++i) {
      const bool bit_set = ((r >> i) & 1) != 0;
      // NOR row: feed the literal that must be LOW for the row to fire.
      literals.push_back(bit_set ? a_bar[static_cast<std::size_t>(i)]
                                 : a_true[static_cast<std::size_t>(i)]);
    }
    const NodeId row = b.nor_gate(literals, format("row%d", r));
    if (r == 1) row1 = row;
  }
  SLDM_ASSERT(row1.valid());
  const NodeId out = b.inverter(row1, "out");
  b.netlist().mark_output("out");
  g.output = out;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit pla(Style style, int inputs, int products, int outputs,
                     std::uint64_t seed) {
  SLDM_EXPECTS(inputs >= 1);
  SLDM_EXPECTS(products >= 1);
  SLDM_EXPECTS(outputs >= 1);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("pla_i%d_p%d_o%d_%s", inputs, products, outputs,
                  to_string(style).c_str());
  g.style = style;
  std::mt19937_64 rng(seed);

  std::vector<NodeId> a_true(static_cast<std::size_t>(inputs));
  std::vector<NodeId> a_bar(static_cast<std::size_t>(inputs));
  for (int i = 0; i < inputs; ++i) {
    const NodeId a = b.input(format("i%d", i));
    if (i == 0) {
      g.input = a;
    } else {
      g.low_inputs.push_back(a);
    }
    a_bar[static_cast<std::size_t>(i)] =
        b.inverter(a, format("ibar%d", i));
    a_true[static_cast<std::size_t>(i)] =
        b.inverter(a_bar[static_cast<std::size_t>(i)],
                   format("itrue%d", i));
  }

  // AND plane as NOR rows over literals.  Product 0 is pinned to !a0 so
  // the stimulated input always has a path to output 0.
  std::vector<NodeId> product(static_cast<std::size_t>(products));
  std::bernoulli_distribution include(0.4);
  std::bernoulli_distribution polarity(0.5);
  for (int p = 0; p < products; ++p) {
    std::vector<NodeId> literals;
    if (p == 0) {
      literals.push_back(a_bar[0]);
    } else {
      for (int i = 0; i < inputs; ++i) {
        if (!include(rng)) continue;
        literals.push_back(polarity(rng)
                               ? a_true[static_cast<std::size_t>(i)]
                               : a_bar[static_cast<std::size_t>(i)]);
      }
      if (literals.empty()) {
        literals.push_back(a_bar[static_cast<std::size_t>(
            static_cast<int>(rng() % static_cast<unsigned>(inputs)))]);
      }
    }
    product[static_cast<std::size_t>(p)] =
        b.nor_gate(literals, format("p%d", p));
  }

  // OR plane: outputs are NORs of products (active low), re-inverted at
  // the periphery.  Output 0 always includes product 0.
  for (int o = 0; o < outputs; ++o) {
    std::vector<NodeId> terms;
    if (o == 0) terms.push_back(product[0]);
    for (int p = (o == 0 ? 1 : 0); p < products; ++p) {
      if (include(rng)) terms.push_back(product[static_cast<std::size_t>(p)]);
    }
    if (terms.empty()) {
      terms.push_back(product[static_cast<std::size_t>(
          static_cast<int>(rng() % static_cast<unsigned>(products)))]);
    }
    const NodeId nor_out =
        b.nor_gate(terms, format("no%d", o));
    const NodeId out = b.inverter(nor_out, format("o%d", o));
    b.netlist().mark_output(b.netlist().node(out).name);
    if (o == 0) g.output = out;
  }
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit shift_register(Style style, int stages) {
  SLDM_EXPECTS(stages >= 1);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("shiftreg_%d_%s", stages, to_string(style).c_str());
  g.style = style;

  g.input = b.input("data");
  const NodeId phi1 = b.input("phi1");
  const NodeId phi2 = b.input("phi2");
  g.high_inputs.push_back(phi1);
  g.low_inputs.push_back(phi2);

  NodeId carry = g.input;
  NodeId q = NodeId::invalid();
  for (int s = 0; s < stages; ++s) {
    const NodeId m_in = b.node(format("m%d", s));
    b.pass(carry, m_in, phi1);
    const NodeId m_out = b.inverter(m_in, format("mq%d", s));
    const NodeId s_in = b.node(format("s%d", s));
    b.pass(m_out, s_in, phi2);
    q = b.inverter(s_in, format("q%d", s));
    carry = q;
  }
  SLDM_ASSERT(q.valid());
  b.netlist().mark_output(b.netlist().node(q).name);
  g.output = q;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit sram_read_column(Style style, int rows) {
  SLDM_EXPECTS(rows >= 1);
  CircuitBuilder b(Style::kNmos == style ? style : style);
  GeneratedCircuit g;
  g.name = format("sram_col_%d_%s", rows, to_string(style).c_str());
  g.style = style;

  const NodeId bit = b.netlist().mark_precharged("bit");
  // Bit-line wiring capacitance grows with the column height.
  b.netlist().add_cap(bit, 3e-15 * rows);

  const Sizing s = Sizing::standard(style);
  for (int r = 0; r < rows; ++r) {
    const NodeId wl = b.input(format("wl%d", r));
    const NodeId cell = b.node(format("cell%d", r));
    // Access transistor: bit <-> cell, gated by the wordline.
    b.netlist().add_transistor(TransistorType::kNEnhancement, wl, cell, bit,
                               s.pass_w, s.pass_l);
    if (r == 0) {
      // The accessed cell stores 0: its read path is an always-on
      // pull-down (gate at Vdd), the electrical equivalent of the
      // cell's on-side driver.
      b.netlist().add_transistor(TransistorType::kNEnhancement, b.vdd(),
                                 b.gnd(), cell, s.driver_w, s.driver_l);
      g.input = wl;
    } else {
      g.low_inputs.push_back(wl);
    }
  }
  const NodeId out = b.inverter(bit, "out");
  b.netlist().mark_output("out");
  g.output = out;
  g.netlist = std::move(b.netlist());
  return g;
}

GeneratedCircuit random_logic(Style style, int layers, int width,
                              std::uint64_t seed) {
  SLDM_EXPECTS(layers >= 1);
  SLDM_EXPECTS(width >= 1);
  CircuitBuilder b(style);
  GeneratedCircuit g;
  g.name = format("random_l%d_w%d_%s", layers, width,
                  to_string(style).c_str());
  g.style = style;
  std::mt19937_64 rng(seed);

  std::vector<NodeId> prev;
  for (int i = 0; i < width; ++i) {
    const NodeId in = b.input(format("in%d", i));
    prev.push_back(in);
    if (i == 0) {
      g.input = in;
    } else {
      // Secondary inputs held at non-controlling values for NANDs.
      g.high_inputs.push_back(in);
    }
  }

  for (int l = 0; l < layers; ++l) {
    std::vector<NodeId> next;
    for (int w = 0; w < width; ++w) {
      const std::string name = format("g%d_%d", l, w);
      std::uniform_int_distribution<int> pick(
          0, static_cast<int>(prev.size()) - 1);
      std::uniform_int_distribution<int> kind_dist(0, 2);
      const int kind = kind_dist(rng);
      const NodeId a = prev[static_cast<std::size_t>(pick(rng))];
      const NodeId c = prev[static_cast<std::size_t>(pick(rng))];
      NodeId y;
      if (kind == 0 || a == c) {
        y = b.inverter(a, name);
      } else if (kind == 1) {
        y = b.nand_gate({a, c}, name);
      } else {
        y = b.nor_gate({a, c}, name);
      }
      next.push_back(y);
    }
    prev = std::move(next);
  }
  for (NodeId n : prev) {
    b.netlist().mark_output(b.netlist().node(n).name);
  }
  g.output = prev.front();
  g.netlist = std::move(b.netlist());
  return g;
}

std::vector<GeneratedCircuit> accuracy_suite(Style style) {
  std::vector<GeneratedCircuit> suite;
  suite.push_back(inverter_chain(style, 3, 1));
  suite.push_back(inverter_chain(style, 3, 4));
  suite.push_back(inverter_chain(style, 5, 2));
  suite.push_back(nand_chain(style, 2));
  suite.push_back(nand_chain(style, 3));
  suite.push_back(nor_chain(style, 2));
  suite.push_back(nor_chain(style, 3));
  suite.push_back(pass_chain(style, 2));
  suite.push_back(pass_chain(style, 4));
  suite.push_back(pass_chain(style, 6));
  suite.push_back(driver_chain(style, 3, 3.0, 250.0));
  suite.push_back(barrel_shifter(style, 4));
  suite.push_back(manchester_carry(style, 4));
  suite.push_back(precharged_bus(style, 4));
  suite.push_back(address_decoder(style, 3));
  suite.push_back(pla(style, 4, 6, 2, /*seed=*/7));
  return suite;
}

}  // namespace sldm
