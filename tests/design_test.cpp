// The CompiledDesign / Session split: N concurrent sessions over one
// shared immutable design must be bit-identical to N independent cold
// analyzers, and the single-writer ECO discipline must hold (update()
// refuses while share_design() handles are outstanding).
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "design/compiled_design.h"
#include "design/session.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "util/error.h"

namespace sldm {
namespace {

constexpr Seconds kSlope = 1e-9;

const Tech& tech_for(const GeneratedCircuit& g) {
  static const Tech nmos = nmos4();
  static const Tech cmos = cmos3();
  return g.style == Style::kNmos ? nmos : cmos;
}

/// Every arrival of `session` bit-equal to `reference`'s.
void expect_same_arrivals(const Netlist& nl, const Session& session,
                          const TimingAnalyzer& reference) {
  for (NodeId n : nl.all_nodes()) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = session.arrival(n, dir);
      const auto b = reference.arrival(n, dir);
      ASSERT_EQ(a.has_value(), b.has_value())
          << nl.node(n).name << ' ' << to_string(dir);
      if (!a) continue;
      EXPECT_EQ(a->time, b->time);
      EXPECT_EQ(a->slope, b->slope);
      EXPECT_EQ(a->from_node, b->from_node);
      EXPECT_EQ(a->from_dir, b->from_dir);
      EXPECT_EQ(a->via_stage, b->via_stage);
    }
  }
}

TEST(Design, CompileOwnsItsInputs) {
  std::shared_ptr<const CompiledDesign> design;
  {
    const GeneratedCircuit g = inverter_chain(Style::kCmos, 5, 2);
    design = CompiledDesign::compile(g.netlist, tech_for(g));
    // g (and its netlist) die here; the design must not care.
  }
  EXPECT_TRUE(design->owns_netlist());
  EXPECT_GT(design->stages().size(), 0u);
  EXPECT_EQ(design->stage_store().size(), design->stages().size());
  EXPECT_EQ(design->built_revision(), design->netlist().revision());

  const RcTreeModel model;
  Session session(design, model);
  session.add_all_input_events(kSlope);
  session.run();
  EXPECT_TRUE(session.worst_arrival(false).has_value());
}

TEST(Design, FingerprintSeparatesTechnologies) {
  EXPECT_EQ(tech_fingerprint(nmos4()), tech_fingerprint(nmos4()));
  EXPECT_NE(tech_fingerprint(nmos4()), tech_fingerprint(cmos3()));
  Tech tweaked = nmos4();
  tweaked.params(TransistorType::kNEnhancement).vt += 1e-6;
  EXPECT_NE(tech_fingerprint(nmos4()), tech_fingerprint(tweaked));
}

// The ISSUE acceptance test: two (here three) sessions with *different*
// delay models run concurrently over one shared CompiledDesign, and
// each matches an independent cold analyzer over the same netlist.
TEST(Design, ConcurrentSessionsMatchIndependentColdRuns) {
  const GeneratedCircuit g = barrel_shifter(Style::kCmos, 4);
  const Tech& tech = tech_for(g);
  const std::shared_ptr<const CompiledDesign> design =
      CompiledDesign::compile(g.netlist, tech);

  const RcTreeModel rctree;
  const LumpedRcModel lumped;
  const SlopeModel slope(SlopeTables::unit());
  const DelayModel* const models[] = {&rctree, &lumped, &slope};

  std::vector<std::unique_ptr<Session>> sessions;
  for (const DelayModel* model : models) {
    sessions.push_back(std::make_unique<Session>(design, *model));
  }
  std::vector<std::thread> workers;
  workers.reserve(sessions.size());
  for (auto& session : sessions) {
    workers.emplace_back([&session] {
      session->add_all_input_events(kSlope);
      session->run();
    });
  }
  for (auto& w : workers) w.join();

  for (std::size_t i = 0; i < sessions.size(); ++i) {
    TimingAnalyzer cold(g.netlist, tech, *models[i]);
    cold.add_all_input_events(kSlope);
    cold.run();
    expect_same_arrivals(g.netlist, *sessions[i], cold);
    // Work accounting is per-session state, not shared through the
    // design.
    EXPECT_EQ(sessions[i]->stage_evaluations(), cold.stage_evaluations());
  }
}

TEST(Design, SessionsWithDifferentThreadCountsAgree) {
  const GeneratedCircuit g = manchester_carry(Style::kNmos, 6);
  const std::shared_ptr<const CompiledDesign> design =
      CompiledDesign::compile(g.netlist, tech_for(g));
  const RcTreeModel model;

  Session seq(design, model, SessionOptions{64, 1});
  Session par(design, model, SessionOptions{64, 4});
  seq.add_all_input_events(kSlope);
  par.add_all_input_events(kSlope);
  seq.run();
  par.run();
  for (NodeId n : g.netlist.all_nodes()) {
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = seq.arrival(n, dir);
      const auto b = par.arrival(n, dir);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a) continue;
      EXPECT_EQ(a->time, b->time);
      EXPECT_EQ(a->slope, b->slope);
      EXPECT_EQ(a->via_stage, b->via_stage);
    }
  }
}

TEST(Design, UpdateRefusesWhileDesignIsShared) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 4, 2);
  Netlist nl = g.netlist;
  const Tech& tech = tech_for(g);
  const RcTreeModel model;

  TimingAnalyzer analyzer(nl, tech, model);
  analyzer.add_all_input_events(kSlope);
  analyzer.run();

  auto handle = analyzer.share_design();
  nl.set_capacitance(*nl.find_node("s1"), 10e-15);
  EXPECT_THROW(analyzer.update(), Error);

  // Dropping the outstanding handle restores exclusive ownership.
  handle.reset();
  analyzer.update();
  EXPECT_TRUE(analyzer.worst_arrival(false).has_value());
}

TEST(Design, SessionRefusesToRunOutOfSync) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 4, 2);
  Netlist nl = g.netlist;
  const RcTreeModel model;
  TimingAnalyzer analyzer(nl, g.style == Style::kNmos ? nmos4() : cmos3(),
                          model);
  analyzer.add_all_input_events(kSlope);
  nl.set_capacitance(*nl.find_node("s1"), 10e-15);
  EXPECT_THROW(analyzer.run(), Error);  // design is stale: update() first
  analyzer.update();
  analyzer.run();
  EXPECT_TRUE(analyzer.worst_arrival(false).has_value());
}

TEST(Design, MutableNetlistRequiresOwnership) {
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  const RcTreeModel model;
  TimingAnalyzer borrowed(g.netlist, tech_for(g), model);
  EXPECT_THROW(borrowed.mutable_netlist(), Error);
}

/// A reader session over a writable design built on the caller's
/// netlist, which the caller then edits through its own reference.
struct StaleReader {
  explicit StaleReader(const GeneratedCircuit& g)
      : nl(g.netlist),
        design(CompiledDesign::build_over(nl, tech_for(g))),
        reader(std::shared_ptr<const CompiledDesign>(design), model) {
    reader.add_all_input_events(kSlope);
    reader.update();  // in sync: a no-op, even for a reader
    nl.set_capacitance(*nl.find_node("s1"), 10e-15);
  }
  Netlist nl;
  const RcTreeModel model;
  std::shared_ptr<CompiledDesign> design;
  Session reader;
};

TEST(Design, ReaderSessionUpdateThrowsOnceTheNetlistMoved) {
  StaleReader s(inverter_chain(Style::kCmos, 4, 2));
  EXPECT_THROW(s.reader.update(), Error);
  // The refusal touched nothing: the design is still out of sync.
  EXPECT_NE(s.design->built_revision(), s.nl.revision());
}

TEST(Design, ReaderSessionStillRefusesToRunOutOfSync) {
  StaleReader s(inverter_chain(Style::kCmos, 4, 2));
  EXPECT_THROW(s.reader.update(), Error);
  EXPECT_THROW(s.reader.run(), Error);
}

TEST(Design, ReaderSessionHasNoMutableNetlist) {
  StaleReader s(inverter_chain(Style::kCmos, 4, 2));
  EXPECT_THROW(s.reader.mutable_netlist(), Error);
  // Not even over a design that owns its netlist.
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 3, 1);
  const RcTreeModel model;
  Session owned_reader(CompiledDesign::compile(g.netlist, tech_for(g)),
                       model);
  EXPECT_THROW(owned_reader.mutable_netlist(), Error);
}

}  // namespace
}  // namespace sldm
