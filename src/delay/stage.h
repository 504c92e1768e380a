// The "stage" abstraction of the paper: one charging/discharging event.
//
// A stage is a path from a source of value (rail, chip input, or
// precharged node) through the channels of conducting transistors to a
// destination node, triggered by one transistor's gate transition.  The
// delay models consume this electrical summary; the timing analyzer
// (src/timing) produces it from a netlist, and tests/benches also build
// stages directly.
//
// Every delay model prices a stage from its StageTotals: the
// slope-independent record that stage_totals() derives, with the one
// Elmore/T_P summation all model evaluation uses.  The analyzer's hot
// path never sees a Stage at all -- the StageStore
// (delay/stage_store.h) keeps one StageTotals per extracted stage,
// computed by the same stage_totals().  Stage itself is a plain value
// with no cached state: the materialized per-stage view for tests,
// explain traces, the fuzz oracles, and direct model evaluation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/types.h"
#include "rc/rc_tree.h"
#include "util/units.h"

namespace sldm {

/// One conducting transistor along the stage path, with the lumped
/// capacitance of the node on its destination side.
struct StageElement {
  TransistorType type = TransistorType::kNEnhancement;
  Ohms resistance = 0.0;  ///< effective resistance for this transition
  Farads cap = 0.0;       ///< node capacitance it charges/discharges
};

/// A complete stage.
struct Stage {
  /// Transition produced at the destination node.
  Transition output_dir = Transition::kFall;
  /// Slope of the trigger's gate transition (full-swing-equivalent ramp
  /// time); 0 means an ideal step.
  Seconds input_slope = 0.0;
  /// Path from the value source (front) to the destination (back).
  std::vector<StageElement> elements;
  /// Index into `elements` of the trigger transistor.
  std::size_t trigger_index = 0;

  /// Capacitance at the destination node.
  Farads destination_cap() const;
  /// Sum of path resistances, front to back.
  Ohms total_resistance() const;
  /// Sum of path node capacitances, front to back.
  Farads total_cap() const;
};

/// Validates stage invariants: non-empty path, trigger in range,
/// positive resistances, non-negative caps, positive total cap,
/// non-negative input slope.  Throws ContractViolation otherwise.
void validate(const Stage& stage);

/// Everything a delay model reads of a stage except the input slope:
/// the one record every model kernel (delay/model.h) prices.
struct StageTotals {
  Transition output_dir = Transition::kFall;
  TransistorType trigger_type = TransistorType::kNEnhancement;
  std::uint32_t length = 0;     ///< channel devices on the path
  Ohms total_r = 0.0;           ///< Stage::total_resistance()
  Farads total_c = 0.0;         ///< Stage::total_cap()
  Farads dest_c = 0.0;          ///< Stage::destination_cap()
  Seconds elmore = 0.0;         ///< Elmore constant at the destination
  Seconds tp = 0.0;             ///< RPH total time constant T_P
};

/// Validates `stage` (like validate()) and derives its StageTotals.
/// elmore and tp are the exact doubles RcTree::elmore(destination) and
/// RcTree::total_time_constant() return for to_rc_tree(stage): the same
/// terms summed in the same order, without building the tree.
StageTotals stage_totals(const Stage& stage);

/// Builds the (chain-shaped) RC tree of the stage: root at the value
/// source, one tree node per element.  The destination is the last tree
/// node (index elements.size()).
RcTree to_rc_tree(const Stage& stage);

/// Elmore time constant at the stage destination
/// (stage_totals(stage).elmore).
Seconds stage_elmore(const Stage& stage);

}  // namespace sldm
