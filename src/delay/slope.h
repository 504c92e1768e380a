// Model 3, the paper's contribution: the slope model.
//
// The stage keeps its distributed (Elmore) time constant, but the
// effective speed of the stage is modulated by how fast its trigger
// input moves: the slope ratio rho = input_slope / T_elmore selects a
// delay multiplier and an output-slope multiplier from per-device-type
// calibration tables.  A slow input (large rho) stretches both; a step
// input (rho -> 0) recovers the RC-tree behavior.  Slopes propagate:
// the estimated output slope becomes the next stage's input slope.
#pragma once

#include <utility>

#include "delay/model.h"
#include "delay/slope_table.h"

namespace sldm {

class SlopeModel final : public KernelModel<SlopeModel> {
 public:
  /// `tables` must contain an entry for every (trigger type, direction)
  /// the model will see; the kernel enforces this per stage.
  explicit SlopeModel(SlopeTables tables) : tables_(std::move(tables)) {}

  std::string name() const override { return "slope"; }

  /// Audit terms: the Elmore constant, rho and both table multipliers.
  DelayEstimate kernel(const StageTotals& t, Seconds input_slope,
                       std::vector<AuditTerm>* audit) const {
    SLDM_EXPECTS(tables_.has(t.trigger_type, t.output_dir));
    const SlopeEntry& e = tables_.entry(t.trigger_type, t.output_dir);
    const Seconds td = t.elmore;
    const double rho = slope_ratio(input_slope, td);
    const double dm = e.delay_mult(rho);
    const double sm = e.slope_mult(rho);
    if (audit) {
      audit->push_back({"t_elmore", td, "s"});
      audit->push_back({"rho", rho, ""});
      audit->push_back({"delay_mult", dm, ""});
      audit->push_back({"slope_mult", sm, ""});
    }
    SLDM_ENSURES(dm > 0.0 && sm > 0.0);
    return {.delay = kLn2 * dm * td, .output_slope = kSlopeFactor * sm * td};
  }

  /// The slope ratio rho = input_slope / elmore.  Precondition:
  /// elmore > 0.
  static double slope_ratio(Seconds input_slope, Seconds elmore) {
    SLDM_EXPECTS(elmore > 0.0);
    return input_slope / elmore;
  }
  /// The slope ratio the model uses for a stage.
  static double slope_ratio(const Stage& stage, Seconds elmore) {
    return slope_ratio(stage.input_slope, elmore);
  }

  const SlopeTables& tables() const { return tables_; }

 private:
  SlopeTables tables_;
};

}  // namespace sldm
