// The naive baseline the paper's introduction argues against: a fixed
// delay per stage, as used by unit-delay logic simulators.  Blind to
// resistance, capacitance, structure, and input speed alike -- included
// so the benches can show what the RC family already buys before the
// slope model refines it.
#pragma once

#include "delay/model.h"

namespace sldm {

class UnitDelayModel final : public KernelModel<UnitDelayModel> {
 public:
  /// `unit` is the fixed per-stage delay.  Precondition: unit > 0.
  explicit UnitDelayModel(Seconds unit) : unit_(unit) {
    SLDM_EXPECTS(unit > 0.0);
  }

  std::string name() const override { return "unit-delay"; }

  /// A constant; the stage is still validated on the way in.
  DelayEstimate kernel(const StageTotals& /*t*/, Seconds /*input_slope*/,
                       std::vector<AuditTerm>* /*audit*/) const {
    return {.delay = unit_, .output_slope = unit_};
  }

  Seconds unit() const { return unit_; }

 private:
  Seconds unit_;
};

}  // namespace sldm
