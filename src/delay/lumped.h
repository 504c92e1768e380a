// Model 1 of the paper: lumped RC.
//
// Every resistance in the stage is summed into one R, every capacitance
// into one C, and the stage is treated as a single RC section:
// delay = ln(2) R C, output slope = ln9/0.8 R C.  Input slope is
// ignored entirely -- that blindness is what Table 2/Fig. 2 expose.
#pragma once

#include "delay/model.h"

namespace sldm {

class LumpedRcModel final : public KernelModel<LumpedRcModel> {
 public:
  std::string name() const override { return "lumped-rc"; }

  DelayEstimate kernel(const StageTotals& t, Seconds /*input_slope*/,
                       std::vector<AuditTerm>* audit) const {
    const Seconds tau = t.total_r * t.total_c;
    if (audit) {
      audit->push_back({"tau_lumped", tau, "s"});
      audit->push_back({"ln2", kLn2, ""});
    }
    return {.delay = kLn2 * tau, .output_slope = kSlopeFactor * tau};
  }
};

}  // namespace sldm
