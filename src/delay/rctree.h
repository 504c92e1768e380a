// Model 2 of the paper: distributed RC (RC-tree) analysis.
//
// The stage keeps its spatial structure: the Elmore time constant at the
// destination replaces the lumped product.  This fixes the ~2x
// pessimism of the lumped model on series pass-transistor chains
// (Table 3) but still knows nothing about the input transition time.
#pragma once

#include "delay/model.h"

namespace sldm {

class RcTreeModel final : public KernelModel<RcTreeModel> {
 public:
  std::string name() const override { return "rc-tree"; }

  DelayEstimate kernel(const StageTotals& t, Seconds /*input_slope*/,
                       std::vector<AuditTerm>* audit) const {
    const Seconds td = t.elmore;
    if (audit) {
      audit->push_back({"t_elmore", td, "s"});
      audit->push_back({"ln2", kLn2, ""});
    }
    return {.delay = kLn2 * td, .output_slope = kSlopeFactor * td};
  }
};

}  // namespace sldm
