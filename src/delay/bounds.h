// A bounds-based delay model built on the Rubinstein-Penfield-Horowitz
// inequalities: instead of a point estimate, each stage is priced at the
// provable upper (pessimistic verification) or lower (optimistic
// filtering) bound of its 50% crossing.
//
// Crystal offered a pessimistic mode for sign-off; this model is that
// mode, and Ablation B measures how loose the bounds are relative to
// the Elmore point estimate.
#pragma once

#include "delay/model.h"

namespace sldm {

class RphBoundsModel final : public KernelModel<RphBoundsModel> {
 public:
  enum class Mode { kUpper, kLower };

  explicit RphBoundsModel(Mode mode) : mode_(mode) {}

  std::string name() const override {
    return mode_ == Mode::kUpper ? "rph-upper" : "rph-lower";
  }

  /// delay = the RPH bound at 50% of the swing; output slope = the
  /// bound-consistent transition estimate (bound at 90% minus bound at
  /// 10%, scaled to a full swing).  Input slopes are ignored.
  DelayEstimate kernel(const StageTotals& t, Seconds /*input_slope*/,
                       std::vector<AuditTerm>* /*audit*/) const {
    const auto at = [this, &t](double v) {
      const RcTree::Bounds b = rph_bounds(t.elmore, t.tp, v);
      return mode_ == Mode::kUpper ? b.upper : b.lower;
    };
    DelayEstimate est;
    est.delay = at(0.5);
    // Transition-time estimate from the same bound family; guaranteed
    // non-negative because the bounds are monotone in v.
    est.output_slope = (at(0.9) - at(0.1)) / 0.8;
    if (est.output_slope <= 0.0) {
      est.output_slope = kSlopeFactor * t.elmore;
    }
    return est;
  }

  Mode mode() const { return mode_; }

 private:
  Mode mode_;
};

}  // namespace sldm
