#include "delay/model.h"

#include "util/contracts.h"

namespace sldm {

void DelayModel::estimate_batch(const StageStore& store,
                                std::span<const StageStore::StageId> ids,
                                std::span<const Seconds> input_slopes,
                                std::span<DelayEstimate> out) const {
  SLDM_EXPECTS(ids.size() == input_slopes.size());
  SLDM_EXPECTS(ids.size() == out.size());
  // Scalar fallback: materialize through one reused scratch stage and
  // delegate -- bit-identical to per-stage estimate() by construction.
  Stage scratch;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    store.materialize(ids[i], input_slopes[i], scratch);
    out[i] = estimate(scratch);
  }
}

void DelayModel::fill_stage_audit(const StageTotals& totals,
                                  Seconds input_slope,
                                  DelayAudit& audit) const {
  audit.model = name();
  audit.total_resistance = totals.total_r;
  audit.total_cap = totals.total_c;
  audit.destination_cap = totals.dest_c;
  audit.elmore = totals.elmore;
  audit.input_slope = input_slope;
  audit.path_devices = totals.length;
  audit.terms.clear();
}

DelayEstimate DelayModel::estimate_audited(const Stage& stage,
                                           DelayAudit& audit) const {
  fill_stage_audit(stage_totals(stage), stage.input_slope, audit);
  audit.estimate = estimate(stage);
  return audit.estimate;
}

}  // namespace sldm
