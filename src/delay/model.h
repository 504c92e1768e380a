// The DelayModel interface: the paper's three models (lumped RC,
// distributed RC tree, slope) are interchangeable behind it, and the
// timing analyzer, the experiment harness, and the examples all take a
// `const DelayModel&`.
//
// One kernel per model.  Each concrete model writes its arithmetic
// exactly once, as a kernel over a stage's StageTotals (delay/stage.h)
// and the trigger's input slope, with an optional audit sink for the
// model's own terms (the slope model's rho and table multipliers, the
// lumped product, ...).  KernelModel derives the three entry points
// every caller uses from that kernel:
//
//  * estimate(stage) prices stage_totals(stage);
//  * estimate_batch(store, ids, slopes, out) prices the store's cached
//    records -- the same stage_totals() doubles -- in a loop that calls
//    the kernel directly, so the kernel inlines into it;
//  * estimate_audited(stage, audit) prices stage_totals(stage) with the
//    audit sink attached, for the explain pipeline (timing/explain.h).
//
// The three therefore agree bit for bit by construction -- the contract
// the analyzer's batched propagation, the explain re-evaluations and
// the fuzz oracles rely on, and that batch_kernel_test checks.
// A model that does not derive from KernelModel overrides estimate()
// and inherits the base class's materialize-and-delegate batch and
// audit fallbacks.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "delay/stage.h"
#include "delay/stage_store.h"
#include "util/contracts.h"
#include "util/units.h"

namespace sldm {

/// What a delay model predicts for one stage.
struct DelayEstimate {
  /// Time from the trigger's gate 50%-crossing to the destination
  /// node's 50%-crossing.
  Seconds delay = 0.0;
  /// Predicted transition time at the destination (full-swing-
  /// equivalent ramp time); feeds the next stage's input_slope.
  Seconds output_slope = 0.0;
};

/// One named quantity contributing to an audited estimate.  `name` and
/// `unit` are string literals owned by the model.
struct AuditTerm {
  const char* name = "";
  double value = 0.0;
  const char* unit = "";  ///< "s", "ohm", "F", or "" for dimensionless
};

/// The full accounting of one audited evaluation: the generic stage
/// electricals (filled for every model) plus the model's own terms, and
/// the resulting estimate.
struct DelayAudit {
  std::string model;              ///< DelayModel::name()
  Ohms total_resistance = 0.0;    ///< sum of path resistances
  Farads total_cap = 0.0;         ///< sum of path node capacitances
  Farads destination_cap = 0.0;   ///< capacitance at the switched node
  Seconds elmore = 0.0;           ///< Elmore constant at the destination
  Seconds input_slope = 0.0;      ///< trigger transition time seen
  std::size_t path_devices = 0;   ///< channel devices on the stage path
  /// Model-specific contributions in evaluation order (e.g. the slope
  /// model's rho and table multipliers).
  std::vector<AuditTerm> terms;
  DelayEstimate estimate;         ///< identical to estimate(stage)
};

/// Interface of all switch-level delay models.
class DelayModel {
 public:
  virtual ~DelayModel() = default;

  /// Short identifier used in reports ("lumped-rc", "rc-tree", "slope").
  virtual std::string name() const = 0;

  /// Estimates delay and output slope for a validated stage.
  virtual DelayEstimate estimate(const Stage& stage) const = 0;

  /// Batched kernel: prices stage `ids[i]` of `store` with trigger
  /// input slope `input_slopes[i]` into `out[i]`, for every i.
  /// Preconditions: the three spans have equal length; every id is
  /// < store.size(); slopes are >= 0.  Ids may repeat and appear in any
  /// order, and the batch may be empty or larger than the store.
  ///
  /// Contract: out[i] is bit-identical to
  /// estimate(store.materialize(ids[i], input_slopes[i])) -- the default
  /// implementation computes exactly that through a reused scratch
  /// stage; KernelModel prices the store's cached StageTotals instead.
  /// Implementations are pure over (store, id, slope): concurrent calls
  /// on disjoint output spans are safe, which is what the analyzer's
  /// parallel wavefront relies on.
  virtual void estimate_batch(const StageStore& store,
                              std::span<const StageStore::StageId> ids,
                              std::span<const Seconds> input_slopes,
                              std::span<DelayEstimate> out) const;

  /// Audited evaluation: fills `audit` with the generic stage terms and
  /// any model-specific contributions, and returns exactly what
  /// estimate(stage) returns.  The base implementation fills the
  /// generic terms and delegates to estimate(); KernelModel adds the
  /// terms its kernel appends.
  virtual DelayEstimate estimate_audited(const Stage& stage,
                                         DelayAudit& audit) const;

 protected:
  DelayModel() = default;
  DelayModel(const DelayModel&) = default;
  DelayModel& operator=(const DelayModel&) = default;

  /// Fills the generic (model-independent) audit fields and clears the
  /// model terms.
  void fill_stage_audit(const StageTotals& totals, Seconds input_slope,
                        DelayAudit& audit) const;
};

/// The three DelayModel entry points, derived from one kernel.  A model
/// derives as `class M final : public KernelModel<M>` and provides
///
///   DelayEstimate kernel(const StageTotals& totals, Seconds input_slope,
///                        std::vector<AuditTerm>* audit) const;
///
/// which prices one stage and, when `audit` is non-null, appends the
/// model's own terms to it.  Kernels are defined in the model's header
/// so that every batch loop instantiation inlines them.
template <class Derived>
class KernelModel : public DelayModel {
 public:
  DelayEstimate estimate(const Stage& stage) const final {
    return self().kernel(stage_totals(stage), stage.input_slope, nullptr);
  }

  void estimate_batch(const StageStore& store,
                      std::span<const StageStore::StageId> ids,
                      std::span<const Seconds> input_slopes,
                      std::span<DelayEstimate> out) const final {
    SLDM_EXPECTS(ids.size() == input_slopes.size());
    SLDM_EXPECTS(ids.size() == out.size());
    // Store records were validated by stage_totals() at insertion.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out[i] = self().kernel(store.totals(ids[i]), input_slopes[i], nullptr);
    }
  }

  DelayEstimate estimate_audited(const Stage& stage,
                                 DelayAudit& audit) const final {
    const StageTotals totals = stage_totals(stage);
    fill_stage_audit(totals, stage.input_slope, audit);
    audit.estimate = self().kernel(totals, stage.input_slope, &audit.terms);
    return audit.estimate;
  }

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

}  // namespace sldm
