// The batch-kernel contract (delay/model.h): for every model,
// estimate_batch over a StageStore must reproduce, bit for bit, what
// estimate() returns for the materialized stage.  Exercised over the
// stage sets of every circuit generator in src/gen, plus the batch-
// boundary edge cases (empty batch, single stage, repeated ids in a
// batch larger than the store) and the base-class scalar fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "delay/bounds.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "delay/stage_store.h"
#include "delay/unit.h"
#include "gen/generators.h"
#include "rc/rc_tree.h"
#include "tech/tech.h"
#include "timing/analyzer.h"

namespace sldm {
namespace {

/// One circuit per generator in src/gen (both styles, so release stages
/// and depletion loads land in the store too).
std::vector<GeneratedCircuit> generator_suite() {
  std::vector<GeneratedCircuit> out;
  out.push_back(inverter_chain(Style::kCmos, 8, 3));
  out.push_back(inverter_chain(Style::kNmos, 6, 2));
  out.push_back(nand_chain(Style::kCmos, 3));
  out.push_back(nor_chain(Style::kNmos, 3));
  out.push_back(pass_chain(Style::kNmos, 5));
  out.push_back(barrel_shifter(Style::kCmos, 4));
  out.push_back(manchester_carry(Style::kNmos, 6));
  out.push_back(precharged_bus(Style::kCmos, 5));
  out.push_back(driver_chain(Style::kCmos, 4, 2.5, 80.0));
  out.push_back(address_decoder(Style::kCmos, 3));
  out.push_back(pla(Style::kCmos, 4, 5, 3, 0x1234));
  out.push_back(shift_register(Style::kCmos, 3));
  out.push_back(sram_read_column(Style::kNmos, 6));
  out.push_back(random_logic(Style::kCmos, 6, 10, 0xABCD));
  return out;
}

const Tech& tech_for(const GeneratedCircuit& g) {
  static const Tech nmos = nmos4();
  static const Tech cmos = cmos3();
  return g.style == Style::kNmos ? nmos : cmos;
}

/// Deterministic non-trivial slope for batch item i.
Seconds slope_for(std::size_t i) {
  return 0.1e-9 + static_cast<Seconds>(i % 7) * 0.35e-9;
}

/// The models under contract.  The slope model gets unit tables (every
/// trigger type covered); bounds gets both modes.
struct ModelSet {
  LumpedRcModel lumped;
  RcTreeModel rctree;
  SlopeModel slope{SlopeTables::unit()};
  RphBoundsModel upper{RphBoundsModel::Mode::kUpper};
  RphBoundsModel lower{RphBoundsModel::Mode::kLower};
  UnitDelayModel unit{1e-9};

  std::vector<const DelayModel*> all() const {
    return {&lumped, &rctree, &slope, &upper, &lower, &unit};
  }
};

/// A model with no estimate_batch override: exercises the base-class
/// materialize-and-delegate fallback against the same scalar reference.
class FallbackModel : public DelayModel {
 public:
  std::string name() const override { return "fallback"; }
  DelayEstimate estimate(const Stage& stage) const override {
    return inner_.estimate(stage);
  }
  DelayEstimate estimate_audited(const Stage& stage,
                                 DelayAudit& audit) const override {
    return inner_.estimate_audited(stage, audit);
  }

 private:
  RcTreeModel inner_;
};

/// Scalar reference: estimate() of the materialized stage, one by one.
std::vector<DelayEstimate> scalar_reference(
    const DelayModel& model, const StageStore& store,
    const std::vector<StageStore::StageId>& ids,
    const std::vector<Seconds>& slopes) {
  std::vector<DelayEstimate> out(ids.size());
  Stage scratch;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    store.materialize(ids[i], slopes[i], scratch);
    out[i] = model.estimate(scratch);
  }
  return out;
}

void expect_bit_identical(const std::vector<DelayEstimate>& scalar,
                          const std::vector<DelayEstimate>& batch,
                          const std::string& what) {
  ASSERT_EQ(scalar.size(), batch.size()) << what;
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    // Bitwise equality, not tolerance: the kernels must replicate the
    // scalar arithmetic exactly.
    EXPECT_EQ(scalar[i].delay, batch[i].delay) << what << " item " << i;
    EXPECT_EQ(scalar[i].output_slope, batch[i].output_slope)
        << what << " item " << i;
  }
}

TEST(BatchKernel, BitIdenticalToScalarAcrossGeneratorsAndModels) {
  const ModelSet models;
  const RcTreeModel extraction_model;  // store content is model-free
  for (const GeneratedCircuit& g : generator_suite()) {
    const TimingAnalyzer an(g.netlist, tech_for(g), extraction_model);
    const StageStore& store = an.stage_store();
    ASSERT_GT(store.size(), 0u) << g.name;

    std::vector<StageStore::StageId> ids;
    std::vector<Seconds> slopes;
    for (std::size_t s = 0; s < store.size(); ++s) {
      ids.push_back(static_cast<StageStore::StageId>(s));
      slopes.push_back(slope_for(s));
    }
    for (const DelayModel* model : models.all()) {
      std::vector<DelayEstimate> batch(ids.size());
      model->estimate_batch(store, ids, slopes, batch);
      expect_bit_identical(scalar_reference(*model, store, ids, slopes),
                           batch, g.name + "/" + model->name());
    }
  }
}

TEST(BatchKernel, StoreCachesMatchStandaloneStageTotals) {
  // The store's cached totals are the same doubles the materialized
  // Stage derives for itself (satellite: totals are cached, not
  // re-summed, on both paths).
  const RcTreeModel model;
  const GeneratedCircuit g = barrel_shifter(Style::kCmos, 4);
  const TimingAnalyzer an(g.netlist, tech_for(g), model);
  const StageStore& store = an.stage_store();
  for (std::size_t s = 0; s < store.size(); ++s) {
    const auto id = static_cast<StageStore::StageId>(s);
    const Stage stage = store.materialize(id, 1e-9);
    EXPECT_EQ(store.total_resistance(id), stage.total_resistance());
    EXPECT_EQ(store.total_cap(id), stage.total_cap());
    EXPECT_EQ(store.destination_cap(id), stage.destination_cap());
    EXPECT_EQ(store.length(id), stage.elements.size());
  }
}

/// Model evaluation never builds an RcTree: stage_totals() is the one
/// Elmore / T_P summation every kernel reads, and RcTree is the
/// independent general-tree reference it must reproduce exactly.
void expect_totals_match_rc_tree(const Stage& stage, const ModelSet& models,
                                 const std::string& what) {
  const StageTotals totals = stage_totals(stage);
  const RcTree tree = to_rc_tree(stage);
  const std::size_t n = stage.elements.size();
  EXPECT_EQ(totals.elmore, tree.elmore(n)) << what;
  EXPECT_EQ(totals.tp, tree.total_time_constant()) << what;
  const RcTree::Bounds b = tree.rph_bounds(n, 0.5);
  EXPECT_EQ(models.upper.kernel(totals, stage.input_slope, nullptr).delay,
            b.upper)
      << what;
  EXPECT_EQ(models.lower.kernel(totals, stage.input_slope, nullptr).delay,
            b.lower)
      << what;
}

TEST(BatchKernel, SharedSummationMatchesRcTreeBitForBit) {
  const ModelSet models;
  const RcTreeModel extraction_model;
  for (const GeneratedCircuit& g : generator_suite()) {
    const TimingAnalyzer an(g.netlist, tech_for(g), extraction_model);
    const StageStore& store = an.stage_store();
    for (std::size_t s = 0; s < store.size(); ++s) {
      const auto id = static_cast<StageStore::StageId>(s);
      const Stage stage = store.materialize(id, slope_for(s));
      const std::string what = g.name + " stage " + std::to_string(s);
      expect_totals_match_rc_tree(stage, models, what);
      EXPECT_EQ(store.elmore(id), stage_totals(stage).elmore) << what;
      EXPECT_EQ(store.total_time_constant(id), stage_totals(stage).tp)
          << what;
    }
  }
  // Extracted stages are short and often uniform, where any summation
  // order rounds alike; long chains of irregular values (and zero caps)
  // are where a reordered sum would show.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x % 1000003) / 1000003.0;
  };
  for (std::size_t len = 1; len <= 24; ++len) {
    Stage stage;
    for (std::size_t k = 0; k < len; ++k) {
      const Farads cap = k % 5 == 2 ? 0.0 : 1e-15 + 80e-15 * next();
      stage.elements.push_back(
          {TransistorType::kNEnhancement, 1e3 + 40e3 * next(), cap});
    }
    stage.elements.back().cap += 1e-15;
    expect_totals_match_rc_tree(stage, models,
                                "chain of " + std::to_string(len));
  }
}

TEST(BatchKernel, EmptyBatchIsANoOp) {
  const ModelSet models;
  const RcTreeModel extraction_model;
  const GeneratedCircuit g = inverter_chain(Style::kCmos, 4, 1);
  const TimingAnalyzer an(g.netlist, tech_for(g), extraction_model);
  for (const DelayModel* model : models.all()) {
    std::vector<StageStore::StageId> ids;
    std::vector<Seconds> slopes;
    std::vector<DelayEstimate> out;
    model->estimate_batch(an.stage_store(), ids, slopes, out);
    EXPECT_TRUE(out.empty()) << model->name();
  }
}

TEST(BatchKernel, SingleStageBatch) {
  const ModelSet models;
  const RcTreeModel extraction_model;
  const GeneratedCircuit g = nand_chain(Style::kCmos, 3);
  const TimingAnalyzer an(g.netlist, tech_for(g), extraction_model);
  const StageStore& store = an.stage_store();
  const std::vector<StageStore::StageId> ids = {0};
  const std::vector<Seconds> slopes = {2e-9};
  for (const DelayModel* model : models.all()) {
    std::vector<DelayEstimate> batch(1);
    model->estimate_batch(store, ids, slopes, batch);
    expect_bit_identical(scalar_reference(*model, store, ids, slopes),
                         batch, model->name());
  }
}

TEST(BatchKernel, RepeatedIdsBatchLargerThanStore) {
  // Ids may repeat and a batch may hold more items than the store holds
  // stages: the kernels are pure per item.  Repeats with different
  // slopes also verify no per-stage state leaks between items.
  const ModelSet models;
  const RcTreeModel extraction_model;
  const GeneratedCircuit g = pass_chain(Style::kNmos, 5);
  const TimingAnalyzer an(g.netlist, tech_for(g), extraction_model);
  const StageStore& store = an.stage_store();
  std::vector<StageStore::StageId> ids;
  std::vector<Seconds> slopes;
  const std::size_t n = 3 * store.size() + 2;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<StageStore::StageId>(i % store.size()));
    slopes.push_back(slope_for(i));
  }
  for (const DelayModel* model : models.all()) {
    std::vector<DelayEstimate> batch(n);
    model->estimate_batch(store, ids, slopes, batch);
    expect_bit_identical(scalar_reference(*model, store, ids, slopes),
                         batch, model->name());
  }
}

TEST(BatchKernel, BaseClassFallbackMatchesScalar) {
  const FallbackModel model;
  const RcTreeModel extraction_model;
  const GeneratedCircuit g = random_logic(Style::kCmos, 5, 8, 0x77);
  const TimingAnalyzer an(g.netlist, tech_for(g), extraction_model);
  const StageStore& store = an.stage_store();
  std::vector<StageStore::StageId> ids;
  std::vector<Seconds> slopes;
  for (std::size_t s = 0; s < store.size(); ++s) {
    ids.push_back(static_cast<StageStore::StageId>(s));
    slopes.push_back(slope_for(s));
  }
  std::vector<DelayEstimate> batch(ids.size());
  model.estimate_batch(store, ids, slopes, batch);
  expect_bit_identical(scalar_reference(model, store, ids, slopes), batch,
                       "fallback");
}

}  // namespace
}  // namespace sldm
