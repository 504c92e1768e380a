// Tests for the model registry (calib/models.h): the calibration memo
// is bit-identical to a direct calibrate(), runs once per technology
// under concurrent callers and never caches a failure, and the model
// factory's two named errors.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calib/models.h"
#include "design/compiled_design.h"
#include "tech/tech_io.h"
#include "util/metrics.h"

namespace sldm {
namespace {

std::uint64_t calibrate_runs() {
  return snapshot_process_metrics().counter("calibrate.runs").value();
}

/// `base` under another name: the same physics, but its own memo key
/// (the name is part of tech_fingerprint), so a test using it starts
/// from a cold memo whatever ran before it in this process.
Tech renamed(const Tech& base, const std::string& name) {
  Tech t(name, base.vdd());
  for (const TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    t.params(type) = base.params(type);
  }
  return t;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_tables_bit_identical(const SlopeTables& a, const SlopeTables& b) {
  for (const TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      ASSERT_EQ(a.has(type, dir), b.has(type, dir));
      if (!a.has(type, dir)) continue;
      const SlopeEntry& ea = a.entry(type, dir);
      const SlopeEntry& eb = b.entry(type, dir);
      EXPECT_TRUE(bits_equal(ea.delay_mult.xs(), eb.delay_mult.xs()));
      EXPECT_TRUE(bits_equal(ea.delay_mult.ys(), eb.delay_mult.ys()));
      EXPECT_TRUE(bits_equal(ea.slope_mult.xs(), eb.slope_mult.xs()));
      EXPECT_TRUE(bits_equal(ea.slope_mult.ys(), eb.slope_mult.ys()));
    }
  }
}

TEST(ModelRegistry, LoadTechAndStyle) {
  EXPECT_EQ(tech_fingerprint(load_tech("nmos")), tech_fingerprint(nmos4()));
  EXPECT_EQ(tech_fingerprint(load_tech("cmos")), tech_fingerprint(cmos3()));
  EXPECT_EQ(style_for(nmos4()), Style::kNmos);
  EXPECT_EQ(style_for(cmos3()), Style::kCmos);

  const std::string path = ::testing::TempDir() + "sldm_registry.tech";
  write_tech_file(cmos3(), path);
  const Tech from_file = load_tech(path);
  std::remove(path.c_str());
  EXPECT_EQ(from_file.name(), cmos3().name());
  EXPECT_EQ(style_for(from_file), Style::kCmos);
  EXPECT_THROW(load_tech("/nonexistent/x.tech"), Error);
}

class MemoMatchesDirect : public ::testing::TestWithParam<Style> {};

TEST_P(MemoMatchesDirect, BitIdenticalToDirectCalibration) {
  const Tech base = GetParam() == Style::kNmos ? nmos4() : cmos3();
  const std::shared_ptr<const CalibrationResult> memo = calibrated(base);
  const CalibrationResult direct = calibrate(base, style_for(base));
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(tech_fingerprint(memo->tech), tech_fingerprint(direct.tech));
  expect_tables_bit_identical(memo->tables, direct.tables);
  // A second call is a memo hit: same object, no new run.
  const std::uint64_t runs = calibrate_runs();
  EXPECT_EQ(calibrated(base), memo);
  EXPECT_EQ(calibrate_runs(), runs);
}

INSTANTIATE_TEST_SUITE_P(Styles, MemoMatchesDirect,
                         ::testing::Values(Style::kNmos, Style::kCmos));

TEST(ModelRegistry, ConcurrentCallersShareOneCalibration) {
  const Tech base = renamed(cmos3(), "cmos3-registry-concurrency");
  const std::uint64_t before = calibrate_runs();
  std::vector<std::shared_ptr<const CalibrationResult>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&got, &base, i] { got[i] = calibrated(base); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(calibrate_runs() - before, 1u);
  for (const auto& r : got) EXPECT_EQ(r, got.front());
  // The name keys the memo but does not enter the physics.
  expect_tables_bit_identical(got.front()->tables,
                              calibrated(cmos3())->tables);
}

TEST(ModelRegistry, FailedCalibrationIsNotCached) {
  // No device parameters at all: calibration cannot measure anything.
  const Tech broken("registry-broken", 5.0);
  const std::uint64_t before = calibrate_runs();
  EXPECT_ANY_THROW(calibrated(broken));
  EXPECT_ANY_THROW(calibrated(broken));
  EXPECT_EQ(calibrate_runs() - before, 2u);
}

TEST(ModelRegistry, FactoryBuildsEveryModelByName) {
  const SlopeTables tables = SlopeTables::unit();
  const std::vector<std::pair<std::string, std::string>> names = {
      {"slope", "slope"},         {"lumped", "lumped-rc"},
      {"rc-tree", "rc-tree"},     {"rph-upper", "rph-upper"},
      {"unit", "unit-delay"}};
  for (const auto& [name, model_name] : names) {
    EXPECT_NO_THROW(check_model_name(name));
    const std::unique_ptr<DelayModel> model = make_model(name, &tables);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), model_name);
  }
}

TEST(ModelRegistry, UnknownModelIsNamedError) {
  EXPECT_THROW(check_model_name("bogus"), UnknownModelError);
  try {
    make_model("bogus", nullptr);
    FAIL() << "make_model accepted an unknown name";
  } catch (const UnknownModelError& e) {
    EXPECT_STREQ(e.what(), "unknown model 'bogus'");
  }
}

TEST(ModelRegistry, SlopeWithoutTablesIsNamedError) {
  EXPECT_THROW(make_model("slope", nullptr), MissingTablesError);
  // The other models never need tables.
  EXPECT_NO_THROW(make_model("rc-tree", nullptr));
}

TEST(ModelRegistry, SlopeWithIncompleteTablesNamesTheMissingEntry) {
  const SlopeTables unit = SlopeTables::unit();
  SlopeTables partial;
  for (const TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      if (type == TransistorType::kNDepletion && dir == Transition::kFall) {
        continue;
      }
      partial.set(type, dir, unit.entry(type, dir));
    }
  }
  try {
    make_model("slope", &partial);
    FAIL() << "make_model accepted tables without 'entry d fall'";
  } catch (const MissingTablesError& e) {
    EXPECT_NE(std::string(e.what()).find("entry d fall"), std::string::npos)
        << e.what();
  }
  // An empty set names the first entry in table order.
  const SlopeTables empty;
  try {
    make_model("slope", &empty);
    FAIL() << "make_model accepted empty tables";
  } catch (const MissingTablesError& e) {
    EXPECT_NE(std::string(e.what()).find("entry e rise"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(make_model("slope", &unit));
}

}  // namespace
}  // namespace sldm
