#include "calib/models.h"

#include <map>
#include <mutex>

#include "delay/bounds.h"
#include "delay/lumped.h"
#include "delay/rctree.h"
#include "delay/slope.h"
#include "delay/unit.h"
#include "design/compiled_design.h"
#include "tech/tech_io.h"
#include "util/metrics.h"

namespace sldm {

Tech load_tech(const std::string& spec) {
  if (spec == "nmos") return nmos4();
  if (spec == "cmos") return cmos3();
  return read_tech_file(spec);
}

Style style_for(const Tech& tech) {
  return tech.has(TransistorType::kPEnhancement) ? Style::kCmos
                                                 : Style::kNmos;
}

std::shared_ptr<const CalibrationResult> calibrated(const Tech& base) {
  // One slot per fingerprint.  The map lock is held only to find the
  // slot; the slot lock serializes its one calibration, so different
  // technologies calibrate concurrently.
  struct Slot {
    std::mutex mutex;
    std::shared_ptr<const CalibrationResult> result;
  };
  static std::mutex memo_mutex;
  static std::map<std::uint64_t, std::shared_ptr<Slot>> memo;

  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(memo_mutex);
    std::shared_ptr<Slot>& entry = memo[tech_fingerprint(base)];
    if (!entry) entry = std::make_shared<Slot>();
    slot = entry;
  }
  std::lock_guard<std::mutex> lock(slot->mutex);
  if (!slot->result) {
    bump_process_counter("calibrate.runs");
    slot->result = std::make_shared<const CalibrationResult>(
        calibrate(base, style_for(base)));
  }
  return slot->result;
}

void check_model_name(const std::string& name) {
  if (name != "slope" && name != "lumped" && name != "rc-tree" &&
      name != "rph-upper" && name != "unit") {
    throw UnknownModelError("unknown model '" + name + "'");
  }
}

std::unique_ptr<DelayModel> make_model(const std::string& name,
                                       const SlopeTables* tables) {
  check_model_name(name);
  if (name == "lumped") return std::make_unique<LumpedRcModel>();
  if (name == "rc-tree") return std::make_unique<RcTreeModel>();
  if (name == "rph-upper") {
    return std::make_unique<RphBoundsModel>(RphBoundsModel::Mode::kUpper);
  }
  if (name == "unit") return std::make_unique<UnitDelayModel>(1e-9);
  if (!tables) throw MissingTablesError("the slope model needs slope tables");
  // The kernel needs an entry for whatever stage it prices, so an
  // incomplete set is refused here, by name, not mid-propagation.
  for (const TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      if (!tables->has(type, dir)) {
        throw MissingTablesError("slope tables have no 'entry " +
                                 to_letter(type) + ' ' + to_string(dir) +
                                 "' (" + to_string(type) +
                                 "); the slope model needs all six entries");
      }
    }
  }
  return std::make_unique<SlopeModel>(*tables);
}

}  // namespace sldm
