// The model registry: the one place that turns a technology spec and a
// model name into what an analysis runs with.  The CLI, `sldm compile`,
// `sldm serve` and the experiment harness all build their technologies,
// calibrations and delay models here, so a cold CLI run, a compiled
// snapshot and a served request agree by construction.
//
// Calibration is deterministic, so calibrated() computes it once per
// technology per process and hands every caller the same result.  Code
// that *measures* calibration (`sldm calibrate`, the calibration
// benches) calls calibrate() directly instead, or a memo hit would be
// timed as a cold start.
#pragma once

#include <memory>
#include <string>

#include "calib/calibrate.h"
#include "delay/model.h"
#include "delay/slope_table.h"
#include "tech/tech.h"
#include "util/error.h"

namespace sldm {

/// A technology spec: "nmos" (nmos4), "cmos" (cmos3), or a .tech path.
/// Throws Error when the file cannot be read or parsed.
Tech load_tech(const std::string& spec);

/// The logic style a technology calibrates for: CMOS when it has
/// p-channel devices, nMOS otherwise.
Style style_for(const Tech& tech);

/// calibrate(base, style_for(base)), memoized process-wide by
/// tech_fingerprint(base).  Thread-safe: concurrent callers with one
/// key share a single calibration run (counted by the process counter
/// "calibrate.runs").  A calibration that throws is not cached; the
/// next caller retries.
std::shared_ptr<const CalibrationResult> calibrated(const Tech& base);

/// make_model() was asked for a name it does not know.
class UnknownModelError : public Error {
 public:
  using Error::Error;
};

/// make_model() was asked for the slope model without slope tables, or
/// with tables that lack one of the six (type, direction) entries.
class MissingTablesError : public Error {
 public:
  using Error::Error;
};

/// Throws UnknownModelError unless make_model() builds `name`.
void check_model_name(const std::string& name);

/// Builds a delay model by name: "slope" (needs `tables` with all six
/// entries, copied into the model), "lumped", "rc-tree", "rph-upper" or
/// "unit".
std::unique_ptr<DelayModel> make_model(const std::string& name,
                                       const SlopeTables* tables);

}  // namespace sldm
