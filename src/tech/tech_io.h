// Save/load of technology descriptions as a line-oriented text format, so
// calibrated processes can be persisted next to a design.
//
// Format:
//   tech <name> vdd <volts>
//   device <e|d|p> vt <v> kp <a_per_v2> lambda <per_v> cox <f_per_m2>
//          cov_w <f_per_m> cj_w <f_per_m> r_up_sq <ohm> r_down_sq <ohm>
//   (a device record is one physical line)
// ('#' introduces comments; fields are keyword/value pairs and may appear
// in any order after the leading record keyword.)
// Values are written with %.17g, so a write -> read round trip
// reproduces every double, and with it the tech_fingerprint().
#pragma once

#include <iosfwd>
#include <string>

#include "tech/tech.h"

namespace sldm {

/// Writes `tech` in the format above.
void write_tech(const Tech& tech, std::ostream& out);
void write_tech_file(const Tech& tech, const std::string& path);

/// Parses a technology description.  Throws ParseError on malformed input.
Tech read_tech(std::istream& in, const std::string& origin = "<stream>");
Tech read_tech_file(const std::string& path);

}  // namespace sldm
