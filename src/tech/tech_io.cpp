#include "tech/tech_io.h"

#include <fstream>
#include <istream>
#include <map>
#include <ostream>

#include "util/contracts.h"
#include "util/error.h"
#include "util/strings.h"

namespace sldm {
namespace {

TransistorType type_from_letter(const std::string& s, const std::string& origin,
                                int lineno) {
  if (s == "e" || s == "n") return TransistorType::kNEnhancement;
  if (s == "d") return TransistorType::kNDepletion;
  if (s == "p") return TransistorType::kPEnhancement;
  throw ParseError(origin, lineno, "unknown device type '" + s + "'");
}

}  // namespace

void write_tech(const Tech& tech, std::ostream& out) {
  out << "# sldm technology description\n";
  out << "tech " << tech.name() << " vdd " << format("%.17g", tech.vdd())
      << '\n';
  for (TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    if (!tech.has(type)) continue;
    const DeviceParams& p = tech.params(type);
    out << "device " << to_letter(type)
        << format(
               " vt %.17g kp %.17g lambda %.17g cox %.17g cov_w %.17g"
               " cj_w %.17g r_up_sq %.17g r_down_sq %.17g",
               p.vt, p.kp, p.lambda, p.cox, p.cov_w, p.cj_w, p.r_up_sq,
               p.r_down_sq)
        << '\n';
  }
}

void write_tech_file(const Tech& tech, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot create tech file: " + path);
  write_tech(tech, out);
}

Tech read_tech(std::istream& in, const std::string& origin) {
  Tech tech;
  bool have_header = false;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto tokens = split_ws(stripped);
    SLDM_ASSERT(!tokens.empty());

    if (tokens[0] == "tech") {
      if (tokens.size() != 4 || tokens[2] != "vdd") {
        throw ParseError(origin, lineno, "expected: tech <name> vdd <volts>");
      }
      const auto vdd = parse_finite_double(tokens[3]);
      if (!vdd || *vdd <= 0.0) throw ParseError(origin, lineno, "bad vdd");
      tech = Tech(tokens[1], *vdd);
      have_header = true;
      continue;
    }

    if (tokens[0] == "device") {
      if (!have_header) {
        throw ParseError(origin, lineno, "device record before tech header");
      }
      if (tokens.size() < 2 || tokens.size() % 2 != 0) {
        throw ParseError(origin, lineno,
                         "device record needs a type and key/value pairs");
      }
      const TransistorType type = type_from_letter(tokens[1], origin, lineno);
      DeviceParams& p = tech.params(type);
      for (std::size_t i = 2; i + 1 < tokens.size(); i += 2) {
        const auto v = parse_finite_double(tokens[i + 1]);
        if (!v) {
          throw ParseError(origin, lineno, "bad value for " + tokens[i]);
        }
        const std::string& key = tokens[i];
        if (key == "vt") {
          p.vt = *v;
        } else if (key == "kp") {
          p.kp = *v;
        } else if (key == "lambda") {
          p.lambda = *v;
        } else if (key == "cox") {
          p.cox = *v;
        } else if (key == "cov_w") {
          p.cov_w = *v;
        } else if (key == "cj_w") {
          p.cj_w = *v;
        } else if (key == "r_up_sq") {
          p.r_up_sq = *v;
        } else if (key == "r_down_sq") {
          p.r_down_sq = *v;
        } else {
          throw ParseError(origin, lineno, "unknown device field " + key);
        }
      }
      continue;
    }

    throw ParseError(origin, lineno, "unknown record '" + tokens[0] + "'");
  }
  if (!have_header) throw ParseError(origin, lineno, "missing tech header");
  return tech;
}

Tech read_tech_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open tech file: " + path);
  return read_tech(in, path);
}

}  // namespace sldm
