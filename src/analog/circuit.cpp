#include "analog/circuit.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"
#include "util/strings.h"

namespace sldm {

PwlSource PwlSource::dc(Volts v) {
  PwlSource s;
  s.breaks_ = {0.0};
  s.values_ = {v};
  return s;
}

PwlSource PwlSource::edge(Volts v0, Volts v1, Seconds t_start, Seconds ramp) {
  SLDM_EXPECTS(ramp > 0.0);
  SLDM_EXPECTS(t_start >= 0.0);
  PwlSource s;
  s.breaks_ = {t_start, t_start + ramp};
  s.values_ = {v0, v1};
  return s;
}

PwlSource PwlSource::points(std::vector<std::pair<Seconds, Volts>> pts) {
  SLDM_EXPECTS(!pts.empty());
  PwlSource s;
  s.breaks_.reserve(pts.size());
  s.values_.reserve(pts.size());
  for (const auto& [t, v] : pts) {
    SLDM_EXPECTS(s.breaks_.empty() || t > s.breaks_.back());
    s.breaks_.push_back(t);
    s.values_.push_back(v);
  }
  return s;
}

Volts PwlSource::at(Seconds t) const {
  SLDM_ASSERT(!breaks_.empty());
  if (t <= breaks_.front()) return values_.front();
  if (t >= breaks_.back()) return values_.back();
  const auto it = std::upper_bound(breaks_.begin(), breaks_.end(), t);
  const auto hi = static_cast<std::size_t>(it - breaks_.begin());
  const std::size_t lo = hi - 1;
  const double frac = (t - breaks_[lo]) / (breaks_[hi] - breaks_[lo]);
  return values_[lo] + frac * (values_[hi] - values_[lo]);
}

namespace {

/// Level-1 drain current for an n-type device in normal orientation
/// (vds >= 0).  Returns current and derivatives w.r.t. vgs and vds.
struct NOp {
  double id = 0.0;
  double gm = 0.0;   // dId/dVgs
  double gds = 0.0;  // dId/dVds
};

NOp eval_n(const DeviceParams& p, double aspect, double vgs, double vds) {
  SLDM_ASSERT(vds >= 0.0);
  NOp op;
  const double vov = vgs - p.vt;
  if (vov <= 0.0) {
    return op;  // cutoff
  }
  const double beta = p.kp * aspect;
  const double clm = 1.0 + p.lambda * vds;
  if (vds < vov) {
    // Triode region.
    const double core = vov * vds - 0.5 * vds * vds;
    op.id = beta * core * clm;
    op.gm = beta * vds * clm;
    op.gds = beta * ((vov - vds) * clm + p.lambda * core);
  } else {
    // Saturation.
    const double core = 0.5 * vov * vov;
    op.id = beta * core * clm;
    op.gm = beta * vov * clm;
    op.gds = beta * p.lambda * core;
  }
  return op;
}

}  // namespace

MosfetOp eval_mosfet(const Mosfet& m, Volts vd, Volts vg, Volts vs) {
  SLDM_EXPECTS(m.width > 0.0 && m.length > 0.0);
  const double aspect = m.width / m.length;

  // Mirror p-type devices into n-type space: negate every terminal
  // voltage and the threshold.  The resulting current is the negative of
  // the physical drain current, while the derivatives carry over.
  double xd = vd;
  double xg = vg;
  double xs = vs;
  DeviceParams p = m.params;
  if (m.is_p) {
    xd = -vd;
    xg = -vg;
    xs = -vs;
    p.vt = -p.vt;
  }

  // Source/drain symmetry: conduct with the lower-potential channel
  // terminal as source.
  const bool swapped = xd < xs;
  const double vhi = swapped ? xs : xd;
  const double vlo = swapped ? xd : xs;
  const NOp n = eval_n(p, aspect, xg - vlo, vhi - vlo);

  // Mirrored-space current into xd and derivatives w.r.t. xd, xg, xs.
  double im;     // current into the mirrored drain terminal
  double d_g;    // dIm/dxg
  double d_d;    // dIm/dxd
  double d_s;    // dIm/dxs
  if (!swapped) {
    im = n.id;
    d_g = n.gm;
    d_d = n.gds;
    d_s = -(n.gm + n.gds);
  } else {
    // eval_n computed the current into xs (acting as drain); the current
    // into xd is its negative.
    im = -n.id;
    d_g = -n.gm;
    d_s = -n.gds;
    d_d = n.gm + n.gds;
  }

  // For p devices I_phys(v) = -I_mirror(-v), so the current flips sign
  // while dI_phys/dv = +dI_mirror/dx (two sign flips cancel).
  MosfetOp op;
  op.id = m.is_p ? -im : im;
  op.d_vg = d_g;
  op.d_vd = d_d;
  op.d_vs = d_s;
  return op;
}

Circuit::Circuit() { names_.push_back("0"); }

AnalogNode Circuit::add_node(std::string name) {
  if (name.empty()) name = format("n%zu", names_.size());
  names_.push_back(std::move(name));
  return names_.size() - 1;
}

const std::string& Circuit::node_name(AnalogNode n) const {
  check_node(n);
  return names_[n];
}

void Circuit::add_resistor(AnalogNode a, AnalogNode b, Ohms r) {
  check_node(a);
  check_node(b);
  SLDM_EXPECTS(a != b);
  SLDM_EXPECTS(r > 0.0);
  resistors_.push_back({a, b, r});
}

void Circuit::add_capacitor(AnalogNode a, AnalogNode b, Farads c) {
  check_node(a);
  check_node(b);
  SLDM_EXPECTS(a != b);
  SLDM_EXPECTS(c > 0.0);
  capacitors_.push_back({a, b, c});
}

std::size_t Circuit::add_vsource(AnalogNode pos, AnalogNode neg,
                                 PwlSource v) {
  check_node(pos);
  check_node(neg);
  SLDM_EXPECTS(pos != neg);
  vsources_.push_back({pos, neg, std::move(v)});
  return vsources_.size() - 1;
}

void Circuit::add_mosfet(Mosfet m) {
  check_node(m.drain);
  check_node(m.gate);
  check_node(m.source);
  SLDM_EXPECTS(m.drain != m.source);
  SLDM_EXPECTS(m.width > 0.0 && m.length > 0.0);
  SLDM_EXPECTS(m.params.kp > 0.0);
  mosfets_.push_back(std::move(m));
}

void Circuit::check_node(AnalogNode n) const {
  SLDM_EXPECTS(n < names_.size());
}

}  // namespace sldm
