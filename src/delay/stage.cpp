#include "delay/stage.h"

#include "util/contracts.h"

namespace sldm {

Farads Stage::destination_cap() const {
  SLDM_EXPECTS(!elements.empty());
  return elements.back().cap;
}

Ohms Stage::total_resistance() const {
  Ohms r = 0.0;
  for (const StageElement& e : elements) r += e.resistance;
  return r;
}

Farads Stage::total_cap() const {
  Farads c = 0.0;
  for (const StageElement& e : elements) c += e.cap;
  return c;
}

void validate(const Stage& stage) {
  SLDM_EXPECTS(!stage.elements.empty());
  SLDM_EXPECTS(stage.trigger_index < stage.elements.size());
  SLDM_EXPECTS(stage.input_slope >= 0.0);
  for (const StageElement& e : stage.elements) {
    SLDM_EXPECTS(e.resistance > 0.0);
    SLDM_EXPECTS(e.cap >= 0.0);
  }
  SLDM_EXPECTS(stage.total_cap() > 0.0);
}

StageTotals stage_totals(const Stage& stage) {
  validate(stage);
  const std::vector<StageElement>& el = stage.elements;
  StageTotals t;
  t.output_dir = stage.output_dir;
  t.trigger_type = el[stage.trigger_index].type;
  t.length = static_cast<std::uint32_t>(el.size());
  t.total_r = stage.total_resistance();
  t.total_c = stage.total_cap();
  t.dest_c = stage.destination_cap();

  // RcTree's arithmetic on the chain to_rc_tree() builds (tree node k is
  // element k-1, the destination is the last node), term for term:
  //  * RcTree::path_resistance(k) sums r_up from node k upward
  //    (descending element index);
  //  * elmore(dest) adds path_resistance(k) * cap_k over ascending k,
  //    skipping zero caps (the LCA of the destination with any chain
  //    node k is k itself, so common_resistance == path_resistance);
  //  * total_time_constant() is the same sum without the skip (the
  //    zero-cap root adds +0.0, which no non-negative sum notices).
  Seconds td = 0.0;
  Seconds tp = 0.0;
  for (std::size_t k = 1; k <= el.size(); ++k) {
    Ohms path_r = 0.0;
    for (std::size_t a = k; a != 0; --a) path_r += el[a - 1].resistance;
    const Farads c = el[k - 1].cap;
    if (c != 0.0) td += path_r * c;
    tp += path_r * c;
  }
  t.elmore = td;
  t.tp = tp;
  return t;
}

RcTree to_rc_tree(const Stage& stage) {
  validate(stage);
  RcTree tree;
  std::size_t parent = 0;
  for (const StageElement& e : stage.elements) {
    parent = tree.add_node(parent, e.resistance, e.cap);
  }
  return tree;
}

Seconds stage_elmore(const Stage& stage) {
  return stage_totals(stage).elmore;
}

}  // namespace sldm
