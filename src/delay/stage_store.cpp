#include "delay/stage_store.h"

#include "util/contracts.h"
#include "util/error.h"

namespace sldm {

StageStore::StageId StageStore::add(const Stage& stage) {
  const StageTotals t = stage_totals(stage);
  SLDM_EXPECTS(offset_.back() + stage.elements.size() <= UINT32_MAX);

  const StageId id = static_cast<StageId>(size());
  for (const StageElement& e : stage.elements) {
    elem_type_.push_back(e.type);
    elem_r_.push_back(e.resistance);
    elem_c_.push_back(e.cap);
  }
  offset_.push_back(static_cast<std::uint32_t>(elem_r_.size()));

  output_dir_.push_back(t.output_dir);
  trigger_index_.push_back(static_cast<std::uint32_t>(stage.trigger_index));
  trigger_type_.push_back(t.trigger_type);
  total_r_.push_back(t.total_r);
  total_c_.push_back(t.total_c);
  dest_c_.push_back(t.dest_c);
  elmore_.push_back(t.elmore);
  tp_.push_back(t.tp);
  return id;
}

void StageStore::clear() {
  elem_type_.clear();
  elem_r_.clear();
  elem_c_.clear();
  offset_.assign(1, 0);
  output_dir_.clear();
  trigger_index_.clear();
  trigger_type_.clear();
  total_r_.clear();
  total_c_.clear();
  dest_c_.clear();
  elmore_.clear();
  tp_.clear();
}

void StageStore::reserve(std::size_t stages, std::size_t elements) {
  elem_type_.reserve(elements);
  elem_r_.reserve(elements);
  elem_c_.reserve(elements);
  offset_.reserve(stages + 1);
  output_dir_.reserve(stages);
  trigger_index_.reserve(stages);
  trigger_type_.reserve(stages);
  total_r_.reserve(stages);
  total_c_.reserve(stages);
  dest_c_.reserve(stages);
  elmore_.reserve(stages);
  tp_.reserve(stages);
}

void StageStore::materialize(StageId s, Seconds input_slope,
                             Stage& out) const {
  SLDM_EXPECTS(s < size());
  const std::uint32_t n = length(s);
  out.output_dir = output_dir_[s];
  out.input_slope = input_slope;
  out.trigger_index = trigger_index_[s];
  out.elements.resize(n);
  const TransistorType* types = elem_types(s);
  const Ohms* rs = elem_resistances(s);
  const Farads* cs = elem_caps(s);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.elements[i] = StageElement{types[i], rs[i], cs[i]};
  }
}

Stage StageStore::materialize(StageId s, Seconds input_slope) const {
  Stage stage;
  materialize(s, input_slope, stage);
  return stage;
}

StageStore::RawArrays StageStore::export_arrays() const {
  return RawArrays{elem_type_, elem_r_,   elem_c_, offset_,
                   output_dir_, trigger_index_, trigger_type_,
                   total_r_,   total_c_,  dest_c_, elmore_, tp_};
}

StageStore StageStore::from_arrays(RawArrays arrays) {
  if (arrays.offset.empty() || arrays.offset.front() != 0 ||
      arrays.offset.back() != arrays.elem_r.size()) {
    throw Error("stage store arrays are inconsistent: bad offset table");
  }
  const std::size_t stages = arrays.offset.size() - 1;
  const std::size_t elements = arrays.elem_r.size();
  if (arrays.elem_type.size() != elements ||
      arrays.elem_c.size() != elements) {
    throw Error("stage store arrays are inconsistent: element lengths");
  }
  if (arrays.output_dir.size() != stages ||
      arrays.trigger_index.size() != stages ||
      arrays.trigger_type.size() != stages ||
      arrays.total_r.size() != stages || arrays.total_c.size() != stages ||
      arrays.dest_c.size() != stages || arrays.elmore.size() != stages ||
      arrays.tp.size() != stages) {
    throw Error("stage store arrays are inconsistent: per-stage lengths");
  }
  for (std::size_t s = 0; s < stages; ++s) {
    if (arrays.offset[s] > arrays.offset[s + 1]) {
      throw Error("stage store arrays are inconsistent: bad offset table");
    }
    const std::uint32_t len = arrays.offset[s + 1] - arrays.offset[s];
    if (len == 0 || arrays.trigger_index[s] >= len) {
      throw Error(
          "stage store arrays are inconsistent: trigger out of window");
    }
  }
  StageStore store;
  store.elem_type_ = std::move(arrays.elem_type);
  store.elem_r_ = std::move(arrays.elem_r);
  store.elem_c_ = std::move(arrays.elem_c);
  store.offset_ = std::move(arrays.offset);
  store.output_dir_ = std::move(arrays.output_dir);
  store.trigger_index_ = std::move(arrays.trigger_index);
  store.trigger_type_ = std::move(arrays.trigger_type);
  store.total_r_ = std::move(arrays.total_r);
  store.total_c_ = std::move(arrays.total_c);
  store.dest_c_ = std::move(arrays.dest_c);
  store.elmore_ = std::move(arrays.elmore);
  store.tp_ = std::move(arrays.tp);
  return store;
}

}  // namespace sldm
