#include "design/compiled_design.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "util/contracts.h"
#include "util/error.h"
#include "util/trace.h"

namespace sldm {
namespace {

Seconds now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fnv1a_double(std::uint64_t hash, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv1a(hash, &bits, sizeof bits);
}

}  // namespace

std::uint64_t tech_fingerprint(const Tech& tech) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  hash = fnv1a(hash, tech.name().data(), tech.name().size());
  hash = fnv1a_double(hash, tech.vdd());
  for (const TransistorType t :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    const DeviceParams& p = tech.params(t);
    hash = fnv1a_double(hash, p.vt);
    hash = fnv1a_double(hash, p.kp);
    hash = fnv1a_double(hash, p.lambda);
    hash = fnv1a_double(hash, p.cox);
    hash = fnv1a_double(hash, p.cov_w);
    hash = fnv1a_double(hash, p.cj_w);
    hash = fnv1a_double(hash, p.r_up_sq);
    hash = fnv1a_double(hash, p.r_down_sq);
  }
  return hash;
}

std::uint64_t design_fingerprint(const Netlist& nl, const Tech& tech) {
  std::uint64_t hash = tech_fingerprint(tech);
  const std::uint64_t node_count = nl.node_count();
  const std::uint64_t device_count = nl.device_count();
  hash = fnv1a(hash, &node_count, sizeof node_count);
  hash = fnv1a(hash, &device_count, sizeof device_count);
  for (const NodeId id : nl.all_nodes()) {
    const Node& n = nl.node(id);
    hash = fnv1a(hash, n.name.c_str(), n.name.size());
    hash = fnv1a_double(hash, n.cap);
    const unsigned char flags =
        static_cast<unsigned char>((n.is_power ? 1u : 0u) |
                                   (n.is_ground ? 2u : 0u) |
                                   (n.is_input ? 4u : 0u) |
                                   (n.is_output ? 8u : 0u) |
                                   (n.is_precharged ? 16u : 0u));
    hash = fnv1a(hash, &flags, sizeof flags);
    hash = fnv1a(hash, &n.fixed, sizeof n.fixed);
  }
  for (const DeviceId id : nl.all_devices()) {
    const Transistor& t = nl.device(id);
    const std::uint64_t terms[4] = {
        static_cast<std::uint64_t>(t.type), t.gate.index(), t.source.index(),
        t.drain.index()};
    hash = fnv1a(hash, terms, sizeof terms);
    hash = fnv1a_double(hash, t.width);
    hash = fnv1a_double(hash, t.length);
    const unsigned char flow = static_cast<unsigned char>(t.flow);
    hash = fnv1a(hash, &flow, sizeof flow);
  }
  return hash;
}

std::shared_ptr<const CompiledDesign> CompiledDesign::compile(
    Netlist nl, Tech tech, const CompileOptions& options) {
  return compile_owned(std::move(nl), std::move(tech), options);
}

std::shared_ptr<CompiledDesign> CompiledDesign::compile_owned(
    Netlist nl, Tech tech, const CompileOptions& options) {
  auto design = std::shared_ptr<CompiledDesign>(new CompiledDesign());
  design->owned_nl_ = std::make_unique<Netlist>(std::move(nl));
  design->owned_tech_ = std::make_unique<Tech>(std::move(tech));
  design->nl_ = design->owned_nl_.get();
  design->tech_ = design->owned_tech_.get();
  design->extract_ = options.extract;
  design->build(options.threads);
  return design;
}

std::shared_ptr<CompiledDesign> CompiledDesign::build_over(
    const Netlist& nl, const Tech& tech, const CompileOptions& options) {
  auto design = std::shared_ptr<CompiledDesign>(new CompiledDesign());
  design->nl_ = &nl;
  design->tech_ = &tech;
  design->extract_ = options.extract;
  design->build(options.threads);
  return design;
}

Netlist& CompiledDesign::mutable_netlist() {
  if (!owns_netlist()) {
    throw Error(
        "mutable_netlist() on an analyzer over a borrowed netlist; "
        "mutate the caller-owned Netlist directly");
  }
  return *owned_nl_;
}

void CompiledDesign::build(int threads) {
  SLDM_EXPECTS(threads >= 1);
  TraceSpan span("extract", "timing");
  const Seconds t0 = now_seconds();
  ccc_.emplace(*nl_);
  PartitionedStages extracted =
      extract_stages_partitioned(*nl_, extract_, *ccc_, threads);
  stages_ = std::move(extracted.stages);
  per_ccc_ = std::move(extracted.per_ccc);
  span.arg("cccs", static_cast<double>(ccc_->count()));
  span.arg("stages", static_cast<double>(stages_.size()));
  span.arg("threads", static_cast<double>(threads));
  index_stages_by_trigger();
  rebuild_store();
  fingerprint_ = tech_fingerprint(*tech_);
  built_revision_ = nl_->revision();
  build_threads_ = threads;
  extract_seconds_ = now_seconds() - t0;
}

void CompiledDesign::index_stages_by_trigger() {
  stages_by_trigger_.assign(nl_->node_count() * 2,
                            std::vector<std::size_t>());
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const TimingStage& ts = stages_[s];
    const NodeId fire_node =
        ts.source_triggered ? ts.source : nl_->device(ts.trigger).gate;
    stages_by_trigger_[arrival_key(fire_node, ts.trigger_gate_dir)]
        .push_back(s);
  }
}

void CompiledDesign::rebuild_store() {
  TraceSpan span("build-store", "timing");
  store_.clear();
  std::size_t elements = 0;
  for (const TimingStage& ts : stages_) elements += ts.path.size();
  store_.reserve(stages_.size(), elements);
  Stage scratch;  // element storage reused across stages
  for (const TimingStage& ts : stages_) {
    // The slope argument is per-evaluation state, not store state: any
    // non-negative value yields the same stored elements.
    make_stage(*nl_, *tech_, ts, /*input_slope=*/0.0, scratch);
    store_.add(scratch);
  }
  span.arg("stages", static_cast<double>(store_.size()));
  span.arg("elements", static_cast<double>(store_.element_count()));
}

void CompiledDesign::recount_stages_per_ccc() {
  per_ccc_.assign(ccc_->count(), 0);
  for (const TimingStage& ts : stages_) {
    ++per_ccc_[ccc_->component_of(ts.destination)];
  }
}

CompiledDesign::EcoSplice CompiledDesign::absorb_edits(int threads) {
  const Netlist& nl = *nl_;
  const ChangeLog& log = nl.changes();
  const std::uint64_t since = built_revision_;
  CccPartition& ccc = *ccc_;
  EcoSplice out;
  std::vector<std::size_t>& dirty = out.dirty;

  // --- Partition sync: which components' stage sets may have changed.
  {
    TraceSpan sync_span("update-partition", "timing");
    dirty = ccc.update(nl, log, since);
    for (std::uint64_t i = since; i < log.revision(); ++i) {
      if (log.entry(i).kind == ChangeKind::kNodeAdded) out.grew = true;
    }
    sync_span.arg("edits", static_cast<double>(log.revision() - since));
    sync_span.arg("dirty_cccs", static_cast<double>(dirty.size()));
  }
  built_revision_ = log.revision();

  std::vector<char> node_dirty(nl.node_count(), 0);
  for (const std::size_t c : dirty) {
    for (NodeId n : ccc.members(c)) node_dirty[n.index()] = 1;
  }

  // --- Re-extract the dirty components only (same fan-out and per-
  // component stage order as a full extraction).
  std::vector<std::vector<TimingStage>> fresh;
  {
    TraceSpan extract_span("update-extract", "timing");
    fresh = extract_components(nl, extract_, ccc, dirty, threads);
    for (const auto& bucket : fresh) out.reextracted += bucket.size();
    extract_span.arg("cccs", static_cast<double>(dirty.size()));
    extract_span.arg("stages", static_cast<double>(out.reextracted));
  }

  // --- Splice: walk nodes in ascending id order (the global stage
  // order), dropping the old stages of dirty nodes and pulling in the
  // freshly extracted ones; clean nodes keep theirs.  remap[] carries
  // surviving old stage indices to their new positions so retained
  // arrivals' via_stage links stay valid.
  out.remap.assign(stages_.size(), SIZE_MAX);
  TraceSpan splice_span("update-splice", "timing");
  std::vector<TimingStage> merged;
  merged.reserve(stages_.size() + out.reextracted);
  std::vector<std::size_t> cursor(fresh.size(), 0);
  std::vector<TimingStage> old = std::move(stages_);
  std::size_t old_i = 0;
  for (NodeId n : nl.all_nodes()) {
    if (node_dirty[n.index()]) {
      while (old_i < old.size() && old[old_i].destination == n) ++old_i;
      const std::size_t c = ccc.component_of(n);
      const auto it = std::lower_bound(dirty.begin(), dirty.end(), c);
      SLDM_ASSERT(it != dirty.end() && *it == c);
      const std::size_t b = static_cast<std::size_t>(it - dirty.begin());
      std::size_t& cur = cursor[b];
      while (cur < fresh[b].size() && fresh[b][cur].destination == n) {
        // fresh is const for the workers' benefit; moving out of the
        // bucket here would be safe but reads better as an explicit
        // copy of the small TimingStage records.
        merged.push_back(fresh[b][cur]);
        ++cur;
      }
    } else {
      while (old_i < old.size() && old[old_i].destination == n) {
        out.remap[old_i] = merged.size();
        merged.push_back(std::move(old[old_i]));
        ++old_i;
        ++out.reused;
      }
    }
  }
  SLDM_ASSERT(old_i == old.size());
  stages_ = std::move(merged);

  // --- Refresh the structure-dependent indexes.  The splice renumbered
  // stages, so the SoA mirror must follow; a full rebuild keeps store
  // ids == stage indices (the invariant the propagation and explain
  // paths rely on).
  recount_stages_per_ccc();
  index_stages_by_trigger();
  rebuild_store();
  splice_span.arg("reused", static_cast<double>(out.reused));
  splice_span.arg("reextracted", static_cast<double>(out.reextracted));
  return out;
}

}  // namespace sldm
