#include "timing/stage_extract.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/contracts.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace sldm {
namespace {

/// Hard cap on enumerated paths per (node, direction); prevents blowup
/// on pathological pass-transistor meshes.
constexpr std::size_t kMaxPathsPerQuery = 20000;

bool is_source_for(const Netlist& nl, const ExtractOptions& options,
                   NodeId n, Transition dir) {
  const Node& info = nl.node(n);
  if (const auto fixed = known_value(nl, options, n)) {
    // A pinned node supplies its constant value.
    return dir == Transition::kRise ? *fixed : !*fixed;
  }
  if (dir == Transition::kRise) {
    if (info.is_precharged) return true;
  }
  return options.inputs_as_sources && info.is_input;
}

/// Value sources terminate traversal: a channel path never runs through
/// a rail, a pinned node, or an input.  A precharged node terminates
/// only rise-direction searches (where it acts as the source);
/// discharge paths legitimately run through precharged nodes (e.g. a
/// Manchester carry chain).
bool blocks_traversal(const Netlist& nl, const ExtractOptions& options,
                      NodeId n, Transition dir) {
  const Node& info = nl.node(n);
  return known_value(nl, options, n).has_value() || info.is_input ||
         (info.is_precharged && dir == Transition::kRise);
}

/// Depth-first enumeration of simple channel paths dest -> source into
/// `out` (cleared first).  `device_filter` restricts which devices may
/// appear on the path.  Flow annotations are enforced: moving the
/// *search* from node n to node m means the *signal* flows m -> n, so
/// the device must allow conduction entering at m.
///
/// Uses the scratch's visited marks and stack; both are restored to
/// their empty state on return (the DFS unmarks on unwind), so one
/// scratch serves any number of sequential queries without clearing.
template <typename Filter>
void enumerate_paths(const Netlist& nl, NodeId dest, Transition dir,
                     const ExtractOptions& options, Filter device_filter,
                     ExtractScratch& scratch, PathList& out) {
  out.clear();
  scratch.visited.resize(nl.node_count(), 0);
  auto& visited = scratch.visited;
  auto& stack = scratch.stack;
  SLDM_ASSERT(stack.empty());

  auto dfs = [&](auto&& self, NodeId n) -> void {
    if (out.size() >= kMaxPathsPerQuery) return;
    visited[n.index()] = 1;
    for (DeviceId d : nl.channels_at(n)) {
      if (!device_filter(d)) continue;
      const Transistor& t = nl.device(d);
      const NodeId m = t.other_end(n);
      if (visited[m.index()]) continue;
      if (!t.flow_allows_from(m)) continue;  // signal would flow m -> n
      stack.push_back(d);
      if (is_source_for(nl, options, m, dir)) {
        // Emit in source->dest order.
        out.devices.insert(out.devices.end(), stack.rbegin(), stack.rend());
        out.offsets.push_back(
            static_cast<std::uint32_t>(out.devices.size()));
      } else if (!blocks_traversal(nl, options, m, dir) &&
                 static_cast<int>(stack.size()) < options.max_depth) {
        self(self, m);
      }
      stack.pop_back();
    }
    visited[n.index()] = 0;
  };
  dfs(dfs, dest);
}

/// The node at the source end of a source->dest path.
template <typename It>
NodeId path_source(const Netlist& nl, NodeId dest, It first, It last) {
  // Walk from dest backwards to find the far end.
  NodeId cur = dest;
  for (It it = last; it != first;) {
    cur = nl.device(*--it).other_end(cur);
  }
  return cur;
}

/// Gate transition that turns an enhancement device ON.
Transition on_gate_dir(TransistorType type) {
  return type == TransistorType::kPEnhancement ? Transition::kFall
                                               : Transition::kRise;
}

}  // namespace

std::optional<bool> known_value(const Netlist& nl,
                                const ExtractOptions& options, NodeId n) {
  const Node& info = nl.node(n);
  if (info.is_power) return true;
  if (info.is_ground) return false;
  if (const auto it = options.fixed_values.find(n);
      it != options.fixed_values.end()) {
    return it->second;
  }
  return info.fixed_value();
}

bool can_conduct(const Netlist& nl, const ExtractOptions& options,
                 DeviceId d) {
  const Transistor& t = nl.device(d);
  if (t.type == TransistorType::kNDepletion) return true;
  const auto gate = known_value(nl, options, t.gate);
  if (!gate) return true;  // the gate can move: assume the worst case
  return t.type == TransistorType::kNEnhancement ? *gate : !*gate;
}

bool can_conduct(const Netlist& nl, DeviceId d) {
  return can_conduct(nl, ExtractOptions{}, d);
}

bool always_on(const Netlist& nl, const ExtractOptions& options, DeviceId d) {
  const Transistor& t = nl.device(d);
  if (t.type == TransistorType::kNDepletion) return true;
  const auto gate = known_value(nl, options, t.gate);
  if (!gate) return false;
  return t.type == TransistorType::kNEnhancement ? *gate : !*gate;
}

bool always_on(const Netlist& nl, DeviceId d) {
  return always_on(nl, ExtractOptions{}, d);
}

void stages_to(const Netlist& nl, NodeId dest, Transition dir,
               const ExtractOptions& options, ExtractScratch& scratch,
               std::vector<TimingStage>& out) {
  const Node& dest_info = nl.node(dest);
  // Rails, pinned nodes, and inputs never switch.
  if (known_value(nl, options, dest).has_value() || dest_info.is_input) {
    return;
  }

  // --- ON-trigger stages: a transistor on the path turns on. ----------
  enumerate_paths(
      nl, dest, dir, options,
      [&](DeviceId d) { return can_conduct(nl, options, d); }, scratch,
      scratch.paths);
  const PathList& paths = scratch.paths;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const auto first = paths.devices.begin() + paths.offsets[p];
    const auto last = paths.devices.begin() + paths.offsets[p + 1];
    const NodeId src = path_source(nl, dest, first, last);
    for (auto it = first; it != last; ++it) {
      const DeviceId d = *it;
      if (always_on(nl, options, d)) continue;  // loads never trigger
      out.push_back(TimingStage{.source = src,
                                .destination = dest,
                                .output_dir = dir,
                                .path = {first, last},
                                .trigger = d,
                                .trigger_gate_dir =
                                    on_gate_dir(nl.device(d).type),
                                .trigger_is_release = false});
    }
    // A chip-input source also fires the stage with its own edge (the
    // only trigger when every path device is constant-on).
    if (nl.node(src).is_input) {
      out.push_back(TimingStage{.source = src,
                                .destination = dest,
                                .output_dir = dir,
                                .path = {first, last},
                                .trigger = *first,
                                .trigger_gate_dir = dir,
                                .trigger_is_release = false,
                                .source_triggered = true});
    }
  }

  // --- Release stages: an always-on load restores the node after the
  // opposing network shuts off (ratioed logic). -------------------------
  enumerate_paths(
      nl, dest, dir, options,
      [&](DeviceId d) { return always_on(nl, options, d); }, scratch,
      scratch.load_paths);
  const PathList& load_paths = scratch.load_paths;
  if (load_paths.size() != 0) {
    enumerate_paths(
        nl, dest, opposite(dir), options,
        [&](DeviceId d) { return can_conduct(nl, options, d); }, scratch,
        scratch.opposing);
    // Each switching device on an opposing path is a release trigger
    // (sorted and deduplicated for a deterministic emission order).
    auto& triggers = scratch.release_triggers;
    triggers.clear();
    for (DeviceId d : scratch.opposing.devices) {
      if (!always_on(nl, options, d)) triggers.push_back(d);
    }
    std::sort(triggers.begin(), triggers.end());
    triggers.erase(std::unique(triggers.begin(), triggers.end()),
                   triggers.end());
    for (std::size_t p = 0; p < load_paths.size(); ++p) {
      const auto first = load_paths.devices.begin() + load_paths.offsets[p];
      const auto last =
          load_paths.devices.begin() + load_paths.offsets[p + 1];
      const NodeId src = path_source(nl, dest, first, last);
      // Only rail-driven loads restore a level.
      if (!nl.node(src).is_power && !nl.node(src).is_ground) continue;
      for (DeviceId d : triggers) {
        out.push_back(
            TimingStage{.source = src,
                        .destination = dest,
                        .output_dir = dir,
                        .path = {first, last},
                        .trigger = d,
                        .trigger_gate_dir =
                            opposite(on_gate_dir(nl.device(d).type)),
                        .trigger_is_release = true});
      }
    }
  }
}

std::vector<TimingStage> stages_to(const Netlist& nl, NodeId dest,
                                   Transition dir,
                                   const ExtractOptions& options) {
  std::vector<TimingStage> stages;
  ExtractScratch scratch;
  stages_to(nl, dest, dir, options, scratch, stages);
  return stages;
}

std::vector<TimingStage> extract_all_stages(const Netlist& nl,
                                            const ExtractOptions& options) {
  std::vector<TimingStage> all;
  ExtractScratch scratch;
  for (NodeId n : nl.all_nodes()) {
    if (nl.channels_at(n).empty()) continue;
    for (Transition dir : {Transition::kRise, Transition::kFall}) {
      stages_to(nl, n, dir, options, scratch, all);
    }
  }
  return all;
}

std::vector<std::vector<TimingStage>> extract_components(
    const Netlist& nl, const ExtractOptions& options, const CccPartition& ccc,
    const std::vector<std::size_t>& components, int threads) {
  SLDM_EXPECTS(threads >= 1);
  // Per-component buckets; each job writes only its own slots, so no
  // synchronization is needed beyond the pool's wait() barrier.
  std::vector<std::vector<TimingStage>> buckets(components.size());

  // Group components into contiguous chunks of roughly equal device
  // weight so a few big CCCs don't serialize the tail and thousands of
  // tiny ones don't drown the queue in task overhead.
  std::size_t total_weight = 0;
  for (const std::size_t c : components) {
    total_weight += ccc.device_count(c) + 1;
  }
  const std::size_t target_chunks =
      std::max<std::size_t>(1, static_cast<std::size_t>(threads) * 8);
  const std::size_t chunk_weight =
      std::max<std::size_t>(1, total_weight / target_chunks);

  ThreadPool pool(threads);
  std::size_t begin = 0;
  while (begin < components.size()) {
    std::size_t end = begin;
    std::size_t weight = 0;
    while (end < components.size() && weight < chunk_weight) {
      weight += ccc.device_count(components[end]) + 1;
      ++end;
    }
    pool.submit([&nl, &options, &ccc, &components, &buckets, begin, end,
                 weight] {
      // The span runs on the worker thread, so the chunk is attributed
      // to the worker that actually extracted it.
      TraceSpan span("extract-chunk", "timing");
      std::size_t stages = 0;
      ExtractScratch scratch;
      for (std::size_t i = begin; i < end; ++i) {
        std::vector<TimingStage>& bucket = buckets[i];
        for (NodeId n : ccc.members(components[i])) {
          for (Transition dir : {Transition::kRise, Transition::kFall}) {
            stages_to(nl, n, dir, options, scratch, bucket);
          }
        }
        stages += bucket.size();
      }
      span.arg("components", static_cast<double>(end - begin));
      span.arg("devices", static_cast<double>(weight));
      span.arg("stages", static_cast<double>(stages));
    });
    begin = end;
  }
  pool.wait();
  return buckets;
}

PartitionedStages extract_stages_partitioned(const Netlist& nl,
                                             const ExtractOptions& options,
                                             const CccPartition& ccc,
                                             int threads) {
  SLDM_EXPECTS(threads >= 1);
  PartitionedStages out;
  out.per_ccc.assign(ccc.count(), 0);

  std::vector<std::size_t> all(ccc.count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<std::vector<TimingStage>> per_ccc =
      extract_components(nl, options, ccc, all, threads);

  // Deterministic merge: global node-id order, exactly the order the
  // sequential extract_all_stages produces.  Component members are
  // ascending and components are numbered by smallest member, but
  // component *ranges* of node ids can interleave, so merge per node.
  std::size_t total = 0;
  for (const auto& bucket : per_ccc) total += bucket.size();
  out.stages.reserve(total);
  // Position of the next unconsumed stage per component bucket.
  std::vector<std::size_t> cursor(ccc.count(), 0);
  for (NodeId n : nl.all_nodes()) {
    const std::size_t c = ccc.component_of(n);
    if (c == CccPartition::kNone) continue;
    std::vector<TimingStage>& bucket = per_ccc[c];
    std::size_t& cur = cursor[c];
    while (cur < bucket.size() && bucket[cur].destination == n) {
      out.stages.push_back(std::move(bucket[cur]));
      ++cur;
      ++out.per_ccc[c];
    }
  }
  SLDM_ENSURES(out.stages.size() == total);
  return out;
}

void make_stage(const Netlist& nl, const Tech& tech, const TimingStage& ts,
                Seconds input_slope, Stage& out) {
  SLDM_EXPECTS(!ts.path.empty());
  out.elements.clear();
  out.output_dir = ts.output_dir;
  out.input_slope = input_slope;
  out.trigger_index = 0;
  NodeId cur = ts.source;
  for (std::size_t i = 0; i < ts.path.size(); ++i) {
    const Transistor& t = nl.device(ts.path[i]);
    SLDM_EXPECTS(t.connects(cur));
    const NodeId next = t.other_end(cur);
    StageElement el;
    el.type = t.type;
    el.resistance = tech.resistance(t, ts.output_dir);
    el.cap = tech.node_capacitance(nl, next);
    out.elements.push_back(el);
    if (!ts.trigger_is_release && ts.path[i] == ts.trigger) {
      out.trigger_index = i;
    }
    cur = next;
  }
  SLDM_ENSURES(cur == ts.destination);
}

Stage make_stage(const Netlist& nl, const Tech& tech, const TimingStage& ts,
                 Seconds input_slope) {
  Stage stage;
  make_stage(nl, tech, ts, input_slope, stage);
  return stage;
}

std::string describe(const Netlist& nl, const TimingStage& ts) {
  std::ostringstream os;
  os << nl.node(ts.destination).name << ' ' << to_string(ts.output_dir)
     << " from " << nl.node(ts.source).name << " via";
  for (DeviceId d : ts.path) {
    os << ' ' << to_letter(nl.device(d).type) << '('
       << nl.node(nl.device(d).gate).name << ')';
  }
  if (ts.source_triggered) {
    os << " driven by " << nl.node(ts.source).name << ' '
       << to_string(ts.trigger_gate_dir);
  } else {
    os << (ts.trigger_is_release ? " released by " : " triggered by ")
       << nl.node(nl.device(ts.trigger).gate).name << ' '
       << to_string(ts.trigger_gate_dir);
  }
  return os.str();
}

}  // namespace sldm
