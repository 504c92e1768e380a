// Stage extraction: decomposing a switch-level netlist into the stages
// the delay models evaluate.
//
// For a destination node and transition, we enumerate the simple channel
// paths from a suitable value source to the destination (Crystal's
// path-tracing step).  Each enhancement transistor on a path is a
// potential trigger (the transistor whose gate transition opens the
// path); ratioed circuits additionally produce *release* stages, where
// an always-on load recharges the node after its opposing network turns
// off (nMOS depletion pull-ups, pseudo-nMOS p loads).
//
// Two false-path controls mirror Crystal's:
//  * transistor flow attributes (Transistor::flow) forbid traversing a
//    pass device against its annotated signal direction;
//  * fixed node values (ExtractOptions::fixed_values, Crystal's "set"
//    command) pin a node to a constant: the node acts like a rail, and
//    devices it gates are constant-on or constant-off.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "delay/stage.h"
#include "netlist/netlist.h"
#include "tech/tech.h"
#include "timing/ccc.h"

namespace sldm {

/// One stage at netlist level (device/node identities preserved).
struct TimingStage {
  NodeId source;            ///< value source the charge comes from
  NodeId destination;       ///< node being switched
  Transition output_dir;    ///< transition produced at destination
  std::vector<DeviceId> path;  ///< channel devices, source -> destination
  /// The transistor whose gate event fires this stage.  For ON-trigger
  /// stages it lies on `path`; for release stages it lies on the
  /// opposing network; for source-triggered stages it is the source-side
  /// path device (used for electrical typing only).
  DeviceId trigger;
  Transition trigger_gate_dir;  ///< gate transition that fires the stage
  bool trigger_is_release = false;
  /// True when the firing event is the *source node's own transition*
  /// (a chip input driving through a conducting pass network), not a
  /// gate: the analyzer indexes such stages by (source, output_dir).
  bool source_triggered = false;
};

/// Extraction limits and assumptions.
struct ExtractOptions {
  /// Maximum number of channel devices on a path (deep enough for the
  /// longest benchmark pass/carry chains; kMaxPathsPerQuery caps the
  /// work on dense pass-transistor meshes).
  int max_depth = 16;
  /// Treat chip inputs as value sources (they can pass either value).
  bool inputs_as_sources = true;
  /// Nodes pinned to constant logic values for this analysis.  Takes
  /// precedence over the netlist's persistent Node::fixed attribute
  /// (the `@set` .sim record), which is also honored.
  std::unordered_map<NodeId, bool> fixed_values;
};

/// The logic value of a node if it is constant under `options`
/// (rails, per-analysis fixed_values, and persistently pinned nodes),
/// nullopt otherwise.
std::optional<bool> known_value(const Netlist& nl,
                                const ExtractOptions& options, NodeId n);

/// True if the device can conduct under some gate value (i.e. it is not
/// permanently off given rails and fixed values).
bool can_conduct(const Netlist& nl, const ExtractOptions& options,
                 DeviceId d);
bool can_conduct(const Netlist& nl, DeviceId d);

/// True if the device conducts regardless of circuit activity
/// (depletion devices, devices whose gate is pinned to the enabling
/// value).
bool always_on(const Netlist& nl, const ExtractOptions& options, DeviceId d);
bool always_on(const Netlist& nl, DeviceId d);

/// Flat storage for a batch of channel paths (concatenated device
/// lists); path `i` occupies [offsets[i], offsets[i+1]) of `devices`.
/// Reused across queries so path enumeration does not allocate per path.
struct PathList {
  std::vector<DeviceId> devices;
  std::vector<std::uint32_t> offsets{0};

  void clear() {
    devices.clear();
    offsets.assign(1, 0);
  }
  std::size_t size() const { return offsets.size() - 1; }
};

/// Reusable workspace for stage extraction.  One scratch per thread;
/// queries through the same scratch must not run concurrently.  All
/// buffers grow to the high-water mark of the netlist and stay
/// allocated, which removes the per-(node, direction) allocation churn
/// of the DFS hot path.
struct ExtractScratch {
  std::vector<char> visited;        ///< per-node DFS mark (self-clearing)
  std::vector<DeviceId> stack;      ///< DFS channel stack
  PathList paths;                   ///< ON-trigger candidate paths
  PathList load_paths;              ///< always-on load paths
  PathList opposing;                ///< opposing-network paths
  std::vector<DeviceId> release_triggers;  ///< sorted, deduplicated
};

/// All stages that can drive `dest` to `dir`, including release stages
/// through always-on loads.  Appends to `out` in deterministic order.
void stages_to(const Netlist& nl, NodeId dest, Transition dir,
               const ExtractOptions& options, ExtractScratch& scratch,
               std::vector<TimingStage>& out);

/// Convenience form (allocates its own scratch).
std::vector<TimingStage> stages_to(const Netlist& nl, NodeId dest,
                                   Transition dir,
                                   const ExtractOptions& options = {});

/// All stages in the whole netlist (every non-rail, channel-connected
/// node, both directions), in ascending (node id, rise-then-fall)
/// order.
std::vector<TimingStage> extract_all_stages(
    const Netlist& nl, const ExtractOptions& options = {});

/// Result of a component-partitioned whole-netlist extraction.
struct PartitionedStages {
  /// Same contents and order as extract_all_stages (bit-identical for
  /// any thread count).
  std::vector<TimingStage> stages;
  /// Stage count per CCC of the partition used for extraction.
  std::vector<std::size_t> per_ccc;
};

/// Extracts the whole netlist by fanning the channel-connected
/// components of `ccc` out over `threads` workers (threads == 1 runs
/// inline with no pool).  Each component is an independent job with its
/// own scratch; results are merged back into global node-id order, so
/// stage indices are identical to the sequential path regardless of
/// thread count.  Precondition: threads >= 1; ccc was built from `nl`.
PartitionedStages extract_stages_partitioned(const Netlist& nl,
                                             const ExtractOptions& options,
                                             const CccPartition& ccc,
                                             int threads);

/// Extracts only the listed components, fanned out over `threads`
/// workers exactly like extract_stages_partitioned.  Returns one stage
/// bucket per entry of `components` (same order); each bucket holds the
/// component's stages in ascending (node id, rise-then-fall) order —
/// bit-identical to the corresponding slice of a whole-netlist
/// extraction.  This is the re-extraction primitive of
/// CompiledDesign::absorb_edits(): dirty components pay, clean ones
/// don't.
/// Preconditions: threads >= 1; components are valid ids of `ccc`,
/// ascending and unique.
std::vector<std::vector<TimingStage>> extract_components(
    const Netlist& nl, const ExtractOptions& options, const CccPartition& ccc,
    const std::vector<std::size_t>& components, int threads);

/// Converts a TimingStage into the electrical Stage the delay models
/// consume: per-device effective resistances for the output direction
/// and per-node lumped capacitances from `tech`.
/// For release stages the trigger element defaults to the source-side
/// driver of the path (the load device).  The result is validated where
/// it is consumed: StageStore::add, the models' estimate and
/// estimate_audited, and stage_elmore all go through stage_totals(),
/// which runs validate().
Stage make_stage(const Netlist& nl, const Tech& tech, const TimingStage& ts,
                 Seconds input_slope);

/// In-place form for hot loops: rebuilds `out` (element storage is
/// reused across calls, so a loop-local Stage avoids one allocation per
/// delay-model evaluation).
void make_stage(const Netlist& nl, const Tech& tech, const TimingStage& ts,
                Seconds input_slope, Stage& out);

/// Human-readable one-line description, for reports.
std::string describe(const Netlist& nl, const TimingStage& ts);

}  // namespace sldm
