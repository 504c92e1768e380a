// A timing-analysis session: the per-query half of the analyzer.
//
// A Session attaches to a CompiledDesign and owns everything a single
// analysis needs that the design does not: the declared input events,
// the structure-of-arrays arrival store, the propagation worklist
// scratch, the thread pool for batched evaluation, and the per-session
// metrics/stats.  N sessions -- different delay models, input slopes,
// or thread counts -- run concurrently over one shared design with no
// cloning, and each produces results bit-identical to a standalone
// session over the same inputs (tests/design_test.cpp).
//
// Sessions come in two kinds, fixed by the constructor:
//   * a *reader* attaches to a shared_ptr<const CompiledDesign> and
//     never writes it; any number of readers may share one design;
//   * a *writer* compiles the design itself (over borrowed Netlist and
//     Tech references) or adopts a mutable shared_ptr<CompiledDesign>,
//     and is the design's single sanctioned writer: update() absorbs
//     netlist edits in place instead of rebuilding.
//
// ECO update (writer only): after the netlist is mutated through its
// journaled API, update() runs the structural half on the design
// (CompiledDesign::absorb_edits: partition sync, re-extraction of the
// dirty components only, splice into the global stage order, re-index,
// re-bake) and then repairs its own arrivals: only arrivals reachable
// from the damage are invalidated (frontier walk over the recorded
// predecessor keys), and re-propagation starts from the frontier
// instead of from all seeds.  Because reader sessions may be borrowing
// the design, update() refuses to run while share_design() handles are
// outstanding.  Invariant (enforced by tests/eco_timing_test.cpp): the
// session after update() is bit-identical to a freshly constructed and
// run session over the mutated netlist -- except where the slope
// model's order dependence shows (see propagate()).
//
// Propagation drains an explicit FIFO worklist with in-queue
// deduplication in *wavefronts*: each round snapshots the ready
// frontier, gathers every (stage, firing event) candidate it triggers
// into one batch, prices the whole batch through
// DelayModel::estimate_batch (fanned over the thread pool in contiguous
// chunks when threads > 1), and commits the results sequentially in
// canonical order (FIFO event order, ascending stage index per event).
// Estimates are pure per (stage, slope) and the commit order is
// thread-independent, so arrivals, predecessors, and every work counter
// are bit-identical for any SessionOptions::threads.
//
// timing/analyzer.h keeps the historical name TimingAnalyzer as an
// alias of this class.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "delay/model.h"
#include "design/compiled_design.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace sldm {

/// Reader-session configuration (the query half of AnalyzerOptions).
struct SessionOptions {
  /// Safety valve: maximum times a (node, direction) arrival may be
  /// improved before the session reports a structural loop.
  int max_updates_per_arrival = 64;
  /// Worker threads for batched wavefront evaluation (1 = fully
  /// sequential; results are bit-identical for any value).  Must be
  /// >= 1.
  int threads = 1;
};

/// Writer-session configuration: the extraction options its design is
/// compiled with plus the query options (SessionOptions).
struct AnalyzerOptions {
  ExtractOptions extract;
  /// Safety valve: maximum times a (node, direction) arrival may be
  /// improved before the session reports a structural loop.
  int max_updates_per_arrival = 64;
  /// Worker threads for stage extraction and for batched wavefront
  /// evaluation during propagation (1 = fully sequential; results are
  /// bit-identical for any value).  Must be >= 1.
  int threads = 1;
};

/// Observability counters for one session lifetime: where did the time
/// go (extraction vs propagation), and how much work did each phase do.
/// Counter fields accumulate across run()/reset() cycles; wall-clock
/// fields hold the most recent phase execution.  Structural fields
/// (component and stage counts, extract_seconds) mirror the borrowed
/// CompiledDesign.
///
/// This struct is a *view*: the session stores its work counters and
/// phase timings in plain Counter/Gauge/Histogram members (also
/// exported by name through Session::metrics(), which additionally
/// carries distribution histograms), and stats() refreshes these fields
/// from those members on each call.
struct AnalyzerStats {
  std::size_t ccc_count = 0;        ///< channel-connected components
  std::size_t widest_ccc = 0;       ///< member nodes in the largest CCC
  std::vector<std::size_t> stages_per_ccc;  ///< indexed by CCC id
  std::size_t stage_count = 0;      ///< total extracted stages
  std::size_t stage_evaluations = 0;  ///< delay-model calls during run()
  std::size_t worklist_pushes = 0;  ///< events enqueued (incl. seeds)
  std::size_t arrival_updates = 0;  ///< arrival improvements committed
  Seconds extract_seconds = 0.0;    ///< design build wall clock (0: loaded)
  Seconds propagate_seconds = 0.0;  ///< run() wall clock
  int threads = 1;                  ///< session worker count

  // Batch shape of wavefront propagation.  `batches` accumulates like
  // stage_evaluations; mean/max describe the whole session lifetime.
  std::size_t batches = 0;          ///< wavefront batches evaluated
  double mean_batch_size = 0.0;     ///< stage_evaluations / batches
  std::size_t max_batch_size = 0;   ///< largest single batch

  // Incremental (ECO) counters.  `incremental_updates` accumulates;
  // the rest describe the most recent update() call.
  std::size_t incremental_updates = 0;  ///< update() calls absorbed
  std::size_t dirty_cccs = 0;           ///< components re-extracted
  std::size_t reextracted_stages = 0;   ///< stages rebuilt by update()
  std::size_t reused_stages = 0;        ///< stages carried over untouched
  std::size_t frontier_keys = 0;        ///< (node, dir) arrivals invalidated
  Seconds update_seconds = 0.0;         ///< update() wall clock
};

/// Final arrival data at one (node, transition).
struct ArrivalInfo {
  Seconds time = 0.0;
  Seconds slope = 0.0;
  /// Predecessor event (invalid node for primary-input events).
  NodeId from_node = NodeId::invalid();
  Transition from_dir = Transition::kRise;
  /// Index into CompiledDesign::stages() of the stage that set this
  /// arrival; SIZE_MAX for primary-input events.
  std::size_t via_stage = SIZE_MAX;
};

/// One step of a reported critical path.
struct PathStep {
  NodeId node;
  Transition dir;
  Seconds time;
  Seconds slope;
  std::string description;  ///< stage description ("<- input" for seeds)
};

class Session {
 public:
  /// Reader: attaches to a shared design it never writes.  `model`
  /// must outlive the session.  Precondition: design is non-null;
  /// options.threads >= 1.
  Session(std::shared_ptr<const CompiledDesign> design,
          const DelayModel& model, SessionOptions options = {});

  /// Writer: compiles the design up-front over borrowed references
  /// (per channel-connected component, over options.threads workers).
  /// `nl`, `tech`, and `model` must outlive the session.
  Session(const Netlist& nl, const Tech& tech, const DelayModel& model,
          AnalyzerOptions options = {});

  /// Writer: adopts an already-compiled design (e.g. loaded from a
  /// .sldc snapshot) instead of compiling; options.extract is ignored
  /// in favor of the design's own extraction options.  `model` must
  /// outlive the session.  ECO edits through mutable_netlist() require
  /// the design to own its netlist (snapshot loads do).
  Session(std::shared_ptr<CompiledDesign> design, const DelayModel& model,
          AnalyzerOptions options = {});

  /// Declares a primary-input event.  Precondition: `input` is marked
  /// is_input; slope >= 0.  May be called repeatedly before run().
  /// Throws Error if run() already completed (reset() first).
  void add_input_event(NodeId input, Transition dir, Seconds time,
                       Seconds slope);

  /// Convenience: both transitions on every input at t=0 with `slope`
  /// (full worst-case analysis).  Same post-run() Error as
  /// add_input_event.
  void add_all_input_events(Seconds slope);

  /// Propagates to fixpoint.  Throws Error if a structural loop exceeds
  /// the update bound, or if run() already completed (reset() first),
  /// or if the design's netlist was mutated since the design was built
  /// (update() first).
  void run();

  /// Absorbs all netlist mutations since the design last synchronized
  /// (construction or previous update()): the design re-extracts the
  /// dirty components only, then this session invalidates the arrivals
  /// transitively reachable from the damage and re-propagates from
  /// that frontier.  Postcondition: stages, arrivals, and critical
  /// paths are bit-identical to a freshly constructed session over the
  /// mutated netlist with the same input events (and run(), if this
  /// session had run).  No-op when already in sync.  Throws Error on a
  /// reader session (it may not write the design), for edits the
  /// incremental pipeline cannot absorb (power/ground/input/precharge
  /// role changes), for timing loops exactly like construction + run()
  /// would, and when the design is shared (outstanding share_design()
  /// handles -- the immutability reader sessions rely on forbids
  /// in-place mutation).
  void update();

  /// Discards arrivals and seeds so a new set of input events can be
  /// analyzed without re-extracting stages.  Propagation counters keep
  /// accumulating.
  void reset();

  /// Arrival at (node, dir), if the node can switch that way at all.
  std::optional<ArrivalInfo> arrival(NodeId node, Transition dir) const;

  /// The latest arrival over all nodes (or only output-marked nodes).
  struct Worst {
    NodeId node;
    Transition dir;
    Seconds time;
  };
  std::optional<Worst> worst_arrival(bool outputs_only) const;

  /// The chain of events ending at (node, dir), input first.
  /// Precondition: arrival(node, dir) has a value.
  std::vector<PathStep> critical_path(NodeId node, Transition dir) const;

  /// Limits for k_worst_paths().
  struct PathQueryOptions {
    std::size_t max_explored = 200000;  ///< DFS work bound
    int max_length = 64;                ///< events per path
  };

  /// One enumerated event path (input seed first).
  struct EnumeratedPath {
    std::vector<PathStep> steps;
    Seconds arrival = 0.0;  ///< arrival of the final event
  };

  /// The k latest-arriving distinct event paths ending at (node, dir),
  /// sorted latest first -- Crystal's "show me the N worst paths".
  /// Slopes are propagated along each candidate path independently, so
  /// alternative paths get their own slope history (unlike the arrival
  /// fixpoint, which keeps only the worst predecessor).
  /// Precondition: run() has completed; k >= 1.
  std::vector<EnumeratedPath> k_worst_paths(
      NodeId node, Transition dir, std::size_t k,
      const PathQueryOptions& options) const;
  std::vector<EnumeratedPath> k_worst_paths(NodeId node, Transition dir,
                                            std::size_t k) const {
    return k_worst_paths(node, dir, k, PathQueryOptions());
  }

  /// The attached design and per-session model.
  const CompiledDesign& design() const { return *design_; }
  /// A reader handle on the design.  Additional Sessions may borrow it
  /// concurrently; while any such handle is outstanding, update()
  /// refuses to mutate the design.
  std::shared_ptr<const CompiledDesign> share_design() const {
    return design_;
  }
  const DelayModel& delay_model() const { return model_; }
  /// Conveniences forwarding to the design.
  const Netlist& netlist() const { return design_->netlist(); }
  /// The design-owned netlist, the ECO edit surface for adopted
  /// designs.  Throws Error on a reader session, and when the design
  /// borrows the caller's netlist (mutate that one instead).
  Netlist& mutable_netlist();
  const Tech& tech() const { return design_->tech(); }
  const std::vector<TimingStage>& stages() const {
    return design_->stages();
  }
  const StageStore& stage_store() const { return design_->stage_store(); }
  const CccPartition& components() const { return design_->components(); }

  /// Phase timings and work counters (see AnalyzerStats); refreshed
  /// from the metric members on each call.
  const AnalyzerStats& stats() const;

  /// The named metric registry: counters, phase-timing gauges, and
  /// distribution histograms (stage fan-in, RC path depth, sampled
  /// delay-model evaluation time, worklist queue depth, ECO frontier
  /// size).  Names are listed in FORMATS.md.  Materialized from the
  /// plain metric members on each call, so observers pay for the name
  /// table and the hot paths do not; the reference stays valid (and is
  /// re-refreshed by later calls) for the session's lifetime.
  const MetricsRegistry& metrics() const;

  /// Work counter for the Table 5 runtime comparison.
  std::size_t stage_evaluations() const {
    return static_cast<std::size_t>(ctr_stage_evaluations_.value());
  }

  /// Process-unique session id (dense, assigned at construction) --
  /// the `session` telemetry label is "s<id>".
  std::uint64_t session_id() const { return session_id_; }

  /// Publishes a labeled snapshot of metrics() into the process-wide
  /// TelemetryHub (labels: "s<id>", delay-model name, thread count,
  /// plus the request label when set).  Re-publishing replaces this
  /// session's earlier snapshot, so the hub always holds the registry's
  /// latest cumulative state.  No-op (one relaxed atomic load) while
  /// the hub is disabled; run() and update() call this at completion.
  void publish_telemetry() const;

  /// Tags this session's telemetry snapshots with a serve-traffic
  /// request kind ("time", "explain", "eco"); empty (the default)
  /// omits the label, keeping CLI-published snapshots unchanged.
  void set_telemetry_request(std::string request) {
    telemetry_request_ = std::move(request);
  }

  /// Attaches a cooperative cancellation token (deadline-aware serve),
  /// covering both run() and the re-propagation inside update().
  /// Propagation consults it once per wavefront batch and aborts with
  /// CancelledError once expired -- coarse enough that a run which
  /// *completes* is bit-identical to the same run with no token, since
  /// the token can only abort work, never reorder or reprice it.  The
  /// token is borrowed: it must outlive run()/update(), and nullptr
  /// (the default) detaches.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

 private:
  /// Flat arrival key: (node, dir) -> node * 2 + dir.
  std::size_t key(NodeId node, Transition dir) const {
    return arrival_key(node, dir);
  }

  /// Requires that run() has not completed yet (Error otherwise).
  void require_not_ran(const char* what) const;

  /// Requires that the design is in sync with its netlist (Error
  /// pointing at update() otherwise).
  void require_synced(const char* what) const;

  /// Re-censuses the trigger fan-in histogram from the design
  /// structure (construction and after ECO updates).
  void refresh_fan_in();

  /// Prices one wavefront batch through the model's batch kernel,
  /// fanning contiguous chunks over the thread pool when
  /// options_.threads > 1 and the batch is large enough to pay for the
  /// handoff.  Estimates are pure per item, so the result is identical
  /// for any thread count or chunking.
  void evaluate_batch(std::span<const StageStore::StageId> ids,
                      std::span<const Seconds> input_slopes,
                      std::span<DelayEstimate> out);

  /// Drains the worklist to fixpoint in wavefront batches.  `queued` is
  /// the in-queue deduplication mark, sized like the arrival arrays.
  void propagate(std::deque<std::uint32_t>& work, std::vector<char>& queued);

  /// The arrival half of update(), after the design absorbed the edits
  /// as `splice` reports: grows the key arrays for added nodes and, if
  /// the session has run, invalidates the damaged arrivals, remaps the
  /// retained ones onto the new stage numbering, and re-propagates from
  /// the frontier.
  void repair_arrivals(const CompiledDesign::EcoSplice& splice);

  std::shared_ptr<const CompiledDesign> design_;
  /// The same design as design_, writable: non-null only for writer
  /// sessions (the two AnalyzerOptions constructors).
  CompiledDesign* writable_ = nullptr;
  const DelayModel& model_;
  SessionOptions options_;
  /// Dense process-unique id (see session_id()).
  std::uint64_t session_id_ = 0;
  /// Lazily created pool for batched wavefront evaluation (only when
  /// options_.threads > 1).
  std::unique_ptr<ThreadPool> pool_;

  // Arrival store: structure-of-arrays keyed by key(node, dir).  The
  // hot propagation loop touches time_/slope_/valid_ only; predecessor
  // bookkeeping lives in parallel arrays instead of an optional-of-
  // struct so the inner loop stays on dense doubles.
  std::vector<Seconds> arrival_time_;
  std::vector<Seconds> arrival_slope_;
  std::vector<std::uint32_t> arrival_from_;  ///< packed key; UINT32_MAX none
  std::vector<std::size_t> arrival_via_;     ///< stage idx; SIZE_MAX seeds
  std::vector<char> arrival_valid_;

  std::vector<int> update_counts_;
  std::vector<std::uint32_t> seeds_;  ///< packed keys, insertion order
  bool ran_ = false;
  /// Telemetry `request` label; empty outside the serve layer.
  std::string telemetry_request_;
  /// Borrowed cooperative deadline; null outside deadline-aware serve.
  const CancelToken* cancel_ = nullptr;

  // Metric storage: plain members, so constructing a session and the
  // hot loops pay a field update and never a map lookup or a string
  // allocation.  metrics() materializes these into the named registry
  // below on demand.
  Counter ctr_stage_evaluations_;
  Counter ctr_worklist_pushes_;
  Counter ctr_arrival_updates_;
  Counter ctr_batches_;
  Counter ctr_incremental_updates_;
  Gauge g_propagate_seconds_;
  Gauge g_update_seconds_;
  Gauge g_dirty_cccs_;
  Gauge g_reextracted_stages_;
  Gauge g_reused_stages_;
  Gauge g_frontier_keys_;
  Gauge g_max_batch_size_;
  Histogram h_fan_in_{0.0, 64.0, 16};
  Histogram h_batch_size_{0.0, 4096.0, 16};
  Histogram h_rc_depth_{0.0, 16.0, 16};
  Histogram h_eval_us_{0.0, 50.0, 20};
  Histogram h_queue_depth_{0.0, 4096.0, 16};
  Histogram h_frontier_{0.0, 2048.0, 16};

  /// Named export refreshed from the members above by metrics().
  mutable MetricsRegistry metrics_;

  /// View refreshed from the metric members by stats().
  mutable AnalyzerStats stats_;
};

}  // namespace sldm
