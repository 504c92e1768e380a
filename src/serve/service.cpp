#include "serve/service.h"

#include <optional>
#include <sstream>
#include <utility>

#include "calib/models.h"
#include "design/session.h"
#include "design/snapshot.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "serve/protocol.h"
#include "timing/analyzer.h"
#include "timing/explain.h"
#include "timing/report.h"
#include "util/cancel.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/ledger.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "util/version.h"

namespace sldm {

struct TimingService::Lease::CacheEntry {
  std::shared_ptr<CompiledDesign> design;
  std::shared_ptr<const SlopeTables> tables;  ///< slope calibration, if any
  std::atomic<int> active{0};  ///< outstanding reader leases
  std::uint64_t last_used = 0;
};

namespace {

using namespace serve_errors;

std::string fingerprint_hex(std::uint64_t fp) {
  return format("%016llx", static_cast<unsigned long long>(fp));
}

std::ostream& begin_response(std::ostream& os, const ServeRequest& req,
                             const char* kind) {
  os << '{';
  if (!req.id_token.empty()) os << "\"id\":" << req.id_token << ',';
  os << "\"kind\":\"" << kind << "\",\"ok\":true";
  return os;
}

/// Exactly the cold `sldm time` stdout for this analysis, so the
/// parity check is a byte compare.
std::string report_text(const std::string& model_name, const Netlist& nl,
                        const Session& session) {
  return "model: " + model_name + "\n\n" +
         format_output_arrivals(nl, session) + "\n";
}

std::string arrivals_json(const Netlist& nl, const Session& session) {
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (NodeId n : nl.all_nodes()) {
    if (!nl.node(n).is_output) continue;
    for (const Transition dir : {Transition::kRise, Transition::kFall}) {
      const auto a = session.arrival(n, dir);
      if (!a) continue;
      if (!first) os << ',';
      first = false;
      os << "{\"node\":\"" << json_escape(nl.node(n).name.str())
         << "\",\"dir\":\"" << to_string(dir)
         << "\",\"time_s\":" << json_number(a->time)
         << ",\"slope_s\":" << json_number(a->slope) << '}';
    }
  }
  os << ']';
  return os.str();
}

void append_worst(std::ostream& os, const Netlist& nl,
                  const Session& session) {
  if (const auto w = session.worst_arrival(true)) {
    os << ",\"worst\":{\"node\":\"" << json_escape(nl.node(w->node).name.str())
       << "\",\"dir\":\"" << to_string(w->dir)
       << "\",\"time_s\":" << json_number(w->time) << '}';
  }
}

/// A ledger record for a finished serve-side analysis (same fields
/// note_analysis fills on the CLI path).
LedgerRecord session_record(const char* kind, const Session& session,
                            std::uint64_t fingerprint,
                            const std::string& model, int threads) {
  LedgerRecord r;
  r.kind = kind;
  r.version = sldm_version();
  r.outcome = "ok";
  r.detail = "serve";
  r.fingerprint = fingerprint;
  r.model = model;
  r.threads = threads;
  const AnalyzerStats& st = session.stats();
  r.extract_seconds = st.extract_seconds;
  r.propagate_seconds = st.propagate_seconds;
  r.update_seconds = st.update_seconds;
  r.stage_evaluations = st.stage_evaluations;
  if (const auto w = session.worst_arrival(true)) {
    r.has_critical = true;
    r.critical_node = session.netlist().node(w->node).name.str();
    r.critical_dir = to_string(w->dir);
    r.critical_arrival_s = w->time;
  }
  return r;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The effective deadline for one request: the request's own
/// deadline_ms when present, else the server-wide default; an inert
/// token when neither is set.
CancelToken deadline_for(const ServeRequest& req, const ServeOptions& opts) {
  const double ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : opts.default_deadline_ms;
  return ms > 0.0 ? CancelToken::deadline_after(ms * 1e-3) : CancelToken();
}

}  // namespace

// ---- Lease ---------------------------------------------------------------

TimingService::Lease::Lease(std::shared_ptr<CacheEntry> entry)
    : entry_(std::move(entry)) {}

TimingService::Lease& TimingService::Lease::operator=(Lease&& o) noexcept {
  if (this != &o) {
    release();
    entry_ = std::move(o.entry_);
  }
  return *this;
}

void TimingService::Lease::release() {
  if (!entry_) return;
  entry_->active.fetch_sub(1, std::memory_order_acq_rel);
  entry_.reset();
}

std::shared_ptr<const CompiledDesign> TimingService::Lease::design() const {
  return entry_ ? entry_->design : nullptr;
}

std::shared_ptr<const SlopeTables> TimingService::Lease::tables() const {
  return entry_ ? entry_->tables : nullptr;
}

// ---- Cache ---------------------------------------------------------------

TimingService::TimingService(ServeOptions options)
    : options_(std::move(options)) {
  if (options_.cache_capacity < 1) {
    throw Error("serve cache capacity must be >= 1");
  }
  TelemetryHub::instance().enable();
}

TimingService::Lease TimingService::lease(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(fingerprint);
  if (it == cache_.end()) {
    throw RequestError(kUnknownDesign,
                       "design '" + fingerprint +
                           "' is not loaded (load it first; it may also "
                           "have been evicted or rewritten by an eco)");
  }
  it->second->last_used = ++use_clock_;
  it->second->active.fetch_add(1, std::memory_order_acq_rel);
  return Lease(it->second);
}

void TimingService::insert_entry(const std::string& fingerprint,
                                 std::shared_ptr<Lease::CacheEntry> entry) {
  // Injected "cache.insert" refuses before any state changes, so the
  // cache is exactly as consistent as if the request never arrived (the
  // design simply is not cached; the caller's envelope says why).
  // Evaluated before taking the lock so an injected delay never holds
  // mutex_.
  failpoint("cache.insert");
  std::lock_guard<std::mutex> lock(mutex_);
  entry->last_used = ++use_clock_;
  cache_[fingerprint] = entry;
  // LRU eviction, skipping leased entries (their readers must stay
  // valid) and the entry just inserted.
  while (cache_.size() >
         static_cast<std::size_t>(options_.cache_capacity)) {
    auto victim = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second == entry) continue;
      if (it->second->active.load(std::memory_order_acquire) > 0) continue;
      if (victim == cache_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == cache_.end()) break;  // everything is leased
    // Injected "cache.evict" leaves the victim cached: the insert above
    // already happened, so the cache ends over capacity but internally
    // consistent -- every entry still resolves and leases still pin.
    failpoint("cache.evict");
    cache_.erase(victim);
  }
}

std::shared_ptr<TimingService::Lease::CacheEntry> TimingService::take_for_eco(
    const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(fingerprint);
  if (it == cache_.end()) {
    throw RequestError(kUnknownDesign,
                       "design '" + fingerprint + "' is not loaded");
  }
  if (it->second->active.load(std::memory_order_acquire) > 0) {
    throw RequestError(kEcoShared,
                       "design '" + fingerprint +
                           "' is shared by in-flight requests; an eco "
                           "needs exclusive ownership -- retry when they "
                           "drain");
  }
  auto entry = it->second;
  cache_.erase(it);
  return entry;
}

std::size_t TimingService::design_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

void TimingService::append_ledger(const LedgerRecord& record) {
  if (options_.ledger_path.empty()) return;
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  // Best-effort by design, like the CLI's LedgerScope: a failing ledger
  // append must not fail the request it describes.  It is *surfaced*,
  // though -- try_append bumps ledger.append_failures and warns once --
  // so operators see silent history loss instead of discovering it at
  // the next `sldm ledger` read.
  try_append_ledger_record(options_.ledger_path, record);
}

void TimingService::publish_service_metrics() {
  TelemetryHub& hub = TelemetryHub::instance();
  if (!hub.enabled()) return;
  MetricsRegistry reg;
  reg.counter("serve.requests")
      .set(static_cast<std::size_t>(requests_.load(std::memory_order_relaxed)));
  reg.counter("serve.errors")
      .set(static_cast<std::size_t>(errors_.load(std::memory_order_relaxed)));
  reg.counter("serve.overloaded").set(
      static_cast<std::size_t>(overloads_.load(std::memory_order_relaxed)));
  reg.gauge("serve.designs").set(static_cast<double>(design_count()));
  TelemetryLabels labels;
  labels.session = "serve";
  labels.model = "-";
  hub.publish(labels, reg);
}

// ---- Request handlers ----------------------------------------------------

struct TimingService::ServeRequestDispatch {
  static std::string load(TimingService& svc, const ServeRequest& req) {
    check_model_name(req.model);
    std::shared_ptr<CompiledDesign> design;
    std::shared_ptr<const SlopeTables> tables;
    if (ends_with(req.path, ".sldc")) {
      LoadedDesign loaded = load_design_file(req.path);
      design = std::move(loaded.design);
      if (loaded.slope_tables) {
        tables =
            std::make_shared<SlopeTables>(std::move(*loaded.slope_tables));
      }
    } else {
      Netlist nl = read_sim_file(req.path);
      Tech tech = load_tech(req.tech.empty() ? svc.options_.default_tech
                                             : req.tech);
      if (req.model == "slope") {
        // The registry's calibration, shared with the cold CLI and
        // `sldm compile`: it rewrites the tech, so skipping it here
        // would change the fingerprint and the arrivals.
        const std::shared_ptr<const CalibrationResult> cal = calibrated(tech);
        tech = cal->tech;
        tables = std::shared_ptr<const SlopeTables>(cal, &cal->tables);
      }
      design = CompiledDesign::compile_owned(std::move(nl), std::move(tech),
                                             CompileOptions{{}, req.threads});
    }

    const std::uint64_t fp =
        design_fingerprint(design->netlist(), design->tech());
    const std::string fp_hex = fingerprint_hex(fp);
    bool cached = false;
    {
      std::lock_guard<std::mutex> lock(svc.mutex_);
      const auto it = svc.cache_.find(fp_hex);
      if (it != svc.cache_.end()) {
        // Equal fingerprints mean bit-identical analyses: keep the
        // cached entry (readers may hold leases on it) and just adopt
        // the calibration tables if the earlier load lacked them.
        cached = true;
        if (!it->second->tables && tables) it->second->tables = tables;
        it->second->last_used = ++svc.use_clock_;
      }
    }
    if (!cached) {
      auto entry = std::make_shared<Lease::CacheEntry>();
      entry->design = design;
      entry->tables = tables;
      svc.insert_entry(fp_hex, entry);

      LedgerRecord r;
      r.kind = "compile";
      r.version = sldm_version();
      r.outcome = "ok";
      r.detail = "serve";
      r.source = req.path;
      r.model = req.model;
      r.threads = req.threads;
      r.fingerprint = fp;
      r.extract_seconds = design->extract_seconds();
      svc.append_ledger(r);
    }

    std::ostringstream os;
    begin_response(os, req, "load")
        << ",\"design\":\"" << fp_hex << "\",\"source\":\""
        << json_escape(req.path) << "\",\"nodes\":"
        << design->netlist().node_count()
        << ",\"devices\":" << design->netlist().device_count()
        << ",\"cccs\":" << design->components().count()
        << ",\"stages\":" << design->stages().size()
        << ",\"tables\":" << (tables ? "true" : "false")
        << ",\"cached\":" << (cached ? "true" : "false") << '}';
    return os.str();
  }

  /// Shared body of time/explain: lease, model, session, seed, run.
  struct Analysis {
    Lease lease;
    std::unique_ptr<DelayModel> model;
    std::unique_ptr<Session> session;
  };

  static Analysis run_analysis(TimingService& svc, const ServeRequest& req,
                               const char* request_label) {
    Analysis a;
    a.lease = svc.lease(req.design);
    a.model = make_model(req.model, a.lease.tables().get());
    a.session = std::make_unique<Session>(a.lease.design(), *a.model,
                                          SessionOptions{64, req.threads});
    a.session->set_telemetry_request(request_label);
    a.session->add_all_input_events(req.slope_ns * 1e-9);
    const CancelToken deadline = deadline_for(req, svc.options_);
    if (deadline.armed()) {
      // The token is a stack local and Analysis outlives this frame, so
      // the session must be detached before it escapes -- on the throw
      // path the whole Analysis (lease included) unwinds instead, which
      // is exactly the "partial state discarded, lease released"
      // contract of the deadline envelope.
      a.session->set_cancel_token(&deadline);
      try {
        a.session->run();
      } catch (...) {
        a.session->set_cancel_token(nullptr);
        throw;
      }
      a.session->set_cancel_token(nullptr);
    } else {
      a.session->run();
    }
    return a;
  }

  static std::string time(TimingService& svc, const ServeRequest& req) {
    const Analysis a = run_analysis(svc, req, "time");
    const Session& session = *a.session;
    const Netlist& nl = session.netlist();
    svc.append_ledger(session_record("run", session,
                                     parse_hex_u64(req.design).value_or(0),
                                     a.model->name(), req.threads));

    std::ostringstream os;
    begin_response(os, req, "time")
        << ",\"design\":\"" << req.design << "\",\"model\":\""
        << json_escape(a.model->name()) << "\",\"threads\":" << req.threads
        << ",\"report\":\""
        << json_escape(report_text(a.model->name(), nl, session))
        << "\",\"arrivals\":" << arrivals_json(nl, session);
    append_worst(os, nl, session);
    os << ",\"stats\":" << analyzer_stats_json(session.stats()) << '}';
    return os.str();
  }

  static std::string explain(TimingService& svc, const ServeRequest& req) {
    const Analysis a = run_analysis(svc, req, "explain");
    const Session& session = *a.session;
    const Netlist& nl = session.netlist();

    const auto node = nl.find_node(req.node);
    if (!node) {
      throw RequestError(kBadRequest, "unknown node '" + req.node + "'");
    }
    Transition dir;
    if (req.dir == "rise") {
      dir = Transition::kRise;
    } else if (req.dir == "fall") {
      dir = Transition::kFall;
    } else {
      // Default to the later (worst) arrival, like the cold CLI.
      const auto rise = session.arrival(*node, Transition::kRise);
      const auto fall = session.arrival(*node, Transition::kFall);
      if (!rise && !fall) {
        throw RequestError(kFailed,
                           "no arrival at node '" + req.node +
                               "'; it never switches under the declared "
                               "events");
      }
      dir = (!fall || (rise && rise->time >= fall->time))
                ? Transition::kRise
                : Transition::kFall;
    }
    if (!session.arrival(*node, dir)) {
      throw RequestError(kFailed, "no " + std::string(to_string(dir)) +
                                      " arrival at node '" + req.node + "'");
    }
    const ExplainReport report = explain_arrival(session, *node, dir);

    std::ostringstream os;
    begin_response(os, req, "explain")
        << ",\"design\":\"" << req.design << "\",\"model\":\""
        << json_escape(a.model->name())
        // The embedded object is byte-for-byte what cold
        // `sldm explain --json` prints (minus the newline).
        << "\",\"explain\":" << explain_json(nl, report) << '}';
    return os.str();
  }

  static std::string eco(TimingService& svc, const ServeRequest& req) {
    auto entry = svc.take_for_eco(req.design);
    const std::weak_ptr<CompiledDesign> master = entry->design;
    std::unique_ptr<DelayModel> model;
    try {
      model = make_model(req.model, entry->tables.get());
    } catch (...) {
      // A bad model name (or slope without tables) touched nothing:
      // put the design back under its fingerprint.
      svc.insert_entry(req.design, entry);
      throw;
    }
    // Declared before the analyzer so the analyzer (which borrows it)
    // dies first on every exit path.
    const CancelToken deadline = deadline_for(req, svc.options_);

    // Move the cache's owning pointer into the analyzer so use_count
    // lands at exactly facade + session: the PR 6 single-writer check
    // in update() stays armed as the backstop behind take_for_eco's
    // lease accounting.
    TimingAnalyzer analyzer(std::move(entry->design), *model,
                            AnalyzerOptions{{}, 64, req.threads});
    analyzer.session().set_telemetry_request("eco");
    analyzer.add_all_input_events(req.slope_ns * 1e-9);
    if (deadline.armed()) analyzer.set_cancel_token(&deadline);

    std::size_t applied = 0;
    try {
      // run() is inside the salvage scope: a deadline (or any failure)
      // before the script mutates anything must put the untouched
      // design back under its old fingerprint.
      analyzer.run();
      if (!req.script.empty()) {
        std::istringstream script(req.script);
        applied = apply_eco(script, analyzer.mutable_netlist(),
                            "<eco-request>");
      } else {
        applied = apply_eco_file(req.path, analyzer.mutable_netlist());
      }
      analyzer.update();
    } catch (...) {
      // A failed script may have partially mutated the netlist, in
      // which case the design is lost from the cache (re-load it).
      // But if nothing was applied yet the design is pristine --
      // salvage it under its old fingerprint.
      if (auto design = master.lock()) {
        if (design->netlist().revision() == design->built_revision()) {
          entry->design = std::move(design);
          svc.insert_entry(req.design, entry);
        }
      }
      throw;
    }

    const Session& session = analyzer.session();
    const Netlist& nl = analyzer.netlist();
    const std::uint64_t new_fp = design_fingerprint(nl, analyzer.tech());
    const std::string new_hex = fingerprint_hex(new_fp);

    LedgerRecord r =
        session_record("eco", session, new_fp, model->name(), req.threads);
    r.detail = format("serve: %zu edit(s)", applied);
    svc.append_ledger(r);

    std::ostringstream os;
    begin_response(os, req, "eco")
        << ",\"design\":\"" << new_hex << "\",\"was\":\"" << req.design
        << "\",\"applied\":" << applied << ",\"model\":\""
        << json_escape(model->name()) << "\",\"threads\":" << req.threads
        << ",\"report\":\""
        << json_escape(report_text(model->name(), nl, session))
        << "\",\"arrivals\":" << arrivals_json(nl, session);
    append_worst(os, nl, session);
    os << ",\"stats\":" << analyzer_stats_json(session.stats()) << '}';

    // Re-adopt the master pointer (the analyzer still holds it, so the
    // weak_ptr is live) and publish the rewritten design under its new
    // identity; the old fingerprint now reports unknown-design.
    entry->design = master.lock();
    svc.insert_entry(new_hex, entry);
    return os.str();
  }

  static std::string stats(TimingService& svc, const ServeRequest& req) {
    std::ostringstream os;
    begin_response(os, req, "stats")
        << ",\"designs\":" << svc.design_count()
        << ",\"requests\":" << svc.requests_handled()
        << ",\"errors\":" << svc.errors_returned()
        << ",\"overloaded\":" << svc.overloads_rejected() << ",\"telemetry\":"
        << TelemetryHub::instance().aggregate().to_json() << '}';
    return os.str();
  }

  static std::string shutdown(TimingService& svc, const ServeRequest& req) {
    svc.shutdown_.store(true, std::memory_order_release);
    std::ostringstream os;
    begin_response(os, req, "shutdown") << '}';
    return os.str();
  }
};

std::string TimingService::handle_line(const std::string& line) {
  ServeRequest req;
  try {
    req = parse_request(line);
  } catch (const RequestError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    publish_service_metrics();
    return error_response(request_id_token(line), e.name(), e.what());
  }

  std::string response;
  try {
    // Injected "serve.request": error fails the whole request with a
    // "failed" envelope before any handler state is touched; delay
    // models a slow handler (and, under a deadline, pushes the request
    // past it).
    failpoint("serve.request");
    switch (req.kind) {
      case RequestKind::kLoad:
        response = ServeRequestDispatch::load(*this, req);
        break;
      case RequestKind::kTime:
        response = ServeRequestDispatch::time(*this, req);
        break;
      case RequestKind::kExplain:
        response = ServeRequestDispatch::explain(*this, req);
        break;
      case RequestKind::kEco:
        response = ServeRequestDispatch::eco(*this, req);
        break;
      case RequestKind::kStats:
        response = ServeRequestDispatch::stats(*this, req);
        break;
      case RequestKind::kShutdown:
        response = ServeRequestDispatch::shutdown(*this, req);
        break;
    }
  } catch (const RequestError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id_token, e.name(), e.what());
  } catch (const CancelledError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id_token, kDeadline, e.what());
  } catch (const UnknownModelError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id_token, kBadRequest, e.what());
  } catch (const MissingTablesError&) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(
        req.id_token, kFailed,
        "design carries no slope calibration tables; load it with "
        "\"model\":\"slope\" (or from a slope-compiled .sldc), or request "
        "another model");
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id_token, kFailed, e.what());
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  publish_service_metrics();
  return response;
}

std::string TimingService::overload_response(const std::string& line) {
  overloads_.fetch_add(1, std::memory_order_relaxed);
  errors_.fetch_add(1, std::memory_order_relaxed);
  publish_service_metrics();
  return error_response(request_id_token(line), kOverloaded,
                        "server is at its --max-inflight admission limit; "
                        "retry after in-flight requests drain");
}

std::string TimingService::too_large_response(const std::string& line_prefix,
                                              std::size_t limit) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  requests_.fetch_add(1, std::memory_order_relaxed);
  publish_service_metrics();
  return error_response(
      request_id_token_prefix(line_prefix), kTooLarge,
      format("request line exceeds --max-line-bytes (%zu); split the "
             "request or raise the limit",
             limit));
}

}  // namespace sldm
