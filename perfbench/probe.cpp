// perfbench_probe: times one public call per engine layer on a design.
//
//   perfbench_probe --sim <f.sim> --tech nmos|cmos --node <output>
//                   --eco <f.eco> --spans <out.json> --report <out.txt>
//
// This is the benchmark's traced run (perfbench/README.md): it calls the
// layers the way the cold CLI and `sldm serve` do -- parse, calibrate,
// partition, extract, compile, snapshot, propagate, render, ECO update,
// and the service's request handler -- and records a span around every
// call (name, start, end, parent, request id).  Spans stay in memory and
// are written to --spans when the probe ends.  Every timing is the
// median over kRepeats calls; counts come from one run and must repeat
// exactly.  The "tN" figures run at as many threads as the process may
// use (its CPU affinity).  Stdout is one JSON object: {"metrics": {name: {"value",
// "unit", "samples"}}}.  --report receives the propagated report text
// (the body of a cold `sldm time` stdout) so the caller can check it
// against the reference digest.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>

#include "calib/calibrate.h"
#include "delay/slope.h"
#include "design/compiled_design.h"
#include "design/session.h"
#include "design/snapshot.h"
#include "netlist/eco_io.h"
#include "netlist/sim_io.h"
#include "serve/service.h"
#include "tech/tech.h"
#include "timing/analyzer.h"
#include "timing/ccc.h"
#include "timing/report.h"
#include "timing/stage_extract.h"
#include "util/error.h"
#include "util/json.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Calls per timed layer; each timing is their median.
constexpr int kRepeats = 5;

/// CPUs this process may run on, the thread count of the "tN" figures.
int usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// In-memory span log, written once at the end of the probe.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    int request = 0;  ///< repetition the call belongs to
  };

  int open(const std::string& name, int request) {
    spans_.push_back({name, now_us(), 0.0, stack_.empty() ? -1 : stack_.back(),
                      request});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  /// Closes span `id` (the innermost open one); returns its length in ms.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    stack_.pop_back();
    return (s.end_us - s.start_us) / 1000.0;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << sldm::json_escape(s.name)
          << "\",\"start_us\":" << sldm::json_number(s.start_us)
          << ",\"end_us\":" << sldm::json_number(s.end_us)
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}";
    }
    out << "\n]\n";
    if (!out) throw sldm::Error("cannot write spans to " + path);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

/// Times `fn` inside a span; returns milliseconds.
template <typename Fn>
double timed(const std::string& name, int request, Fn&& fn) {
  const int id = g_spans.open(name, request);
  fn();
  return g_spans.close(id);
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw sldm::Error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Times one TimingService::handle_line call (the span covers the
/// handler only), then fails on an error envelope.  Returns the response.
std::string handle(sldm::TimingService& service, const std::string& line,
                   const std::string& kind, int request,
                   std::vector<double>& ms) {
  std::string response;
  ms.push_back(timed("handle." + kind, request,
                     [&] { response = service.handle_line(line); }));
  if (sldm::parse_json(response).find("error")) {
    throw sldm::Error("serve request failed: " + response);
  }
  return response;
}

struct Args {
  std::string sim, tech = "nmos", node, eco, spans, report;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--sim") {
      a.sim = value;
    } else if (key == "--tech") {
      a.tech = value;
    } else if (key == "--node") {
      a.node = value;
    } else if (key == "--eco") {
      a.eco = value;
    } else if (key == "--spans") {
      a.spans = value;
    } else if (key == "--report") {
      a.report = value;
    } else {
      throw sldm::Error("unknown option " + key);
    }
  }
  if (a.sim.empty() || a.node.empty() || a.eco.empty() || a.spans.empty() ||
      a.report.empty() || (a.tech != "nmos" && a.tech != "cmos")) {
    throw sldm::Error(
        "usage: perfbench_probe --sim <f.sim> --tech nmos|cmos --node <n> "
        "--eco <f.eco> --spans <out> --report <out>");
  }
  return a;
}

void run(const Args& a) {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::vector<double>> samples;
  const int reps = kRepeats;
  const int threads_n = usable_cpus();
  const std::string text = read_file(a.sim);
  const std::string eco_script = read_file(a.eco);

  // --- netlist: .sim parse.
  std::optional<sldm::Netlist> nl;
  for (int r = 0; r < reps; ++r) {
    samples["netlist.parse_ms"].push_back(timed("read_sim", r, [&] {
      std::istringstream in(text);
      nl.emplace(sldm::read_sim(in, a.sim));
    }));
  }

  // --- calib: both technologies (the CLI calibrates the one in use).
  std::optional<sldm::CalibrationResult> cal;
  for (const std::string tech : {"nmos", "cmos"}) {
    const sldm::Tech base = tech == "nmos" ? sldm::nmos4() : sldm::cmos3();
    const sldm::Style style =
        tech == "nmos" ? sldm::Style::kNmos : sldm::Style::kCmos;
    for (int r = 0; r < reps; ++r) {
      std::optional<sldm::CalibrationResult> result;
      samples["calib.calibrate_ms." + tech].push_back(timed(
          "calibrate." + tech, r, [&] { result.emplace(sldm::calibrate(base, style)); }));
      if (tech == a.tech) cal = std::move(result);
    }
  }
  const sldm::Tech& tech = cal->tech;
  const sldm::SlopeModel model(cal->tables);

  // --- timing: partition and extraction, as CompiledDesign runs them.
  const sldm::ExtractOptions extract;
  for (int r = 0; r < reps; ++r) {
    std::optional<sldm::CccPartition> ccc;
    samples["timing.partition_ms"].push_back(
        timed("ccc_partition", r, [&] { ccc.emplace(*nl); }));
    samples["timing.extract_ms"].push_back(timed("extract", r, [&] {
      const auto stages = sldm::extract_stages_partitioned(*nl, extract, *ccc, 1);
      if (stages.stages.empty()) throw sldm::Error("no stages extracted");
    }));
  }

  // --- design: compile at 1 and N threads.
  std::shared_ptr<const sldm::CompiledDesign> design;
  const std::pair<const char*, int> thread_counts[] = {{"t1", 1},
                                                       {"tN", threads_n}};
  for (const auto& [suffix, threads] : thread_counts) {
    const std::string key = std::string("design.compile_ms.") + suffix;
    for (int r = 0; r < reps; ++r) {
      sldm::Netlist copy = *nl;
      sldm::CompileOptions options;
      options.threads = threads;
      samples[key].push_back(timed(key.substr(7), r, [&] {
        design = sldm::CompiledDesign::compile(std::move(copy), tech, options);
      }));
    }
  }
  const double bake = median(samples["design.compile_ms.t1"]) -
                      median(samples["timing.partition_ms"]) -
                      median(samples["timing.extract_ms"]);
  metrics["design.bake_ms"] = {bake, "ms", static_cast<std::size_t>(reps)};

  // --- design: .sldc snapshot write and read.
  std::vector<std::uint8_t> bytes;
  for (int r = 0; r < reps; ++r) {
    samples["design.snapshot_write_ms"].push_back(timed(
        "serialize_design", r,
        [&] { bytes = sldm::serialize_design(*design, &cal->tables); }));
    samples["design.snapshot_read_ms"].push_back(
        timed("deserialize_design", r, [&] {
          const sldm::LoadedDesign loaded = sldm::deserialize_design(bytes);
          if (!loaded.slope_tables) throw sldm::Error("snapshot lost tables");
        }));
  }
  metrics["design.snapshot_mb"] = {static_cast<double>(bytes.size()) / 1e6,
                                   "MB", 1};

  // --- design: propagation (Session::run) at 1 and N threads, plus the
  // report render on the 1-thread session.
  std::string report;
  for (const auto& [suffix, threads] : thread_counts) {
    const std::string key = std::string("design.propagate_ms.") + suffix;
    for (int r = 0; r < reps; ++r) {
      sldm::SessionOptions options;
      options.threads = threads;
      sldm::Session session(design, model, options);
      session.add_all_input_events(1e-9);
      samples[key].push_back(timed(key.substr(7), r, [&] { session.run(); }));
      if (key != "design.propagate_ms.t1") continue;
      samples["report.render_ms"].push_back(timed("render", r, [&] {
        report = "model: " + model.name() + "\n\n" +
                 sldm::format_output_arrivals(session.netlist(), session) +
                 '\n';
      }));
      const sldm::AnalyzerStats& stats = session.stats();
      metrics["design.stage_evaluations"] = {
          static_cast<double>(stats.stage_evaluations), "count", 1};
      metrics["design.batches"] = {static_cast<double>(stats.batches),
                                   "count", 1};
    }
  }

  // --- delay: the slope kernel over every stage of the store.
  {
    const sldm::StageStore& store = design->stage_store();
    std::vector<sldm::StageStore::StageId> ids(store.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<sldm::StageStore::StageId>(i);
    }
    const std::vector<sldm::Seconds> slopes(ids.size(), 1e-9);
    std::vector<sldm::DelayEstimate> out(ids.size());
    double checksum = 0.0;
    for (int r = 0; r < reps; ++r) {
      int iterations = 0;
      const double ms = timed("estimate_batch", r, [&] {
        const Clock::time_point end =
            Clock::now() + std::chrono::milliseconds(20);
        do {
          model.estimate_batch(store, ids, slopes, out);
          checksum += out.back().delay;
          ++iterations;
        } while (Clock::now() < end);
      });
      samples["delay.kernel_ns_per_stage"].push_back(
          ms * 1e6 / (static_cast<double>(iterations) *
                      static_cast<double>(ids.size())));
    }
    if (!(checksum > 0.0)) throw sldm::Error("kernel produced no delays");
  }

  // --- design: ECO edit + incremental update on an owned design.
  for (int r = 0; r < reps; ++r) {
    sldm::TimingAnalyzer analyzer(
        sldm::CompiledDesign::compile_owned(*nl, tech), model);
    analyzer.add_all_input_events(1e-9);
    analyzer.run();
    samples["design.eco_update_ms"].push_back(timed("eco_update", r, [&] {
      std::istringstream in(eco_script);
      sldm::apply_eco(in, analyzer.mutable_netlist(), a.eco);
      analyzer.update();
    }));
  }

  // --- serve: the request handler in-process, one fresh service per
  // repetition so the first load is a cache miss.
  const std::string load_line = "{\"kind\":\"load\",\"path\":\"" +
                                sldm::json_escape(a.sim) + "\",\"tech\":\"" +
                                a.tech + "\"}";
  for (int r = 0; r < reps; ++r) {
    sldm::TimingService service;
    const auto serve = [&](const std::string& line, const std::string& kind) {
      return handle(service, line, kind, r,
                    samples["serve.handle_ms." + kind]);
    };
    const std::string fp = sldm::parse_json(serve(load_line, "load_miss"))
                               .at("design")
                               .as_string();
    serve(load_line, "load_hit");
    // Served designs are warm: one untimed request first, as in the
    // serve_read loop.
    const std::string time_line =
        "{\"kind\":\"time\",\"design\":\"" + fp + "\"}";
    std::vector<double> warmup;
    handle(service, time_line, "warmup", r, warmup);
    // Counted without the trailing "stats" member, whose wall-clock
    // fields change length from run to run, so the size repeats exactly.
    const std::string response = serve(time_line, "time");
    const std::size_t stats = response.rfind(",\"stats\":");
    if (stats == std::string::npos) throw sldm::Error("time reply lacks stats");
    metrics["serve.response_kb.time"] = {static_cast<double>(stats + 1) / 1e3,
                                         "kB", 1};
    serve("{\"kind\":\"explain\",\"design\":\"" + fp + "\",\"node\":\"" +
              sldm::json_escape(a.node) + "\"}",
          "explain");
    serve("{\"kind\":\"eco\",\"design\":\"" + fp + "\",\"script\":\"" +
              sldm::json_escape(eco_script) + "\"}",
          "eco");
  }

  for (const auto& [name, values] : samples) {
    metrics[name] = {median(values), "ms", values.size()};
  }
  metrics["delay.kernel_ns_per_stage"].unit = "ns";
  metrics["netlist.parse_mb_s"] = {
      static_cast<double>(text.size()) / 1e3 / metrics["netlist.parse_ms"].value,
      "MB/s", static_cast<std::size_t>(reps)};

  g_spans.write(a.spans);
  std::ofstream report_out(a.report, std::ios::binary);
  report_out << report;
  if (!report_out) throw sldm::Error("cannot write " + a.report);

  std::cout << "{\"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::cout << (first ? "\n" : ",\n") << "\"" << name
              << "\": {\"value\": " << sldm::json_number(m.value)
              << ", \"unit\": \"" << m.unit << "\", \"samples\": " << m.samples
              << "}";
    first = false;
  }
  std::cout << "\n}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
