// Tests for the `sldm serve` layer: protocol error envelopes (including
// the "deadline" and "too-large" goldens), the design cache's lease /
// single-writer-eco discipline, bounded admission in the pipe loop,
// client-disconnect survival on the TCP front end, and the headline
// concurrency guarantee -- mixed-model request streams answered
// concurrently are bit-identical to cold single-shot CLI runs (run
// under tsan by scripts/check.sh).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "tech/tech_io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/telemetry.h"

namespace sldm {
namespace {

/// TimingService enables the process hub; leave it as a fresh process
/// would have it so suites sharing the binary see no leaked snapshots.
class HubGuard {
 public:
  HubGuard() { reset(); }
  ~HubGuard() { reset(); }

 private:
  static void reset() {
    TelemetryHub::instance().disable();
    TelemetryHub::instance().clear();
  }
};

class TempFile {
 public:
  TempFile(const std::string& name, const std::string& contents)
      : path_(::testing::TempDir() + "sldm_serve_test_" + name) {
    std::ofstream out(path_);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr const char* kInverterSim =
    "e in gnd out 4 8\n"
    "d out out vdd 8 4\n"
    "@in in\n"
    "@out out\n";

constexpr const char* kChainSim =
    "e in gnd s1 4 8\n"
    "d s1 s1 vdd 8 4\n"
    "e s1 gnd out 4 8\n"
    "d out out vdd 8 4\n"
    "@in in\n"
    "@out out\n";

/// Issues a load and returns the 16-hex fingerprint from the response.
std::string load_design(TimingService& service, const std::string& path,
                        const std::string& model) {
  const std::string response = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + json_escape(path) +
      "\",\"model\":\"" + model + "\"}");
  const std::string key = "\"design\":\"";
  const auto pos = response.find(key);
  EXPECT_NE(pos, std::string::npos) << response;
  if (pos == std::string::npos) return "";
  return response.substr(pos + key.size(), 16);
}

/// Everything before the ",\"stats\":" member: the response fields that
/// must be bit-identical across runs (the stats object carries
/// wall-clock timings, which legitimately vary).
std::string deterministic_prefix(const std::string& response) {
  const auto pos = response.find(",\"stats\":");
  return pos == std::string::npos ? response : response.substr(0, pos);
}

std::string cold_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli(args, out, err), 0) << err.str();
  return out.str();
}

// --- protocol error envelopes --------------------------------------------

TEST(ServeProtocol, MalformedJsonIsParseError) {
  HubGuard guard;
  TimingService service;
  const std::string r = service.handle_line("{definitely not json");
  EXPECT_NE(r.find("\"error\":\"parse\""), std::string::npos) << r;
  EXPECT_EQ(service.errors_returned(), 1u);
  EXPECT_EQ(service.requests_handled(), 1u);
}

TEST(ServeProtocol, NonObjectAndBadIdAreStructuredErrors) {
  HubGuard guard;
  TimingService service;
  EXPECT_NE(service.handle_line("[1,2]").find("\"error\":\"parse\""),
            std::string::npos);
  EXPECT_NE(service.handle_line("{\"id\":[1],\"kind\":\"stats\"}")
                .find("\"error\":\"bad-request\""),
            std::string::npos);
}

TEST(ServeProtocol, UnknownKindEchoesTheRequestId) {
  HubGuard guard;
  TimingService service;
  const std::string r =
      service.handle_line("{\"id\":7,\"kind\":\"frobnicate\"}");
  EXPECT_NE(r.find("\"id\":7,"), std::string::npos) << r;
  EXPECT_NE(r.find("\"error\":\"unknown-kind\""), std::string::npos) << r;
}

TEST(ServeProtocol, MissingOrBadFieldsAreBadRequest) {
  HubGuard guard;
  TimingService service;
  for (const char* line : {
           "{\"kind\":\"load\"}",                          // no path
           "{\"kind\":\"time\"}",                          // no design
           "{\"kind\":\"explain\",\"design\":\"0\"}",      // no node
           "{\"kind\":\"time\",\"design\":\"0\",\"threads\":0}",
           "{\"kind\":\"time\",\"design\":\"0\",\"slope_ns\":-1}",
           "{\"kind\":\"eco\",\"design\":\"0\"}",          // script xor path
           "{\"kind\":\"eco\",\"design\":\"0\",\"script\":\"x\","
           "\"path\":\"y\"}",
       }) {
    const std::string r = service.handle_line(line);
    EXPECT_NE(r.find("\"error\":\"bad-request\""), std::string::npos)
        << line << " -> " << r;
  }
}

TEST(ServeService, UnloadedFingerprintIsUnknownDesign) {
  HubGuard guard;
  TimingService service;
  const std::string r = service.handle_line(
      "{\"id\":\"q1\",\"kind\":\"time\",\"design\":\"00000000000000aa\","
      "\"model\":\"lumped\"}");
  EXPECT_NE(r.find("\"id\":\"q1\","), std::string::npos) << r;
  EXPECT_NE(r.find("\"error\":\"unknown-design\""), std::string::npos) << r;
}

TEST(ServeService, AnalysisFailuresAreNamedNotThrown) {
  HubGuard guard;
  TimingService service;
  // Unreadable netlist path: the compile throws inside the handler and
  // must come back as a "failed" envelope.
  const std::string r = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"/nonexistent/x.sim\"}");
  EXPECT_NE(r.find("\"error\":\"failed\""), std::string::npos) << r;
  // Unknown model name is a bad request, pre-dispatch.
  TempFile sim("inv_badmodel.sim", kInverterSim);
  const std::string r2 = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + json_escape(sim.path()) +
      "\",\"model\":\"quantum\"}");
  EXPECT_NE(r2.find("\"error\":\"bad-request\""), std::string::npos) << r2;
}

// --- deadline + too-large goldens ----------------------------------------

TEST(ServeDeadline, ExpiredDeadlineIsTheNamedEnvelope) {
  HubGuard guard;
  TimingService service;
  TempFile sim("deadline_inv.sim", kInverterSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  ASSERT_EQ(fp.size(), 16u);
  // A sub-microsecond deadline has expired by the first wavefront
  // check, so the envelope is fully deterministic -- pin it whole.
  const std::string r = service.handle_line(
      "{\"id\":9,\"kind\":\"time\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"deadline_ms\":1e-6}");
  EXPECT_EQ(r,
            "{\"id\":9,\"error\":\"deadline\",\"detail\":\"deadline "
            "expired during propagate\"}");
  // The partial run was discarded and the lease released: the same
  // design still answers an undeadlined request, and an eco (which
  // needs zero outstanding leases) is not blocked.
  const std::string ok = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp + "\",\"model\":\"lumped\"}");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  const std::string eco = service.handle_line(
      "{\"kind\":\"eco\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"script\":\"addcap out 5\\n\"}");
  EXPECT_NE(eco.find("\"kind\":\"eco\",\"ok\":true"), std::string::npos)
      << eco;
}

TEST(ServeDeadline, CompletedRunIsByteIdenticalToUndeadlinedRun) {
  HubGuard guard;
  TimingService service;
  TempFile sim("deadline_chain.sim", kChainSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  const std::string without = service.handle_line(
      "{\"id\":1,\"kind\":\"time\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\"}");
  // A generous deadline never fires mid-run; the cooperative check is
  // between wavefronts only, so completion implies bit-identity.
  const std::string with = service.handle_line(
      "{\"id\":1,\"kind\":\"time\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"deadline_ms\":60000}");
  ASSERT_NE(without.find("\"ok\":true"), std::string::npos) << without;
  EXPECT_EQ(deterministic_prefix(with), deterministic_prefix(without));
}

TEST(ServeDeadline, ServerDefaultAppliesAndRequestsOverrideIt) {
  HubGuard guard;
  ServeOptions options;
  options.default_deadline_ms = 1e-6;  // every request expires instantly
  TimingService service(options);
  TempFile sim("deadline_default.sim", kInverterSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  const std::string r = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp + "\",\"model\":\"lumped\"}");
  EXPECT_NE(r.find("\"error\":\"deadline\""), std::string::npos) << r;
  // A request-level deadline wins over the server default.
  const std::string wide = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"deadline_ms\":60000}");
  EXPECT_NE(wide.find("\"ok\":true"), std::string::npos) << wide;
}

TEST(ServePipe, OversizedLineGetsTheTooLargeGolden) {
  HubGuard guard;
  TimingService service;
  std::string big = "{\"kind\":\"stats\",\"pad\":\"";
  big.append(200, 'x');
  big += "\"}";
  std::istringstream in(big + "\n{\"id\":2,\"kind\":\"shutdown\"}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.workers = 1;
  options.max_line_bytes = 64;
  EXPECT_EQ(serve_pipe(service, in, out, options), 0);
  const std::string text = out.str();
  // The oversized line's id is unrecoverable from a 64-byte prefix of
  // truncated JSON, so the golden envelope has no id member.
  EXPECT_NE(text.find("{\"error\":\"too-large\",\"detail\":\"request line "
                      "exceeds --max-line-bytes (64); split the request or "
                      "raise the limit\"}"),
            std::string::npos)
      << text;
  // Exactly one envelope per line: the oversized line and the shutdown.
  EXPECT_NE(text.find("\"id\":2,\"kind\":\"shutdown\",\"ok\":true"),
            std::string::npos)
      << text;
}

TEST(ServePipe, OversizedLineEchoesAnIdRecoverableFromItsPrefix) {
  HubGuard guard;
  TimingService service;
  std::string big = "{\"id\":41,\"kind\":\"stats\",\"pad\":\"";
  big.append(200, 'x');
  big += "\"}";
  std::istringstream in(big + "\n{\"id\":2,\"kind\":\"shutdown\"}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.workers = 1;
  options.max_line_bytes = 64;
  EXPECT_EQ(serve_pipe(service, in, out, options), 0);
  // The id member fits inside the 64-byte prefix, so the envelope
  // echoes it even though the full line never parsed.
  EXPECT_NE(out.str().find("{\"id\":41,\"error\":\"too-large\","),
            std::string::npos)
      << out.str();
}

TEST(ServeProtocol, PrefixIdRecoveryRefusesAnythingPossiblyTruncated) {
  // Complete scalar ids are recovered from truncated prefixes...
  EXPECT_EQ(request_id_token_prefix("{\"id\":41,\"kind\":\"st"), "41");
  EXPECT_EQ(request_id_token_prefix("{\"id\" : -2.5e3 ,\"pad"), "-2.5e3");
  EXPECT_EQ(request_id_token_prefix("{\"id\":\"r-7\",\"pad\":\"xx"),
            "\"r-7\"");
  // ...but a value that may itself be cut off yields no id at all.
  EXPECT_EQ(request_id_token_prefix("{\"id\":41"), "");
  EXPECT_EQ(request_id_token_prefix("{\"id\":\"r-7"), "");
  EXPECT_EQ(request_id_token_prefix("{\"id\":\"a\\"), "");
  EXPECT_EQ(request_id_token_prefix("{\"pad\":\"x\",\"i"), "");
  // A prefix that happens to parse whole still goes through the full
  // parser (object ids and such are rejected there, not echoed).
  EXPECT_EQ(request_id_token_prefix("{\"id\":7}"), "7");
}

// --- TCP: client disconnect mid-request ----------------------------------

namespace {

int connect_localhost(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

void send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

TEST(ServeTcp, ClientDisconnectMidRequestDoesNotKillTheServer) {
  HubGuard guard;
  TimingService service;
  ServeLoopOptions options;
  options.workers = 2;
  TcpServer server(service, options, 0);
  const int port = server.port();
  std::thread server_thread([&server] { EXPECT_EQ(server.run(), 0); });

  // Client 1 fires a request and slams the connection before the
  // response can be written: the worker's send hits EPIPE/ECONNRESET
  // (MSG_NOSIGNAL, so no SIGPIPE) and must simply drop the response.
  {
    const int fd = connect_localhost(port);
    send_all(fd, "{\"id\":1,\"kind\":\"stats\"}\n");
    struct linger hard = {1, 0};  // RST on close: the rudest disconnect
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);
  }

  // Client 2 proves the server is still alive and orderly, then shuts
  // it down; run() returning 0 is the survival assertion.
  {
    const int fd = connect_localhost(port);
    send_all(fd, "{\"id\":2,\"kind\":\"shutdown\"}\n");
    std::string response;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n') response += c;
    EXPECT_NE(response.find("\"kind\":\"shutdown\",\"ok\":true"),
              std::string::npos)
        << response;
    ::close(fd);
  }
  server_thread.join();
}

// --- cache + single-writer eco -------------------------------------------

TEST(ServeService, LoadCachesByFingerprintAndStatsSeeIt) {
  HubGuard guard;
  TimingService service;
  TempFile sim("inv_cache.sim", kInverterSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  ASSERT_EQ(fp.size(), 16u);
  // Re-loading the identical design hits the cache.
  const std::string again = service.handle_line(
      "{\"kind\":\"load\",\"path\":\"" + json_escape(sim.path()) +
      "\",\"model\":\"lumped\"}");
  EXPECT_NE(again.find("\"design\":\"" + fp + "\""), std::string::npos);
  EXPECT_NE(again.find("\"cached\":true"), std::string::npos) << again;
  EXPECT_EQ(service.design_count(), 1u);

  const std::string stats = service.handle_line("{\"kind\":\"stats\"}");
  EXPECT_NE(stats.find("\"designs\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"telemetry\":{"), std::string::npos) << stats;
}

TEST(ServeService, EcoRefusedWhileLeasedThenRehashesTheDesign) {
  HubGuard guard;
  TimingService service;
  TempFile sim("chain_eco.sim", kChainSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  ASSERT_EQ(fp.size(), 16u);

  const std::string eco_line =
      "{\"kind\":\"eco\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"script\":\"addcap out 5\\n\"}";
  {
    // A held lease is exactly an in-flight reader: eco must refuse.
    TimingService::Lease lease = service.lease(fp);
    const std::string r = service.handle_line(eco_line);
    EXPECT_NE(r.find("\"error\":\"eco-shared\""), std::string::npos) << r;
  }
  // Lease released: the eco applies and re-keys the design.
  const std::string r = service.handle_line(eco_line);
  EXPECT_NE(r.find("\"kind\":\"eco\",\"ok\":true"), std::string::npos) << r;
  EXPECT_NE(r.find("\"applied\":1"), std::string::npos) << r;
  EXPECT_NE(r.find("\"was\":\"" + fp + "\""), std::string::npos) << r;
  const std::string key = "\"design\":\"";
  const std::string new_fp = r.substr(r.find(key) + key.size(), 16);
  EXPECT_NE(new_fp, fp);

  // The old identity is gone; the new one serves timing requests.
  const std::string stale = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp + "\",\"model\":\"lumped\"}");
  EXPECT_NE(stale.find("\"error\":\"unknown-design\""), std::string::npos);
  const std::string fresh = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + new_fp +
      "\",\"model\":\"lumped\"}");
  EXPECT_NE(fresh.find("\"kind\":\"time\",\"ok\":true"), std::string::npos);
}

TEST(ServeService, FailedEcoScriptSalvagesThePristineDesign) {
  HubGuard guard;
  TimingService service;
  TempFile sim("chain_badeco.sim", kChainSim);
  const std::string fp = load_design(service, sim.path(), "lumped");
  const std::string r = service.handle_line(
      "{\"kind\":\"eco\",\"design\":\"" + fp +
      "\",\"model\":\"lumped\",\"script\":\"cap nosuchnode 5\\n\"}");
  EXPECT_NE(r.find("\"error\":\"failed\""), std::string::npos) << r;
  // The script failed before mutating anything, so the design is still
  // cached under its old fingerprint.
  const std::string again = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp + "\",\"model\":\"lumped\"}");
  EXPECT_NE(again.find("\"ok\":true"), std::string::npos) << again;
}

TEST(ServeService, SimLoadsCalibrateOncePerTechnology) {
  HubGuard guard;
  TimingService service;
  // nmos4 under a name no other test uses, so this process has not
  // calibrated it yet.
  Tech tech("nmos4-serve-once", nmos4().vdd());
  for (const TransistorType type :
       {TransistorType::kNEnhancement, TransistorType::kNDepletion,
        TransistorType::kPEnhancement}) {
    tech.params(type) = nmos4().params(type);
  }
  const std::string tech_path =
      ::testing::TempDir() + "sldm_serve_test_once.tech";
  write_tech_file(tech, tech_path);
  TempFile inv("once_inv.sim", kInverterSim);
  TempFile chain("once_chain.sim", kChainSim);

  const auto runs = [] {
    return snapshot_process_metrics().counter("calibrate.runs").value();
  };
  const std::uint64_t before = runs();
  std::vector<std::string> fps;
  for (const TempFile* sim : {&inv, &chain}) {
    const std::string response = service.handle_line(
        "{\"kind\":\"load\",\"path\":\"" + json_escape(sim->path()) +
        "\",\"tech\":\"" + json_escape(tech_path) + "\"}");
    ASSERT_NE(response.find("\"tables\":true"), std::string::npos)
        << response;
    const std::string key = "\"design\":\"";
    fps.push_back(response.substr(response.find(key) + key.size(), 16));
  }
  EXPECT_EQ(runs() - before, 1u);
  EXPECT_NE(fps[0], fps[1]);

  // Both designs still answer exactly like the cold CLI.
  const std::vector<const TempFile*> sims = {&inv, &chain};
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const std::string cold =
        cold_cli({"time", sims[i]->path(), "--tech", tech_path});
    const std::string served = service.handle_line(
        "{\"kind\":\"time\",\"design\":\"" + fps[i] + "\"}");
    EXPECT_NE(served.find("\"report\":\"" + json_escape(cold) + "\""),
              std::string::npos)
        << served;
  }
  std::remove(tech_path.c_str());
}

TEST(ServeService, LruEvictionSkipsLeasedDesigns) {
  HubGuard guard;
  ServeOptions options;
  options.cache_capacity = 1;
  TimingService service(options);
  TempFile a("lru_a.sim", kInverterSim);
  TempFile b("lru_b.sim", kChainSim);
  const std::string fp_a = load_design(service, a.path(), "lumped");
  {
    // While a is leased, loading b must not evict it.
    TimingService::Lease lease = service.lease(fp_a);
    const std::string fp_b = load_design(service, b.path(), "lumped");
    EXPECT_EQ(service.design_count(), 2u);
    EXPECT_NE(fp_a, fp_b);
  }
  // Unleased now: the next *insert* (a third, distinct design) evicts
  // back down to capacity.  A repeat load of a cached design is a hit
  // and triggers no eviction.
  TempFile c("lru_c.sim",
             "e in gnd out 6 8\nd out out vdd 8 4\n@in in\n@out out\n");
  const std::string fp_c = load_design(service, c.path(), "lumped");
  EXPECT_EQ(service.design_count(), 1u);
  const std::string r = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp_c +
      "\",\"model\":\"lumped\"}");
  EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
  const std::string evicted = service.handle_line(
      "{\"kind\":\"time\",\"design\":\"" + fp_a + "\",\"model\":\"lumped\"}");
  EXPECT_NE(evicted.find("\"error\":\"unknown-design\""), std::string::npos);
}

// --- pipe loop: admission + shutdown -------------------------------------

TEST(ServePipe, ShutdownStopsTheLoopBeforeRemainingLines) {
  HubGuard guard;
  TimingService service;
  std::istringstream in(
      "{\"id\":1,\"kind\":\"stats\"}\n"
      "{\"id\":2,\"kind\":\"shutdown\"}\n"
      "{\"id\":3,\"kind\":\"stats\"}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.workers = 1;  // inline execution: deterministic ordering
  EXPECT_EQ(serve_pipe(service, in, out, options), 0);
  EXPECT_TRUE(service.shutdown_requested());
  const std::string text = out.str();
  EXPECT_NE(text.find("\"id\":1,\"kind\":\"stats\""), std::string::npos);
  EXPECT_NE(text.find("\"id\":2,\"kind\":\"shutdown\",\"ok\":true"),
            std::string::npos);
  // The loop exited on the flag; request 3 was never admitted.
  EXPECT_EQ(text.find("\"id\":3"), std::string::npos) << text;
  EXPECT_EQ(service.requests_handled(), 2u);
}

TEST(ServePipe, OverloadedLinesGetStructuredRejections) {
  HubGuard guard;
  TimingService service;
  // A FIFO makes the overload deterministic: the first request's load
  // blocks opening it until this test writes the other end, and the
  // reader thread bumps the in-flight count *before* dispatching, so
  // the second line must see the service saturated.
  const std::string fifo =
      ::testing::TempDir() + "sldm_serve_test_overload.fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  std::istringstream in(
      "{\"id\":1,\"kind\":\"load\",\"path\":\"" + json_escape(fifo) +
      "\"}\n"
      "{\"id\":2,\"kind\":\"stats\"}\n");
  std::ostringstream out;
  ServeLoopOptions options;
  options.workers = 2;
  options.max_inflight = 1;
  std::thread unblock([&fifo] {
    // Opens block until the loader opens the read side; an immediate
    // EOF then fails its parse, which is fine -- envelope, not crash.
    std::ofstream writer(fifo);
  });
  EXPECT_EQ(serve_pipe(service, in, out, options), 0);
  unblock.join();
  std::remove(fifo.c_str());

  const std::string text = out.str();
  EXPECT_NE(text.find("\"id\":2,\"error\":\"overloaded\""),
            std::string::npos)
      << text;
  EXPECT_EQ(service.overloads_rejected(), 1u);
  // The blocked load eventually completed (with an in-band envelope or
  // a load failure, never a crash) and was counted.
  EXPECT_EQ(service.requests_handled(), 1u);
}

// --- the concurrency guarantee -------------------------------------------

TEST(ServeConcurrency, MixedModelStreamsMatchColdCliRunsBitIdentically) {
  HubGuard guard;
  TimingService service;
  TempFile inv("conc_inv.sim", kInverterSim);
  TempFile chain("conc_chain.sim", kChainSim);
  const std::string fp_inv = load_design(service, inv.path(), "lumped");
  const std::string fp_chain = load_design(service, chain.path(), "lumped");
  ASSERT_EQ(service.design_count(), 2u);

  // Mixed-model request stream: 2 designs x 4 models, time + explain.
  struct Case {
    std::string line;
    std::string expected;  ///< deterministic prefix, precomputed serially
  };
  std::vector<Case> cases;
  const std::vector<std::pair<std::string, std::string>> designs = {
      {fp_inv, inv.path()}, {fp_chain, chain.path()}};
  const std::vector<std::string> models = {"lumped", "rc-tree", "rph-upper",
                                           "unit"};
  int id = 0;
  for (const auto& [fp, sim_path] : designs) {
    for (const std::string& model : models) {
      cases.push_back({"{\"id\":" + std::to_string(++id) +
                           ",\"kind\":\"time\",\"design\":\"" + fp +
                           "\",\"model\":\"" + model + "\",\"threads\":2}",
                       ""});
      cases.push_back({"{\"id\":" + std::to_string(++id) +
                           ",\"kind\":\"explain\",\"design\":\"" + fp +
                           "\",\"model\":\"" + model +
                           "\",\"node\":\"out\"}",
                       ""});
    }
  }

  // Serial pass fixes the expected responses; a fresh Session per
  // request makes them independent of service history.
  for (Case& c : cases) {
    c.expected = deterministic_prefix(service.handle_line(c.line));
    ASSERT_NE(c.expected.find("\"ok\":true"), std::string::npos)
        << c.line << " -> " << c.expected;
  }

  // The serve-side report must be byte-identical to the cold CLI's
  // stdout, and the embedded explain object to `explain --json`.
  for (const auto& [fp, sim_path] : designs) {
    for (const std::string& model : models) {
      const std::string cold =
          cold_cli({"time", sim_path, "--model", model});
      const std::string want = "\"report\":\"" + json_escape(cold) + "\"";
      bool found = false;
      for (const Case& c : cases) {
        found = found || c.expected.find(want) != std::string::npos;
      }
      EXPECT_TRUE(found) << "no serve response carried the cold report "
                         << "for " << model << " over " << sim_path;
      std::string cold_explain = cold_cli(
          {"explain", sim_path, "out", "--model", model, "--json"});
      if (!cold_explain.empty() && cold_explain.back() == '\n') {
        cold_explain.pop_back();
      }
      const std::string want_explain = "\"explain\":" + cold_explain;
      found = false;
      for (const Case& c : cases) {
        found = found || c.expected.find(want_explain) != std::string::npos;
      }
      EXPECT_TRUE(found) << "no serve response embedded the cold explain "
                         << "for " << model << " over " << sim_path;
    }
  }

  // Concurrent pass: every case on its own client thread (16 threads,
  // both designs, all four models in flight at once), plus repeats.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::string> got(cases.size());
    std::vector<std::thread> clients;
    clients.reserve(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      clients.emplace_back([&service, &cases, &got, i] {
        got[i] = service.handle_line(cases[i].line);
      });
    }
    for (std::thread& t : clients) t.join();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(deterministic_prefix(got[i]), cases[i].expected)
          << "round " << round << ", case " << cases[i].line;
    }
  }
}

}  // namespace
}  // namespace sldm
