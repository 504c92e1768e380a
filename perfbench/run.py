#!/usr/bin/env python3
"""End-to-end benchmark of the `sldm` switch-level timing analyzer.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli|serve_read|serve_write \
        --seed N --seconds S --trace 0|1

It builds `sldm` and two helper programs from source into `.bench_build/`
(perfbench/CMakeLists.txt), generates the workload's inputs from the seed,
drives the real binary the way users do -- CLI child processes one at a
time, or `sldm serve --tcp 0` with a closed-loop client in this process --
checks every answer against digests that the parent commit's `sldm`
produced (perfbench/reference.json), and prints one JSON result as the
last line of stdout.  `--trace 0` measures the end-to-end metrics; `--trace
1` measures the per-layer metrics (perfbench_probe plus client-side spans).
Any wrong answer makes the run exit 1.

Maintenance modes:

    python3 perfbench/run.py --self-test [--seed N]
        shows that a perturbed reference digest is caught (exit 0 = the
        check works).
    python3 perfbench/run.py --write-reference --sldm <parent's sldm>
        regenerates perfbench/reference.json with the given binary.

perfbench/README.md documents the workloads, metrics and baseline.
"""

import argparse
import concurrent.futures
import contextlib
import copy
import glob
import hashlib
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
REFERENCE = BENCH_DIR / "reference.json"

# The reference table holds the parent program's digests for this many
# input seeds; --seed N runs on input seed N % REF_SEEDS.
REF_SEEDS = 64
# Set-up is repeated and its median reported: one calibration varies by
# up to 2x between runs (README.md, "Steadiness").
SETUP_REPS = 9
ECO_CHAINS = 3  # distinct edit chains per serve_write connection
ECO_STEPS = 3  # edits per chain, each followed by a `time`
EXPLAIN_NODES = 3  # explain targets per serve_read design
EXPLAIN_SHARE = 0.2  # serve_read mix: 4 time : 1 explain
# The server's peak RSS is read once this many requests into the loop, so
# it does not grow with throughput (README.md, "Measured facts").
RSS_AFTER_REQUESTS = 400
# --write-reference fails if fewer chain states than this share move the
# report away from the state before them.
MIN_MOVED_SHARE = 0.9
TARGETS = ["sldm_tool", "perfbench_gen", "perfbench_probe"]

class BenchError(Exception):
    """A failure that stops the run without a result (build, set-up)."""


# --- small helpers ---------------------------------------------------------

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def json_digest(obj):
    """Digest of a JSON value independent of member order and spacing."""
    return digest(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def nproc():
    return len(os.sched_getaffinity(0))


def connection_plan():
    """Client connections and server workers, kept within nproc together."""
    cpus = nproc()
    conns = 2 if cpus >= 4 else 1
    workers = max(1, min(2, cpus - conns))
    return conns, workers


# --- build -----------------------------------------------------------------

class Tools:
    def __init__(self, build_dir):
        self.build_dir = build_dir
        self.sldm = str(build_dir / "sldm" / "examples" / "sldm")
        self.gen = str(build_dir / "perfbench_gen")
        self.probe = str(build_dir / "perfbench_probe")


def build():
    """Configures (once) and builds the binaries; raises BenchError."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    jobs = str(min(nproc(), 4))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target"] + TARGETS)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed (%s); see %s"
                                 % (" ".join(cmd[:2]), log_path))
    return Tools(BUILD_DIR)


def build_info(tools):
    """Build type, compiler and source identity for the run record."""
    info = {"build_type": "unknown", "compiler": "unknown"}
    cache = tools.build_dir / "CMakeCache.txt"
    if cache.exists():
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
        if m:
            info["build_type"] = m.group(1)
    for path in glob.glob(str(tools.build_dir / "CMakeFiles" / "*" /
                              "CMakeCXXCompiler.cmake")):
        text = Path(path).read_text()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and ver:
            info["compiler"] = ident.group(1) + " " + ver.group(1)
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    info["git_revision"] = (rev.stdout.strip() if rev.returncode == 0
                            else "unknown (not a git checkout)")
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    info["source_digest"] = h.hexdigest()[:16]
    return info


# --- inputs ----------------------------------------------------------------

class Design:
    """One generated (or committed) netlist the workloads run on."""

    def __init__(self, label, sim, tech, size):
        self.label = label  # key in the reference table
        self.sim = str(sim)
        self.tech = tech
        self.size = size  # "small" | "large"
        self.sldc = str(sim)[:-4] + ".sldc"
        self.outputs = []
        self.devices = []  # (gate, src, drn, width)
        self.fingerprint = None

    def tech_args(self):
        return ["--tech", self.tech] if self.tech != "nmos" else []

    def read_structure(self):
        for line in Path(self.sim).read_text().splitlines():
            f = line.split()
            if not f:
                continue
            if f[0] == "@out":
                self.outputs.extend(f[1:])
            elif f[0] in ("e", "n", "d", "p") and len(f) >= 6:
                self.devices.append((f[1], f[2], f[3], float(f[5])))

    def explain_nodes(self, input_seed):
        rng = random.Random(7000 + input_seed)
        return rng.sample(sorted(self.outputs), EXPLAIN_NODES)

    def eco_chain(self, rng, out_rng):
        """ECO_STEPS two-line edit scripts.

        Each step edits the interior (a channel width or a gate node's cap
        anywhere in the design, drawn from `rng`) and one reported output
        not edited before in the chain (its cap, or the width of a device
        that drives it, drawn from `out_rng`).  The output edit makes every
        step move the report, so a skipped or partial update shows.
        """
        gates = sorted({d[0] for d in self.devices if d[0].startswith("g")})
        steps = []
        for out in out_rng.sample(sorted(self.outputs), ECO_STEPS):
            if rng.random() < 0.5:
                gate, src, drn, width = rng.choice(self.devices)
                scale = rng.choice([0.5, 0.75, 1.5, 2.0])
                edit = "width %s %s %s %g\n" % (gate, src, drn, width * scale)
            else:
                edit = "cap %s %d\n" % (rng.choice(gates),
                                        rng.choice([5, 10, 20, 40]))
            if out_rng.random() < 0.5:
                edit += "cap %s %d\n" % (out, out_rng.choice([20, 40, 80]))
            else:
                gate, src, drn, width = out_rng.choice(
                    [d for d in self.devices if out in (d[1], d[2])])
                edit += "width %s %s %s %g\n" % (
                    gate, src, drn, width * out_rng.choice([0.25, 4.0]))
            steps.append(edit)
        return steps


# The designs each workload runs on (labels of make_designs).
WORKLOAD_DESIGNS = {
    "cli": ["dp", "b6", "l12", "l48"],
    "serve_read": ["l24", "l48"],
    "serve_write": ["w0", "w1"],
}


def make_designs(tools, labels, input_seed, workdir):
    """Writes the .sim inputs for `labels`; returns {label: Design}."""
    s = input_seed
    spec = {  # label: (generator args, tech, size class)
        "b6": (["barrel", "nmos", "6"], "nmos", "small"),
        "l12": (["random", "cmos", "12", "24", str(1000 + s)], "cmos", "small"),
        "l48": (["random", "cmos", "48", "128", str(2000 + s)], "cmos",
                "large"),
        "l24": (["random", "cmos", "24", "64", str(3000 + s)], "cmos", "large"),
        "w0": (["random", "cmos", "12", "24", str(4000 + 2 * s)], "cmos",
               "small"),
        "w1": (["random", "cmos", "12", "24", str(4001 + 2 * s)], "cmos",
               "small"),
    }
    designs = {}
    for label in labels:
        sim = Path(workdir) / (label + ".sim")
        if label == "dp":
            shutil.copyfile(ROOT / "testdata" / "sample_datapath.sim", sim)
            designs[label] = Design(label, sim, "nmos", "small")
        else:
            args, tech, size = spec[label]
            subprocess.run([tools.gen, str(sim)] + args, check=True)
            designs[label] = Design(label, sim, tech, size)
        designs[label].read_structure()
    return designs


def eco_chains(design, input_seed, conn):
    rng = random.Random(5000 + 2 * input_seed + conn)
    out_rng = random.Random(9000 + 2 * input_seed + conn)
    return [design.eco_chain(rng, out_rng) for _ in range(ECO_CHAINS)]


# --- correctness -----------------------------------------------------------

class Checker:
    """Compares answers with the parent program's digests.

    A label missing from the reference is a failure, never a skip, and
    a run that made no checks is not correct: the check cannot pass
    vacuously.
    """

    def __init__(self, expected):
        self.expected = expected
        self.lock = threading.Lock()
        self.checks = 0
        self.unchecked = 0  # operations that failed before a comparison
        self.failures = []

    def check(self, label, got, *wants):
        """Compares `got` with the reference, or with any of `wants`."""
        wants = wants or (self.expected.get(label),)
        with self.lock:
            self.checks += 1
            if got not in wants:
                self.failures.append("%s: got %s, want %s"
                                     % (label, got, " or ".join(map(str, wants))))

    def fail(self, what):
        with self.lock:
            self.unchecked += 1
            self.failures.append(what)

    def attempted(self):
        return self.checks + self.unchecked


def load_reference(input_seed):
    ref = json.loads(REFERENCE.read_text())
    if ref.get("seeds_covered") != REF_SEEDS:
        raise BenchError("reference.json covers %s seeds, run.py expects %d"
                         % (ref.get("seeds_covered"), REF_SEEDS))
    expected = dict(ref["fixed"])
    expected.update(ref["seeds"][str(input_seed)])
    return expected


# --- tracing ---------------------------------------------------------------

class Tracer:
    """Client-side spans (name, start, end, parent, request id) in memory."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans = []
        self.local = threading.local()
        self.lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name, request):
        if not self.enabled:
            yield
            return
        stack = self.local.__dict__.setdefault("stack", [])
        record = {"name": name, "request": request,
                  "parent": stack[-1]["id"] if stack else None,
                  "tid": threading.get_ident() % 100000,
                  "start": time.perf_counter() - self.origin}
        with self.lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            stack.pop()
            record["end"] = time.perf_counter() - self.origin

    def chrome_events(self, pid, spans=None):
        events = []
        for s in (self.spans if spans is None else spans):
            events.append({"name": s["name"], "ph": "X", "pid": pid,
                           "tid": s.get("tid", 0),
                           "ts": s["start"] * 1e6,
                           "dur": (s["end"] - s["start"]) * 1e6,
                           "args": {"request": s["request"],
                                    "parent": s["parent"]}})
        return events


# --- child processes -------------------------------------------------------

def run_child(argv, errfile):
    """Runs one CLI child; returns (stdout text, exit code, wall ms, rss MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=errfile)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return out.decode(), p.returncode, wall_ms, usage.ru_maxrss / 1024.0


class Server:
    """One `sldm serve --tcp 0` process, always stopped by stop()."""

    def __init__(self, tools, workers, workdir):
        self.stderr_path = Path(workdir) / ("serve-%d.err" % time.monotonic_ns())
        self.err = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            [tools.sldm, "serve", "--tcp", "0", "--workers", str(workers)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.err)
        deadline = time.monotonic() + 20
        self.port = None
        while self.port is None:
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)",
                          self.stderr_path.read_text())
            if m:
                self.port = int(m.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("sldm serve did not start: "
                                 + self.stderr_path.read_text()[-500:])
            else:
                time.sleep(0.001)

    def connect(self, tracer):
        return Connection(self.port, tracer)

    def peak_rss_mb(self):
        status = Path("/proc/%d/status" % self.proc.pid).read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def stop(self):
        if self.proc.poll() is None and self.port is not None:
            try:
                with contextlib.closing(Connection(self.port, None)) as c:
                    c.sock.sendall(b'{"kind":"shutdown"}\n')
                    c.file.readline()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.err.close()


class Connection:
    """A closed-loop client connection: one request in flight at a time."""

    def __init__(self, port, tracer):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.file = self.sock.makefile("rb")
        self.tracer = tracer or Tracer(False)
        self.next_id = 0

    def request(self, obj, request_id):
        """Sends one request; returns (response object, latency ms)."""
        self.next_id += 1
        obj = dict(obj, id=self.next_id)
        line = (json.dumps(obj) + "\n").encode()
        with self.tracer.span(obj["kind"], request_id):
            t0 = time.perf_counter()
            with self.tracer.span("send", request_id):
                self.sock.sendall(line)
            with self.tracer.span("wait", request_id):
                raw = self.file.readline()
            latency_ms = (time.perf_counter() - t0) * 1e3
            if not raw:
                raise ConnectionError("server closed the connection")
            with self.tracer.span("parse", request_id):
                response = json.loads(raw)
        if response.get("id") != self.next_id:
            raise ConnectionError("response id mismatch")
        return response, latency_ms

    def close(self):
        self.file.close()
        self.sock.close()


# --- workloads -------------------------------------------------------------

class Samples:
    """Latencies by request kind, plus the loop's wall and CPU time."""

    def __init__(self):
        self.by_kind = {}
        self.lock = threading.Lock()
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def add(self, kind, ms):
        with self.lock:
            self.by_kind.setdefault(kind, []).append(ms)

    def all(self):
        return [x for v in self.by_kind.values() for x in v]


def run_loop(body, conns, seconds):
    """Runs body(conn_index, deadline) on `conns` threads (closed loop)."""
    deadline = time.monotonic() + seconds
    errors = []

    def guarded(i):
        try:
            body(i, deadline)
        except Exception as e:  # recorded as a failure, never swallowed
            errors.append("connection %d: %r" % (i, e))

    t0, c0 = time.perf_counter(), time.process_time()
    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, time.process_time() - c0, errors


class CliWorkload:
    """Cold `sldm time <f.sim>` and warm `sldm time --load <f.sldc>` runs."""

    name = "cli"
    principal = "l48"

    def __init__(self, tools, designs, checker, workdir, _input_seed):
        self.tools, self.designs, self.checker = tools, designs, checker
        self.errfile = open(Path(workdir) / "cli.err", "w")
        self.peak_rss = 0.0

    def setup_once(self):
        t0 = time.perf_counter()
        for d in self.designs.values():
            _, code, _, _ = run_child(
                [self.tools.sldm, "compile", d.sim, "-o", d.sldc]
                + d.tech_args(), self.errfile)
            if code != 0:
                raise BenchError("sldm compile %s failed" % d.sim)
        return time.perf_counter() - t0

    def loop(self, seconds, tracer, samples):
        # Cold runs of every design, warm runs of the large one.  Sorted,
        # a cycle is 3 small cold runs, then the large warm and cold runs,
        # so p50 falls inside the slowest small design's runs and p90
        # inside the large cold runs, never on the edge between two kinds
        # (README.md, "Steadiness").
        designs = list(self.designs.values())
        cycle = ([(d, "cold") for d in designs]
                 + [(d, "warm") for d in designs if d.size == "large"])
        n = 0

        def body(_, deadline):
            nonlocal n
            while time.monotonic() < deadline:
                for d, mode in cycle:
                    n += 1
                    argv = ([self.tools.sldm, "time", d.sim] + d.tech_args()
                            if mode == "cold" else
                            [self.tools.sldm, "time", "--load", d.sldc])
                    kind = "%s_%s" % (mode, d.size)
                    with tracer.span(kind, n):
                        with tracer.span("spawn_wait", n):
                            out, code, ms, rss = run_child(argv, self.errfile)
                        with tracer.span("check", n):
                            self.peak_rss = max(self.peak_rss, rss)
                            if code != 0:
                                self.checker.fail("%s exit %d" % (argv, code))
                            else:
                                self.checker.check("time:" + d.label,
                                                   digest(out))
                    samples.add(kind, ms)

        return run_loop(body, 1, seconds)

    def verify(self):
        pass

    def close(self):
        self.errfile.close()


class ServeWorkload:
    """Shared server plumbing for serve_read and serve_write."""

    def __init__(self, tools, designs, checker, workdir):
        self.tools, self.designs, self.checker = tools, designs, checker
        self.workdir = workdir
        self.conns, self.workers = connection_plan()
        self.server = None
        self.lock = threading.Lock()
        self.served = 0  # requests answered by the current server
        self.peak_rss = None  # MB, read RSS_AFTER_REQUESTS into the loop
        self.peak_rss_end = None  # MB, read when the server stops
        self.wire_ms = []  # per `time` request: latency - server propagation

    def add(self, samples, kind, ms, response):
        """Records one request's latency.  Reads the server's peak RSS after
        the first RSS_AFTER_REQUESTS requests; for `time` requests, keeps the
        latency outside the propagation the server reports in `stats`."""
        samples.add(kind, ms)
        propagate_s = response.get("stats", {}).get("propagate_seconds")
        with self.lock:
            self.served += 1
            if self.served == RSS_AFTER_REQUESTS:
                self.peak_rss = self.server.peak_rss_mb()
            if kind == "time" and propagate_s is not None:
                self.wire_ms.append(ms - propagate_s * 1e3)

    def setup_once(self):
        if self.server is not None:
            self.server.stop()
        self.served = 0
        t0 = time.perf_counter()
        self.server = Server(self.tools, self.workers, self.workdir)
        with contextlib.closing(self.server.connect(None)) as c:
            for d in self.designs.values():
                r, _ = c.request({"kind": "load", "path": d.sim,
                                  "tech": d.tech}, 0)
                if not r.get("ok"):
                    raise BenchError("load %s failed: %s" % (d.sim, r))
                d.fingerprint = r["design"]
        return time.perf_counter() - t0

    def verify(self):
        pass

    def close(self):
        if self.server is not None:
            self.peak_rss_end = self.server.peak_rss_mb()
            if self.peak_rss is None:  # a run shorter than the sample point
                self.peak_rss = self.peak_rss_end
            self.server.stop()
            self.server = None


class ServeReadWorkload(ServeWorkload):
    """A seeded 4:1 mix of `time` and `explain` on two cached designs."""

    name = "serve_read"
    principal = "l48"

    def __init__(self, tools, designs, checker, workdir, input_seed):
        super().__init__(tools, designs, checker, workdir)
        self.input_seed = input_seed
        self.nodes = {d.label: d.explain_nodes(input_seed)
                      for d in designs.values()}

    def loop(self, seconds, tracer, samples):
        designs = list(self.designs.values())
        self.wire_ms = []

        def body(i, deadline):
            rng = random.Random(8000 + 2 * self.input_seed + i)
            with contextlib.closing(self.server.connect(tracer)) as c:
                n = 0
                while time.monotonic() < deadline:
                    n += 1
                    d = rng.choice(designs)
                    rid = "c%d-%d" % (i, n)
                    if rng.random() < EXPLAIN_SHARE:
                        node = rng.choice(self.nodes[d.label])
                        r, ms = c.request({"kind": "explain", "node": node,
                                           "design": d.fingerprint}, rid)
                        with tracer.span("check", rid):
                            self.checker.check(
                                "explain:%s:%s" % (d.label, node),
                                json_digest(r.get("explain")))
                        self.add(samples, "explain", ms, r)
                    else:
                        r, ms = c.request({"kind": "time",
                                           "design": d.fingerprint}, rid)
                        with tracer.span("check", rid):
                            self.checker.check("time:" + d.label,
                                               digest(r.get("report", "")))
                        self.add(samples, "time", ms, r)

        return run_loop(body, self.conns, seconds)


class ServeWriteWorkload(ServeWorkload):
    """Per connection: `load`, then a chain of `eco` edits, each + `time`."""

    name = "serve_write"
    principal = "w0"

    def __init__(self, tools, designs, checker, workdir, input_seed):
        super().__init__(tools, designs, checker, workdir)
        self.input_seed = input_seed
        self.chains = {d.label: eco_chains(d, input_seed, k)
                       for k, d in enumerate(designs.values())}
        self.final = {}  # (design label, chain, steps) -> last report digest

    def loop(self, seconds, tracer, samples):
        designs = list(self.designs.values())
        self.wire_ms = []
        e = self.checker.expected

        def body(i, deadline):
            d = designs[i]  # connections never share a design
            rng = random.Random(8500 + 2 * self.input_seed + i)
            with contextlib.closing(self.server.connect(tracer)) as c:
                cycle = 0
                while time.monotonic() < deadline:
                    k = cycle % ECO_CHAINS
                    # A seeded chain length keeps the two connections'
                    # equal cycles from locking into step, which made
                    # `load` collide in some runs and not in others
                    # (README.md, "Steadiness").
                    steps = rng.randint(1, ECO_STEPS)
                    rid = "c%d-%d" % (i, cycle)
                    cycle += 1
                    r, ms = c.request({"kind": "load", "path": d.sim,
                                       "tech": d.tech}, rid)
                    self.add(samples, "load", ms, r)
                    with tracer.span("check", rid):
                        self.checker.check("load:" + d.label,
                                           r.get("design"), d.fingerprint)
                    fp = d.fingerprint
                    got = None
                    for step, edit in enumerate(
                            self.chains[d.label][k][:steps]):
                        state = "%s:k%d:s%d" % (d.label, k, step)
                        r, ms = c.request({"kind": "eco", "design": fp,
                                           "script": edit}, rid)
                        self.add(samples, "eco", ms, r)
                        fp = r.get("design")
                        # The eco reply must equal the rebuild; at a known
                        # defect state the parent's own reply passes too.
                        with tracer.span("check", rid):
                            self.checker.check(
                                "eco:" + state, digest(r.get("report", "")),
                                e.get("time:" + state), e.get("eco:" + state))
                        r, ms = c.request({"kind": "time", "design": fp}, rid)
                        self.add(samples, "time", ms, r)
                        got = digest(r.get("report", ""))
                        with tracer.span("check", rid):
                            self.checker.check("time:" + state, got)
                    self.final[(d.label, k, steps)] = got

        return run_loop(body, self.conns, seconds)

    def verify(self):
        """ECO update = rebuild: each chain's served report equals a cold
        `sldm time` of the netlist `sldm eco --write` produces."""
        with open(Path(self.workdir) / "verify.err", "w") as err:
            for (label, k, steps), served in sorted(self.final.items()):
                d = self.designs[label]
                base = Path(self.workdir) / ("%s-k%d-s%d" % (label, k, steps))
                Path(str(base) + ".eco").write_text(
                    "".join(self.chains[label][k][:steps]))
                _, code, _, _ = run_child(
                    [self.tools.sldm, "eco", d.sim, str(base) + ".eco",
                     "--write", str(base) + ".sim"] + d.tech_args(), err)
                out, code2, _, _ = run_child(
                    [self.tools.sldm, "time", str(base) + ".sim"]
                    + d.tech_args(), err)
                if code or code2:
                    self.checker.fail("eco rebuild of %s chain %d (%d steps) "
                                      "exited %d/%d"
                                      % (label, k, steps, code, code2))
                else:
                    self.checker.check("eco-rebuild:%s:k%d:%d"
                                       % (label, k, steps), digest(out), served)

    def known_defects(self):
        """Chain states where the parent's incremental `eco` report differs
        from a rebuild (README.md, "Known defect"); the reference keeps an
        `eco:` digest for exactly these."""
        return sorted(k[4:] for k in self.checker.expected
                      if k.startswith("eco:"))


WORKLOADS = {"cli": CliWorkload, "serve_read": ServeReadWorkload,
             "serve_write": ServeWriteWorkload}


# --- per-layer measurements (trace runs) -----------------------------------

def probe_layers(tools, workload, input_seed, workdir):
    """Runs perfbench_probe on the workload's principal design."""
    d = workload.designs[workload.principal]
    eco = Path(workdir) / "probe.eco"
    eco.write_text("".join(eco_chains(d, input_seed, 0)[0]))
    spans = Path(workdir) / "probe-spans.json"
    report = Path(workdir) / "probe-report.txt"
    p = subprocess.run(
        [tools.probe, "--sim", d.sim, "--tech", d.tech,
         "--node", d.explain_nodes(input_seed)[0], "--eco", str(eco),
         "--spans", str(spans), "--report", str(report)],
        capture_output=True, text=True)
    if p.returncode != 0:
        raise BenchError("perfbench_probe failed: " + p.stderr[-500:])
    workload.checker.check("time:" + d.label, digest(report.read_text()))
    return json.loads(p.stdout)["metrics"], json.loads(spans.read_text())


def exec_floor_ms(tools, workdir):
    """Median wall time of `sldm version`: the process floor."""
    with open(Path(workdir) / "version.err", "w") as err:
        runs = [run_child([tools.sldm, "version"], err) for _ in range(21)]
    if any(code != 0 for _, code, _, _ in runs):
        raise BenchError("sldm version failed")
    return statistics.median(ms for _, _, ms, _ in runs), len(runs)


# --- one run ---------------------------------------------------------------

def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def measure(workload, seconds, tracer):
    samples = Samples()
    wall, cpu, errors = workload.loop(seconds, tracer, samples)
    for e in errors:
        workload.checker.fail(e)
    samples.wall_s, samples.cpu_s = wall, cpu
    return samples


def run_once(args, reference_override=None):
    """One benchmark run; returns (result dict, record dict)."""
    tools = build()
    input_seed = args.seed % REF_SEEDS
    expected = (reference_override if reference_override is not None
                else load_reference(input_seed))
    checker = Checker(expected)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    workload = None
    try:
        designs = make_designs(tools, WORKLOAD_DESIGNS[args.workload],
                               input_seed, workdir)
        workload = WORKLOADS[args.workload](tools, designs, checker, workdir,
                                            input_seed)
        setups = [workload.setup_once() for _ in range(SETUP_REPS)]
        record = {"workload": args.workload, "seed": args.seed,
                  "input_seed": input_seed, "seconds": args.seconds,
                  "trace": args.trace, "nproc": nproc(),
                  "connections_workers": list(connection_plan())}
        record.update(build_info(tools))
        metrics = {"setup_s": metric(statistics.median(setups), "s",
                                     len(setups))}
        if args.trace:
            untraced = measure(workload, args.seconds / 2, Tracer(False))
            tracer = Tracer(True)
            samples = measure(workload, args.seconds / 2, tracer)
            # Per-kind median shift, weighted by the traced request mix.
            shift = [(len(v), statistics.median(v)
                      - statistics.median(untraced.by_kind[k]))
                     for k, v in samples.by_kind.items()
                     if k in untraced.by_kind]
            record["trace_overhead_ms"] = (sum(n * d for n, d in shift)
                                           / sum(n for n, _ in shift))
        else:
            tracer = None
            samples = measure(workload, args.seconds, Tracer(False))
        lat = samples.all()
        if not lat:
            raise BenchError("the loop completed no request")
        metrics["p50_ms"] = metric(quantile(lat, 0.5), "ms", len(lat))
        metrics["p90_ms"] = metric(quantile(lat, 0.9), "ms", len(lat))
        metrics["p99_ms"] = metric(quantile(lat, 0.99), "ms", len(lat))
        metrics["rps"] = metric(len(lat) / samples.wall_s, "1/s", len(lat))
        for kind, v in sorted(samples.by_kind.items()):
            metrics[kind + "_p50_ms"] = metric(quantile(v, 0.5), "ms", len(v))
            metrics[kind + "_p90_ms"] = metric(quantile(v, 0.9), "ms", len(v))
        busy = samples.cpu_s / len(lat) * 1e3
        metrics["loadgen.busy_ms_per_req"] = metric(busy, "ms", len(lat))
        record["loadgen_busy_share"] = samples.cpu_s / samples.wall_s
        record["loadgen_bottleneck"] = record["loadgen_busy_share"] > 0.5
        workload.verify()
        if args.trace:
            layer, probe_spans = probe_layers(tools, workload, input_seed,
                                              workdir)
            metrics.update(layer)
            floor, n = exec_floor_ms(tools, workdir)
            metrics["cli.exec_ms"] = metric(floor, "ms", n)
            wire = getattr(workload, "wire_ms", None)
            if wire:  # serve workloads only: cli starts no server
                metrics["serve.wire_ms"] = metric(statistics.median(wire),
                                                  "ms", len(wire))
            trace_path = OUT_DIR / ("trace-%s-seed%d.json"
                                    % (args.workload, args.seed))
            probe_events = tracer.chrome_events(2, [
                {"name": s["name"], "start": s["start_us"] / 1e6,
                 "end": s["end_us"] / 1e6, "request": s["request"],
                 "parent": s["parent"]} for s in probe_spans])
            trace_path.write_text(json.dumps(
                {"traceEvents": tracer.chrome_events(1) + probe_events}))
            record["trace_file"] = str(trace_path.relative_to(ROOT))
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["peak_rss_mb"] = metric(workload.peak_rss, "MB", 1)
    if getattr(workload, "peak_rss_end", None) is not None:
        record["peak_rss_end_mb"] = workload.peak_rss_end
        record["requests_served"] = workload.served
    attempted = checker.attempted()
    failed = len(checker.failures)
    record["failed_ratio"] = failed / attempted
    record["checks"] = checker.checks
    record["failures"] = checker.failures[:20]
    if hasattr(workload, "known_defects"):
        record["known_defects"] = workload.known_defects()
    record["metrics"] = metrics
    # Every request of the measured loop must have been compared.
    correct = failed == 0 and checker.checks >= len(lat)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    missing = [k for k in names if k not in metrics]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k]["value"],
                              "unit": metrics[k]["unit"]} for k in names}}
    return result, record


def print_record(record):
    print("perfbench %s seed=%d input_seed=%d trace=%d nproc=%d "
          "connections+workers=%s build=%s compiler=%s revision=%s "
          "source=%s" % (record["workload"], record["seed"],
                         record["input_seed"], record["trace"],
                         record["nproc"], record["connections_workers"],
                         record["build_type"], record["compiler"],
                         record["git_revision"], record["source_digest"]))
    for name, m in sorted(record["metrics"].items()):
        print("  %-28s %14.6g %-6s n=%d" % (name, m["value"], m["unit"],
                                            m["samples"]))
    if record["trace"] and "serve.wire_ms" not in record["metrics"]:
        print("  %-28s %14s (no server on this workload)"
              % ("serve.wire_ms", "n/a"))
    if "peak_rss_end_mb" in record:
        print("  server peak RSS %.1f MB after %d requests (peak_rss_mb is "
              "read after %d)" % (record["peak_rss_end_mb"],
                                  record["requests_served"],
                                  RSS_AFTER_REQUESTS))
    print("  %-28s %14.6g %-6s checks=%d" % ("failed_ratio",
                                              record["failed_ratio"], "ratio",
                                              record["checks"]))
    print("  loadgen busy share %.3f of wall%s"
          % (record["loadgen_busy_share"],
             " -- WARNING: the load generator, not sldm, may be the "
             "bottleneck" if record["loadgen_bottleneck"] else ""))
    if "trace_overhead_ms" in record:
        print("  tracing overhead %+.4f ms per request (traced - untraced "
              "median latency per request kind)" % record["trace_overhead_ms"])
    if record.get("known_defects"):
        print("  KNOWN DEFECT: incremental eco report differs from a rebuild "
              "at %s (README.md)" % ", ".join(record["known_defects"]))
    for f in record["failures"]:
        print("  FAILED: " + f)


# --- maintenance modes -----------------------------------------------------

def reference_for_seed(tools, sldm, input_seed, workdir):
    """The digests one input seed needs, computed with cold CLI runs."""
    labels = ["l12", "l48", "l24", "w0", "w1"]
    designs = make_designs(tools, labels, input_seed, workdir)
    out = {}
    with open(Path(workdir) / "ref.err", "w") as err:
        def cli(argv):
            text, code, _, _ = run_child([sldm] + argv, err)
            if code != 0:
                raise BenchError("reference run failed: %s" % argv)
            return text

        for d in designs.values():
            out["time:" + d.label] = digest(cli(["time", d.sim]
                                                + d.tech_args()))
        for label in ("l48", "l24"):
            d = designs[label]
            for node in d.explain_nodes(input_seed):
                out["explain:%s:%s" % (label, node)] = json_digest(json.loads(
                    cli(["explain", d.sim, node, "--json"] + d.tech_args())))
        for conn, label in enumerate(("w0", "w1")):
            d = designs[label]
            for k, chain in enumerate(eco_chains(d, input_seed, conn)):
                for step in range(len(chain)):
                    base = Path(workdir) / ("%s-k%d-s%d" % (label, k, step))
                    Path(str(base) + ".eco").write_text("".join(
                        chain[:step + 1]))
                    cli(["eco", d.sim, str(base) + ".eco", "--write",
                         str(base) + ".sim"] + d.tech_args())
                    out["time:%s:k%d:s%d" % (label, k, step)] = digest(
                        cli(["time", str(base) + ".sim"] + d.tech_args()))
        # The eco responses' own reports come from the incremental update
        # path, one edit per request, exactly as serve_write sends them.
        serve = subprocess.Popen([sldm, "serve"], stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, stderr=err,
                                 text=True)
        try:
            def ask(obj):
                serve.stdin.write(json.dumps(obj) + "\n")
                serve.stdin.flush()
                r = json.loads(serve.stdout.readline())
                if not r.get("ok"):
                    raise BenchError("reference serve request failed: %s" % r)
                return r

            for conn, label in enumerate(("w0", "w1")):
                d = designs[label]
                for k, chain in enumerate(eco_chains(d, input_seed, conn)):
                    fp = ask({"kind": "load", "path": d.sim,
                              "tech": d.tech})["design"]
                    for step, edit in enumerate(chain):
                        r = ask({"kind": "eco", "design": fp, "script": edit})
                        fp = r["design"]
                        # Kept only where it differs from the rebuild:
                        # the known-defect states.
                        state = "%s:k%d:s%d" % (label, k, step)
                        if digest(r["report"]) != out["time:" + state]:
                            out["eco:" + state] = digest(r["report"])
        finally:
            serve.stdin.close()
            serve.wait()
    return out


def write_reference(sldm):
    tools = build()
    sldm = sldm or tools.sldm
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    version = subprocess.run([sldm, "version"], capture_output=True,
                             text=True, check=True).stdout.strip()
    fixed_dir = tempfile.mkdtemp(prefix="ref-", dir=OUT_DIR)
    fixed = {}
    with open(Path(fixed_dir) / "err", "w") as err:
        for d in make_designs(tools, ["dp", "b6"], 0, fixed_dir).values():
            text, code, _, _ = run_child([sldm, "time", d.sim]
                                         + d.tech_args(), err)
            assert code == 0
            fixed["time:" + d.label] = digest(text)
    shutil.rmtree(fixed_dir)

    def one(s):
        workdir = tempfile.mkdtemp(prefix="ref-", dir=OUT_DIR)
        try:
            return s, reference_for_seed(tools, sldm, s, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    seeds = {}
    with concurrent.futures.ThreadPoolExecutor(max(1, nproc() - 1)) as pool:
        for s, digests in pool.map(one, range(REF_SEEDS)):
            seeds[str(s)] = digests
    # Each chain state must move the report away from the state before it
    # (the unedited design for the first edit), or the ECO checks could
    # not tell an update from a no-op.
    states = moved = from_base = 0
    for digests in seeds.values():
        for key, got in digests.items():
            m = re.fullmatch(r"time:(w\d):k(\d+):s(\d+)", key)
            if not m:
                continue
            label, step = m.group(1), int(m.group(3))
            before = digests["time:" + label if step == 0 else
                             "time:%s:k%s:s%d" % (label, m.group(2), step - 1)]
            states += 1
            moved += got != before
            from_base += got != digests["time:" + label]
    defects = sum(k.startswith("eco:") for d in seeds.values() for k in d)
    print("chain states: %d; moved the report from the state before: %d; "
          "differ from the unedited design: %d; known-defect eco replies: %d"
          % (states, moved, from_base, defects))
    if moved < MIN_MOVED_SHARE * states:
        raise BenchError("too few chain states move the report (%d of %d)"
                         % (moved, states))
    REFERENCE.write_text(json.dumps(
        {"program": version, "seeds_covered": REF_SEEDS, "fixed": fixed,
         "seeds": seeds}, indent=0, sort_keys=True) + "\n")
    print("wrote %s (%d seeds) with %s" % (REFERENCE, REF_SEEDS, version))


def self_test(seed):
    """A perturbed reference digest must fail the run, on every check path.

    On an input seed with a known-defect state (seed 1, for one), the
    parent's defective `eco` digest is perturbed too: the program's own
    defective reply must then fail, so the defect is accepted only as the
    parent produced it.
    """
    input_seed = seed % REF_SEEDS
    cases = [("cli", "time:dp"), ("serve_read", "time:l48"),
             ("serve_write", "time:w0:k0:s0")]
    cases += [("serve_write", k) for k in sorted(load_reference(input_seed))
              if k.startswith("eco:")][:1]
    ok = True
    for workload, label in cases:
        expected = load_reference(input_seed)
        bad = copy.deepcopy(expected)
        bad[label] = bad[label][:-1] + ("0" if bad[label][-1] != "0" else "1")
        args = argparse.Namespace(workload=workload, seed=seed, seconds=2,
                                  trace=0)
        result, _ = run_once(args, reference_override=bad)
        caught = not result["correct"] and result["failed"] > 0
        print("self-test %-12s perturbed %-17s -> correct=%s failed=%d %s"
              % (workload, label, result["correct"], result["failed"],
                 "ok" if caught else "NOT CAUGHT"))
        ok &= caught
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--sldm", help="binary for --write-reference")
    args = ap.parse_args()
    try:
        if args.write_reference:
            write_reference(args.sldm)
            return 0
        if args.self_test:
            return self_test(args.seed)
        if not args.workload:
            ap.error("--workload is required")
        result, record = run_once(args)
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print_record(record)
    (OUT_DIR / ("record-%s-seed%d-trace%d.json"
                % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
