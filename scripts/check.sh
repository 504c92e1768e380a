#!/usr/bin/env bash
# Sanitizer + observability gate, run before merging:
#   1. strict preset: the whole tree (tests, benches, examples) under
#      -Wall -Wextra -Wshadow -Wconversion -Wsign-conversion as errors
#      (also exports compile_commands.json for tooling); then the whole
#      tree again as a plain -DCMAKE_BUILD_TYPE=Release (-O3) build in
#      out/release-o3, the optimization level users ship, where GCC 12
#      raises warnings (-Werror=restrict) that -O2 never sees;
#   2. asan preset: the full test suite under AddressSanitizer/UBSan;
#   3. tsan preset: the concurrency-sensitive suites (parallel stage
#      extraction, batched wavefront propagation, the incremental-
#      update pipeline built on them, concurrent reader sessions over
#      one shared design (design_test), and the shared calibration
#      memo) under ThreadSanitizer;
#   4. ubsan preset: the timing suites and the delay-model suites
#      (batch_kernel_test, delay_test, bounds_model_test) under
#      standalone UBSan with -fno-sanitize-recover (any report traps);
#   5. smoke checks of the machine-readable artifacts: a `sldm time
#      --trace` capture must parse as JSON, a bench run with `--json`
#      must append a parseable record, and `sldm time --stats --json`
#      must report identical propagation work counters at --threads 1
#      and --threads 4 (the wavefront determinism contract);
#   6. a compiled-design snapshot smoke under asan: `sldm compile` +
#      `sldm time --load` must match the direct path byte-for-byte at
#      1 and 4 threads, and a bit-flipped .sldc must be rejected;
#   7. a fixed-seed differential fuzzing smoke under asan (`sldm fuzz`,
#      200 iterations: must be clean and deterministic), plus a replay
#      pass over the checked-in repro corpus in testdata/fuzz/;
#   8. a telemetry smoke: `sldm time --prom` must emit well-formed
#      Prometheus text exposition (every line a TYPE comment or a
#      sample, complete _bucket/_sum/_count triads, the analyzer
#      families present), a run must land in the ledger and summarize,
#      and the `sldm bench diff` regression gate must pass on an
#      identity diff and fail on an injected 2x wall-time regression;
#   9. a serve smoke under asan: a pipe-mode load/time round-trip whose
#      report field must match the cold `sldm time` stdout byte-for-
#      byte, a malformed request line that must come back as a named
#      error envelope (not a crash), and the checked-in corrupt ledger
#      corpus (testdata/ledger/) that `sldm ledger summarize` must
#      reject with a located "bad fingerprint" error.  The serve
#      concurrency suite itself runs under tsan in stage 3;
#  10. a chaos smoke under asan: a fixed-seed failpoint schedule
#      (FORMATS.md section 15) driven through pipe-mode serve and a
#      localhost TCP connection must answer exactly one envelope per
#      request line without crashing, every surviving ledger line must
#      parse whole, and SIGTERM must drain the TCP server to exit 0.
#      (tests/chaos_test.cpp is deliberately absent from the tsan
#      stage: it raises real signals, which interact badly with
#      sanitizer signal interposition.)
# Any test failure (or sanitizer report, which fails the test) aborts
# with a nonzero exit.  Usage: scripts/check.sh [-j N]
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

cmake --preset strict
cmake --build --preset strict -j "$jobs"
echo "check.sh: strict-warnings build clean"

cmake -S . -B out/release-o3 -DCMAKE_BUILD_TYPE=Release
cmake --build out/release-o3 -j "$jobs"
echo "check.sh: Release (-O3) build clean"

cmake --preset asan
cmake --build --preset asan -j "$jobs"
ctest --preset asan -j "$jobs"
echo "check.sh: all tests passed under asan+ubsan"

cmake --preset tsan
cmake --build --preset tsan -j "$jobs" \
  --target parallel_timing_test eco_timing_test telemetry_test serve_test \
           model_registry_test design_test
ctest --preset tsan -j "$jobs" \
  -R 'parallel_timing_test|eco_timing_test|telemetry_test|serve_test|model_registry_test|design_test'
echo "check.sh: threaded suites passed under tsan"

cmake --preset ubsan
cmake --build --preset ubsan -j "$jobs" \
  --target analyzer_test parallel_timing_test eco_timing_test \
           observability_test batch_kernel_test delay_test \
           bounds_model_test sldm_tool
ctest --preset ubsan -j "$jobs" \
  -R 'analyzer_test|parallel_timing_test|eco_timing_test|observability_test|batch_kernel_test|delay_test|bounds_model_test'
echo "check.sh: timing and delay-model suites passed under ubsan"

# Observability smoke: the trace file must be valid JSON with spans,
# and a bench --json record must parse.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
printf 'e in gnd s1 4 8\nd s1 s1 vdd 8 4\ne s1 gnd out 4 8\nd out out vdd 8 4\n@in in\n@out out\n' \
  > "$smoke_dir/chain.sim"
out/ubsan/examples/sldm time "$smoke_dir/chain.sim" --model rc-tree \
  --threads 2 --trace "$smoke_dir/trace.json" > /dev/null
python3 - "$smoke_dir/trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
missing = {"extract", "propagate"} - names
if missing:
    sys.exit(f"trace smoke: missing spans {missing}")
EOF
echo "check.sh: trace smoke file parsed"

# Propagation-metrics sanity: the wavefront engine must do identical
# work (and reach identical arrivals) regardless of the thread count.
for t in 1 4; do
  out/ubsan/examples/sldm time "$smoke_dir/chain.sim" --model rc-tree \
    --threads "$t" --stats --json > "$smoke_dir/stats$t.json"
done
python3 - "$smoke_dir/stats1.json" "$smoke_dir/stats4.json" <<'EOF'
import json, sys
def record(path):
    with open(path) as f:
        return next(json.loads(l) for l in f if l.lstrip().startswith("{"))
a, b = record(sys.argv[1]), record(sys.argv[2])
for key in ("stage_evaluations", "worklist_pushes", "arrival_updates",
            "batches", "max_batch_size"):
    if a[key] != b[key]:
        sys.exit(f"stats smoke: {key} differs across thread counts: "
                 f"{a[key]} vs {b[key]}")
if a["metrics"]["counters"]["propagate.stage_evaluations"] != \
   b["metrics"]["counters"]["propagate.stage_evaluations"]:
    sys.exit("stats smoke: propagate.stage_evaluations differs")
if a["batches"] < 1 or a["stage_evaluations"] < 1:
    sys.exit("stats smoke: no propagation work recorded")
EOF
echo "check.sh: propagation metrics identical at 1 and 4 threads"

cmake --build --preset ubsan -j "$jobs" --target bench_ablation_flow
out/ubsan/bench/bench_ablation_flow --json "$smoke_dir/bench.json" \
  > /dev/null
python3 - "$smoke_dir/bench.json" <<'EOF'
import json, sys
records = [json.loads(line) for line in open(sys.argv[1])]
if not records or "bench" not in records[0] or \
   "wall_seconds" not in records[0]:
    sys.exit("bench smoke: malformed record")
EOF
echo "check.sh: bench --json record parsed"

# Compiled-design snapshot smoke under asan: `sldm compile` then
# `time --load` must print byte-identical timing reports to the direct
# path at 1 and 4 threads (the .sldc round-trip contract, FORMATS.md
# section 11), and a corrupted snapshot must be rejected by checksum.
out/asan/examples/sldm compile "$smoke_dir/chain.sim" \
  -o "$smoke_dir/chain.sldc" > /dev/null
for t in 1 4; do
  out/asan/examples/sldm time "$smoke_dir/chain.sim" --threads "$t" \
    > "$smoke_dir/direct$t.txt" 2> /dev/null
  out/asan/examples/sldm time --load "$smoke_dir/chain.sldc" \
    --threads "$t" > "$smoke_dir/loaded$t.txt" 2> /dev/null
  cmp "$smoke_dir/direct$t.txt" "$smoke_dir/loaded$t.txt" \
    || { echo "check.sh: --load timing differs from direct at" \
         "--threads $t" >&2; exit 1; }
done
python3 - "$smoke_dir/chain.sldc" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[40] ^= 0x5A  # inside the first section payload
open(path, "wb").write(data)
EOF
if out/asan/examples/sldm time --load "$smoke_dir/chain.sldc" \
    > /dev/null 2> "$smoke_dir/corrupt.txt"; then
  echo "check.sh: corrupted snapshot was accepted" >&2; exit 1
fi
grep -q 'checksum mismatch' "$smoke_dir/corrupt.txt" \
  || { echo "check.sh: corrupted snapshot not rejected by checksum" >&2
       exit 1; }
echo "check.sh: snapshot compile/load parity holds, corruption rejected"

# Differential fuzzing smoke under asan: a fixed-seed campaign must run
# clean twice with byte-identical reports (determinism contract), and
# every checked-in repro case must replay green.
out/asan/examples/sldm fuzz --seed 2026 --iterations 200 --threads 4 \
  > "$smoke_dir/fuzz1.txt"
out/asan/examples/sldm fuzz --seed 2026 --iterations 200 --threads 4 \
  > "$smoke_dir/fuzz2.txt"
cmp "$smoke_dir/fuzz1.txt" "$smoke_dir/fuzz2.txt" \
  || { echo "check.sh: fuzz report not deterministic" >&2; exit 1; }
grep -q '^verdict: clean$' "$smoke_dir/fuzz1.txt" \
  || { echo "check.sh: seeded fuzz run found failures" >&2; exit 1; }
out/asan/examples/sldm fuzz --replay testdata/fuzz
echo "check.sh: fuzz smoke clean, repro corpus replays"

# Telemetry smoke: the Prometheus exposition must be well-formed and
# complete, the run ledger must record and summarize the run, and the
# bench regression gate must hold on both sides.
out/ubsan/examples/sldm time "$smoke_dir/chain.sim" --model rc-tree \
  --prom "$smoke_dir/metrics.prom" --ledger "$smoke_dir/ledger.jsonl" \
  > /dev/null
python3 - "$smoke_dir/metrics.prom" <<'EOF'
import re, sys
type_re = re.compile(r"^# TYPE (sldm_[a-zA-Z0-9_:]+) (counter|gauge|histogram)$")
sample_re = re.compile(
    r"^(sldm_[a-zA-Z0-9_:]+)(\{[^{}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$")
families, seen = {}, set()
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line:
        continue
    m = type_re.match(line)
    if m:
        families[m.group(1)] = m.group(2)
        continue
    m = sample_re.match(line)
    if not m:
        sys.exit(f"prom smoke: malformed line: {line!r}")
    seen.add(m.group(1))
for name in ("sldm_propagate_stage_evaluations_total",
             "sldm_extract_seconds", "sldm_propagate_seconds"):
    if name not in seen:
        sys.exit(f"prom smoke: missing sample {name}")
for name, kind in families.items():
    if kind == "histogram":
        for suffix in ("_bucket", "_sum", "_count"):
            if name + suffix not in seen:
                sys.exit(f"prom smoke: {name} missing {suffix} series")
    elif name not in seen:
        sys.exit(f"prom smoke: TYPE {name} has no sample")
if not any(k == "histogram" for k in families.values()):
    sys.exit("prom smoke: no histogram family emitted")
EOF
out/ubsan/examples/sldm ledger summarize "$smoke_dir/ledger.jsonl" \
  | grep -q 'run:1' \
  || { echo "check.sh: ledger did not record the run" >&2; exit 1; }
echo "check.sh: prometheus exposition well-formed, ledger recorded"

# Bench regression gate, self-test: identity must pass, an injected 2x
# wall-time regression must fail.  Reuses the stage-5 bench record.
out/ubsan/examples/sldm bench diff "$smoke_dir/bench.json" \
  "$smoke_dir/bench.json" --max-regress 50 > /dev/null \
  || { echo "check.sh: bench diff failed an identity diff" >&2; exit 1; }
python3 - "$smoke_dir/bench.json" "$smoke_dir/bench_slow.json" <<'EOF'
import json, sys
with open(sys.argv[2], "w") as out:
    for line in open(sys.argv[1]):
        record = json.loads(line)
        if "wall_seconds" in record:
            record["wall_seconds"] *= 2.0
        out.write(json.dumps(record) + "\n")
EOF
if out/ubsan/examples/sldm bench diff "$smoke_dir/bench.json" \
    "$smoke_dir/bench_slow.json" --max-regress 50 > /dev/null; then
  echo "check.sh: bench diff missed a 2x regression" >&2; exit 1
fi
echo "check.sh: bench diff gate passes identity, catches regression"

# Serve smoke under asan: drive the pipe-mode service with a load/time
# pair plus one malformed line.  The service must answer the malformed
# line with a named error envelope instead of crashing, and the timing
# response's report field must be byte-identical to a cold `sldm time`
# run of the same netlist (the serve parity contract, FORMATS.md
# section 14).
out/asan/examples/sldm time "$smoke_dir/chain.sim" --model lumped \
  > "$smoke_dir/cold_time.txt" 2> /dev/null
printf '%s\n%s\n%s\n' \
  '{"id":1,"kind":"load","path":"'"$smoke_dir"'/chain.sim","model":"lumped"}' \
  '{this line is not json' \
  '{"id":2,"kind":"stats"}' \
  | out/asan/examples/sldm serve > "$smoke_dir/serve1.jsonl"
python3 - "$smoke_dir/serve1.jsonl" "$smoke_dir/serve_time.req" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
by_id = {r.get("id"): r for r in lines}
load = by_id.get(1)
if not load or not load.get("ok"):
    sys.exit(f"serve smoke: load failed: {load}")
bad = [r for r in lines if r.get("error") == "parse"]
if not bad:
    sys.exit("serve smoke: malformed line produced no parse envelope")
if not by_id.get(2, {}).get("ok"):
    sys.exit("serve smoke: stats request after the bad line failed")
fp = load["design"]
with open(sys.argv[2], "w") as out:
    out.write(json.dumps({"id": 3, "kind": "time", "design": fp,
                          "model": "lumped"}) + "\n")
    out.write(json.dumps({"id": 4, "kind": "explain", "design": fp,
                          "model": "lumped", "node": "out"}) + "\n")
    out.write(json.dumps({"id": 5, "kind": "eco", "design": fp,
                          "model": "lumped",
                          "script": "addcap out 5\n"}) + "\n")
EOF
# Full round-trip at --workers 1 (inline execution), so the eco line
# deterministically sees no in-flight readers.
{ printf '%s\n' \
    '{"id":1,"kind":"load","path":"'"$smoke_dir"'/chain.sim","model":"lumped"}'
  cat "$smoke_dir/serve_time.req"; } \
  | out/asan/examples/sldm serve --workers 1 > "$smoke_dir/serve2.jsonl"
python3 - "$smoke_dir/serve2.jsonl" "$smoke_dir/cold_time.txt" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
by_id = {r.get("id"): r for r in lines}
time_resp = by_id.get(3)
if not time_resp or not time_resp.get("ok"):
    sys.exit(f"serve smoke: time request failed: {time_resp}")
cold = open(sys.argv[2]).read()
if time_resp["report"] != cold:
    sys.exit("serve smoke: serve report differs from cold `sldm time`:\n"
             f"serve: {time_resp['report']!r}\ncold:  {cold!r}")
explain = by_id.get(4)
if not explain or not explain.get("ok") or "explain" not in explain:
    sys.exit(f"serve smoke: explain request failed: {explain}")
eco = by_id.get(5)
if not eco or not eco.get("ok") or eco.get("applied") != 1 \
   or eco.get("design") == time_resp.get("design"):
    sys.exit(f"serve smoke: eco request failed or did not re-key: {eco}")
EOF
echo "check.sh: serve pipe round-trip matches cold CLI, errors enveloped"

# Malformed-ledger corpus: the checked-in corrupt line must be rejected
# with a named, located error -- never an uncaught std::exception.
if out/asan/examples/sldm ledger summarize testdata/ledger/corrupt.jsonl \
    > /dev/null 2> "$smoke_dir/ledger_err.txt"; then
  echo "check.sh: corrupt ledger corpus was accepted" >&2; exit 1
fi
grep -q 'bad fingerprint' "$smoke_dir/ledger_err.txt" \
  || { echo "check.sh: corrupt ledger not rejected by name" >&2; exit 1; }
grep -q 'corrupt.jsonl:2' "$smoke_dir/ledger_err.txt" \
  || { echo "check.sh: corrupt ledger error lacks file:line" >&2; exit 1; }
echo "check.sh: corrupt ledger corpus rejected with located error"

# Chaos smoke under asan: arm a fixed-seed failpoint schedule
# (FORMATS.md section 15) and drive the same request mix through
# pipe-mode serve and a localhost TCP connection.  Faults fire at the
# ledger, cache, pool, and dispatch sites; the contract is exactly one
# envelope per request line (ok or a named error), a parseable ledger,
# no crash, and a clean SIGTERM drain to exit 0.
chaos_fp='ledger.append=error*1in3@7,cache.insert=error*1in5@11'
chaos_fp="$chaos_fp,cache.evict=partial*1in2@13,pool.submit=error*1in6@17"
chaos_fp="$chaos_fp,serve.request=error*1in7@19"
fp=$(printf '%s\n' \
  '{"id":1,"kind":"load","path":"'"$smoke_dir"'/chain.sim","model":"lumped"}' \
  | out/asan/examples/sldm serve \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["design"])')
python3 - "$smoke_dir/chain.sim" "$fp" "$smoke_dir/chaos.req" <<'EOF'
import json, sys
sim, fp = sys.argv[1], sys.argv[2]
with open(sys.argv[3], "w") as out:
    for rnd in range(5):
        base = rnd * 10
        out.write(json.dumps({"id": base + 1, "kind": "load", "path": sim,
                              "model": "lumped"}) + "\n")
        out.write(json.dumps({"id": base + 2, "kind": "time", "design": fp,
                              "model": "lumped"}) + "\n")
        out.write(json.dumps({"id": base + 3, "kind": "frobnicate"}) + "\n")
        out.write("{this line is not json\n")
        out.write(json.dumps({"id": base + 5, "kind": "stats"}) + "\n")
EOF
out/asan/examples/sldm serve --workers 2 --failpoints "$chaos_fp" \
  --ledger "$smoke_dir/chaos_ledger.jsonl" \
  < "$smoke_dir/chaos.req" > "$smoke_dir/chaos_pipe.jsonl" \
  2> "$smoke_dir/chaos_pipe.err" \
  || { echo "check.sh: pipe-mode serve crashed under failpoints" >&2
       exit 1; }
python3 - "$smoke_dir/chaos.req" "$smoke_dir/chaos_pipe.jsonl" \
  "$smoke_dir/chaos_ledger.jsonl" <<'EOF'
import json, os, sys
requests = [l for l in open(sys.argv[1]) if l.strip()]
responses = [l for l in open(sys.argv[2]) if l.strip()]
if len(responses) != len(requests):
    sys.exit(f"chaos smoke: {len(requests)} request lines but "
             f"{len(responses)} response lines")
for line in responses:
    r = json.loads(line)
    if not (r.get("ok") or r.get("error")):
        sys.exit(f"chaos smoke: envelope neither ok nor error: {r}")
if os.path.exists(sys.argv[3]):
    for line in open(sys.argv[3]):
        json.loads(line)  # error appends refuse before writing a byte
EOF
echo "check.sh: pipe-mode chaos answered every line, ledger intact"

out/asan/examples/sldm serve --tcp 0 --workers 2 \
  --failpoints "$chaos_fp" 2> "$smoke_dir/chaos_tcp.err" &
serve_pid=$!
port=""
for _ in $(seq 100); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$smoke_dir/chaos_tcp.err")
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || { echo "check.sh: chaos TCP server never announced" >&2
                    kill "$serve_pid" 2> /dev/null; exit 1; }
python3 - "$port" "$smoke_dir/chaos.req" <<'EOF'
import json, socket, sys
with socket.create_connection(("127.0.0.1", int(sys.argv[1])),
                              timeout=30) as s:
    f = s.makefile("rw", encoding="utf-8", newline="\n")
    requests = [l for l in open(sys.argv[2]) if l.strip()]
    for line in requests:
        f.write(line)
    f.flush()
    for _ in requests:
        r = json.loads(f.readline())
        if not (r.get("ok") or r.get("error")):
            sys.exit(f"chaos smoke: TCP envelope neither ok nor error: {r}")
EOF
kill -TERM "$serve_pid"
wait "$serve_pid" \
  || { echo "check.sh: SIGTERM did not drain the TCP server to exit 0" >&2
       exit 1; }
echo "check.sh: TCP chaos answered every line, SIGTERM drained to exit 0"
