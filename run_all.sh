#!/usr/bin/env bash
# Build, test, and regenerate every table/figure of the paper.
# Outputs land in test_output.txt and bench_output.txt at the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Concurrency tests again under ThreadSanitizer (batch engine, schedule
# cache, work-stealing thread pool, RNG streams, the SummaryStats lazy
# sort cache, the serving daemon's full thread architecture, and one
# cached StreamPlan replayed by several workers at once).
cmake -B build-tsan -G Ninja -DCHASON_TSAN=ON
cmake --build build-tsan --target test_batch_engine test_schedule_cache \
    test_artifact_cache test_rng test_thread_pool test_stats \
    test_serve_daemon test_perf_determinism
ctest --test-dir build-tsan \
    -R 'test_(batch_engine|schedule_cache|artifact_cache|rng|thread_pool|stats|serve_daemon|perf_determinism)' \
    --output-on-failure 2>&1 | tee -a test_output.txt

# Memory-safety leg: the parsing/verification surface again under
# ASan+UBSan (artifact readers, verifier, mutation injector, SARIF,
# the JSON parser and writer with the report and trace emitters on it,
# and the serving protocol's request parser — hostile-input
# territory), plus the simulator's StreamPlan build and replay, which
# index bank tables and RAW stamps by slot tags and the x window by
# slot columns (test_spmm replays one plan over many columns and takes
# the alpha/beta path), the timing model, which indexes HbmDevice
# channels and each channel's beat list per phase, and matrix
# building: the R-MAT draws' double-to-integer threshold casts and the
# in-place COO sort.
cmake -B build-asan -G Ninja -DCHASON_ASAN=ON
cmake --build build-asan --target \
    test_matrix_market test_schedule test_schedule_io test_artifact \
    test_verifier test_sarif test_sarif_merge test_differential \
    test_serve_protocol test_peg test_accelerators test_perf_determinism \
    test_estimator test_trace_invariant test_json test_report_json test_trace \
    test_generators test_rng test_formats test_spmm
ctest --test-dir build-asan \
    -R 'test_(matrix_market|schedule(_io)?$|artifact$|verifier|sarif|differential|serve_protocol|peg|accelerators|perf_determinism|estimator|trace_invariant|json|report_json|trace$|generators|rng|formats|spmm)' \
    --output-on-failure 2>&1 | tee -a test_output.txt

# Static schedule verification gate: every bundled example schedule must
# be verifier-clean AND functionally correct (differential), with the
# findings exported as SARIF; then prove the gate actually fires by
# verifying a deliberately corrupted schedule.
build/tools/chason_verify --examples --differential \
    --sarif verify_output.sarif 2>&1 | tee -a test_output.txt
if build/tools/chason_verify --dataset DY --corrupt raw --quiet \
    >> test_output.txt 2>&1; then
    echo "FAIL: verifier accepted a corrupted schedule" | tee -a test_output.txt
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json; json.load(open('verify_output.sarif'))" \
        && echo "SARIF OK: verify_output.sarif" | tee -a test_output.txt
fi

# CHSA artifact admission gate: pack a schedule artifact, prove the
# deep admission chain accepts it, then flip one payload byte and one
# header byte and prove chason_verify rejects both through SARIF
# (CHV015-018) — the same checks the ScheduleCache disk tier applies
# before serving a stored schedule.
rm -f artifact_gate.chsa
build/tools/chason_pack pack --dataset DY --out artifact_gate.chsa \
    2>&1 | tee -a test_output.txt
build/tools/chason_verify --artifact artifact_gate.chsa --deep \
    2>&1 | tee -a test_output.txt
build/tools/chason_pack flip --at 5000 artifact_gate.chsa \
    >> test_output.txt 2>&1
if build/tools/chason_verify --artifact artifact_gate.chsa \
    --sarif artifact_gate.sarif >> test_output.txt 2>&1; then
    echo "FAIL: admission accepted a corrupt artifact payload" \
        | tee -a test_output.txt
    exit 1
fi
build/tools/chason_pack flip --at 5000 artifact_gate.chsa \
    >> test_output.txt 2>&1 # restore the payload...
build/tools/chason_pack flip --at 25 artifact_gate.chsa \
    >> test_output.txt 2>&1 # ...and tamper with the keyed header
if build/tools/chason_verify --artifact artifact_gate.chsa \
    >> test_output.txt 2>&1; then
    echo "FAIL: admission accepted a tampered artifact header" \
        | tee -a test_output.txt
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json; json.load(open('artifact_gate.sarif'))" \
        && echo "SARIF OK: artifact_gate.sarif" | tee -a test_output.txt
fi
rm -f artifact_gate.chsa
echo "ARTIFACT GATE OK: corrupt payload and header both rejected" \
    | tee -a test_output.txt

# Tracing gate: chason_trace self-checks the cycle-attribution
# invariant (trace spans must reconcile exactly with the report's
# cycle breakdown) and exits non-zero on mismatch; on top of that,
# validate that the Chrome trace parses, is non-empty, and that the
# exported counters agree with the report's cycle_breakdown field.
build/tools/chason_trace --dataset mycielskian12 \
    --out trace_output.json --counters trace_counters.json \
    2>&1 | tee -a test_output.txt
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF' 2>&1 | tee -a test_output.txt
import json
trace = json.load(open("trace_output.json"))
events = trace["traceEvents"]
assert events, "trace has no events"
assert any(e.get("ph") == "X" for e in events), "trace has no spans"
c = json.load(open("trace_counters.json"))
breakdown = c["report"]["cycle_breakdown"]
cycles = c["trace"]["category_cycles"]
pegs = c["trace"]["peg_matrix_stream_cycles"]
for key, want in breakdown.items():
    if key in ("total", "matrix_stream"):
        continue
    assert cycles[key] == want, f"{key}: trace {cycles[key]} != report {want}"
assert pegs and all(p == breakdown["matrix_stream"] for p in pegs), \
    "per-PEG stream cycles disagree with the breakdown"
assert sum(cycles.values()) - sum(pegs) + breakdown["matrix_stream"] \
    == breakdown["total"], "trace does not sum to the cycle total"
print(f"TRACE OK: {len(events)} events reconcile with "
      f"{breakdown['total']} cycles across {len(pegs)} PEG tracks")
EOF
fi

# Serving gate (docs/SERVING.md): boot the daemon with a sustained-rate
# QoS budget, replay 1000 zipf-weighted requests whose y-vector digests
# the client checks bit-for-bit against local Engine::runScheduled, then
# flood it from a second tenant that MUST get throttled without the
# paced tenant losing a single request. The SIGUSR1 stats document is
# schema-validated and SIGTERM must drain and exit 0.
rm -rf serve_gate_artifacts serve_gate.sock serve_daemon.log
build/tools/chason_serve --socket serve_gate.sock \
    --rate 500 --burst 128 --artifact-dir serve_gate_artifacts \
    > serve_daemon.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -S serve_gate.sock ] && break
    sleep 0.1
done
if ! [ -S serve_gate.sock ]; then
    echo "FAIL: chason_serve never created its socket" | tee -a test_output.txt
    cat serve_daemon.log | tee -a test_output.txt
    exit 1
fi
build/tools/chason_client --socket serve_gate.sock \
    --requests 1000 --connections 4 --window 8 --pace-us 10000 \
    --verify --flood 300 --expect-throttle 2>&1 | tee -a test_output.txt
kill -USR1 "$SERVE_PID"
sleep 0.5
kill -TERM "$SERVE_PID"
SERVE_EXIT=0
wait "$SERVE_PID" || SERVE_EXIT=$?
if [ "$SERVE_EXIT" -ne 0 ]; then
    echo "FAIL: chason_serve exited $SERVE_EXIT on SIGTERM" \
        | tee -a test_output.txt
    cat serve_daemon.log | tee -a test_output.txt
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF' 2>&1 | tee -a test_output.txt
import json
docs = [json.loads(l) for l in open("serve_daemon.log") if l.strip()]
assert docs[0].get("ready") is True, "missing ready line"
stats = docs[-1]          # final SIGTERM document
json.dumps(docs[-2])      # SIGUSR1 snapshot must have parsed too
req = stats["requests"]
assert req["served"] >= 1000, f"served {req['served']} < 1000"
assert req["bad_request"] == 0, "daemon flagged bad requests"
assert req["over_budget"] > 0, "flood phase never tripped QoS"
lat = stats["latency_ms"]
assert lat["count"] == req["served"], "latency samples != served"
assert 0.0 <= lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"], \
    "latency percentiles are not monotone"
cache = stats["cache"]
for key in ("hits", "misses", "hit_rate", "disk_hits", "disk_misses",
            "disk_hit_rate", "persisted", "corrupt", "entries"):
    assert key in cache, f"cache stats missing {key}"
assert cache["hits"] > 0, "zipf replay never hit the schedule cache"
assert cache["corrupt"] == 0, "disk tier served corrupt artifacts"
tenants = stats["tenants"]
assert tenants["bench"]["served"] == 1000, "paced tenant lost requests"
assert tenants["bench"]["rejected"] == 0, "paced tenant was throttled"
assert tenants["flooder"]["rejected"] > 0, "flood tenant never rejected"
print(f"SERVE GATE OK: {req['served']} served, "
      f"p99 {lat['p99']:.3f} ms, "
      f"{tenants['flooder']['rejected']} flood rejections")
EOF
fi
rm -rf serve_gate_artifacts serve_gate.sock

# Unified static-analysis gate (docs/STATIC_ANALYSIS.md): chason_lint
# merges the repo-invariant scan, the clang-tidy sweep over the full
# compilation database (.clang-tidy: bugprone-*, concurrency-*,
# performance-*), and the -Wthread-safety build leg into one SARIF
# document, then ratchets it against the committed lint_baseline.sarif
# — any NEW finding fails the run. On toolchains without clang the
# tool skips those legs itself and the invariant scan still gates.
if command -v clang-tidy >/dev/null 2>&1; then
    build/tools/chason_lint --all --root . --build-dir build \
        --sarif lint_output.sarif 2>&1 | tee -a test_output.txt
else
    echo "clang-tidy not found; running invariant leg only" \
        | tee -a test_output.txt
    build/tools/chason_lint --check-invariants --root . \
        --sarif lint_output.sarif 2>&1 | tee -a test_output.txt
fi
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json; json.load(open('lint_output.sarif'))" \
        && echo "SARIF OK: lint_output.sarif" | tee -a test_output.txt
fi

# Thread-safety annotation leg: the whole tree must build clean under
# clang's -Wthread-safety (promoted to an error by the option), the
# compile-time mirror of the TSAN leg above. GCC has no analysis, so
# this soft-skips on GCC-only toolchains.
if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-tsafe -G Ninja -DCMAKE_CXX_COMPILER=clang++ \
        -DCHASON_THREAD_SAFETY=ON >/dev/null
    cmake --build build-tsafe 2>&1 | tail -3 | tee -a test_output.txt
    echo "THREAD SAFETY OK: tree builds under -Werror=thread-safety-analysis" \
        | tee -a test_output.txt
else
    echo "clang++ not found; skipping thread-safety build leg" \
        | tee -a test_output.txt
fi

# Performance-trajectory gate: re-emit BENCH_sched.json/BENCH_sim.json
# on the R-MAT ladder and hold them against the committed pre-rewrite
# baselines (bench/baselines/*.prepr.json). Bands sit below the medians
# measured for docs/PERFORMANCE.md to absorb machine noise; the
# dedicated large-tier checks gate the headline speedups themselves.
# chason_perf_gate soft-fails automatically in sanitizer builds (the
# regular flow runs it from the uninstrumented tree, so it is hard
# here).
build/bench/bench_perf_sched --out BENCH_sched.json \
    2>&1 | tee -a test_output.txt
build/bench/bench_perf_sim --out BENCH_sim.json \
    2>&1 | tee -a test_output.txt
build/tools/chason_perf_gate --current BENCH_sched.json \
    --baseline bench/baselines/BENCH_sched.prepr.json --min-ratio 1.1 \
    2>&1 | tee -a test_output.txt
build/tools/chason_perf_gate --current BENCH_sched.json \
    --baseline bench/baselines/BENCH_sched.prepr.json \
    --tier large --min-ratio 3.5 2>&1 | tee -a test_output.txt
build/tools/chason_perf_gate --current BENCH_sim.json \
    --baseline bench/baselines/BENCH_sim.prepr.json --min-ratio 1.6 \
    2>&1 | tee -a test_output.txt
build/tools/chason_perf_gate --current BENCH_sim.json \
    --baseline bench/baselines/BENCH_sim.prepr.json \
    --tier large --min-ratio 3.0 2>&1 | tee -a test_output.txt

# Warm-start serving gate: BENCH_load.json measures the artifact load
# path against cold CrHCS scheduling (throughput_per_s is the speedup
# itself). The committed baseline is same-revision, so the band is a
# regression gate; the absolute floor holds the headline directly —
# serving a large-tier schedule from the store must stay >= 20x faster
# than rescheduling it.
build/bench/bench_perf_load --out BENCH_load.json \
    2>&1 | tee -a test_output.txt
build/tools/chason_perf_gate --current BENCH_load.json \
    --baseline bench/baselines/BENCH_load.prepr.json --min-ratio 0.5 \
    2>&1 | tee -a test_output.txt
build/tools/chason_perf_gate --current BENCH_load.json \
    --baseline bench/baselines/BENCH_load.prepr.json \
    --tier large --min-abs 20 2>&1 | tee -a test_output.txt

# Fleet-throughput gate: BENCH_batch.json drives BatchEngine over the
# zipf-weighted catalog at jobs=1/2/4/N. The committed baseline is
# same-revision, so the band is a regression gate on schedules/sec;
# the absolute floor holds the ISSUE's scaling-efficiency headline
# (jobs=4 must keep >= 0.7 of the per-effective-worker throughput).
# Soft under sanitizers via chason_perf_gate's built-in detection,
# like the legs above.
build/bench/bench_perf_batch --out BENCH_batch.json \
    2>&1 | tee -a test_output.txt
build/tools/chason_perf_gate --current BENCH_batch.json \
    --baseline bench/baselines/BENCH_batch.prepr.json --min-ratio 0.5 \
    2>&1 | tee -a test_output.txt
build/tools/chason_perf_gate --current BENCH_batch.json \
    --baseline bench/baselines/BENCH_batch.prepr.json \
    --tier jobs4 --field scaling_efficiency --min-abs 0.7 \
    --min-ratio 0 2>&1 | tee -a test_output.txt

: > bench_output.txt
for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    case "$(basename "$b")" in
        bench_perf_*) continue ;; # ran above, under the perf gate
    esac
    echo "########## $(basename "$b") ##########" | tee -a bench_output.txt
    "$b" 2>&1 | tee -a bench_output.txt
    echo | tee -a bench_output.txt
done

echo "done: see test_output.txt and bench_output.txt"
