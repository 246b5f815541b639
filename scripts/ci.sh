#!/usr/bin/env bash
# Tier-1 verification in the three shipping configurations:
#   1. Release            — the configuration benchmarks are run in
#   2. Debug + ASan/UBSan — catches what optimized builds hide
#   3. Debug + TSan       — proves the primitives (util::ThreadPool, the
#      annotated Mutex/CondVar), the concurrent query path (threads calling
#      Execute on a shared SearchContext), the serving layer (QueryService::Submit
#      + ResultCache) and the TCP front end (net::Server event loop vs pool
#      workers) race on nothing; runs the util-, search-, serve- and
#      net-labeled suites, which include the concurrency/stampede stress
#      aggregates (labeled search;slow / serve;slow).
# The release lane first fails on an orphan bench baseline: every
# bench/baselines/<name>.json needs an osum_add_bench(<name> line in
# bench/CMakeLists.txt, so deleting a bench cannot leave its baseline
# behind. It also smokes the bench `--json` output mode (bench_cache
# runs at --tiny sizes and its JSON must parse; the bench itself exits
# nonzero if the >=10x hot-hit speedup gate fails or the long-tail
# admission gate fails), diffs that run against the checked-in baseline as
# a NON-FATAL report (scripts/bench_diff.py — tiny-vs-reference numbers
# differ by design; the report proves the diff plumbing), gates the
# Figure 10(f) shape (bench_backend_ratio --tiny exits nonzero unless the
# database back end is slower than the data graph at every OS size and at
# least 10x slower on the largest), and smokes the api wire format: `osum_cli query --wire json` must produce a document
# Python's json module parses, an out-of-range number on the CLI must
# print a usage line and exit 0, an unknown first command must be reported
# as unknown (`osum_cli frobnicate` prints "unknown command 'frobnicate'",
# not a missing-database error), and the CLI's cached path must work end
# to end (`osum_cli "build dblp; serve faloutsos 6; serve faloutsos 6;
# metrics"` prints a MISS line, then a HIT line, then a metrics report
# counting 2 queries and 1 hit, and its partials line reads hits 0,
# misses 0, inserts 0 because those prelim-l trees never reach the memo
# of complete OSs), and so must its admission policy (with
# `policy admission=on`, three serves print MISS, MISS, HIT and the report
# counts 1 admission reject; `policy ttl=5` prints the usage line). The
# `quickstart` and `dblp_search` examples
# must each exit 0 and print a non-empty ranked result. Finally the serving
# benchmark (perfbench/run.py) builds from this checkout and runs each of
# its three workloads for 2 s, plus one traced run; every run's result line
# must report "correct": true and "failed": 0, so a src/ API change cannot
# break the benchmark unnoticed.
#
# Dedicated full-size perf lane (opt-in): OSUM_PERF_LANE=1 scripts/ci.sh
# builds Release only, runs bench_cache, bench_net and bench_micro at FULL
# size and gates each hard with scripts/bench_diff.py --strict against its
# checked-in baseline — then exits without rerunning the test lanes (the
# default invocation owns those; CI wires the perf lane as a separate
# job). Only the deterministic rows can fail the gate (bench_cache hit
# rates, evictions and admission rejects; bench_net request/response
# counts; bench_micro DP and partials-memo counters — all seeded and
# machine-independent), and they gate near-exactly (--gate-metrics with
# --gate-tolerance 0.001); timing rows from a different-machine baseline
# stay a visible drift report, never a spurious red. A gated row going
# missing also fails (the gate cannot be silently emptied).
# Usage: scripts/ci.sh            (JOBS=<n> to override parallelism)
#        scripts/ci.sh lint       (static-analysis lane; see scripts/lint.sh)
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

# The static-analysis lane: Clang thread-safety build, clang-tidy,
# clang-format, shellcheck/pyflakes. --require-tools makes a missing tool a
# failure — CI installs the full set, so nothing is silently skipped there.
if [[ "${1:-}" == "lint" ]]; then
  exec ./scripts/lint.sh --require-tools
fi

if [[ "${OSUM_PERF_LANE:-0}" == "1" ]]; then
  echo "==== perf lane: full-size bench_cache vs baseline (--strict) ===="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "${JOBS}" --target bench_cache bench_net
  perf_json="build-release/bench_cache_perf.json"
  build-release/bench/bench_cache --json "${perf_json}"
  python3 scripts/bench_diff.py bench/baselines/bench_cache.json \
          "${perf_json}" --strict \
          --gate-metrics 'hit_rate|evictions|admission_rejects' \
          --gate-tolerance 0.001
  echo "==== perf lane: full-size bench_net vs baseline (--strict) ===="
  # The request/response counts are seeded and machine-independent: the
  # same box-independent totals every run, so they gate near-exactly.
  # Latency/QPS rows from a different-machine baseline stay report-only.
  net_json="build-release/bench_net_perf.json"
  build-release/bench/bench_net --json "${net_json}"
  python3 scripts/bench_diff.py bench/baselines/bench_net.json \
          "${net_json}" --strict \
          --gate-metrics 'requests_sent|responses_ok|garbage_sent|malformed_rejects|valid_ok|frames_in|responses_out|malformed_frames|dropped_responses|sheds_at_admission|sheds_at_dequeue|responses_deadline_exceeded' \
          --gate-tolerance 0.001
  # DP hot-path gate (ISSUE 10): bench_micro's --json mode is a seeded,
  # single-threaded workload, so the arena-allocation and partials-reuse
  # rows are machine-independent and gate near-exactly. The target only
  # exists when google-benchmark is installed; skipping on machines
  # without it is explicit, never a silent compile-failure swallow. No
  # `grep -q`: it exits at the first match, the make behind `help` then
  # dies of SIGPIPE, and pipefail would turn the match into a skip.
  if cmake --build build-release --target help | grep 'bench_micro' \
      > /dev/null; then
    echo "==== perf lane: full-size bench_micro vs baseline (--strict) ===="
    cmake --build build-release -j "${JOBS}" --target bench_micro
    micro_json="build-release/bench_micro_perf.json"
    build-release/bench/bench_micro --json "${micro_json}"
    python3 scripts/bench_diff.py bench/baselines/bench_micro.json \
            "${micro_json}" --strict \
            --gate-metrics 'dp_queries|dp_operations|dp_allocations|dp_bytes_reserved|partials_reused|partials_misses|partials_inserts|partials_entries|partials_sweep_reused|partials_sweep_misses' \
            --gate-tolerance 0.001
  else
    echo "==== perf lane: bench_micro skipped (google-benchmark not found) ===="
  fi
  echo "==== perf lane green ===="
  exit 0
fi

# run_config <build-dir> <ctest extra args...> -- <cmake args...>
run_config() {
  local dir="$1"
  shift
  local ctest_args=()
  while [[ "$1" != "--" ]]; do
    ctest_args+=("$1")
    shift
  done
  shift
  echo "==== configuring ${dir} ($*) ===="
  cmake -B "${dir}" -S . "$@"
  cmake --build "${dir}" -j "${JOBS}"
  # --no-tests=error: a label filter matching nothing must fail the lane,
  # not pass it vacuously.
  ctest --test-dir "${dir}" --output-on-failure --no-tests=error \
        -j "${JOBS}" "${ctest_args[@]+"${ctest_args[@]}"}"
}

echo "==== no orphan bench baselines ===="
for baseline in bench/baselines/*.json; do
  name="$(basename "${baseline}" .json)"
  if ! grep -Eq "osum_add_bench\(${name}([[:space:]]|\$)" bench/CMakeLists.txt; then
    echo "orphan baseline ${baseline}: no osum_add_bench(${name} in bench/CMakeLists.txt" >&2
    exit 1
  fi
done

run_config build-release -- -DCMAKE_BUILD_TYPE=Release

# Bench JSON smoke: tiny sizes, but the output must be well-formed JSON
# (python parses it strictly) and the bench's own speedup gate must pass —
# a missing/malformed file fails the lane, mirroring --no-tests=error.
echo "==== bench --json smoke (bench_cache --tiny) ===="
smoke_json="build-release/bench_cache_smoke.json"
build-release/bench/bench_cache --tiny --json "${smoke_json}"
python3 -m json.tool "${smoke_json}" > /dev/null
echo "bench JSON smoke ok: ${smoke_json}"

# DP hot-path smoke: bench_micro's deterministic --json mode exits
# nonzero if shared-scratch DP or the partials memo ever diverges from
# the fresh compute, or if the overlap workload gets zero reuse. Guarded
# on the binary: the target is absent without google-benchmark.
if [[ -x build-release/bench/bench_micro ]]; then
  echo "==== dp hot-path smoke (bench_micro --tiny --json) ===="
  micro_smoke_json="build-release/bench_micro_smoke.json"
  build-release/bench/bench_micro --tiny --json "${micro_smoke_json}"
  python3 -m json.tool "${micro_smoke_json}" > /dev/null
  echo "dp hot-path smoke ok: ${micro_smoke_json}"
else
  echo "==== dp hot-path smoke skipped (no bench_micro binary) ===="
fi

# TCP front-end smoke: bench_net drives a real server over loopback
# sockets at --tiny sizes — it exits nonzero on any lost response,
# unrejected garbage frame or dirty drain, and its JSON must parse.
echo "==== net smoke (bench_net --tiny --json) ===="
net_smoke_json="build-release/bench_net_smoke.json"
build-release/bench/bench_net --tiny --json "${net_smoke_json}"
python3 -m json.tool "${net_smoke_json}" > /dev/null
echo "net smoke ok: ${net_smoke_json}"

# Figure 10(f) shape gate: bench_backend_ratio exits nonzero unless the
# database back end costs more than the data graph at every OS size and
# at least 10x more on the largest one; its JSON must parse.
echo "==== backend ratio gate (bench_backend_ratio --tiny --json) ===="
ratio_json="build-release/bench_backend_ratio_smoke.json"
build-release/bench/bench_backend_ratio --tiny --json "${ratio_json}"
python3 -m json.tool "${ratio_json}" > /dev/null
echo "backend ratio gate ok: ${ratio_json}"

# Non-fatal perf-drift report: --tiny numbers are not comparable to the
# reference-container baseline, but the diff proves rows match up and the
# tolerance plumbing works. Dedicated perf lanes run this with --strict on
# full-size output instead.
echo "==== bench_diff report (non-fatal, tiny vs reference baseline) ===="
python3 scripts/bench_diff.py bench/baselines/bench_cache.json \
        "${smoke_json}" || echo "bench_diff reported issues (non-fatal)"

# Wire-format smoke: the CLI's canonical JSON response must parse with a
# strict parser. The CLI prints a build banner first, so parse from the
# first '{'.
echo "==== api wire smoke (osum_cli query --wire json) ===="
wire_out="build-release/cli_wire_smoke.out"
build-release/examples/osum_cli "build dblp; query --wire json faloutsos 6" \
        > "${wire_out}"
python3 - "${wire_out}" <<'PY'
import json, sys
text = open(sys.argv[1], encoding="utf-8").read()
doc = json.loads(text[text.index("{"):])
assert doc["kind"] == "query_response" and doc["v"] == 1, doc
assert doc["status"]["code"] == 0 and doc["results"], doc["status"]
print(f"wire smoke ok: {len(doc['results'])} result(s), "
      f"status {doc['status']['code']}")
PY

# CLI number smoke: a trailing number past 64 bits is rejected with the
# usage line, not an uncaught std::out_of_range (set -e fails the lane on
# the abort, grep on a missing usage line).
echo "==== cli number smoke (osum_cli query <kw> <huge l>) ===="
build-release/examples/osum_cli \
    "build dblp; query faloutsos 99999999999999999999999" \
    > build-release/cli_number_smoke.out
grep -q '^usage: query ' build-release/cli_number_smoke.out
echo "cli number smoke ok"

# CLI unknown-command smoke: an unknown word is rejected before the
# database check, so a typo in the first command is not misreported as a
# missing database.
echo "==== cli unknown-command smoke (osum_cli frobnicate) ===="
build-release/examples/osum_cli "frobnicate" \
    > build-release/cli_unknown_smoke.out
grep -q "^unknown command 'frobnicate'" build-release/cli_unknown_smoke.out
echo "cli unknown-command smoke ok"

# CLI cache smoke: the same query served twice through QueryService is a
# miss, then a hit, and FormatMetricsReport counts both. Both serves are
# prelim-l, so the partials memo (complete OSs only) sees no traffic. The
# four lines must appear in this order.
echo "==== cli cache smoke (osum_cli serve x2; metrics) ===="
cache_out="build-release/cli_cache_smoke.out"
build-release/examples/osum_cli \
    "build dblp; serve faloutsos 6; serve faloutsos 6; metrics" \
    > "${cache_out}"
python3 - "${cache_out}" <<'PY'
import re, sys
lines = open(sys.argv[1], encoding="utf-8").read().splitlines()
want = [r"^\[MISS, ", r"^\[HIT, ", r"^queries 2 \| hits 1 ",
        r"^partials: hits 0, misses 0, inserts 0 "]
at = 0
for line in lines:
    if at < len(want) and re.match(want[at], line):
        at += 1
assert at == len(want), f"cli cache smoke: missing {want[at]!r} in order"
print("cli cache smoke ok")
PY

# CLI admission smoke: with the doorkeeper on, a query is cached on its
# second sighting, so three serves are a miss, a miss and a hit, and the
# metrics report counts the one rejected first sighting. A removed policy
# knob (ttl=) must be refused with the usage line, not silently ignored.
echo "==== cli admission smoke (osum_cli policy admission=on; serve x3) ===="
admission_out="build-release/cli_admission_smoke.out"
build-release/examples/osum_cli \
    "build dblp; policy admission=on; serve faloutsos 6; serve faloutsos 6; serve faloutsos 6; metrics" \
    > "${admission_out}"
python3 - "${admission_out}" <<'PY'
import re, sys
lines = open(sys.argv[1], encoding="utf-8").read().splitlines()
want = [r"^\[MISS, ", r"^\[MISS, ", r"^\[HIT, ",
        r"^policy: admission rejects 1 "]
at = 0
for line in lines:
    if at < len(want) and re.match(want[at], line):
        at += 1
assert at == len(want), f"cli admission smoke: missing {want[at]!r} in order"
print("cli admission smoke ok")
PY
build-release/examples/osum_cli "build dblp; policy ttl=5" \
    > build-release/cli_policy_usage_smoke.out
grep -q '^usage: policy ' build-release/cli_policy_usage_smoke.out
echo "cli policy usage smoke ok"

# Examples smoke: each example builds its own SearchContext and prints
# ranked results ("--- |OS|=..." in quickstart, "#1  [importance ..." in
# dblp_search); set -e fails the lane on a nonzero exit, grep on an empty
# ranking.
echo "==== examples smoke (quickstart, dblp_search) ===="
build-release/examples/quickstart > build-release/quickstart_smoke.out
grep -q '^--- |OS|=' build-release/quickstart_smoke.out
build-release/examples/dblp_search > build-release/dblp_search_smoke.out
grep -q '^#1 ' build-release/dblp_search_smoke.out
echo "examples smoke ok"

# perfbench smoke: run.py itself fails on a build error, a nonzero exit or
# a result whose metric names differ from BENCHMARK.json; this adds the
# correctness verdict. Its build tree lives under build-release.
echo "==== perfbench smoke (3 workloads x 2 s, plus --trace 1) ===="
perfbench_smoke() {
  local out="build-release/perfbench_smoke_$1_trace$2.out"
  CARGO_TARGET_DIR=build-release/perfbench-smoke python3 perfbench/run.py \
      --workload "$1" --seed 1 --seconds 2 --trace "$2" > "${out}"
  python3 - "${out}" <<'PY'
import json, sys
lines = open(sys.argv[1], encoding="utf-8").read().strip().splitlines()
result = json.loads(lines[-1])
assert result["correct"] is True and result["failed"] == 0, result
print(f"perfbench smoke ok: {sys.argv[1]}: {result['attempted']} attempted")
PY
}
for workload in dblp_authors_db dblp_titles_db tpch_dp_db; do
  perfbench_smoke "${workload}" 0
done
perfbench_smoke dblp_titles_db 1

run_config build-asan -- -DCMAKE_BUILD_TYPE=Debug -DOSUM_SANITIZE=address
# Benches and examples are never executed under TSan; skip their
# instrumented compile.
run_config build-tsan -L 'util|search|serve|net' -- \
           -DCMAKE_BUILD_TYPE=Debug -DOSUM_SANITIZE=thread \
           -DOSUM_BUILD_BENCHMARKS=OFF -DOSUM_BUILD_EXAMPLES=OFF
echo "==== ci.sh: all configurations green ===="
