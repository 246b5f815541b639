#!/usr/bin/env bash
# The static-analysis lane (ISSUE 9): Clang thread-safety build, clang-tidy,
# clang-format, shellcheck/pyflakes over the tooling, plus grep-based
# annotation-coverage checks that need no tools at all.
#
# Usage:
#   scripts/lint.sh                 # run what the machine has, skip the rest
#   scripts/lint.sh --require-tools # CI mode: a missing tool fails the lane
#
# Local toolboxes vary (the dev container ships only GCC), so each section
# gates on tool availability and reports what it skipped; CI installs the
# full set and passes --require-tools so nothing is silently skipped there.
set -euo pipefail

cd "$(dirname "$0")/.."

REQUIRE_TOOLS=0
if [[ "${1:-}" == "--require-tools" ]]; then
  REQUIRE_TOOLS=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: $0 [--require-tools]" >&2
  exit 2
fi

SKIPPED=()
FAILED=0

have() { command -v "$1" >/dev/null 2>&1; }

skip() {
  echo "[lint] SKIP: $1 (missing: $2)"
  SKIPPED+=("$1")
}

section() { echo; echo "[lint] == $1 =="; }

# ---------------------------------------------------------------------------
# 1. Thread-safety build: all library targets under Clang with
#    -Werror=thread-safety (OSUM_LINT=ON). Tests/benches/examples are out of
#    scope — they use their own unannotated std::mutex fixtures by design.
# ---------------------------------------------------------------------------
section "clang -Werror=thread-safety build"
if have clang++ && have cmake; then
  cmake -B build-lint -S . \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=Release \
    -DOSUM_LINT=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DOSUM_BUILD_TESTS=OFF \
    -DOSUM_BUILD_BENCHMARKS=OFF \
    -DOSUM_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-lint -j "$(nproc)"
  echo "[lint] thread-safety build OK"
else
  skip "thread-safety build" "clang++/cmake"
fi

# ---------------------------------------------------------------------------
# 2. clang-tidy over src/ with the checked-in .clang-tidy (zero findings;
#    WarningsAsErrors promotes everything). Uses the compile database from
#    the lint build above, so it only runs when that build did.
# ---------------------------------------------------------------------------
section "clang-tidy"
if [[ -f build-lint/compile_commands.json ]] && have clang-tidy; then
  if have run-clang-tidy; then
    run-clang-tidy -p build-lint -quiet "src/.*\.cc$"
  else
    find src -name '*.cc' -print0 |
      xargs -0 -P "$(nproc)" -n 1 clang-tidy -p build-lint --quiet
  fi
  echo "[lint] clang-tidy OK"
else
  skip "clang-tidy" "clang-tidy (or no lint compile database)"
fi

# ---------------------------------------------------------------------------
# 3. clang-format check, changed-files mode: full-tree formatting predates
#    this lane, so only files this branch touches must be clean.
# ---------------------------------------------------------------------------
section "clang-format (changed files)"
if have clang-format && have git; then
  base="$(git merge-base origin/main HEAD 2>/dev/null ||
          git rev-parse HEAD~1 2>/dev/null || true)"
  if [[ -n "$base" ]]; then
    mapfile -t changed < <(git diff --name-only --diff-filter=d "$base" -- \
      'src/*.h' 'src/*.cc' 'tests/*.h' 'tests/*.cc')
  else
    mapfile -t changed < <(git ls-files 'src/*.h' 'src/*.cc')
  fi
  if ((${#changed[@]})); then
    clang-format --dry-run -Werror "${changed[@]}"
    echo "[lint] clang-format OK (${#changed[@]} files)"
  else
    echo "[lint] clang-format: no changed C++ files"
  fi
else
  skip "clang-format" "clang-format/git"
fi

# ---------------------------------------------------------------------------
# 4. Lint the tooling itself: shellcheck on the CI scripts, pyflakes (or
#    ruff) on the bench diff tool.
# ---------------------------------------------------------------------------
section "shellcheck"
if have shellcheck; then
  shellcheck scripts/ci.sh scripts/lint.sh
  echo "[lint] shellcheck OK"
else
  skip "shellcheck" "shellcheck"
fi

section "python lint"
if have ruff; then
  ruff check scripts/bench_diff.py
  echo "[lint] ruff OK"
elif python3 -c 'import pyflakes' 2>/dev/null; then
  python3 -m pyflakes scripts/bench_diff.py
  echo "[lint] pyflakes OK"
elif have python3; then
  # Floor: at least prove it parses.
  python3 -m py_compile scripts/bench_diff.py
  skip "python lint (py_compile floor only)" "ruff/pyflakes"
else
  skip "python lint" "python3"
fi

# ---------------------------------------------------------------------------
# 5. Annotation-coverage spot checks (no tools needed, never skipped):
#    every migrated concurrent file carries annotations, and no raw std
#    lock primitives remain in the migrated layers — a raw std::mutex is
#    invisible to the analysis, which is exactly how discipline erodes.
# ---------------------------------------------------------------------------
section "annotation coverage (grep)"
ANNOTATED_HEADERS=(
  src/util/thread_pool.h
  src/core/join_cache.h
  src/core/partials_memo.h
  src/serve/result_cache.h
  src/serve/query_service.h
  src/net/event_loop.h
  src/net/server.h
)
for f in "${ANNOTATED_HEADERS[@]}"; do
  if ! grep -q 'GUARDED_BY' "$f"; then
    echo "[lint] FAIL: $f has no GUARDED_BY annotations" >&2
    FAILED=1
  fi
done

# util/mutex.h is the one allowed home of the raw primitives (it wraps
# them); everything else in the migrated layers must use the wrappers.
# util/bounded_lru.h holds no lock at all: its owners guard it.
if grep -rn --include='*.h' --include='*.cc' \
    -e 'std::mutex' -e 'std::condition_variable' \
    -e 'std::lock_guard' -e 'std::scoped_lock' \
    src/util/thread_pool.h src/util/thread_pool.cc src/util/bounded_lru.h \
    src/core/join_cache.h src/core/join_cache.cc \
    src/core/partials_memo.h src/core/partials_memo.cc src/serve src/net; then
  echo "[lint] FAIL: raw std lock primitives in migrated layers (use" \
       "util::Mutex/util::CondVar/util::MutexLock from util/mutex.h)" >&2
  FAILED=1
else
  echo "[lint] annotation coverage OK"
fi

# std::unique_lock is allowed only inside util/mutex.h's CondVar bridge.
if grep -rn --include='*.h' --include='*.cc' 'std::unique_lock' \
    src/util/thread_pool.h src/util/thread_pool.cc src/util/bounded_lru.h \
    src/core/join_cache.h src/core/join_cache.cc \
    src/core/partials_memo.h src/core/partials_memo.cc src/serve src/net; then
  echo "[lint] FAIL: std::unique_lock outside util/mutex.h" >&2
  FAILED=1
fi

# ---------------------------------------------------------------------------
echo
if ((${#SKIPPED[@]})); then
  echo "[lint] skipped sections: ${SKIPPED[*]}"
  if ((REQUIRE_TOOLS)); then
    echo "[lint] FAIL: --require-tools set but tools were missing" >&2
    FAILED=1
  fi
fi
if ((FAILED)); then
  echo "[lint] FAILED" >&2
  exit 1
fi
echo "[lint] all checks passed"
