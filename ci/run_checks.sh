#!/usr/bin/env bash
# Full merge gate: every check CI runs, runnable locally with one command.
#
#   ci/run_checks.sh            # run everything
#   ci/run_checks.sh lint       # just nok_lint (+ selftest)
#   ci/run_checks.sh release    # Release build + ctest
#   ci/run_checks.sh sanitize   # ASan/UBSan build + ctest (includes
#                               # the WAL kill-point sweep)
#   ci/run_checks.sh tsan       # TSan build + concurrency/differential/
#                               # snapshot-isolation suites
#   ci/run_checks.sh werror     # strict-warning build (NOK_WERROR=ON)
#   ci/run_checks.sh thread-safety # clang -Werror=thread-safety build of
#                               # the whole tree + negative-compile of
#                               # the committed broken fixture
#   ci/run_checks.sh bench-smoke # planner counter checks (work gate on
#                                # dblp, zero-page impossible path) and
#                                # the BP ablation bench on a tiny
#                                # dataset + JSON report validation
#                                # + a timed front insert on dblp 0.05
#                                # whose paged and bp answers must agree
#                                # + a flipped tree.nok byte that verify
#                                # and a paged query must report cleanly
#   ci/run_checks.sh fuzz-smoke  # seeded differential fuzzer under ASan:
#                                # 500 iterations across all engines x
#                                # planner strategies + corpus replay +
#                                # the broken-engine tooth check
#
# Build trees live under build-ci/ so they never collide with a local
# build/ directory.

set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)
JOBS=$(nproc 2>/dev/null || echo 4)

step() { printf '\n=== %s ===\n' "$*"; }

run_lint() {
  step "nok_lint selftest"
  python3 tools/lint/nok_lint.py --selftest
  step "nok_lint (format findings fatal in CI)"
  python3 tools/lint/nok_lint.py --root "$ROOT" --format-check --format-fatal
}

run_release() {
  step "Release build + ctest"
  cmake -S . -B build-ci/release -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci/release -j "$JOBS"
  ctest --test-dir build-ci/release --output-on-failure -j "$JOBS"
}

run_sanitize() {
  step "ASan/UBSan build + ctest"
  cmake -S . -B build-ci/sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNOK_SANITIZE=address,undefined
  cmake --build build-ci/sanitize -j "$JOBS"
  ctest --test-dir build-ci/sanitize --output-on-failure -j "$JOBS"
}

run_tsan() {
  step "TSan build + concurrency/differential suites"
  # TSan is incompatible with ASan, so it gets its own tree; the race-
  # sensitive suites are the concurrent read path and the differential
  # harness that drives the same engines single-threaded.
  cmake -S . -B build-ci/tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNOK_SANITIZE=thread
  cmake --build build-ci/tsan -j "$JOBS"
  ctest --test-dir build-ci/tsan --output-on-failure -j "$JOBS" \
        -R "^(concurrency_test|differential_test|snapshot_isolation_test)$"
}

run_werror() {
  step "Strict-warning build (NOK_WERROR=ON)"
  cmake -S . -B build-ci/werror -DCMAKE_BUILD_TYPE=Release -DNOK_WERROR=ON
  cmake --build build-ci/werror -j "$JOBS"
  # Clang sees a different warning set than GCC; run it too when present.
  if command -v clang++ >/dev/null 2>&1; then
    step "Strict-warning build (clang++)"
    cmake -S . -B build-ci/werror-clang -DCMAKE_BUILD_TYPE=Release \
          -DNOK_WERROR=ON -DCMAKE_CXX_COMPILER=clang++
    cmake --build build-ci/werror-clang -j "$JOBS"
  else
    echo "clang++ not found; skipping the Clang strict-warning build"
  fi
}

run_thread_safety() {
  step "Thread-safety gate (clang -Werror=thread-safety)"
  # Clang-only: GCC parses the annotations as no-op macros, so a GCC
  # "pass" would prove nothing.  The CMake mode itself re-verifies the
  # gate has teeth by negative-compiling the committed broken fixture
  # (tests/fixtures/thread_safety_broken.cc); see DESIGN.md section 12.
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "clang++ not found; skipping the thread-safety gate" \
         "(CI runs it; locally: install clang, then re-run)"
    return 0
  fi
  cmake -S . -B build-ci/thread-safety -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_COMPILER=clang++ -DNOK_THREAD_SAFETY=ON
  cmake --build build-ci/thread-safety -j "$JOBS"

  step "Thread-safety fixture negative-compile (direct clang++)"
  # Belt and braces beyond the CMake try_compile: invoke clang++ directly
  # on the broken fixture and demand both a failure and a thread-safety
  # diagnostic, so the gate cannot silently rot into a no-op.
  local log=build-ci/thread-safety/fixture_negative_compile.log
  if clang++ -std=c++20 -Isrc -Wthread-safety -Werror=thread-safety \
       -fsyntax-only tests/fixtures/thread_safety_broken.cc \
       >"$log" 2>&1; then
    echo "FAIL: the broken fixture compiled under -Werror=thread-safety" >&2
    exit 1
  fi
  if ! grep -Eq 'thread-safety|thread safety' "$log"; then
    echo "FAIL: fixture rejected for the wrong reason:" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "broken fixture rejected with a thread-safety diagnostic, as intended"
}

run_bench_smoke() {
  step "Planner checks (tiny dataset)"
  cmake -S . -B build-ci/bench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci/bench -j "$JOBS" --target bench_planner
  # Counter checks with no timing in them.  A schema-impossible query
  # must execute with zero pages read.  The work gate: on the 24 dblp
  # queries, in both nav modes, the auto plan's subject-tree pages + bp
  # steps + B+ fetches must stay within 1.1x of the cheapest forced start
  # strategy's, and every strategy must return the same answer.  Queries
  # read values by preorder rank from the in-memory copy of the value
  # column, so no execution may fetch a value column page.
  build-ci/bench/bench/bench_planner --scale 0.02 --work-gate \
      --json build-ci/bench/BENCH_planner.json

  step "BENCH_planner.json schema check"
  python3 - build-ci/bench/BENCH_planner.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["impossible_pages"] == 0, "impossible path read pages"
work = report["work"]
assert work["dataset"] == "dblp", f"work gate ran on {work['dataset']}"
cells = {}
for run in work["runs"]:
    assert run["work"] == run["pages"] + run["bp_steps"] + \
        run["value_fetches"] + run["column_fetches"], \
        f"work is not the counter sum: {run}"
    assert run["column_fetches"] == 0, \
        f"an execution read a value column page: {run}"
    # A run's navigator reaches the tree pool at most once per page access.
    assert run["pool_fetches"] <= run["pages"], \
        f"more tree pool fetches than page accesses: {run}"
    cells.setdefault((run["query"], run["nav_mode"]), set()).add(
        run["strategy"])
assert len(cells) == 48, f"expected 24 queries x 2 nav modes: {len(cells)}"
for cell, strategies in cells.items():
    assert strategies == {"auto", "scan", "tag-index", "value-index"}, \
        f"bad strategy set for {cell}: {strategies}"
assert work["max_ratio"] <= work["bound"], "planner work regressed"
print("BENCH_planner.json: schema ok,", len(work["runs"]), "work runs",
      f"(max auto/cheapest {work['max_ratio']:.3f})")
EOF

  step "BP navigation-tier ablation bench (tiny dataset)"
  cmake --build build-ci/bench -j "$JOBS" --target bench_bp
  # The bench itself fails if any navigation tier disagrees on results,
  # if bp mode touches any subject-tree page, or if bp misses the 5x
  # wall-time target on every navigation-bound cell.
  build-ci/bench/bench/bench_bp --scale 0.02 --runs 2 \
      --json build-ci/bench/BENCH_bp.json

  step "BENCH_bp.json schema check"
  python3 - build-ci/bench/BENCH_bp.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

for key in ("datasets", "scale", "seed", "page_size", "runs",
            "target_speedup", "best_speedup", "measurements", "checks"):
    assert key in report, f"missing key: {key}"
assert report["measurements"], "no measurements"
modes = set()
for m in report["measurements"]:
    for key in ("dataset", "mode", "nav_mode", "tag", "tag_count",
                "results", "best_seconds", "mean_seconds",
                "pages_scanned", "bp_steps",
                "bp_tag_blocks_skipped", "speedup_vs_paged"):
        assert key in m, f"measurement missing key: {key}"
    modes.add(m["mode"])
    if m["nav_mode"] == "bp":
        assert m["pages_scanned"] == 0, f"bp touched pages: {m}"
        assert m["bp_steps"] > 0, f"bp took no steps: {m}"
    else:
        assert m["bp_steps"] == 0, f"bp steps without bp mode: {m}"
assert modes == {"paged", "bp"}, f"bad mode set: {modes}"
assert report["checks"]["results_identical"] is True
assert report["checks"]["bp_zero_pages"] is True
assert report["checks"]["bp_speedup_achieved"] is True
print("BENCH_bp.json: schema ok,",
      len(report["measurements"]), "measurements,",
      f"best speedup {report['best_speedup']:.2f}x")
EOF

  step "Front insert under a 20,000-entry root (index upkeep guard)"
  # Inserting child 0 of /dblp shifts every node's Dewey ID, but no
  # persisted entry holds one: the insert rewrites the value column pages
  # around its rank and adds B+v entries for its own nodes, about a tenth
  # of a second with the open and commit.  Upkeep per shifted node would
  # take seconds, a scan per shifted node minutes, and trip the timeout.
  cmake --build build-ci/bench -j "$JOBS" --target nokq
  local nokq=build-ci/bench/tools/nokq
  local store=build-ci/bench/front-insert-store
  rm -rf "$store"
  "$nokq" gen dblp "$store" --scale 0.05
  # The BP index answers tag probes: no store writes a tag-name index.
  # It and the path synopsis are derived on every open: no store writes
  # either to disk.
  test ! -e "$store/tag.idx"
  test ! -e "$store/id.idx"
  test ! -e "$store/tree.bpx"
  test ! -e "$store/synopsis.pds"
  # Located hits: an anchored NokMatch climbs from each index hit to its
  # trunk ancestors with one Enclose per level, so on these trunk-only
  # Table-2 queries (no branch to scan) its bp steps stay within
  # in x trunk depth.  A Dewey-ID walk per hit cost about 33 steps each.
  local query depth
  while IFS='|' read -r depth query; do
    "$nokq" explain "$store" "$query" --nav-mode bp \
        > build-ci/bench/located.txt
    python3 - "$depth" "$query" build-ci/bench/located.txt <<'EOF'
import re, sys

depth, query, path = int(sys.argv[1]), sys.argv[2], sys.argv[3]
ops = [line for line in open(path) if "NokMatch" in line and
       "anchored" in line]
assert ops, f"{query}: no anchored NokMatch"
for line in ops:
    rows = int(re.search(r" in=(\d+)", line).group(1))
    steps = int(re.search(r"bp_steps=(\d+)", line).group(1))
    assert steps <= rows * depth, \
        f"{query}: {steps} bp steps for {rows} hits at trunk depth {depth}"
print(f"{query}: anchored bp steps within in x {depth}")
EOF
  done <<'QUERIES'
3|/dblp/article[journal="needle-hi-a"]
5|/dblp/article/cite/label/ref
4|/dblp/article/cite/label
3|/dblp/article/cite
QUERIES
  printf '%s%s\n' '<article key="ci/front"><author>CI</author>' \
      '<title>Front</title><year>2004</year></article>' \
      > build-ci/bench/front-frag.xml
  timeout 30 "$nokq" insert "$store" 0 0 build-ci/bench/front-frag.xml
  test ! -e "$store/tag.idx"
  test ! -e "$store/tree.bpx"
  test ! -e "$store/synopsis.pds"
  # The insert shifted every Dewey ID under /dblp.  Tag probes and scans
  # must agree after it, in both nav modes.
  local mode strategy
  for mode in paged bp; do
    for strategy in tag scan; do
      "$nokq" query "$store" '/dblp/article/cite/label' \
          --strategy "$strategy" --nav-mode "$mode" \
          > "build-ci/bench/front-$mode-$strategy.txt"
    done
    test -s "build-ci/bench/front-$mode-tag.txt"
    diff "build-ci/bench/front-$mode-tag.txt" \
        "build-ci/bench/front-$mode-scan.txt"
  done
  diff build-ci/bench/front-paged-tag.txt build-ci/bench/front-bp-tag.txt
  "$nokq" verify "$store"
  "$nokq" stats "$store"

  step "A flipped byte in a plain store is a Corruption, never a signal"
  # Every store has CRC-32C pages; no flag asks for them.  A page slot is
  # 4096 + 4 bytes (body, then CRC), so byte 4500 lies inside page 1.
  local damaged=build-ci/bench/damaged-store
  rm -rf "$damaged"
  "$nokq" gen dblp "$damaged" --scale 0.02
  python3 - "$damaged/tree.nok" <<'EOF'
import sys

path = sys.argv[1]
with open(path, "rb") as f:
    data = bytearray(f.read())
data[4500] ^= 0x01
with open(path, "wb") as f:
    f.write(data)
EOF
  local rc=0
  "$nokq" verify "$damaged" 2> build-ci/bench/damaged-verify.txt || rc=$?
  cat build-ci/bench/damaged-verify.txt
  test "$rc" -eq 1
  grep -q 'damage \[tree.nok\]: .*checksum mismatch on page 1:' \
      build-ci/bench/damaged-verify.txt
  rc=0
  "$nokq" query "$damaged" '//*' --nav-mode paged > /dev/null \
      2> build-ci/bench/damaged-query.txt || rc=$?
  cat build-ci/bench/damaged-query.txt
  # 128 and above is death by a signal (an abort is 134).
  test "$rc" -ne 0 && test "$rc" -lt 128
  grep -q 'Corruption' build-ci/bench/damaged-query.txt
}

run_fuzz_smoke() {
  step "Differential fuzzer (ASan/UBSan build, fixed seeds)"
  # Fixed seeds keep the run reproducible: a CI failure replays locally
  # with the same NOK_FUZZ_SEED.  The test itself shrinks any mismatch
  # and writes a self-contained .repro next to the binary.
  cmake -S . -B build-ci/sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNOK_SANITIZE=address,undefined
  cmake --build build-ci/sanitize -j "$JOBS" \
        --target fuzz_differential_test
  # 500 seeded iterations, the committed-corpus replay, and the
  # broken-engine tooth check all live in one gtest binary.  A hang fails
  # the leg instead of stalling it; the sweep prints each seed before
  # checking it, so the last seed in the log is the runaway case.
  NOK_FUZZ_ITERATIONS=500 NOK_FUZZ_SEED=1 \
      timeout 900 build-ci/sanitize/tests/fuzz_differential_test
}

case "${1:-all}" in
  lint)           run_lint ;;
  release)        run_release ;;
  sanitize)       run_sanitize ;;
  tsan)           run_tsan ;;
  werror)         run_werror ;;
  thread-safety)  run_thread_safety ;;
  bench-smoke)    run_bench_smoke ;;
  fuzz-smoke)     run_fuzz_smoke ;;
  all)
    run_lint
    run_release
    run_sanitize
    run_tsan
    run_werror
    run_thread_safety
    run_bench_smoke
    run_fuzz_smoke
    step "all checks passed"
    ;;
  *)
    echo "unknown check: $1" \
         "(expected lint|release|sanitize|tsan|werror|" \
         "thread-safety|bench-smoke|fuzz-smoke|all)" >&2
    exit 2
    ;;
esac
