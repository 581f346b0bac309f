#!/bin/bash
# Repo gate, organized as named stages:
#
#   fmt     cargo fmt --check
#   clippy  cargo clippy --workspace -D warnings
#   golden  golden wire-trace gate: re-run the traced scenarios and
#           byte-diff their digests against tests/golden/*.trace.
#           `./ci.sh --bless` (or `--stage golden --bless`) regenerates
#           the snapshots instead of failing (commit the diff). Where
#           `taskset` exists, the traces are generated again pinned to
#           one CPU and diffed against the same snapshots, and the
#           simnet unit tests run pinned the same way.
#   bench   quick bench-regression gate: every bench with a committed
#           BENCH_*.json baseline runs --quick, then check_bench --all
#           verifies the fresh set matches the baseline set one-to-one
#           (a bench missing from this stage is itself a failure) and
#           applies each suite's typed gates (loose tolerance — quick
#           runs are noisier; the structural invariants stay exact:
#           mux links/walks==1, storm walks==pairs, relaymesh 4-relay
#           scaling >= 2x + BUSY engagement + failover FIFO).
#   faults  fault-matrix smoke under three fixed RNG seeds, over the
#           faults, storm, relay_mesh and adaptive suites, plus the
#           simnet hop-fusion equivalence suite (NETGRID_TEST_SEED
#           shifts every Sim seed and the scenario generator; the
#           replay command is printed on failure).
#   test    full workspace test suite.
#
# `./ci.sh` runs everything in the order above (golden and bench build
# the release workspace first). `./ci.sh --stage bench` runs one stage;
# repeat or comma-separate to pick several (`--stage fmt,clippy`);
# `./ci.sh --stage list` prints the stage names and exits.
# Every run ends with a per-stage wall-clock summary.
# run_benches.sh covers the full (slow) perf side separately.
set -eu
cd "$(dirname "$0")"

BLESS=0
STAGES=""
while [ $# -gt 0 ]; do
  case "$1" in
    --bless) BLESS=1 ;;
    --stage) shift; STAGES="$STAGES ${1//,/ }" ;;
    --stage=*) a=${1#--stage=}; STAGES="$STAGES ${a//,/ }" ;;
    *) echo "ci.sh: unknown argument $1 (try --stage fmt|clippy|golden|bench|faults|test, --bless)"; exit 2 ;;
  esac
  shift
done
ALL_STAGES="fmt clippy golden bench faults test"
[ -z "$STAGES" ] && STAGES="$ALL_STAGES"
for s in $STAGES; do
  case "$s" in
    fmt|clippy|golden|bench|faults|test) ;;
    list) for n in $ALL_STAGES; do echo "$n"; done; exit 0 ;;
    *) echo "ci.sh: unknown stage '$s' (fmt|clippy|golden|bench|faults|test, or 'list' to print them)"; exit 2 ;;
  esac
done

BIN=./target/release
GOLD=tests/golden
FRESH=target/golden
mkdir -p "$FRESH"

# The release workspace build backs the golden and bench stages; run it
# once per invocation, only when a stage needs the bins.
BUILT=0
ensure_build() {
  if [ "$BUILT" = 0 ]; then
    echo "--- cargo build --release --workspace"
    cargo build --release --workspace
    BUILT=1
  fi
}

stage_fmt() {
  cargo fmt --check
}

stage_clippy() {
  cargo clippy --workspace -- -D warnings
}

# Regenerate the golden traces into dir $1, running every scenario under
# the optional command prefix in the remaining arguments.
gen_traces() { # dir [prefix...]
  local dir=$1; shift
  mkdir -p "$dir"
  # Each entry: trace-name :: command. The digest file hashes every packet
  # event of every run in the binary, so any wire-level divergence fails.
  run_trace() { # name cmd...
    local name=$1; shift
    echo "--- $name: $*"
    NETGRID_TRACE="$dir/$name.trace" "$@" > /dev/null
  }
  run_trace fig9_quick "$@" "$BIN/fig9_amsterdam_rennes" --quick
  run_trace dbg_bw "$@" "$BIN/dbg_bw" --total 2097152
  run_trace mux_pair "$@" "$BIN/bench_mux" --pair
  # table1's golden is the binary's full stdout (method matrix +
  # establishment outcomes), which pins the same simulations at the
  # application level.
  echo "--- table1: $* $BIN/table1_matrix (stdout snapshot)"
  "$@" "$BIN/table1_matrix" > "$dir/table1.trace"
}

# Byte-diff the traces in dir $1 against tests/golden/; returns 1 on a diff.
diff_traces() { # dir label
  local fail=0 t
  for t in fig9_quick dbg_bw mux_pair table1; do
    if ! cmp -s "$GOLD/$t.trace" "$1/$t.trace"; then
      echo "GOLDEN TRACE DIFF ($2): $t"
      diff "$GOLD/$t.trace" "$1/$t.trace" | head -20 || true
      fail=1
    else
      echo "golden $t ($2): identical"
    fi
  done
  return "$fail"
}

stage_golden() {
  ensure_build
  gen_traces "$FRESH"
  local t
  if [ "$BLESS" = 1 ]; then
    for t in fig9_quick dbg_bw mux_pair table1; do
      cp "$FRESH/$t.trace" "$GOLD/$t.trace"
      echo "blessed $GOLD/$t.trace"
    done
  elif ! diff_traces "$FRESH" "all CPUs"; then
    echo "wire traces diverged from tests/golden/. If the change is intended,"
    echo "re-run './ci.sh --bless' and commit the updated snapshots."
    return 1
  fi
  # The simulation must not depend on how many cores the host gives it:
  # the same traces again on one CPU, and the simulator's unit tests.
  if command -v taskset > /dev/null; then
    gen_traces "$FRESH/one_cpu" taskset -c 0
    if ! diff_traces "$FRESH/one_cpu" "one CPU"; then
      echo "wire traces on one CPU diverged from tests/golden/"
      return 1
    fi
    echo "--- taskset -c 0 cargo test -q -p gridsim-net --release --lib"
    taskset -c 0 cargo test -q -p gridsim-net --release --lib
  else
    echo "golden: taskset not found; skipping the one-CPU re-run"
  fi
}

stage_bench() {
  ensure_build
  # Fresh quick runs land in their own dir under the baseline names, so
  # check_bench --all can pair them with the repo-root BENCH_*.json set
  # and fail (exit 2) on any bench missing from this stage.
  local QUICK="$FRESH/bench"
  rm -rf "$QUICK" && mkdir -p "$QUICK"
  "$BIN/bench_datapath" --quick --out "$QUICK/BENCH_datapath.json" > /dev/null 2>&1
  "$BIN/bench_faults" --quick --out "$QUICK/BENCH_faults.json" > /dev/null
  "$BIN/bench_mux" --quick --out "$QUICK/BENCH_mux.json" > /dev/null
  "$BIN/bench_storm" --quick --out "$QUICK/BENCH_storm.json" > /dev/null
  "$BIN/bench_relay_mesh" --quick --out "$QUICK/BENCH_relaymesh.json" > /dev/null
  "$BIN/bench_adaptive" --quick --out "$QUICK/BENCH_adaptive.json" > /dev/null
  # Quick runs shorten the workload only, so structural gates hold; host
  # speed varies, so the drift tolerance is loose. run_benches.sh applies
  # the strict 20% gate on full runs.
  "$BIN/check_bench" --all --fresh-dir "$QUICK" --tolerance 0.35
}

stage_faults() {
  local seed suite
  for seed in 0 7 13; do
    for suite in faults storm relay_mesh adaptive; do
      echo "--- NETGRID_TEST_SEED=$seed --test $suite"
      if ! NETGRID_TEST_SEED=$seed cargo test -q -p netgrid --test "$suite" --release; then
        echo "FAULT MATRIX FAILED: suite $suite under NETGRID_TEST_SEED=$seed"
        echo "replay with: NETGRID_TEST_SEED=$seed cargo test -p netgrid --test $suite"
        return 1
      fi
    done
    echo "--- NETGRID_TEST_SEED=$seed -p gridsim-net --test fusion"
    if ! NETGRID_TEST_SEED=$seed cargo test -q -p gridsim-net --test fusion --release; then
      echo "FAULT MATRIX FAILED: suite fusion under NETGRID_TEST_SEED=$seed"
      echo "replay with: NETGRID_TEST_SEED=$seed cargo test -p gridsim-net --test fusion"
      return 1
    fi
  done
}

stage_test() {
  cargo test -q --workspace
}

SUMMARY=""
t_total=$SECONDS
for s in $STAGES; do
  echo "=== stage $s ==="
  t0=$SECONDS
  rc=0
  "stage_$s" || rc=$?
  dt=$((SECONDS - t0))
  if [ "$rc" != 0 ]; then
    SUMMARY="$SUMMARY$(printf '  %-8s %5ss  FAILED' "$s" "$dt")\n"
    printf 'ci summary (wall clock):\n%b' "$SUMMARY"
    exit "$rc"
  fi
  SUMMARY="$SUMMARY$(printf '  %-8s %5ss  ok' "$s" "$dt")\n"
done
printf 'ci summary (wall clock):\n%b' "$SUMMARY"
printf '  %-8s %5ss\n' total $((SECONDS - t_total))
echo "ci: all stages passed"
