#!/usr/bin/env bash
# Runs every entry point of a built tree once: each bench (with --smoke
# where the bench has it), every example, and the lnicctl commands
# README lists. Stops at the first command that exits non-zero, and also
# requires `lnicctl loadgen poisson` to reject a rate that offers no
# load and numeric flags that are malformed or negative, `loadgen
# poisson` and `loadgen synth` to reject a rate that offers more than a
# million requests over the run, `lnicctl kv` to reject zero warehouses,
# and `lnicctl compile` to reject a program whose objects outgrow the
# card's EMEM. Outputs land in a temporary directory that is removed on
# exit.
#
#   tools/run_entry_points.sh <build-dir>
#   tools/run_entry_points.sh <build-dir> --save-golden
#   tools/run_entry_points.sh <build-dir> --check-golden
#
# --save-golden also writes each entry point's stdout and the
# BENCH_*.json it wrote to tests/golden/, replacing what is there;
# --check-golden diffs them against tests/golden/ and fails on any
# difference. Output that differs between two runs of one build (the
# wall-clock benches perf_engine, perf_datapath and micro_benchmarks,
# and supp_trace_overhead's timings) is left out of both.
set -euo pipefail

golden_mode=
if [ $# -eq 2 ] && { [ "$2" = --save-golden ] || [ "$2" = --check-golden ]; }; then
  golden_mode=${2#--}
  golden_mode=${golden_mode%-golden}
elif [ $# -ne 1 ]; then
  echo "usage: $0 <build-dir> [--save-golden | --check-golden]" >&2
  exit 1
fi
golden=$(cd "$(dirname "$0")/.." && pwd)/tests/golden
build=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
mkdir capture

# The capture name of a command: its words without the build and work
# directory prefixes, with anything but [A-Za-z0-9._-] turned into '_'.
capture_name() {
  local words="$*"
  words=${words//"$build/"/}
  words=${words//"$work/"/}
  printf '%s' "$words" | tr -c 'A-Za-z0-9._-' '_'
}

# Drops the wall-clock parts of a capture (read on stdin).
scrub() {
  case "$1" in
    bench_perf_engine* | bench_perf_datapath* | bench_micro_benchmarks* | \
        BENCH_perf_engine.json | BENCH_perf_datapath.json)
      return ;;
    bench_supp_trace_overhead)
      # The wall and export columns, the overhead they give, and the
      # flight recorder's cost per record.
      sed -E -e 's/^(  .* +[0-9]+ +[0-9.]+ +[0-9.]+ +[0-9]+) +[0-9.]+ +[0-9.]+$/\1/' \
          -e '/wall-clock recording overhead/d' \
          -e 's/[0-9.]+ ns\/record/_ ns\/record/' ;;
    BENCH_supp_trace_overhead.json)
      sed '/flightrec_ns_per_record/d' ;;
    *)
      cat ;;
  esac
}

# Keeps a finished command's stdout and BENCH_*.json for the golden diff.
capture() {
  [ -n "$golden_mode" ] || return 0
  local name
  name=$(capture_name "$@")
  scrub "$name" < out.log > "capture/$name.txt"
  [ -s "capture/$name.txt" ] || rm -f "capture/$name.txt"
  local json
  for json in BENCH_*.json; do
    [ -e "$json" ] || continue
    scrub "$json" < "$json" > "capture/$json"
    [ -s "capture/$json" ] || rm -f "capture/$json"
    rm -f "$json"
  done
}

ran=0
run() {
  echo "==> $*"
  if ! "$@" > out.log 2> err.log; then
    cat out.log err.log
    echo "FAILED: $*" >&2
    exit 1
  fi
  capture "$@"
  ran=$((ran + 1))
}

# Runs a command that must exit with the given status: 1 answers with
# usage, 2 rejects the input. The timeout keeps a regression that offers
# load forever from hanging the run.
expect_exit() {
  local want=$1
  shift
  echo "==> $* (expect exit $want)"
  local status=0
  timeout 60 "$@" > out.log 2> err.log || status=$?
  if [ "$status" -ne "$want" ]; then
    cat out.log err.log
    echo "FAILED: $* exited $status, expected $want" >&2
    exit 1
  fi
  capture "$@"
  ran=$((ran + 1))
}

for bench in fig6_isolation_latency fig7_isolation_throughput \
    fig8_contention_latency fig9_optimizer table2_contention_throughput \
    table3_resources table4_startup ablation_dispatch ablation_hotswap \
    ablation_memory ablation_nic_gateway ablation_pipeline \
    supp_hybrid_placement supp_overload supp_trace_overhead; do
  run "$build/bench/$bench"
done
for bench in perf_engine perf_datapath supp_kv_txn supp_load_scaling \
    supp_multitenant supp_traffic_mix; do
  run "$build/bench/$bench" --smoke
done
run "$build/bench/micro_benchmarks" --benchmark_min_time=0.001

for example in quickstart multi_tenant_web image_pipeline cluster_failover \
    autoscale_demo nic_kv_store custom_lambda hybrid_cluster \
    overload_recovery trace_tour traffic_mix; do
  run "$build/examples/$example"
done

lnicctl="$build/tools/lnicctl"
cat > hello.mc <<'MC'
global u8 msg[16] hot;
int hello() {
  for (var i = 0; i < 5; i += 1) { store1(msg, i, 72 + i); }
  resp_mem(msg, 0, 5);
  return 0;
}
MC
run "$lnicctl" compile hello.mc -o hello.lnfw
run "$lnicctl" disasm hello.lnfw
run "$lnicctl" run hello.lnfw --wid 1
run "$lnicctl" trace image --retransmit
run "$lnicctl" trace web --out t.json
run "$lnicctl" metrics
run "$lnicctl" metrics --filter nic_
run "$lnicctl" flightrec
run "$lnicctl" timeline --tenant acme --out tl.json
run "$lnicctl" kv --mix A --proto wait_die --metrics
run "$lnicctl" kv --mix tpcc --warehouses 1 --txns 500
run "$lnicctl" loadgen poisson --rate 2000 --duration-ms 500 \
  --functions 8 --zipf 0.9 --deadline-us 2000
run "$lnicctl" loadgen synth --out burst.trace --pattern burst \
  --duration-ms 1000 --rate 1000 --peak 4000 --functions 8 --seed 7
run "$lnicctl" loadgen trace burst.trace --deadline-us 2000
expect_exit 1 "$lnicctl" loadgen poisson --rate 0
expect_exit 1 "$lnicctl" loadgen poisson --functions 0
expect_exit 1 "$lnicctl" loadgen poisson --rate abc
expect_exit 1 "$lnicctl" loadgen poisson --functions -1
expect_exit 1 "$lnicctl" loadgen poisson --rate 1e15 --duration-ms 1 \
  --functions 1
expect_exit 1 "$lnicctl" loadgen synth --rate 1e12 --duration-ms 1000 \
  --out "$work/big.trace"
expect_exit 1 "$lnicctl" kv --mix tpcc --warehouses 0
cat > huge.mc <<'MC'
global u8 msg[4611686018427387904] hot;
int huge() {
  store1(msg, 0, 72);
  resp_mem(msg, 0, 1);
  return 0;
}
MC
expect_exit 2 "$lnicctl" compile huge.mc -o huge.lnfw

echo "all $ran entry points passed"
case "$golden_mode" in
  save)
    rm -rf "$golden"
    cp -r capture "$golden"
    echo "saved $(ls capture | wc -l) golden outputs to $golden"
    ;;
  check)
    if ! diff -ru "$golden" capture; then
      echo "FAILED: simulated outputs differ from $golden" >&2
      exit 1
    fi
    echo "all $(ls capture | wc -l) golden outputs match"
    ;;
esac
