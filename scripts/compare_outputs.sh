#!/usr/bin/env bash
# Byte-compares every deterministic output of a base revision against the
# working tree: the gate for changes that delete code and promise identical
# results.
#
#   scripts/compare_outputs.sh <base-rev>
#
# Exports <base-rev> with `git archive` into a temporary directory, builds it
# and the working tree there (default RelWithDebInfo build), runs the outputs
# below on both builds at MITT_TRIAL_WORKERS=1 and 4, and diffs them:
#   - stdout of bench_fig3 .. bench_fig13, bench_allinone, bench_table1_nosql,
#     bench_ablation_accuracy, bench_writes and bench_failslow;
#   - stdout of examples/slo_aware_lsm (an LSM cluster's Get+Put mix) and of
#     examples/quickstart, noisy_neighbor_cluster and deadline_tuning (the
#     DocStore server path);
#   - stdout and JSON scorecard of bench_resilience --chaos 8 (the CI
#     resilience-chaos sweep, so the resilient walk's timeout, denied-retry,
#     late-reply and backoff paths are compared), bench_tenant --small and
#     bench_replay --small;
#   - `chaos_tool replay` over the working tree's tests/data/chaos_corpus.
# Host-time output is dropped before the diff: bench_replay's "IOs/s" and
# "max RSS" lines and its JSON "scale" block, and bench_tenant's "wall" line.
# Each output file ends with the program's exit status.
#
# Exits 0 when everything matches, 1 on any difference (the temporary
# directory is then kept for inspection), 2 on a usage or build error.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
base=$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}") || {
  echo "compare_outputs: unknown revision '$1'" >&2
  exit 2
}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/compare_outputs.XXXXXX")
jobs=$(nproc)

figs=(bench_fig3_dynamism bench_fig4_micro bench_fig5_ec2_cfq bench_fig6_scale bench_fig7_cache
      bench_fig8_ssd bench_fig9_accuracy bench_fig10_error_inject bench_fig11_macro
      bench_fig12_snitch bench_fig13_riak bench_allinone bench_table1_nosql
      bench_ablation_accuracy bench_writes bench_failslow)
examples=(slo_aware_lsm quickstart noisy_neighbor_cluster deadline_tuning)
targets=("${figs[@]}" bench_resilience bench_tenant bench_replay chaos_tool "${examples[@]}")

build() {  # <source dir> <build dir>
  echo "compare_outputs: building $1" >&2
  if ! { cmake -S "$1" -B "$2" && cmake --build "$2" -j "$jobs" --target "${targets[@]}"; } \
      > "$2.log" 2>&1; then
    echo "compare_outputs: build of $1 failed; see $2.log" >&2
    exit 2
  fi
}

# run <program> <output file> [args...]: stdout, then the exit status.
run() {
  local program=$1 out=$2
  shift 2
  local status=0
  "$program" "$@" > "$out" 2>> stderr.log || status=$?
  echo "exit $status" >> "$out"
}

outputs() {  # <build dir> <output dir> <trial workers>
  local bin=$1/bench out=$2
  mkdir -p "$out"
  (
    cd "$out"
    export MITT_TRIAL_WORKERS=$3
    for b in "${figs[@]}"; do
      run "$bin/$b" "$b.out"
    done
    for e in "${examples[@]}"; do
      run "$1/examples/$e" "$e.out"
    done
    run "$bin/bench_resilience" bench_resilience.out resilience.json --chaos 8
    run "$bin/bench_tenant" bench_tenant.out --small tenant.json
    sed -i '/ wall ---$/d' bench_tenant.out
    run "$bin/bench_replay" bench_replay.out --small replay.json
    sed -i -e '/IOs\/s/d' -e '/^max RSS /d' bench_replay.out
    sed -i '/^  "scale": /d' replay.json
    # The corpus replay reports violations on stderr, so keep it.
    local status=0
    "$1/src/chaos_tool" replay "$repo"/tests/data/chaos_corpus/*.chaos > chaos_replay.out 2>&1 ||
      status=$?
    echo "exit $status" >> chaos_replay.out
    # Trace files the runs leave behind (the examples' Chrome traces) are
    # not compared.
    rm -f stderr.log ./*.mitttrace ./*_trace.json
  )
}

mkdir -p "$tmp/base-src"
git -C "$repo" archive "$base" | tar -x -C "$tmp/base-src"
build "$tmp/base-src" "$tmp/base-build"
build "$repo" "$tmp/head-build"

status=0
for workers in 1 4; do
  echo "compare_outputs: running at MITT_TRIAL_WORKERS=$workers" >&2
  outputs "$tmp/base-build" "$tmp/out/base-w$workers" "$workers"
  outputs "$tmp/head-build" "$tmp/out/head-w$workers" "$workers"
  if ! diff -r "$tmp/out/base-w$workers" "$tmp/out/head-w$workers"; then
    status=1
  fi
done

if [[ $status -eq 0 ]]; then
  echo "compare_outputs: no difference from $1 at MITT_TRIAL_WORKERS=1 and 4"
  rm -rf "$tmp"
else
  echo "compare_outputs: outputs differ from $1; kept $tmp" >&2
fi
exit $status
