#!/bin/sh
# Engine-throughput gate: run one picobench figure (default: the fig4
# sweep), record host seconds and events/sec into BENCH_engine.json, and
# fail if throughput regressed more than 20% against the checked-in
# baseline (scripts/perf_baseline.json).
#
# The gating metric is engine/equiv_events_per_sec: (events processed +
# events elided by semantics-preserving batching) per host second.
# Counting elided events makes the number a *per-packet-equivalent*
# throughput, so it stays comparable when a change moves work between
# the per-packet and batched paths; a change that merely skipped
# simulation work would show up as a byte-diff in check.sh instead.
#
# A warn-only ledger-overhead FOM re-runs the figure with latency
# ledgers armed (--breakdown) and prints the per-event cost ratio; skip
# with PICO_PERF_LEDGER=0.
#
# A second, informative wall-clock FOM comes from `picobench scale`: the
# 64-256-node sweep on the sharded engine, whose whole
# point is finishing in minutes.  Its host seconds are recorded next to
# the throughput numbers (and refreshed into the baseline) but only warn,
# never fail — the hard gate stays fig4's equiv_events_per_sec.  Skip it
# with PICO_PERF_SCALE=0 (check.sh does: it just byte-checked the same
# figure twice).
#
# The baseline is host-specific (wall-clock!); refresh it on your machine
# with:  scripts/perf.sh --update   (or PICO_PERF_UPDATE=1 scripts/perf.sh)
#
# Usage: scripts/perf.sh                (from the repo root)
#        scripts/perf.sh --update
#        PICO_PERF_FIG=imb scripts/perf.sh

set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--update" ]; then
  PICO_PERF_UPDATE=1
fi

fig="${PICO_PERF_FIG:-fig4}"
out="${PICO_PERF_JSON:-BENCH_engine.json}"
baseline="scripts/perf_baseline.json"

dune build bin/picobench.exe 2>/dev/null || dune build bin/picobench.exe

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

PICO_JOBS="${PICO_JOBS:-1}" dune exec --no-build bin/picobench.exe -- \
  "$fig" --json "$tmp" > /dev/null

metric() {
  awk -F': ' -v key="\"$1/engine/$2\"" \
    '$0 ~ key { gsub(/[ ,]/, "", $2); print $2 }' "$tmp"
}

events="$(metric "$fig" events)"
elided="$(metric "$fig" events_elided)"
host="$(metric "$fig" host_seconds)"
eps="$(metric "$fig" events_per_sec)"
eeps="$(metric "$fig" equiv_events_per_sec)"

if [ -z "$eeps" ]; then
  echo "perf.sh: no engine metrics for figure '$fig' in picobench JSON" >&2
  exit 1
fi

# Ledger overhead (warn-only): re-run the same figure with latency
# ledgers armed (--breakdown) and compare per-event throughput.  Arming
# ledgers cannot change results (check.sh gates that); this FOM watches
# what the bookkeeping costs in host time.  Skip with PICO_PERF_LEDGER=0.
ledger_eeps=null
if [ "${PICO_PERF_LEDGER:-1}" = "1" ]; then
  ltmp="$(mktemp)"
  lbd="$(mktemp)"
  trap 'rm -f "$tmp" "$ltmp" "$lbd"' EXIT
  PICO_JOBS="${PICO_JOBS:-1}" dune exec --no-build bin/picobench.exe -- \
    "$fig" --json "$ltmp" --breakdown "$lbd" > /dev/null
  ledger_eeps="$(awk -F': ' -v key="\"$fig/engine/equiv_events_per_sec\"" \
    '$0 ~ key { gsub(/[ ,]/, "", $2); print $2 }' "$ltmp")"
  if [ -z "$ledger_eeps" ]; then
    echo "perf.sh: no engine metrics in ledger-armed run" >&2
    exit 1
  fi
  awk -v on="$ledger_eeps" -v off="$eeps" 'BEGIN {
    ratio = off / on;
    printf "perf.sh: ledgers armed: %.4g equiv events/sec (%.2fx cost vs off)\n",
      on, ratio;
    # ~1.8x is the expected steady-state bookkeeping cost on the tiny
    # quick-scale fig4; warn only when it grows well past that.
    if (ratio > 2.5)
      print "perf.sh: WARN: ledger bookkeeping >2.5x per-event cost" > "/dev/stderr";
  }'
fi

# Armed-faults FOM (warn-only): the faults figure runs the injector over
# every fault family — SDMA halts, IKC drops, and the fabric link-fault
# degradation sweep — so its wall clock watches what fault bookkeeping
# and the failover/retry machinery cost in host time.  Skip with
# PICO_PERF_FAULTS=0 (check.sh does: it just byte-checked the figure
# twice).
faults_host=null
if [ "${PICO_PERF_FAULTS:-1}" = "1" ]; then
  fatmp="$(mktemp)"
  trap 'rm -f "$tmp" "$fatmp"' EXIT
  dune exec --no-build bin/picobench.exe -- faults --json "$fatmp" > /dev/null
  faults_host="$(awk -F': ' '/"faults\/engine\/host_seconds"/ \
    { gsub(/[ ,]/, "", $2); print $2 }' "$fatmp")"
  if [ -z "$faults_host" ]; then
    echo "perf.sh: no faults/engine/host_seconds in picobench faults JSON" >&2
    exit 1
  fi
  printf 'perf.sh: faults: armed-injector figure in %ss host wall-clock\n' \
    "$faults_host"
fi

# Serve-figure FOM (warn-only): the service workload runs the identity
# probes plus the offered-load sweep — open-loop replay, admission
# queues, breaker bookkeeping and the nearest-rank quantile sort — so
# its wall clock watches what the serve layer costs in host time.  Skip
# with PICO_PERF_SERVE=0 (check.sh does: it just byte-checked the
# figure twice).
serve_host=null
if [ "${PICO_PERF_SERVE:-1}" = "1" ]; then
  vtmp="$(mktemp)"
  trap 'rm -f "$tmp" "$vtmp"' EXIT
  dune exec --no-build bin/picobench.exe -- serve --json "$vtmp" > /dev/null
  serve_host="$(awk -F': ' '/"serve\/engine\/host_seconds"/ \
    { gsub(/[ ,]/, "", $2); print $2 }' "$vtmp")"
  if [ -z "$serve_host" ]; then
    echo "perf.sh: no serve/engine/host_seconds in picobench serve JSON" >&2
    exit 1
  fi
  printf 'perf.sh: serve: service-workload figure in %ss host wall-clock\n' \
    "$serve_host"
fi

scale_host=null
ft_host=null
if [ "${PICO_PERF_SCALE:-1}" = "1" ]; then
  stmp="$(mktemp)"
  trap 'rm -f "$tmp" "$stmp"' EXIT
  dune exec --no-build bin/picobench.exe -- scale --json "$stmp" > /dev/null
  scale_host="$(awk -F': ' '/"scale\/engine\/host_seconds"/ \
    { gsub(/[ ,]/, "", $2); print $2 }' "$stmp")"
  if [ -z "$scale_host" ]; then
    echo "perf.sh: no scale/engine/host_seconds in picobench scale JSON" >&2
    exit 1
  fi
  printf 'perf.sh: scale: 64-256-node sweep in %ss host wall-clock\n' \
    "$scale_host"
  # The oversubscribed fat-tree tail (sharded congested topologies) has
  # its own sub-sweep timer; warn-only, like the whole-figure number.
  ft_host="$(awk -F': ' '/"scale\/engine\/ft_host_seconds"/ \
    { gsub(/[ ,]/, "", $2); print $2 }' "$stmp")"
  if [ -z "$ft_host" ]; then
    echo "perf.sh: no scale/engine/ft_host_seconds in picobench scale JSON" >&2
    exit 1
  fi
  printf 'perf.sh: scale: fat-tree oversubscribed tail in %ss host wall-clock\n' \
    "$ft_host"
fi

cat > "$out" <<EOF
{
  "schema": "picodriver-perf-v1",
  "figure": "$fig",
  "events": $events,
  "events_elided": $elided,
  "host_seconds": $host,
  "events_per_sec": $eps,
  "equiv_events_per_sec": $eeps,
  "ledger_equiv_events_per_sec": $ledger_eeps,
  "faults_host_seconds": $faults_host,
  "serve_host_seconds": $serve_host,
  "scale_host_seconds": $scale_host,
  "ft_scale_host_seconds": $ft_host
}
EOF

printf 'perf.sh: %s: %s events (+%s elided) in %ss = %s equiv events/sec\n' \
  "$fig" "$events" "$elided" "$host" "$eeps"

if [ "${PICO_PERF_UPDATE:-0}" = "1" ]; then
  cp "$out" "$baseline"
  echo "perf.sh: baseline updated: $baseline"
  exit 0
fi

if [ ! -f "$baseline" ]; then
  echo "perf.sh: no baseline ($baseline); run PICO_PERF_UPDATE=1 scripts/perf.sh"
  exit 0
fi

base_eeps="$(awk -F': ' '/"equiv_events_per_sec"/ { gsub(/[ ,]/,"",$2); print $2 }' "$baseline")"
base_fig="$(awk -F': ' '/"figure"/ { gsub(/[ ",]/,"",$2); print $2 }' "$baseline")"

if [ "$base_fig" != "$fig" ]; then
  echo "perf.sh: baseline is for '$base_fig', not '$fig'; skipping comparison"
  exit 0
fi

awk -v now="$eeps" -v base="$base_eeps" 'BEGIN {
  ratio = now / base;
  printf "perf.sh: %.2fx of baseline (%.4g vs %.4g equiv events/sec)\n",
    ratio, now, base;
  if (ratio < 0.8) {
    print "perf.sh: FAIL: >20% regression vs checked-in baseline" > "/dev/stderr";
    exit 1;
  }
}'

# The at-scale sweep's wall clock warns only: it mixes engine throughput
# with pool scheduling and machine load, so it is a trend indicator.
base_scale="$(awk -F': ' '/"scale_host_seconds"/ && !/ft_scale/ { gsub(/[ ,]/,"",$2); print $2 }' "$baseline")"
if [ "$scale_host" != null ] && [ -n "$base_scale" ] && [ "$base_scale" != null ]; then
  awk -v now="$scale_host" -v base="$base_scale" 'BEGIN {
    ratio = now / base;
    printf "perf.sh: scale sweep %.2fx of baseline wall clock (%.3gs vs %.3gs)\n",
      ratio, now, base;
    if (ratio > 1.5)
      print "perf.sh: WARN: at-scale sweep >1.5x slower than baseline" > "/dev/stderr";
  }'
fi

# The armed-faults figure warns only too: injector bookkeeping is pure
# host-side work, so a sustained slowdown here means a fault path grew
# cost it should not have.
base_faults="$(awk -F': ' '/"faults_host_seconds"/ { gsub(/[ ,]/,"",$2); print $2 }' "$baseline")"
if [ "$faults_host" != null ] && [ -n "$base_faults" ] && [ "$base_faults" != null ]; then
  awk -v now="$faults_host" -v base="$base_faults" 'BEGIN {
    ratio = now / base;
    printf "perf.sh: armed faults %.2fx of baseline wall clock (%.3gs vs %.3gs)\n",
      ratio, now, base;
    if (ratio > 1.5)
      print "perf.sh: WARN: armed-faults figure >1.5x slower than baseline" > "/dev/stderr";
  }'
fi

# The serve figure warns only as well: it mixes simulation throughput
# with host-side aggregation (quantile sorts, fingerprint compares), so
# its wall clock is a trend indicator for the service-workload path.
base_serve="$(awk -F': ' '/"serve_host_seconds"/ { gsub(/[ ,]/,"",$2); print $2 }' "$baseline")"
if [ "$serve_host" != null ] && [ -n "$base_serve" ] && [ "$base_serve" != null ]; then
  awk -v now="$serve_host" -v base="$base_serve" 'BEGIN {
    ratio = now / base;
    printf "perf.sh: serve figure %.2fx of baseline wall clock (%.3gs vs %.3gs)\n",
      ratio, now, base;
    if (ratio > 1.5)
      print "perf.sh: WARN: serve figure >1.5x slower than baseline" > "/dev/stderr";
  }'
fi

# Same treatment for the fat-tree oversubscribed tail (the congested
# sharded-topology sweep this FOM exists to watch).
base_ft="$(awk -F': ' '/"ft_scale_host_seconds"/ { gsub(/[ ,]/,"",$2); print $2 }' "$baseline")"
if [ "$ft_host" != null ] && [ -n "$base_ft" ] && [ "$base_ft" != null ]; then
  awk -v now="$ft_host" -v base="$base_ft" 'BEGIN {
    ratio = now / base;
    printf "perf.sh: fat-tree tail %.2fx of baseline wall clock (%.3gs vs %.3gs)\n",
      ratio, now, base;
    if (ratio > 1.5)
      print "perf.sh: WARN: fat-tree tail >1.5x slower than baseline" > "/dev/stderr";
  }'
fi

echo "perf.sh: OK"
