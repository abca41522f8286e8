#!/bin/sh
# Repository check gate: full build (warnings are errors), the whole test
# suite, and the parallel-harness determinism contract — `picobench all`
# must render byte-identically whatever PICO_JOBS is set to.
#
# Usage: scripts/check.sh          (from the repo root)
#        PICO_CHECK_JOBS=8 scripts/check.sh

set -eu

cd "$(dirname "$0")/.."

jobs="${PICO_CHECK_JOBS:-4}"

# How a world runs is chosen when it is built (Cluster.build ?engine,
# Hfi.create ?batching), never by a process-wide switch: the only
# module-level ref/Atomic bindings under lib/ are the cluster uid
# allocator and the span and ledger recording flags.
echo "== no process-global engine switches under lib/ =="
globals="$(grep -rnE '^let [a-z_]+ = (ref|Atomic\.make)' lib --include='*.ml' \
  | sed -E 's/:[0-9]+:let ([a-z_]+) = .*/:\1/' | LC_ALL=C sort)"
expected="lib/engine/ledger.ml:flag
lib/engine/span.ml:flag
lib/harness/cluster.ml:next_uid"
if [ "$globals" != "$expected" ]; then
  echo "FAIL: module-level ref/Atomic bindings under lib/ are not exactly" >&2
  echo "Cluster.next_uid, Span.flag and Ledger.flag; found:" >&2
  echo "$globals" >&2
  exit 1
fi

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

# The benchmark harness must still build from this checkout and pass its
# own output checks on the smallest flat workload and on the fat-tree one,
# whose packets take the store-and-forward hop walk.
for workload in pingpong serve_ft; do
  echo "== simbench smoke: $workload =="
  if ! sh simbench/run.sh --workload "$workload" --seed 1 --seconds 1 \
      --trace 0 | tail -n 1 | grep -q '"correct": true'; then
    echo "FAIL: simbench $workload did not report correct results" >&2
    exit 1
  fi
done

echo "== determinism: picobench all -s quick, jobs=1 vs jobs=$jobs =="
seq_out="$(mktemp)"
par_out="$(mktemp)"
seq_json="$(mktemp)"
par_json="$(mktemp)"
trap 'rm -f "$seq_out" "$par_out" "$seq_json" "$par_json"' EXIT

PICO_JOBS=1 dune exec --no-build bin/picobench.exe -- all -s quick \
  --json "$seq_json" > "$seq_out"
PICO_JOBS="$jobs" dune exec --no-build bin/picobench.exe -- all -s quick \
  --json "$par_json" > "$par_out"

if ! diff -u "$seq_out" "$par_out"; then
  echo "FAIL: parallel output differs from sequential" >&2
  exit 1
fi

# The JSON report must be byte-identical too, apart from the keys that
# are host wall-clock by design (engine/host_seconds and sub-sweep
# timers like engine/ft_host_seconds, engine/*_per_sec) and the echoed
# jobs setting itself.
mask_json() {
  grep -v -E '"[^"]*/engine/([a-z_]*host_seconds|[a-z_]*_per_sec)"|"jobs":' \
    "$1" > "$1.masked"
}

mask_json "$seq_json"
mask_json "$par_json"
if ! diff -u "$seq_json.masked" "$par_json.masked"; then
  rm -f "$seq_json.masked" "$par_json.masked"
  echo "FAIL: JSON metrics differ between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
rm -f "$seq_json.masked" "$par_json.masked"

echo "== determinism: picobench faults (+breakdown), jobs=1 vs jobs=$jobs =="
fseq_out="$(mktemp)"
fpar_out="$(mktemp)"
fseq_json="$(mktemp)"
fpar_json="$(mktemp)"
fseq_bd="$(mktemp)"
fpar_bd="$(mktemp)"
trap 'rm -f "$seq_out" "$par_out" "$seq_json" "$par_json" \
  "$fseq_out" "$fpar_out" "$fseq_json" "$fpar_json" \
  "$fseq_bd" "$fpar_bd"' EXIT

PICO_JOBS=1 dune exec --no-build bin/picobench.exe -- faults \
  --json "$fseq_json" --breakdown "$fseq_bd" > "$fseq_out"
PICO_JOBS="$jobs" dune exec --no-build bin/picobench.exe -- faults \
  --json "$fpar_json" --breakdown "$fpar_bd" > "$fpar_out"

if ! diff -u "$fseq_out" "$fpar_out"; then
  echo "FAIL: faults output differs between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
mask_json "$fseq_json"
mask_json "$fpar_json"
if ! diff -u "$fseq_json.masked" "$fpar_json.masked"; then
  rm -f "$fseq_json.masked" "$fpar_json.masked"
  echo "FAIL: faults JSON differs between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
rm -f "$fseq_json.masked" "$fpar_json.masked"

# The latency-ledger breakdown file is a pure function of the simulated
# results — no wall-clock, host or jobs keys — so it is byte-diffed
# UNMASKED.  Faults is the hardest figure for it: recovery phases and
# fallback submits land in the ledgers too.
if ! diff -u "$fseq_bd" "$fpar_bd"; then
  echo "FAIL: breakdown JSON differs between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
if ! grep -q '"schema": "picodriver-breakdown-v1"' "$fseq_bd"; then
  echo "FAIL: breakdown JSON missing schema marker" >&2
  exit 1
fi

# With every fault rate at its zero default, arming the injector must be
# a complete no-op; the figure asserts it and prints a greppable line.
if ! grep -q '^zero-rate fault install: OK' "$fseq_out"; then
  echo "FAIL: zero-rate fault install is not byte-identical" >&2
  exit 1
fi
# Same law for the fabric link-fault streams: all-zero fabric rates (and
# an armed injector whose schedule drew no windows) must leave flat and
# fat-tree worlds byte-identical to the injector-absent run.
if ! grep -q '^fabric faults zero-rate: OK' "$fseq_out"; then
  echo "FAIL: zero-rate fabric fault install is not byte-identical" >&2
  exit 1
fi

echo "== determinism: picobench fabric, jobs=1 vs jobs=$jobs =="
tseq_out="$(mktemp)"
tpar_out="$(mktemp)"
tseq_json="$(mktemp)"
tpar_json="$(mktemp)"
trap 'rm -f "$seq_out" "$par_out" "$seq_json" "$par_json" \
  "$fseq_out" "$fpar_out" "$fseq_json" "$fpar_json" \
  "$tseq_out" "$tpar_out" "$tseq_json" "$tpar_json"' EXIT

PICO_JOBS=1 dune exec --no-build bin/picobench.exe -- fabric \
  --json "$tseq_json" > "$tseq_out"
PICO_JOBS="$jobs" dune exec --no-build bin/picobench.exe -- fabric \
  --json "$tpar_json" > "$tpar_out"

if ! diff -u "$tseq_out" "$tpar_out"; then
  echo "FAIL: fabric output differs between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
mask_json "$tseq_json"
mask_json "$tpar_json"
if ! diff -u "$tseq_json.masked" "$tpar_json.masked"; then
  rm -f "$tseq_json.masked" "$tpar_json.masked"
  echo "FAIL: fabric JSON differs between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
rm -f "$tseq_json.masked" "$tpar_json.masked"

# A cluster built with no topology argument must be byte-identical to an
# explicit Topology.Flat build: the calibrated flat model stays the
# default, and every paper figure stays on it.
if ! grep -q '^flat-topology default: OK' "$tseq_out"; then
  echo "FAIL: default topology is not byte-identical to explicit Flat" >&2
  exit 1
fi

echo "== determinism: picobench scale, jobs=1 vs jobs=$jobs =="
sseq_out="$(mktemp)"
spar_out="$(mktemp)"
sseq_json="$(mktemp)"
spar_json="$(mktemp)"
trap 'rm -f "$seq_out" "$par_out" "$seq_json" "$par_json" \
  "$fseq_out" "$fpar_out" "$fseq_json" "$fpar_json" \
  "$tseq_out" "$tpar_out" "$tseq_json" "$tpar_json" \
  "$sseq_out" "$spar_out" "$sseq_json" "$spar_json"' EXIT

PICO_JOBS=1 dune exec --no-build bin/picobench.exe -- scale \
  --json "$sseq_json" > "$sseq_out"
PICO_JOBS="$jobs" dune exec --no-build bin/picobench.exe -- scale \
  --json "$spar_json" > "$spar_out"

if ! diff -u "$sseq_out" "$spar_out"; then
  echo "FAIL: scale output differs between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
mask_json "$sseq_json"
mask_json "$spar_json"
if ! diff -u "$sseq_json.masked" "$spar_json.masked"; then
  rm -f "$sseq_json.masked" "$spar_json.masked"
  echo "FAIL: scale JSON differs between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
rm -f "$sseq_json.masked" "$spar_json.masked"

# Sharding must not change simulation results: the figure re-runs
# small worlds sharded and unsharded and prints one greppable line per
# world kind.
if ! grep -q '^sharding on/off: OK' "$sseq_out"; then
  echo "FAIL: sharded engine is not byte-identical to unsharded" >&2
  exit 1
fi
# The fat-tree half of the figure (Shardmap link owners, decomposed hop
# walk) was byte-diffed at jobs=1 vs jobs=N as part of the whole-figure
# diff above; this grep pins the shard-on/off identity law itself.
if ! grep -q '^fat-tree sharding on/off: OK' "$sseq_out"; then
  echo "FAIL: fat-tree sharded engine is not byte-identical to unsharded" >&2
  exit 1
fi
# With a live link-fault schedule on the fat-tree, parked links stay
# owned by their Shardmap shard and every fault counter is a result:
# shard-on/off must still be bit-identical.
if ! grep -q '^faulted fat-tree sharding on/off: OK' "$sseq_out"; then
  echo "FAIL: faulted fat-tree sharding changed simulation results" >&2
  exit 1
fi
# Latency ledgers: arming them must not change any simulation result,
# and the breakdown a sharded run produces must equal the unsharded one.
if ! grep -q '^ledgers off: OK' "$sseq_out"; then
  echo "FAIL: arming latency ledgers changed simulation results" >&2
  exit 1
fi
if ! grep -q '^ledger shard on/off: OK' "$sseq_out"; then
  echo "FAIL: sharded breakdown differs from unsharded" >&2
  exit 1
fi

echo "== determinism: picobench serve, jobs=1 vs jobs=$jobs =="
vseq_out="$(mktemp)"
vpar_out="$(mktemp)"
vseq_json="$(mktemp)"
vpar_json="$(mktemp)"
trap 'rm -f "$seq_out" "$par_out" "$seq_json" "$par_json" \
  "$fseq_out" "$fpar_out" "$fseq_json" "$fpar_json" \
  "$tseq_out" "$tpar_out" "$tseq_json" "$tpar_json" \
  "$sseq_out" "$spar_out" "$sseq_json" "$spar_json" \
  "$vseq_out" "$vpar_out" "$vseq_json" "$vpar_json"' EXIT

PICO_JOBS=1 dune exec --no-build bin/picobench.exe -- serve \
  --json "$vseq_json" > "$vseq_out"
PICO_JOBS="$jobs" dune exec --no-build bin/picobench.exe -- serve \
  --json "$vpar_json" > "$vpar_out"

if ! diff -u "$vseq_out" "$vpar_out"; then
  echo "FAIL: serve output differs between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
mask_json "$vseq_json"
mask_json "$vpar_json"
if ! diff -u "$vseq_json.masked" "$vpar_json.masked"; then
  rm -f "$vseq_json.masked" "$vpar_json.masked"
  echo "FAIL: serve JSON differs between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
rm -f "$vseq_json.masked" "$vpar_json.masked"

# With the admission/breaker knobs at their zero defaults the serve
# layer is inert: no RNG split, empty plans, and a legacy world
# byte-identical to the pre-serve tree.
if ! grep -q '^serve defaults inert: OK' "$vseq_out"; then
  echo "FAIL: zero-knob serve defaults are not byte-identical" >&2
  exit 1
fi
# The armed serve fingerprint — every latency sample plus the
# shed/tripped/trip counters — must survive sharding, on flat and
# fat-tree worlds, and the ledger breakdown must too.
if ! grep -q '^serve sharding on/off: OK' "$vseq_out"; then
  echo "FAIL: sharded serve world changed simulation results" >&2
  exit 1
fi
if ! grep -q '^serve ledger shard on/off: OK' "$vseq_out"; then
  echo "FAIL: sharded serve breakdown differs from unsharded" >&2
  exit 1
fi

# Engine throughput (wall-clock, host-specific): informative, never gates
# the build — machines differ and CI boxes are noisy.  The scale and
# faults sweeps were byte-checked twice just above, so perf.sh skips
# re-running them.
echo "== engine throughput (non-fatal) =="
if ! PICO_PERF_SCALE=0 PICO_PERF_FAULTS=0 PICO_PERF_SERVE=0 scripts/perf.sh; then
  echo "WARN: perf.sh reported a throughput regression (non-fatal)" >&2
fi

echo "OK: all checks passed (output identical at jobs=1 and jobs=$jobs)"
