#!/usr/bin/env bash
# CI gate: formatting, lints (warnings are errors), full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

# The runner suites must hold on a single worker too: the determinism
# contract says sharding never changes a result, so the serial path is
# a first-class configuration, not a degenerate one. VLS_JOBS=1 pins
# every RunnerOptions::default() to one worker; the default-parallelism
# pass already ran as part of the workspace suite above.
echo "==> cargo test (runner suites, VLS_JOBS=1)"
VLS_JOBS=1 cargo test -q --test runner_determinism --test golden_metrics_mc

# The charlib leg: build a smoke grid through the CLI, prove the
# artifact round-trips (second run loads instead of rebuilding and the
# bytes don't move), serve one query from it, then run the surrogate
# accuracy/golden/artifact suites serially — the default-parallelism
# pass ran in the workspace suite above, and the fill must be
# bit-identical either way.
echo "==> charlib smoke grid (characterize --smoke, artifact round trip)"
CHARLIB_TMP="$(mktemp -d)"
trap 'rm -rf "$CHARLIB_TMP"' EXIT
cargo run -q --release -p vls-cli --bin vls-spice -- \
    characterize --smoke --out "$CHARLIB_TMP/smoke.json"
cp "$CHARLIB_TMP/smoke.json" "$CHARLIB_TMP/first.json"
cargo run -q --release -p vls-cli --bin vls-spice -- \
    characterize --smoke --out "$CHARLIB_TMP/smoke.json" \
    | grep -q "status: Loaded"
cmp "$CHARLIB_TMP/first.json" "$CHARLIB_TMP/smoke.json"
cargo run -q --release -p vls-cli --bin vls-spice -- \
    query --lib "$CHARLIB_TMP/smoke.json" --vddi 0.8 --vddo 1.2 \
    | grep -q "source: Table"

echo "==> cargo test (charlib suites, VLS_JOBS=1)"
VLS_JOBS=1 cargo test -q --test charlib_surrogate --test charlib_golden --test charlib_artifact

# The fault leg: the soak suite (256-trial injected-fault ensemble,
# taxonomy/replay determinism, counter invariants, fuzzed
# perturbations) must hold serially as it did at default parallelism
# in the workspace suite, then a release-mode smoke soak drives the
# CLI with a fault plan armed — the base attempt must fail with a
# replay line, and the retry ladder must recover the same deck. A plan
# naming a site that does not exist must be a usage error (exit 2), not
# a run that silently injects nothing.
echo "==> cargo test (fault soak, VLS_JOBS=1)"
VLS_JOBS=1 cargo test -q --test fault_soak

echo "==> fault-plan smoke soak (release, CLI inject + retry recovery)"
FAULT_DECK="$CHARLIB_TMP/fault_smoke.sp"
cat > "$FAULT_DECK" <<'EOF'
ci fault smoke deck
Vdd vdd 0 1.2
Vin in 0 PULSE(0 1.2 0.5n 50p 50p 2n 6n)
Mp out in vdd vdd ptm90_pmos W=0.4u L=0.1u
Mn out in 0 0 ptm90_nmos W=0.2u L=0.1u
Cl out 0 1fF
.op
.tran 10p 4n
.end
EOF
FAULT_PLAN='newton@warm,newton@plain,newton@gmin,newton@source'
if cargo run -q --release -p vls-cli --bin vls-spice -- \
    "$FAULT_DECK" --fault-plan "$FAULT_PLAN" --seed 0xf5 \
    2> "$CHARLIB_TMP/fault_err.txt"; then
    echo "fault-plan run unexpectedly succeeded" >&2
    exit 1
fi
grep -q "replay:" "$CHARLIB_TMP/fault_err.txt"
cargo run -q --release -p vls-cli --bin vls-spice -- \
    "$FAULT_DECK" --fault-plan "$FAULT_PLAN" --seed 0xf5 --retry 3 \
    | grep -q "recovered at escalation rung"
FAULT_STATUS=0
cargo run -q --release -p vls-cli --bin vls-spice -- \
    "$FAULT_DECK" --fault-plan bypass --seed 0xf5 \
    > /dev/null 2> "$CHARLIB_TMP/fault_site_err.txt" || FAULT_STATUS=$?
if [ "$FAULT_STATUS" -ne 2 ]; then
    echo "--fault-plan bypass exited $FAULT_STATUS, expected 2 (usage error)" >&2
    exit 1
fi
grep -q "unknown fault site" "$CHARLIB_TMP/fault_site_err.txt"

# The check leg: the chip-scale smoke benchmark (clean 60/240-instance
# floorplans, worker-count byte identity, 1.5x hierarchical speedup
# floor, all five MSV rules on the mutated chip, JSON under $TMPDIR),
# then a CLI baseline round-trip: record the fingerprints of a
# known-bad deck (exit 1), re-check against the recording and the gate
# must pass with the findings suppressed.
# Smoke runs write under $TMPDIR: the checked-in BENCH_*.json
# trajectory must be byte-identical after the last smoke leg. A
# mistyped flag must be rejected, not run as a full benchmark.
sha256sum BENCH_*.json > "$CHARLIB_TMP/bench_sums.txt"
echo "==> check_scale --smoke (release, speedup floor + baseline round trip)"
cargo run -q --release -p vls-bench --bin check_scale -- --smoke
if cargo run -q --release -p vls-bench --bin check_scale -- --smok > /dev/null 2>&1; then
    echo "check_scale accepted the unknown flag --smok" >&2
    exit 1
fi

echo "==> vls-spice check baseline round trip"
CHECK_DECK="$CHARLIB_TMP/check_baseline.sp"
cat > "$CHECK_DECK" <<'EOF'
ci baseline deck
V1 a 0 1.2
V2 a 0 1.0
R1 a 0 1k
.op
.end
EOF
if cargo run -q --release -p vls-cli --bin vls-spice -- \
    check "$CHECK_DECK" --record-baseline "$CHARLIB_TMP/check_base.json" \
    > /dev/null; then
    echo "check unexpectedly passed while recording the baseline" >&2
    exit 1
fi
cargo run -q --release -p vls-cli --bin vls-spice -- \
    check "$CHECK_DECK" --baseline "$CHARLIB_TMP/check_base.json" \
    | grep -q "suppressed"

# The serve leg: the protocol and soak suites on one worker (the
# default-parallelism pass ran in the workspace suite; the soak demands
# byte-identical bodies and balanced counters either way), the
# release-mode load generator with its 500-QPS floor (reusing the
# smoke artifact built above, JSON under $TMPDIR), then a CLI smoke:
# validate the deployment with --check-config, boot a real daemon on
# an ephemeral port, drive it over the wire with the load generator's
# attach probe, and require a clean shutdown.
echo "==> cargo test (serve protocol + soak, VLS_JOBS=1)"
VLS_JOBS=1 cargo test -q --test serve_api --test serve_soak

echo "==> serve_qps --smoke (release, 500-QPS floor enforced)"
cargo run -q --release -p vls-bench --bin serve_qps -- \
    --smoke --lib "$CHARLIB_TMP/smoke.json"

echo "==> vls-spice serve smoke (check-config, boot, attach probe, clean shutdown)"
cargo run -q --release -p vls-cli --bin vls-spice -- \
    serve --lib "$CHARLIB_TMP/smoke.json" --check-config \
    | grep -q "serve config: OK"
SERVE_LOG="$CHARLIB_TMP/serve.log"
cargo run -q --release -p vls-cli --bin vls-spice -- \
    serve --lib "$CHARLIB_TMP/smoke.json" --port 0 > "$SERVE_LOG" &
SERVE_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 100); do
    SERVE_ADDR="$(sed -n 's/^vls-serve listening on //p' "$SERVE_LOG")"
    [ -n "$SERVE_ADDR" ] && break
    sleep 0.1
done
[ -n "$SERVE_ADDR" ] || { echo "daemon never reported its address" >&2; exit 1; }
cargo run -q --release -p vls-bench --bin serve_qps -- \
    --attach "$SERVE_ADDR" --shutdown
wait "$SERVE_PID"
grep -q "clean shutdown" "$SERVE_LOG"

# The opt leg: the regression suite on one worker (the
# default-parallelism pass ran in the workspace suite; the outcome —
# trajectory, accounting, verdicts, rendered JSON — must be
# bit-identical either way), then the release-mode convergence bench
# with smoke sizing: it enforces the evaluation budget, the accepted
# optimum's surrogate-vs-exact gap tolerance and the 50x per-eval
# speedup floor, and writes its JSON under $TMPDIR.
echo "==> cargo test (opt regression, VLS_JOBS=1)"
VLS_JOBS=1 cargo test -q --test opt_regression

echo "==> opt_convergence --smoke (release, budget + gap + 50x floors enforced)"
cargo run -q --release -p vls-bench --bin opt_convergence -- --smoke

# The sparse-solve leg: the release-mode scaling smoke: the default
# engine (ordered sparse path) against the dense reference
# (sparse_threshold = usize::MAX) on chipgen floorplans, DC plus a
# fixed transient window, 1.5x floor at 400 unknowns; plus the Figure 3
# SoC mesh row over a 2 ns window with its 1.2x floor. Agreement and
# step counts are asserted on every row. The smoke writes its JSON
# under $TMPDIR; only a full run refreshes BENCH_solve.json. The
# tests/solve_scale.rs and tests/newton_kernel.rs goldens run in the
# workspace suite above: the solve has no parallelism to vary.
echo "==> solve_scale --smoke (release, chip + mesh speedup floors enforced)"
cargo run -q --release -p vls-bench --bin solve_scale -- --smoke

echo "==> smoke legs left the BENCH_*.json trajectory untouched"
sha256sum -c --quiet "$CHARLIB_TMP/bench_sums.txt"

# The benchmark leg: perfbench's own tests, then one reference-checked
# pass of every workload at seed 0. The result line must read
# "failed": 0, so a reference that drifts fails here, not first in a
# benchmark run.
echo "==> perfbench tests (release)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench reference pass (seed 0, every workload)"
for WORKLOAD in mc_tables vdd_surface chip_tran; do
    RESULT="$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$WORKLOAD" --seed 0 --seconds 1 --trace 0 | tail -n 1)"
    echo "$WORKLOAD: $RESULT"
    case "$RESULT" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *) echo "perfbench $WORKLOAD failed its reference check" >&2; exit 1 ;;
    esac
done

echo "==> cargo test --release"
cargo test -q --release

echo "CI green."
