#!/usr/bin/env bash
# Local CI gate: everything a PR must pass, in the order that fails fastest.
# Usage: scripts/check.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no tracked build artifacts"
if [ -n "$(git ls-files 'target/*')" ]; then
    echo "error: build artifacts are tracked under target/ — run: git rm -r --cached target/" >&2
    git ls-files 'target/*' | head -5 >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --release --offline

echo "==> examples run (each asserts its own results)"
# clippy --all-targets above only compiles them; README quotes
# quickstart's output.
cargo run --release --offline -q --example quickstart
cargo run --release --offline -q --example custom_kernel

echo "==> cargo test (release optimisation, debug assertions and overflow checks on)"
cargo test --workspace --profile ci --offline -q

echo "==> perfbench build + tests"
# The benchmark is a workspace of its own, so the workspace test run above
# never compiles it; this catches API changes that break it.
cargo test --offline --manifest-path perfbench/Cargo.toml -q

echo "==> cargo doc (rustdoc rot gate)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "==> build fastbar (the experiment harness the smokes below run)"
cargo build --release --offline -q -p bench-suite
fastbar="${CARGO_TARGET_DIR:-target}/release/fastbar"

# The four smoke documents go to one temporary directory, removed on exit
# whether the gate passes or fails.
smoke_dir="$(mktemp -d -t fastbar_check.XXXXXX)"
trap 'rm -rf "$smoke_dir"' EXIT

echo "==> pinned-digest gate (--jobs 2, committed digests, both engines)"
# The one pinned-digest gate: runs the two committed workloads
# (fig4_16core, viterbi_k5_16t) on a 2-worker pool and asserts their
# committed stats digests — catches both host-parallelism regressions
# (sweep jobs leaking state into each other) and engine changes that
# silently alter simulated behaviour. --check re-runs both workloads on
# the reference engine (no bursts), which must reproduce the same
# digests. The document holds no host timing, so it must also equal the
# committed BENCH_throughput.json byte for byte: every run's
# stats_digest and sim_cycles, not only the two folded digests.
"$fastbar" throughput --check --jobs 2 --out "$smoke_dir/throughput.json"
cmp "$smoke_dir/throughput.json" BENCH_throughput.json

echo "==> chaos recovery sweep (fixed seed, full grid, committed document)"
# Full fault-injection sweep at a pinned seed (about 3 s on 2 workers):
# every point must produce validated kernel output, quiescent filter
# tables and a bit-identical replay (the sweep itself runs each faulted
# point twice and asserts it), so a barrier-recovery regression fails
# here before it lands. The document is deterministic at a fixed --jobs,
# so it must also equal the committed results/chaos.json byte for byte:
# every faulted point's stats digest and fault report. The sweep drives
# the OS surface (context switch, resume, migration), so an engine change
# that moves a faulted run fails here even when every unfaulted digest
# holds.
"$fastbar" chaos --jobs 2 --seed 0x5eedba441e4a0001 --out "$smoke_dir/chaos.json"
cmp "$smoke_dir/chaos.json" results/chaos.json

echo "==> program verifier + race detector + model checker smoke (quick kernel grid)"
# Every parallel kernel under every barrier mechanism (including the
# 64-core clustered topology points), race detector attached, assembled
# program statically verified, plus the bounded model checker over every
# mechanism's emitted routine at 2-4 cores with and without an injected
# fault: any static Error, observed race, or property counterexample
# exits non-zero. Quick sizes; verdicts are size-independent. The
# document is deterministic at a fixed --jobs, so it must equal the
# committed results/verify_quick.json byte for byte: every cell's race
# counters, model-checker state and transition counts and findings.
"$fastbar" verify --quick --jobs 2 --out "$smoke_dir/verify.json"
cmp "$smoke_dir/verify.json" results/verify_quick.json

echo "==> scaling sweep smoke (quick grid, committed document)"
# Quick clustered grid: 64 cores on 4 clusters under sw-central and
# sw-hier. It is the only stage that runs a clustered sw-central barrier
# (the verify grid's 64-core cells run only the hierarchical pair, and
# the six-minute full sweep is not run here). The document is
# deterministic at a fixed --jobs, so it must equal the committed
# results/fig_scale_quick.json byte for byte: both runs' stats digests
# and cycle counts.
"$fastbar" fig_scale --quick --jobs 2 --out "$smoke_dir/scale.json"
cmp "$smoke_dir/scale.json" results/fig_scale_quick.json

echo "==> committed figures reproduce byte for byte (--jobs 2)"
# Simulated results are deterministic and independent of --jobs, so each
# regenerated figure must equal its committed copy under results/.
# fig_scale (a six-minute sweep) and hotpath (host timing) stay out.
for name in table1 fig4 fig5 fig6 fig7 fig8 fig10 ocean ablations; do
    "$fastbar" "$name" --jobs 2 | cmp - "results/$name.txt"
done

echo "==> all checks passed"
