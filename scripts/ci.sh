#!/usr/bin/env bash
# The full offline CI gate: release build, workspace tests, and rustdoc,
# all with warnings denied. No network access is required — the workspace
# has zero external dependencies (see README "Offline-build policy").
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"
export RUSTDOCFLAGS="-D warnings"

echo "==> checking #![forbid(unsafe_code)] in every crate root"
missing=0
for lib in src/lib.rs crates/*/src/lib.rs; do
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "MISSING forbid(unsafe_code): $lib"
        missing=1
    fi
done
[ "$missing" -eq 0 ]

echo "==> cargo clippy --workspace --all-targets"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> serving smoke test (release)"
cargo test -p relax-serve --release -q smoke

echo "==> concurrency and trace suites, 20 runs each (release)"
# A flake in these suites fails CI instead of passing on a lucky run.
# Session steps share the engine's supervised worker pool, so the
# session suite (mixed traffic + page accounting), speculative decoding
# and the seeded chaos harness run here too.
for suite in "--test tracing" "-p relax-vm --test plan_cache_stress" "-p relax-serve --test stress8" \
    "-p relax-serve --test sessions" "-p relax-serve --test spec_decode" "-p relax-serve --test chaos"; do
    for _ in $(seq 20); do
        # shellcheck disable=SC2086  # $suite is a flag list
        if ! log=$(cargo test --release -q $suite 2>&1); then
            echo "$log"
            echo "FAILED: cargo test --release $suite"
            exit 1
        fi
    done
done

echo "==> dynamic-shape stress smoke: MoE routing (release)"
# The match_cast-mediated MoE dispatch against its pure-Rust oracle
# across ragged token counts, and the worst-case dry-run costing of the
# ragged dispatch. (Speculative decoding runs in the 20-run loop above.)
cargo test --release -q --test moe_diff
cargo test -p relax-sim --release -q --test moe_cost
cargo test --release -q --test golden_roundtrip

echo "==> kernel-schedule ablation smoke (release)"
# Scheduled (macro-op) plans against unscheduled plans and the reference
# interpreter, bitwise, across every schedule-primitive combination and
# for legalized attention's two macro-ops, plus the 32-config pipeline
# ablation that toggles kernel_schedule with the other pipeline knobs.
cargo test -p relax-tir --release -q --test schedule_diff
cargo test --release -q --test attention_macros
cargo test --release -q --test pipeline_ablation

echo "==> cargo doc --workspace --no-deps"
cargo doc --workspace --no-deps -q

echo "==> trace smoke (RELAX_TRACE=1, Chrome export checked in-process)"
RELAX_TRACE=1 cargo run --release -q --example trace_smoke >/dev/null
test -s target/trace_smoke.json

echo "==> runtime bench smoke (RELAX_BENCH_FAST, writes under target/)"
scripts/bench.sh --fast >/dev/null
test -s target/BENCH_runtime.json

echo "CI gate passed."
