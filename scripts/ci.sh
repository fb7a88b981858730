#!/usr/bin/env bash
# Tier-1 gate: everything must pass offline (the vendored criterion /
# proptest shims make the workspace std-only).
set -euo pipefail
cd "$(dirname "$0")/.."

# Generated output stays out of the tree (.gitignore names both).
if git ls-files | grep -E '^(experiments_output\.txt|BENCH_.*\.smoke\.json)$'; then
    echo "ci: generated output is committed (listed above)" >&2; exit 1
fi

# --workspace matters: the root package is parsecureml-suite, so a bare
# `cargo build` would skip member bin targets (notably the psml CLI the
# observability gate below runs).
cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The ring GEMMs take the limb-split kernel on any worker count, serial on a
# one-worker pool and banded over a larger one; `gemm_packed_sum` also
# branches on the count. The pool is sized from PSML_WORKERS at first use,
# so run the kernel crates under both shapes whatever this host's cores.
for workers in 1 3; do
    PSML_WORKERS="$workers" cargo test -q --release --offline -p psml-tensor -p psml-mpc
done
# `-D warnings` now comes from [workspace.lints] in Cargo.toml, so plain
# builds and clippy runs enforce the same bar as CI.
cargo clippy --all-targets --offline

# Static-analysis gate: the workspace must pass its own secrecy /
# determinism / timing / concurrency / unsafe-hygiene analyzer, and the
# emitted document must validate against the psml.lint.v2 schema (which
# carries per-finding fingerprints and cross-function evidence chains).
# The whole-workspace dataflow pass is budgeted: the analyzer is meant to
# run on every commit, so a scan creeping past 5 s wall-clock is a
# regression in its own right, not merely an inconvenience.
lint_json="$(mktemp)"
profile_json="$(mktemp)"
trap 'rm -f "$lint_json" "$profile_json"' EXIT
lint_start_ns="$(date +%s%N)"
./target/release/psml-lint --deny all --json "$lint_json"
lint_elapsed_ms="$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))"
echo "ci: psml-lint whole-workspace scan took ${lint_elapsed_ms} ms"
[ "$lint_elapsed_ms" -lt 5000 ] || {
    echo "ci: psml-lint scan exceeded the 5 s budget (${lint_elapsed_ms} ms)" >&2
    exit 1
}
./target/release/psml validate "$lint_json"
# Self-scan job: the analyzer must hold itself to the rules it enforces
# on the rest of the workspace. `--crate lint` narrows the *reported*
# findings to the lint crate while still scanning every crate, so the
# inter-procedural passes see the full symbol table.
./target/release/psml-lint --crate lint --deny all

# One protocol core: the Beaver algebra lives in psml_mpc::protocol's
# party-local steps, and the engine only schedules, charges and ships
# around them. An owning ServerMulSession or an inline Hadamard in
# non-test engine.rs is that algebra (or its operand copies) growing back.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/engine.rs \
    | grep -nE 'ServerMulSession|\.hadamard\('; then
    echo "ci: core::engine re-implements or re-owns the protocol steps (listed above)" >&2; exit 1
fi

# One session protocol: the session calls the trainer (no epoch observer, no
# rollback smuggled through the error type), and each control string is
# spelled once, in `Control`'s Display; `Control::parse` matches bare tags.
if grep -rn 'train_epochs_from' crates tests examples; then
    echo "ci: the epoch-observer entry point is back (listed above)" >&2; exit 1
fi
if grep -n 'Rollback' crates/core/src/error.rs; then
    echo "ci: EngineError carries session control flow again (listed above)" >&2; exit 1
fi
for tag in commit final done ok state begin; do
    writers="$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/session.rs | grep -c "\"$tag:" || true)"
    [ "$writers" -le 1 ] || {
        echo "ci: session.rs spells the \"$tag:\" message $writers times; the grammar has a second writer" >&2
        exit 1
    }
done

# One wait, one outbound path: the supervisor's party thread blocks in one
# place (on the awaited socket, never in a fixed-period sleep), and installed
# sockets are non-blocking, so the only `write_all`s left are the `hello` and
# `hello-ack` on a fresh, still blocking stream. A third one is a record
# bypassing the outbound queue — which reads `WouldBlock` as a dead link.
supervise_src="$(sed '/^#\[cfg(test)\]/,$d' crates/net-sim/src/supervise.rs)"
if grep -n 'sleep(POLL)' <<<"$supervise_src"; then
    echo "ci: net-sim::supervise sleep-polls again (listed above)" >&2; exit 1
fi
write_alls="$(grep -c 'write_all(' <<<"$supervise_src" || true)"
[ "$write_alls" -le 2 ] || {
    echo "ci: net-sim::supervise has $write_alls write_all sites; only the two handshake writes may bypass the outbound queue" >&2
    exit 1
}

# One lock site in the triple provider: `Shared::lock` / `Shared::wait`
# recover a poisoned guard (entries enter the queues whole), so a panic on
# either side of the hand-off is a typed error from `take` and never a second
# panic from `schedule` or `drop`. An unwrapped guard is that regression.
provider_src="$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/provider.rs)"
if grep -nE 'lock\(\)\.unwrap\(\)|\.wait\(.*\.unwrap\(\)' <<<"$provider_src"; then
    echo "ci: core::provider unwraps a lock or condvar guard (listed above)" >&2; exit 1
fi
# The reconcile races (a `schedule` landing while a speculative window is in
# flight) depend on timing; one green run proves little.
for round in 1 2 3 4 5; do
    cargo test -q --offline -p parsecureml --lib provider::
done

# Fault-injection seed matrix: every chaos scenario must hold for any
# plan seed, not just the default. The sweep covers both the in-process
# chaos suite and the process-per-party TCP suite (whose chaos proxy
# derives its drop/sever schedule from the same seed).
for seed in 1 2 3; do
    PSML_FAULT_SEED="$seed" cargo test -q --offline --test failure_injection
    PSML_FAULT_SEED="$seed" cargo test -q --offline -p parsecureml \
        --test distributed_session proxy_sever_recovers_without_rollback
done

# Distributed-session smoke: a three-process localhost TCP session must
# finish (all replicas exit 0) and produce the same model digest as the
# single-process `psml train` run of the identical plan.
dist_state="$(mktemp -d)"
s0_log="$dist_state/s0.log"; s1_log="$dist_state/s1.log"; c_log="$dist_state/c.log"
./target/release/psml server0 --listen 127.0.0.1:7741 --state-dir "$dist_state/s0" \
    --run-id 9 >"$s0_log" 2>&1 &
s0_pid=$!
./target/release/psml server1 --listen 127.0.0.1:7742 --state-dir "$dist_state/s1" \
    --run-id 9 >"$s1_log" 2>&1 &
s1_pid=$!
./target/release/psml client --server0 127.0.0.1:7741 --server1 127.0.0.1:7742 \
    --state-dir "$dist_state/c" --run-id 9 --model mlp --dataset synthetic \
    --batch 8 --batches 1 --epochs 2 --seed 42 >"$c_log" 2>&1
wait "$s0_pid" "$s1_pid"
session_digest="$(grep -o '"digest":"[0-9a-f]*"' "$c_log" | head -n1 | cut -d'"' -f4)"
train_digest="$(./target/release/psml train --model mlp --dataset synthetic \
    --batch 8 --batches 1 --epochs 2 --seed 42 | awk '/weights digest/ {print $4}')"
for log in "$s0_log" "$s1_log"; do
    grep -q "\"digest\":\"$session_digest\"" "$log" || {
        echo "ci: replica digest mismatch (see $log)" >&2; exit 1; }
done
[ -n "$session_digest" ] && [ "$session_digest" = "$train_digest" ] || {
    echo "ci: TCP session digest $session_digest != in-process $train_digest" >&2
    exit 1
}
rm -rf "$dist_state"

# Observability gate: a traced profile run must emit a JSON document that
# validates against its self-declared psml.profile.v1 schema (and the
# report/traffic/reliability sub-schemas it embeds).
./target/release/psml profile --model mlp --dataset synthetic \
    --batch 8 --batches 1 --epochs 1 --json "$profile_json"
./target/release/psml validate "$profile_json"

# GEMM-ladder gate: a smoke run of the gemm bench must complete over both
# the f32 and u64 ring carriers (it asserts `gemm_auto` is never the
# slowest kernel at any recorded size, catching dispatcher cutover
# regressions) and emit a valid psml.bench.gemm.v1 document; the
# committed full-size measurement must validate too.
PSML_SMOKE=1 cargo bench --offline -p psml-bench --bench gemm
./target/release/psml validate BENCH_gemm.smoke.json
rm -f BENCH_gemm.smoke.json
./target/release/psml validate BENCH_gemm.json

# e2e gate: `e2e/` is a workspace of its own (the benchmark BENCHMARK.json
# declares), so nothing in `cargo test --workspace` notices when an API
# change in the crates breaks its build. Build it, run its unit tests, and
# validate a smoke run's document against BENCHMARK.json.
cargo build --release --offline --manifest-path e2e/Cargo.toml
cargo test --offline --manifest-path e2e/Cargo.toml
cargo run --release --offline --quiet --manifest-path e2e/Cargo.toml -- run --smoke
cargo run --release --offline --quiet --manifest-path e2e/Cargo.toml -- \
    check "${CARGO_TARGET_DIR:-target}/e2e/smoke.json"

# Serving gate: the multi-tenant micro-batcher must reveal exactly the
# bytes a sequential run reveals (digest equality over tag-sorted
# outputs) and its JSON report must validate against psml.serve.v1.
serve_json="$(mktemp)"
serve_args=(--models mlp,logistic --dataset synthetic --fleet 16 --requests 32 \
    --window-us 400 --max-batch 8 --queue 4096 --seed 42)
batched_digest="$(./target/release/psml serve "${serve_args[@]}" \
    | awk '/serve digest/ {print $4}')"
sequential_digest="$(./target/release/psml serve "${serve_args[@]}" --sequential \
    | awk '/serve digest/ {print $4}')"
[ -n "$batched_digest" ] && [ "$batched_digest" = "$sequential_digest" ] || {
    echo "ci: serve digest $batched_digest != sequential $sequential_digest" >&2
    exit 1
}
./target/release/psml serve "${serve_args[@]}" --json "$serve_json"
./target/release/psml validate "$serve_json"
rm -f "$serve_json"
