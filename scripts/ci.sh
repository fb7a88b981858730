#!/usr/bin/env bash
# Tier-1 gate: everything must pass offline (the vendored proptest shim
# makes the workspace std-only).
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
# The paper's reproduction at full scale: every table, figure and ablation,
# each shape check asserted. A failed claim exits non-zero naming its id.
# (`tests/figures.rs` checks the same claims at reduced scale in tier-1.)
./target/release/figures
cargo test -q --offline --workspace
# Ring GEMMs run serial on a one-worker pool and in row bands or depth parts
# over a larger one: on AVX-512 CPUs the explicit ring kernel spreads from
# 2^22 multiply-adds (`gemm_packed_sum` and `gemm_auto` read one rule),
# every other product from 48M. The pool is sized from PSML_WORKERS at first use,
# so run the kernel crates under both shapes whatever this host's cores.
# The dealer's `Z` products run on the same pool: prefetch and inline
# dealing, the schedule-derived traffic, and served windows that read a
# weight opened by an earlier window must hold under both shapes. The two
# servers' local steps run at the same time on the same pool (`both`): every
# golden report, weights digest, wire frame and trace must stay
# byte-identical with one worker and with more workers than cores.
for workers in 1 3; do
    PSML_WORKERS="$workers" cargo test -q --release --offline -p psml-tensor -p psml-mpc
    PSML_WORKERS="$workers" cargo test -q --release --offline \
        --test prefetch_pipeline --test protocol_invariants --test serve_identity \
        --test backend_golden --test trace_determinism
done
# `-D warnings` now comes from [workspace.lints] in Cargo.toml, so plain
# builds and clippy runs enforce the same bar as CI. --workspace lints the
# member crates' test code too (a bare run lints only the root package's).
cargo clippy --workspace --all-targets --offline

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
# One secret-flow pass: format-macro and `TraceSink` sinks are scanned only
# by `lint::taint`, over the lists in `lint::config`; a sink scan anywhere
# else is the old lexical pass growing back. One token toolkit: the
# token-walking helpers live in `lint::tokens` alone.
if grep -rnE 'FORMAT_MACROS|"TraceSink"' crates/lint/src \
    | grep -vE '^crates/lint/src/(config|taint)\.rs:'; then
    echo "ci: psml-lint scans secret sinks outside lint::taint (listed above)" >&2; exit 1
fi
tok_is_defs="$(grep -rn 'fn tok_is' crates/lint/src | wc -l)"
[ "$tok_is_defs" -le 1 ] || {
    echo "ci: psml-lint defines tok_is $tok_is_defs times; the helpers live in lint::tokens" >&2
    exit 1
}

# One register-tiled kernel family: the host GEMMs are intrinsics and
# portable Rust. Inline assembly, or a raw `arch_prctl` asking the kernel
# for tile state, is the deleted AMX limb-split tier growing back.
if grep -rnE 'asm!|arch_prctl' crates; then
    echo "ci: inline asm or arch_prctl under crates/ (listed above)" >&2; exit 1
fi

# One Beaver-triple generator: `psml_mpc::gen_triple` draws every triple,
# one at a time, and the simulated GPU tallies engine time per label. A
# batched GEMM dispatcher, a second triple generator, a scoped pool entry
# or a per-op trace log under crates/ is the deleted batch path growing
# back.
if grep -rnE 'fn (gemm_batch|gen_triples_streamed|gen_triple_hadamard|scoped_run)\b|struct (Timeline|OpRecord)\b' crates; then
    echo "ci: a deleted triple batch path or per-op timeline is back (listed above)" >&2; exit 1
fi

# One share carrier: `Fixed64` (`Z_{2^64}`, masks uniform over the ring) is
# the only `SecureRing`. A second impl, or the float carrier's
# `NEEDS_TRUNCATION` switch or cloning `truncate_matrix`, is the bounded-mask
# float ring growing back.
ring_impls="$(grep -rn 'impl SecureRing for' crates | wc -l)"
[ "$ring_impls" -le 1 ] || {
    echo "ci: $ring_impls SecureRing impls under crates/; Fixed64 is the one carrier" >&2
    exit 1
}
if grep -rnE 'NEEDS_TRUNCATION|truncate_matrix' crates; then
    echo "ci: the float carrier's truncation switch is back (listed above)" >&2; exit 1
fi

# The simulated GPU is a clock: a device buffer is a shape, bytes and a
# ready instant, and the engine computes every C_i with the same protocol
# step whichever placement it charges. A device element trait, a Tensor-Core
# rounding map, the binary16 emulation module or a matrix stored in a device
# slot is the value-computing simulator growing back.
if grep -rnE 'trait GpuElement|fn quantize_tc|pub mod half' crates \
    || grep -nE 'data: Matrix' crates/gpu-sim/src/device.rs; then
    echo "ci: the simulated GPU computes values again (listed above)" >&2; exit 1
fi

# One protocol core: the Beaver algebra lives in psml_mpc::protocol's
# party-local steps, and the engine only schedules, charges and ships
# around them. An owning ServerMulSession or an inline Hadamard in
# non-test engine.rs is that algebra (or its operand copies) growing back.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/engine.rs \
    | grep -nE 'ServerMulSession|\.hadamard\('; then
    echo "ci: core::engine re-implements or re-owns the protocol steps (listed above)" >&2; exit 1
fi

# One GEMM dispatch rule: `gemm_auto` is the one-term prepared sum, so
# `pack_b_auto`'s floor and `spread_over_pool` pick the kernel of every
# product, and ring carriers are the one element type rebranded onto a
# pinned kernel. A tier enum and its rule, or the pinned f32 kernel with its
# `TypeId` cast, in non-test gemm.rs is the second dispatcher growing back.
if sed '/^#\[cfg(test)\]/,$d' crates/tensor/src/gemm.rs \
    | grep -nE 'packed_band_f32|TypeId|AutoTier|auto_tier'; then
    echo "ci: tensor::gemm has a second dispatch rule or an f32 kernel copy (listed above)" >&2; exit 1
fi

# A served request's host work is per slice, not per element: `Fixed64`
# encodes with an add and a truncating cast, and the codec's slice writer
# sizes its buffer once and fills it chunk by chunk. A `.round()` (a libm
# call per element) in non-test fixed.rs, or an `extend` or `push` in
# `put_slice`, is the per-element loop growing back.
if sed '/^#\[cfg(test)\]/,$d' crates/mpc/src/fixed.rs | grep -n '\.round()'; then
    echo "ci: mpc::fixed rounds through libm (listed above)" >&2; exit 1
fi
put_slice_body=$(sed -n '/^fn put_slice/,/^}/p' crates/net-sim/src/codec.rs)
if [ -z "$put_slice_body" ] || grep -nE 'extend|push' <<<"$put_slice_body"; then
    echo "ci: net::codec's put_slice is missing or grows its buffer per element (listed above)" >&2; exit 1
fi

# One layer walk: `core::walk` interprets a model's layers, and the secure
# trainer, the plaintext baseline and the triple schedule are its drivers.
# A `LayerSpec::` in non-test trainer.rs or baseline.rs, or a hand-built
# `TripleSpec::Gemm {` in non-test models.rs, is a second copy of the
# network growing back.
for f in trainer baseline; do
    if sed '/^mod tests {/,$d' "crates/core/src/$f.rs" | grep -n 'LayerSpec::'; then
        echo "ci: core::$f interprets LayerSpec outside the layer walk (listed above)" >&2; exit 1
    fi
done
if sed '/^mod tests {/,$d' crates/core/src/models.rs | grep -n 'TripleSpec::Gemm {'; then
    echo "ci: core::models derives a triple schedule by hand again (listed above)" >&2; exit 1
fi

# One triple source: `core::provider`'s `TripleProvider` keeps the declared
# schedule and checks and deals every product, with prefetch or without, and
# the walk's secure driver has one product call for training and inference
# alike. A mode flag on that driver or a second product call in non-test
# trainer.rs, a schedule of bare shapes in models.rs, an engine-side triple
# generator or mask plan in non-test engine.rs, or a backend trait (its one
# impl is `psml_gpu::SimBackend`) is the second source growing back.
if sed '/^mod tests {/,$d' crates/core/src/trainer.rs | grep -nE 'masked:|secure_mul_auto'; then
    echo "ci: core::trainer has a second product path (listed above)" >&2; exit 1
fi
if sed '/^mod tests {/,$d' crates/core/src/models.rs | grep -n 'fn forward_schedule'; then
    echo "ci: core::models declares a forward pass as bare shapes again (listed above)" >&2; exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/engine.rs | grep -nE 'fn gen_triple|masked_plan'; then
    echo "ci: core::engine deals or plans triples beside the provider (listed above)" >&2; exit 1
fi
if grep -rn 'trait Backend' crates; then
    echo "ci: a backend trait is back under crates/ (listed above)" >&2; exit 1
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

# One read pass per compressed send: the delta+CSR encoder counts the
# delta's non-zeros, then emits the CSR straight from `(next, mirror)`, and
# the decoder lends its mirror. A materialised delta (a matrix `.sub(`;
# element differences are spelled `R::sub`), `Csr::from_dense` on the send
# path, or a copy of a mirror in non-test compress.rs is the old
# encode/decode growing back.
compress_src="$(sed '/^#\[cfg(test)\]/,$d' crates/net-sim/src/compress.rs | grep -v '^ *//')"
if grep -nE 'Csr::from_dense\(|\.sub\(|\b(prev|base)\b[^;]*\.(clone|to_vec|to_owned)\(' <<<"$compress_src"; then
    echo "ci: net-sim::compress materialises a delta or copies a mirror again (listed above)" >&2; exit 1
fi

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
# the u64 ring and f64 plaintext carriers (it asserts `gemm_auto` is never
# the slowest kernel at any recorded size, catching dispatcher cutover
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

# Ring-kernel codegen gate: `A` reaches every ring `vpmullq` in a register.
# A per-step `_mm512_set1_epi64` that feeds a single multiply (the narrow
# tile's form before it loaded eight steps at once) is folded by LLVM into
# `vpmullq zmm, zmm, m64{1to8}`, which ran 3-6x slower on AVX-512 Xeons.
# Disassemble the benchmark's binary and fail on any such multiply in a
# ring-kernel symbol, or when no ring-kernel symbol is found at all.
e2e_bin="${CARGO_TARGET_DIR:-e2e/target}/release/e2e"
if ! command -v objdump >/dev/null; then
    echo "ci: objdump is not installed; skipping the ring-kernel codegen gate" >&2
elif [ "$(uname -m)" = x86_64 ]; then
    ring_codegen="$(objdump -d --no-show-raw-insn -C "$e2e_bin" | awk '
        /^[0-9a-f]+ </ { ring = ($0 ~ /packed_band_ring_avx512|RingTile/); symbols += ring }
        ring && /vpmullq/ { muls++; if (/\{1to8\}/) { folded++; print } }
        END { printf "ring-kernel symbols %d, vpmullq %d, folded broadcasts %d\n", symbols, muls, folded }')"
    echo "ci: $(tail -n1 <<<"$ring_codegen")"
    if ! grep -q 'symbols [1-9][0-9]*, vpmullq [1-9][0-9]*, folded broadcasts 0$' <<<"$ring_codegen"; then
        echo "$ring_codegen" >&2
        echo "ci: a ring-kernel vpmullq takes a folded {1to8} broadcast, or no ring kernel was found" >&2
        exit 1
    fi
    # CRC codegen gate: the frame checksum's zmm tier folds with VPCLMULQDQ
    # on zmm registers (AT&T `vpclmullqlqdq` / `vpclmulhqhqdq`). Fail when
    # the fold's symbol is missing from the benchmark's binary or holds no
    # such instruction, so the vector tier cannot silently fall back.
    crc_codegen="$(objdump -d --no-show-raw-insn -C "$e2e_bin" | awk '
        /^[0-9a-f]+ </ { fold = ($0 ~ /crc::fold::update_folded_wide>/); symbols += fold }
        fold && /vpclmul[lh]q[lh]qdq.*%zmm/ { wide++ }
        END { printf "crc zmm-fold symbols %d, zmm vpclmul %d\n", symbols, wide }')"
    echo "ci: $crc_codegen"
    if ! grep -q 'symbols [1-9][0-9]*, zmm vpclmul [1-9][0-9]*$' <<<"$crc_codegen"; then
        echo "ci: the CRC zmm fold is missing or has no vpclmul on zmm registers" >&2
        exit 1
    fi
    # Encode codegen gate: the client's `encode(x) - mask` tier converts
    # eight lanes at once with `vcvttpd2qq` on zmm registers. Fail when
    # `mpc::fixed::wide::encode_sub` is missing from the benchmark's binary
    # or converts no zmm register, so it cannot silently fall back to the
    # scalar saturating cast.
    encode_codegen="$(objdump -d --no-show-raw-insn -C "$e2e_bin" | awk '
        /^[0-9a-f]+ </ { enc = ($0 ~ /fixed::wide::encode_sub/); symbols += enc }
        enc && /vcvttpd2qq.*%zmm/ { wide++ }
        END { printf "encode symbols %d, zmm vcvttpd2qq %d\n", symbols, wide }')"
    echo "ci: $encode_codegen"
    if ! grep -q 'symbols [1-9][0-9]*, zmm vcvttpd2qq [1-9][0-9]*$' <<<"$encode_codegen"; then
        echo "ci: the AVX-512 encode is missing or has no vcvttpd2qq on zmm registers" >&2
        exit 1
    fi
    # MT19937 codegen gate: the generator's AVX-512 twist runs on zmm
    # registers. Fail when `Mt19937::twist_wide` is missing from the
    # benchmark's binary or holds no zmm instruction.
    twist_codegen="$(objdump -d --no-show-raw-insn -C "$e2e_bin" | awk '
        /^[0-9a-f]+ </ { tw = ($0 ~ /Mt19937::twist_wide>/); symbols += tw }
        tw && /%zmm/ { wide++ }
        END { printf "mt19937 twist_wide symbols %d, zmm instructions %d\n", symbols, wide }')"
    echo "ci: $twist_codegen"
    if ! grep -q 'symbols [1-9][0-9]*, zmm instructions [1-9][0-9]*$' <<<"$twist_codegen"; then
        echo "ci: MT19937's AVX-512 twist is missing or uses no zmm register" >&2
        exit 1
    fi
fi
cargo run --release --offline --quiet --manifest-path e2e/Cargo.toml -- run --smoke
cargo run --release --offline --quiet --manifest-path e2e/Cargo.toml -- \
    check "${CARGO_TARGET_DIR:-target}/e2e/smoke.json"

# Serving gate: the multi-tenant micro-batcher must reveal exactly the
# bytes a sequential run reveals (digest equality over tag-sorted
# outputs) and its JSON report must validate against psml.serve.v1.
serve_digests_agree() {
    local batched sequential
    batched="$(./target/release/psml serve "$@" | awk '/serve digest/ {print $4}')"
    sequential="$(./target/release/psml serve "$@" --sequential \
        | awk '/serve digest/ {print $4}')"
    [ -n "$batched" ] && [ "$batched" = "$sequential" ] || {
        echo "ci: serve digest $batched != sequential $sequential ($*)" >&2
        exit 1
    }
}
serve_json="$(mktemp)"
serve_args=(--models mlp,logistic --dataset synthetic --fleet 16 --requests 32 \
    --window-us 400 --max-batch 8 --queue 4096 --seed 42)
serve_digests_agree "${serve_args[@]}"
# Logistic alone at the e2e serving shape (single-row requests, windows of
# up to 16): every product is under the packing floor, so this checks the
# unpacked fused path every such request takes.
serve_digests_agree --models logistic --dataset synthetic --fleet 32 --requests 64 \
    --window-us 200 --max-batch 16 --queue 4096 --seed 7
./target/release/psml serve "${serve_args[@]}" --json "$serve_json"
./target/release/psml validate "$serve_json"
rm -f "$serve_json"
