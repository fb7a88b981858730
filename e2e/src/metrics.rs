//! The names this benchmark defines: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` declares the same names; `e2e check`
//! holds the two together.

use psml_trace::json::{obj, JsonValue};

/// Which clock (or exact count) a number was read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time: what a user of this machine waits for.
    Wall,
    /// Simulated V100-node time from the calibrated machine model.
    Sim,
    /// An exact count (bytes, operations), no clock involved.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. `bound` is the share of the baseline by which
/// `e2e compare` lets the value get worse between two runs of the same
/// seed; 0 means the two must be equal.
pub struct EndToEnd {
    pub name: &'static str,
    pub clock: Clock,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        clock: Clock::Wall,
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "wall_ops_per_s",
        clock: Clock::Wall,
        unit: "op/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "wall_ms_per_op_p50",
        clock: Clock::Wall,
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_s_per_op",
        clock: Clock::Sim,
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.0,
    },
    EndToEnd {
        name: "sim_offline_s_per_op",
        clock: Clock::Sim,
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.0,
    },
    EndToEnd {
        name: "sim_online_s_per_op",
        clock: Clock::Sim,
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.0,
    },
    EndToEnd {
        name: "sim_op_latency_p99_ms",
        clock: Clock::Sim,
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.0,
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        clock: Clock::Count,
        unit: "B",
        better: Better::Lower,
        bound: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        clock: Clock::Count,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "ops_failed_ratio",
        clock: Clock::Count,
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
    },
];

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "train_mlp_fresh",
        why: "MLP 3136-128-64-10 training step, batch 128, a fresh prefetched triple per product: large dense GEMMs, 56 MB of traffic per step, offline and online phases both live",
    },
    WorkloadInfo {
        name: "train_cnn_reuse",
        why: "CNN on MNIST, batch 64, one pre-shared batch and cached triples: no triple or RNG work per step, tall-skinny im2col GEMMs, the only workload where delta+CSR compression hits",
    },
    WorkloadInfo {
        name: "serve_fleet_small",
        why: "ModelHost serving 1024 single-row logistic requests per round from a 512-client open-loop fleet: every kernel is tiny, so per-request fixed cost is the whole bill",
    },
    WorkloadInfo {
        name: "tcp_session_mlp",
        why: "three-party session over supervised localhost TCP, MLP batch 8, 8 epochs: handshake, heartbeats, commit barriers, checkpoints and replicated compute",
    },
];

/// Per-layer metrics as `(name, unit, better)`, in report order. Every one
/// is reported on every workload; a layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str, Better); 76] = {
    use Better::{Higher as H, Lower as L};
    [
        ("tensor.gemm.calls_per_op", "count", L),
        ("tensor.gemm.flops_per_op", "flop", L),
        ("tensor.gemm.busy_ms_per_op", "ms", L),
        ("tensor.gemm.gflops", "Gflop/s", H),
        ("tensor.gemm.share", "ratio", L),
        ("parallel.rng.elems_per_op", "count", L),
        ("parallel.rng.busy_ms_per_op", "ms", L),
        ("parallel.rng.melems_per_s", "Melem/s", H),
        ("parallel.rng.fill_melems_per_s", "Melem/s", H),
        ("parallel.rng.share", "ratio", L),
        ("parallel.pool.dispatch_us", "us", L),
        ("parallel.pool.workers", "count", H),
        ("mpc.triple.triples_per_op", "count", L),
        ("mpc.triple.busy_ms_per_op", "ms", L),
        ("mpc.triple.share", "ratio", L),
        ("mpc.protocol.elems_per_op", "count", L),
        ("mpc.protocol.mask_ms_per_op", "ms", L),
        ("mpc.protocol.self_ms_per_op", "ms", L),
        ("mpc.protocol.share", "ratio", L),
        ("mpc.share.busy_ms_per_op", "ms", L),
        ("mpc.share.share", "ratio", L),
        ("net.codec.msgs_per_op", "count", L),
        ("net.codec.bytes_per_op", "B", L),
        ("net.codec.busy_ms_per_op", "ms", L),
        ("net.codec.gb_per_s", "GB/s", H),
        ("net.codec.share", "ratio", L),
        ("net.compress.busy_ms_per_op", "ms", L),
        ("net.compress.delta_hit_ratio", "ratio", H),
        ("net.compress.saved_ratio", "ratio", H),
        ("net.compress.share", "ratio", L),
        ("net.reliable.busy_ms_per_op", "ms", L),
        ("net.reliable.retransmits", "count", L),
        ("net.reliable.share", "ratio", L),
        ("net.supervise.connect_ms", "ms", L),
        ("net.supervise.rtt_us_p50", "us", L),
        ("net.supervise.mb_per_s", "MB/s", H),
        ("net.supervise.handshakes", "count", L),
        ("net.supervise.reconnects", "count", L),
        ("net.supervise.replayed", "count", L),
        ("gpu.device.gemm_calls_per_op", "count", L),
        ("gpu.device.busy_ms_per_op", "ms", L),
        ("gpu.device.share", "ratio", L),
        ("simtime.schedule_ns", "ns", L),
        ("trace.sink.disabled_ns_per_span", "ns", L),
        ("trace.sink.events_per_op", "count", L),
        ("trace.sink.enabled_overhead_pct", "%", L),
        ("core.provider.fill_ms_per_op", "ms", L),
        ("core.provider.triples_per_s", "1/s", H),
        ("core.provider.headroom", "ratio", H),
        ("core.engine.secure_mul_ms_per_op", "ms", L),
        ("core.engine.activation_ms_per_op", "ms", L),
        ("core.engine.share_reveal_ms_per_op", "ms", L),
        ("core.engine.report_assemble_us", "us", L),
        ("core.engine.self_share", "ratio", L),
        ("core.trainer.samples", "count", H),
        ("core.trainer.tail_pct", "%", H),
        ("core.trainer.op_wall_ms_tail", "ms", L),
        ("core.trainer.infer_ms_p50", "ms", L),
        ("core.trainer.self_share", "ratio", L),
        ("core.serve.windows_per_round", "count", L),
        ("core.serve.mean_fold", "count", H),
        ("core.serve.max_queue", "count", L),
        ("core.serve.overhead_us_per_req", "us", L),
        ("core.serve.wall_req_per_s_f64", "1/s", H),
        ("core.serve.wall_req_per_s_f512", "1/s", H),
        ("core.serve.wall_req_per_s_f4096", "1/s", H),
        ("core.serve.sim_p99_ms_f64", "sim_ms", L),
        ("core.serve.sim_p99_ms_f512", "sim_ms", L),
        ("core.serve.sim_p99_ms_f4096", "sim_ms", L),
        ("core.session.epoch_ms", "ms", L),
        ("core.session.ckpt_write_ms", "ms", L),
        ("core.session.overhead_share", "ratio", L),
        ("datasets.gen_ms_per_batch", "ms", L),
        ("unattributed.share", "ratio", L),
        // The two end-to-end metrics that can be 0 and so cannot carry a
        // bound in BENCHMARK.json; the traced run reports them here.
        ("sim_offline_s_per_op", "sim_s", L),
        ("ops_failed_ratio", "ratio", L),
    ]
};

/// A `{"value", "unit"}` record, the shape the driver reads.
pub fn value_unit(value: f64, unit: &str) -> JsonValue {
    obj([
        ("value", JsonValue::Float(value)),
        ("unit", JsonValue::Str(unit.to_string())),
    ])
}
