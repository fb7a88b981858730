#![forbid(unsafe_code)]
//! # ParSecureML-rs
//!
//! A Rust reproduction of **ParSecureML** (Zhang et al., ICPP 2020 / TPDS
//! 2021): a parallel secure machine learning framework that accelerates
//! SecureML-style two-party computation with GPUs.
//!
//! The framework executes real secret-shared machine learning — CNN, MLP,
//! RNN, linear/logistic regression and SVM over additive shares in
//! `Z_{2^64}` — across one client and two servers, while a
//! calibrated machine model (see `psml-gpu` and `psml-net`) accounts
//! simulated time for every CPU op, GPU kernel, PCIe transfer and network
//! message. The three paper contributions are all here and all togglable:
//!
//! - **profiling-guided adaptive GPU utilization** ([`adaptive`]),
//! - **double pipeline** for intra-node CPU-GPU cooperation ([`engine`],
//!   [`trainer`]),
//! - **compressed transmission** for inter-node communication (via
//!   `psml-net`'s delta+CSR encoders).
//!
//! Quickstart — one secure triplet multiplication end to end:
//!
//! ```
//! use parsecureml::prelude::*;
//!
//! let cfg = EngineConfig::parsecureml();
//! let mut ctx = SecureContext::<Fixed64>::new(cfg, 42);
//! let a = PlainMatrix::from_fn(16, 32, |r, c| (r + c) as f64 * 0.01);
//! let b = PlainMatrix::from_fn(32, 8, |r, c| (r as f64 - c as f64) * 0.01);
//! let c = ctx.secure_matmul_plain(&a, &b).unwrap();
//! assert!(c.max_abs_diff(&a.matmul(&b)) < 1e-2);
//! println!("simulated online time: {}", ctx.report().online_time);
//! ```

pub mod adaptive;
pub mod baseline;
pub mod config;
pub mod engine;
pub mod error;
pub mod io;
pub mod layers;
pub mod models;
pub mod observe;
pub mod provider;
pub mod report;
pub mod serve;
pub mod session;
pub mod trainer;
mod walk;

pub use adaptive::{AdaptiveEngine, Placement, RecalEvent, Recalibrator};
pub use config::{AdaptivePolicy, EngineConfig};
pub use engine::SecureContext;
pub use error::{ConfigError, EngineError};
pub use layers::{Activation, LayerSpec};
pub use models::{ModelKind, ModelSpec};
pub use provider::{ProviderStats, TripleProvider};
pub use report::{PhaseBreakdown, RunReport};
pub use serve::{
    outputs_digest, InferRequest, InferResponse, ModelHost, ModelId, ModelServeStats,
    RequestReport, ServeConfig, ServeConfigBuilder, ServeError, ServeOutcome,
    ServeReport,
};
pub use session::{
    fnv64, generation_seed, run_client, run_server, weights_digest, SessionConfig,
    SessionOutcome, TrainPlan,
};
pub use trainer::{InferenceResult, SecureTrainer, SharedPlan, TrainResult, TrainerCheckpoint};

// Fault-injection / reliability vocabulary (configured via
// `EngineConfig::fault_plan` / `EngineConfig::retry`, reported in
// `RunReport::reliability` / `RunReport::injected`).
pub use psml_net::{
    Blackout, FaultCounters, FaultPlan, LinkFaults, NetError, NodeId, Packet, Payload,
    ReceiveTap, ReliabilityStats, RetryPolicy,
};

// Process-per-party transport vocabulary: connection supervision, the
// TCP transport, and the chaos proxy the distributed-session tests drive.
pub use psml_net::{
    FaultProxy, ProxyConfig, SupervisionStats, Supervisor, SupervisorConfig, TcpTransport,
};

// Simulated-GPU vocabulary surfaced so applications need not depend on
// `psml_gpu` directly: device handles for custom protocols, the machine
// model for configuration, and the nvprof-style profile in reports.
pub use psml_gpu::{
    backend_for, BackendKind, CpuConfig, GemmMode, GpuConfig, GpuDevice, GpuError,
    MachineConfig, ProfileReport,
};
pub use psml_simtime::LinkModel;

// Structured tracing (the `psml-trace` crate): the global sink, typed
// span events, the Chrome `chrome://tracing` exporter, and the
// flamegraph-style text summary.
pub use psml_trace::{
    chrome_trace_json, chrome_trace_json_with, ChromeTraceOptions, Phase, Summary,
    TraceEvent, TraceSink,
};

/// Convenient re-exports for application code.
pub mod prelude {
    pub use crate::baseline::{PlainBackend, PlainModel};
    pub use crate::{
        Activation, AdaptivePolicy, BackendKind, ConfigError, EngineConfig, EngineError,
        FaultPlan, InferRequest, InferResponse, LayerSpec, LinkFaults, MachineConfig,
        ModelHost, ModelId, ModelKind, ModelSpec, NetError, NodeId, Phase, RecalEvent,
        RequestReport, RetryPolicy, RunReport, SecureContext, SecureTrainer, ServeConfig,
        ServeError, ServeReport, Summary, TraceEvent, TraceSink, TrainerCheckpoint,
    };
    pub use psml_data::{batch, Batch, DatasetKind};
    pub use psml_mpc::{Fixed64, Party, PlainMatrix, SecureRing, TripleSpec};
    pub use psml_simtime::{SimDuration, SimTime};
    pub use psml_tensor::Matrix;
}

#[cfg(test)]
mod proptests;
