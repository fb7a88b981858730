//! Unified error type for the framework.

use psml_gpu::GpuError;
use psml_net::NetError;

/// A structurally invalid configuration or model description, produced by
/// [`crate::EngineConfig::validate`] / the config builder and by model-spec
/// validation.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `sparsity_threshold` outside `[0, 1]`.
    Sparsity(f64),
    /// `cpu_threads` was zero.
    Threads,
    /// Non-finite or non-positive learning rate.
    LearningRate(f64),
    /// Recalibration hysteresis window was zero.
    RecalWindow,
    /// The fault-injection plan was inconsistent.
    Faults(String),
    /// The retransmission policy was inconsistent.
    Retry(String),
    /// The triple-prefetch settings were inconsistent (reuse enabled,
    /// fault plan present, or zero depth).
    Prefetch(String),
    /// A model specification was inconsistent (bad layer chain, empty
    /// model, shape mismatch).
    Model(String),
    /// The serving micro-batch window was inconsistent (zero or negative).
    BatchWindow(String),
    /// A serving queue/batch bound was inconsistent (zero depth or batch).
    Queue(String),
    /// A weight file had the wrong magic, version, or implausible
    /// dimensions.
    WeightFormat(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Sparsity(v) => {
                write!(f, "sparsity_threshold {v} outside [0,1]")
            }
            ConfigError::Threads => write!(f, "cpu_threads must be >= 1"),
            ConfigError::LearningRate(v) => write!(f, "bad learning rate {v}"),
            ConfigError::RecalWindow => {
                write!(f, "recal_window must be >= 1")
            }
            ConfigError::Faults(s) => write!(f, "fault plan: {s}"),
            ConfigError::Retry(s) => write!(f, "retry policy: {s}"),
            ConfigError::Prefetch(s) => write!(f, "prefetch: {s}"),
            ConfigError::Model(s) => write!(f, "model: {s}"),
            ConfigError::BatchWindow(s) => write!(f, "batch window: {s}"),
            ConfigError::Queue(s) => write!(f, "serve queue: {s}"),
            ConfigError::WeightFormat(s) => write!(f, "weight format: {s}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Anything that can go wrong while running the secure framework.
///
/// Marked `#[non_exhaustive]`: downstream matches must carry a wildcard
/// arm, which lets future subsystems add variants without a breaking
/// release.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// A simulated-GPU operation failed.
    Gpu(GpuError),
    /// A network operation failed.
    Net(NetError),
    /// Operand shapes are inconsistent.
    Shape(String),
    /// The model/configuration combination is invalid.
    Config(ConfigError),
    /// A protocol invariant was violated (e.g. an unexpected message).
    Protocol(String),
    /// A filesystem operation (weight files, trace/profile export) failed.
    Io {
        /// What the framework was doing, e.g. `"write weights"`.
        context: String,
        /// The OS-level error kind (the full `std::io::Error` is neither
        /// `Clone` nor `PartialEq`, so only its kind is carried).
        kind: std::io::ErrorKind,
        /// The OS error's display text.
        message: String,
    },
}

impl EngineError {
    /// Wraps a free-form configuration/model message (legacy call sites;
    /// prefer a typed [`ConfigError`] variant).
    pub fn config(msg: impl Into<String>) -> Self {
        EngineError::Config(ConfigError::Model(msg.into()))
    }

    /// Wraps a `std::io::Error` with the operation it interrupted.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        EngineError::Io {
            context: context.into(),
            kind: err.kind(),
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Gpu(e) => write!(f, "gpu: {e}"),
            EngineError::Net(e) => write!(f, "net: {e}"),
            EngineError::Shape(s) => write!(f, "shape: {s}"),
            EngineError::Config(e) => write!(f, "config: {e}"),
            EngineError::Protocol(s) => write!(f, "protocol: {s}"),
            EngineError::Io {
                context, message, ..
            } => write!(f, "io: {context}: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<GpuError> for EngineError {
    fn from(e: GpuError) -> Self {
        EngineError::Gpu(e)
    }
}

impl From<NetError> for EngineError {
    fn from(e: NetError) -> Self {
        EngineError::Net(e)
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

/// Framework-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::Shape("2x3 vs 4x5".into());
        assert!(e.to_string().contains("2x3 vs 4x5"));
        let e = EngineError::Net(NetError::SelfSend);
        assert!(e.to_string().contains("self"));
        let e = EngineError::Config(ConfigError::Sparsity(1.5));
        assert!(e.to_string().contains("1.5"));
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = EngineError::io("read weights", &io);
        assert!(e.to_string().contains("read weights"));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn conversions_wrap() {
        let g: EngineError = GpuError::OutOfMemory {
            requested: 1,
            available: 0,
        }
        .into();
        assert!(matches!(g, EngineError::Gpu(_)));
        let n: EngineError = NetError::SelfSend.into();
        assert!(matches!(n, EngineError::Net(_)));
        let c: EngineError = ConfigError::Threads.into();
        assert!(matches!(c, EngineError::Config(ConfigError::Threads)));
    }

    #[test]
    fn io_errors_compare_by_kind_and_text() {
        let a = EngineError::io(
            "x",
            &std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        let b = EngineError::io(
            "x",
            &std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert_eq!(a, b);
    }
}
