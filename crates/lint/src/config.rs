//! The rule configuration: allowlists, registries, and sink catalogs.
//!
//! Everything here is a compile-time constant on purpose. The analyzer
//! guards *protocol invariants of this workspace* — which modules may hold
//! `unsafe`, which may mint RNGs, which types are secret — and those facts
//! change only when the architecture changes, at which point editing this
//! file (and re-running the tier-1 gate) *is* the review trail. A config
//! file would invite drive-by exemptions that no compiler error ever
//! surfaces. Rationale for each entry lives in DESIGN.md § Static
//! analysis.

/// Modules permitted to contain the `unsafe` keyword at all. Each exists
/// for one vetted reason: the GEMM carrier casts (`tensor::gemm`), the
/// `WRAPPING_U64` trait contract (`tensor::num`), the scoped-job lifetime
/// transmute (`parallel::pool`), the feature-detected calls into MT19937's
/// AVX-512 twist and block copy (`parallel::mt19937`), the `Fixed64` ring
/// carrier's `unsafe impl Num` and the feature-detected AVX-512DQ encode
/// with its unaligned loads and stores (`mpc::fixed`), and the
/// feature-detected calls into the two CRC folds, PCLMULQDQ on xmm and
/// VPCLMULQDQ on zmm (`net-sim::crc`).
pub const UNSAFE_MODULES: &[&str] = &[
    "tensor::gemm",
    "tensor::num",
    "parallel::pool",
    "parallel::mt19937",
    "mpc::fixed",
    "net-sim::crc",
];

/// Crates that contain an allowlisted unsafe module. Their roots must
/// carry `#![deny(unsafe_op_in_unsafe_fn)]` (every unsafe operation gets
/// its own block and justification); every *other* crate root must carry
/// `#![forbid(unsafe_code)]`.
pub const UNSAFE_CRATES: &[&str] = &["tensor", "parallel", "mpc", "net-sim"];

/// Modules sanctioned to construct `Mt19937` generators. Protocol share
/// masking must draw from the engine's seed-derived generator (replay
/// identity depends on it), so minting fresh generators is confined to:
/// the RNG's home crate (`parallel`), triple provisioning (`mpc::triple`,
/// counter-derived streams), and dataset synthesis (`datasets`).
/// Everything else obtains a generator through
/// `psml_parallel::protocol_rng` / `psml_parallel::derived_rng`.
pub const RNG_MODULES: &[&str] = &["parallel::*", "mpc::triple", "datasets::*"];

/// `Mt19937` associated functions that create a generator.
pub const RNG_CONSTRUCTORS: &[&str] = &["new", "from_key", "from_stream", "default"];

/// The fault-injection RNG type. It exists so chaos decisions never
/// perturb the protocol's Mt19937 streams; protocol code referencing it
/// would couple the two randomness domains.
pub const FAULT_RNG_IDENT: &str = "SplitMix64";

/// The only module that may name the fault RNG.
pub const FAULT_RNG_MODULES: &[&str] = &["net-sim::fault"];

/// The fault-injection driver; only the delivery layer (`net-sim`) may
/// touch it. Protocol and engine code see faults solely as the typed
/// errors the endpoint surfaces.
pub const FAULT_INJECTOR_IDENT: &str = "FaultInjector";

/// Modules that may reference [`FAULT_INJECTOR_IDENT`].
pub const FAULT_INJECTOR_MODULES: &[&str] = &["net-sim::*"];

/// Types whose values are secret shares or masked material. Formatting
/// one (debug or display) leaks limb values into logs, traces, or panic
/// messages. Extended in-source by marking a type with
/// `#[doc = "psml-secret"]`.
pub const SECRET_TYPES: &[&str] = &[
    "SharePair",
    "TripleShare",
    "BeaverTriple",
    "DistTriple",
    "SharedMatrix",
];

/// Doc-attribute marker that adds a type to the secret registry.
pub const SECRET_MARKER: &str = "psml-secret";

/// Modules that may hand-implement `Debug` for a secret type — the
/// redacting impls themselves (shape + ring, never limbs). `derive(Debug)`
/// on a secret type is forbidden everywhere; a derive is never redacting.
pub const REDACTION_MODULES: &[&str] = &[
    "mpc::share",
    "mpc::triple",
    "core::engine",
];

/// Methods on secret values whose results are *metadata*, safe to format:
/// shapes, dimensions, byte counts, payload labels, readiness times.
/// `pair.shape()` in an assert is fine; `pair.u` is not. A byte count or a
/// payload's kind is what the wire already shows an observer (a sparse
/// payload's size included), and the simulated clocks charge by it.
pub const METADATA_ACCESSORS: &[&str] = &[
    "shape",
    "rows",
    "cols",
    "dims",
    "len",
    "byte_size",
    "kind",
    "is_empty",
    "ready",
    "spec",
];

/// Macros whose arguments end up in human-readable output.
pub const FORMAT_MACROS: &[&str] = &[
    "format",
    "format_args",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "todo",
    "unimplemented",
    "unreachable",
];

/// Protocol-path modules that must stay bit-deterministic: simulated time
/// and replay identity break if they read the wall clock or iterate a
/// randomly-seeded `HashMap`. The trace crate (host-time spans are its
/// job) and the bench harness are deliberately absent.
pub const DETERMINISM_MODULES: &[&str] = &[
    "core::engine",
    "core::provider",
    "core::trainer",
    "core::serve",
    "core::adaptive",
    "core::layers",
    "core::models",
    "core::baseline",
    "mpc::*",
    "net-sim::*",
    "simtime::*",
    "parallel::*",
];

/// Carve-outs from [`DETERMINISM_MODULES`]: modules that govern *real*
/// sockets between party processes, where the wall clock is the ground
/// truth (heartbeat liveness deadlines, reconnect backoff, socket
/// timeouts). Everything protocol-visible they carry — frame bytes,
/// sequence numbers, fault verdicts — stays deterministic; only their
/// timing lives outside the simulated-time domain. Scoped narrowly on
/// purpose: a new net-sim module is covered by the rule until it earns
/// a listing here.
pub const DETERMINISM_EXEMPT_MODULES: &[&str] = &[
    "net-sim::supervise",
    "net-sim::tcp",
    "net-sim::proxy",
];

/// Wall-clock types forbidden in [`DETERMINISM_MODULES`].
pub const WALL_CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime"];

/// Methods that iterate a `HashMap` in arbitrary order. Keyed lookups
/// (`get`, `entry`, `contains_key`) stay allowed.
pub const HASHMAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Struct fields of secret types whose values are *metadata*, not limb
/// material — the field-access twin of [`METADATA_ACCESSORS`]. Reading
/// `pair.rows` is shape information; reading `pair.shares` is the secret.
pub const METADATA_FIELDS: &[&str] = &["rows", "cols", "ring", "party", "seq", "spec"];

/// Declassification points: calling one of these on a secret-derived value
/// is the *sanctioned* transition out of the masked domain (the protocol's
/// reveal step — reconstructing public `E`/`F`, decoding a merged output).
/// Taint does not propagate through their results. A new reveal surface
/// must be added here deliberately, which is exactly the review moment the
/// analyzer exists to force.
pub const DECLASSIFY_CALLS: &[&str] = &[
    "reconstruct",
    "reconstruct_ring",
    "reconstruct_public",
    "decode",
    "decode_matrix",
    "reveal",
    "reveal_insecure",
];

/// Online-path modules that must stay data-oblivious: the paper's Sec. 4
/// triplet protocol assumes servers whose control flow is independent of
/// secret values, so an `if`/`match`/short-circuit/index conditioned on
/// secret-derived data is a timing side channel. Suppressible per-site
/// with `// psml-lint: allow(timing, "why this value is public")`.
pub const TIMING_MODULES: &[&str] = &["mpc::*", "core::engine"];

/// Modules whose lock usage the concurrency rules audit: the thread-pool
/// job queue, the triple-provider prefetch queue, and the TCP supervisor's
/// shared writer table — the three places our threads actually interleave.
pub const CONCURRENCY_MODULES: &[&str] = &[
    "parallel::pool",
    "core::provider",
    "net-sim::supervise",
];

/// Lock-acquisition methods (`Mutex::lock`, `RwLock::read`/`write`).
pub const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Method names that collide with the std prelude (`str::split`,
/// `Mutex::lock`, `Iterator::map`, ...). The call graph's receiver-blind
/// fallback — "exactly one workspace type defines this method" — must
/// never fire for these: `args.split(' ')` on a `&str` is not the MPC
/// crate's share-splitting `split`, even if the latter is the only
/// workspace definition of the name.
pub const STD_METHODS: &[&str] = &[
    "clear", "clone", "contains", "drain", "extend", "filter", "find",
    "first", "get", "insert", "is_empty", "iter", "join", "last", "len",
    "lock", "map", "new", "next", "parse", "pop", "push", "read", "recv",
    "remove", "send", "split", "take", "write",
];

/// Import-prefix to lint-crate-name mapping for cross-crate `use`
/// resolution (package names use `psml_` prefixes and underscores; the
/// analyzer's crate identities are the `crates/` directory names).
pub const CRATE_PREFIXES: &[(&str, &str)] = &[
    ("psml_tensor", "tensor"),
    ("psml_parallel", "parallel"),
    ("psml_mpc", "mpc"),
    ("psml_net", "net-sim"),
    ("psml_gpu", "gpu-sim"),
    ("psml_trace", "trace"),
    ("psml_simtime", "simtime"),
    ("psml_datasets", "datasets"),
    ("psml_lint", "lint"),
    ("psml_bench", "bench"),
    ("parsecureml", "core"),
];
