//! The simulated GPU device: memory, engines, and operations.
//!
//! A timing model: a buffer is its shape, its bytes and the instant it
//! becomes valid. No op reads or writes element values.

use crate::backend::SimBackend;
use crate::config::GpuConfig;
use crate::kernels::GemmMode;
use crate::profiler::ProfileReport;
use psml_simtime::{Resource, SimDuration, SimTime};
use psml_tensor::{Matrix, Num};
use std::fmt;
use std::marker::PhantomData;

/// Handle to a buffer resident in (simulated) device memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufferId(usize);

/// Errors raised by the device, mirroring their CUDA counterparts.
#[derive(Clone, Debug, PartialEq)]
pub enum GpuError {
    /// `cudaErrorMemoryAllocation`: the requested allocation exceeds free
    /// device memory.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes currently free.
        available: usize,
    },
    /// Operation on a freed or never-allocated buffer.
    InvalidBuffer(BufferId),
    /// Operand shapes are incompatible.
    ShapeMismatch {
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
        /// The operation that rejected them.
        op: &'static str,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} B, {available} B free"
            ),
            GpuError::InvalidBuffer(id) => write!(f, "invalid device buffer {id:?}"),
            GpuError::ShapeMismatch { left, right, op } => {
                write!(f, "{op}: incompatible shapes {left:?} and {right:?}")
            }
        }
    }
}

impl std::error::Error for GpuError {}

/// One of the device's three serial engines.
#[derive(Clone, Copy)]
enum Engine {
    H2d,
    Compute,
    D2h,
}

struct Slot {
    shape: (usize, usize),
    /// Simulated instant at which the buffer's contents become valid.
    ready: SimTime,
    bytes: usize,
}

/// A simulated GPU.
///
/// Three serial engines model the hardware: an H2D copy engine, a compute
/// engine, and a D2H copy engine — so PCIe transfers overlap kernels exactly
/// as with CUDA streams on distinct engines (the paper's Fig. 5 pipeline).
/// Every buffer carries the simulated instant its contents become valid;
/// an operation starts at the max of its operands' ready times and its
/// engine's availability.
///
/// The device times work and holds no values: a buffer is a shape of `R`
/// elements (which sets its bytes). It keeps the arena, the engines, and
/// a per-label tally of engine time for the profiler, and prices every
/// kernel through the [`SimBackend`] rate table.
pub struct GpuDevice<R: Num> {
    config: GpuConfig,
    backend: SimBackend,
    /// Buffers hold `R` elements: that sets their bytes.
    elem: PhantomData<R>,
    h2d: Resource,
    compute: Resource,
    d2h: Resource,
    /// `(label, summed engine time, calls)` in first-seen label order.
    tally: Vec<(&'static str, SimDuration, usize)>,
    /// Lane prefix of this device's spans in the global trace sink.
    trace_scope: Option<String>,
    slots: Vec<Option<Slot>>,
    free_ids: Vec<usize>,
    allocated: usize,
    fence: SimTime,
}

impl<R: Num> GpuDevice<R> {
    /// Creates an idle device on the simulator's rate table.
    pub fn new(config: GpuConfig) -> Self {
        Self::with_backend(config, SimBackend)
    }

    /// Creates an idle device pricing kernels through the given rate table.
    pub fn with_backend(config: GpuConfig, backend: SimBackend) -> Self {
        GpuDevice {
            config,
            backend,
            elem: PhantomData,
            h2d: Resource::new("pcie:h2d"),
            compute: Resource::new("gpu:compute"),
            d2h: Resource::new("pcie:d2h"),
            tally: Vec::new(),
            trace_scope: None,
            slots: Vec::new(),
            free_ids: Vec::new(),
            allocated: 0,
            fence: SimTime::ZERO,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Bytes currently allocated on the device.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated
    }

    /// The simulated instant at which all issued work completes.
    pub fn now(&self) -> SimTime {
        self.h2d
            .free_at()
            .max(self.compute.free_at())
            .max(self.d2h.free_at())
    }

    /// Inserts a full-device fence: every subsequently issued operation
    /// starts no earlier than the current makespan. This is how the
    /// *non*-pipelined baseline serializes transfers and kernels
    /// (`cudaDeviceSynchronize` between every step).
    pub fn fence(&mut self) -> SimTime {
        self.fence = self.now();
        self.fence
    }

    /// Names this device's lane in the global structured trace (e.g.
    /// `"server0.gpu"`): its spans appear on tracks `"<scope>/<engine>"`,
    /// an unscoped device's on the bare engine name.
    pub fn set_trace_scope(&mut self, scope: impl Into<String>) {
        self.trace_scope = Some(scope.into());
    }

    /// nvprof-style profile of everything executed so far.
    pub fn profile(&self) -> ProfileReport {
        ProfileReport::from_tally(&self.tally)
    }

    /// Runs an op on `engine` once `ready` has passed, taking `dur`; adds
    /// its engine time to `label`'s tally and, when tracing, emits its span
    /// (`bytes` is carried into the span only). Returns the op's end.
    fn schedule(
        &mut self,
        engine: Engine,
        ready: SimTime,
        dur: SimDuration,
        label: &'static str,
        bytes: usize,
    ) -> SimTime {
        let res = match engine {
            Engine::H2d => &mut self.h2d,
            Engine::Compute => &mut self.compute,
            Engine::D2h => &mut self.d2h,
        };
        let (start, end) = res.schedule(ready, dur);
        if psml_trace::TraceSink::is_enabled() {
            let track = match &self.trace_scope {
                Some(scope) => format!("{scope}/{}", res.name()),
                None => res.name().to_string(),
            };
            psml_trace::TraceSink::span(
                label,
                &track,
                psml_trace::ns_of_secs(start.as_secs()),
                psml_trace::ns_of_secs(end.as_secs()),
                bytes as u64,
            );
        }
        // `end - start`, not `dur`: the two differ by f64 rounding, and the
        // profile sums what the engine was occupied for.
        let spent = end - start;
        match self.tally.iter_mut().find(|(l, ..)| *l == label) {
            Some((_, total, calls)) => {
                *total += spent;
                *calls += 1;
            }
            None => self.tally.push((label, spent, 1)),
        }
        end
    }

    /// Reserves a `rows x cols` buffer that becomes valid at `ready`.
    fn alloc(&mut self, (rows, cols): (usize, usize), ready: SimTime) -> Result<BufferId, GpuError> {
        let bytes = rows * cols * R::BYTES;
        let available = self.config.memory_bytes.saturating_sub(self.allocated);
        if bytes > available {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available,
            });
        }
        self.allocated += bytes;
        let slot = Slot {
            shape: (rows, cols),
            ready,
            bytes,
        };
        let id = match self.free_ids.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        Ok(BufferId(id))
    }

    fn slot(&self, id: BufferId) -> Result<&Slot, GpuError> {
        self.slots
            .get(id.0)
            .and_then(Option::as_ref)
            .ok_or(GpuError::InvalidBuffer(id))
    }

    /// Releases a buffer's device memory.
    pub fn free(&mut self, id: BufferId) -> Result<(), GpuError> {
        let slot = self
            .slots
            .get_mut(id.0)
            .and_then(Option::take)
            .ok_or(GpuError::InvalidBuffer(id))?;
        self.allocated -= slot.bytes;
        self.free_ids.push(id.0);
        Ok(())
    }

    /// Shape of a resident buffer.
    pub fn shape(&self, id: BufferId) -> Result<(usize, usize), GpuError> {
        Ok(self.slot(id)?.shape)
    }

    /// Copies a host matrix to the device (H2D over PCIe). `after` is the
    /// instant the host data becomes available (e.g. when the CPU finished
    /// producing it). Only the matrix's shape is read.
    pub fn upload(&mut self, m: &Matrix<R>, after: SimTime) -> Result<BufferId, GpuError> {
        self.copy_in(m.shape(), after)
    }

    /// [`GpuDevice::upload`] of a `rows x cols` host matrix.
    fn copy_in(&mut self, (rows, cols): (usize, usize), after: SimTime) -> Result<BufferId, GpuError> {
        let bytes = rows * cols * R::BYTES;
        let dur = self.config.pcie.transfer_time(bytes);
        let ready = self.schedule(Engine::H2d, after.max(self.fence), dur, "h2d", bytes);
        self.alloc((rows, cols), ready)
    }

    /// Copies a buffer back to the host (D2H). Returns the simulated
    /// completion instant. The buffer stays resident.
    pub fn download(&mut self, id: BufferId) -> Result<SimTime, GpuError> {
        let (ready, bytes) = {
            let slot = self.slot(id)?;
            (slot.ready, slot.bytes)
        };
        let dur = self.config.pcie.transfer_time(bytes);
        Ok(self.schedule(Engine::D2h, ready.max(self.fence), dur, "d2h", bytes))
    }

    /// Dense GEMM kernel; returns the output buffer.
    pub fn gemm(&mut self, a: BufferId, b: BufferId, mode: GemmMode) -> Result<BufferId, GpuError> {
        let (sa, sb) = (self.slot(a)?, self.slot(b)?);
        let ((m, k), (k2, n)) = (sa.shape, sb.shape);
        if k != k2 {
            return Err(GpuError::ShapeMismatch {
                left: sa.shape,
                right: sb.shape,
                op: "gemm",
            });
        }
        let ready = sa.ready.max(sb.ready).max(self.fence);
        let (label, dur) = self.backend.gemm_charge(&self.config, m, k, n, mode);
        let done = self.schedule(Engine::Compute, ready, dur, label, 0);
        self.alloc((m, n), done)
    }

    /// Element-wise addition kernel.
    pub fn add(&mut self, a: BufferId, b: BufferId) -> Result<BufferId, GpuError> {
        self.elementwise(a, b, "add")
    }

    /// Element-wise subtraction kernel.
    pub fn sub(&mut self, a: BufferId, b: BufferId) -> Result<BufferId, GpuError> {
        self.elementwise(a, b, "sub")
    }

    fn elementwise(
        &mut self,
        a: BufferId,
        b: BufferId,
        label: &'static str,
    ) -> Result<BufferId, GpuError> {
        let (sa, sb) = (self.slot(a)?, self.slot(b)?);
        if sa.shape != sb.shape {
            return Err(GpuError::ShapeMismatch {
                left: sa.shape,
                right: sb.shape,
                op: label,
            });
        }
        let (shape, bytes) = (sa.shape, sa.bytes);
        let ready = sa.ready.max(sb.ready).max(self.fence);
        // Read two operands, write one result.
        let dur = self.config.elementwise_time(3 * bytes);
        let done = self.schedule(Engine::Compute, ready, dur, label, 0);
        self.alloc(shape, done)
    }

    /// Device-side RNG kernel (cuRAND stand-in): a new `rows x cols`
    /// buffer of uniform samples. Their values are
    /// [`crate::kernels::device_random`]'s, made on the host by whoever
    /// consumes them.
    pub fn random(&mut self, rows: usize, cols: usize, after: SimTime) -> Result<BufferId, GpuError> {
        let (label, dur) = self.backend.rng_charge(&self.config, rows * cols);
        let done = self.schedule(Engine::Compute, after.max(self.fence), dur, label, 0);
        self.alloc((rows, cols), done)
    }

    /// `random(rows, cols)`, then `download` and `free`: a device draw
    /// copied back to the host. Returns when it is there.
    pub fn charge_random_roundtrip(
        &mut self,
        rows: usize,
        cols: usize,
        after: SimTime,
    ) -> Result<SimTime, GpuError> {
        let h = self.random(rows, cols, after)?;
        let done = self.download(h)?;
        self.free(h)?;
        Ok(done)
    }

    /// `upload(A)` and `upload(B)` (both host-ready at `after`), `gemm`,
    /// `download(C)` and the three frees: a host product run on the
    /// device. Returns when `C` is back on the host.
    pub fn charge_gemm_roundtrip(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        mode: GemmMode,
        after: SimTime,
    ) -> Result<SimTime, GpuError> {
        let ha = self.copy_in((m, k), after)?;
        let hb = self.copy_in((k, n), after)?;
        let hc = self.gemm(ha, hb, mode)?;
        let done = self.download(hc)?;
        for h in [ha, hb, hc] {
            self.free(h)?;
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn device() -> GpuDevice<f32> {
        GpuDevice::new(MachineConfig::v100_node().gpu)
    }

    fn mat(n: usize, seed: usize) -> Matrix<f32> {
        Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 7 + seed) % 13) as f32 - 6.0)
    }

    #[test]
    fn upload_compute_download_roundtrip() {
        let mut dev = device();
        let a = Matrix::<f32>::zeros(32, 24);
        let b = Matrix::<f32>::zeros(24, 16);
        let ha = dev.upload(&a, SimTime::ZERO).unwrap();
        let hb = dev.upload(&b, SimTime::ZERO).unwrap();
        let hc = dev.gemm(ha, hb, GemmMode::Fp32).unwrap();
        assert_eq!(dev.shape(hc), Ok((32, 16)));
        assert_eq!(dev.allocated_bytes(), (32 * 24 + 24 * 16 + 32 * 16) * 4);
        let done = dev.download(hc).unwrap();
        assert!(done > SimTime::ZERO);
        assert_eq!(dev.now(), done);
    }

    #[test]
    fn dependencies_order_simulated_time() {
        let mut dev = device();
        let a = mat(64, 3);
        let ha = dev.upload(&a, SimTime::ZERO).unwrap();
        let hb = dev.upload(&a, SimTime::ZERO).unwrap();
        let upload_done = dev.now();
        let _ = dev.gemm(ha, hb, GemmMode::Fp32).unwrap();
        assert!(dev.now() > upload_done, "kernel must wait for its inputs");
    }

    #[test]
    fn copies_overlap_compute_but_fence_serializes() {
        // Pipelined: second upload overlaps the first gemm.
        let mut piped = device();
        let a = mat(256, 1);
        let ha = piped.upload(&a, SimTime::ZERO).unwrap();
        let hb = piped.upload(&a, SimTime::ZERO).unwrap();
        let _ = piped.gemm(ha, hb, GemmMode::Fp32).unwrap();
        let _ = piped.upload(&a, SimTime::ZERO).unwrap();
        let t_piped = piped.now();

        // Fenced: every step waits for the previous one.
        let mut fenced = device();
        let ha = fenced.upload(&a, SimTime::ZERO).unwrap();
        fenced.fence();
        let hb = fenced.upload(&a, SimTime::ZERO).unwrap();
        fenced.fence();
        let _ = fenced.gemm(ha, hb, GemmMode::Fp32).unwrap();
        fenced.fence();
        let _ = fenced.upload(&a, SimTime::ZERO).unwrap();
        let t_fenced = fenced.now();

        assert!(t_piped < t_fenced, "pipelining must save simulated time");
    }

    #[test]
    fn memory_accounting_and_oom() {
        let mut cfg = MachineConfig::v100_node().gpu;
        cfg.memory_bytes = 10_000;
        let mut dev = GpuDevice::<f32>::new(cfg);
        let a = Matrix::<f32>::zeros(40, 40); // 6400 B
        let ha = dev.upload(&a, SimTime::ZERO).unwrap();
        assert_eq!(dev.allocated_bytes(), 6400);
        let err = dev.upload(&a, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { requested: 6400, .. }));
        dev.free(ha).unwrap();
        assert_eq!(dev.allocated_bytes(), 0);
        let _ = dev.upload(&a, SimTime::ZERO).unwrap();
    }

    #[test]
    fn freed_buffer_is_invalid() {
        let mut dev = device();
        let ha = dev.upload(&mat(8, 1), SimTime::ZERO).unwrap();
        dev.free(ha).unwrap();
        assert_eq!(dev.download(ha).unwrap_err(), GpuError::InvalidBuffer(ha));
        assert_eq!(dev.free(ha).unwrap_err(), GpuError::InvalidBuffer(ha));
        assert_eq!(dev.add(ha, ha).unwrap_err(), GpuError::InvalidBuffer(ha));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut dev = device();
        let ha = dev.upload(&Matrix::<f32>::zeros(4, 5), SimTime::ZERO).unwrap();
        let hb = dev.upload(&Matrix::<f32>::zeros(4, 5), SimTime::ZERO).unwrap();
        assert!(matches!(
            dev.gemm(ha, hb, GemmMode::Fp32).unwrap_err(),
            GpuError::ShapeMismatch { op: "gemm", .. }
        ));
        let hc = dev.upload(&Matrix::<f32>::zeros(5, 4), SimTime::ZERO).unwrap();
        assert!(matches!(
            dev.add(ha, hc).unwrap_err(),
            GpuError::ShapeMismatch { op: "add", .. }
        ));
    }

    #[test]
    fn elementwise_kernels_keep_their_operands_shape() {
        let mut dev = device();
        let ha = dev.upload(&Matrix::<f32>::zeros(16, 9), SimTime::ZERO).unwrap();
        let hb = dev.upload(&Matrix::<f32>::zeros(16, 9), SimTime::ZERO).unwrap();
        let hs = dev.add(ha, hb).unwrap();
        let hd = dev.sub(ha, hb).unwrap();
        assert_eq!((dev.shape(hs), dev.shape(hd)), (Ok((16, 9)), Ok((16, 9))));
    }

    #[test]
    fn device_rng_charges_time_and_is_reproducible() {
        let mut dev = device();
        let h1 = dev.random(32, 32, SimTime::ZERO).unwrap();
        assert!(dev.now() > SimTime::ZERO);
        assert_eq!(dev.shape(h1), Ok((32, 32)));
        let t1 = dev.download(h1).unwrap();
        let mut dev2 = device();
        let h2 = dev2.random(32, 32, SimTime::ZERO).unwrap();
        assert_eq!(dev2.download(h2).unwrap(), t1);
    }

    #[test]
    fn charge_random_roundtrip_matches_real_sequence() {
        // Real: random + download + free.
        let mut real = device();
        let h = real.random(33, 17, SimTime::ZERO).unwrap();
        let real_done = real.download(h).unwrap();
        real.free(h).unwrap();

        // The roundtrip: identical clocks and profile.
        let mut charged = device();
        let done = charged.charge_random_roundtrip(33, 17, SimTime::ZERO).unwrap();

        assert_eq!(done, real_done);
        assert_eq!(charged.now(), real.now());
        assert_eq!(charged.allocated_bytes(), real.allocated_bytes());
        assert_eq!(charged.allocated_bytes(), 0);
        assert_eq!(charged.profile().to_string(), real.profile().to_string());

        // Clocks keep agreeing when more work lands after the roundtrip.
        real.random(8, 8, SimTime::ZERO).unwrap();
        charged.random(8, 8, SimTime::ZERO).unwrap();
        assert_eq!(real.now(), charged.now());
    }

    #[test]
    fn charge_gemm_roundtrip_matches_real_sequence() {
        let (m, k, n) = (24, 40, 16);
        let a = Matrix::from_fn(m, k, |r, c| ((r + 2 * c) % 7) as f32);
        let b = Matrix::from_fn(k, n, |r, c| ((3 * r + c) % 5) as f32);
        let after = SimTime::from_secs(1e-4);

        for tc in [false, true] {
            let mode = if tc { GemmMode::TensorCore } else { GemmMode::Fp32 };
            let mut real = device();
            let ha = real.upload(&a, after).unwrap();
            let hb = real.upload(&b, after).unwrap();
            let hc = real.gemm(ha, hb, mode).unwrap();
            let real_done = real.download(hc).unwrap();
            real.free(ha).unwrap();
            real.free(hb).unwrap();
            real.free(hc).unwrap();

            let mut charged = device();
            let done = charged.charge_gemm_roundtrip(m, k, n, mode, after).unwrap();

            assert_eq!(done, real_done, "tc={tc}");
            assert_eq!(charged.now(), real.now(), "tc={tc}");
            assert_eq!(charged.allocated_bytes(), 0, "tc={tc}");
            assert_eq!(
                charged.profile().to_string(),
                real.profile().to_string(),
                "tc={tc}"
            );
        }
    }

    #[test]
    fn charge_roundtrips_hit_the_same_oom_wall() {
        let mut cfg = MachineConfig::v100_node().gpu;
        cfg.memory_bytes = 10_000;
        let mut dev = GpuDevice::<f32>::new(cfg);
        // 40x40 f32 = 6400 B fits; a second one does not.
        dev.charge_random_roundtrip(40, 40, SimTime::ZERO).unwrap();
        assert_eq!(dev.allocated_bytes(), 0, "charge must release its bytes");
        let resident = dev.upload(&Matrix::<f32>::zeros(40, 40), SimTime::ZERO).unwrap();
        let err = dev.charge_random_roundtrip(40, 40, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { requested: 6400, .. }));
        dev.free(resident).unwrap();
        dev.charge_gemm_roundtrip(20, 20, 20, GemmMode::Fp32, SimTime::ZERO).unwrap();
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    fn profile_reports_kernels() {
        let mut dev = device();
        let ha = dev.upload(&mat(64, 1), SimTime::ZERO).unwrap();
        let hb = dev.upload(&mat(64, 2), SimTime::ZERO).unwrap();
        let _ = dev.gemm(ha, hb, GemmMode::Fp32).unwrap();
        let report = dev.profile();
        let text = report.to_string();
        assert!(text.contains("gemm"));
        assert!(text.contains("h2d"));
    }

    #[test]
    fn tally_aggregates_calls_and_time_per_label() {
        let mut dev = device();
        assert_eq!(dev.now(), SimTime::ZERO);
        assert!(dev.profile().lines.is_empty());
        let ha = dev.upload(&mat(16, 1), SimTime::ZERO).unwrap();
        let hb = dev.upload(&mat(16, 2), SimTime::ZERO).unwrap();
        let _ = dev.add(ha, hb).unwrap();
        let _ = dev.add(ha, hb).unwrap();
        let profile = dev.profile();
        let line = |label: &str| profile.lines.iter().find(|l| l.label == label).unwrap();
        assert_eq!((line("h2d").calls, line("add").calls), (2, 2));
        assert_eq!(profile.lines.len(), 2);
        // Two back-to-back uploads on one engine: their summed time is the
        // engine's whole busy span.
        let upload = dev.config().pcie.transfer_time(mat(16, 1).byte_size());
        assert_eq!(line("h2d").total, upload + upload);
    }

    #[test]
    fn a_thousand_ops_leave_one_tally_entry_per_label() {
        let mut dev = device();
        let a = mat(4, 1);
        // Five ops a round: upload, add, download, then the RNG kernel and
        // its download.
        for _ in 0..200 {
            let ha = dev.upload(&a, SimTime::ZERO).unwrap();
            let hs = dev.add(ha, ha).unwrap();
            let _ = dev.download(hs).unwrap();
            dev.free(ha).unwrap();
            dev.free(hs).unwrap();
            dev.charge_random_roundtrip(4, 4, SimTime::ZERO).unwrap();
        }
        assert_eq!(dev.tally.len(), 4, "h2d, add, d2h and the RNG kernel");
        let calls: usize = dev.tally.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(calls, 1000);
    }

    #[test]
    fn scheduled_ops_reach_the_global_trace_sink() {
        use psml_trace::TraceSink;
        let mut dev = device();
        dev.set_trace_scope("server0.gpu");
        TraceSink::enable();
        TraceSink::clear();
        let ha = dev.upload(&mat(8, 1), SimTime::ZERO).unwrap();
        let _ = dev.add(ha, ha).unwrap();
        let events = TraceSink::drain();
        TraceSink::disable();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].op.as_str(), events[0].bytes), ("h2d", 256));
        assert_eq!(events[0].track, "server0.gpu/pcie:h2d");
        assert_eq!(events[1].track, "server0.gpu/gpu:compute");
        assert_eq!(
            events[1].end_ns,
            psml_trace::ns_of_secs(dev.now().as_secs())
        );
    }
}
