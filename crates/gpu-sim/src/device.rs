//! The simulated GPU device: memory, engines, and operations.

use crate::backend::{Backend, SimBackend};
use crate::config::GpuConfig;
use crate::element::GpuElement;
use crate::kernels::GemmMode;
use crate::profiler::ProfileReport;
use psml_simtime::{ResourceId, SimTime, Timeline};
use psml_tensor::Matrix;
use std::fmt;

/// Handle to a matrix resident in (simulated) device memory.
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

struct Slot<R: GpuElement> {
    data: Matrix<R>,
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
/// Kernel *execution* is delegated to the [`Backend`]; the device keeps
/// the arena, the timeline, and the profiler, and prices every kernel
/// through the backend's rate table.
pub struct GpuDevice<R: GpuElement> {
    config: GpuConfig,
    backend: Box<dyn Backend<R>>,
    timeline: Timeline,
    h2d: ResourceId,
    d2h: ResourceId,
    compute: ResourceId,
    slots: Vec<Option<Slot<R>>>,
    free_ids: Vec<usize>,
    allocated: usize,
    fence: SimTime,
}

impl<R: GpuElement> GpuDevice<R> {
    /// Creates an idle device on the simulator backend.
    pub fn new(config: GpuConfig) -> Self {
        Self::with_backend(config, Box::new(SimBackend))
    }

    /// Creates an idle device executing and pricing kernels through the
    /// given backend.
    pub fn with_backend(config: GpuConfig, backend: Box<dyn Backend<R>>) -> Self {
        let mut timeline = Timeline::new();
        let h2d = timeline.add_resource("pcie:h2d");
        let compute = timeline.add_resource("gpu:compute");
        let d2h = timeline.add_resource("pcie:d2h");
        GpuDevice {
            config,
            backend,
            timeline,
            h2d,
            d2h,
            compute,
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
        self.timeline.makespan()
    }

    /// Inserts a full-device fence: every subsequently issued operation
    /// starts no earlier than the current makespan. This is how the
    /// *non*-pipelined baseline serializes transfers and kernels
    /// (`cudaDeviceSynchronize` between every step).
    pub fn fence(&mut self) -> SimTime {
        self.fence = self.timeline.makespan();
        self.fence
    }

    /// Read access to the simulated trace.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Names this device's lane in the global structured trace (e.g.
    /// `"server0.gpu"`); see [`Timeline::set_trace_scope`].
    pub fn set_trace_scope(&mut self, scope: impl Into<String>) {
        self.timeline.set_trace_scope(scope);
    }

    /// nvprof-style profile of everything executed so far.
    pub fn profile(&self) -> ProfileReport {
        ProfileReport::from_timeline(&self.timeline)
    }

    fn alloc(&mut self, data: Matrix<R>, ready: SimTime) -> Result<BufferId, GpuError> {
        let bytes = data.byte_size();
        let available = self.config.memory_bytes.saturating_sub(self.allocated);
        if bytes > available {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available,
            });
        }
        self.allocated += bytes;
        let slot = Slot { data, ready, bytes };
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

    fn slot(&self, id: BufferId) -> Result<&Slot<R>, GpuError> {
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
        Ok(self.slot(id)?.data.shape())
    }

    /// The simulated instant a buffer's contents become valid.
    pub fn ready_at(&self, id: BufferId) -> Result<SimTime, GpuError> {
        Ok(self.slot(id)?.ready)
    }

    /// Copies a host matrix to the device (H2D over PCIe). `after` is the
    /// instant the host data becomes available (e.g. when the CPU finished
    /// producing it).
    pub fn upload(&mut self, m: &Matrix<R>, after: SimTime) -> Result<BufferId, GpuError> {
        let dur = self.config.pcie.transfer_time(m.byte_size());
        let ready =
            self.timeline
                .schedule_bytes(self.h2d, after.max(self.fence), dur, "h2d", m.byte_size());
        self.alloc(m.clone(), ready)
    }

    /// Copies a buffer back to the host (D2H). Returns the matrix and the
    /// simulated completion instant. The buffer stays resident.
    pub fn download(&mut self, id: BufferId) -> Result<(Matrix<R>, SimTime), GpuError> {
        let (data, ready, bytes) = {
            let slot = self.slot(id)?;
            (slot.data.clone(), slot.ready, slot.bytes)
        };
        let dur = self.config.pcie.transfer_time(bytes);
        let done =
            self.timeline
                .schedule_bytes(self.d2h, ready.max(self.fence), dur, "d2h", bytes);
        Ok((data, done))
    }

    /// Dense GEMM kernel; returns the output buffer.
    pub fn gemm(&mut self, a: BufferId, b: BufferId, mode: GemmMode) -> Result<BufferId, GpuError> {
        let (sa, sb) = (self.slot(a)?, self.slot(b)?);
        if sa.data.cols() != sb.data.rows() {
            return Err(GpuError::ShapeMismatch {
                left: sa.data.shape(),
                right: sb.data.shape(),
                op: "gemm",
            });
        }
        let (m, k, n) = (sa.data.rows(), sa.data.cols(), sb.data.cols());
        let ready = sa.ready.max(sb.ready).max(self.fence);
        let out = self.backend.gemm(&sa.data, &sb.data, mode);
        let (label, dur) = self.backend.gemm_charge(&self.config, m, k, n, mode);
        let done = self.timeline.schedule(self.compute, ready, dur, label);
        self.alloc(out, done)
    }

    /// Element-wise addition kernel.
    pub fn add(&mut self, a: BufferId, b: BufferId) -> Result<BufferId, GpuError> {
        self.elementwise(a, b, "add", |x, y| x.add(y))
    }

    /// Element-wise subtraction kernel.
    pub fn sub(&mut self, a: BufferId, b: BufferId) -> Result<BufferId, GpuError> {
        self.elementwise(a, b, "sub", |x, y| x.sub(y))
    }

    /// Element-wise (Hadamard) multiplication kernel.
    pub fn hadamard(&mut self, a: BufferId, b: BufferId) -> Result<BufferId, GpuError> {
        self.elementwise(a, b, "hadamard", |x, y| x.mul(y))
    }

    /// Scales every element by `k` (a `*alpha` kernel).
    pub fn scale(&mut self, a: BufferId, k: R) -> Result<BufferId, GpuError> {
        let sa = self.slot(a)?;
        let ready = sa.ready.max(self.fence);
        let out = sa.data.map(|x| x.mul(k));
        // Read one operand, write one result.
        let dur = self.config.elementwise_time(2 * sa.bytes);
        let done = self.timeline.schedule(self.compute, ready, dur, "scale");
        self.alloc(out, done)
    }

    fn elementwise(
        &mut self,
        a: BufferId,
        b: BufferId,
        label: &'static str,
        f: impl Fn(R, R) -> R,
    ) -> Result<BufferId, GpuError> {
        let (sa, sb) = (self.slot(a)?, self.slot(b)?);
        if sa.data.shape() != sb.data.shape() {
            return Err(GpuError::ShapeMismatch {
                left: sa.data.shape(),
                right: sb.data.shape(),
                op: label,
            });
        }
        let ready = sa.ready.max(sb.ready).max(self.fence);
        let out = sa.data.zip_map(&sb.data, f);
        // Read two operands, write one result.
        let dur = self.config.elementwise_time(3 * sa.bytes);
        let done = self.timeline.schedule(self.compute, ready, dur, label);
        self.alloc(out, done)
    }

    /// Device-side RNG kernel (cuRAND stand-in): fills a new buffer with
    /// uniform samples from a counter-based generator.
    pub fn random(
        &mut self,
        rows: usize,
        cols: usize,
        seed: u64,
        after: SimTime,
    ) -> Result<BufferId, GpuError> {
        let out = self.backend.random(rows, cols, seed);
        let (label, dur) = self.backend.rng_charge(&self.config, rows * cols);
        let done = self
            .timeline
            .schedule(self.compute, after.max(self.fence), dur, label);
        self.alloc(out, done)
    }

    /// Reserves `bytes` of device memory without materializing data —
    /// the accounting half of [`GpuDevice::alloc`], with the identical
    /// OOM check.
    fn charge_alloc(&mut self, bytes: usize) -> Result<(), GpuError> {
        let available = self.config.memory_bytes.saturating_sub(self.allocated);
        if bytes > available {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available,
            });
        }
        self.allocated += bytes;
        Ok(())
    }

    /// Charges the timeline for `random(rows, cols, …)` followed by
    /// `download` and `free`, without generating or moving any data.
    ///
    /// Bit-exact mirror of the real sequence: same engines, same labels,
    /// same durations, same dependency chain, same transient memory
    /// pressure (the buffer exists between the RNG kernel's issue and
    /// the post-download free, so OOM behavior matches). Used by the
    /// prefetch path, where triple material is produced elsewhere but
    /// the device clock must advance exactly as if it were produced
    /// here.
    pub fn charge_random_roundtrip(
        &mut self,
        rows: usize,
        cols: usize,
        after: SimTime,
    ) -> Result<SimTime, GpuError> {
        let bytes = rows * cols * R::BYTES;
        let (label, dur) = self.backend.rng_charge(&self.config, rows * cols);
        let ready = self
            .timeline
            .schedule(self.compute, after.max(self.fence), dur, label);
        self.charge_alloc(bytes)?;
        let dl = self.config.pcie.transfer_time(bytes);
        let done = self
            .timeline
            .schedule_bytes(self.d2h, ready.max(self.fence), dl, "d2h", bytes);
        self.allocated -= bytes;
        Ok(done)
    }

    /// Charges the timeline for `upload(A)`, `upload(B)`, `gemm`,
    /// `download(C)` and the three frees, without touching any data.
    /// Both uploads start no earlier than `after` (the host-ready
    /// instant), exactly as when the engine issues them back to back.
    ///
    /// Same bit-exactness contract as
    /// [`GpuDevice::charge_random_roundtrip`].
    pub fn charge_gemm_roundtrip(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        mode: GemmMode,
        after: SimTime,
    ) -> Result<SimTime, GpuError> {
        let a_bytes = m * k * R::BYTES;
        let b_bytes = k * n * R::BYTES;
        let c_bytes = m * n * R::BYTES;
        let start = after.max(self.fence);
        let a_ready = self.timeline.schedule_bytes(
            self.h2d,
            start,
            self.config.pcie.transfer_time(a_bytes),
            "h2d",
            a_bytes,
        );
        self.charge_alloc(a_bytes)?;
        let b_ready = self.timeline.schedule_bytes(
            self.h2d,
            after.max(self.fence),
            self.config.pcie.transfer_time(b_bytes),
            "h2d",
            b_bytes,
        );
        self.charge_alloc(b_bytes)?;
        let ready = a_ready.max(b_ready).max(self.fence);
        let (label, dur) = self.backend.gemm_charge(&self.config, m, k, n, mode);
        let c_ready = self.timeline.schedule(self.compute, ready, dur, label);
        self.charge_alloc(c_bytes)?;
        let dl = self.config.pcie.transfer_time(c_bytes);
        let done = self
            .timeline
            .schedule_bytes(self.d2h, c_ready.max(self.fence), dl, "d2h", c_bytes);
        self.allocated -= a_bytes + b_bytes + c_bytes;
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use psml_tensor::gemm_blocked;

    fn device() -> GpuDevice<f32> {
        GpuDevice::new(MachineConfig::v100_node().gpu)
    }

    fn mat(n: usize, seed: usize) -> Matrix<f32> {
        Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 7 + seed) % 13) as f32 - 6.0)
    }

    #[test]
    fn upload_compute_download_roundtrip() {
        let mut dev = device();
        let a = mat(32, 1);
        let b = mat(32, 2);
        let ha = dev.upload(&a, SimTime::ZERO).unwrap();
        let hb = dev.upload(&b, SimTime::ZERO).unwrap();
        let hc = dev.gemm(ha, hb, GemmMode::Fp32).unwrap();
        let (c, done) = dev.download(hc).unwrap();
        assert_eq!(c, gemm_blocked(&a, &b));
        assert!(done > SimTime::ZERO);
        assert_eq!(dev.now(), done);
    }

    #[test]
    fn dependencies_order_simulated_time() {
        let mut dev = device();
        let a = mat(64, 3);
        let ha = dev.upload(&a, SimTime::ZERO).unwrap();
        let upload_done = dev.ready_at(ha).unwrap();
        let hb = dev.upload(&a, SimTime::ZERO).unwrap();
        let hc = dev.gemm(ha, hb, GemmMode::Fp32).unwrap();
        let gemm_done = dev.ready_at(hc).unwrap();
        assert!(gemm_done > upload_done, "kernel must wait for its inputs");
    }

    #[test]
    fn copies_overlap_compute_but_fence_serializes() {
        // Pipelined: second upload overlaps the first gemm.
        let mut piped = device();
        let a = mat(256, 1);
        let ha = piped.upload(&a, SimTime::ZERO).unwrap();
        let hb = piped.upload(&a, SimTime::ZERO).unwrap();
        let _ = piped.gemm(ha, hb, GemmMode::Fp32).unwrap();
        let hc = piped.upload(&a, SimTime::ZERO).unwrap();
        let _ = piped.ready_at(hc).unwrap();
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
    fn elementwise_kernels_compute_correctly() {
        let mut dev = device();
        let a = mat(16, 5);
        let b = mat(16, 9);
        let ha = dev.upload(&a, SimTime::ZERO).unwrap();
        let hb = dev.upload(&b, SimTime::ZERO).unwrap();
        let (sum, _) = {
            let h = dev.add(ha, hb).unwrap();
            dev.download(h).unwrap()
        };
        assert_eq!(sum, a.add(&b));
        let (diff, _) = {
            let h = dev.sub(ha, hb).unwrap();
            dev.download(h).unwrap()
        };
        assert_eq!(diff, a.sub(&b));
        let (prod, _) = {
            let h = dev.hadamard(ha, hb).unwrap();
            dev.download(h).unwrap()
        };
        assert_eq!(prod, a.hadamard(&b));
    }

    #[test]
    fn unary_kernel_computes_and_charges_time() {
        let mut dev = device();
        let a = mat(16, 3);
        let ha = dev.upload(&a, SimTime::ZERO).unwrap();
        let t0 = dev.now();

        let hs = dev.scale(ha, 2.0).unwrap();
        let (scaled, _) = dev.download(hs).unwrap();
        assert_eq!(scaled, a.scale(2.0));

        assert!(dev.now() > t0, "kernels must advance simulated time");
        let profile = dev.profile();
        assert!(profile.fraction_matching("scale") > 0.0);
    }

    #[test]
    fn unary_kernel_on_freed_buffer_errors() {
        let mut dev = device();
        let ha = dev.upload(&mat(4, 1), SimTime::ZERO).unwrap();
        dev.free(ha).unwrap();
        assert_eq!(dev.scale(ha, 1.0).unwrap_err(), GpuError::InvalidBuffer(ha));
    }

    #[test]
    fn device_rng_charges_time_and_is_reproducible() {
        let mut dev = device();
        let h1 = dev.random(32, 32, 99, SimTime::ZERO).unwrap();
        let t1 = dev.ready_at(h1).unwrap();
        assert!(t1 > SimTime::ZERO);
        let (m1, _) = dev.download(h1).unwrap();
        let mut dev2 = device();
        let h2 = dev2.random(32, 32, 99, SimTime::ZERO).unwrap();
        let (m2, _) = dev2.download(h2).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn charge_random_roundtrip_matches_real_sequence() {
        // Real: random + download + free.
        let mut real = device();
        let h = real.random(33, 17, 4, SimTime::ZERO).unwrap();
        let (_, real_done) = real.download(h).unwrap();
        real.free(h).unwrap();

        // Charged: identical clocks and profile, no data.
        let mut charged = device();
        let done = charged.charge_random_roundtrip(33, 17, SimTime::ZERO).unwrap();

        assert_eq!(done, real_done);
        assert_eq!(charged.now(), real.now());
        assert_eq!(charged.allocated_bytes(), real.allocated_bytes());
        assert_eq!(charged.allocated_bytes(), 0);
        assert_eq!(charged.profile().to_string(), real.profile().to_string());

        // Clocks keep agreeing when more work lands after the roundtrip.
        let t2r = real.random(8, 8, 5, SimTime::ZERO).unwrap();
        let t2c = charged.random(8, 8, 5, SimTime::ZERO).unwrap();
        assert_eq!(real.ready_at(t2r).unwrap(), charged.ready_at(t2c).unwrap());
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
            let (_, real_done) = real.download(hc).unwrap();
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
}
