//! Ack/retransmit reliable delivery over [`Endpoint`], driven entirely by
//! simulated time.
//!
//! The protocol engine runs the three parties in lock-step on one thread,
//! so a "channel" here orchestrates *both* sides of a transfer: it sends,
//! runs the receiver's deadline-aware receive, and — when faults are
//! armed — completes an ack handshake, retransmitting with exponential
//! backoff until the frame lands intact or the retry budget is exhausted.
//!
//! Determinism: every decision is a function of the [`RetryPolicy`], the
//! endpoints' [fault plans](crate::fault::FaultPlan), and simulated
//! clocks. No wall-clock time and no OS scheduling is involved, so a
//! faulty run replays bit-identically under the same seed, and all
//! recovery cost is visible as added [`SimTime`].
//!
//! Fault-free fast path: when neither endpoint has faults armed the
//! channel degenerates to a bare send/recv — no ack frames, no timing
//! change, zero counters — so enabling the reliability layer costs
//! nothing when chaos is off.

use crate::endpoint::{Endpoint, NetError};
use crate::message::{NodeId, Packet, Payload};
use psml_simtime::{SimDuration, SimTime};
use psml_tensor::Num;

/// Marks a retransmission in the structured trace as an instant event on
/// the link's lane.
fn trace_retransmit(from: NodeId, to: NodeId, at: SimTime) {
    if psml_trace::TraceSink::is_enabled() {
        let ns = psml_trace::ns_of_secs(at.as_secs());
        psml_trace::TraceSink::span(
            "retransmit",
            &format!("net:{}->{}", from.short_name(), to.short_name()),
            ns,
            ns,
            0,
        );
    }
}

/// Deterministic 64-bit finalizer used for backoff-jitter draws. The
/// constants are the splitmix finalizer's; this is deliberately a bare
/// mixing function rather than a named RNG type — jitter shapes *delays*,
/// it is outside both the protocol's Mt19937 domain and the fault plan's
/// verdict stream.
fn jitter_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Retransmission parameters for one logical transfer leg.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Grace period beyond the expected arrival instant before the
    /// receiver declares the frame lost. Scales with backoff on each
    /// retry, so it need only exceed per-frame jitter, not blackout
    /// windows.
    pub base_timeout: SimDuration,
    /// Multiplier applied to the timeout after each failed attempt
    /// (`>= 1`). Exponential growth lets a fixed retry budget ride out
    /// latency spikes and blackout windows of *a priori* unknown length.
    pub backoff: f64,
    /// Retransmissions allowed per leg before giving up with
    /// [`NetError::Timeout`]. The total send budget per leg is therefore
    /// [`RetryPolicy::attempts`]` = max_retries + 1`.
    pub max_retries: u32,
    /// Jitter fraction in `[0, 1]`. Each attempt's window is stretched by
    /// a decorrelated factor in `[1, 1 + jitter)` drawn from
    /// `jitter_seed`, so parties retrying into the same congested link do
    /// not synchronize their retransmissions. Jitter only *extends*
    /// windows — the final attempt always keeps at least its
    /// deterministic deadline. `0.0` (the default) disables jitter and
    /// reproduces the legacy schedule bit-exactly.
    pub jitter: f64,
    /// Seed for the jitter draws. Same seed ⇒ same delays (deterministic
    /// replay under test); per-deployment seeds decorrelate real parties.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout: SimDuration::from_micros(200.0),
            backoff: 2.0,
            max_retries: 10,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Checks the policy is usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.base_timeout <= SimDuration::ZERO {
            return Err("retry base_timeout must be positive".into());
        }
        if !self.backoff.is_finite() || self.backoff < 1.0 {
            return Err(format!("retry backoff {} must be >= 1", self.backoff));
        }
        if !self.jitter.is_finite() || !(0.0..=1.0).contains(&self.jitter) {
            return Err(format!("retry jitter {} must be in [0, 1]", self.jitter));
        }
        Ok(())
    }

    /// Total sends a leg may make: the initial attempt plus
    /// `max_retries` retransmissions. Budget accounting goes through this
    /// so the boundary is explicit — the final retransmission is spent,
    /// never silently skipped.
    pub fn attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }

    /// Timeout for the `attempt`-th try (0-based): `base * backoff^attempt`.
    pub fn timeout_for(&self, attempt: u32) -> SimDuration {
        // Exponent capped so a generous budget cannot overflow to inf.
        self.base_timeout * self.backoff.powi(attempt.min(60) as i32)
    }

    /// [`RetryPolicy::timeout_for`] stretched by the decorrelated jitter
    /// draw for `(attempt, nonce)`. `nonce` identifies the transfer leg
    /// (e.g. a transfer counter) so concurrent legs draw independently.
    pub fn timeout_for_nonce(&self, attempt: u32, nonce: u64) -> SimDuration {
        let base = self.timeout_for(attempt);
        if self.jitter == 0.0 {
            return base;
        }
        let h = jitter_mix(
            self.jitter_seed
                .wrapping_add(nonce.wrapping_mul(0x2545_F491_4F6C_DD1D))
                .wrapping_add(attempt as u64),
        );
        // Top 53 bits → uniform in [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        base * (1.0 + self.jitter * unit)
    }
}

/// What the reliability layer did across all transfers it carried.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReliabilityStats {
    /// Logical transfers carried (fast path included).
    pub transfers: u64,
    /// Frames retransmitted (data and ack legs).
    pub retransmits: u64,
    /// Frames rejected by the receiver's integrity check.
    pub corrupt_rejected: u64,
    /// Receive deadlines that expired (recovered ones included).
    pub timeouts: u64,
    /// Ack frames successfully delivered.
    pub acks: u64,
    /// Simulated time added by failed attempts — waiting out deadlines —
    /// on top of what clean delivery would have cost.
    pub recovery_time: SimDuration,
}

impl ReliabilityStats {
    /// True when no fault was ever observed (fast-path-only history).
    pub fn is_clean(&self) -> bool {
        self.retransmits == 0
            && self.corrupt_rejected == 0
            && self.timeouts == 0
            && self.recovery_time == SimDuration::ZERO
    }

    /// Accumulates another channel's counters.
    pub fn merge(&mut self, other: &ReliabilityStats) {
        self.transfers += other.transfers;
        self.retransmits += other.retransmits;
        self.corrupt_rejected += other.corrupt_rejected;
        self.timeouts += other.timeouts;
        self.acks += other.acks;
        self.recovery_time += other.recovery_time;
    }

    /// Versioned, serde-free JSON form (`psml.reliability.v1`).
    pub fn to_json(&self) -> psml_trace::json::JsonValue {
        use psml_trace::json::{obj, JsonValue};
        obj([
            ("schema", JsonValue::Str("psml.reliability.v1".into())),
            ("transfers", JsonValue::UInt(self.transfers)),
            ("retransmits", JsonValue::UInt(self.retransmits)),
            ("corrupt_rejected", JsonValue::UInt(self.corrupt_rejected)),
            ("timeouts", JsonValue::UInt(self.timeouts)),
            ("acks", JsonValue::UInt(self.acks)),
            (
                "recovery_time_secs",
                JsonValue::Float(self.recovery_time.as_secs()),
            ),
        ])
    }
}

/// Reliable, SimTime-driven delivery between two endpoints of the
/// lock-step simulation.
#[derive(Clone, Debug, Default)]
pub struct ReliableChannel {
    policy: RetryPolicy,
    stats: ReliabilityStats,
}

impl ReliableChannel {
    /// A channel with the given retry policy.
    pub fn new(policy: RetryPolicy) -> Self {
        ReliableChannel {
            policy,
            stats: ReliabilityStats::default(),
        }
    }

    /// The active retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Counters accumulated since construction / the last reset.
    pub fn stats(&self) -> &ReliabilityStats {
        &self.stats
    }

    /// Zeroes the counters (e.g. to isolate the online phase).
    pub fn reset_stats(&mut self) {
        self.stats = ReliabilityStats::default();
    }

    /// Moves `payload` from `sender` to `receiver`, retransmitting until
    /// it arrives intact and (under faults) is acknowledged.
    ///
    /// `sender_now` / `receiver_now` are the two parties' simulated
    /// clocks; on return they have advanced past every send, wait, and
    /// retransmission the transfer needed, so recovery cost shows up in
    /// the simulation's latency accounting automatically.
    ///
    /// Returns [`NetError::Timeout`] with the attempted retry count once
    /// the budget is exhausted — never blocks forever.
    pub fn transfer<R: Num>(
        &mut self,
        sender: &mut Endpoint<R>,
        sender_now: &mut SimTime,
        receiver: &mut Endpoint<R>,
        receiver_now: &mut SimTime,
        payload: &Payload<R>,
    ) -> Result<Packet<R>, NetError> {
        let from = sender.id();
        let to = receiver.id();
        self.stats.transfers += 1;

        // Fast path: perfect network — identical bytes and timing to the
        // raw endpoint protocol, no ack traffic, all counters stay zero.
        if !sender.has_faults() && !receiver.has_faults() {
            let done = sender.send(to, payload, *sender_now)?;
            *sender_now = done;
            let pkt = receiver.recv(from)?;
            *receiver_now = (*receiver_now).max(pkt.available_at);
            return Ok(pkt);
        }

        // Jitter nonces: the data and ack legs of transfer N draw from
        // disjoint lanes so their schedules stay decorrelated.
        let data_nonce = self.stats.transfers.wrapping_mul(2);
        let ack_nonce = data_nonce.wrapping_add(1);

        let packet = self.leg(sender, sender_now, receiver, receiver_now, payload, data_nonce)?;
        // The sender must learn the transfer completed before the protocol
        // step can commit: the ack travels back under the same discipline.
        let ack = Payload::Control(format!("ack:{}", packet.seq));
        let ack_pkt = self.leg(receiver, receiver_now, sender, sender_now, &ack, ack_nonce)?;
        debug_assert!(
            matches!(&ack_pkt.payload, Payload::Control(s) if s.starts_with("ack:")),
            "reliable channel received non-ack on ack leg"
        );
        self.stats.acks += 1;
        Ok(packet)
    }

    /// One stop-and-wait leg, data or ack: `tx` retransmits `payload`
    /// until it lands intact at `rx`. The budget is `policy.attempts()`
    /// sends; checking *after* the increment guarantees the final
    /// retransmission actually hits the wire before the leg gives up.
    fn leg<R: Num>(
        &mut self,
        tx: &mut Endpoint<R>,
        tx_now: &mut SimTime,
        rx: &mut Endpoint<R>,
        rx_now: &mut SimTime,
        payload: &Payload<R>,
        nonce: u64,
    ) -> Result<Packet<R>, NetError> {
        let (from, to) = (tx.id(), rx.id());
        let mut attempt = 0u32;
        loop {
            let done = tx.send(to, payload, *tx_now)?;
            *tx_now = done;
            let deadline = done.max(*rx_now) + self.policy.timeout_for_nonce(attempt, nonce);
            match rx.recv_deadline(from, deadline) {
                Ok(pkt) => {
                    *rx_now = (*rx_now).max(pkt.available_at);
                    return Ok(pkt);
                }
                Err(err) => {
                    self.note_leg_failure(&err)?;
                    // The receiving side discovers the loss by silence at
                    // the deadline; the sending side by the missing reply.
                    // Both burn the window before the retry.
                    self.stats.recovery_time += deadline.saturating_since(done);
                    *rx_now = (*rx_now).max(deadline);
                    *tx_now = (*tx_now).max(deadline);
                    attempt += 1;
                    if attempt >= self.policy.attempts() {
                        return Err(NetError::Timeout {
                            after: deadline,
                            retries: attempt - 1,
                        });
                    }
                    self.stats.retransmits += 1;
                    trace_retransmit(from, to, deadline);
                }
            }
        }
    }

    /// The charge half of the fault-free fast path of
    /// [`ReliableChannel::transfer`] for a dense `rows x cols` matrix,
    /// alone: advances both clocks, the transfer counter, and — through
    /// the charge half every [`Endpoint::send`] starts with — the sender's
    /// NIC, stats, and sequence state, but moves no bytes. Returns the
    /// instant the transfer completes (which on the fault-free path
    /// equals the packet's `available_at`).
    ///
    /// Only valid when neither endpoint has faults armed — see
    /// [`Endpoint::send_accounted`].
    pub fn transfer_accounted<R: Num>(
        &mut self,
        sender: &mut Endpoint<R>,
        sender_now: &mut SimTime,
        receiver: &Endpoint<R>,
        receiver_now: &mut SimTime,
        rows: usize,
        cols: usize,
    ) -> Result<SimTime, NetError> {
        debug_assert!(
            !sender.has_faults() && !receiver.has_faults(),
            "accounted transfers are only valid on fault-free channels"
        );
        self.stats.transfers += 1;
        let done = sender.send_accounted(receiver.id(), rows, cols, *sender_now)?;
        *sender_now = done;
        *receiver_now = (*receiver_now).max(done);
        Ok(done)
    }

    /// Classifies a failed receive; recoverable failures update counters,
    /// anything else propagates.
    fn note_leg_failure(&mut self, err: &NetError) -> Result<(), NetError> {
        match err {
            NetError::Corrupt { .. } => {
                self.stats.corrupt_rejected += 1;
                Ok(())
            }
            NetError::Timeout { .. } => {
                self.stats.timeouts += 1;
                Ok(())
            }
            other => Err(other.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::build_network;
    use crate::fault::FaultPlan;
    use crate::message::NodeId;
    use psml_simtime::LinkModel;
    use psml_tensor::Matrix;

    fn payload() -> Payload<f32> {
        Payload::Dense(Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f32))
    }

    fn transfer_once(
        plan: &FaultPlan,
        policy: RetryPolicy,
    ) -> (
        Result<Packet<f32>, NetError>,
        ReliabilityStats,
        SimTime,
        SimTime,
    ) {
        let [_, mut s0, mut s1] = build_network::<f32>(LinkModel::infiniband_100g());
        s0.install_faults(plan);
        s1.install_faults(plan);
        let mut chan = ReliableChannel::new(policy);
        let mut t0 = SimTime::ZERO;
        let mut t1 = SimTime::ZERO;
        let res = chan.transfer(&mut s0, &mut t0, &mut s1, &mut t1, &payload());
        (res, *chan.stats(), t0, t1)
    }

    #[test]
    fn fault_free_fast_path_is_clean() {
        let (res, stats, t0, t1) = transfer_once(&FaultPlan::none(), RetryPolicy::default());
        let pkt = res.unwrap();
        assert_eq!(pkt.payload, payload());
        assert!(stats.is_clean());
        assert_eq!(stats.transfers, 1);
        assert_eq!(stats.acks, 0, "no ack traffic without faults");
        assert_eq!(t0, pkt.available_at, "sender clock = send completion");
        assert_eq!(t1, pkt.available_at);
    }

    #[test]
    fn drops_are_recovered_by_retransmission() {
        let plan = FaultPlan::seeded(42).with_drop(0.5);
        let (res, stats, _, _) = transfer_once(&plan, RetryPolicy::default());
        let pkt = res.unwrap();
        assert_eq!(pkt.payload, payload(), "payload survives retransmits intact");
        assert_eq!(stats.acks, 1);
        // With drop=0.5 under seed 42 at least one leg must retry for the
        // assertion below to be meaningful; if not, the seed is wrong.
        assert!(
            stats.retransmits > 0,
            "seed should produce at least one drop"
        );
        assert!(stats.recovery_time > SimDuration::ZERO);
    }

    #[test]
    fn corruption_is_rejected_and_recovered() {
        let plan = FaultPlan::seeded(9).with_corruption(0.5);
        let (res, stats, _, _) = transfer_once(&plan, RetryPolicy::default());
        let pkt = res.unwrap();
        assert_eq!(pkt.payload, payload(), "corrupted frames never decode");
        assert!(stats.corrupt_rejected > 0, "seed should corrupt a frame");
        assert_eq!(stats.retransmits, stats.corrupt_rejected + stats.timeouts);
    }

    #[test]
    fn latency_spikes_survive_via_backoff() {
        // Spikes far beyond the base timeout: only backoff growth lets a
        // retry wait long enough.
        let plan = FaultPlan::seeded(3)
            .with_delay(0.9, SimDuration::from_millis(2.0));
        let policy = RetryPolicy {
            base_timeout: SimDuration::from_micros(50.0),
            backoff: 2.0,
            max_retries: 12,
            ..RetryPolicy::default()
        };
        let (res, stats, _, _) = transfer_once(&plan, policy);
        assert_eq!(res.unwrap().payload, payload());
        assert!(stats.timeouts > 0, "spikes must blow the base deadline");
    }

    #[test]
    fn budget_exhaustion_surfaces_typed_timeout() {
        let plan = FaultPlan::seeded(1).with_drop(1.0);
        let policy = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default()
        };
        let (res, stats, t0, t1) = transfer_once(&plan, policy);
        match res.unwrap_err() {
            NetError::Timeout { after, retries } => {
                assert_eq!(retries, 3);
                assert!(after > SimTime::ZERO);
                assert!(t0 >= after && t1 >= after, "clocks advanced past the deadline");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(stats.retransmits, 3);
    }

    #[test]
    fn blackout_window_is_ridden_out() {
        // Server1 goes dark for 1 ms starting at t=0; exponential backoff
        // must carry the transfer past the window.
        let plan = FaultPlan::seeded(5).with_blackout(
            NodeId::Server1,
            SimTime::ZERO,
            SimTime::from_secs(1e-3),
        );
        let (res, stats, _, t1) = transfer_once(&plan, RetryPolicy::default());
        assert_eq!(res.unwrap().payload, payload());
        assert!(stats.retransmits > 0);
        assert!(
            t1 >= SimTime::from_secs(1e-3),
            "completion lies beyond the blackout window"
        );
    }

    #[test]
    fn faulty_runs_replay_bit_identically() {
        let plan = FaultPlan::seeded(77)
            .with_drop(0.3)
            .with_corruption(0.2)
            .with_delay(0.2, SimDuration::from_micros(400.0));
        let (r1, s1, a1, b1) = transfer_once(&plan, RetryPolicy::default());
        let (r2, s2, a2, b2) = transfer_once(&plan, RetryPolicy::default());
        assert_eq!(r1.unwrap().payload, r2.unwrap().payload);
        assert_eq!(s1, s2);
        assert_eq!((a1, b1), (a2, b2));
    }

    #[test]
    fn superseded_attempts_never_leak_into_later_transfers() {
        // Heavy delay spikes force retransmits whose superseded originals
        // miss their deadline; `recv_deadline`'s late-frame discard must
        // keep the queue clean so back-to-back transfers of *different*
        // payloads never see each other's bytes.
        let policy = RetryPolicy {
            base_timeout: SimDuration::from_micros(40.0),
            backoff: 2.0,
            max_retries: 12,
            ..RetryPolicy::default()
        };
        let first = Payload::Dense(Matrix::from_fn(4, 4, |r, c| (r + c) as f32));
        let second = Payload::Dense(Matrix::from_fn(4, 4, |r, c| (r * c) as f32 - 7.0));
        let mut timeouts_total = 0;
        for seed in 0..20u64 {
            let plan = FaultPlan::seeded(seed).with_delay(0.8, SimDuration::from_millis(1.0));
            let [_, mut s0, mut s1] = build_network::<f32>(LinkModel::infiniband_100g());
            s0.install_faults(&plan);
            s1.install_faults(&plan);
            let mut chan = ReliableChannel::new(policy);
            let (mut t0, mut t1) = (SimTime::ZERO, SimTime::ZERO);
            let a = chan
                .transfer(&mut s0, &mut t0, &mut s1, &mut t1, &first)
                .unwrap();
            let b = chan
                .transfer(&mut s0, &mut t0, &mut s1, &mut t1, &second)
                .unwrap();
            assert_eq!(a.payload, first);
            assert_eq!(b.payload, second, "superseded frame served a later transfer");
            timeouts_total += chan.stats().timeouts;
        }
        assert!(timeouts_total > 0, "scenario never forced a late frame");
    }

    #[test]
    fn accounted_transfer_matches_fast_path_bit_exactly() {
        // The same sequence of transfers, once for real and once charge-
        // only, must leave clocks, NIC state, traffic stats, sequence
        // numbers, and channel counters identical.
        let shapes = [(8usize, 8usize), (64, 3), (1, 1), (8, 8)];

        let [_, mut s0, mut s1] = build_network::<f32>(LinkModel::infiniband_100g());
        let mut chan = ReliableChannel::new(RetryPolicy::default());
        let (mut t0, mut t1) = (SimTime::ZERO, SimTime::ZERO);
        let mut real_dones = Vec::new();
        for &(r, c) in &shapes {
            let p = Payload::Dense(Matrix::from_fn(r, c, |i, j| (i * c + j) as f32));
            let pkt = chan
                .transfer(&mut s0, &mut t0, &mut s1, &mut t1, &p)
                .unwrap();
            real_dones.push(pkt.available_at);
        }

        let [_, mut a0, mut a1] = build_network::<f32>(LinkModel::infiniband_100g());
        let mut achan = ReliableChannel::new(RetryPolicy::default());
        let (mut u0, mut u1) = (SimTime::ZERO, SimTime::ZERO);
        let mut acc_dones = Vec::new();
        for &(r, c) in &shapes {
            let done = achan
                .transfer_accounted(&mut a0, &mut u0, &a1, &mut u1, r, c)
                .unwrap();
            acc_dones.push(done);
        }

        assert_eq!(real_dones, acc_dones);
        assert_eq!((t0, t1), (u0, u1));
        assert_eq!(chan.stats(), achan.stats());
        let real_link = s0.stats().link(NodeId::Server0, NodeId::Server1);
        let acc_link = a0.stats().link(NodeId::Server0, NodeId::Server1);
        assert_eq!(real_link.messages, acc_link.messages);
        assert_eq!(real_link.wire_bytes, acc_link.wire_bytes);
        assert_eq!(
            real_link.dense_equivalent_bytes,
            acc_link.dense_equivalent_bytes
        );
        // Sequence numbers continue from where the accounted sends left
        // off, exactly as after real sends.
        let probe = Payload::Dense(Matrix::<f32>::zeros(2, 2));
        let real_next = chan
            .transfer(&mut s0, &mut t0, &mut s1, &mut t1, &probe)
            .unwrap();
        let acc_next = achan
            .transfer(&mut a0, &mut u0, &mut a1, &mut u1, &probe)
            .unwrap();
        assert_eq!(real_next.seq, acc_next.seq);
        assert_eq!(real_next.available_at, acc_next.available_at);
    }

    #[test]
    fn retry_policy_validation() {
        RetryPolicy::default().validate().unwrap();
        assert!(RetryPolicy {
            base_timeout: SimDuration::ZERO,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            backoff: 0.5,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            jitter: -0.1,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            jitter: 1.5,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            jitter: f64::NAN,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        RetryPolicy {
            jitter: 0.3,
            jitter_seed: 9,
            ..RetryPolicy::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn budget_boundary_spends_every_attempt() {
        // drop = 1.0: every data-leg frame is lost in flight, so the leg
        // must exhaust its budget. The budget buys exactly `attempts()`
        // = max_retries + 1 wire sends — an accounting bug that skipped
        // the final retransmission would leave only 3 on the link.
        let plan = FaultPlan::seeded(1).with_drop(1.0);
        let policy = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.attempts(), 4);
        let [_, mut s0, mut s1] = build_network::<f32>(LinkModel::infiniband_100g());
        s0.install_faults(&plan);
        s1.install_faults(&plan);
        let mut chan = ReliableChannel::new(policy);
        let (mut t0, mut t1) = (SimTime::ZERO, SimTime::ZERO);
        let err = chan
            .transfer(&mut s0, &mut t0, &mut s1, &mut t1, &payload())
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { retries: 3, .. }));
        let link = s0.stats().link(NodeId::Server0, NodeId::Server1);
        assert_eq!(
            link.messages, 4,
            "initial send plus all three budgeted retransmissions hit the wire"
        );
        assert_eq!(chan.stats().retransmits, 3);
    }

    #[test]
    fn zero_jitter_reproduces_legacy_schedule_bit_exactly() {
        let p = RetryPolicy::default();
        for attempt in 0..8 {
            for nonce in [0u64, 7, 1 << 40] {
                assert_eq!(p.timeout_for_nonce(attempt, nonce), p.timeout_for(attempt));
            }
        }
    }

    #[test]
    fn jitter_extends_within_bounds_and_is_seed_deterministic() {
        let p = RetryPolicy {
            jitter: 0.5,
            jitter_seed: 123,
            ..RetryPolicy::default()
        };
        let q = RetryPolicy {
            jitter_seed: 124,
            ..p
        };
        let mut decorrelated = false;
        for attempt in 0..10 {
            for nonce in 0..10u64 {
                let base = p.timeout_for(attempt);
                let j = p.timeout_for_nonce(attempt, nonce);
                assert!(j >= base, "jitter must never shrink a window");
                assert!(j < base * 1.5 + SimDuration::from_micros(1e-3));
                assert_eq!(j, p.timeout_for_nonce(attempt, nonce), "same draw replays");
                if q.timeout_for_nonce(attempt, nonce) != j {
                    decorrelated = true;
                }
            }
        }
        assert!(decorrelated, "different seeds must decorrelate the draws");
    }

    #[test]
    fn jittered_faulty_runs_replay_bit_identically() {
        let plan = FaultPlan::seeded(31)
            .with_drop(0.3)
            .with_delay(0.2, SimDuration::from_micros(300.0));
        let policy = RetryPolicy {
            jitter: 0.25,
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        let (r1, s1, a1, b1) = transfer_once(&plan, policy);
        let (r2, s2, a2, b2) = transfer_once(&plan, policy);
        assert_eq!(r1.unwrap().payload, r2.unwrap().payload);
        assert_eq!(s1, s2);
        assert_eq!((a1, b1), (a2, b2));
    }

    #[test]
    fn timeout_backoff_grows_geometrically() {
        let p = RetryPolicy {
            base_timeout: SimDuration::from_micros(100.0),
            backoff: 2.0,
            max_retries: 8,
            ..RetryPolicy::default()
        };
        assert_eq!(p.timeout_for(0), SimDuration::from_micros(100.0));
        assert_eq!(p.timeout_for(3), SimDuration::from_micros(800.0));
        assert!(p.timeout_for(100) > p.timeout_for(10), "cap keeps growing finite");
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ReliabilityStats {
            transfers: 1,
            retransmits: 2,
            corrupt_rejected: 3,
            timeouts: 4,
            acks: 5,
            recovery_time: SimDuration::from_micros(10.0),
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.transfers, 2);
        assert_eq!(a.retransmits, 4);
        assert_eq!(a.recovery_time, SimDuration::from_micros(20.0));
        assert!(!a.is_clean());
        assert!(ReliabilityStats::default().is_clean());
    }
}
