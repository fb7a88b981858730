//! Asynchronous Beaver-triple provisioning (the offline half of the
//! paper's double pipeline, hoisted onto the host).
//!
//! The engine declares its *shape schedule* up front — every `(m, k, n)`
//! GEMM and every Hadamard product a training step will multiply — and a
//! dedicated provisioning thread generates the corresponding triples
//! ahead of and concurrently with the online phase. The engine then
//! consumes them in strict schedule order through [`TripleProvider::take`].
//!
//! # Determinism
//!
//! Triple `seq` draws all of its material from the counter-derived
//! stream `(master, seq)` ([`psml_parallel::Mt19937::from_stream`]), so
//! the values depend only on the master seed and the triple's position
//! in the schedule — never on thread timing, batch boundaries, or how
//! far ahead the pipeline ran. Prefetch on and off are bit-identical.
//!
//! # Lookahead
//!
//! A training loop declares step *t+1* only when step *t+1* starts, so a
//! worker that generated declared specs only would idle between steps and
//! the first product of every step would wait for its own triple. Once
//! every declared spec is generated the worker therefore keeps going on a
//! *non-binding repeat of the most recently declared batch* (the slice of
//! the last [`TripleProvider::schedule`] call) at the seqs that follow.
//! The next `schedule(specs)` reconciles: the speculative entries — ready,
//! in flight or merely planned, always a suffix in seq order — are
//! compared position by position with `specs`; the matching prefix is
//! *adopted* (promoted to declared), and from the first mismatch on
//! everything speculative is *discarded* (ready triples dropped, an
//! in-flight result dropped when it lands, planned entries removed),
//! generation rewinds to that seq, and the rest of `specs` is appended as
//! declared. Only declared entries can be taken, so speculation never
//! changes what `take` accepts; and because a triple's value is a function
//! of `(master, seq, spec)` alone, a re-generated triple equals the one
//! that would have been generated without lookahead. What lookahead costs
//! is the work discarded at a mismatch and at the end of a run — at most
//! one byte budget (below) of generation — and one budget of memory.
//!
//! # Backpressure
//!
//! The ready queue is bounded in *bytes*: the worker generates the next
//! entry only while `ready_bytes + its bytes <= budget`. The budget is
//! derived from what was declared — the maximum, over the batches declared
//! so far, of `max(largest triple, batch bytes - largest triple)` — so a
//! batch's small triples never hold back its large ones, every declared
//! triple fits an empty queue (no deadlock), and memory stays bounded by
//! construction however long the schedule is: a little over half a step
//! for the MLP, whose two 13 MB triples would otherwise cost a whole
//! step's bytes for no more speed. `depth` is a secondary cap on the
//! *count* of ready triples.
//!
//! A worker waiting for room is woken at a *low-water mark*, not at every
//! `take`: only once the queue has drained to half of both bounds (which
//! includes "empty", so a consumer never waits on a parked worker). On a
//! stream of small same-shape triples (a serving window) the worker then
//! refills half a window in one batched generation per wake-up instead of
//! trading one thread hand-off with the consumer per triple — the
//! hand-offs made that workload's wall time depend on which core the
//! kernel woke the worker on. A queue holding one large triple (the MLP's)
//! is above half until that triple is taken and below it afterwards, so
//! there the rule changes nothing.
//!
//! # Batching
//!
//! Within the open window the worker groups *consecutive same-shape*
//! schedule entries and generates them through one
//! [`psml_mpc::gen_triples_streamed`] call, so a batched GEMM
//! ([`psml_tensor::gemm_batch`]) amortizes packing across the group.
//! Batching is invisible in the values (each triple still owns its own
//! stream) and in delivery order.

use psml_mpc::{gen_triples_streamed, BeaverTriple, SecureRing, TripleSpec};
use psml_tensor::gemm_batch;
use psml_trace::{Phase, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Counters of one provider since it was built (a snapshot; see
/// [`TripleProvider::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProviderStats {
    /// Triples delivered.
    pub takes: u64,
    /// Deliveries that had to wait for the worker.
    pub stalled_takes: u64,
    /// Wall-clock nanoseconds the consumer spent in those waits.
    pub stall_ns: u64,
    /// Triples the worker started generating before they were declared.
    pub speculated: u64,
    /// Speculated triples a later `schedule` promoted to declared.
    pub adopted: u64,
    /// Speculated triples a later `schedule` contradicted.
    pub discarded: u64,
    /// Most bytes the ready queue ever held (never above the budget).
    pub ready_bytes_high_water: usize,
}

/// One generated triple waiting to be consumed, with the wall-clock
/// trace spans of its generation (adopted by the engine at take time).
struct ReadyTriple<R: SecureRing> {
    triple: BeaverTriple<R>,
    events: Vec<TraceEvent>,
    bytes: usize,
}

/// Resident bytes of one generated triple (both parties' shares of `U`,
/// `V`, `Z`). Saturating: a spec too large to exist must reach the
/// allocator and fail there, not wrap into a small number here.
fn triple_bytes<R: SecureRing>(spec: TripleSpec) -> usize {
    [spec.u_shape(), spec.v_shape(), spec.z_shape()]
        .iter()
        .fold(0usize, |sum, &(rows, cols)| sum.saturating_add(rows.saturating_mul(cols)))
        .saturating_mul(2 * R::BYTES)
}

struct State<R: SecureRing> {
    /// Specs of seqs `next_take_seq..`, in seq order: the `declared`
    /// binding entries first, then the non-binding lookahead.
    plan: VecDeque<TripleSpec>,
    /// Leading entries of `plan` that were declared (and may be taken).
    declared: usize,
    /// The most recently declared batch: what the lookahead repeats.
    last_batch: Vec<TripleSpec>,
    /// Generated triples of seqs `next_take_seq..`, in seq order (entry
    /// `i` is `plan[i]`). Bounded by `budget` bytes and `depth` entries.
    ready: VecDeque<ReadyTriple<R>>,
    ready_bytes: usize,
    budget: usize,
    /// Secondary cap on `ready.len()`.
    depth: usize,
    /// Seqs below this are ready or in flight.
    next_gen_seq: u64,
    next_take_seq: u64,
    shutdown: bool,
    /// Set when the worker thread exits; wakes blocked takers into an error.
    worker_dead: bool,
    stats: ProviderStats,
}

impl<R: SecureRing> State<R> {
    /// `plan` entries that are ready or in flight.
    fn claimed(&self) -> usize {
        (self.next_gen_seq - self.next_take_seq) as usize
    }

    /// Declares `specs` at the seqs after the declared ones, reconciling
    /// them with whatever the lookahead put there (module docs).
    fn reconcile(&mut self, specs: &[TripleSpec]) {
        let sizes = specs.iter().map(|&s| triple_bytes::<R>(s));
        let largest = sizes.clone().max().unwrap_or(0);
        let total = sizes.fold(0usize, usize::saturating_add);
        self.budget = self.budget.max(largest).max(total - largest);

        let matched = self
            .plan
            .iter()
            .skip(self.declared)
            .zip(specs)
            .take_while(|(planned, spec)| planned == spec)
            .count();
        let cut = self.declared + matched;
        self.stats.adopted += cut.min(self.claimed()).saturating_sub(self.declared) as u64;
        if matched < specs.len() {
            // `specs` disagrees with the lookahead at `cut`, or the
            // lookahead had not got that far (then nothing is dropped).
            self.plan.truncate(cut);
            while self.ready.len() > cut {
                let stale = self.ready.pop_back().map_or(0, |r| r.bytes);
                self.ready_bytes -= stale;
                self.stats.discarded += 1;
            }
            // An in-flight window at or past `cut` is dropped as it lands.
            self.next_gen_seq = self.next_gen_seq.min(self.next_take_seq + cut as u64);
            self.plan.extend(&specs[matched..]);
        }
        self.declared += specs.len();
        self.last_batch.clear();
        self.last_batch.extend_from_slice(specs);
    }

    /// Claims the next same-shape window the bounds admit: its spec, first
    /// seq and length. `None` when there is nothing to do or no room.
    fn claim(&mut self) -> Option<(TripleSpec, u64, usize)> {
        let at = self.claimed();
        if at == self.plan.len() {
            // Everything planned is generated: plan one more repeat of
            // the last batch (empty before the first `schedule`).
            self.plan.extend(&self.last_batch);
        }
        let spec = *self.plan.get(at)?;
        let fit = self.budget.saturating_sub(self.ready_bytes) / triple_bytes::<R>(spec).max(1);
        let window = fit.min(self.depth.saturating_sub(self.ready.len()));
        let count = self
            .plan
            .iter()
            .skip(at)
            .take(window)
            .take_while(|&&s| s == spec)
            .count();
        if count == 0 {
            return None;
        }
        self.stats.speculated += ((at + count).saturating_sub(self.declared.max(at))) as u64;
        let base_seq = self.next_gen_seq;
        self.next_gen_seq += count as u64;
        Some((spec, base_seq, count))
    }

    /// Whether the ready queue has drained to half of both its bounds —
    /// the point at which a `take` wakes a worker that is waiting for room.
    fn low_water(&self) -> bool {
        self.ready_bytes.saturating_mul(2) <= self.budget && self.ready.len() * 2 <= self.depth
    }
}

struct Shared<R: SecureRing> {
    state: Mutex<State<R>>,
    cv: Condvar,
}

impl<R: SecureRing> Shared<R> {
    /// The one lock site. A poisoned guard is recovered, not propagated:
    /// triples enter `ready` whole and every counter that describes the
    /// queues is updated under the same guard, so the state is consistent
    /// at every point a panic could unwind through — and `drop` (which
    /// may itself run during an unwind) must not panic.
    fn lock(&self) -> MutexGuard<'_, State<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State<R>>) -> MutexGuard<'a, State<R>> {
        self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }
}

/// Handle to the provisioning pipeline. Dropping it shuts the worker
/// down (any unconsumed triples are discarded).
pub struct TripleProvider<R: SecureRing> {
    shared: Arc<Shared<R>>,
    worker: Option<JoinHandle<()>>,
}

impl<R: SecureRing> TripleProvider<R> {
    /// Spawns the provisioning thread. `master` seeds every triple's
    /// stream; `depth` caps the *count* of ready-but-unconsumed triples
    /// (their bytes are bounded by the budget derived from the schedule).
    pub fn new(master: u64, depth: usize) -> Self {
        assert!(depth >= 1, "prefetch depth must be at least 1");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                plan: VecDeque::new(),
                declared: 0,
                last_batch: Vec::new(),
                ready: VecDeque::new(),
                ready_bytes: 0,
                budget: 0,
                depth,
                next_gen_seq: 0,
                next_take_seq: 0,
                shutdown: false,
                worker_dead: false,
                stats: ProviderStats::default(),
            }),
            cv: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("psml-triple-provider".into())
            .spawn(move || {
                // On any exit — normal shutdown or a panic during
                // generation — flag the worker dead so blocked takers
                // error out instead of waiting forever.
                struct DeadOnDrop<R: SecureRing>(Arc<Shared<R>>);
                impl<R: SecureRing> Drop for DeadOnDrop<R> {
                    fn drop(&mut self) {
                        self.0.lock().worker_dead = true;
                        self.0.cv.notify_all();
                    }
                }
                let _guard = DeadOnDrop(Arc::clone(&worker_shared));
                Self::run(&worker_shared, master);
            })
            .expect("spawn triple provider");
        TripleProvider {
            shared,
            worker: Some(worker),
        }
    }

    /// Appends specs to the schedule, adopting or discarding what the
    /// lookahead generated at their seqs. The worker starts on whatever
    /// is still missing immediately (subject to backpressure).
    pub fn schedule(&self, specs: &[TripleSpec]) {
        if specs.is_empty() {
            return;
        }
        self.shared.lock().reconcile(specs);
        self.shared.cv.notify_all();
    }

    /// A snapshot of this provider's counters.
    pub fn stats(&self) -> ProviderStats {
        self.shared.lock().stats
    }

    /// Retrieves triple `seq`, which must be the next schedule entry and
    /// must carry the expected shape — any disagreement between what the
    /// engine multiplies and what was scheduled is a protocol error, not
    /// a silent fallback. Blocks until the worker delivers.
    pub fn take(&self, seq: u64, spec: TripleSpec) -> Result<(BeaverTriple<R>, Vec<TraceEvent>), String> {
        let mut st = self.shared.lock();
        if st.next_take_seq != seq {
            return Err(format!(
                "prefetch schedule mismatch: requested triple seq {seq} but the \
                 next scheduled seq is {}",
                st.next_take_seq
            ));
        }
        match st.plan.front() {
            Some(&scheduled) if st.declared > 0 => {
                if scheduled != spec {
                    return Err(format!(
                        "prefetch schedule mismatch at seq {seq}: requested {spec:?} \
                         but {scheduled:?} was scheduled"
                    ));
                }
            }
            _ => {
                return Err(format!(
                    "prefetch schedule mismatch: requested {spec:?} (seq {seq}) \
                     but the schedule is exhausted — declare the full step \
                     schedule before multiplying"
                ));
            }
        }
        // `TraceSink::wall_ns` reads its clock whether or not tracing is on.
        let mut stalled_at = None;
        loop {
            if let Some(item) = st.ready.pop_front() {
                st.plan.pop_front();
                st.declared -= 1;
                st.next_take_seq += 1;
                st.ready_bytes -= item.bytes;
                st.stats.takes += 1;
                if let Some(since) = stalled_at {
                    st.stats.stalled_takes += 1;
                    st.stats.stall_ns += TraceSink::wall_ns().saturating_sub(since);
                }
                let refill = st.low_water();
                drop(st);
                if refill {
                    self.shared.cv.notify_all();
                }
                return Ok((item.triple, item.events));
            }
            if st.worker_dead {
                return Err("triple provider worker died".into());
            }
            stalled_at.get_or_insert_with(TraceSink::wall_ns);
            st = self.shared.wait(st);
        }
    }

    fn run(shared: &Shared<R>, master: u64) {
        loop {
            // Claim the next same-shape window under the lock.
            let (spec, base_seq, count) = {
                let mut st = shared.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if let Some(window) = st.claim() {
                        break window;
                    }
                    st = shared.wait(st);
                }
            };

            // Generate outside the lock — this is the work that overlaps
            // the engine's online phase.
            let traced = TraceSink::is_enabled();
            let wall_start = if traced { TraceSink::wall_ns() } else { 0 };
            let triples = gen_triples_streamed::<R>(spec, master, base_seq, count, gemm_batch);
            let wall_end = if traced { TraceSink::wall_ns() } else { 0 };

            let bytes = triple_bytes::<R>(spec);
            let mut st = shared.lock();
            for (i, triple) in triples.into_iter().enumerate() {
                if base_seq + i as u64 >= st.next_gen_seq {
                    // A `schedule` contradicted this seq while it was in
                    // flight; the worker re-claims it with the new spec.
                    st.stats.discarded += 1;
                    continue;
                }
                // One span per triple; batch members share the batch's
                // wall interval (they were genuinely produced within it).
                let events = if traced {
                    let (m, k, n) = spec.dims();
                    vec![TraceEvent {
                        phase: Phase::Offline,
                        op: "provider:gen_triple".to_string(),
                        track: "provider".to_string(),
                        layer: None,
                        shape: Some([m as u32, k as u32, n as u32]),
                        placement: None,
                        start_ns: wall_start,
                        end_ns: wall_end,
                        wall_ns: wall_start,
                        bytes: bytes as u64,
                    }]
                } else {
                    Vec::new()
                };
                st.ready_bytes += bytes;
                st.ready.push_back(ReadyTriple { triple, events, bytes });
            }
            st.stats.ready_bytes_high_water = st.stats.ready_bytes_high_water.max(st.ready_bytes);
            drop(st);
            shared.cv.notify_all();
        }
    }
}

impl<R: SecureRing> Drop for TripleProvider<R> {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.cv.notify_all();
        if let Some(h) = self.worker.take() {
            // A worker that panicked has already flagged itself dead;
            // re-raising its panic here would abort an unwinding engine.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psml_mpc::{gen_triple_streamed, Fixed64, Party};
    use psml_tensor::gemm_auto;

    const GEMM: TripleSpec = TripleSpec::Gemm { m: 4, k: 6, n: 3 };
    const HAD: TripleSpec = TripleSpec::Hadamard { m: 5, n: 2 };

    #[test]
    fn delivers_schedule_in_order_with_streamed_values() {
        let p = TripleProvider::<Fixed64>::new(77, 2);
        let schedule = [GEMM, GEMM, HAD, GEMM];
        p.schedule(&schedule);
        for (seq, &spec) in schedule.iter().enumerate() {
            let (got, _) = p.take(seq as u64, spec).unwrap();
            let want =
                gen_triple_streamed::<Fixed64>(spec, 77, seq as u64, gemm_auto);
            for party in Party::BOTH {
                assert_eq!(got.share(party), want.share(party), "seq {seq}");
            }
        }
    }

    #[test]
    fn incremental_scheduling_keeps_sequence_numbers_global() {
        let p = TripleProvider::<Fixed64>::new(5, 4);
        p.schedule(&[GEMM]);
        let (first, _) = p.take(0, GEMM).unwrap();
        p.schedule(&[HAD]);
        let (second, _) = p.take(1, HAD).unwrap();
        let want0 = gen_triple_streamed::<Fixed64>(GEMM, 5, 0, gemm_auto);
        let want1 = gen_triple_streamed::<Fixed64>(HAD, 5, 1, gemm_auto);
        assert_eq!(first.share(Party::P0), want0.share(Party::P0));
        assert_eq!(second.share(Party::P0), want1.share(Party::P0));
    }

    #[test]
    fn mismatched_spec_is_an_error_not_a_hang() {
        let p = TripleProvider::<Fixed64>::new(1, 2);
        p.schedule(&[GEMM]);
        let err = p.take(0, HAD).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
        // The schedule is still intact: the correct request succeeds.
        let _ = p.take(0, GEMM).unwrap();
    }

    #[test]
    fn unscheduled_take_is_an_error_not_a_hang() {
        let p = TripleProvider::<Fixed64>::new(1, 2);
        let err = p.take(0, GEMM).unwrap_err();
        assert!(err.contains("exhausted"), "{err}");
        let err = p.take(3, GEMM).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn backpressure_bounds_ready_queue_and_still_drains_all() {
        // Schedule far more triples than the depth; everything must still
        // arrive, in order, without the provider buffering unboundedly.
        let p = TripleProvider::<Fixed64>::new(9, 2);
        let schedule: Vec<TripleSpec> = (0..32).map(|_| GEMM).collect();
        p.schedule(&schedule);
        for seq in 0..32u64 {
            let (got, _) = p.take(seq, GEMM).unwrap();
            let want = gen_triple_streamed::<Fixed64>(GEMM, 9, seq, gemm_auto);
            assert_eq!(got.share(Party::P0), want.share(Party::P0), "seq {seq}");
        }
    }

    #[test]
    fn drop_with_unconsumed_backlog_terminates() {
        let p = TripleProvider::<Fixed64>::new(2, 3);
        p.schedule(&[GEMM; 10]);
        let _ = p.take(0, GEMM).unwrap();
        drop(p); // must not hang or panic
    }

    // ---- lookahead, reconcile, byte bound, worker death -----------------

    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    const GEMM_B: TripleSpec = TripleSpec::Gemm { m: 3, k: 2, n: 5 };
    /// Slow enough to generate that a spinning test thread sees it in flight.
    const BIG: TripleSpec = TripleSpec::Gemm { m: 160, k: 160, n: 160 };

    fn assert_reference(master: u64, seq: u64, spec: TripleSpec, got: &BeaverTriple<Fixed64>) {
        let want = gen_triple_streamed::<Fixed64>(spec, master, seq, gemm_auto);
        for party in Party::BOTH {
            assert_eq!(got.share(party), want.share(party), "seq {seq} {spec:?}");
        }
    }

    /// A consumer that checks every triple it takes against the reference
    /// for its seq, and the byte bound when it is done.
    struct Checked {
        p: TripleProvider<Fixed64>,
        master: u64,
        seq: u64,
    }

    impl Checked {
        fn new(master: u64) -> Self {
            Checked { p: TripleProvider::new(master, 64), master, seq: 0 }
        }

        fn take(&mut self, spec: TripleSpec) {
            let (got, _) = self.p.take(self.seq, spec).unwrap();
            assert_reference(self.master, self.seq, spec, &got);
            self.seq += 1;
        }

        /// Declares `batch` and drains it.
        fn step(&mut self, batch: &[TripleSpec]) {
            self.p.schedule(batch);
            for &spec in batch {
                self.take(spec);
            }
        }

        /// Spins (no sleep: the states probed last microseconds) until
        /// `probe` answers, with the state lock held while it looks — so
        /// what it sees cannot change before it acts on it.
        fn observe<T>(&self, mut probe: impl FnMut(&mut State<Fixed64>) -> Option<T>) -> T {
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                if let Some(seen) = probe(&mut self.p.shared.lock()) {
                    return seen;
                }
                assert!(Instant::now() < deadline, "provider never reached the probed state");
                std::thread::yield_now();
            }
        }

        /// Blocks until the lookahead has at least one triple ready.
        fn await_speculated_ready(&self) {
            self.observe(|st| (st.ready.len() > st.declared).then_some(()));
        }

        fn finish(self) -> ProviderStats {
            let (stats, budget) = {
                let st = self.p.shared.lock();
                (st.stats, st.budget)
            };
            assert!(
                stats.ready_bytes_high_water <= budget,
                "ready queue held {} bytes, budget {budget}",
                stats.ready_bytes_high_water
            );
            assert_eq!(stats.takes, self.seq);
            stats
        }
    }

    // New coverage (the parent has no lookahead; `stats` does not exist there).
    #[test]
    fn repeated_batches_are_adopted_from_the_lookahead() {
        let mut c = Checked::new(11);
        let batch = [GEMM, HAD, GEMM];
        for _ in 0..3 {
            c.step(&batch);
            c.await_speculated_ready();
        }
        let stats = c.finish();
        assert!(stats.adopted >= 2, "{stats:?}");
        assert_eq!(stats.discarded, 0, "{stats:?}");
    }

    // A reconcile that kept a stale speculative triple fails here: seq 3
    // was speculated as GEMM and is declared as HAD.
    #[test]
    fn mismatching_batch_discards_the_lookahead_and_regenerates() {
        let mut c = Checked::new(12);
        c.step(&[GEMM, GEMM, HAD]);
        c.await_speculated_ready();
        c.step(&[HAD, GEMM]);
        let stats = c.finish();
        assert!(stats.discarded >= 1, "{stats:?}");
        assert_eq!(stats.adopted, 0, "{stats:?}");
    }

    // The `train_epochs` -> `score` -> next-epoch shape: a step batch, its
    // forward prefix, the step batch again.
    #[test]
    fn forward_prefix_between_step_batches_is_reconciled() {
        let mut c = Checked::new(13);
        let step = [GEMM, GEMM_B, HAD, GEMM_B, GEMM];
        for _ in 0..2 {
            c.step(&step);
            c.await_speculated_ready();
            c.step(&step[..3]);
            c.await_speculated_ready();
        }
        c.step(&step);
        let stats = c.finish();
        assert!(stats.adopted >= 2, "{stats:?}");
    }

    #[test]
    fn speculated_seq_is_not_takeable_until_declared() {
        let mut c = Checked::new(14);
        c.step(&[GEMM]);
        c.await_speculated_ready();
        let err = c.p.take(1, GEMM).unwrap_err();
        assert!(err.contains("exhausted"), "{err}");
        c.step(&[GEMM]);
        let stats = c.finish();
        assert_eq!((stats.adopted, stats.discarded), (1, 0), "{stats:?}");
    }

    // A reconcile that forgot the in-flight window delivers BIG (landed)
    // where HAD was declared.
    #[test]
    fn mismatch_during_in_flight_speculation_delivers_the_regenerated_triple() {
        let mut c = Checked::new(15);
        loop {
            c.step(&[BIG]);
            // The worker now speculates BIG at `c.seq`. Contradict it
            // while it is in flight; if it already landed, adopt it and
            // go round again.
            let caught = c.observe(|st| {
                if st.claimed() > st.ready.len() {
                    st.reconcile(&[HAD]);
                    Some(true)
                } else {
                    (!st.ready.is_empty()).then_some(false)
                }
            });
            if caught {
                break;
            }
        }
        c.p.shared.cv.notify_all();
        c.take(HAD);
        let stats = c.finish();
        assert_eq!(stats.discarded, 1, "{stats:?}");
    }

    #[test]
    fn ready_bytes_stay_within_the_budget_under_a_slow_consumer() {
        let mut c = Checked::new(16);
        let batch = [GEMM, HAD, GEMM_B, HAD];
        for _ in 0..32 {
            c.p.schedule(&batch);
            for &spec in &batch {
                std::thread::sleep(Duration::from_micros(200));
                c.take(spec);
            }
        }
        let stats = c.finish();
        assert!(stats.ready_bytes_high_water > 0 && stats.adopted > 0, "{stats:?}");
    }

    // New coverage: the worker refills at the low-water mark, not per take.
    #[test]
    fn a_full_queue_is_refilled_at_half_not_at_every_take() {
        let mut c = Checked::new(21);
        let window = [GEMM; 16];
        c.p.schedule(&window);
        // Budget = 15 triples; the queue is full, the 16th is planned.
        let full = |st: &mut State<Fixed64>| (st.ready.len() == 15).then_some(());
        c.observe(full);
        // (The sleeps give the worker the core: to park on the full queue
        // first, then to show that it stays parked.)
        let settle = || std::thread::sleep(Duration::from_millis(20));
        settle();
        for _ in 0..7 {
            c.take(GEMM);
        }
        // Eight ready is above half: no take woke the worker.
        settle();
        c.observe(|st| Some(assert_eq!((st.ready.len(), st.claimed()), (8, 8))));
        // Seven is not: the worker tops the queue up again.
        c.take(GEMM);
        c.observe(full);
        for _ in 8..16 {
            c.take(GEMM);
        }
        c.finish();
    }

    #[test]
    fn drop_with_speculation_planned_in_flight_and_ready_terminates() {
        let mut c = Checked::new(17);
        // Budget = GEMM + BIG: the lookahead holds GEMM ready, the first
        // BIG in flight and the second BIG planned.
        let batch = [GEMM, BIG, BIG];
        loop {
            c.step(&batch);
            let caught = c.observe(|st| {
                if st.ready.len() == 1 && st.claimed() == 2 && st.plan.len() > 2 {
                    Some(true)
                } else {
                    (st.ready.len() == 2).then_some(false)
                }
            });
            if caught {
                break;
            }
        }
        drop(c.p); // must not hang or panic
    }

    // At the parent this already ends in "worker died" (the panic is
    // outside the lock); what is new is that `schedule`, `stats` and
    // `drop` after it cannot panic on a poisoned guard either.
    #[test]
    fn worker_panic_is_an_error_from_take_and_a_no_op_elsewhere() {
        let p = TripleProvider::<Fixed64>::new(18, 4);
        let unallocatable = TripleSpec::Hadamard { m: usize::MAX, n: 2 };
        p.schedule(&[GEMM, unallocatable, GEMM]);
        let (got, _) = p.take(0, GEMM).unwrap();
        assert_reference(18, 0, GEMM, &got);
        // Blocked take: the worker dies generating seq 1.
        let err = p.take(1, unallocatable).unwrap_err();
        assert!(err.contains("worker died"), "{err}");
        // Later take, schedule, stats and drop.
        let err = p.take(1, unallocatable).unwrap_err();
        assert!(err.contains("worker died"), "{err}");
        p.schedule(&[HAD]);
        assert_eq!(p.stats().takes, 1);
        drop(p);
    }

    // Fails at the parent: `schedule` panics on the poisoned guard and
    // `drop`, unwinding, panics again — the process aborts.
    #[test]
    fn a_poisoned_state_lock_is_recovered() {
        let p = TripleProvider::<Fixed64>::new(19, 4);
        let shared = Arc::clone(&p.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.lock();
            panic!("poison the provider state");
        });
        assert!(poisoner.join().is_err());
        assert!(p.shared.state.is_poisoned());
        p.schedule(&[GEMM]);
        let (got, _) = p.take(0, GEMM).unwrap();
        assert_reference(19, 0, GEMM, &got);
        drop(p);
    }

    #[test]
    fn stall_time_is_measured_with_tracing_off() {
        let mut c = Checked::new(20);
        // Taken the moment it is declared: the consumer almost surely
        // waits for the generation, and whenever it does the wait has a
        // duration.
        c.step(&[BIG]);
        let stats = c.finish();
        assert!(stats.stalled_takes <= 1 && (stats.stalled_takes == 0) == (stats.stall_ns == 0), "{stats:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any sequence of batches over three specs, drained at arbitrary
        /// points, delivers exactly the reference triple of every seq.
        #[test]
        fn any_interleaving_of_batches_and_takes_delivers_the_reference(
            ops in prop::collection::vec(
                (prop::collection::vec(0usize..3, 1..5), 0usize..6),
                1..12,
            ),
            master in any::<u64>(),
        ) {
            let specs = [GEMM, HAD, GEMM_B];
            let mut c = Checked::new(master);
            let mut outstanding = VecDeque::new();
            for (batch, takes) in ops {
                let batch: Vec<TripleSpec> = batch.into_iter().map(|i| specs[i]).collect();
                c.p.schedule(&batch);
                outstanding.extend(batch);
                for _ in 0..takes.min(outstanding.len()) {
                    c.take(outstanding.pop_front().unwrap());
                }
            }
            for spec in outstanding {
                c.take(spec);
            }
            let stats = c.finish();
            prop_assert!(stats.adopted + stats.discarded <= stats.speculated);
        }
    }
}
