//! Beaver-triple provisioning: the one place a product's deal comes from
//! (the offline half of the paper's double pipeline, hoisted onto the
//! host).
//!
//! The engine declares its *schedule* up front — every product a training
//! step or a forward pass will multiply, as a [`Deal`]: a single-use
//! triple (an `(m, k, n)` GEMM or a Hadamard product) or a product of a
//! mask schedule — and takes each product's deal in strict schedule order
//! through [`TripleProvider::take_deal`] (or [`TripleProvider::take`] for
//! a single-use triple). The provider keeps the declared schedule and the
//! seq counter and checks every take: a product whose shape, or for a
//! mask-schedule entry whose operands, disagree with the next declared
//! entry is refused, and the entry stays in place for the product that
//! matches it.
//!
//! Who deals is the only thing that differs between the two constructors.
//! [`TripleProvider::new`] spawns a provisioning thread that deals ahead
//! of and concurrently with the online phase (prefetch; the sections
//! below). [`TripleProvider::inline`] has no thread: `take` deals the
//! checked entry on the caller's thread, outside the state lock.
//!
//! # Determinism
//!
//! Product `seq` draws all of its material from the counter-derived
//! stream `(master, seq)` ([`psml_parallel::Mt19937::from_stream`]); a
//! mask-schedule product also reads the masks earlier products of its
//! schedule opened, which the dealer keeps — the worker's or the inline
//! one, each dealing in seq order. So the values depend only on the master
//! seed and the product's position in the schedule — never on thread
//! timing, window boundaries, or how far ahead the pipeline ran. Prefetch
//! on and off are bit-identical.
//!
//! # Lookahead
//!
//! A training loop declares step *t+1* only when step *t+1* starts, so a
//! worker that generated declared specs only would idle between steps and
//! the first product of every step would wait for its own triple. Once
//! every declared spec is generated the worker therefore keeps going on a
//! *non-binding repeat of the most recently declared batch* (the slice of
//! the last [`TripleProvider::schedule`] call) at the seqs that follow.
//! A mask that batch opens and does not close is *long-lived* — a served
//! model's weight `M_W`, open until the weights change — so the repeat
//! reads it instead of opening it again: exactly what the next window
//! declares, and the worker's dealer keeps `M_W` through any number of
//! repeats. (A batch whose repeat would close a long-lived mask, or read
//! a closed one, is not repeated.)
//!
//! The next `schedule(specs)` reconciles: the speculative entries — ready,
//! in flight or merely planned, always a suffix in seq order — are
//! compared position by position with `specs`; the matching prefix is
//! *adopted* (promoted to declared), and from the cut on everything
//! speculative is *discarded* (ready triples dropped, an in-flight result
//! dropped when it lands, planned entries removed), generation rewinds to
//! that seq, and the rest of `specs` is appended as declared. Only
//! declared entries can be taken, so speculation never changes what
//! `take` accepts; and because a triple's value is a function of
//! `(master, seq, spec)` and the masks open before it, a re-generated
//! triple equals the one that would have been generated without
//! lookahead.
//!
//! The worker's dealer has dealt past the cut, so the cut may fall only
//! where that does not matter: at an entry boundary where every mask the
//! lookahead opened has closed. There the dealer holds the long-lived
//! masks, which no repeat touches, and masks of products past the cut,
//! which a declared batch opens before it reads. The matching prefix is
//! shortened to the last such boundary. For a training step that is the
//! whole step or nothing (its masks close at the end of the step); for a
//! serving fold it is request by request, as for single-use triples.
//! What lookahead costs is the work discarded at a mismatch and at the
//! end of a run — at most one byte budget (below) of generation — and one
//! budget of memory.
//!
//! A batch that reads a mask nothing opened — or one a product closed —
//! cannot be dealt: [`TripleProvider::schedule_deals`] refuses it before
//! it changes anything. The state tracks which secrets are open at the
//! end of the declared schedule for that check.
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
//! refills half a window per wake-up instead of trading one thread
//! hand-off with the consumer per triple — the hand-offs made that
//! workload's wall time depend on which core the kernel woke the worker
//! on. A queue holding one large triple (the MLP's)
//! is above half until that triple is taken and below it afterwards, so
//! there the rule changes nothing.
//!
//! # Windows
//!
//! The worker claims *consecutive same-shape* schedule entries as one
//! window, generates each with [`psml_mpc::gen_triple_streamed`] (each
//! triple still owns its own stream), and pushes the whole window under
//! one lock, so the consumer sees one hand-off per window.

use psml_mpc::{
    follow_openings, BeaverTriple, Deal, Dealer, Dealt, Operand, SecureRing, Secret, TripleSpec,
};
use psml_tensor::gemm_auto;
use psml_trace::{Phase, TraceEvent, TraceSink};
use std::collections::{HashSet, VecDeque};
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

/// One dealt product waiting to be consumed, with the wall-clock trace
/// spans of its generation (adopted by the engine at take time).
struct ReadyTriple<R: SecureRing> {
    dealt: Dealt<R>,
    events: Vec<TraceEvent>,
    bytes: usize,
}

/// Resident bytes of one dealt product (both parties' shares of the masks
/// it opens and of `Z`), saturating as [`Deal::dealt_elems`] does.
fn deal_bytes<R: SecureRing>(deal: Deal) -> usize {
    deal.dealt_elems().saturating_mul(2 * R::BYTES)
}

struct State<R: SecureRing> {
    /// Specs of seqs `next_take_seq..`, in seq order: the `declared`
    /// binding entries first, then the non-binding lookahead.
    plan: VecDeque<Deal>,
    /// Leading entries of `plan` that were declared (and may be taken).
    declared: usize,
    /// What the lookahead repeats: the most recently declared batch, with
    /// the masks it leaves open read instead of opened ([`repeat_of`]).
    repeat: Vec<Deal>,
    /// The secrets open at the end of the declared schedule: what the
    /// next batch may read without opening.
    open: HashSet<Secret>,
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
    /// them with whatever the lookahead put there (module docs). A batch
    /// that reads a secret neither it nor an earlier batch left open is
    /// refused before anything changes.
    fn reconcile(&mut self, specs: &[Deal]) -> Result<(), String> {
        let mut open = self.open.clone();
        follow_openings(&mut open, specs)?;
        let sizes = specs.iter().map(|&s| deal_bytes::<R>(s));
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
        let matched = self.cut_before(matched);
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
        self.repeat = repeat_of(specs, &open);
        self.open = open;
        Ok(())
    }

    /// The longest prefix of the first `matched` lookahead entries after
    /// which every mask the lookahead opened has closed: there the
    /// worker's dealer holds what dealing the declared entries alone
    /// would leave it, so a cut may fall there (module docs).
    fn cut_before(&self, matched: usize) -> usize {
        // A repeat never opens or closes a mask open where the lookahead
        // starts ([`repeat_of`]), so every mask it opened has closed
        // exactly where the open set is back to that.
        let mut open = self.open.clone();
        let mut cut = 0;
        let lookahead = self.plan.iter().skip(self.declared).take(matched);
        for (i, deal) in lookahead.enumerate() {
            if follow_openings(&mut open, std::slice::from_ref(deal)).is_ok() && open == self.open {
                cut = i + 1;
            }
        }
        cut
    }

    /// The next declared entry, if a product of `spec` (of `operands`,
    /// when the caller names them) may take it as seq `want` (when the
    /// caller counts seqs): the shape must agree, and a mask-schedule
    /// entry's operands too. A refusal changes nothing.
    fn check(
        &self,
        want: Option<u64>,
        spec: TripleSpec,
        operands: Option<[Operand; 2]>,
    ) -> Result<Deal, String> {
        let seq = self.next_take_seq;
        if let Some(want) = want.filter(|&want| want != seq) {
            return Err(format!(
                "triple schedule mismatch: requested seq {want} but the next declared seq is {seq}"
            ));
        }
        let declared = match self.plan.front() {
            Some(&declared) if self.declared > 0 => declared,
            _ => {
                return Err(format!(
                    "triple schedule exhausted: multiplying {spec:?} of {operands:?} (seq {seq}) \
                     but nothing is declared — declare the products before multiplying"
                ))
            }
        };
        let fits = declared.spec() == spec
            && match declared {
                Deal::Triple(_) => true,
                Deal::Masked(p) => operands == Some(p.operands),
            };
        match fits {
            true => Ok(declared),
            false => Err(format!(
                "triple schedule mismatch at seq {seq}: multiplying {spec:?} of {operands:?} \
                 but {declared:?} was declared"
            )),
        }
    }

    /// Removes the front entry, which is taken.
    fn pop_taken(&mut self) {
        self.plan.pop_front();
        self.declared -= 1;
        self.next_take_seq += 1;
        self.stats.takes += 1;
    }

    /// Claims the next same-shape window the bounds admit: its spec, first
    /// seq and length. `None` when there is nothing to do or no room.
    fn claim(&mut self) -> Option<(Deal, u64, usize)> {
        let at = self.claimed();
        if at == self.plan.len() {
            // Everything planned is generated: plan one more repeat of
            // the last batch (empty before the first `schedule`).
            self.plan.extend(&self.repeat);
        }
        let spec = *self.plan.get(at)?;
        let fit = self.budget.saturating_sub(self.ready_bytes) / deal_bytes::<R>(spec).max(1);
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

/// What the lookahead repeats after `batch`, which leaves `open` open:
/// the batch with every opening of a secret in `open` turned into a read
/// — the next batch finds that secret open, and its dealer's mask must
/// survive — or nothing when that repeat is not a schedule that leaves
/// `open` as it found it (it reads a closed mask or closes one of
/// `open`), so a repeat never changes what a long-lived mask is.
fn repeat_of(batch: &[Deal], open: &HashSet<Secret>) -> Vec<Deal> {
    let repeat: Vec<Deal> = batch
        .iter()
        .map(|&deal| match deal {
            Deal::Masked(mut p) => {
                for (op, opens) in p.operands.iter().zip(&mut p.opens) {
                    *opens &= !open.contains(&op.secret);
                }
                Deal::Masked(p)
            }
            triple => triple,
        })
        .collect();
    let mut after = open.clone();
    match follow_openings(&mut after, &repeat) {
        Ok(()) if after == *open => repeat,
        _ => Vec::new(),
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

/// Who deals a declared product.
enum Dealing<R: SecureRing> {
    /// A provisioning thread, ahead of the takes (prefetch).
    Ahead(Option<JoinHandle<()>>),
    /// `take`, on the caller's thread. Held across a take, the lock keeps
    /// the dealer's products in seq order.
    OnTake(Mutex<Dealer<R>>),
}

/// The engine's one source of Beaver-triple material (module docs).
/// Dropping it shuts a provisioning thread down (any unconsumed triples
/// are discarded).
pub struct TripleProvider<R: SecureRing> {
    shared: Arc<Shared<R>>,
    master: u64,
    dealing: Dealing<R>,
}

impl<R: SecureRing> TripleProvider<R> {
    fn with_dealing(master: u64, depth: usize, dealing: Dealing<R>) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                plan: VecDeque::new(),
                declared: 0,
                repeat: Vec::new(),
                open: HashSet::new(),
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
        TripleProvider { shared, master, dealing }
    }

    /// Spawns the provisioning thread. `master` seeds every triple's
    /// stream; `depth` caps the *count* of ready-but-unconsumed triples
    /// (their bytes are bounded by the budget derived from the schedule).
    pub fn new(master: u64, depth: usize) -> Self {
        assert!(depth >= 1, "prefetch depth must be at least 1");
        let mut provider = Self::with_dealing(master, depth, Dealing::Ahead(None));
        let worker_shared = Arc::clone(&provider.shared);
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
        provider.dealing = Dealing::Ahead(Some(worker));
        provider
    }

    /// A provider without a thread: each `take` deals its checked entry
    /// on the caller's thread.
    pub fn inline(master: u64) -> Self {
        Self::with_dealing(master, 1, Dealing::OnTake(Mutex::new(Dealer::new())))
    }

    /// Appends single-use triples to the schedule ([`Self::schedule_deals`]).
    pub fn schedule(&self, specs: &[TripleSpec]) {
        let deals: Vec<Deal> = specs.iter().map(|&spec| Deal::Triple(spec)).collect();
        self.schedule_deals(&deals).expect("a single-use triple reads no earlier opening");
    }

    /// Appends products to the schedule, adopting or discarding what the
    /// lookahead generated at their seqs. A provisioning thread starts on
    /// whatever is still missing immediately (subject to backpressure).
    /// Every mask a mask-schedule product reads must be open there: opened
    /// earlier in the batch, or by an earlier batch and not closed since.
    /// A batch that reads any other is an error, and nothing of it is
    /// declared.
    pub fn schedule_deals(&self, deals: &[Deal]) -> Result<(), String> {
        if deals.is_empty() {
            return Ok(());
        }
        self.shared.lock().reconcile(deals)?;
        self.shared.cv.notify_all();
        Ok(())
    }

    /// A snapshot of this provider's counters.
    pub fn stats(&self) -> ProviderStats {
        self.shared.lock().stats
    }

    /// Retrieves single-use triple `seq`, which must be the next declared
    /// entry ([`Self::take_deal`]).
    pub fn take(
        &self,
        seq: u64,
        spec: TripleSpec,
    ) -> Result<(BeaverTriple<R>, Vec<TraceEvent>), String> {
        let (_, dealt, events) = self.take_checked(Some(seq), spec, None)?;
        let triple = dealt.into_triple();
        let triple = triple.expect("a product without operands takes a single-use triple");
        Ok((triple, events))
    }

    /// Takes the next declared product for a product of `spec`, whose
    /// operands are `operands` when the caller names them: the declared
    /// deal (which masks it opens and closes) and its material. Any
    /// disagreement with the declaration ([`State::check`]) is an error
    /// that leaves the schedule as it was, never a silent fallback. With
    /// a provisioning thread, blocks until it delivers.
    pub fn take_deal(
        &self,
        spec: TripleSpec,
        operands: Option<[Operand; 2]>,
    ) -> Result<(Deal, Dealt<R>, Vec<TraceEvent>), String> {
        self.take_checked(None, spec, operands)
    }

    /// [`Self::take_deal`], as seq `want` when the caller counts seqs.
    fn take_checked(
        &self,
        want: Option<u64>,
        spec: TripleSpec,
        operands: Option<[Operand; 2]>,
    ) -> Result<(Deal, Dealt<R>, Vec<TraceEvent>), String> {
        if let Dealing::OnTake(dealer) = &self.dealing {
            let mut dealer = dealer.lock().unwrap_or_else(PoisonError::into_inner);
            let (deal, seq) = {
                let mut st = self.shared.lock();
                let deal = st.check(want, spec, operands)?;
                let seq = st.next_take_seq;
                st.pop_taken();
                st.next_gen_seq = st.next_take_seq;
                (deal, seq)
            };
            let dealt = dealer.deal(&deal, self.master, seq, gemm_auto);
            return Ok((deal, dealt, Vec::new()));
        }
        let mut st = self.shared.lock();
        let deal = st.check(want, spec, operands)?;
        // `TraceSink::wall_ns` reads its clock whether or not tracing is on.
        let mut stalled_at = None;
        loop {
            if let Some(item) = st.ready.pop_front() {
                st.pop_taken();
                st.ready_bytes -= item.bytes;
                if let Some(since) = stalled_at {
                    st.stats.stalled_takes += 1;
                    st.stats.stall_ns += TraceSink::wall_ns().saturating_sub(since);
                }
                let refill = st.low_water();
                drop(st);
                if refill {
                    self.shared.cv.notify_all();
                }
                return Ok((deal, item.dealt, item.events));
            }
            if st.worker_dead {
                return Err("triple provider worker died".into());
            }
            stalled_at.get_or_insert_with(TraceSink::wall_ns);
            st = self.shared.wait(st);
        }
    }

    fn run(shared: &Shared<R>, master: u64) {
        // Generation runs in seq order on this thread alone, so one dealer
        // keeps every opened mask for the products that read it.
        let mut dealer = Dealer::new();
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
            let triples: Vec<Dealt<R>> = (base_seq..base_seq + count as u64)
                .map(|seq| dealer.deal(&spec, master, seq, gemm_auto))
                .collect();
            let wall_end = if traced { TraceSink::wall_ns() } else { 0 };

            let bytes = deal_bytes::<R>(spec);
            let mut st = shared.lock();
            for (i, triple) in triples.into_iter().enumerate() {
                if base_seq + i as u64 >= st.next_gen_seq {
                    // A `schedule` contradicted this seq while it was in
                    // flight; the worker re-claims it with the new spec.
                    st.stats.discarded += 1;
                    continue;
                }
                // One span per triple; window members share the window's
                // wall interval (they were genuinely produced within it).
                let events = if traced {
                    let (m, k, n) = spec.spec().dims();
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
                st.ready.push_back(ReadyTriple { dealt: triple, events, bytes });
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
        if let Dealing::Ahead(worker) = &mut self.dealing {
            // A worker that panicked has already flagged itself dead;
            // re-raising its panic here would abort an unwinding engine.
            if let Some(h) = worker.take() {
                let _ = h.join();
            }
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

    /// A provider of each kind: with a provisioning thread, and inline.
    fn both(master: u64) -> [TripleProvider<Fixed64>; 2] {
        [TripleProvider::new(master, 2), TripleProvider::inline(master)]
    }

    #[test]
    fn mismatched_spec_is_an_error_not_a_hang() {
        for p in both(1) {
            p.schedule(&[GEMM]);
            let err = p.take(0, HAD).unwrap_err();
            assert!(err.contains("mismatch"), "{err}");
            // The schedule is still intact: the correct request succeeds.
            let (got, _) = p.take(0, GEMM).unwrap();
            assert_reference(1, 0, GEMM, &got);
        }
    }

    #[test]
    fn unscheduled_take_is_an_error_not_a_hang() {
        for p in both(1) {
            let err = p.take(0, GEMM).unwrap_err();
            assert!(err.contains("exhausted"), "{err}");
            let err = p.take(3, GEMM).unwrap_err();
            assert!(err.contains("mismatch"), "{err}");
        }
    }

    // Fails at the parent, where prefetch off has no provider: the engine
    // dealt inline, unchecked.
    #[test]
    fn the_inline_provider_deals_and_checks_what_the_worker_does() {
        let step = layer_step();
        let [ahead, inline] = both(33);
        for p in [&ahead, &inline] {
            p.schedule_deals(&step).unwrap();
            p.schedule(&[HAD]);
        }
        for (i, deal) in step.iter().chain(&[Deal::Triple(HAD)]).enumerate() {
            let (spec, operands) = (deal.spec(), operands_of(deal));
            let [a, b] = [&ahead, &inline].map(|p| {
                // The wrong operands, or none, are refused; the entry stays.
                if operands.is_some() {
                    let err = p.take_deal(spec, None).unwrap_err();
                    assert!(err.contains("mismatch"), "{err}");
                }
                let (got, dealt, _) = p.take_deal(spec, operands).unwrap();
                assert_eq!(got, *deal, "seq {i}");
                dealt
            });
            for party in Party::BOTH {
                assert_eq!(a.share(party), b.share(party), "seq {i} {deal:?}");
            }
        }
        assert_eq!(inline.stats().takes, ahead.stats().takes);
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
                    st.reconcile(&[Deal::Triple(HAD)]).unwrap();
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
        c.observe(|st| {
            assert_eq!((st.ready.len(), st.claimed()), (8, 8));
            Some(())
        });
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

    // ---- mask schedules ---------------------------------------------------

    use psml_mpc::{mask_schedule, Operand, Secret};

    /// `x * W` (5x4 by 4x3) and `x^T * d` (4x5 by 5x3), then `last`.
    fn masked_step(last: (TripleSpec, [Operand; 2])) -> Vec<Deal> {
        let (x, w, d) = (act(false), weight(false), grad());
        mask_schedule(&[
            (TripleSpec::Gemm { m: 5, k: 4, n: 3 }, Some([x, w])),
            (TripleSpec::Gemm { m: 4, k: 5, n: 3 }, Some([act(true), d])),
            (last.0, Some(last.1)),
        ])
    }

    fn act(transposed: bool) -> Operand {
        Operand { secret: Secret::Act { layer: 0, step: 0 }, transposed }
    }

    fn weight(transposed: bool) -> Operand {
        Operand { secret: Secret::Weight { layer: 0, which: 0 }, transposed }
    }

    fn grad() -> Operand {
        Operand { secret: Secret::Grad { layer: 0 }, transposed: false }
    }

    /// The operands a product of `deal` names: a mask-schedule entry's.
    fn operands_of(deal: &Deal) -> Option<[Operand; 2]> {
        match deal {
            Deal::Masked(p) => Some(p.operands),
            Deal::Triple(_) => None,
        }
    }

    /// A dense layer's step: the two products above, then `d * W^T`.
    fn layer_step() -> Vec<Deal> {
        masked_step((TripleSpec::Gemm { m: 5, k: 3, n: 4 }, [grad(), weight(true)]))
    }

    /// A consumer checking every product it takes against an inline
    /// dealer fed the same deals at the same seqs.
    struct Inline {
        p: TripleProvider<Fixed64>,
        dealer: Dealer<Fixed64>,
        master: u64,
        seq: u64,
    }

    impl Inline {
        fn new(master: u64) -> Self {
            let p = TripleProvider::new(master, 64);
            Inline { p, dealer: Dealer::new(), master, seq: 0 }
        }

        fn step(&mut self, batch: &[Deal]) {
            self.p.schedule_deals(batch).unwrap();
            for &deal in batch {
                let (_, got, _) = self.p.take_deal(deal.spec(), operands_of(&deal)).unwrap();
                let want = self.dealer.deal(&deal, self.master, self.seq, gemm_auto);
                for party in Party::BOTH {
                    assert_eq!(got.share(party), want.share(party), "seq {} {deal:?}", self.seq);
                }
                self.seq += 1;
            }
        }

        /// Blocks until the lookahead has dealt `n` products.
        fn await_speculated(&self, n: usize) {
            let deadline = Instant::now() + Duration::from_secs(60);
            while {
                let st = self.p.shared.lock();
                st.ready.len() < st.declared + n
            } {
                assert!(Instant::now() < deadline, "the lookahead never dealt");
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn mask_schedules_deal_what_the_inline_dealer_deals() {
        let mut c = Inline::new(31);
        let forward = [Deal::Triple(GEMM)];
        for _ in 0..3 {
            c.step(&layer_step());
            c.await_speculated(1);
            c.step(&layer_step());
            c.await_speculated(1);
            c.step(&forward);
        }
        let stats = c.p.stats();
        assert!(stats.discarded >= 3 && stats.adopted >= 3, "{stats:?}");
    }

    // The declared step matches the speculated one in its first product
    // only. Adopting that product would leave the worker's dealer as the
    // whole speculated step left it, with `x`'s mask closed: the second
    // product, which reads it, would kill the worker.
    #[test]
    fn a_cut_falls_only_where_the_lookahead_holds_no_open_mask() {
        let mut c = Inline::new(32);
        // A large triple first: its budget lets the lookahead deal a whole step.
        c.step(&[Deal::Triple(BIG)]);
        c.step(&layer_step());
        c.await_speculated(3);
        c.step(&masked_step((TripleSpec::Gemm { m: 3, k: 4, n: 5 }, [weight(true), act(true)])));
        let stats = c.p.stats();
        assert!(stats.adopted == 0 && stats.discarded >= 3, "{stats:?}");
    }

    // ---- long-lived masks --------------------------------------------------

    use psml_mpc::mask_schedule_from;

    /// A served request's forward product, `x * W` (1x4 by 4x3), as a
    /// trainer declares it after the masks `open` left open.
    fn request(open: &HashSet<Secret>) -> Deal {
        let spec = TripleSpec::Gemm { m: 1, k: 4, n: 3 };
        let products = [(spec, Some([act(false), weight(false)]))];
        mask_schedule_from(&products, open, |s| matches!(s, Secret::Weight { .. }))[0]
    }

    /// A serving window of `width` requests, folded as a host folds it:
    /// the first request after `W` changed opens it, the rest read it.
    fn fold(width: usize, open: &mut HashSet<Secret>) -> Vec<Deal> {
        let mut requests = Vec::new();
        for _ in 0..width {
            requests.push(request(open));
            follow_openings(open, &requests[requests.len() - 1..]).unwrap();
        }
        requests
    }

    /// Windows of 10, 16 and 4 requests, a training step (which masks `W`
    /// anew and closes it), then a window of 5 that opens `W` again.
    fn serving_around_a_step() -> Vec<Vec<Deal>> {
        let mut open = HashSet::new();
        let mut batches: Vec<Vec<Deal>> = [10, 16, 4].map(|w| fold(w, &mut open)).into();
        batches.push(layer_step());
        batches.push(fold(5, &mut HashSet::new()));
        batches
    }

    /// Blocks until the worker is parked: nothing in flight, and either
    /// the next entry it would deal does not fit the queue's bounds or the
    /// queue is above its low-water mark, where no take wakes it — and
    /// nothing moves for a while after.
    fn await_parked(p: &TripleProvider<Fixed64>) {
        let deadline = Instant::now() + Duration::from_secs(60);
        let probe = || {
            let st = p.shared.lock();
            let at = st.claimed();
            let next = st.plan.get(at).or(st.repeat.first());
            let full = next.is_none_or(|&d| {
                st.ready_bytes + deal_bytes::<Fixed64>(d) > st.budget || st.ready.len() >= st.depth
            });
            (at == st.ready.len() && (full || !st.low_water())).then_some((at, st.plan.len()))
        };
        loop {
            if let Some(seen) = probe() {
                std::thread::sleep(Duration::from_millis(20));
                if probe() == Some(seen) {
                    return;
                }
            }
            assert!(Instant::now() < deadline, "the worker never parked");
            std::thread::yield_now();
        }
    }

    // A lookahead that re-opens `W` fails here: its dealer replaces `M_W`
    // with a speculative mask, and the next window, cut at its first
    // request, multiplies that mask into `Z`.
    #[test]
    fn long_lived_masks_survive_windows_steps_and_cuts() {
        let mut c = Inline::new(34);
        for batch in serving_around_a_step() {
            c.step(&batch);
            c.await_speculated(1);
        }
        // At least one speculated request of each of the 10- and
        // 16-request windows is adopted; at least one speculated entry
        // before the step and before the last window is discarded.
        let stats = c.p.stats();
        assert!(stats.adopted >= 2 && stats.discarded >= 2, "{stats:?}");
    }

    // Adopting a batch holding mask-schedule products whole or not at
    // all drops the lookahead of the 10-request window when the
    // 16-request one is declared: 21 discarded here, where cutting
    // request by request discards 14 and single-use triples 17.
    #[test]
    fn serving_folds_keep_prefix_adoption() {
        let run = |single_use: bool| {
            let p = TripleProvider::<Fixed64>::new(35, 64);
            for batch in serving_around_a_step() {
                let serving = batch.iter().all(|d| d.spec().dims().0 == 1);
                let batch: Vec<Deal> = match single_use && serving {
                    true => batch.iter().map(|d| Deal::Triple(d.spec())).collect(),
                    false => batch,
                };
                // Each take waits for the worker to settle, so what the
                // lookahead holds at each declaration is the same every run.
                p.schedule_deals(&batch).unwrap();
                await_parked(&p);
                for d in &batch {
                    p.take_deal(d.spec(), operands_of(d)).unwrap();
                    await_parked(&p);
                }
            }
            p.stats()
        };
        let (masked, single_use) = (run(false), run(true));
        assert!(masked.discarded <= single_use.discarded, "{masked:?} vs {single_use:?}");
        assert!(masked.adopted > 0, "{masked:?}");
    }

    // Fails at the parent: the batch is accepted, and dealing it panics —
    // on the taker's thread inline, in the worker with prefetch, after
    // which every take reads "worker died".
    #[test]
    fn a_batch_reading_a_mask_nothing_left_open_is_refused() {
        let w_open = HashSet::from([weight(false).secret]);
        let later = [request(&w_open)];
        for p in both(36) {
            let err = p.schedule_deals(&later).unwrap_err();
            assert!(err.contains("Weight"), "{err}");
            assert_eq!(p.stats(), ProviderStats::default());
            // A read of a mask an earlier batch left open is accepted.
            let first = fold(1, &mut HashSet::new());
            p.schedule_deals(&first).unwrap();
            p.schedule_deals(&later).unwrap();
            // A training step closes `W`: a read after it is refused, and
            // the refusal leaves the declared step to be taken.
            let step = layer_step();
            p.schedule_deals(&step).unwrap();
            assert!(p.schedule_deals(&later).is_err());
            let mut dealer = Dealer::<Fixed64>::new();
            for (seq, d) in first.iter().chain(&later).chain(&step).enumerate() {
                let (_, got, _) = p.take_deal(d.spec(), operands_of(d)).unwrap();
                let want = dealer.deal(d, 36, seq as u64, gemm_auto);
                assert_eq!(got.share(Party::P1), want.share(Party::P1), "seq {seq}");
            }
        }
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
