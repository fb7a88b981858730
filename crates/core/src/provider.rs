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
//! # Backpressure
//!
//! At most `depth` generated-but-unconsumed triples exist at any time;
//! the worker blocks once the ready queue is full, so memory stays
//! bounded by `depth` triples of the largest scheduled shape no matter
//! how long the schedule is.
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
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One generated triple waiting to be consumed, with the wall-clock
/// trace spans of its generation (adopted by the engine at take time).
struct ReadyTriple<R: SecureRing> {
    seq: u64,
    spec: TripleSpec,
    triple: BeaverTriple<R>,
    events: Vec<TraceEvent>,
}

struct State<R: SecureRing> {
    /// Scheduled but not yet generated, in schedule order.
    pending_gen: VecDeque<TripleSpec>,
    /// Scheduled but not yet taken, in schedule order (the take-side
    /// view of the schedule, used to reject mismatched requests without
    /// blocking).
    schedule: VecDeque<TripleSpec>,
    /// Generated, waiting for the engine. Bounded by `depth`.
    ready: VecDeque<ReadyTriple<R>>,
    next_gen_seq: u64,
    next_take_seq: u64,
    shutdown: bool,
    /// Set if the worker thread dies; wakes blocked takers into an error.
    worker_dead: bool,
}

struct Shared<R: SecureRing> {
    state: Mutex<State<R>>,
    cv: Condvar,
}

/// Handle to the provisioning pipeline. Dropping it shuts the worker
/// down (any unconsumed triples are discarded).
pub struct TripleProvider<R: SecureRing> {
    shared: Arc<Shared<R>>,
    worker: Option<JoinHandle<()>>,
}

impl<R: SecureRing> TripleProvider<R> {
    /// Spawns the provisioning thread. `master` seeds every triple's
    /// stream; `depth` bounds the ready-but-unconsumed queue.
    pub fn new(master: u64, depth: usize) -> Self {
        assert!(depth >= 1, "prefetch depth must be at least 1");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending_gen: VecDeque::new(),
                schedule: VecDeque::new(),
                ready: VecDeque::new(),
                next_gen_seq: 0,
                next_take_seq: 0,
                shutdown: false,
                worker_dead: false,
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
                        if let Ok(mut st) = self.0.state.lock() {
                            st.worker_dead = true;
                        }
                        self.0.cv.notify_all();
                    }
                }
                let _guard = DeadOnDrop(Arc::clone(&worker_shared));
                Self::run(&worker_shared, master, depth);
            })
            .expect("spawn triple provider");
        TripleProvider {
            shared,
            worker: Some(worker),
        }
    }

    /// Appends specs to the schedule. The worker starts generating them
    /// immediately (subject to backpressure).
    pub fn schedule(&self, specs: &[TripleSpec]) {
        if specs.is_empty() {
            return;
        }
        let mut st = self.shared.state.lock().unwrap();
        st.pending_gen.extend(specs.iter().copied());
        st.schedule.extend(specs.iter().copied());
        drop(st);
        self.shared.cv.notify_all();
    }

    /// Retrieves triple `seq`, which must be the next schedule entry and
    /// must carry the expected shape — any disagreement between what the
    /// engine multiplies and what was scheduled is a protocol error, not
    /// a silent fallback. Blocks until the worker delivers.
    pub fn take(&self, seq: u64, spec: TripleSpec) -> Result<(BeaverTriple<R>, Vec<TraceEvent>), String> {
        let mut st = self.shared.state.lock().unwrap();
        if st.next_take_seq != seq {
            return Err(format!(
                "prefetch schedule mismatch: requested triple seq {seq} but the \
                 next scheduled seq is {}",
                st.next_take_seq
            ));
        }
        match st.schedule.front() {
            None => {
                return Err(format!(
                    "prefetch schedule mismatch: requested {spec:?} (seq {seq}) \
                     but the schedule is exhausted — declare the full step \
                     schedule before multiplying"
                ));
            }
            Some(&scheduled) if scheduled != spec => {
                return Err(format!(
                    "prefetch schedule mismatch at seq {seq}: requested {spec:?} \
                     but {scheduled:?} was scheduled"
                ));
            }
            Some(_) => {}
        }
        loop {
            if st.ready.front().is_some_and(|r| r.seq == seq) {
                let item = st.ready.pop_front().expect("checked front");
                st.schedule.pop_front();
                st.next_take_seq += 1;
                drop(st);
                // A slot freed: wake the worker (and any other waiter).
                self.shared.cv.notify_all();
                debug_assert_eq!(item.spec, spec);
                return Ok((item.triple, item.events));
            }
            if st.worker_dead {
                return Err("triple provider worker died".into());
            }
            st = self.shared.cv.wait(st).unwrap();
        }
    }

    fn run(shared: &Shared<R>, master: u64, depth: usize) {
        loop {
            // Claim the next same-shape window under the lock.
            let (spec, base_seq, count) = {
                let mut st = shared.state.lock().unwrap();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if !st.pending_gen.is_empty() && st.ready.len() < depth {
                        break;
                    }
                    st = shared.cv.wait(st).unwrap();
                }
                let window = depth - st.ready.len();
                let spec = *st.pending_gen.front().expect("non-empty");
                let count = st
                    .pending_gen
                    .iter()
                    .take(window)
                    .take_while(|&&s| s == spec)
                    .count();
                st.pending_gen.drain(..count);
                let base_seq = st.next_gen_seq;
                st.next_gen_seq += count as u64;
                (spec, base_seq, count)
            };

            // Generate outside the lock — this is the work that overlaps
            // the engine's online phase.
            let traced = TraceSink::is_enabled();
            let wall_start = if traced { TraceSink::wall_ns() } else { 0 };
            let triples = gen_triples_streamed::<R>(spec, master, base_seq, count, gemm_batch);
            let wall_end = if traced { TraceSink::wall_ns() } else { 0 };

            let mut st = shared.state.lock().unwrap();
            for (i, triple) in triples.into_iter().enumerate() {
                // One span per triple; batch members share the batch's
                // wall interval (they were genuinely produced within it).
                let events = if traced {
                    let (ur, uc) = spec.u_shape();
                    let (vr, vc) = spec.v_shape();
                    let (zr, zc) = spec.z_shape();
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
                        bytes: (2 * (ur * uc + vr * vc + zr * zc) * R::BYTES) as u64,
                    }]
                } else {
                    Vec::new()
                };
                st.ready.push_back(ReadyTriple {
                    seq: base_seq + i as u64,
                    spec,
                    triple,
                    events,
                });
            }
            drop(st);
            shared.cv.notify_all();
        }
    }
}

impl<R: SecureRing> Drop for TripleProvider<R> {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        if let Some(h) = self.worker.take() {
            // A panicked worker already set nothing useful; surfacing the
            // panic here would abort the engine's drop path, so swallow it
            // (takers see `worker_dead` via the poisoned mutex / flag).
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
}
