//! One operation's real shapes and counts, read from the spans the program
//! itself records while the operation runs once under `TraceSink`. The
//! per-layer replays call each layer's public functions with exactly this
//! mix, so nothing about the engine's protocol is restated here beyond the
//! order in which it emits its sends.

use psml_mpc::{Fixed64, TripleSpec};
use psml_net::codec::{dense_payload_bytes, FRAME_HEADER_BYTES};
use psml_net::NodeId;
use psml_trace::{Phase, TraceEvent};

/// One secure multiplication `(m x k) * (k x n)` and where compute2 ran.
pub struct Mul {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub gpu: bool,
    /// Whether the masked operands `E` / `F` went out as sparse deltas.
    pub e_sparse: bool,
    pub f_sparse: bool,
}

/// One message that was really serialized, framed and decoded.
pub struct Msg {
    pub rows: usize,
    pub cols: usize,
    /// Non-zeros of the CSR delta; `None` for a dense message.
    pub nnz: Option<usize>,
    pub wire_bytes: usize,
    pub from: NodeId,
    pub to: NodeId,
    /// Offered to the delta encoder on its way out (E, F, activations).
    pub delta_stream: bool,
}

#[derive(Default)]
pub struct OpProfile {
    pub muls: Vec<Mul>,
    pub triples: Vec<TripleSpec>,
    /// Shapes passed to `share_input`.
    pub inputs: Vec<(usize, usize)>,
    pub activations: Vec<(usize, usize)>,
    /// Shapes revealed to the client.
    pub reveals: Vec<(usize, usize)>,
    pub msgs: Vec<Msg>,
    /// Program trace events the op produced.
    pub events: usize,
}

struct Send {
    phase: Phase,
    sparse: bool,
    wire_bytes: usize,
    from: NodeId,
    to: NodeId,
}

fn node(name: &str) -> Option<NodeId> {
    NodeId::ALL.into_iter().find(|n| n.short_name() == name)
}

fn parse_send(ev: &TraceEvent) -> Option<Send> {
    let kind = ev.op.strip_prefix("send:")?;
    let (from, to) = ev.track.strip_prefix("net:")?.split_once("->")?;
    Some(Send {
        phase: ev.phase,
        sparse: kind == "sparse-delta",
        wire_bytes: ev.bytes as usize,
        from: node(from)?,
        to: node(to)?,
    })
}

/// Removes and returns the last `n` pending sends of `phase`, oldest first.
fn take_last(pending: &mut Vec<Send>, phase: Phase, n: usize) -> Vec<Send> {
    let mut taken = Vec::with_capacity(n);
    let mut i = pending.len();
    while i > 0 && taken.len() < n {
        i -= 1;
        if pending[i].phase == phase {
            taken.push(pending.remove(i));
        }
    }
    taken.reverse();
    taken
}

fn msg(send: Send, rows: usize, cols: usize, delta_stream: bool) -> Msg {
    // CSR wire size: frame + tag/rows/cols/nnz + (rows+1) row pointers +
    // nnz * (column index + element); invert it for the non-zero count.
    let nnz = send.sparse.then(|| {
        send.wire_bytes
            .saturating_sub(FRAME_HEADER_BYTES + 13 + 4 * (rows + 1))
            / 12
    });
    Msg {
        rows,
        cols,
        nnz,
        wire_bytes: send.wire_bytes,
        from: send.from,
        to: send.to,
        delta_stream,
    }
}

/// Elements of a dense message of `wire_bytes`.
fn dense_elems(wire_bytes: usize) -> usize {
    wire_bytes.saturating_sub(FRAME_HEADER_BYTES + dense_payload_bytes::<Fixed64>(0, 0)) / 8
}

impl OpProfile {
    /// Builds the profile of one op from the program's trace of it.
    /// `prefetch` says whether triple distribution was charge-only (the
    /// provider path): those sends appear in the trace but moved no bytes.
    pub fn from_events(events: &[TraceEvent], prefetch: bool) -> Self {
        let mut p = OpProfile {
            events: events.len(),
            ..OpProfile::default()
        };
        let mut pending: Vec<Send> = Vec::new();
        // (E sparse, F sparse) of the exchange whose compute2 span follows.
        let mut exchanged = (false, false);
        for ev in events {
            if let Some(send) = parse_send(ev) {
                pending.push(send);
                continue;
            }
            if ev.track != "engine" {
                continue;
            }
            let Some([a, b, c]) = ev.shape.map(|s| s.map(|d| d as usize)) else {
                continue;
            };
            match ev.op.as_str() {
                "communicate" => {
                    // Per direction: E (m x k) then F (k x n).
                    let shapes = [(a, b), (b, c), (a, b), (b, c)];
                    let sends = take_last(&mut pending, Phase::Communicate, 4);
                    exchanged = (
                        sends.first().is_some_and(|s| s.sparse),
                        sends.get(1).is_some_and(|s| s.sparse),
                    );
                    for (send, (r, c)) in sends.into_iter().zip(shapes) {
                        p.msgs.push(msg(send, r, c, true));
                    }
                }
                "activation" => {
                    p.activations.push((a, c));
                    for send in take_last(&mut pending, Phase::Activation, 2) {
                        p.msgs.push(msg(send, a, c, true));
                    }
                }
                "share_input" => {
                    p.inputs.push((a, c));
                    for send in take_last(&mut pending, Phase::Offline, 2) {
                        p.msgs.push(msg(send, a, c, false));
                    }
                }
                "gen_triple" => {
                    let spec = if b == 0 {
                        TripleSpec::Hadamard { m: a, n: c }
                    } else {
                        TripleSpec::Gemm { m: a, k: b, n: c }
                    };
                    p.triples.push(spec);
                    let (u, v, z) = (spec.u_shape(), spec.v_shape(), spec.z_shape());
                    let sends = take_last(&mut pending, Phase::Offline, 6);
                    if !prefetch {
                        for (send, (r, c)) in sends.into_iter().zip([u, u, v, v, z, z]) {
                            p.msgs.push(msg(send, r, c, false));
                        }
                    }
                }
                "compute2" => p.muls.push(Mul {
                    m: a,
                    k: b / 2,
                    n: c,
                    gpu: ev.placement == Some("gpu"),
                    e_sparse: exchanged.0,
                    f_sparse: exchanged.1,
                }),
                _ => {}
            }
        }
        // What is left has no span of its own: the reveal's two
        // server -> client shares (and anything a later engine adds).
        let mut reveal_halves = 0;
        for send in pending {
            let elems = dense_elems(send.wire_bytes);
            if send.to == NodeId::Client && !send.sparse {
                reveal_halves += 1;
                if reveal_halves % 2 == 0 {
                    p.reveals.push((1, elems));
                }
            }
            p.msgs.push(msg(send, 1, elems, false));
        }
        p
    }

    pub fn wire_bytes(&self) -> usize {
        self.msgs.iter().map(|m| m.wire_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(phase: Phase, op: &str, track: &str, shape: Option<[u32; 3]>, bytes: u64) -> TraceEvent {
        TraceEvent {
            phase,
            op: op.into(),
            track: track.into(),
            layer: None,
            shape,
            placement: (op == "compute2").then_some("cpu"),
            start_ns: 0,
            end_ns: 1,
            wall_ns: 0,
            bytes,
        }
    }

    #[test]
    fn sends_are_attributed_to_the_span_that_follows_them() {
        let dense =
            |r: usize, c: usize| (FRAME_HEADER_BYTES + dense_payload_bytes::<Fixed64>(r, c)) as u64;
        let sparse =
            |rows: usize, nnz: usize| (FRAME_HEADER_BYTES + 13 + 4 * (rows + 1) + 12 * nnz) as u64;
        let mut events = vec![
            ev(
                Phase::Offline,
                "send:dense",
                "net:client->server0",
                None,
                dense(4, 6),
            ),
            ev(
                Phase::Offline,
                "send:dense",
                "net:client->server1",
                None,
                dense(4, 6),
            ),
            ev(Phase::Offline, "share_input", "engine", Some([4, 0, 6]), 0),
        ];
        // A prefetched triple: six charge-only sends, then its span.
        for _ in 0..6 {
            events.push(ev(
                Phase::Offline,
                "send:dense",
                "net:client->server0",
                None,
                dense(4, 6),
            ));
        }
        events.push(ev(
            Phase::Offline,
            "gen_triple",
            "engine",
            Some([4, 6, 2]),
            0,
        ));
        events.extend([
            ev(
                Phase::Communicate,
                "send:sparse-delta",
                "net:server1->server0",
                None,
                sparse(4, 5),
            ),
            ev(
                Phase::Communicate,
                "send:dense",
                "net:server1->server0",
                None,
                dense(6, 2),
            ),
            ev(
                Phase::Communicate,
                "send:dense",
                "net:server0->server1",
                None,
                dense(4, 6),
            ),
            ev(
                Phase::Communicate,
                "send:dense",
                "net:server0->server1",
                None,
                dense(6, 2),
            ),
            ev(
                Phase::Communicate,
                "communicate",
                "engine",
                Some([4, 6, 2]),
                0,
            ),
            ev(Phase::Compute2, "compute2", "engine", Some([4, 12, 2]), 0),
            ev(
                Phase::Other,
                "send:dense",
                "net:server0->client",
                None,
                dense(4, 2),
            ),
            ev(
                Phase::Other,
                "send:dense",
                "net:server1->client",
                None,
                dense(4, 2),
            ),
        ]);
        let p = OpProfile::from_events(&events, true);
        assert_eq!(p.inputs, vec![(4, 6)]);
        assert_eq!(p.triples, vec![TripleSpec::Gemm { m: 4, k: 6, n: 2 }]);
        assert_eq!(p.reveals, vec![(1, 8)]);
        assert_eq!(p.muls.len(), 1);
        assert_eq!(
            (p.muls[0].m, p.muls[0].k, p.muls[0].n, p.muls[0].gpu),
            (4, 6, 2, false)
        );
        assert_eq!((p.muls[0].e_sparse, p.muls[0].f_sparse), (true, false));
        // 2 input shares + 4 E/F + 2 reveal halves; the triple moved none.
        assert_eq!(p.msgs.len(), 8);
        let e = &p.msgs[2];
        assert_eq!(
            (e.rows, e.cols, e.nnz, e.delta_stream),
            (4, 6, Some(5), true)
        );
        assert_eq!(p.msgs.iter().filter(|m| m.delta_stream).count(), 4);
        // Without prefetch the same trace carries six real triple messages.
        assert_eq!(OpProfile::from_events(&events, false).msgs.len(), 14);
    }
}
