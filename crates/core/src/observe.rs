//! Traced-run helpers shared by the `psml` CLI and the golden tests:
//! enable/run/drain around a workload, the `psml.profile.v1` document
//! assembly, and validation of every versioned JSON schema the framework
//! emits.

use crate::adaptive::RecalEvent;
use crate::report::RunReport;
use psml_trace::json::{obj, parse, JsonValue};
use psml_trace::{Summary, TraceEvent, TraceSink};

/// Runs `f` with tracing enabled and returns its result plus the events
/// recorded on this thread, in insertion order. The sink is cleared first
/// (stale events from earlier runs would corrupt the trace) and disabled
/// afterwards, restoring the zero-cost path.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    TraceSink::clear();
    TraceSink::enable();
    let out = f();
    let events = TraceSink::drain();
    TraceSink::disable();
    (out, events)
}

/// Assembles the versioned `psml.profile.v1` document: per-phase busy
/// time from the trace, the run report, and any measured-cost
/// recalibration flips.
pub fn profile_json(
    model: &str,
    events: &[TraceEvent],
    report: &RunReport,
    recalibrations: &[RecalEvent],
) -> JsonValue {
    let summary = Summary::from_events(events);
    let phases = summary
        .phases
        .iter()
        .map(|&(phase, ns, n, bytes)| {
            obj([
                ("phase", JsonValue::Str(phase.name().into())),
                ("busy_ns", JsonValue::UInt(ns)),
                ("events", JsonValue::UInt(n as u64)),
                ("bytes", JsonValue::UInt(bytes)),
            ])
        })
        .collect();
    let recals = recalibrations
        .iter()
        .map(|r| {
            obj([
                (
                    "shape",
                    JsonValue::Array(vec![
                        JsonValue::UInt(r.shape.0 as u64),
                        JsonValue::UInt(r.shape.1 as u64),
                        JsonValue::UInt(r.shape.2 as u64),
                    ]),
                ),
                ("from", JsonValue::Str(r.from.name().into())),
                ("to", JsonValue::Str(r.to.name().into())),
                ("measured_secs", JsonValue::Float(r.measured.as_secs())),
                ("predicted_secs", JsonValue::Float(r.predicted.as_secs())),
                ("observations", JsonValue::UInt(r.observations as u64)),
            ])
        })
        .collect();
    obj([
        ("schema", JsonValue::Str("psml.profile.v1".into())),
        ("model", JsonValue::Str(model.into())),
        ("trace_events", JsonValue::UInt(events.len() as u64)),
        ("trace_busy_ns", JsonValue::UInt(summary.total_ns)),
        ("trace_bytes", JsonValue::UInt(summary.total_bytes)),
        ("phases", JsonValue::Array(phases)),
        ("recalibrations", JsonValue::Array(recals)),
        ("report", report.to_json()),
    ])
}

/// Required top-level keys per versioned schema.
const SCHEMAS: &[(&str, &[&str])] = &[
    ("psml.trace.v1", &["displayTimeUnit", "traceEvents"]),
    (
        "psml.profile.v1",
        &["model", "phases", "recalibrations", "report"],
    ),
    (
        "psml.report.v1",
        &["offline_time_secs", "online_time_secs", "breakdown", "traffic", "reliability"],
    ),
    (
        "psml.phases.v1",
        &["compute1_secs", "communicate_secs", "compute2_secs"],
    ),
    ("psml.traffic.v1", &["messages", "wire_bytes", "links"]),
    (
        "psml.reliability.v1",
        &["transfers", "retransmits", "timeouts"],
    ),
    (
        "psml.bench.gemm.v1",
        &[
            "bench",
            "host_workers",
            "quant_ring_available",
            "elements",
            "shape_classes",
        ],
    ),
    // Per-finding `fingerprint` and `evidence` fields live inside the
    // findings array, which the header check does not descend into.
    (
        "psml.lint.v2",
        &["tool", "files_scanned", "rules", "findings", "summary"],
    ),
    // Session-scoped documents: run_id/generation live in the shared
    // document header (checked by `check_document_header`), so they are
    // not repeated in the per-schema key lists.
    (
        "psml.session.v1",
        &["party", "rollbacks", "losses", "digest", "accuracy"],
    ),
    (
        "psml.serve.v1",
        &[
            "models",
            "submitted",
            "completed",
            "rejected_overload",
            "rejected_deadline",
            "windows",
            "p50_us",
            "p95_us",
            "p99_us",
            "throughput_rps",
            "per_model",
        ],
    ),
];

/// Schemas describing one run of a multi-party / serving session. They
/// share a document header — run id and rollback generation — validated
/// once by [`check_document_header`] instead of per-schema key lists.
const SESSION_SCOPED: &[&str] = &["psml.session.v1", "psml.serve.v1"];

/// The shared header check for session-scoped documents: the schema name
/// must carry a `.v<digits>` version suffix, and `run_id` / `generation`
/// must both be present as unsigned numbers.
fn check_document_header(doc: &JsonValue, schema: &str) -> Result<(), String> {
    let version_ok = schema
        .rsplit_once(".v")
        .is_some_and(|(_, v)| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()));
    if !version_ok {
        return Err(format!("schema '{schema}' has no .v<digits> version suffix"));
    }
    for key in ["run_id", "generation"] {
        if doc.get(key).and_then(|v| v.as_u64()).is_none() {
            return Err(format!(
                "schema '{schema}' header is missing unsigned '{key}'"
            ));
        }
    }
    Ok(())
}

/// Parses `text` and checks it against its self-declared versioned
/// schema. Returns the schema name on success; a description of the
/// first problem otherwise.
pub fn validate_document(text: &str) -> Result<String, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    if !doc.is_object() {
        return Err("top-level value is not an object".into());
    }
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "missing string \"schema\" key".to_string())?
        .to_string();
    let required = SCHEMAS
        .iter()
        .find(|(name, _)| *name == schema)
        .map(|(_, keys)| *keys)
        .ok_or_else(|| format!("unknown schema '{schema}'"))?;
    if SESSION_SCOPED.contains(&schema.as_str()) {
        check_document_header(&doc, &schema)?;
    }
    for key in required {
        if doc.get(key).is_none() {
            return Err(format!("schema '{schema}' is missing key '{key}'"));
        }
    }
    // Embedded sub-documents declare their own schemas; validate those too.
    for key in ["breakdown", "traffic", "reliability", "report"] {
        if let Some(sub) = doc.get(key) {
            if sub.get("schema").is_some() {
                validate_document(&sub.to_json())?;
            }
        }
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;

    // `traced` toggles the process-global enable flag; tests sharing the
    // binary must not interleave their toggles.
    static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn traced_isolates_and_restores() {
        let _serial = FLAG_LOCK.lock().unwrap();
        let (out, events) = traced(|| {
            TraceSink::span("op", "lane", 0, 10, 4);
            7
        });
        assert_eq!(out, 7);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].op, "op");
        assert!(!TraceSink::is_enabled(), "tracing restored to disabled");
    }

    #[test]
    fn profile_document_validates() {
        let _serial = FLAG_LOCK.lock().unwrap();
        let (_, events) = traced(|| {
            TraceSink::span("gemm", "server0/compute", 0, 100, 0);
        });
        let doc = profile_json("mlp", &events, &RunReport::default(), &[]);
        let schema = validate_document(&doc.to_json()).expect("valid profile");
        assert_eq!(schema, "psml.profile.v1");
    }

    #[test]
    fn validate_rejects_unknown_and_incomplete() {
        assert!(validate_document("{\"schema\":\"psml.bogus.v9\"}").is_err());
        assert!(validate_document("{\"schema\":\"psml.lint.v1\"}").is_err());
        assert!(validate_document("{\"schema\":\"psml.trace.v1\"}").is_err());
        assert!(validate_document("not json").is_err());
        assert!(validate_document("[1,2]").is_err());
    }

    #[test]
    fn session_scoped_schemas_share_the_header_check() {
        // A session document missing its header fails on the header, not
        // on a per-schema key list.
        let e = validate_document(
            "{\"schema\":\"psml.session.v1\",\"party\":\"client\",\
             \"rollbacks\":0,\"losses\":[],\"digest\":\"0\",\"accuracy\":0}",
        )
        .unwrap_err();
        assert!(e.contains("header"), "{e}");
        // Same failure mode for the serving report.
        let e = validate_document(
            "{\"schema\":\"psml.serve.v1\",\"models\":1,\"submitted\":0,\
             \"completed\":0,\"rejected_overload\":0,\"rejected_deadline\":0,\
             \"windows\":0,\"p50_us\":0,\"p95_us\":0,\"p99_us\":0,\
             \"throughput_rps\":0,\"per_model\":[]}",
        )
        .unwrap_err();
        assert!(e.contains("header"), "{e}");
        // With the header present, the session document validates.
        let ok = validate_document(
            "{\"schema\":\"psml.session.v1\",\"run_id\":9,\"generation\":0,\
             \"party\":\"client\",\"rollbacks\":0,\"losses\":[],\
             \"digest\":\"0\",\"accuracy\":0}",
        )
        .unwrap();
        assert_eq!(ok, "psml.session.v1");
    }

    #[test]
    fn header_check_requires_versioned_schema_and_numeric_fields() {
        let doc = parse("{\"run_id\":1,\"generation\":0}").unwrap();
        assert!(check_document_header(&doc, "psml.session.v1").is_ok());
        assert!(check_document_header(&doc, "psml.session").is_err());
        assert!(check_document_header(&doc, "psml.session.vX").is_err());
        let bad = parse("{\"run_id\":\"one\",\"generation\":0}").unwrap();
        assert!(check_document_header(&bad, "psml.session.v1").is_err());
    }
}
