//! End-to-end distributed-session tests: one OS process per party over
//! localhost TCP, driven through the real `psml` binary.
//!
//! Four scenarios back the acceptance criteria of the process-per-party
//! transport:
//!
//! 1. a clean three-process run is bit-identical (model digest, loss
//!    trajectory, simulated-cost fingerprint) to the in-process trainer
//!    on the same seed;
//! 2. SIGKILL-ing one server mid-run and restarting it on the same port
//!    and state directory converges: the client rolls the session back
//!    to the last jointly committed checkpoint and all three replicas
//!    finish with equal digests;
//! 3. severing the client↔server0 TCP link through the chaos proxy is
//!    absorbed entirely by the supervision layer (reconnect + journal
//!    replay) — no rollback, still bit-identical to in-process;
//! 4. an unreachable peer exhausts the reconnect budget and surfaces as
//!    a typed error on stderr within the configured deadline — never a
//!    hang.
//!
//! Chaos determinism: the proxy's fault schedule honours
//! `PSML_FAULT_SEED`, so `scripts/ci.sh` can sweep seeds exactly like
//! the in-process failure-injection suite.

use parsecureml::prelude::*;
use parsecureml::{fnv64, weights_digest, FaultProxy, ProxyConfig};
use std::fs::File;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const PSML: &str = env!("CARGO_BIN_EXE_psml");
const SEED: u32 = 42;
const BATCH: usize = 8;
const BATCHES: usize = 1;

/// Grab a free localhost port by binding port 0 and dropping the socket.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// Scratch tree for one test: per-party state dirs + stdout logs.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "psml-dist-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Scratch { root }
    }

    fn dir(&self, name: &str) -> PathBuf {
        let d = self.root.join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn log(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.log"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A spawned party process; killed on drop so a failing assert never
/// leaks children.
struct Party {
    child: Child,
    log: PathBuf,
}

impl Party {
    fn spawn(args: &[String], log: PathBuf) -> Self {
        let stdout = File::create(&log).unwrap();
        let stderr = File::create(log.with_extension("err")).unwrap();
        let child = Command::new(PSML)
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .unwrap();
        Party { child, log }
    }

    fn stdout(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    fn stderr(&self) -> String {
        std::fs::read_to_string(self.log.with_extension("err")).unwrap_or_default()
    }

    fn wait_timeout(&mut self, limit: Duration) -> Option<ExitStatus> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return Some(status);
            }
            if Instant::now() > deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Polls this party's stdout until `needle` appears (kill timing).
    fn await_line(&mut self, needle: &str, limit: Duration) {
        let deadline = Instant::now() + limit;
        loop {
            if self.stdout().contains(needle) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for `{needle}` in {}:\n{}\n{}",
                self.log.display(),
                self.stdout(),
                self.stderr()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Party {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn server_args(which: &str, port: u16, run_id: u64, state: &Path) -> Vec<String> {
    vec![
        which.into(),
        "--listen".into(),
        format!("127.0.0.1:{port}"),
        "--state-dir".into(),
        state.display().to_string(),
        "--run-id".into(),
        run_id.to_string(),
    ]
}

fn client_args(p0: u16, p1: u16, run_id: u64, state: &Path, epochs: usize) -> Vec<String> {
    vec![
        "client".into(),
        "--server0".into(),
        format!("127.0.0.1:{p0}"),
        "--server1".into(),
        format!("127.0.0.1:{p1}"),
        "--state-dir".into(),
        state.display().to_string(),
        "--run-id".into(),
        run_id.to_string(),
        "--model".into(),
        "mlp".into(),
        "--dataset".into(),
        "synthetic".into(),
        "--batch".into(),
        BATCH.to_string(),
        "--batches".into(),
        BATCHES.to_string(),
        "--epochs".into(),
        epochs.to_string(),
        "--seed".into(),
        SEED.to_string(),
    ]
}

/// Pulls one field's raw text out of a `psml.session.v1` JSON line.
fn json_field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no `{key}` in {json}"))
        + pat.len();
    let rest = &json[start..];
    let end = match rest.as_bytes()[0] {
        b'"' => rest[1..].find('"').unwrap() + 2,
        b'[' => rest.find(']').unwrap() + 1,
        _ => rest.find([',', '}']).unwrap(),
    };
    &rest[..end]
}

/// The final `psml.session.v1` line a party printed.
fn outcome_line(p: &Party) -> String {
    p.stdout()
        .lines()
        .rev()
        .find(|l| l.contains("psml.session.v1"))
        .unwrap_or_else(|| panic!("no outcome JSON in {}:\n{}", p.log.display(), p.stdout()))
        .to_string()
}

/// The in-process reference run of the default test plan.
fn in_process_reference(epochs: usize) -> (String, String, String) {
    let spec = ModelSpec::for_dataset(ModelKind::Mlp, DatasetKind::Synthetic).unwrap();
    let mut trainer =
        SecureTrainer::<Fixed64>::new(EngineConfig::parsecureml(), spec, SEED).unwrap();
    let result = trainer
        .train_epochs(DatasetKind::Synthetic, BATCH, BATCHES, epochs, SEED)
        .unwrap();
    let digest = format!("\"{:016x}\"", weights_digest(&trainer.reveal_weights()));
    let losses: Vec<String> = result.losses.iter().map(|l| format!("{l:?}")).collect();
    let losses = format!("[{}]", losses.join(","));
    let report_fnv = format!(
        "\"{:016x}\"",
        fnv64(format!("{:?}", result.report).as_bytes())
    );
    (digest, losses, report_fnv)
}

/// All three replicas finished with the same digest; returns it. The
/// servers print their outcome *after* acking the final barrier, so
/// wait for them to exit before reading their logs.
fn assert_replicas_agree(client: &Party, s0: &mut Party, s1: &mut Party) -> String {
    for s in [&mut *s0, &mut *s1] {
        let status = s
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("server did not exit: {}", s.log.display()));
        assert!(status.success(), "server failed:\n{}", s.stderr());
    }
    let cj = outcome_line(client);
    let j0 = outcome_line(s0);
    let j1 = outcome_line(s1);
    let digest = json_field(&cj, "digest").to_string();
    assert_eq!(json_field(&j0, "digest"), digest, "server0 replica diverged");
    assert_eq!(json_field(&j1, "digest"), digest, "server1 replica diverged");
    assert_eq!(json_field(&j0, "losses"), json_field(&cj, "losses"));
    assert_eq!(json_field(&j1, "losses"), json_field(&cj, "losses"));
    assert_eq!(json_field(&j0, "report_fnv"), json_field(&cj, "report_fnv"));
    assert_eq!(json_field(&j1, "report_fnv"), json_field(&cj, "report_fnv"));
    digest
}

/// Acceptance: a clean three-process localhost session is bit-identical
/// to the in-process trainer — model digest, every loss, and the
/// simulated-cost fingerprint.
#[test]
fn clean_tcp_session_matches_in_process_bit_for_bit() {
    let scratch = Scratch::new("clean");
    let (p0, p1) = (free_port(), free_port());
    let run_id = 41;
    let epochs = 2;

    let mut s0 = Party::spawn(
        &server_args("server0", p0, run_id, &scratch.dir("s0")),
        scratch.log("s0"),
    );
    let mut s1 = Party::spawn(
        &server_args("server1", p1, run_id, &scratch.dir("s1")),
        scratch.log("s1"),
    );
    let mut client = Party::spawn(
        &client_args(p0, p1, run_id, &scratch.dir("c"), epochs),
        scratch.log("client"),
    );

    let status = client.wait_timeout(Duration::from_secs(120)).unwrap();
    assert!(status.success(), "client failed:\n{}", client.stderr());

    let cj = outcome_line(&client);
    assert_eq!(json_field(&cj, "generation"), "0", "clean run never rolled back");
    assert_eq!(json_field(&cj, "rollbacks"), "0");
    let digest = assert_replicas_agree(&client, &mut s0, &mut s1);

    let (ref_digest, ref_losses, ref_fnv) = in_process_reference(epochs);
    assert_eq!(digest, ref_digest, "TCP model diverged from in-process");
    assert_eq!(json_field(&cj, "losses"), ref_losses);
    assert_eq!(json_field(&cj, "report_fnv"), ref_fnv);
}

/// Acceptance: SIGKILL one server after it commits an epoch, restart it
/// on the same port + state dir, and the session resumes from the
/// latest checkpoint — all three replicas converge to one digest.
#[test]
fn sigkill_and_restart_resumes_from_checkpoint() {
    let scratch = Scratch::new("sigkill");
    let (p0, p1) = (free_port(), free_port());
    let run_id = 43;
    let epochs = 5;

    let s0_args = server_args("server0", p0, run_id, &scratch.dir("s0"));
    let mut s0 = Party::spawn(&s0_args, scratch.log("s0"));
    let mut s1 = Party::spawn(
        &server_args("server1", p1, run_id, &scratch.dir("s1")),
        scratch.log("s1"),
    );
    let mut client = Party::spawn(
        &client_args(p0, p1, run_id, &scratch.dir("c"), epochs),
        scratch.log("client"),
    );

    // Let server0 durably commit at least one epoch, then SIGKILL it.
    s0.await_line("commit gen=0 epoch=1", Duration::from_secs(60));
    s0.kill();

    // Restart on the same port and state directory.
    let mut s0b = Party::spawn(&s0_args, scratch.log("s0b"));

    let status = client.wait_timeout(Duration::from_secs(120)).unwrap();
    assert!(status.success(), "client failed:\n{}", client.stderr());

    let cj = outcome_line(&client);
    assert_ne!(json_field(&cj, "generation"), "0", "restart bumped the generation");
    assert_ne!(json_field(&cj, "rollbacks"), "0");
    assert!(client.stdout().contains("rollback gen="), "client logged the rollback");
    assert_replicas_agree(&client, &mut s0b, &mut s1);
}

/// Acceptance: a chaos-proxy link sever between client and server0 is
/// healed by reconnect + journal replay below the session layer — no
/// rollback, and the result still matches the in-process run. The
/// drop-fault schedule honours `PSML_FAULT_SEED` like the in-process
/// chaos suite.
#[test]
fn proxy_sever_recovers_without_rollback() {
    let scratch = Scratch::new("sever");
    let (p0, p1) = (free_port(), free_port());
    let run_id = 47;
    let epochs = 3;

    let fault_seed: u64 = std::env::var("PSML_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    let mut s0 = Party::spawn(
        &server_args("server0", p0, run_id, &scratch.dir("s0")),
        scratch.log("s0"),
    );
    let mut s1 = Party::spawn(
        &server_args("server1", p1, run_id, &scratch.dir("s1")),
        scratch.log("s1"),
    );

    // Chaos proxy on the client→server0 link: sever once after a handful
    // of records, and drop 5% of records besides.
    let mut pcfg = ProxyConfig::passthrough(
        "127.0.0.1:0".parse().unwrap(),
        format!("127.0.0.1:{p0}").parse().unwrap(),
    );
    pcfg.plan = FaultPlan::seeded(fault_seed).with_drop(0.05);
    pcfg.sever_after = Some(12);
    let proxy = FaultProxy::spawn(pcfg).unwrap();

    let mut client = Party::spawn(
        &client_args(proxy.local_addr().port(), p1, run_id, &scratch.dir("c"), epochs),
        scratch.log("client"),
    );

    let status = client.wait_timeout(Duration::from_secs(120)).unwrap();
    assert!(status.success(), "client failed:\n{}", client.stderr());
    assert_eq!(proxy.severed(), 1, "the sever fired");

    let cj = outcome_line(&client);
    assert_eq!(
        json_field(&cj, "generation"),
        "0",
        "a transport-level sever must not force a session rollback"
    );
    let digest = assert_replicas_agree(&client, &mut s0, &mut s1);
    let (ref_digest, _, _) = in_process_reference(epochs);
    assert_eq!(digest, ref_digest, "recovered session diverged from in-process");
}

/// Acceptance: an unreachable peer exhausts the reconnect budget and
/// surfaces as a typed error within the configured deadline — the
/// client exits nonzero, names the dead peer on stderr, and never hangs.
#[test]
fn exhausted_reconnect_budget_fails_fast_with_typed_error() {
    let scratch = Scratch::new("budget");
    // Bind-and-drop: nobody is listening on these ports.
    let (p0, p1) = (free_port(), free_port());

    let mut args = client_args(p0, p1, 53, &scratch.dir("c"), 2);
    args.extend([
        "--deadline-ms".into(),
        "1500".into(),
        "--max-reconnects".into(),
        "3".into(),
    ]);
    let mut client = Party::spawn(&args, scratch.log("client"));

    let started = Instant::now();
    let status = client
        .wait_timeout(Duration::from_secs(30))
        .expect("budget exhaustion must terminate, not hang");
    assert!(!status.success(), "dialing dead ports cannot succeed");
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "failure must land within the configured budget"
    );
    let err = client.stderr();
    assert!(
        err.contains("unreachable"),
        "stderr names the dead peer: {err}"
    );
}
