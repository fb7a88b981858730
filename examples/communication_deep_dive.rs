//! Deep dive into the inter-node communication machinery: per-link
//! traffic, delta+CSR compression behavior across epochs, and the
//! client-aided activation trade-off.
//!
//! Run with: `cargo run --release --example communication_deep_dive`

use parsecureml::prelude::*;

fn train(cfg: EngineConfig, label: &str) -> RunReport {
    let spec = ModelSpec::build(ModelKind::Mlp, 2048, None, 10).expect("model");
    let mut trainer = SecureTrainer::<Fixed64>::new(cfg, spec, 11).expect("trainer");
    let result = trainer
        .train_epochs(DatasetKind::Synthetic, 8, 1, 4, 23)
        .expect("training");
    let r = result.report;
    println!("== {label} ==");
    for (from, to) in [
        (NodeId::Client, NodeId::Server0),
        (NodeId::Client, NodeId::Server1),
        (NodeId::Server0, NodeId::Server1),
        (NodeId::Server1, NodeId::Server0),
        (NodeId::Server0, NodeId::Client),
        (NodeId::Server1, NodeId::Client),
    ] {
        let l = r.traffic.link(from, to);
        if l.messages > 0 {
            println!(
                "  {:?} -> {:?}: {} msgs, {} wire bytes (dense-equivalent {})",
                from, to, l.messages, l.wire_bytes, l.dense_equivalent_bytes
            );
        }
    }
    println!(
        "  total: {} bytes; compression saved {:.1}%; online {}",
        r.traffic.total_wire_bytes(),
        r.traffic.savings() * 100.0,
        r.online_time
    );
    println!();
    r
}

fn main() {
    println!("MLP on SYNTHETIC, 4 epochs over fixed shares (Eq. 11 setting)\n");
    let base = train(EngineConfig::parsecureml(), "compressed (delta + CSR)");
    let dense = train(
        EngineConfig::parsecureml().with_compression(false),
        "uncompressed",
    );
    let client_aided = train(
        EngineConfig::parsecureml().with_client_aided_activation(true),
        "compressed + client-aided activations",
    );

    println!("== summary ==");
    println!(
        "compression saves {:.1}% of server<->server bytes",
        (1.0 - base.traffic.server_to_server_wire_bytes() as f64
            / dense.traffic.server_to_server_wire_bytes() as f64)
            * 100.0
    );
    println!(
        "client-aided activations move {} bytes off the server link",
        base.traffic
            .server_to_server_wire_bytes()
            .saturating_sub(client_aided.traffic.server_to_server_wire_bytes())
    );
    println!(
        "and cost {:+.1}% online time",
        (client_aided.online_time.as_secs() / base.online_time.as_secs() - 1.0) * 100.0
    );
}
