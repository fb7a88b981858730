//@ crate: core
//@ module: core::engine
//@ context: lib
//
// Clean protocol-path file: ordered maps, metadata-only formatting, no
// unsafe, no wall clock. Must produce zero findings.

use std::collections::BTreeMap;

pub fn schedule(pair: &SharePair, sites: &BTreeMap<u32, u64>) -> String {
    let mut total = 0u64;
    for (_site, cost) in sites {
        total += cost;
    }
    format!("pair {:?} total {total}", pair.shape())
}

// Taint is per function: this `a` is secret...
pub fn secret_rows(a: &SharePair) -> usize {
    a.shape().0
}

// ...and its plaintext namesake in a sibling function is not.
pub fn plain_note(a: u64) -> String {
    format!("{a}")
}

// Declassified and metadata-only reads of a secret are fine in a sink.
pub fn check(pair: &SharePair, want: f64) {
    assert!(pair.reconstruct().max_abs_diff(want) < 1e-3);
    assert_eq!(pair.shape(), (2, 2));
}
