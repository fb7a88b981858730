//@ crate: core
//@ module: core::serve
//@ context: lib
//@ expect: secrecy.cross-function-leak@27

//! Seeded cross-function leak: the secret is minted two calls away from
//! the sink, so no single statement both names a secret type and formats
//! it — the shape only the call-graph summaries can follow.

#[doc = "psml-secret"]
pub struct LimbVec {
    pub limbs: Vec<u64>,
    pub rows: usize,
}

fn mint() -> LimbVec {
    LimbVec { limbs: vec![7], rows: 1 }
}

fn first_limb() -> u64 {
    let p = mint();
    p.limbs[0]
}

pub fn audit() {
    let l = first_limb();
    println!("leaked limb {l}");
}
