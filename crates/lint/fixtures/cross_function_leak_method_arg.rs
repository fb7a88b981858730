//@ crate: core
//@ module: core::serve
//@ context: lib
//@ expect: secrecy.cross-function-leak@33

//! Seeded cross-function leak through a method call: `recv.method(..)`
//! passes `self` before the parentheses, so the first argument inside
//! them binds the callee's parameter 1. `show` formats its first
//! non-`self` parameter and must be caught at the call; `tagged` formats
//! its second, which the call below fills with a public value, so the
//! secret in its first slot is not blamed.

#[doc = "psml-secret"]
pub struct LimbVec {
    pub limbs: Vec<u64>,
    pub rows: usize,
}

pub struct Logger;

impl Logger {
    fn show(&self, value: u64) {
        println!("value {value}");
    }

    fn tagged(&self, value: u64, tag: u64, note: u64) {
        println!("tag {tag}");
    }
}

pub fn audit(log: &Logger) {
    let secret = LimbVec { limbs: vec![7], rows: 1 };
    log.show(secret.limbs[0]);
    log.tagged(0, 1, secret.limbs[0]);
}
