//@ crate: net-sim
//@ module: net-sim::codec
//@ context: lib
//@ expect: unsafe.module-not-allowlisted@11

// `net-sim` is an unsafe-bearing crate for `net-sim::crc` alone; the
// allowlist is per module, so its siblings still may not hold `unsafe`.
pub fn first(bytes: &[u8]) -> u8 {
    let p = bytes.as_ptr();
    // SAFETY: bytes is non-empty by contract; reading element 0 is in bounds.
    unsafe { *p }
}
