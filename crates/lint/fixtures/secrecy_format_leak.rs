//@ crate: core
//@ module: core::engine
//@ context: lib
//@ expect: secrecy.format-leak@7

pub fn leak(pair: &SharePair) -> String {
    format!("{:?}", pair)
}

// The same flow in the other shapes one pass must see.
//@ expect: secrecy.format-leak@13
pub fn leak_inline(pair: &SharePair) -> String {
    format!("{pair:?}")
}

//@ expect: secrecy.format-leak@20
//@ expect: secrecy.format-leak@21
pub fn leak_copy(pair: &SharePair) {
    let l = pair.clone();
    println!("{:?}", l);
    println!("{l:?}");
}

pub struct Holder {
    pub triple: BeaverTriple,
    pub rows: usize,
}

//@ expect: secrecy.format-leak@32
impl Holder {
    pub fn dump(&self) -> String {
        format!("{} {:?}", self.rows, self.triple)
    }
}

//@ expect: secrecy.format-leak@38
pub fn size_note() -> String {
    format!("{}", std::mem::size_of::<SharePair>())
}

pub struct Provider;

impl Provider {
    pub fn take(&self, seq: u64) -> Result<(BeaverTriple, u64), String> {
        Err(format!("no triple {seq}"))
    }
}

//@ expect: secrecy.cross-function-leak@52
pub fn check(provider: &Provider) {
    let (t, _) = provider.take(0).unwrap();
    assert_eq!(t.share(0), t.share(1));
}

// A free function formatting a secret field of a parameter.
//@ expect: secrecy.format-leak@58
pub fn report(h: &Holder) -> String {
    format!("{:?}", h.triple)
}
