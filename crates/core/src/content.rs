//! The structural content walk behind [`crate::BlockPair::content_hash`]
//! and [`crate::BlockPair::content_key`].
//!
//! One pass over the block's fields in declaration order, never over a
//! rendering of them: every string is length-prefixed, every list
//! count-prefixed, every enum variant tagged, every integer fixed-width
//! little-endian, and every [`Bv`] hashed as its width plus its limbs at
//! any width. The one unordered field, [`Module::node_names`], is walked
//! in node-id order, so the hash is a function of the block's value alone:
//! equal blocks hash equal however they were built, in this process or
//! after a round trip over the wire.
//!
//! The walk feeds either of two hashes. FNV-1a-64 is the unkeyed
//! [`content_hash`](crate::BlockPair::content_hash) the per-campaign
//! cache and the journal store. SipHash-2-4-128 under a secret
//! [`HashSecret`] is the [`ContentKey`] the shared store is keyed by:
//! without the secret nobody can aim two blocks at one key.

use std::fmt;

use dfv_bits::Bv;
use dfv_rtl::ir::Node;
use dfv_rtl::{Module, NodeId};
use dfv_sec::{Binding, EquivSpec, InitState};

use crate::cache::Fnv;
use crate::sip::Sip24;
use crate::BlockPair;

/// A block's 128-bit keyed content key: SipHash-2-4-128 of its structural
/// walk under some [`HashSecret`]. Two keys are comparable only when
/// they were made under the same secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey(pub u128);

impl ContentKey {
    /// The key as 32 lowercase hex digits (its wire form).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses exactly 32 hex digits; anything else is `None`.
    pub fn from_hex(s: &str) -> Option<ContentKey> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ContentKey)
    }
}

impl fmt::Display for ContentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The 128-bit secret a [`ContentKey`] is made under. `Debug` never
/// prints it, and nothing in this crate writes it anywhere.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HashSecret {
    k0: u64,
    k1: u64,
}

impl HashSecret {
    /// A fresh secret drawn from the operating system's randomness
    /// (through `std`'s randomly keyed `RandomState`): distinct on every
    /// call and in every process.
    pub fn random() -> HashSecret {
        use std::hash::BuildHasher;
        let state = std::collections::hash_map::RandomState::new();
        HashSecret {
            k0: state.hash_one(0u8),
            k1: state.hash_one(1u8),
        }
    }

    /// A fixed secret, for reproducible tests.
    pub fn from_words(k0: u64, k1: u64) -> HashSecret {
        HashSecret { k0, k1 }
    }
}

impl fmt::Debug for HashSecret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HashSecret(..)")
    }
}

/// A byte sink the structural walk feeds, with its field encodings.
trait Sink {
    fn write(&mut self, bytes: &[u8]);

    fn u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.write(s.as_bytes());
    }

    fn node(&mut self, id: NodeId) {
        // Node ids are `u32`s inside the IR.
        self.u32(id.index() as u32);
    }

    fn opt_node(&mut self, id: Option<NodeId>) {
        match id {
            None => self.u8(0),
            Some(id) => {
                self.u8(1);
                self.node(id);
            }
        }
    }

    fn bv(&mut self, v: &Bv) {
        self.u32(v.width());
        for &limb in v.limbs() {
            self.u64(limb);
        }
    }
}

impl Sink for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        Fnv::write(self, bytes);
    }
}

impl Sink for Sip24 {
    fn write(&mut self, bytes: &[u8]) {
        Sip24::write(self, bytes);
    }

    fn u8(&mut self, v: u8) {
        self.write_word(u64::from(v), 1);
    }

    fn u32(&mut self, v: u32) {
        self.write_word(u64::from(v), 4);
    }

    fn u64(&mut self, v: u64) {
        self.write_word(v, 8);
    }
}

fn walk(h: &mut impl Sink, b: &BlockPair) {
    h.str(&b.slm_source);
    h.str(&b.slm_entry);
    module(h, &b.rtl);
    spec(h, &b.spec);
}

/// The unkeyed FNV-1a-64 content hash of one block pair.
pub(crate) fn block_hash(b: &BlockPair) -> u64 {
    let mut h = Fnv::new();
    walk(&mut h, b);
    h.finish()
}

/// The keyed content key of one block pair under `secret`.
pub(crate) fn block_key(b: &BlockPair, secret: &HashSecret) -> ContentKey {
    let mut h = Sip24::new(secret.k0, secret.k1, true);
    walk(&mut h, b);
    ContentKey(h.finish128())
}

/// Both hashes of one block pair, as
/// [`content_hash`](crate::BlockPair::content_hash) and
/// [`content_key`](crate::BlockPair::content_key) would give them, from
/// one pass of the walk that feeds the two at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDigest {
    /// The unkeyed FNV-1a-64 content hash.
    pub hash: u64,
    /// The keyed content key.
    pub key: ContentKey,
}

/// A sink feeding every field to both hashes.
struct Tee(Fnv, Sip24);

impl Sink for Tee {
    fn write(&mut self, bytes: &[u8]) {
        Sink::write(&mut self.0, bytes);
        Sink::write(&mut self.1, bytes);
    }

    fn u8(&mut self, v: u8) {
        self.0.u8(v);
        self.1.u8(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.u32(v);
        self.1.u32(v);
    }

    fn u64(&mut self, v: u64) {
        self.0.u64(v);
        self.1.u64(v);
    }
}

/// The [`BlockDigest`] of one block pair under `secret`.
pub(crate) fn block_digest(b: &BlockPair, secret: &HashSecret) -> BlockDigest {
    let mut h = Tee(Fnv::new(), Sip24::new(secret.k0, secret.k1, true));
    walk(&mut h, b);
    BlockDigest {
        hash: h.0.finish(),
        key: ContentKey(h.1.finish128()),
    }
}

fn module(h: &mut impl Sink, m: &Module) {
    h.str(&m.name);
    for ports in [&m.inputs, &m.outputs] {
        h.len(ports.len());
        for p in ports {
            h.str(&p.name);
            h.u32(p.width);
        }
    }
    h.len(m.output_drivers.len());
    for &d in &m.output_drivers {
        h.node(d);
    }
    h.len(m.nodes.len());
    for (node, &width) in m.nodes.iter().zip(&m.node_widths) {
        match node {
            Node::Input(i) => {
                h.u8(0);
                h.len(*i);
            }
            Node::Const(v) => {
                h.u8(1);
                h.bv(v);
            }
            Node::RegQ(r) => {
                h.u8(2);
                h.len(r.index());
            }
            Node::MemReadData(mm, p) => {
                h.u8(3);
                h.len(mm.index());
                h.len(*p);
            }
            Node::InstOut(inst, o) => {
                h.u8(4);
                h.len(inst.index());
                h.len(*o);
            }
            Node::Un(op, a) => {
                h.u8(5);
                h.u8(*op as u8);
                h.node(*a);
            }
            Node::Bin(op, a, b) => {
                h.u8(6);
                h.u8(*op as u8);
                h.node(*a);
                h.node(*b);
            }
            Node::Mux { sel, t, f } => {
                h.u8(7);
                h.node(*sel);
                h.node(*t);
                h.node(*f);
            }
            Node::Slice { src, hi, lo } => {
                h.u8(8);
                h.node(*src);
                h.u32(*hi);
                h.u32(*lo);
            }
            Node::Concat(a, b) => {
                h.u8(9);
                h.node(*a);
                h.node(*b);
            }
            Node::Zext(a, w) => {
                h.u8(10);
                h.node(*a);
                h.u32(*w);
            }
            Node::Sext(a, w) => {
                h.u8(11);
                h.node(*a);
                h.u32(*w);
            }
        }
        h.u32(width);
    }
    let mut names: Vec<_> = m.node_names.iter().collect();
    names.sort_unstable_by_key(|(id, _)| **id);
    h.len(names.len());
    for (&id, name) in names {
        h.u32(id);
        h.str(name);
    }
    h.len(m.regs.len());
    for r in &m.regs {
        h.str(&r.name);
        h.u32(r.width);
        h.bv(&r.init);
        h.opt_node(r.next);
        h.opt_node(r.en);
    }
    h.len(m.mems.len());
    for mem in &m.mems {
        h.str(&mem.name);
        h.u32(mem.addr_width);
        h.u32(mem.data_width);
        h.len(mem.depth);
        h.len(mem.init.len());
        for w in &mem.init {
            h.bv(w);
        }
        h.len(mem.write_ports.len());
        for wp in &mem.write_ports {
            h.node(wp.en);
            h.node(wp.addr);
            h.node(wp.data);
        }
        h.len(mem.read_ports.len());
        for rp in &mem.read_ports {
            h.node(rp.addr);
        }
    }
    h.len(m.instances.len());
    for inst in &m.instances {
        h.str(&inst.name);
        h.str(&inst.module);
        h.len(inst.input_conns.len());
        for &c in &inst.input_conns {
            h.node(c);
        }
    }
}

fn spec(h: &mut impl Sink, s: &EquivSpec) {
    h.u32(s.rtl_cycles);
    h.len(s.bindings.len());
    for (port, cycle, binding) in &s.bindings {
        h.str(port);
        h.u32(*cycle);
        match binding {
            Binding::Slm(name) => {
                h.u8(0);
                h.str(name);
            }
            Binding::SlmSlice { name, hi, lo } => {
                h.u8(1);
                h.str(name);
                h.u32(*hi);
                h.u32(*lo);
            }
            Binding::Const(v) => {
                h.u8(2);
                h.bv(v);
            }
            Binding::Free => h.u8(3),
        }
    }
    h.len(s.compares.len());
    for c in &s.compares {
        h.str(&c.slm_output);
        match c.slm_slice {
            None => h.u8(0),
            Some((hi, lo)) => {
                h.u8(1);
                h.u32(hi);
                h.u32(lo);
            }
        }
        h.str(&c.rtl_output);
        h.u32(c.rtl_cycle);
    }
    h.len(s.constraints.len());
    for m in &s.constraints {
        module(h, m);
    }
    h.u8(match s.init {
        InitState::Reset => 0,
        InitState::Free => 1,
    });
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use dfv_bits::Bv;
    use dfv_rtl::ir::{BinOp, Node};
    use dfv_rtl::{Module, ModuleBuilder};
    use dfv_sec::{Binding, EquivSpec, InitState};

    use super::{block_digest, BlockDigest, ContentKey, HashSecret};
    use crate::BlockPair;

    const SECRET: HashSecret = HashSecret {
        k0: 0x0123_4567_89ab_cdef,
        k1: 0xfedc_ba98_7654_3210,
    };

    /// A 1-bit-output constraint over `x` with three named nodes, so its
    /// name map has more than one iteration order.
    fn constraint() -> Module {
        let mut b = ModuleBuilder::new("in_range");
        let x = b.input("x", 8);
        let lim = b.lit(8, 200);
        let ok = b.ult(x, lim);
        b.name_node(x, "x_in");
        b.name_node(lim, "limit");
        b.name_node(ok, "ok");
        b.output("ok", ok);
        b.finish().expect("constraint builds")
    }

    /// A block touching every verdict-relevant field: a register with an
    /// init, next and enable, a memory with init words and both port
    /// kinds, a constant wider than 64 bits, named nodes, and a spec with
    /// every binding kind, a sliced compare and a constraint.
    fn block() -> BlockPair {
        let mut b = ModuleBuilder::new("everything");
        let en = b.input("en", 1);
        let x = b.input("x", 8);
        let r = b.reg("acc", 8, Bv::from_u64(8, 3));
        let q = b.reg_q(r);
        let sum = b.add(q, x);
        b.connect_reg(r, sum);
        b.reg_enable(r, en);
        let mem = b.mem("buf", 2, 8, 4);
        b.mem_init(mem, vec![Bv::from_u64(8, 0xAA), Bv::from_u64(8, 0x55)]);
        let addr = b.slice(x, 1, 0);
        let rd = b.mem_read(mem, addr);
        b.mem_write(mem, en, addr, x);
        let wide = b.constant(Bv::from_u128(80, 1 << 70 | 5));
        let xw = b.zext(x, 80);
        let wsum = b.add(xw, wide);
        let top = b.slice(wsum, 79, 72);
        let mixed = b.xor(top, rd);
        b.name_node(sum, "sum");
        b.name_node(mixed, "mixed");
        b.name_node(wide, "wide");
        b.output("y", mixed);
        b.output("acc", q);
        BlockPair {
            name: "everything".into(),
            slm_source: "uint8 f(uint8 x) { return x; }".into(),
            slm_entry: "f".into(),
            rtl: b.finish().expect("block builds"),
            spec: EquivSpec::new(2)
                .bind("x", 0, Binding::Slm("x".into()))
                .bind(
                    "x",
                    1,
                    Binding::SlmSlice {
                        name: "x".into(),
                        hi: 7,
                        lo: 0,
                    },
                )
                .bind("en", 0, Binding::Const(Bv::from_u64(1, 1)))
                .bind("en", 1, Binding::Free)
                .compare("return", "y", 1)
                .compare_slice("return", 3, 0, "acc", 1)
                .constrain(constraint()),
        }
    }

    fn find(m: &Module, pred: impl Fn(&Node) -> bool) -> usize {
        m.nodes.iter().position(pred).expect("node present")
    }

    #[test]
    fn independently_built_equal_blocks_hash_equal() {
        let h = block().content_hash();
        let k = block().content_key(&SECRET);
        // The one-pass digest is exactly the two separate walks.
        assert_eq!(
            block_digest(&block(), &SECRET),
            BlockDigest { hash: h, key: k }
        );
        for _ in 0..20 {
            assert_eq!(block().content_hash(), h);
            assert_eq!(block().content_key(&SECRET), k);
        }
    }

    #[test]
    fn two_secrets_key_the_same_block_differently() {
        let b = block();
        let other = HashSecret::from_words(SECRET.k0, SECRET.k1 ^ 1);
        assert_ne!(b.content_key(&SECRET), b.content_key(&other));
        let (x, y) = (HashSecret::random(), HashSecret::random());
        assert_ne!(x, y, "every drawn secret is fresh");
        assert_ne!(b.content_key(&x), b.content_key(&y));
        assert_eq!(format!("{x:?}"), "HashSecret(..)", "Debug hides the secret");
    }

    #[test]
    fn content_keys_round_trip_through_hex_and_refuse_malformed_text() {
        let k = block().content_key(&SECRET);
        assert_eq!(k.to_hex().len(), 32);
        assert_eq!(ContentKey::from_hex(&k.to_hex()), Some(k));
        assert_eq!(k.to_string(), k.to_hex());
        assert_eq!(ContentKey::from_hex(&"0".repeat(32)), Some(ContentKey(0)));
        for bad in [
            String::new(),
            "0".repeat(31),
            "0".repeat(33),
            format!("+{}", "0".repeat(31)),
            format!("{}g", "0".repeat(31)),
            format!("{} ", "0".repeat(31)),
        ] {
            assert_eq!(ContentKey::from_hex(&bad), None, "{bad:?}");
        }
    }

    #[test]
    fn every_verdict_relevant_field_moves_the_hash() {
        type Edit = (&'static str, fn(&mut BlockPair));
        let edits: &[Edit] = &[
            ("slm source", |b| b.slm_source.push(' ')),
            ("slm entry", |b| b.slm_entry = "g".into()),
            ("node op", |b| {
                let i = find(&b.rtl, |n| matches!(n, Node::Bin(BinOp::Xor, ..)));
                if let Node::Bin(op, ..) = &mut b.rtl.nodes[i] {
                    *op = BinOp::Or;
                }
            }),
            ("node operand", |b| {
                let i = find(&b.rtl, |n| matches!(n, Node::Bin(BinOp::Xor, ..)));
                if let Node::Bin(_, a, c) = &mut b.rtl.nodes[i] {
                    std::mem::swap(a, c);
                }
            }),
            ("node width", |b| b.rtl.node_widths[0] += 1),
            ("narrow const", |b| {
                b.rtl.nodes.push(Node::Const(Bv::from_u64(8, 1)));
                b.rtl.node_widths.push(8);
            }),
            ("wide const", |b| {
                let i = find(&b.rtl, |n| matches!(n, Node::Const(v) if v.width() == 80));
                b.rtl.nodes[i] = Node::Const(Bv::from_u128(80, 1 << 71 | 5));
            }),
            ("reg init", |b| b.rtl.regs[0].init = Bv::from_u64(8, 4)),
            ("reg next", |b| {
                b.rtl.regs[0].next = Some(b.rtl.output_drivers[0])
            }),
            ("reg enable", |b| b.rtl.regs[0].en = None),
            ("mem init", |b| {
                b.rtl.mems[0].init[1] = Bv::from_u64(8, 0x56)
            }),
            ("mem write port", |b| {
                b.rtl.mems[0].write_ports[0].data = b.rtl.output_drivers[0]
            }),
            ("mem read port", |b| {
                b.rtl.mems[0].read_ports[0].addr = b.rtl.output_drivers[0]
            }),
            ("output driver", |b| {
                b.rtl.output_drivers[1] = b.rtl.output_drivers[0]
            }),
            ("node name", |b| {
                let id = b.rtl.node_named("sum").expect("named").index() as u32;
                b.rtl.node_names.insert(id, "total".into());
            }),
            ("named node", |b| {
                let id = b.rtl.node_named("sum").expect("named").index() as u32;
                let name = b.rtl.node_names.remove(&id).expect("named");
                b.rtl.node_names.insert(0, name);
            }),
            ("binding slm name", |b| {
                b.spec.bindings[0].2 = Binding::Slm("z".into())
            }),
            ("binding kind", |b| b.spec.bindings[0].2 = Binding::Free),
            ("binding slice", |b| {
                b.spec.bindings[1].2 = Binding::SlmSlice {
                    name: "x".into(),
                    hi: 6,
                    lo: 0,
                }
            }),
            ("binding const", |b| {
                b.spec.bindings[2].2 = Binding::Const(Bv::from_u64(1, 0))
            }),
            ("binding port", |b| b.spec.bindings[3].0 = "x".into()),
            ("binding cycle", |b| b.spec.bindings[3].1 = 0),
            ("compare slice", |b| {
                b.spec.compares[0].slm_slice = Some((7, 0))
            }),
            ("compare slice bound", |b| {
                b.spec.compares[1].slm_slice = Some((3, 1))
            }),
            ("compare cycle", |b| b.spec.compares[0].rtl_cycle = 0),
            ("compare output", |b| {
                b.spec.compares[0].rtl_output = "acc".into()
            }),
            ("rtl cycles", |b| b.spec.rtl_cycles = 3),
            ("init state", |b| b.spec.init = InitState::Free),
            ("constraint", |b| b.spec.constraints[0].node_widths[0] = 9),
            ("constraint name", |b| {
                b.spec.constraints[0].node_names.insert(1, "bound".into());
            }),
            ("no constraint", |b| b.spec.constraints.clear()),
        ];
        let base = block();
        let mut seen = HashSet::from([base.content_hash()]);
        let mut keys = HashSet::from([base.content_key(&SECRET)]);
        for (what, edit) in edits {
            let mut b = block();
            edit(&mut b);
            assert!(
                seen.insert(b.content_hash()),
                "editing the {what} left the hash unchanged or collided"
            );
            assert!(
                keys.insert(b.content_key(&SECRET)),
                "editing the {what} left the content key unchanged or collided"
            );
        }
    }
}
