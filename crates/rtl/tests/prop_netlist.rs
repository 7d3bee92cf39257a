//! Seeded property suite for the text netlist format: serialization must
//! round-trip arbitrary (comb + state) modules exactly, the simulator must
//! behave identically on the round-tripped module, and `write_module` must
//! stay byte-identical to the reference `format!` writer kept below as the
//! oracle, over seeded modules and every `dfv-designs` module.
//!
//! Uses the repo's own `SplitMix64`, so the suite runs offline; the seeds
//! are fixed, making every run reproducible.

use std::fmt::Write as _;

use dfv_bits::{Bv, SplitMix64};
use dfv_rtl::ir::{BinOp, Node, UnOp};
use dfv_rtl::{parse_module, write_module, Module, ModuleBuilder, NodeId, Simulator};

const CASES: u64 = 64;

/// Reference writer: the line-by-line `format!` serializer `write_module`
/// replaced. Output must match it byte for byte.
fn oracle_write_module(m: &Module) -> String {
    fn binop_name(op: BinOp) -> &'static str {
        match op {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::URem => "urem",
            BinOp::SDiv => "sdiv",
            BinOp::SRem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::ULt => "ult",
            BinOp::ULe => "ule",
            BinOp::SLt => "slt",
            BinOp::SLe => "sle",
        }
    }
    fn unop_name(op: UnOp) -> &'static str {
        match op {
            UnOp::Not => "not",
            UnOp::Neg => "neg",
            UnOp::RedAnd => "redand",
            UnOp::RedOr => "redor",
            UnOp::RedXor => "redxor",
        }
    }
    let n = |id: &NodeId| id.index();
    let mut s = String::new();
    let _ = writeln!(s, "module {}", m.name);
    for p in &m.inputs {
        let _ = writeln!(s, "  input {} {}", p.name, p.width);
    }
    for p in &m.outputs {
        let _ = writeln!(s, "  output {} {}", p.name, p.width);
    }
    for r in &m.regs {
        let _ = writeln!(s, "  reg {} {} {}", r.name, r.width, r.init);
    }
    for mem in &m.mems {
        let _ = write!(
            s,
            "  mem {} {} {} {}",
            mem.name, mem.addr_width, mem.data_width, mem.depth
        );
        for w in &mem.init {
            let _ = write!(s, " {w}");
        }
        let _ = writeln!(s);
    }
    for inst in &m.instances {
        let _ = write!(s, "  inst {} {}", inst.name, inst.module);
        for c in &inst.input_conns {
            let _ = write!(s, " n{}", n(c));
        }
        let _ = writeln!(s);
    }
    for (i, node) in m.nodes.iter().enumerate() {
        let w = m.node_widths[i];
        let body = match node {
            Node::Input(idx) => format!("input {idx}"),
            Node::Const(v) => format!("const {v}"),
            Node::RegQ(r) => format!("regq {}", r.index()),
            Node::MemReadData(mm, p) => format!("memread {} {p}", mm.index()),
            Node::InstOut(inst, o) => format!("instout {} {o}", inst.index()),
            Node::Un(op, a) => format!("{} n{}", unop_name(*op), n(a)),
            Node::Bin(op, a, b) => format!("{} n{} n{}", binop_name(*op), n(a), n(b)),
            Node::Mux { sel, t, f } => format!("mux n{} n{} n{}", n(sel), n(t), n(f)),
            Node::Slice { src, hi, lo } => format!("slice n{} {hi} {lo}", n(src)),
            Node::Concat(a, b) => format!("concat n{} n{}", n(a), n(b)),
            Node::Zext(a, tw) => format!("zext n{} {tw}", n(a)),
            Node::Sext(a, tw) => format!("sext n{} {tw}", n(a)),
        };
        let _ = writeln!(s, "  n{i} = {body} : {w}");
    }
    for (i, r) in m.regs.iter().enumerate() {
        if let Some(x) = r.next {
            let _ = writeln!(s, "  next {i} n{}", n(&x));
        }
        if let Some(en) = r.en {
            let _ = writeln!(s, "  enable {i} n{}", n(&en));
        }
    }
    for (i, mem) in m.mems.iter().enumerate() {
        for rp in &mem.read_ports {
            let _ = writeln!(s, "  readport {i} n{}", n(&rp.addr));
        }
        for wp in &mem.write_ports {
            let _ = writeln!(
                s,
                "  write {i} n{} n{} n{}",
                n(&wp.en),
                n(&wp.addr),
                n(&wp.data)
            );
        }
    }
    for (i, d) in m.output_drivers.iter().enumerate() {
        let _ = writeln!(s, "  drive {i} n{}", n(d));
    }
    let mut names: Vec<_> = m.node_names.iter().collect();
    names.sort_by_key(|(id, _)| **id);
    for (id, name) in names {
        let _ = writeln!(s, "  name n{id} {name}");
    }
    let _ = writeln!(s, "end");
    s
}

fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

/// A random value of the given width, every limb drawn.
fn random_bv(rng: &mut SplitMix64, width: u32) -> Bv {
    let limbs: Vec<u64> = (0..width.div_ceil(64)).map(|_| rng.next_u64()).collect();
    Bv::from_limbs(width, &limbs)
}

/// A random module with inputs, operator soup, constants up to 200 bits
/// wide, registers with and without enables, an initialized memory and
/// named nodes.
fn random_module(rng: &mut SplitMix64) -> Module {
    let mut b = ModuleBuilder::new("fuzz");
    let mut nodes = Vec::new();
    for i in 0..2 + below(rng, 3) {
        nodes.push(b.input(format!("i{i}"), 1 + below(rng, 9) as u32));
    }
    for _ in 0..2 + below(rng, 12) {
        let x = nodes[below(rng, nodes.len() as u64) as usize];
        let y = nodes[below(rng, nodes.len() as u64) as usize];
        let w = b.node_width(x);
        let yr = b.resize_zext(y, w);
        let n = match below(rng, 9) {
            0 => b.add(x, yr),
            1 => b.xor(x, yr),
            2 => b.mul(x, yr),
            3 => b.not(x),
            4 => {
                let s = b.red_or(y);
                b.mux(s, x, yr)
            }
            5 => b.concat(x, y),
            6 => b.sext(x, w + 2),
            7 => b.eq(x, yr),
            _ => {
                // A constant of up to 200 bits folded back down.
                let cw = 1 + below(rng, 200) as u32;
                let c = b.constant(random_bv(rng, cw));
                let wide = b.resize_zext(x, cw.max(w));
                let cz = b.resize_zext(c, cw.max(w));
                let mixed = b.xor(wide, cz);
                b.trunc(mixed, w)
            }
        };
        let n = if b.node_width(n) > 24 {
            b.trunc(n, 24)
        } else {
            n
        };
        nodes.push(n);
    }
    for k in 0..below(rng, 3) {
        let d = nodes[below(rng, nodes.len() as u64) as usize];
        let w = b.node_width(d);
        let reg = b.reg(format!("r{k}"), w, random_bv(rng, w));
        b.connect_reg(reg, d);
        if rng.next_bool() {
            let en = b.red_or(nodes[k as usize % nodes.len()]);
            b.reg_enable(reg, en);
        }
        nodes.push(b.reg_q(reg));
    }
    if rng.next_bool() {
        let aw = 2 + below(rng, 2) as u32;
        let depth = (3 + below(rng, 5) as usize).min(1 << aw);
        let m = b.mem("m", aw, 8, depth);
        let init = (0..below(rng, depth as u64 + 1))
            .map(|_| random_bv(rng, 8))
            .collect();
        b.mem_init(m, init);
        let addr = b.resize_zext(nodes[0], aw);
        let data_src = *nodes.last().expect("nodes");
        let data = b.resize_zext(data_src, 8);
        let we = b.red_or(nodes[1 % nodes.len()]);
        b.mem_write(m, we, addr, data);
        let rd = b.mem_read(m, addr);
        nodes.push(rd);
    }
    for k in 0..below(rng, 4) {
        let id = nodes[below(rng, nodes.len() as u64) as usize];
        b.name_node(id, format!("w{k}"));
    }
    b.output("out", *nodes.last().expect("nodes"));
    b.finish().expect("fuzz module valid")
}

#[test]
fn netlist_roundtrip_exact() {
    let mut rng = SplitMix64::new(0x6e65_746c);
    for case in 0..CASES {
        let m = random_module(&mut rng);
        let text = write_module(&m);
        assert_eq!(text, oracle_write_module(&m), "case {case}");
        let back = parse_module(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(back, m, "case {case}");
        // Idempotent: serializing again yields the same text.
        assert_eq!(write_module(&back), text, "case {case}");
    }
}

#[test]
fn roundtripped_module_simulates_identically() {
    let mut rng = SplitMix64::new(0x73_696d);
    for case in 0..CASES {
        let m = random_module(&mut rng);
        let back = parse_module(&write_module(&m)).expect("round trip parses");
        let mut sim_a = Simulator::new(m).expect("simulates");
        let mut sim_b = Simulator::new(back).expect("simulates");
        for step in 0..6 {
            let inputs: Vec<(String, Bv)> = sim_a
                .module()
                .inputs
                .iter()
                .map(|p| (p.name.clone(), random_bv(&mut rng, p.width)))
                .collect();
            for (n, v) in &inputs {
                sim_a.poke(n, v.clone());
                sim_b.poke(n, v.clone());
            }
            assert_eq!(
                sim_a.output("out"),
                sim_b.output("out"),
                "case {case} step {step}"
            );
            sim_a.step();
            sim_b.step();
        }
    }
}

/// Every module `dfv-designs` builds, including spec constraints.
fn design_modules() -> Vec<Module> {
    use dfv_designs::{alu, conv, fir, memsys};
    let table: [u8; 16] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5a);
    let mut out = vec![fir::rtl(), conv::rtl(), memsys::rtl(&table)];
    for (w, tw) in [(4, 4), (8, 8), (8, 9), (16, 17)] {
        out.push(alu::rtl(w, tw));
    }
    for spec in [
        alu::equiv_spec(),
        conv::equiv_spec(),
        fir::equiv_spec(),
        memsys::equiv_spec_fast(),
        memsys::equiv_spec_slow(),
    ] {
        out.extend(spec.constraints);
    }
    out
}

#[test]
fn writer_is_byte_identical_to_the_oracle_on_every_design() {
    for m in &design_modules() {
        let text = write_module(m);
        assert_eq!(text, oracle_write_module(m), "module {}", m.name);
        assert_eq!(&parse_module(&text).expect("design parses"), m);
    }
}

#[test]
fn writer_is_byte_identical_to_the_oracle_on_instances() {
    let mut cb = ModuleBuilder::new("leaf");
    let a = cb.input("a", 4);
    let n = cb.not(a);
    cb.output("y", n);
    let leaf = cb.finish().expect("leaf builds");
    let mut tb = ModuleBuilder::new("top");
    let x = tb.input("x", 4);
    let o = tb.instantiate("u0", &leaf, &[x]);
    let p = tb.instantiate("u1", &leaf, &[o[0]]);
    tb.output("y", p[0]);
    let top = tb.finish().expect("top builds");
    for m in [&leaf, &top] {
        assert_eq!(write_module(m), oracle_write_module(m), "module {}", m.name);
    }
}
