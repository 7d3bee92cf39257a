//! Differential property suite for the compiled simulation engines.
//!
//! Every seeded design runs through **three** engines under seeded
//! constrained-random stimulus (in-tree SplitMix64, no external deps):
//!
//! * the default register-bytecode VM engine ([`Simulator::new`]),
//! * the reference full-reevaluation interpreter
//!   ([`Simulator::new_reference`]), and
//! * the 64-lane batched engine ([`LaneSim`]), each lane driven with its
//!   own independent stimulus stream.
//!
//! The two scalar engines are compared on per-cycle outputs, recorded
//! traces, and rendered VCD dumps — byte for byte. The batched engine is
//! compared per lane: lane `l`'s outputs and trace must be bit-identical
//! to a scalar run of lane `l`'s stimulus.
//!
//! Regression tests then pin down the point of each engine: the VM's
//! dirty-cone `node_evals` counter must come in strictly below the
//! reference engine's full-pass count on a sparse workload, and the
//! batched engine must cover 64 scenarios for well under 1/8th (in
//! practice ~1/64th) of 64 scalar runs' dispatches.

use dfv_bits::limbs::LANES;
use dfv_bits::{Bv, SplitMix64};
use dfv_designs::{alu, conv, fir, memsys};
use dfv_rtl::{
    eval_bin, trace_to_vcd, EvalMode, LaneSim, Module, ModuleBuilder, NodeId, Simulator,
};

/// A two-operand `ModuleBuilder` node constructor.
type BinCtor = fn(&mut ModuleBuilder, NodeId, NodeId) -> NodeId;
/// A one-operand `ModuleBuilder` node constructor.
type UnCtor = fn(&mut ModuleBuilder, NodeId) -> NodeId;

fn random_bv(rng: &mut SplitMix64, width: u32) -> Bv {
    let bits: Vec<bool> = (0..width).map(|_| rng.next_u64() & 1 == 1).collect();
    Bv::from_bits_lsb(&bits)
}

/// The stimulus seed of lane `lane` (lane 0 gets `seed` itself, so the
/// plain scalar run doubles as lane 0's checker).
fn lane_seed(seed: u64, lane: usize) -> u64 {
    seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Drives all three engines with seeded stimulus for `cycles` cycles.
/// The scalar engines share lane 0's stream and are held bit-identical
/// on every output, the traces, and the VCDs; the 64-lane batched engine
/// gets an independent stream per lane and every lane in `check_lanes`
/// is held bit-identical (outputs per cycle + full trace) to a fresh
/// scalar run of that lane's stream.
fn assert_engines_agree_lanes(module: Module, seed: u64, cycles: u32, check_lanes: &[usize]) {
    let name = module.name.clone();
    let mut vm = Simulator::new(module.clone()).unwrap();
    let mut oracle = Simulator::new_reference(module.clone()).unwrap();
    let mut lanes = LaneSim::new(module.clone()).unwrap();
    assert_eq!(vm.eval_mode(), EvalMode::Bytecode);
    assert_eq!(oracle.eval_mode(), EvalMode::FullOracle);
    for p in &module.outputs {
        vm.watch_output(&p.name);
        oracle.watch_output(&p.name);
        lanes.watch_output(&p.name);
    }
    // Scalar checkers for the sampled lanes (lane 0 is covered by `vm`).
    let mut checkers: Vec<(usize, Simulator, SplitMix64)> = check_lanes
        .iter()
        .filter(|&&l| l != 0)
        .map(|&l| {
            let mut sim = Simulator::new(module.clone()).unwrap();
            for p in &module.outputs {
                sim.watch_output(&p.name);
            }
            (l, sim, SplitMix64::new(lane_seed(seed, l)))
        })
        .collect();
    let mut rng_v = SplitMix64::new(seed);
    let mut rng_b = SplitMix64::new(seed);
    let mut lane_rngs: Vec<SplitMix64> = (0..LANES)
        .map(|l| SplitMix64::new(lane_seed(seed, l)))
        .collect();
    for cycle in 0..cycles {
        for p in &module.inputs {
            vm.poke(&p.name, random_bv(&mut rng_v, p.width));
            oracle.poke(&p.name, random_bv(&mut rng_b, p.width));
            for (l, rng) in lane_rngs.iter_mut().enumerate() {
                lanes.poke_lane(&p.name, l, random_bv(rng, p.width));
            }
            for (_, sim, rng) in checkers.iter_mut() {
                sim.poke(&p.name, random_bv(rng, p.width));
            }
        }
        vm.step();
        oracle.step();
        lanes.step();
        for (_, sim, _) in checkers.iter_mut() {
            sim.step();
        }
        for p in &module.outputs {
            let f = vm.output(&p.name);
            assert_eq!(
                f,
                oracle.output(&p.name),
                "{name}: output {:?} diverged at cycle {cycle} (seed {seed:#x})",
                p.name
            );
            if check_lanes.contains(&0) {
                assert_eq!(
                    lanes.output_lane(&p.name, 0),
                    f,
                    "{name}: lane 0 output {:?} diverged at cycle {cycle} (seed {seed:#x})",
                    p.name
                );
            }
            for (l, sim, _) in checkers.iter_mut() {
                assert_eq!(
                    lanes.output_lane(&p.name, *l),
                    sim.output(&p.name),
                    "{name}: lane {l} output {:?} diverged at cycle {cycle} (seed {seed:#x})",
                    p.name
                );
            }
        }
    }
    assert_eq!(vm.trace(), oracle.trace(), "{name}: traces diverged");
    assert_eq!(
        trace_to_vcd(&vm, "tb"),
        trace_to_vcd(&oracle, "tb"),
        "{name}: VCD dumps diverged"
    );
    if check_lanes.contains(&0) {
        assert_eq!(
            &lanes.trace_lane(0)[..],
            vm.trace(),
            "{name}: lane 0 trace diverged"
        );
    }
    for (l, sim, _) in &checkers {
        assert_eq!(
            &lanes.trace_lane(*l)[..],
            sim.trace(),
            "{name}: lane {l} trace diverged"
        );
    }
}

const ALL_LANES: [usize; 64] = {
    let mut l = [0usize; 64];
    let mut i = 0;
    while i < 64 {
        l[i] = i;
        i += 1;
    }
    l
};

/// Spread sample for the expensive wide-op modules: both ends, the limb
/// boundary neighborhood, and a mid lane.
const SAMPLED_LANES: [usize; 8] = [0, 1, 7, 31, 32, 33, 62, 63];

/// The classic 2-engine + all-lane check used by the design tests.
fn assert_engines_agree(module: Module, seed: u64, cycles: u32) {
    assert_engines_agree_lanes(module, seed, cycles, &ALL_LANES);
}

/// A module using every `BinOp`/`UnOp` plus mux/slice/concat/zext/sext, a
/// register, and a memory — all at operand width `w`, so `w > 64`
/// exercises the multi-limb kernels and the oracle fallback for the wide
/// hard ops.
fn op_soup(w: u32) -> Module {
    let mut b = ModuleBuilder::new("op_soup");
    let a = b.input("a", w);
    let x = b.input("x", w);
    let amt = b.input("amt", 8);
    let sel = b.input("sel", 1);

    let bin: [(&str, BinCtor); 10] = [
        ("add", ModuleBuilder::add),
        ("sub", ModuleBuilder::sub),
        ("mul", ModuleBuilder::mul),
        ("udiv", ModuleBuilder::udiv),
        ("urem", ModuleBuilder::urem),
        ("sdiv", ModuleBuilder::sdiv),
        ("srem", ModuleBuilder::srem),
        ("and", ModuleBuilder::and),
        ("or", ModuleBuilder::or),
        ("xor", ModuleBuilder::xor),
    ];
    for (name, f) in bin {
        let n = f(&mut b, a, x);
        b.output(name, n);
    }
    let cmp: [(&str, BinCtor); 6] = [
        ("eq", ModuleBuilder::eq),
        ("ne", ModuleBuilder::ne),
        ("ult", ModuleBuilder::ult),
        ("ule", ModuleBuilder::ule),
        ("slt", ModuleBuilder::slt),
        ("sle", ModuleBuilder::sle),
    ];
    for (name, f) in cmp {
        let n = f(&mut b, a, x);
        b.output(name, n);
    }
    let sh: [(&str, BinCtor); 3] = [
        ("shl", ModuleBuilder::shl),
        ("lshr", ModuleBuilder::lshr),
        ("ashr", ModuleBuilder::ashr),
    ];
    for (name, f) in sh {
        let n = f(&mut b, a, amt);
        b.output(name, n);
    }
    let un: [(&str, UnCtor); 5] = [
        ("not", ModuleBuilder::not),
        ("neg", ModuleBuilder::neg),
        ("red_and", ModuleBuilder::red_and),
        ("red_or", ModuleBuilder::red_or),
        ("red_xor", ModuleBuilder::red_xor),
    ];
    for (name, f) in un {
        let n = f(&mut b, a);
        b.output(name, n);
    }
    let m = b.mux(sel, a, x);
    b.output("mux", m);
    let s = b.slice(a, w - 1, w / 2);
    b.output("slice", s);
    let c = b.concat(a, x);
    b.output("concat", c);
    let z = b.zext(a, w + 13);
    b.output("zext", z);
    let e = b.sext(a, w + 13);
    b.output("sext", e);

    // A wide accumulator register and a wide memory exercise the state
    // paths of the commit phase at the same widths.
    let acc = b.reg("acc", w, Bv::zero(w));
    let q = b.reg_q(acc);
    let nx = b.xor(q, a);
    b.connect_reg(acc, nx);
    b.output("acc", q);
    let mem = b.mem("m", 4, w, 16);
    let waddr = b.slice(amt, 3, 0);
    b.mem_write(mem, sel, waddr, x);
    let raddr = b.slice(amt, 7, 4);
    let rd = b.mem_read(mem, raddr);
    b.output("rdata", rd);
    b.finish().unwrap()
}

#[test]
fn engines_agree_on_alu() {
    for seed in [1u64, 0xDEAD_BEEF] {
        assert_engines_agree(alu::rtl(8, 8), seed, 64);
        assert_engines_agree(alu::rtl(8, 32), seed, 64);
    }
}

#[test]
fn engines_agree_on_fir() {
    for seed in [2u64, 0xFEED_F00D] {
        assert_engines_agree(fir::rtl(), seed, 128);
    }
}

#[test]
fn engines_agree_on_conv() {
    for seed in [3u64, 0xC0FF_EE00] {
        assert_engines_agree(conv::rtl(), seed, 128);
    }
}

#[test]
fn engines_agree_on_memsys() {
    let table: [u8; 16] = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    for seed in [4u64, 0xBADC_0DE5] {
        assert_engines_agree(memsys::rtl(&table), seed, 128);
    }
}

#[test]
fn engines_agree_on_op_soup_single_limb() {
    for &w in &[1u32, 8, 33, 63, 64] {
        assert_engines_agree_lanes(op_soup(w), 0x5EED ^ w as u64, 48, &SAMPLED_LANES);
    }
}

#[test]
fn engines_agree_on_op_soup_multi_limb() {
    for &w in &[65u32, 100, 128, 200] {
        assert_engines_agree_lanes(op_soup(w), 0x1DEA ^ w as u64, 48, &SAMPLED_LANES);
    }
}

/// Shift kernels at the limb-boundary amounts (63/64/65), at and above
/// the data width, through every engine — pinned against the `Bv` oracle
/// directly, so a regression in any layer (single-limb fast path,
/// multi-limb kernel, lane fallback) names the diverging case.
#[test]
fn shift_kernels_agree_at_limb_boundaries() {
    for &w in &[1u32, 8, 63, 64, 65, 127, 128, 200] {
        let mut b = ModuleBuilder::new("shifter");
        let a = b.input("a", w);
        let amt = b.input("amt", 16);
        let shl = b.shl(a, amt);
        let lshr = b.lshr(a, amt);
        let ashr = b.ashr(a, amt);
        b.output("shl", shl);
        b.output("lshr", lshr);
        b.output("ashr", ashr);
        let module = b.finish().unwrap();

        let mut rng = SplitMix64::new(0x5817 ^ w as u64);
        let mut values = vec![
            Bv::zero(w),
            Bv::ones(w),
            Bv::from_u64(w, 1),
            random_bv(&mut rng, w),
        ];
        // Sign bit alone: the adversarial AShr operand.
        let mut sign = Bv::zero(w);
        sign = sign.not().shl(w - 1);
        values.push(sign);
        let amounts: Vec<u64> = [0u64, 1, 62, 63, 64, 65, 127, 128]
            .into_iter()
            .chain([w as u64 - 1, w as u64, w as u64 + 1, 1000])
            .collect();

        let mut vm = Simulator::new(module.clone()).unwrap();
        let mut oracle = Simulator::new_reference(module.clone()).unwrap();
        let mut lanes = LaneSim::new(module.clone()).unwrap();
        // Lane-chunk the (value, amount) grid; every case also runs the
        // scalar engines and the direct oracle.
        let cases: Vec<(Bv, u64)> = values
            .iter()
            .flat_map(|v| amounts.iter().map(move |&m| (v.clone(), m)))
            .collect();
        for chunk in cases.chunks(LANES) {
            for (lane, (v, m)) in chunk.iter().enumerate() {
                lanes.poke_lane("a", lane, v.clone());
                lanes.poke_lane("amt", lane, Bv::from_u64(16, *m));
            }
            for (lane, (v, m)) in chunk.iter().enumerate() {
                let amt_bv = Bv::from_u64(16, *m);
                vm.poke("a", v.clone());
                vm.poke("amt", amt_bv.clone());
                oracle.poke("a", v.clone());
                oracle.poke("amt", amt_bv.clone());
                for (port, op) in [
                    ("shl", dfv_rtl::ir::BinOp::Shl),
                    ("lshr", dfv_rtl::ir::BinOp::LShr),
                    ("ashr", dfv_rtl::ir::BinOp::AShr),
                ] {
                    let expect = eval_bin(op, v, &amt_bv);
                    assert_eq!(vm.output(port), expect, "vm {port} w={w} amt={m} a={v:?}");
                    assert_eq!(
                        oracle.output(port),
                        expect,
                        "oracle {port} w={w} amt={m} a={v:?}"
                    );
                    assert_eq!(
                        lanes.output_lane(port, lane),
                        expect,
                        "lane {port} w={w} amt={m} a={v:?}"
                    );
                }
            }
        }
    }
}

/// A module whose ports straddle a limb boundary: a 100-bit data input
/// and output, a narrow shift input, and a 100-bit register for
/// `set_reg_lane` to override.
fn wide_port_module() -> (Module, NodeId) {
    let mut b = ModuleBuilder::new("wide_ports");
    let a = b.input("a", 100);
    let k = b.input("k", 3);
    let acc = b.reg("acc", 100, Bv::zero(100));
    let q = b.reg_q(acc);
    let sum = b.add(q, a);
    let amt = b.zext(k, 100);
    let shifted = b.shl(sum, amt);
    let next = b.xor(shifted, a);
    b.connect_reg(acc, next);
    let parity = b.red_xor(a);
    b.output("acc", q);
    b.output("sum", sum);
    b.output("parity", parity);
    (b.finish().unwrap(), sum)
}

/// The lane engine's port planes against 64 scalar simulators: a seeded
/// interleaving of `poke_lane`, `poke_plane` (with junk above the port
/// width), `poke_splat`, `set_reg_lane`, `reset`, `step` and every read
/// (`output_lane`, `output_plane`, `peek_lane`) must keep each lane
/// bit-identical to its scalar twin. Re-poking held values through any
/// of the three poke calls must leave `node_evals` unchanged.
#[test]
fn lane_port_planes_match_scalar_under_interleaved_calls() {
    let (module, sum) = wide_port_module();
    let mut lanes = LaneSim::new(module.clone()).unwrap();
    let mut scalars: Vec<Simulator> = (0..LANES)
        .map(|_| Simulator::new(module.clone()).unwrap())
        .collect();
    let zeros = || -> Vec<Vec<Bv>> {
        module
            .inputs
            .iter()
            .map(|p| vec![Bv::zero(p.width); LANES])
            .collect()
    };
    // What every lane of every input holds, to re-poke it.
    let mut held = zeros();
    let mut rng = SplitMix64::new(0x91A7E5);
    for round in 0..600 {
        let input = rng.below(module.inputs.len() as u64) as usize;
        let port = module.inputs[input].clone();
        let lane = rng.below(LANES as u64) as usize;
        match rng.below(9) {
            0 | 1 => {
                let v = random_bv(&mut rng, port.width);
                lanes.poke_lane(&port.name, lane, v.clone());
                scalars[lane].poke(&port.name, v.clone());
                held[input][lane] = v;
            }
            2 => {
                let n = port.width.div_ceil(64) as usize;
                let mut plane = vec![0u64; LANES * n];
                for (l, sim) in scalars.iter_mut().enumerate() {
                    let v = random_bv(&mut rng, port.width);
                    plane[l * n..][..n].copy_from_slice(v.limbs());
                    // Bits above the width are ignored.
                    if port.width % 64 != 0 {
                        plane[l * n + n - 1] |= u64::MAX << (port.width % 64);
                    }
                    sim.poke(&port.name, v.clone());
                    held[input][l] = v;
                }
                lanes.poke_plane(input, &plane);
            }
            3 => {
                let v = random_bv(&mut rng, port.width);
                lanes.poke_splat(&port.name, v.clone());
                for (sim, h) in scalars.iter_mut().zip(&mut held[input]) {
                    sim.poke(&port.name, v.clone());
                    *h = v.clone();
                }
            }
            4 => {
                let v = random_bv(&mut rng, 100);
                lanes.set_reg_lane("acc", lane, v.clone());
                scalars[lane].set_reg("acc", v);
            }
            5 if round % 7 == 0 => {
                lanes.reset();
                for sim in &mut scalars {
                    sim.reset();
                }
                held = zeros();
            }
            5 | 6 => {
                lanes.step();
                for sim in &mut scalars {
                    sim.step();
                }
            }
            7 => {
                let out = rng.below(module.outputs.len() as u64) as usize;
                let name = &module.outputs[out].name;
                assert_eq!(
                    lanes.output_lane(name, lane),
                    scalars[lane].output(name),
                    "round {round}: lane {lane} output {name}"
                );
                assert_eq!(
                    lanes.peek_lane(sum, lane),
                    scalars[lane].peek(sum),
                    "round {round}: lane {lane} peek"
                );
            }
            _ => {
                lanes.eval();
                let settled = lanes.stats().node_evals;
                let n = port.width.div_ceil(64) as usize;
                let mut plane = vec![0u64; LANES * n];
                for (l, v) in held[input].iter().enumerate() {
                    plane[l * n..][..n].copy_from_slice(v.limbs());
                    lanes.poke_lane(&port.name, l, v.clone());
                }
                lanes.poke_plane(input, &plane);
                if held[input].iter().all(|v| *v == held[input][0]) {
                    lanes.poke_splat(&port.name, held[input][0].clone());
                }
                lanes.eval();
                assert_eq!(
                    lanes.stats().node_evals,
                    settled,
                    "round {round}: re-poking held values re-evaluated"
                );
                for (o, p) in module.outputs.iter().enumerate() {
                    let n = p.width.div_ceil(64) as usize;
                    let plane = lanes.output_plane(o).to_vec();
                    for (l, sim) in scalars.iter_mut().enumerate() {
                        assert_eq!(
                            Bv::from_limbs(p.width, &plane[l * n..][..n]),
                            sim.output(&p.name),
                            "round {round}: lane {l} plane of {}",
                            p.name
                        );
                    }
                }
            }
        }
    }
}

/// The batched engine's reason to exist: 64 scenarios on the sparse
/// memsys workload cost one lane run — well under 1/8th (measured
/// ~1/64th) of what 64 scalar VM runs dispatch.
#[test]
fn lane_batching_cuts_node_evals_on_sparse_workload() {
    let table: [u8; 16] = [0; 16];
    let m = memsys::rtl(&table);

    // 64 scalar runs, one per scenario.
    let mut scalar_evals = 0u64;
    for lane in 0..LANES {
        let mut sim = Simulator::new(m.clone()).unwrap();
        sim.step_with(&[
            ("req_valid", Bv::from_bool(true)),
            ("tag", Bv::from_u64(memsys::TAG_W, lane as u64 % 16)),
            ("addr", Bv::from_u64(memsys::ADDR_W, lane as u64 % 8)),
        ]);
        sim.poke("req_valid", Bv::from_bool(false));
        for _ in 0..100 {
            sim.step();
        }
        sim.output("resp0_valid");
        scalar_evals += sim.stats().node_evals;
    }

    // One batched run covering the same 64 scenarios.
    let mut lanes = LaneSim::new(m).unwrap();
    for lane in 0..LANES {
        lanes.poke_lane("req_valid", lane, Bv::from_bool(true));
        lanes.poke_lane("tag", lane, Bv::from_u64(memsys::TAG_W, lane as u64 % 16));
        lanes.poke_lane("addr", lane, Bv::from_u64(memsys::ADDR_W, lane as u64 % 8));
    }
    lanes.step();
    lanes.poke_splat("req_valid", Bv::from_bool(false));
    for _ in 0..100 {
        lanes.step();
    }
    lanes.output_lane("resp0_valid", 0);
    let batched = lanes.stats().node_evals;

    assert!(
        batched * 8 <= scalar_evals,
        "batched run dispatched {batched} (incl. fallbacks) vs {scalar_evals} scalar node evals \
         — expected at least 8x savings"
    );
}

/// The engine's reason to exist: on a sparse workload (one request, then a
/// long idle stretch) the VM's dirty-cone scheduling executes strictly
/// fewer instructions than the full-reevaluation reference evaluates
/// nodes under identical stimulus.
#[test]
fn dirty_cone_beats_full_reeval_on_sparse_workload() {
    let table: [u8; 16] = [0; 16];
    let m = memsys::rtl(&table);
    let mut vm = Simulator::new(m.clone()).unwrap();
    let mut oracle = Simulator::new_reference(m).unwrap();
    let drive = |sim: &mut Simulator| {
        sim.step_with(&[
            ("req_valid", Bv::from_bool(true)),
            ("tag", Bv::from_u64(memsys::TAG_W, 7)),
            ("addr", Bv::from_u64(memsys::ADDR_W, 3)),
        ]);
        sim.poke("req_valid", Bv::from_bool(false));
        for _ in 0..200 {
            sim.step();
        }
        sim.output("resp0_valid")
    };
    let a = drive(&mut vm);
    let b = drive(&mut oracle);
    assert_eq!(a, b);
    let (f, o) = (vm.stats(), oracle.stats());
    assert_eq!(f.steps, o.steps);
    assert!(
        f.node_evals < o.node_evals,
        "vm executed {} instructions, reference {} node evals — expected strictly less",
        f.node_evals,
        o.node_evals
    );
    // The idle tail should cost almost nothing: well under one full pass
    // per cycle on average.
    assert!(f.node_evals * 2 < o.node_evals);
}
