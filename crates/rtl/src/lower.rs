//! Lowering of a [`SimSchedule`] into `dfv-vm` bytecode — the
//! [`crate::EvalMode::Bytecode`] engine behind [`crate::Simulator::new`].
//!
//! Each combinational node becomes (at most) one [`Instr`] with every
//! operand resolved to an absolute limb-arena offset, emitted in
//! `(level, id)` order so each topological level is one contiguous
//! straight-line block. Three families of nodes emit *no* instruction:
//!
//! * `Input` — [`crate::Simulator::poke`] writes the port value straight
//!   into the input nodes' slots and marks the consuming instructions
//!   dirty ([`VmEngine::input_succ`]);
//! * `Const` — written once at reset, never changes;
//! * fused producers — a single-consumer compare feeding a mux select, an
//!   add feeding a slice, or a constant multiply/shift feeding an add is
//!   absorbed into the consumer ([`Instr::CmpMux1`] / [`Instr::AddSlice1`]
//!   / [`Instr::MulCAdd1`] / [`Instr::ShlCAdd1`]). The fused instruction
//!   still writes the producer's slot, so peeks, traces, register D
//!   sampling, and output reads observe exactly the values the scalar
//!   engine produces.
//!
//! Constant operands of single-limb binary ops fold into const-operand
//! instructions (`AddC1`, `EqC1`, constant-amount shifts, ...);
//! commutative ops swap a constant left operand to the right.
//!
//! Dirty-cone semantics carry over at instruction granularity: the
//! successor map ([`VmEngine::succs`]) lists, for each instruction, the
//! instructions reading any slot it writes, all at strictly higher
//! levels — so one pass per level, in level order, visits each dirty
//! instruction exactly once, exactly like the kernel engine's node walk.
//! Programs of at most [`DENSE_MAX`] instructions skip all of that and
//! run *dense*: every pass executes the whole program straight-line, and
//! pokes and commits do no marking at all — for a small module the
//! bookkeeping costs more than the instructions it would skip.
//!
//! The clock edge is compiled too: [`RegPlan`] / [`MemPlan`] resolve
//! every register's enable/D/state offsets and every memory port's
//! address/data offsets at lowering time, so [`crate::Simulator::step`]
//! under this engine commits state through flat offset tables instead of
//! walking the module.

use dfv_vm::{Cmp, Instr, NBinOp, NUnOp, Program};

use crate::ir::{BinOp, Module, Node, NodeId, UnOp};
use crate::schedule::SimSchedule;

/// Programs at or below this many instructions run *dense*: every pass
/// executes the whole program straight-line and no dirty tracking happens
/// at all. For a small module the per-instruction execution cost is a few
/// nanoseconds, so change detection, successor propagation, and bucket
/// maintenance cost more than the instructions they would skip.
const DENSE_MAX: usize = 64;

/// Sentinel offset for "no enable" in a [`RegPlan`].
pub(crate) const NO_EN: u32 = u32::MAX;

/// One register's compiled clock-edge commit: sample the D node slot into
/// the state slot when the (optional) enable bit is set. All offsets are
/// absolute limb-arena offsets resolved at lowering time.
#[derive(Debug, Clone)]
pub(crate) struct RegPlan {
    /// Enable node offset ([`NO_EN`] = always load). Enables are 1 bit.
    pub en_off: u32,
    /// D (next-value) node offset.
    pub d_off: u32,
    /// Register state slot offset.
    pub state_off: u32,
    /// Limbs per value.
    pub limbs: u32,
    /// Register index (names the [`VmEngine::reg_succ`] list to mark).
    pub reg: u32,
}

/// One memory read port's compiled commit: sample the addressed word into
/// the read-register state slot (read-first: before this cycle's writes).
#[derive(Debug, Clone)]
pub(crate) struct MemReadPlan {
    /// Address node offset (addresses are single-limb).
    pub addr_off: u32,
    /// Read-register state slot offset.
    pub state_off: u32,
    /// Port index (names the [`VmEngine::mem_rd_succ`] list to mark).
    pub port: u32,
}

/// One memory write port's compiled commit.
#[derive(Debug, Clone)]
pub(crate) struct MemWritePlan {
    /// Write-enable node offset (1 bit).
    pub en_off: u32,
    /// Address node offset (single-limb).
    pub addr_off: u32,
    /// Write-data node offset.
    pub d_off: u32,
}

/// One memory's compiled commit plan: read ports sample before write
/// ports land (read-first semantics, exactly as the generic commit loop).
#[derive(Debug, Clone)]
pub(crate) struct MemPlan {
    /// Memory index (names the [`VmEngine::mem_rd_succ`] lists).
    pub mem: u32,
    /// Base offset of this memory in the memory arena.
    pub base: usize,
    /// Limbs per word.
    pub stride: usize,
    /// Words (addresses wrap modulo this, as in the generic loop).
    pub depth: usize,
    pub reads: Vec<MemReadPlan>,
    pub writes: Vec<MemWritePlan>,
}

/// The compiled bytecode engine for one module: the validated program
/// plus the dirty-tracking side tables and the clock-edge commit plan.
#[derive(Debug, Clone)]
pub(crate) struct VmEngine {
    prog: Program,
    /// Whether the program is small enough to run dense (whole-program
    /// straight-line passes, no dirty tracking). See [`DENSE_MAX`].
    dense: bool,
    /// Clock-edge commit plan, one entry per register in index order.
    reg_plans: Vec<RegPlan>,
    /// Clock-edge commit plan, one entry per memory in index order.
    mem_plans: Vec<MemPlan>,
    /// Topological level of each instruction (its owning node's level;
    /// for a fused pair, the consumer's).
    instr_level: Vec<u32>,
    /// Per level: the `[lo, hi)` instruction range (levels are contiguous
    /// because emission is level-sorted). `(0, 0)` for instruction-free
    /// levels.
    level_ranges: Vec<(u32, u32)>,
    /// CSR successor map over instruction ids.
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    /// Per input port: instructions to mark dirty when the port changes.
    input_succ: Vec<Vec<u32>>,
    /// Per register: the `RegQ` copy instructions reading it.
    reg_succ: Vec<Vec<u32>>,
    /// Per memory, per read port: the read-data copy instructions.
    mem_rd_succ: Vec<Vec<Vec<u32>>>,
}

/// Not lowered to an instruction (input, constant, or fused-away).
const NO_INSTR: u32 = u32::MAX;

impl VmEngine {
    /// Lowers a checked flat module and its schedule into bytecode.
    ///
    /// # Panics
    ///
    /// Panics if the lowering emits invalid bytecode — an internal bug by
    /// construction, since every offset comes from the schedule's own
    /// arena layout.
    pub(crate) fn build(module: &Module, sched: &SimSchedule) -> Self {
        let n = module.nodes.len();
        let one_limb = |id: &NodeId| sched.node_slot(id.index()).limbs == 1;

        // Fusion plan: absorb a producer P into its sole consumer C.
        // `fused[p]` suppresses P's own instruction; `fuse_src[c]` tells
        // C's emission which producer it carries.
        let mut fused = vec![false; n];
        let mut fuse_src: Vec<Option<u32>> = vec![None; n];
        for (i, node) in module.nodes.iter().enumerate() {
            let (p, want_add) = match node {
                Node::Mux { sel, .. } if one_limb(&NodeId(i as u32)) => (sel.index(), false),
                Node::Slice { src, .. } if one_limb(&NodeId(i as u32)) && one_limb(src) => {
                    (src.index(), true)
                }
                _ => continue,
            };
            if fused[p] {
                continue;
            }
            let Node::Bin(op, x, y) = &module.nodes[p] else {
                continue;
            };
            let shape_ok = if want_add {
                *op == BinOp::Add
            } else {
                cmp_of(*op).is_some()
            };
            if shape_ok && one_limb(x) && one_limb(y) && sole_consumer(sched, p as u32, i as u32) {
                fused[p] = true;
                fuse_src[i] = Some(p as u32);
            }
        }

        // Second fusion pass: a constant multiply or constant left shift
        // feeding one operand of a sole-consumer single-limb add becomes a
        // fused multiply-/shift-accumulate ([`Instr::MulCAdd1`] /
        // [`Instr::ShlCAdd1`]) — the FIR tap and convolution inner-loop
        // idiom `acc += x * coeff` in one dispatch.
        for (i, node) in module.nodes.iter().enumerate() {
            if fused[i] || fuse_src[i].is_some() {
                continue;
            }
            let Node::Bin(BinOp::Add, u, v) = node else {
                continue;
            };
            if u.index() == v.index()
                || !one_limb(&NodeId(i as u32))
                || const1_of(module, u).is_some()
                || const1_of(module, v).is_some()
            {
                continue;
            }
            let ow = sched.node_slot(i).width;
            for cand in [u, v] {
                let p = cand.index();
                if fused[p] || sched.node_slot(p).width != ow {
                    continue;
                }
                let shape_ok = match &module.nodes[p] {
                    Node::Bin(BinOp::Mul, x, y) => {
                        one_limb(x)
                            && one_limb(y)
                            && (const1_of(module, x).is_some() != const1_of(module, y).is_some())
                    }
                    Node::Bin(BinOp::Shl, x, y) => {
                        one_limb(x)
                            && const1_of(module, x).is_none()
                            && const1_of(module, y).is_some_and(|sh| sh < ow as u64)
                    }
                    _ => false,
                };
                if shape_ok && sole_consumer(sched, p as u32, i as u32) {
                    fused[p] = true;
                    fuse_src[i] = Some(p as u32);
                    break;
                }
            }
        }

        // Emission in (level, id) order — levels come out contiguous.
        let mut instrs: Vec<Instr> = Vec::new();
        let mut instr_level: Vec<u32> = Vec::new();
        let mut node_instr = vec![NO_INSTR; n];
        for &nid in sched.order() {
            let i = nid as usize;
            if fused[i] {
                continue;
            }
            if matches!(module.nodes[i], Node::Input(_) | Node::Const(_)) {
                continue;
            }
            let idx = instrs.len() as u32;
            instrs.push(lower_node(module, sched, i, fuse_src[i]));
            instr_level.push(sched.level_raw(nid));
            node_instr[i] = idx;
            if let Some(p) = fuse_src[i] {
                node_instr[p as usize] = idx;
            }
        }
        let num_instrs = instrs.len();

        // Contiguous per-level ranges.
        let mut level_ranges = vec![(0u32, 0u32); sched.num_levels() as usize];
        let mut start = 0usize;
        while start < num_instrs {
            let lvl = instr_level[start] as usize;
            let mut end = start + 1;
            while end < num_instrs && instr_level[end] as usize == lvl {
                end += 1;
            }
            level_ranges[lvl] = (start as u32, end as u32);
            start = end;
        }

        // Successor map: instructions reading any slot instruction `i`
        // writes. Every fanout of an owned node is a computation node and
        // therefore has an instruction; a fused producer's only fanout is
        // its own consumer, which folds into the same instruction.
        let mut succ_sets: Vec<Vec<u32>> = vec![Vec::new(); num_instrs];
        for i in 0..n {
            let own = node_instr[i];
            if own == NO_INSTR {
                continue;
            }
            for f in sched.fanouts(i as u32) {
                let fi = node_instr[f.index()];
                debug_assert_ne!(fi, NO_INSTR, "consumer without an instruction");
                if fi != own {
                    succ_sets[own as usize].push(fi);
                }
            }
        }
        let mut succ_off = Vec::with_capacity(num_instrs + 1);
        let mut succ = Vec::new();
        succ_off.push(0u32);
        for set in &mut succ_sets {
            set.sort_unstable();
            set.dedup();
            succ.extend_from_slice(set);
            succ_off.push(succ.len() as u32);
        }

        let consumer_instrs = |nodes: &[u32]| -> Vec<u32> {
            let mut v: Vec<u32> = nodes
                .iter()
                .flat_map(|&nid| sched.fanouts(nid))
                .map(|f| node_instr[f.index()])
                .collect();
            debug_assert!(v.iter().all(|&i| i != NO_INSTR));
            v.sort_unstable();
            v.dedup();
            v
        };
        let input_succ = (0..module.inputs.len())
            .map(|idx| consumer_instrs(sched.input_nodes(idx)))
            .collect();
        // Register / memory commits dirty the RegQ / read-data copy
        // instructions themselves (they re-read the state slots).
        let owned = |nodes: &[u32]| -> Vec<u32> {
            let mut v: Vec<u32> = nodes.iter().map(|&nid| node_instr[nid as usize]).collect();
            debug_assert!(v.iter().all(|&i| i != NO_INSTR));
            v.sort_unstable();
            v
        };
        let reg_succ = (0..module.regs.len())
            .map(|r| owned(sched.reg_nodes(r)))
            .collect();
        let mem_rd_succ = module
            .mems
            .iter()
            .enumerate()
            .map(|(mi, m)| {
                (0..m.read_ports.len())
                    .map(|pi| owned(sched.mem_read_nodes(mi, pi)))
                    .collect()
            })
            .collect();

        let reg_plans = module
            .regs
            .iter()
            .enumerate()
            .map(|(i, reg)| {
                let next = reg.next.expect("checked: connected");
                let rs = sched.reg_slot(i);
                RegPlan {
                    en_off: reg
                        .en
                        .map(|en| sched.node_slot(en.index()).off)
                        .unwrap_or(NO_EN),
                    d_off: sched.node_slot(next.index()).off,
                    state_off: rs.off,
                    limbs: rs.limbs,
                    reg: i as u32,
                }
            })
            .collect();
        let mem_plans = module
            .mems
            .iter()
            .enumerate()
            .map(|(mi, m)| {
                let (base, stride) = sched.mem_layout(mi);
                MemPlan {
                    mem: mi as u32,
                    base: base as usize,
                    stride: stride as usize,
                    depth: m.depth,
                    reads: m
                        .read_ports
                        .iter()
                        .enumerate()
                        .map(|(pi, rp)| MemReadPlan {
                            addr_off: sched.node_slot(rp.addr.index()).off,
                            state_off: sched.mem_rd_slot(mi, pi).off,
                            port: pi as u32,
                        })
                        .collect(),
                    writes: m
                        .write_ports
                        .iter()
                        .map(|wp| MemWritePlan {
                            en_off: sched.node_slot(wp.en.index()).off,
                            addr_off: sched.node_slot(wp.addr.index()).off,
                            d_off: sched.node_slot(wp.data.index()).off,
                        })
                        .collect(),
                }
            })
            .collect();

        let prog = Program::new(instrs, sched.arena_len())
            .expect("schedule lowering emitted invalid bytecode");
        VmEngine {
            dense: prog.len() <= DENSE_MAX,
            prog,
            reg_plans,
            mem_plans,
            instr_level,
            level_ranges,
            succ_off,
            succ,
            input_succ,
            reg_succ,
            mem_rd_succ,
        }
    }

    pub(crate) fn prog(&self) -> &Program {
        &self.prog
    }

    /// Whether this program runs dense (whole-program passes, no dirty
    /// tracking).
    pub(crate) fn dense(&self) -> bool {
        self.dense
    }

    pub(crate) fn reg_plans(&self) -> &[RegPlan] {
        &self.reg_plans
    }

    pub(crate) fn mem_plans(&self) -> &[MemPlan] {
        &self.mem_plans
    }

    pub(crate) fn instr_level(&self, i: u32) -> u32 {
        self.instr_level[i as usize]
    }

    pub(crate) fn level_range(&self, lvl: usize) -> (u32, u32) {
        self.level_ranges[lvl]
    }

    pub(crate) fn succs(&self, i: u32) -> &[u32] {
        &self.succ[self.succ_off[i as usize] as usize..self.succ_off[i as usize + 1] as usize]
    }

    pub(crate) fn input_succ(&self, idx: usize) -> &[u32] {
        &self.input_succ[idx]
    }

    pub(crate) fn reg_succ(&self, r: usize) -> &[u32] {
        &self.reg_succ[r]
    }

    pub(crate) fn mem_rd_succ(&self, m: usize, p: usize) -> &[u32] {
        &self.mem_rd_succ[m][p]
    }
}

/// Whether node `p`'s only combinational consumers are all node `c`.
fn sole_consumer(sched: &SimSchedule, p: u32, c: u32) -> bool {
    let fo = sched.fanouts(p);
    !fo.is_empty() && fo.iter().all(|f| f.index() as u32 == c)
}

fn cmp_of(op: BinOp) -> Option<Cmp> {
    match op {
        BinOp::Eq => Some(Cmp::Eq),
        BinOp::Ne => Some(Cmp::Ne),
        BinOp::ULt => Some(Cmp::Ult),
        BinOp::ULe => Some(Cmp::Ule),
        BinOp::SLt => Some(Cmp::Slt),
        BinOp::SLe => Some(Cmp::Sle),
        _ => None,
    }
}

fn nbin_of(op: BinOp) -> NBinOp {
    match op {
        BinOp::Add => NBinOp::Add,
        BinOp::Sub => NBinOp::Sub,
        BinOp::Mul => NBinOp::Mul,
        BinOp::UDiv => NBinOp::UDiv,
        BinOp::URem => NBinOp::URem,
        BinOp::SDiv => NBinOp::SDiv,
        BinOp::SRem => NBinOp::SRem,
        BinOp::And => NBinOp::And,
        BinOp::Or => NBinOp::Or,
        BinOp::Xor => NBinOp::Xor,
        BinOp::Shl => NBinOp::Shl,
        BinOp::LShr => NBinOp::LShr,
        BinOp::AShr => NBinOp::AShr,
        BinOp::Eq => NBinOp::Eq,
        BinOp::Ne => NBinOp::Ne,
        BinOp::ULt => NBinOp::Ult,
        BinOp::ULe => NBinOp::Ule,
        BinOp::SLt => NBinOp::Slt,
        BinOp::SLe => NBinOp::Sle,
    }
}

fn nun_of(op: UnOp) -> NUnOp {
    match op {
        UnOp::Not => NUnOp::Not,
        UnOp::Neg => NUnOp::Neg,
        UnOp::RedAnd => NUnOp::RedAnd,
        UnOp::RedOr => NUnOp::RedOr,
        UnOp::RedXor => NUnOp::RedXor,
    }
}

/// The single-limb value of a `Const` node, if `id` is one.
fn const1_of(module: &Module, id: &NodeId) -> Option<u64> {
    match &module.nodes[id.index()] {
        Node::Const(c) if c.width() <= 64 => Some(c.to_u64()),
        _ => None,
    }
}

/// Lowers one non-fused computation node (with `fuse` naming the absorbed
/// producer for a fused mux/slice consumer).
fn lower_node(module: &Module, sched: &SimSchedule, i: usize, fuse: Option<u32>) -> Instr {
    let s = sched.node_slot(i);
    let (dst, ow, ol) = (s.off, s.width, s.limbs);
    let so = |id: &NodeId| sched.node_slot(id.index());
    match &module.nodes[i] {
        Node::Input(_) | Node::Const(_) | Node::InstOut(..) => {
            unreachable!("not lowered to instructions")
        }
        Node::RegQ(r) => copy_instr(dst, sched.reg_slot(r.index()).off, ol),
        Node::MemReadData(m, p) => copy_instr(dst, sched.mem_rd_slot(m.index(), *p).off, ol),
        Node::Un(op, a) => {
            let a = so(a);
            if a.limbs == 1 && ol == 1 {
                match op {
                    UnOp::Not => Instr::Not1 {
                        dst,
                        a: a.off,
                        w: a.width as u8,
                    },
                    UnOp::Neg => Instr::Neg1 {
                        dst,
                        a: a.off,
                        w: a.width as u8,
                    },
                    UnOp::RedAnd => Instr::RedAnd1 {
                        dst,
                        a: a.off,
                        w: a.width as u8,
                    },
                    UnOp::RedOr => Instr::RedOr1 { dst, a: a.off },
                    UnOp::RedXor => Instr::RedXor1 { dst, a: a.off },
                }
            } else {
                Instr::NUn {
                    op: nun_of(*op),
                    dst,
                    a: a.off,
                    aw: a.width as u16,
                    ow: ow as u16,
                }
            }
        }
        Node::Bin(op, a, b) => lower_bin(module, sched, *op, a, b, dst, ow, ol, fuse),
        Node::Mux { sel, t, f } => {
            if let Some(p) = fuse {
                let Node::Bin(op, x, y) = &module.nodes[p as usize] else {
                    unreachable!("fused mux select is a compare");
                };
                let (xs, ys) = (so(x), so(y));
                Instr::CmpMux1 {
                    kind: cmp_of(*op).expect("fusion planned on a compare"),
                    a: xs.off,
                    b: ys.off,
                    aw: xs.width as u8,
                    bw: ys.width as u8,
                    dst_c: so(sel).off,
                    t: so(t).off,
                    f: so(f).off,
                    dst,
                }
            } else if ol == 1 {
                Instr::Mux1 {
                    dst,
                    sel: so(sel).off,
                    t: so(t).off,
                    f: so(f).off,
                }
            } else {
                Instr::NMux {
                    dst,
                    sel: so(sel).off,
                    t: so(t).off,
                    f: so(f).off,
                    l: ol as u16,
                }
            }
        }
        Node::Slice { src, lo, .. } => {
            if let Some(p) = fuse {
                let Node::Bin(BinOp::Add, x, y) = &module.nodes[p as usize] else {
                    unreachable!("fused slice source is an add");
                };
                let (xs, ys) = (so(x), so(y));
                Instr::AddSlice1 {
                    a: xs.off,
                    b: ys.off,
                    aw: xs.width as u8,
                    dst_a: so(src).off,
                    sh: *lo as u8,
                    ow: ow as u8,
                    dst,
                }
            } else {
                let a = so(src);
                if a.limbs == 1 {
                    Instr::Slice1 {
                        dst,
                        a: a.off,
                        sh: *lo as u8,
                        w: ow as u8,
                    }
                } else {
                    Instr::NSlice {
                        dst,
                        a: a.off,
                        aw: a.width as u16,
                        lo: *lo as u16,
                        ow: ow as u16,
                    }
                }
            }
        }
        Node::Concat(a, b) => {
            let (a, b) = (so(a), so(b));
            if ol == 1 {
                Instr::Concat1 {
                    dst,
                    a: a.off,
                    b: b.off,
                    sh: b.width as u8,
                }
            } else {
                Instr::NConcat {
                    dst,
                    a: a.off,
                    aw: a.width as u16,
                    b: b.off,
                    bw: b.width as u16,
                    ow: ow as u16,
                }
            }
        }
        Node::Zext(a, _) => {
            let a = so(a);
            if ol == 1 {
                // A masked narrower value in a single limb IS its
                // zero-extension.
                Instr::Copy1 { dst, a: a.off }
            } else {
                Instr::NZext {
                    dst,
                    a: a.off,
                    aw: a.width as u16,
                    ow: ow as u16,
                }
            }
        }
        Node::Sext(a, _) => {
            let a = so(a);
            if a.limbs == 1 && ol == 1 {
                Instr::Sext1 {
                    dst,
                    a: a.off,
                    aw: a.width as u8,
                    ow: ow as u8,
                }
            } else {
                Instr::NSext {
                    dst,
                    a: a.off,
                    aw: a.width as u16,
                    ow: ow as u16,
                }
            }
        }
    }
}

fn copy_instr(dst: u32, a: u32, limbs: u32) -> Instr {
    if limbs == 1 {
        Instr::Copy1 { dst, a }
    } else {
        Instr::NCopy {
            dst,
            a,
            l: limbs as u16,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn lower_bin(
    module: &Module,
    sched: &SimSchedule,
    op: BinOp,
    a: &NodeId,
    b: &NodeId,
    dst: u32,
    ow: u32,
    ol: u32,
    fuse: Option<u32>,
) -> Instr {
    // A planned accumulate fusion: this add absorbs its const-multiply or
    // const-shift operand. The producer's slot (`dst_p`) is still written
    // so peeks/regs reading the intermediate term stay correct.
    if let Some(p) = fuse {
        let ps = sched.node_slot(p as usize);
        let other = if a.index() == p as usize { b } else { a };
        let b_off = sched.node_slot(other.index()).off;
        return match &module.nodes[p as usize] {
            Node::Bin(BinOp::Mul, x, y) => {
                let (src, imm) = match const1_of(module, x) {
                    Some(c) => (y, c),
                    None => (
                        x,
                        const1_of(module, y).expect("fusion planned on a const multiply"),
                    ),
                };
                Instr::MulCAdd1 {
                    a: sched.node_slot(src.index()).off,
                    imm,
                    dst_p: ps.off,
                    b: b_off,
                    dst,
                    w: ow as u8,
                }
            }
            Node::Bin(BinOp::Shl, x, y) => Instr::ShlCAdd1 {
                a: sched.node_slot(x.index()).off,
                sh: const1_of(module, y).expect("fusion planned on a const shift") as u8,
                dst_p: ps.off,
                b: b_off,
                dst,
                w: ow as u8,
            },
            _ => unreachable!("fused add operand is a const multiply or shift"),
        };
    }
    let (sa, sb) = (sched.node_slot(a.index()), sched.node_slot(b.index()));
    if sa.limbs != 1 || sb.limbs != 1 || ol != 1 {
        return Instr::NBin {
            op: nbin_of(op),
            dst,
            a: sa.off,
            b: sb.off,
            aw: sa.width as u16,
            bw: sb.width as u16,
            ow: ow as u16,
        };
    }
    let (aw, bw) = (sa.width as u8, sb.width as u8);
    let ca = const1_of(module, a);
    let cb = const1_of(module, b);
    // Constant right operand (the common shape after expression building).
    if let Some(imm) = cb {
        if let Some(ins) = const_rhs(op, dst, sa.off, imm, aw) {
            return ins;
        }
    }
    // Constant left operand: swap if commutative, or use the reversed
    // subtract form.
    if let (Some(imm), None) = (ca, cb) {
        match op {
            BinOp::Add
            | BinOp::Mul
            | BinOp::And
            | BinOp::Or
            | BinOp::Xor
            | BinOp::Eq
            | BinOp::Ne => {
                if let Some(ins) = const_rhs(op, dst, sb.off, imm, bw) {
                    return ins;
                }
            }
            BinOp::Sub => {
                return Instr::RSubC1 {
                    dst,
                    a: sb.off,
                    imm,
                    w: aw,
                }
            }
            _ => {}
        }
    }
    match op {
        BinOp::Add => Instr::Add1 {
            dst,
            a: sa.off,
            b: sb.off,
            w: aw,
        },
        BinOp::Sub => Instr::Sub1 {
            dst,
            a: sa.off,
            b: sb.off,
            w: aw,
        },
        BinOp::Mul => Instr::Mul1 {
            dst,
            a: sa.off,
            b: sb.off,
            w: aw,
        },
        BinOp::UDiv => Instr::UDiv1 {
            dst,
            a: sa.off,
            b: sb.off,
            w: aw,
        },
        BinOp::URem => Instr::URem1 {
            dst,
            a: sa.off,
            b: sb.off,
        },
        BinOp::SDiv => Instr::SDiv1 {
            dst,
            a: sa.off,
            b: sb.off,
            aw,
            bw,
        },
        BinOp::SRem => Instr::SRem1 {
            dst,
            a: sa.off,
            b: sb.off,
            aw,
            bw,
        },
        BinOp::And => Instr::And1 {
            dst,
            a: sa.off,
            b: sb.off,
        },
        BinOp::Or => Instr::Or1 {
            dst,
            a: sa.off,
            b: sb.off,
        },
        BinOp::Xor => Instr::Xor1 {
            dst,
            a: sa.off,
            b: sb.off,
        },
        BinOp::Shl => Instr::Shl1 {
            dst,
            a: sa.off,
            b: sb.off,
            w: aw,
        },
        BinOp::LShr => Instr::LShr1 {
            dst,
            a: sa.off,
            b: sb.off,
            w: aw,
        },
        BinOp::AShr => Instr::AShr1 {
            dst,
            a: sa.off,
            b: sb.off,
            w: aw,
        },
        BinOp::Eq => Instr::Eq1 {
            dst,
            a: sa.off,
            b: sb.off,
        },
        BinOp::Ne => Instr::Ne1 {
            dst,
            a: sa.off,
            b: sb.off,
        },
        BinOp::ULt => Instr::Ult1 {
            dst,
            a: sa.off,
            b: sb.off,
        },
        BinOp::ULe => Instr::Ule1 {
            dst,
            a: sa.off,
            b: sb.off,
        },
        BinOp::SLt => Instr::Slt1 {
            dst,
            a: sa.off,
            b: sb.off,
            aw,
            bw,
        },
        BinOp::SLe => Instr::Sle1 {
            dst,
            a: sa.off,
            b: sb.off,
            aw,
            bw,
        },
    }
}

/// The const-right-operand form of `a_off <op> imm`, if one exists.
fn const_rhs(op: BinOp, dst: u32, a: u32, imm: u64, w: u8) -> Option<Instr> {
    Some(match op {
        BinOp::Add => Instr::AddC1 { dst, a, imm, w },
        BinOp::Sub => Instr::SubC1 { dst, a, imm, w },
        BinOp::Mul => Instr::MulC1 { dst, a, imm, w },
        BinOp::And => Instr::AndC1 { dst, a, imm },
        BinOp::Or => Instr::OrC1 { dst, a, imm },
        BinOp::Xor => Instr::XorC1 { dst, a, imm },
        BinOp::Eq => Instr::EqC1 { dst, a, imm },
        BinOp::Ne => Instr::NeC1 { dst, a, imm },
        BinOp::Shl if imm >= w as u64 => Instr::Const1 { dst, imm: 0 },
        BinOp::Shl => Instr::ShlC1 {
            dst,
            a,
            sh: imm as u8,
            w,
        },
        BinOp::LShr if imm >= w as u64 => Instr::Const1 { dst, imm: 0 },
        BinOp::LShr => Instr::LShrC1 {
            dst,
            a,
            sh: imm as u8,
        },
        BinOp::AShr => Instr::AShrC1 {
            dst,
            a,
            sh: imm.min(63) as u8,
            w,
        },
        _ => return None,
    })
}
