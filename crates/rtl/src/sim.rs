//! Cycle-accurate two-phase simulation of a flat [`Module`].
//!
//! Each cycle has two phases: combinational *evaluation* (nodes computed in
//! dependency order from inputs, register outputs, and memory read
//! registers) and the *clock edge* ([`Simulator::step`]), which commits
//! register D inputs, performs memory writes, and samples memory read
//! addresses (read-first semantics: a read port returns the pre-write word).
//!
//! # Evaluation engines
//!
//! The simulator carries two interchangeable combinational engines:
//!
//! * [`EvalMode::Bytecode`] (the default, [`Simulator::new`]) — the
//!   levelized [`SimSchedule`] lowered into flat `dfv-vm` register
//!   bytecode (see `lower.rs`). All values live in one flat limb arena
//!   at fixed offsets (constants too, written once at reset); every
//!   operand offset is pre-resolved, three producer/consumer pairs
//!   (compare→mux, constant multiply→add, constant shift→add) fuse into
//!   one instruction, and the clock edge commits through a compiled
//!   offset plan. Small programs run dense (whole-program straight-line
//!   passes, zero tracking overhead); larger ones keep dirty-cone
//!   scheduling at instruction granularity — a pass runs exactly the
//!   fanout cone of inputs and state that actually changed. Zero heap
//!   allocation per instruction.
//! * [`EvalMode::FullOracle`] ([`Simulator::new_reference`]) — the
//!   reference interpreter: every pass re-evaluates every node in id
//!   order through [`eval_bin`]/[`eval_un`] on freshly materialized
//!   [`Bv`]s. Slow but maximally simple; the differential test suites
//!   hold the bytecode engine bit-identical to it, and its
//!   [`SimStats::node_evals`] keeps the historical
//!   `eval_passes * node_count` invariant.

use std::collections::HashMap;

use dfv_bits::Bv;
use dfv_obs::{ObsHook, SharedRecorder, WatchedTrace};

use crate::check::check_module;
use crate::ir::{BinOp, Module, Node, NodeId, UnOp};
use crate::lower::VmEngine;
use crate::schedule::SimSchedule;
use crate::RtlError;

/// Evaluates a binary operator on concrete values — the single source of
/// truth for operator semantics, shared with the equivalence checker's
/// bit-blaster tests and counterexample replay.
pub fn eval_bin(op: BinOp, a: &Bv, b: &Bv) -> Bv {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::UDiv => a.udiv(b),
        BinOp::URem => a.urem(b),
        BinOp::SDiv => a.sdiv(b),
        BinOp::SRem => a.srem(b),
        BinOp::And => a.and(b),
        BinOp::Or => a.or(b),
        BinOp::Xor => a.xor(b),
        BinOp::Shl => a.shl_bv(b),
        BinOp::LShr => a.lshr_bv(b),
        BinOp::AShr => a.ashr_bv(b),
        BinOp::Eq => Bv::from_bool(a == b),
        BinOp::Ne => Bv::from_bool(a != b),
        BinOp::ULt => Bv::from_bool(a.ult(b)),
        BinOp::ULe => Bv::from_bool(!b.ult(a)),
        BinOp::SLt => Bv::from_bool(a.slt(b)),
        BinOp::SLe => Bv::from_bool(!b.slt(a)),
    }
}

/// Evaluates a unary operator on a concrete value. See [`eval_bin`].
pub fn eval_un(op: UnOp, a: &Bv) -> Bv {
    match op {
        UnOp::Not => a.not(),
        UnOp::Neg => a.wrapping_neg(),
        UnOp::RedAnd => Bv::from_bool(a.reduce_and()),
        UnOp::RedOr => Bv::from_bool(a.reduce_or()),
        UnOp::RedXor => Bv::from_bool(a.reduce_xor()),
    }
}

/// Which combinational evaluation engine a [`Simulator`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// The default: the schedule lowered to flat register bytecode
    /// executed by the `dfv-vm` interpreter loop: no per-node enum
    /// dispatch, three common pairs fused, and the clock edge committed
    /// through a compiled offset plan. Small programs run *dense* — every
    /// pass executes the whole program straight-line with no dirty
    /// tracking — while larger ones keep dirty-cone scheduling at
    /// instruction granularity. [`SimStats::node_evals`] counts
    /// instructions executed either way (a dense pass counts the whole
    /// program), still bounded by `eval_passes * node_count`.
    Bytecode,
    /// Reference interpreter: every pass re-evaluates every node through
    /// [`eval_bin`]/[`eval_un`]. `node_evals == eval_passes * node_count`
    /// by construction.
    FullOracle,
}

/// Cumulative work counters for one [`Simulator`].
///
/// Monotonic across the simulator's lifetime (a [`Simulator::reset`]
/// clears state and trace but not these), so deltas between snapshots
/// measure the work of a bounded stretch of simulation. `node_evals`
/// is the deterministic RTL work metric the speed-ratio experiment
/// compares against the SLM kernel's activation counts. Under
/// [`EvalMode::Bytecode`] it counts VM instructions actually executed
/// (a fused instruction covers two nodes, a dense pass counts the whole
/// program); under [`EvalMode::FullOracle`] it counts nodes, every pass
/// every node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Completed clock cycles ([`Simulator::step`] calls).
    pub steps: u64,
    /// Combinational evaluation passes actually run (dirty evals).
    pub eval_passes: u64,
    /// Total work units across all passes: VM instructions under
    /// [`EvalMode::Bytecode`], IR nodes under [`EvalMode::FullOracle`].
    pub node_evals: u64,
    /// Watched-signal value changes observed while recording the trace.
    pub value_changes: u64,
}

/// A recorded per-cycle snapshot of watched signals.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// The cycle number (0 = first cycle after reset).
    pub cycle: u64,
    /// Values in watch order.
    pub values: Vec<Bv>,
}

/// Cycle-accurate simulator for a flat [`Module`].
///
/// # Example
///
/// ```
/// use dfv_bits::Bv;
/// use dfv_rtl::{ModuleBuilder, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ModuleBuilder::new("counter");
/// let r = b.reg("count", 8, Bv::zero(8));
/// let q = b.reg_q(r);
/// let one = b.lit(8, 1);
/// let next = b.add(q, one);
/// b.connect_reg(r, next);
/// b.output("count", q);
/// let mut sim = Simulator::new(b.finish()?)?;
/// for _ in 0..5 {
///     sim.step();
/// }
/// assert_eq!(sim.output("count").to_u64(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    module: Module,
    sched: SimSchedule,
    /// The bytecode engine; `None` runs the [`EvalMode::FullOracle`]
    /// reference interpreter.
    vm: Option<VmEngine>,
    /// Flat value arena: `[reg slots][mem read reg slots][node slots]`,
    /// offsets fixed by `sched`.
    arena: Vec<u64>,
    /// Memory contents, one flat limb arena for all memories.
    mem_arena: Vec<u64>,
    /// Current input values.
    input_vals: Vec<Bv>,
    /// Per-level dirty instruction buckets (indexed by topological level).
    dirty_levels: Vec<Vec<u32>>,
    /// Whether an instruction currently sits in a dirty bucket.
    in_dirty: Vec<bool>,
    /// Force the next pass to evaluate everything (set at reset).
    full_dirty: bool,
    /// Whether anything changed since the last pass.
    dirty: bool,
    /// Whether anything was poked or injected since the last clock edge
    /// (conservative: cleared at commit, set by every mutator).
    since_commit: bool,
    /// Whether the last bytecode commit was a provable no-op: no state
    /// changed and no memory write port fired. Together with
    /// `!since_commit` this proves the next commit is also a no-op — the
    /// node region is bit-identical to what the last commit saw — so
    /// [`Simulator::step`] skips the commit walk entirely (the quiescence
    /// short-circuit; idle cycles cost two flag checks).
    vm_quiet: bool,
    /// Reusable multi-limb intermediate buffer of the VM.
    scratch: Vec<u64>,
    cycle: u64,
    watches: Vec<Watch>,
    trace: Vec<TraceStep>,
    stats: SimStats,
    obs: ObsHook,
}

#[derive(Debug, Clone)]
enum Watch {
    Output(usize),
    Reg(usize),
    Node(NodeId),
}

/// The node-region slice at `off` (arena offset) of `l` limbs, where the
/// slice was split off the arena at `base`.
fn node_limbs(nodes: &[u64], base: usize, off: u32, l: u32) -> &[u64] {
    &nodes[off as usize - base..][..l as usize]
}

/// Queues the instructions `ids` in their level buckets, each at most
/// once per pass.
fn mark(vm: &VmEngine, ids: &[u32], in_dirty: &mut [bool], buckets: &mut [Vec<u32>]) {
    for &i in ids {
        if !in_dirty[i as usize] {
            in_dirty[i as usize] = true;
            buckets[vm.instr_level(i) as usize].push(i);
        }
    }
}

impl Simulator {
    /// Creates a simulator for `module`, validating it first. The module
    /// must be flat (no instances) — flatten a hierarchy with
    /// [`crate::flatten`] first. State starts at the reset values. Uses
    /// the [`EvalMode::Bytecode`] engine.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError`] if validation fails or the module has
    /// instances.
    pub fn new(module: Module) -> Result<Self, RtlError> {
        Self::with_mode(module, EvalMode::Bytecode)
    }

    /// Creates a simulator running the [`EvalMode::FullOracle`] reference
    /// interpreter — the baseline the bytecode engine is differential-
    /// tested against.
    ///
    /// # Errors
    ///
    /// As [`Simulator::new`].
    pub fn new_reference(module: Module) -> Result<Self, RtlError> {
        Self::with_mode(module, EvalMode::FullOracle)
    }

    fn with_mode(module: Module, mode: EvalMode) -> Result<Self, RtlError> {
        check_module(&module)?;
        if !module.instances.is_empty() {
            return Err(RtlError::NotFlat {
                module: module.name.clone(),
            });
        }
        let sched = SimSchedule::build(&module);
        let vm = (mode == EvalMode::Bytecode).then(|| VmEngine::build(&module, &sched));
        let input_vals = module.inputs.iter().map(|p| Bv::zero(p.width)).collect();
        let mut sim = Simulator {
            vm,
            arena: vec![0; sched.arena_len()],
            mem_arena: vec![0; sched.mem_arena_len()],
            input_vals,
            dirty_levels: vec![Vec::new(); sched.num_levels() as usize],
            in_dirty: vec![false; module.nodes.len()],
            full_dirty: true,
            dirty: true,
            since_commit: true,
            vm_quiet: false,
            scratch: Vec::with_capacity(sched.max_limbs()),
            cycle: 0,
            watches: Vec::new(),
            trace: Vec::new(),
            stats: SimStats::default(),
            obs: ObsHook::none(),
            sched,
            module,
        };
        sim.reset();
        Ok(sim)
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The precompiled evaluation schedule (levels, fanout edges).
    pub fn schedule(&self) -> &SimSchedule {
        &self.sched
    }

    /// Which evaluation engine this simulator runs.
    pub fn eval_mode(&self) -> EvalMode {
        if self.vm.is_some() {
            EvalMode::Bytecode
        } else {
            EvalMode::FullOracle
        }
    }

    /// The current cycle count (number of completed [`Simulator::step`]s
    /// since the last reset).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Resets all registers to their init values, memories to their initial
    /// contents, inputs to zero, and the cycle counter to 0. The trace is
    /// cleared.
    pub fn reset(&mut self) {
        self.arena.fill(0);
        self.mem_arena.fill(0);
        for (i, r) in self.module.regs.iter().enumerate() {
            let s = self.sched.reg_slot(i);
            self.arena[s.off as usize..][..s.limbs as usize].copy_from_slice(r.init.limbs());
        }
        for (mi, m) in self.module.mems.iter().enumerate() {
            let (base, stride) = self.sched.mem_layout(mi);
            for (a, w) in m.init.iter().enumerate() {
                self.mem_arena[base as usize + a * stride as usize..][..stride as usize]
                    .copy_from_slice(w.limbs());
            }
        }
        // Constants are written once here; no engine ever rewrites them.
        for (i, node) in self.module.nodes.iter().enumerate() {
            if let Node::Const(c) = node {
                let s = self.sched.node_slot(i);
                self.arena[s.off as usize..][..s.limbs as usize].copy_from_slice(c.limbs());
            }
        }
        for (v, p) in self.input_vals.iter_mut().zip(&self.module.inputs) {
            *v = Bv::zero(p.width);
        }
        for b in &mut self.dirty_levels {
            b.clear();
        }
        self.in_dirty.fill(false);
        self.full_dirty = true;
        self.cycle = 0;
        self.dirty = true;
        self.since_commit = true;
        self.vm_quiet = false;
        self.trace.clear();
    }

    /// Sets an input port for the current cycle. Under
    /// [`EvalMode::Bytecode`], re-poking the value a port already holds
    /// is free: nothing is marked dirty.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or the width differs — both are
    /// harness bugs.
    pub fn poke(&mut self, port: &str, value: Bv) {
        let idx = self
            .module
            .input_index(port)
            .unwrap_or_else(|| panic!("no input port named {port:?}"));
        self.poke_at(idx, value);
    }

    /// As [`Simulator::poke`], by input-port index (the position in
    /// `self.module().inputs`) — lets a harness resolve port names once
    /// instead of scanning them every poke.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the width differs.
    pub fn poke_at(&mut self, idx: usize, value: Bv) {
        assert_eq!(
            value.width(),
            self.module.inputs[idx].width,
            "poke width mismatch on {:?}",
            self.module.inputs[idx].name
        );
        if self.vm.is_some() && self.input_vals[idx] == value {
            return;
        }
        self.input_vals[idx] = value;
        if let Some(vm) = &self.vm {
            // The VM has no input instructions: write the port value
            // straight into the input nodes' slots and (unless the
            // program runs dense) dirty the consuming instructions.
            let v = &self.input_vals[idx];
            for &n in self.sched.input_nodes(idx) {
                let s = self.sched.node_slot(n as usize);
                self.arena[s.off as usize..][..s.limbs as usize].copy_from_slice(v.limbs());
            }
            if !vm.dense() {
                mark(
                    vm,
                    vm.input_succ(idx),
                    &mut self.in_dirty,
                    &mut self.dirty_levels,
                );
            }
        }
        self.dirty = true;
        self.since_commit = true;
    }

    /// Evaluates combinational logic if inputs or state changed since the
    /// last evaluation. Called automatically by [`Simulator::step`],
    /// [`Simulator::output`], and [`Simulator::peek`].
    pub fn eval(&mut self) {
        if !self.dirty {
            return;
        }
        let evaled = match &self.vm {
            None => self.oracle_pass(),
            Some(vm) if vm.dense() || self.full_dirty => self.vm_full_pass(),
            Some(_) => self.vm_dirty_pass(),
        };
        self.dirty = false;
        self.stats.eval_passes += 1;
        self.stats.node_evals += evaled;
        self.obs.add("rtl.eval_passes", 1);
        self.obs.add("rtl.node_evals", evaled);
    }

    /// Reference pass: every node, in id order, through the `Bv` oracle.
    fn oracle_pass(&mut self) -> u64 {
        for i in 0..self.module.nodes.len() {
            let v = match &self.module.nodes[i] {
                Node::Input(idx) => self.input_vals[*idx].clone(),
                Node::Const(c) => c.clone(),
                Node::RegQ(r) => self.reg_bv(r.index()),
                Node::MemReadData(m, p) => self.mem_rd_bv(m.index(), *p),
                Node::InstOut(..) => unreachable!("module is flat"),
                Node::Un(op, a) => eval_un(*op, &self.node_bv(a.index())),
                Node::Bin(op, a, b) => {
                    eval_bin(*op, &self.node_bv(a.index()), &self.node_bv(b.index()))
                }
                Node::Mux { sel, t, f } => {
                    if self.node_bv(sel.index()).bit(0) {
                        self.node_bv(t.index())
                    } else {
                        self.node_bv(f.index())
                    }
                }
                Node::Slice { src, hi, lo } => self.node_bv(src.index()).slice(*hi, *lo),
                Node::Concat(a, b) => self.node_bv(a.index()).concat(&self.node_bv(b.index())),
                Node::Zext(a, w) => self.node_bv(a.index()).zext(*w),
                Node::Sext(a, w) => self.node_bv(a.index()).sext(*w),
            };
            let s = self.sched.node_slot(i);
            self.arena[s.off as usize..][..s.limbs as usize].copy_from_slice(v.limbs());
        }
        self.module.nodes.len() as u64
    }

    /// Bytecode full pass: the whole program as one straight-line block.
    /// Used for the first pass after a reset, and for *every* pass of a
    /// dense program (nothing marks, so there is nothing to drain); also
    /// drains stale dirty marks. Input node slots already hold the port
    /// values (poke writes them; reset zeroes them along with the ports).
    fn vm_full_pass(&mut self) -> u64 {
        let vm = self.vm.as_ref().expect("Bytecode mode has an engine");
        vm.prog().run(&mut self.arena, &mut self.scratch);
        // Dense programs never mark, so their buckets are provably empty;
        // only a tracked program's forced full pass has marks to drain.
        if !vm.dense() {
            let in_dirty = &mut self.in_dirty;
            for b in &mut self.dirty_levels {
                for &i in b.iter() {
                    in_dirty[i as usize] = false;
                }
                b.clear();
            }
        }
        self.full_dirty = false;
        vm.prog().len() as u64
    }

    /// Bytecode incremental pass: run exactly the marked instructions,
    /// level by level. Successor instructions always sit at a strictly
    /// higher level, so each instruction runs at most once per pass, and
    /// `node_evals` is the number of marked instructions (marks are a
    /// set, and each bucket runs sorted, so poke order cannot change it).
    fn vm_dirty_pass(&mut self) -> u64 {
        let vm = self.vm.as_ref().expect("Bytecode mode has an engine");
        let mut evaled = 0u64;
        for lvl in 0..self.dirty_levels.len() {
            if self.dirty_levels[lvl].is_empty() {
                continue;
            }
            let mut bucket = std::mem::take(&mut self.dirty_levels[lvl]);
            // Deterministic, cache-friendly order regardless of poke order.
            bucket.sort_unstable();
            evaled += bucket.len() as u64;
            for &i in &bucket {
                self.in_dirty[i as usize] = false;
                let changed = vm
                    .prog()
                    .exec_one(i as usize, &mut self.arena, &mut self.scratch);
                if changed {
                    mark(vm, vm.succs(i), &mut self.in_dirty, &mut self.dirty_levels);
                }
            }
            bucket.clear();
            // Hand the emptied Vec back so its capacity is reused.
            self.dirty_levels[lvl] = bucket;
        }
        evaled
    }

    fn node_bv(&self, n: usize) -> Bv {
        let s = self.sched.node_slot(n);
        Bv::from_limbs(s.width, &self.arena[s.off as usize..][..s.limbs as usize])
    }

    fn reg_bv(&self, r: usize) -> Bv {
        let s = self.sched.reg_slot(r);
        Bv::from_limbs(s.width, &self.arena[s.off as usize..][..s.limbs as usize])
    }

    fn mem_rd_bv(&self, m: usize, p: usize) -> Bv {
        let s = self.sched.mem_rd_slot(m, p);
        Bv::from_limbs(s.width, &self.arena[s.off as usize..][..s.limbs as usize])
    }

    /// Reads an output port value (after evaluating if needed).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn output(&mut self, port: &str) -> Bv {
        let idx = self
            .module
            .output_index(port)
            .unwrap_or_else(|| panic!("no output port named {port:?}"));
        self.eval();
        self.node_bv(self.module.output_drivers[idx].index())
    }

    /// Reads an output port's raw little-endian limbs without
    /// materializing a [`Bv`] (after evaluating if needed). The slot is
    /// kept masked by every engine, so the limbs equal
    /// `self.output(port).limbs()` — this is the allocation-free read
    /// path for harnesses that hash or compare output streams.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn output_limbs(&mut self, port: &str) -> &[u64] {
        let idx = self
            .module
            .output_index(port)
            .unwrap_or_else(|| panic!("no output port named {port:?}"));
        self.output_limbs_at(idx)
    }

    /// As [`Simulator::output_limbs`], by output-port index (the position
    /// in `self.module().outputs`) — lets a harness resolve port names
    /// once instead of scanning them every read.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn output_limbs_at(&mut self, idx: usize) -> &[u64] {
        self.eval();
        let s = self
            .sched
            .node_slot(self.module.output_drivers[idx].index());
        &self.arena[s.off as usize..][..s.limbs as usize]
    }

    /// Feeds every listed output port's limbs (ports in the given order,
    /// limbs little-endian) to `f` after a single evaluation — the
    /// batched form of [`Simulator::output_limbs_at`] for harnesses that
    /// hash or compare an output stream every cycle.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn for_each_output_limb(&mut self, idxs: &[usize], mut f: impl FnMut(u64)) {
        self.eval();
        for &idx in idxs {
            let s = self
                .sched
                .node_slot(self.module.output_drivers[idx].index());
            for &l in &self.arena[s.off as usize..][..s.limbs as usize] {
                f(l);
            }
        }
    }

    /// Reads an arbitrary node value (after evaluating if needed).
    pub fn peek(&mut self, node: NodeId) -> Bv {
        self.eval();
        self.node_bv(node.index())
    }

    /// Reads a register's current value by name.
    ///
    /// # Panics
    ///
    /// Panics if no register has that name.
    pub fn reg_value(&self, name: &str) -> Bv {
        let r = self
            .module
            .reg_index(name)
            .unwrap_or_else(|| panic!("no register named {name:?}"));
        self.reg_bv(r.index())
    }

    /// Overwrites a register's current value (for state injection in
    /// equivalence-checking counterexample replay).
    ///
    /// # Panics
    ///
    /// Panics if no register has that name or the width differs.
    pub fn set_reg(&mut self, name: &str, value: Bv) {
        let r = self
            .module
            .reg_index(name)
            .unwrap_or_else(|| panic!("no register named {name:?}"));
        let ri = r.index();
        assert_eq!(value.width(), self.module.regs[ri].width);
        let s = self.sched.reg_slot(ri);
        let cur = &mut self.arena[s.off as usize..][..s.limbs as usize];
        if self.vm.is_some() && cur == value.limbs() {
            return;
        }
        cur.copy_from_slice(value.limbs());
        if let Some(vm) = self.vm.as_ref().filter(|vm| !vm.dense()) {
            mark(
                vm,
                vm.reg_succ(ri),
                &mut self.in_dirty,
                &mut self.dirty_levels,
            );
        }
        self.dirty = true;
        self.since_commit = true;
    }

    /// Reads a memory word.
    ///
    /// # Panics
    ///
    /// Panics if the memory name or address is out of range.
    pub fn mem_word(&self, mem: &str, addr: usize) -> Bv {
        let mi = self
            .module
            .mems
            .iter()
            .position(|m| m.name == mem)
            .unwrap_or_else(|| panic!("no memory named {mem:?}"));
        assert!(addr < self.module.mems[mi].depth, "address out of range");
        let (base, stride) = self.sched.mem_layout(mi);
        Bv::from_limbs(
            self.module.mems[mi].data_width,
            &self.mem_arena[base as usize + addr * stride as usize..][..stride as usize],
        )
    }

    /// Advances one clock cycle: evaluates, then commits registers and
    /// memories at the rising edge. Under [`EvalMode::Bytecode`] only
    /// state that actually changed marks its reader instructions dirty,
    /// so the next pass runs just the affected cone.
    pub fn step(&mut self) {
        self.eval();
        self.record_trace();
        if self.vm.is_some() {
            // Quiescence short-circuit: if nothing was poked or injected
            // since the last commit, and that commit neither changed
            // state nor fired a memory write, the node region is
            // bit-identical to what it saw — this edge is a no-op.
            if self.since_commit || !self.vm_quiet {
                let (any, wrote) = self.vm_commit();
                self.vm_quiet = !any && !wrote;
                self.dirty |= any;
            }
        } else {
            self.oracle_commit();
            self.dirty = true;
        }
        self.since_commit = false;
        self.cycle += 1;
        self.stats.steps += 1;
        self.obs.add("rtl.steps", 1);
    }

    /// Clock-edge commit of the reference engine: a plain walk of the
    /// module's registers and memories. The next pass re-evaluates
    /// everything, so nothing is marked.
    fn oracle_commit(&mut self) {
        let base = self.sched.state_len();
        let (state, nodes) = self.arena.split_at_mut(base);
        let sched = &self.sched;
        // Registers: sample D (respecting enables). D and enable values
        // live in the node region, register values in the state region —
        // disjoint, so the commit order across registers is irrelevant.
        for (i, reg) in self.module.regs.iter().enumerate() {
            let load = reg
                .en
                .map(|en| node_limbs(nodes, base, sched.node_slot(en.index()).off, 1)[0] & 1 == 1)
                .unwrap_or(true);
            if !load {
                continue;
            }
            let next = reg.next.expect("checked: connected");
            let ns = sched.node_slot(next.index());
            let rs = sched.reg_slot(i);
            state[rs.off as usize..][..rs.limbs as usize]
                .copy_from_slice(node_limbs(nodes, base, ns.off, ns.limbs));
        }
        // Memories: sample read addresses (read-first), then write.
        for (mi, mem) in self.module.mems.iter().enumerate() {
            let (mbase, stride) = sched.mem_layout(mi);
            let (mbase, stride) = (mbase as usize, stride as usize);
            for (pi, rp) in mem.read_ports.iter().enumerate() {
                let a = node_limbs(nodes, base, sched.node_slot(rp.addr.index()).off, 1)[0];
                let addr = a as usize % mem.depth;
                let rs = sched.mem_rd_slot(mi, pi);
                state[rs.off as usize..][..rs.limbs as usize]
                    .copy_from_slice(&self.mem_arena[mbase + addr * stride..][..stride]);
            }
            for wp in &mem.write_ports {
                if node_limbs(nodes, base, sched.node_slot(wp.en.index()).off, 1)[0] & 1 == 1 {
                    let a = node_limbs(nodes, base, sched.node_slot(wp.addr.index()).off, 1)[0];
                    let addr = a as usize % mem.depth;
                    let ds = sched.node_slot(wp.data.index());
                    let d = node_limbs(nodes, base, ds.off, ds.limbs);
                    self.mem_arena[mbase + addr * stride..][..stride].copy_from_slice(d);
                }
            }
        }
    }

    /// Clock-edge commit through the bytecode engine's compiled plan:
    /// every enable/D/state/address offset was resolved at lowering time
    /// ([`crate::lower::RegPlan`] / [`crate::lower::MemPlan`]), so this
    /// walks flat tables with a single-limb fast path instead of the
    /// module. Dense programs skip dirty marking entirely (their next
    /// pass reruns everything); tracked programs mark the reader
    /// instructions of every state element that changed. Returns whether any state
    /// changed and whether any memory write port fired (the pair feeding
    /// the quiescence short-circuit in [`Simulator::step`]).
    fn vm_commit(&mut self) -> (bool, bool) {
        let vm = self.vm.as_ref().expect("vm commit needs an engine");
        let dense = vm.dense();
        let base = self.sched.state_len();
        let (state, nodes) = self.arena.split_at_mut(base);
        let in_dirty = &mut self.in_dirty;
        let buckets = &mut self.dirty_levels;
        let mut any = false;
        let mut wrote = false;
        let mut mark_all = |ids: &[u32]| mark(vm, ids, in_dirty, buckets);
        let node1 = |off: u32| nodes[off as usize - base];
        for rp in vm.reg_plans() {
            if rp.en_off != crate::lower::NO_EN && node1(rp.en_off) & 1 == 0 {
                continue;
            }
            if rp.limbs == 1 {
                let d = node1(rp.d_off);
                let cur = &mut state[rp.state_off as usize];
                if *cur != d {
                    *cur = d;
                    any = true;
                    if !dense {
                        mark_all(vm.reg_succ(rp.reg as usize));
                    }
                }
            } else {
                let d = node_limbs(nodes, base, rp.d_off, rp.limbs);
                let cur = &mut state[rp.state_off as usize..][..rp.limbs as usize];
                if cur != d {
                    cur.copy_from_slice(d);
                    any = true;
                    if !dense {
                        mark_all(vm.reg_succ(rp.reg as usize));
                    }
                }
            }
        }
        for mp in vm.mem_plans() {
            for r in &mp.reads {
                let addr = node1(r.addr_off) as usize % mp.depth;
                let word = &self.mem_arena[mp.base + addr * mp.stride..][..mp.stride];
                let cur = &mut state[r.state_off as usize..][..mp.stride];
                if cur != word {
                    cur.copy_from_slice(word);
                    any = true;
                    if !dense {
                        mark_all(vm.mem_rd_succ(mp.mem as usize, r.port as usize));
                    }
                }
            }
            for w in &mp.writes {
                if node1(w.en_off) & 1 == 1 {
                    wrote = true;
                    let addr = node1(w.addr_off) as usize % mp.depth;
                    let d = node_limbs(nodes, base, w.d_off, mp.stride as u32);
                    self.mem_arena[mp.base + addr * mp.stride..][..mp.stride].copy_from_slice(d);
                }
            }
        }
        (any, wrote)
    }

    /// Convenience: poke several ports, then step once.
    ///
    /// # Panics
    ///
    /// Panics as [`Simulator::poke`] does.
    pub fn step_with(&mut self, inputs: &[(&str, Bv)]) {
        for (name, v) in inputs {
            self.poke(name, v.clone());
        }
        self.step();
    }

    /// Watches an output port; its value is recorded at every step.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn watch_output(&mut self, port: &str) {
        let idx = self
            .module
            .output_index(port)
            .unwrap_or_else(|| panic!("no output port named {port:?}"));
        self.watches.push(Watch::Output(idx));
    }

    /// Watches a register by name.
    ///
    /// # Panics
    ///
    /// Panics if no register has that name.
    pub fn watch_reg(&mut self, name: &str) {
        let r = self
            .module
            .reg_index(name)
            .unwrap_or_else(|| panic!("no register named {name:?}"));
        self.watches.push(Watch::Reg(r.index()));
    }

    /// Watches an arbitrary node.
    pub fn watch_node(&mut self, node: NodeId) {
        self.watches.push(Watch::Node(node));
    }

    /// The names of watched signals, in watch order.
    pub fn watch_names(&self) -> Vec<String> {
        self.watches
            .iter()
            .map(|w| match w {
                Watch::Output(i) => self.module.outputs[*i].name.clone(),
                Watch::Reg(i) => self.module.regs[*i].name.clone(),
                Watch::Node(n) => self
                    .module
                    .node_names
                    .get(&n.0)
                    .cloned()
                    .unwrap_or_else(|| format!("n{}", n.0)),
            })
            .collect()
    }

    /// The declared widths of watched signals, in watch order — taken
    /// from the module's port/register/node declarations, never inferred
    /// from recorded values (so they are right even for an empty trace).
    pub fn watch_widths(&self) -> Vec<u32> {
        self.watches
            .iter()
            .map(|w| match w {
                Watch::Output(i) => self.module.outputs[*i].width,
                Watch::Reg(i) => self.module.regs[*i].width,
                Watch::Node(n) => self.module.node_widths[n.index()],
            })
            .collect()
    }

    /// The recorded trace (one entry per completed step).
    pub fn trace(&self) -> &[TraceStep] {
        &self.trace
    }

    /// Lowers the recorded trace into an observability
    /// [`WatchedTrace`] (one time unit per cycle, declared widths),
    /// ready for divergence localization or VCD rendering.
    pub fn watched_trace(&self) -> WatchedTrace {
        let mut t = WatchedTrace::new(self.watch_names(), self.watch_widths());
        for TraceStep { cycle, values } in &self.trace {
            t.push(*cycle, values.clone());
        }
        t
    }

    /// Cumulative work counters (monotonic; not cleared by reset).
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Attaches a recorder; subsequent steps report `rtl.steps`,
    /// `rtl.eval_passes`, `rtl.node_evals`, and `rtl.value_changes`.
    pub fn set_recorder(&mut self, rec: SharedRecorder) {
        self.obs.set(rec);
    }

    fn record_trace(&mut self) {
        if self.watches.is_empty() {
            return;
        }
        let values: Vec<Bv> = self
            .watches
            .iter()
            .map(|w| match w {
                Watch::Output(i) => self.node_bv(self.module.output_drivers[*i].index()),
                Watch::Reg(i) => self.reg_bv(*i),
                Watch::Node(n) => self.node_bv(n.index()),
            })
            .collect();
        let changed = match self.trace.last() {
            Some(prev) => values
                .iter()
                .zip(&prev.values)
                .filter(|(now, before)| now != before)
                .count() as u64,
            None => values.len() as u64,
        };
        self.stats.value_changes += changed;
        self.obs.add("rtl.value_changes", changed);
        self.trace.push(TraceStep {
            cycle: self.cycle,
            values,
        });
    }

    /// Runs the module as a pure function: pokes `inputs`, evaluates, and
    /// returns all outputs by name. Only meaningful for combinational
    /// modules (state is not stepped).
    ///
    /// # Panics
    ///
    /// Panics as [`Simulator::poke`] does.
    pub fn eval_comb(&mut self, inputs: &[(&str, Bv)]) -> HashMap<String, Bv> {
        for (name, v) in inputs {
            self.poke(name, v.clone());
        }
        self.eval();
        self.module
            .outputs
            .iter()
            .zip(&self.module.output_drivers)
            .map(|(p, d)| (p.name.clone(), self.node_bv(d.index())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    fn counter_with_enable() -> Module {
        let mut b = ModuleBuilder::new("ctr");
        let en = b.input("en", 1);
        let r = b.reg("count", 8, Bv::zero(8));
        let q = b.reg_q(r);
        let one = b.lit(8, 1);
        let next = b.add(q, one);
        b.connect_reg(r, next);
        b.reg_enable(r, en);
        b.output("count", q);
        b.finish().unwrap()
    }

    #[test]
    fn counter_counts_only_when_enabled() {
        let mut sim = Simulator::new(counter_with_enable()).unwrap();
        sim.poke("en", Bv::from_bool(true));
        sim.step();
        sim.step();
        assert_eq!(sim.output("count").to_u64(), 2);
        sim.poke("en", Bv::from_bool(false));
        sim.step();
        sim.step();
        assert_eq!(sim.output("count").to_u64(), 2);
        sim.poke("en", Bv::from_bool(true));
        sim.step();
        assert_eq!(sim.output("count").to_u64(), 3);
    }

    #[test]
    fn reset_restores_init() {
        let mut sim = Simulator::new(counter_with_enable()).unwrap();
        sim.poke("en", Bv::from_bool(true));
        for _ in 0..10 {
            sim.step();
        }
        sim.reset();
        assert_eq!(sim.output("count").to_u64(), 0);
        assert_eq!(sim.cycle(), 0);
    }

    #[test]
    fn comb_eval_is_pure() {
        let mut b = ModuleBuilder::new("addsub");
        let x = b.input("x", 16);
        let y = b.input("y", 16);
        let s = b.add(x, y);
        let d = b.sub(x, y);
        b.output("sum", s);
        b.output("diff", d);
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        let outs = sim.eval_comb(&[("x", Bv::from_u64(16, 100)), ("y", Bv::from_u64(16, 42))]);
        assert_eq!(outs["sum"].to_u64(), 142);
        assert_eq!(outs["diff"].to_u64(), 58);
    }

    #[test]
    fn memory_has_one_cycle_read_latency() {
        // The paper §3.2: "the RTL implements a real memory that has a delay
        // of one clock cycle for memory reads" — the canonical divergence
        // from a C array.
        let mut b = ModuleBuilder::new("memtest");
        let we = b.input("we", 1);
        let waddr = b.input("waddr", 4);
        let wdata = b.input("wdata", 8);
        let raddr = b.input("raddr", 4);
        let mem = b.mem("m", 4, 8, 16);
        b.mem_write(mem, we, waddr, wdata);
        let rdata = b.mem_read(mem, raddr);
        b.output("rdata", rdata);
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();

        // Write 0x5A to address 3.
        sim.step_with(&[
            ("we", Bv::from_bool(true)),
            ("waddr", Bv::from_u64(4, 3)),
            ("wdata", Bv::from_u64(8, 0x5A)),
            ("raddr", Bv::from_u64(4, 3)),
        ]);
        // Read-first: the read sampled at the same edge saw the OLD word.
        assert_eq!(sim.output("rdata").to_u64(), 0);
        // One more cycle with the read address held: now the new word.
        sim.step_with(&[("we", Bv::from_bool(false)), ("raddr", Bv::from_u64(4, 3))]);
        assert_eq!(sim.output("rdata").to_u64(), 0x5A);
        assert_eq!(sim.mem_word("m", 3).to_u64(), 0x5A);
    }

    #[test]
    fn trace_records_watches() {
        let mut sim = Simulator::new(counter_with_enable()).unwrap();
        sim.watch_output("count");
        sim.watch_reg("count");
        sim.poke("en", Bv::from_bool(true));
        for _ in 0..3 {
            sim.step();
        }
        let t = sim.trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t[2].cycle, 2);
        assert_eq!(t[2].values[0].to_u64(), 2);
        assert_eq!(
            sim.watch_names(),
            vec!["count".to_string(), "count".to_string()]
        );
    }

    #[test]
    fn simulator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulator>();
    }

    #[test]
    fn stats_count_work_and_widths_come_from_declarations() {
        let mut sim = Simulator::new(counter_with_enable()).unwrap();
        sim.watch_output("count");
        sim.watch_reg("count");
        assert_eq!(sim.watch_widths(), vec![8, 8]);
        let rec = dfv_obs::MemoryRecorder::shared();
        sim.set_recorder(rec.clone());
        sim.poke("en", Bv::from_bool(true));
        sim.step();
        sim.step();
        let s = sim.stats();
        assert_eq!(s.steps, 2);
        assert!(s.eval_passes >= 2);
        // Dirty-cone bytecode: node_evals counts instructions executed,
        // bounded by the full re-evaluation the reference does.
        let node_count = sim.module().nodes.len() as u64;
        assert!(s.node_evals > 0);
        assert!(s.node_evals <= s.eval_passes * node_count);
        // First record counts every watch; second counts the two changes.
        assert_eq!(s.value_changes, 4);
        let r = rec.lock().unwrap();
        assert_eq!(r.counter("rtl.steps"), 2);
        assert!(r.counter("rtl.node_evals") > 0);
        // Reset keeps the cumulative counters but clears the trace.
        sim.reset();
        assert_eq!(sim.stats().steps, 2);
        assert!(sim.trace().is_empty());
        let wt = sim.watched_trace();
        assert!(wt.is_empty());
        assert_eq!(wt.widths(), &[8, 8]);
    }

    #[test]
    fn reference_engine_counts_every_node_per_pass() {
        let mut sim = Simulator::new_reference(counter_with_enable()).unwrap();
        assert_eq!(sim.eval_mode(), EvalMode::FullOracle);
        sim.poke("en", Bv::from_bool(true));
        sim.step();
        sim.step();
        assert_eq!(sim.output("count").to_u64(), 2);
        let s = sim.stats();
        let node_count = sim.module().nodes.len() as u64;
        assert_eq!(s.node_evals, s.eval_passes * node_count);
    }

    #[test]
    fn idle_cycles_and_repeat_pokes_are_free() {
        // A disabled counter after one settled pass: stepping commits no
        // state change, so subsequent evals execute nothing.
        let mut sim = Simulator::new(counter_with_enable()).unwrap();
        assert_eq!(sim.eval_mode(), EvalMode::Bytecode);
        sim.poke("en", Bv::from_bool(false));
        assert_eq!(sim.output("count").to_u64(), 0);
        let settled = sim.stats().node_evals;
        for _ in 0..100 {
            sim.step();
        }
        assert_eq!(sim.output("count").to_u64(), 0);
        assert_eq!(
            sim.stats().node_evals,
            settled,
            "idle cycles must not execute instructions"
        );
        // Re-poking the same input value is also free.
        sim.poke("en", Bv::from_bool(false));
        assert_eq!(sim.output("count").to_u64(), 0);
        assert_eq!(sim.stats().node_evals, settled);
    }

    #[test]
    fn hierarchical_design_simulates_after_flatten() {
        use crate::flatten::flatten;
        use crate::ir::Design;
        // Two chained incrementers, each with a 1-cycle delay.
        let mut cb = ModuleBuilder::new("inc");
        let a = cb.input("a", 8);
        let one = cb.lit(8, 1);
        let s = cb.add(a, one);
        let r = cb.reg("d", 8, Bv::zero(8));
        cb.connect_reg(r, s);
        let q = cb.reg_q(r);
        cb.output("y", q);
        let child = cb.finish().unwrap();

        let mut tb = ModuleBuilder::new("top");
        let x = tb.input("x", 8);
        let o1 = tb.instantiate("u1", &child, &[x]);
        let o2 = tb.instantiate("u2", &child, &[o1[0]]);
        tb.output("y", o2[0]);
        let top = tb.finish().unwrap();

        let mut d = Design::new();
        d.add_module(child);
        d.add_module(top);
        let flat = flatten(&d, "top").unwrap();
        let mut sim = Simulator::new(flat).unwrap();
        sim.poke("x", Bv::from_u64(8, 10));
        sim.step(); // u1.d <= 11
        sim.step(); // u2.d <= 12
        assert_eq!(sim.output("y").to_u64(), 12);
    }

    #[test]
    fn simulator_rejects_unflattened_module() {
        let mut cb = ModuleBuilder::new("leaf");
        let a = cb.input("a", 8);
        cb.output("y", a);
        let leaf = cb.finish().unwrap();
        let mut tb = ModuleBuilder::new("top");
        let x = tb.input("x", 8);
        let o = tb.instantiate("u", &leaf, &[x]);
        tb.output("y", o[0]);
        let top = tb.finish().unwrap();
        assert!(Simulator::new(top).is_err());
    }

    /// Every operator shape the bytecode lowering handles: all 19 binary
    /// ops at single-limb and multi-limb widths, the unary and structural
    /// ops, constant operands on both sides (including oversized constant
    /// shift amounts), a fusable compare→mux pair and an add→slice pair,
    /// plus a memory and registered feedback so stepping keeps the cone
    /// churning.
    fn op_soup() -> Module {
        let mut b = ModuleBuilder::new("soup");
        let x = b.input("x", 64);
        let y = b.input("y", 64);
        let n = b.input("n", 17);
        let m = b.input("m", 17);
        let wx = b.input("wx", 100);
        let wy = b.input("wy", 100);
        let c = b.input("c", 1);
        let mut outs: Vec<NodeId> = Vec::new();
        // All binary ops, single-limb and multi-limb.
        for (a, bb) in [(x, y), (wx, wy)] {
            outs.push(b.add(a, bb));
            outs.push(b.sub(a, bb));
            outs.push(b.mul(a, bb));
            outs.push(b.udiv(a, bb));
            outs.push(b.urem(a, bb));
            outs.push(b.sdiv(a, bb));
            outs.push(b.srem(a, bb));
            outs.push(b.and(a, bb));
            outs.push(b.or(a, bb));
            outs.push(b.xor(a, bb));
            outs.push(b.shl(a, bb));
            outs.push(b.lshr(a, bb));
            outs.push(b.ashr(a, bb));
            outs.push(b.eq(a, bb));
            outs.push(b.ne(a, bb));
            outs.push(b.ult(a, bb));
            outs.push(b.ule(a, bb));
            outs.push(b.slt(a, bb));
            outs.push(b.sle(a, bb));
        }
        // Unary ops, both width classes.
        for a in [n, wx] {
            outs.push(b.not(a));
            outs.push(b.neg(a));
            outs.push(b.red_and(a));
            outs.push(b.red_or(a));
            outs.push(b.red_xor(a));
        }
        // Structural ops.
        outs.push(b.mux(c, x, y));
        outs.push(b.mux(c, wx, wy));
        outs.push(b.slice(x, 40, 9));
        outs.push(b.slice(wx, 80, 30)); // multi-limb src, 1-limb out
        outs.push(b.slice(wx, 95, 10)); // multi-limb src and out
        outs.push(b.concat(n, m));
        outs.push(b.concat(wx, x));
        outs.push(b.zext(n, 64));
        outs.push(b.zext(x, 128));
        outs.push(b.zext(wx, 128));
        outs.push(b.sext(n, 64));
        outs.push(b.sext(n, 120));
        outs.push(b.sext(wx, 128));
        // Constant operands: right, left-commutative, left-subtract, and
        // constant shift amounts below / at-or-above the width.
        let k = b.lit(64, 0x00C0_FFEE_1234_5678);
        let k3 = b.lit(64, 3);
        let k70 = b.lit(64, 70);
        outs.push(b.add(x, k));
        outs.push(b.sub(k, x));
        outs.push(b.mul(k, x));
        outs.push(b.and(k, x));
        outs.push(b.eq(x, k));
        outs.push(b.shl(x, k3));
        outs.push(b.lshr(x, k3));
        outs.push(b.ashr(x, k3));
        outs.push(b.shl(x, k70));
        outs.push(b.lshr(x, k70));
        outs.push(b.ashr(x, k70));
        // Fusable pairs: a compare whose only reader is a mux select, and
        // an add whose only reader is a slice.
        let fsel = b.ult(x, y);
        outs.push(b.mux(fsel, y, x));
        let fsum = b.add(n, m);
        outs.push(b.slice(fsum, 12, 4));
        // A memory (read-first, 1-cycle latency) and registered feedback.
        let mem = b.mem("m", 4, 32, 16);
        let waddr = b.slice(x, 3, 0);
        let wdata = b.slice(y, 31, 0);
        let raddr = b.slice(y, 3, 0);
        b.mem_write(mem, c, waddr, wdata);
        outs.push(b.mem_read(mem, raddr));
        let r64 = b.reg("acc64", 64, Bv::from_u64(64, 7));
        let q64 = b.reg_q(r64);
        let fb64 = b.xor(q64, x);
        let nx64 = b.add(fb64, y);
        b.connect_reg(r64, nx64);
        b.reg_enable(r64, c);
        outs.push(q64);
        let rw = b.reg("accw", 100, Bv::zero(100));
        let qw = b.reg_q(rw);
        let nxw = b.add(qw, wx);
        b.connect_reg(rw, nxw);
        outs.push(qw);
        for (i, o) in outs.into_iter().enumerate() {
            b.output(format!("o{i}"), o);
        }
        b.finish().unwrap()
    }

    fn rand_bv(rng: &mut dfv_bits::SplitMix64, w: u32) -> Bv {
        let limbs: Vec<u64> = (0..w.div_ceil(64)).map(|_| rng.next_u64()).collect();
        Bv::from_limbs(w, &limbs)
    }

    /// Drives `sim` with seeded random stimulus and returns all outputs
    /// at every cycle.
    fn run_random(mut sim: Simulator, seed: u64, cycles: usize) -> Vec<Vec<Bv>> {
        let mut rng = dfv_bits::SplitMix64::new(seed);
        let inputs: Vec<(String, u32)> = sim
            .module()
            .inputs
            .iter()
            .map(|p| (p.name.clone(), p.width))
            .collect();
        let outs: Vec<String> = sim
            .module()
            .outputs
            .iter()
            .map(|p| p.name.clone())
            .collect();
        let mut rows = Vec::new();
        for _ in 0..cycles {
            for (name, w) in &inputs {
                let v = rand_bv(&mut rng, *w);
                sim.poke(name, v);
            }
            rows.push(outs.iter().map(|o| sim.output(o)).collect::<Vec<_>>());
            sim.step();
        }
        rows
    }

    #[test]
    fn bytecode_engine_matches_oracle_on_op_soup() {
        let module = op_soup();
        for seed in [1u64, 0xDEAD_BEEF, 42] {
            let vm = run_random(Simulator::new(module.clone()).unwrap(), seed, 48);
            let oracle = run_random(Simulator::new_reference(module.clone()).unwrap(), seed, 48);
            assert_eq!(vm, oracle, "vm vs oracle diverged (seed {seed})");
        }
    }

    #[test]
    fn bytecode_fused_pairs_keep_intermediates_observable() {
        // The compare, the constant multiply and the constant shift are
        // absorbed into their consumers, but their slots must still hold
        // exactly the values the reference engine computes — peeks and
        // watches read them.
        let mut b = ModuleBuilder::new("fused");
        let x = b.input("x", 32);
        let y = b.input("y", 32);
        let sel = b.ult(x, y);
        let mx = b.mux(sel, y, x);
        let k = b.lit(32, 0x9E37_79B9);
        let prod = b.mul(x, k);
        let mac = b.add(prod, y);
        let k3 = b.lit(32, 3);
        let term = b.shl(y, k3);
        let sac = b.add(x, term);
        b.output("max", mx);
        b.output("mac", mac);
        b.output("sac", sac);
        let module = b.finish().unwrap();
        let mut vm = Simulator::new(module.clone()).unwrap();
        let instrs = vm.vm.as_ref().unwrap().prog().len();
        assert_eq!(instrs, 3, "three fused instructions, nothing else");
        let mut oracle = Simulator::new_reference(module).unwrap();
        let mut rng = dfv_bits::SplitMix64::new(9);
        for _ in 0..64 {
            let (a, bb) = (rng.bits(32), rng.bits(32));
            for sim in [&mut vm, &mut oracle] {
                sim.poke("x", Bv::from_u64(32, a));
                sim.poke("y", Bv::from_u64(32, bb));
            }
            for port in ["max", "mac", "sac"] {
                assert_eq!(vm.output(port), oracle.output(port), "{port}");
            }
            assert_eq!(vm.peek(sel), oracle.peek(sel), "fused compare slot");
            assert_eq!(vm.peek(prod), oracle.peek(prod), "fused multiply slot");
            assert_eq!(vm.peek(term), oracle.peek(term), "fused shift slot");
            vm.step();
            oracle.step();
        }
    }

    #[test]
    fn bytecode_node_evals_deterministic_under_poke_order() {
        let module = op_soup();
        let mut fwd = Simulator::new(module.clone()).unwrap();
        let mut rev = Simulator::new(module).unwrap();
        let mut rng = dfv_bits::SplitMix64::new(77);
        let inputs: Vec<(String, u32)> = fwd
            .module()
            .inputs
            .iter()
            .map(|p| (p.name.clone(), p.width))
            .collect();
        for _ in 0..16 {
            let vals: Vec<Bv> = inputs.iter().map(|(_, w)| rand_bv(&mut rng, *w)).collect();
            for (i, (name, _)) in inputs.iter().enumerate() {
                fwd.poke(name, vals[i].clone());
            }
            for (i, (name, _)) in inputs.iter().enumerate().rev() {
                rev.poke(name, vals[i].clone());
            }
            fwd.step();
            rev.step();
            assert_eq!(
                fwd.stats().node_evals,
                rev.stats().node_evals,
                "instruction count must not depend on poke order"
            );
        }
        assert_eq!(fwd.output("o0"), rev.output("o0"));
    }

    #[test]
    fn bytecode_set_reg_marks_cone() {
        let mut vm = Simulator::new(counter_with_enable()).unwrap();
        let mut oracle = Simulator::new_reference(counter_with_enable()).unwrap();
        for sim in [&mut vm, &mut oracle] {
            sim.poke("en", Bv::from_bool(true));
            sim.step();
            sim.set_reg("count", Bv::from_u64(8, 200));
            sim.step();
        }
        assert_eq!(vm.output("count").to_u64(), 201);
        assert_eq!(oracle.output("count").to_u64(), 201);
    }

    const BIN_OPS: [BinOp; 19] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::UDiv,
        BinOp::URem,
        BinOp::SDiv,
        BinOp::SRem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::LShr,
        BinOp::AShr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::ULt,
        BinOp::ULe,
        BinOp::SLt,
        BinOp::SLe,
    ];
    const UN_OPS: [UnOp; 5] = [
        UnOp::Not,
        UnOp::Neg,
        UnOp::RedAnd,
        UnOp::RedOr,
        UnOp::RedXor,
    ];

    /// The low-`w` mask (`w <= 64`).
    fn mask64(w: u32) -> u64 {
        if w >= 64 {
            u64::MAX
        } else {
            (1u64 << w) - 1
        }
    }

    /// Inputs `a` (`w` bits) and `b` (`bw` bits), one output per binary
    /// op in `ops` over `(a, b)`, then one per unary op over `a`.
    fn every_op(w: u32, bw: u32, ops: &[BinOp]) -> (Module, Vec<NodeId>) {
        let mut b = ModuleBuilder::new("ops");
        let x = b.input("a", w);
        let y = b.input("b", bw);
        let mut outs: Vec<NodeId> = ops.iter().map(|&op| b.bin(op, x, y)).collect();
        for op in UN_OPS {
            outs.push(match op {
                UnOp::Not => b.not(x),
                UnOp::Neg => b.neg(x),
                UnOp::RedAnd => b.red_and(x),
                UnOp::RedOr => b.red_or(x),
                UnOp::RedXor => b.red_xor(x),
            });
        }
        for (i, &o) in outs.iter().enumerate() {
            b.output(format!("o{i}"), o);
        }
        (b.finish().unwrap(), outs)
    }

    /// The default engine's single-limb instructions against the `Bv`
    /// oracle, over every operator, a width ladder, and seeded +
    /// adversarial values (every pair of them for the binary ops).
    #[test]
    fn single_limb_ops_match_oracle_on_width_ladder() {
        let mut rng = dfv_bits::SplitMix64::new(0xFA57);
        for &w in &[1u32, 2, 7, 8, 31, 32, 33, 63, 64] {
            let mut values = vec![0u64, 1, mask64(w), mask64(w) >> 1, 1u64 << (w - 1) >> 1];
            values.push(1u64 << (w - 1)); // sign bit alone (INT_MIN)
            for _ in 0..40 {
                values.push(rng.next_u64() & mask64(w));
            }
            let (module, outs) = every_op(w, w, &BIN_OPS);
            let mut sim = Simulator::new(module).unwrap();
            for &a in &values {
                let av = Bv::from_u64(w, a);
                sim.poke("a", av.clone());
                for &b in &values {
                    let bv = Bv::from_u64(w, b);
                    sim.poke("b", bv.clone());
                    for (k, op) in BIN_OPS.into_iter().enumerate() {
                        let expect = eval_bin(op, &av, &bv);
                        assert_eq!(sim.peek(outs[k]), expect, "{op:?} w={w} a={a:#x} b={b:#x}");
                    }
                }
                for (k, op) in UN_OPS.into_iter().enumerate() {
                    let got = sim.peek(outs[BIN_OPS.len() + k]);
                    assert_eq!(got, eval_un(op, &av), "{op:?} w={w} a={a:#x}");
                }
            }
        }
    }

    /// Shift amounts live on a differently-sized right operand; sweep the
    /// boundary around the data width, including amounts above 64.
    #[test]
    fn single_limb_shift_amount_boundaries() {
        const SHIFTS: [BinOp; 3] = [BinOp::Shl, BinOp::LShr, BinOp::AShr];
        let bw = 16;
        for &w in &[1u32, 8, 63, 64] {
            let (module, outs) = every_op(w, bw, &SHIFTS);
            let mut sim = Simulator::new(module).unwrap();
            for amt in [0u64, 1, w as u64 - 1, w as u64, w as u64 + 1, 64, 65, 1000] {
                for a in [1u64, mask64(w), 1u64 << (w - 1)] {
                    let (av, bv) = (Bv::from_u64(w, a), Bv::from_u64(bw, amt));
                    sim.poke("a", av.clone());
                    sim.poke("b", bv.clone());
                    for (k, op) in SHIFTS.into_iter().enumerate() {
                        assert_eq!(
                            sim.peek(outs[k]),
                            eval_bin(op, &av, &bv),
                            "{op:?} w={w} a={a:#x} amt={amt}"
                        );
                    }
                }
            }
        }
    }

    /// `lanes` independent two-instruction chains `out_i = !x_i + k`:
    /// level 1 holds the `lanes` nots and level 2 the `lanes` adds, so
    /// poking `n` inputs dirties exactly `2n` instructions.
    fn parallel_chains(lanes: usize) -> Module {
        let mut b = ModuleBuilder::new("chains");
        let k = b.lit(8, 0x5A);
        for i in 0..lanes {
            let x = b.input(format!("x{i}"), 8);
            let n = b.not(x);
            let y = b.add(n, k);
            b.output(format!("y{i}"), y);
        }
        b.finish().unwrap()
    }

    #[test]
    fn dirty_pass_runs_exactly_the_marked_instructions() {
        let lanes = 40;
        let module = parallel_chains(lanes);
        let mut sim = Simulator::new(module.clone()).unwrap();
        let mut oracle = Simulator::new_reference(module).unwrap();
        let vm = sim.vm.as_ref().unwrap();
        assert!(!vm.dense(), "80 instructions run tracked");
        assert_eq!(vm.prog().len(), 2 * lanes);
        sim.eval();
        let mut round = 0u64;
        // From one poke (well under a quarter of a level) to every input
        // (the whole level): the pass costs what was marked, no more.
        for poked in [1usize, 9, 10, 11, 20, 30, 39, 40] {
            round += 1;
            let before = sim.stats().node_evals;
            for i in 0..poked {
                let v = Bv::from_u64(8, round * 7 + i as u64);
                sim.poke(&format!("x{i}"), v.clone());
                oracle.poke(&format!("x{i}"), v);
            }
            sim.eval();
            assert_eq!(
                sim.stats().node_evals - before,
                2 * poked as u64,
                "{poked} of {lanes} inputs poked"
            );
            for i in 0..lanes {
                let port = format!("y{i}");
                assert_eq!(sim.output(&port), oracle.output(&port), "{port}");
            }
        }
    }

    /// Adds two outputs per constant `k` in `ks` to `b`: `x op k` (`k` at
    /// `kw` bits, the shift-amount width for shifts) and `k op x` (`k`
    /// truncated to `x`'s width `w`; for a shift, `x` is the amount).
    fn add_const_cases(b: &mut ModuleBuilder, x: NodeId, w: u32, op: BinOp, ks: &[u64], kw: u32) {
        for (i, &k) in ks.iter().enumerate() {
            let right = b.lit(kw, k);
            let o = b.bin(op, x, right);
            b.output(format!("{op:?}_x_k{i}"), o);
            let left = b.lit(w, k & mask64(w));
            let o = b.bin(op, left, x);
            b.output(format!("{op:?}_k{i}_x"), o);
        }
    }

    /// Pokes every `x` into both engines and compares every output.
    fn assert_matches_reference(module: Module, xs: &[u64], what: &str) {
        let w = module.inputs[0].width;
        let mut sim = Simulator::new(module.clone()).unwrap();
        let mut oracle = Simulator::new_reference(module.clone()).unwrap();
        for &x in xs {
            sim.poke("x", Bv::from_u64(w, x));
            oracle.poke("x", Bv::from_u64(w, x));
            for p in &module.outputs {
                let name = &p.name;
                assert_eq!(
                    sim.output(name),
                    oracle.output(name),
                    "{what} x={x:#x} {name}"
                );
            }
        }
    }

    /// Constants are plain slots: every single-limb binary op with a
    /// constant on either side (`c - x`, constant divisors, constant
    /// shift amounts below, at and above the width) matches the
    /// reference, in a dense module and in a tracked one.
    #[test]
    fn constant_operands_match_the_reference_dense_and_tracked() {
        let mut rng = dfv_bits::SplitMix64::new(0xC0457);
        for &w in &[1u32, 9, 40, 64] {
            let m = mask64(w);
            let mut ks = vec![0, 1, m, m >> 1, 1u64 << (w - 1)];
            ks.extend((0..3).map(|_| rng.next_u64() & m));
            let shift_ks = [0, 1, w as u64 - 1, w as u64, w as u64 + 1, 64, 65, 1000];
            let mut xs = vec![0, 1, m, 1u64 << (w - 1), w as u64 & m];
            xs.extend((0..12).map(|_| rng.next_u64() & m));
            // Every op's cases alone (dense), then all of them in one
            // module (tracked).
            let mut all = ModuleBuilder::new("all");
            let all_x = all.input("x", w);
            for op in BIN_OPS {
                let (ks, kw) = if op.is_shift() {
                    (&shift_ks[..], 16)
                } else {
                    (&ks[..], w)
                };
                let mut b = ModuleBuilder::new("one");
                let x = b.input("x", w);
                add_const_cases(&mut b, x, w, op, ks, kw);
                let module = b.finish().unwrap();
                let sim = Simulator::new(module.clone()).unwrap();
                assert!(sim.vm.as_ref().unwrap().dense(), "{op:?} w={w}");
                assert_matches_reference(module, &xs, &format!("dense {op:?} w={w}"));
                add_const_cases(&mut all, all_x, w, op, ks, kw);
            }
            let module = all.finish().unwrap();
            let sim = Simulator::new(module.clone()).unwrap();
            assert!(!sim.vm.as_ref().unwrap().dense(), "w={w}");
            assert_matches_reference(module, &xs, &format!("tracked w={w}"));
        }
    }
}
