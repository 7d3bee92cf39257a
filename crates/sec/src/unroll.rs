//! Symbolic simulation: executing a flat module over words of the
//! [`WordDag`].
//!
//! [`SymbolicSim`] mirrors `dfv_rtl::Simulator` cycle for cycle, but every
//! value is a [`WordId`] of a hash-consed, normalizing word DAG, so one
//! symbolic run covers *all* concrete runs. Unrolling a transaction is
//! just stepping the symbolic simulator `k` times. A node whose operands
//! are the same words as the cycle before is interned to the same word,
//! so a cycle that recomputes unchanged logic adds nothing to the DAG;
//! nothing is encoded into SAT until the checker lowers the words it
//! reads ([`crate::BitBlaster::lower`]).
//!
//! Stepping is demand-driven: a step evaluates only the nodes the caller
//! asks for (the outputs compared or checked that cycle) and what the
//! clock edge reads, each through the part of its cone that can reach it.
//! A mux whose select folds to a constant evaluates only the taken arm,
//! and a register whose enable folds to 0 does not evaluate its D input,
//! so a cycle whose outputs nobody reads builds only its next state.

use dfv_bits::Bv;
use dfv_rtl::ir::{BinOp, Module, Node, NodeId};

use crate::spec::{InitState, SecError};
use crate::word::{WordDag, WordId};

/// The largest memory depth the symbolic simulator will expand
/// word-by-word.
pub const MEM_BLAST_LIMIT: usize = 256;

/// The stamp of a node whose word never changes (a constant).
const ALWAYS: u32 = u32::MAX;

/// The node driving output port `name`.
///
/// # Panics
///
/// Panics if the module has no such output (validated specs never hit
/// this).
pub(crate) fn output_driver(module: &Module, name: &str) -> NodeId {
    let idx = module
        .output_index(name)
        .unwrap_or_else(|| panic!("no output port {name:?}"));
    module.output_drivers[idx]
}

/// Symbolic (word-DAG) state of a flat module.
#[derive(Debug)]
pub struct SymbolicSim<'m> {
    module: &'m Module,
    regs: Vec<WordId>,
    mems: Vec<Vec<WordId>>,
    mem_read_regs: Vec<Vec<WordId>>,
    /// The last step's node words.
    cycle: SymbolicCycle,
    /// Scratch for the evaluation walk: a node and whether its operands
    /// have been pushed.
    stack: Vec<(NodeId, bool)>,
    /// Scratch for the clock edge: the registers' next words.
    next_regs: Vec<WordId>,
}

/// The per-cycle result of a symbolic step: the word of every node the
/// step evaluated.
#[derive(Debug, Clone)]
pub struct SymbolicCycle {
    /// Node words, indexed by node id; meaningful where `stamps` matches.
    nodes: Vec<WordId>,
    /// The step that last evaluated each node ([`ALWAYS`] for constants).
    stamps: Vec<u32>,
    /// The current step's stamp.
    epoch: u32,
}

impl SymbolicCycle {
    /// The word of node `id`, if this step evaluated it.
    pub fn node(&self, id: NodeId) -> Option<WordId> {
        let s = self.stamps[id.index()];
        (s == self.epoch || s == ALWAYS).then(|| self.nodes[id.index()])
    }

    /// The word for a named output port.
    ///
    /// # Panics
    ///
    /// Panics if the module has no such output, or if the step that
    /// produced this cycle did not demand it (validated specs never hit
    /// either).
    pub fn output(&self, module: &Module, name: &str) -> WordId {
        self.node(output_driver(module, name))
            .unwrap_or_else(|| panic!("output {name:?} was not demanded this step"))
    }

    fn set(&mut self, id: NodeId, word: WordId) {
        self.nodes[id.index()] = word;
        self.stamps[id.index()] = self.epoch;
    }
}

impl<'m> SymbolicSim<'m> {
    /// Creates symbolic state for `module` with the given initial-state
    /// convention: constants at reset, fresh leaves when free.
    ///
    /// # Errors
    ///
    /// Returns [`SecError`] if the module is not flat or a memory exceeds
    /// [`MEM_BLAST_LIMIT`].
    pub fn new(dag: &mut WordDag, module: &'m Module, init: InitState) -> Result<Self, SecError> {
        if !module.instances.is_empty() {
            return Err(SecError::Rtl(dfv_rtl::RtlError::NotFlat {
                module: module.name.clone(),
            }));
        }
        for m in &module.mems {
            if m.depth > MEM_BLAST_LIMIT {
                return Err(SecError::MemTooLarge {
                    mem: m.name.clone(),
                    depth: m.depth,
                    limit: MEM_BLAST_LIMIT,
                });
            }
        }
        let state = |dag: &mut WordDag, value: &Bv| match init {
            InitState::Reset => dag.constant(value),
            InitState::Free => dag.leaf(value.width()),
        };
        let regs: Vec<WordId> = module.regs.iter().map(|r| state(dag, &r.init)).collect();
        let mems = module
            .mems
            .iter()
            .map(|m| {
                (0..m.depth)
                    .map(|i| {
                        let word = m
                            .init
                            .get(i)
                            .cloned()
                            .unwrap_or_else(|| Bv::zero(m.data_width));
                        state(dag, &word)
                    })
                    .collect()
            })
            .collect();
        let mem_read_regs = module
            .mems
            .iter()
            .map(|m| {
                m.read_ports
                    .iter()
                    .map(|_| state(dag, &Bv::zero(m.data_width)))
                    .collect()
            })
            .collect();
        // Constants are the same word on every cycle: intern them once.
        let n = module.nodes.len();
        let mut cycle = SymbolicCycle {
            nodes: vec![WordId::default(); n],
            stamps: vec![0; n],
            epoch: 0,
        };
        for (i, node) in module.nodes.iter().enumerate() {
            if let Node::Const(c) = node {
                cycle.nodes[i] = dag.constant(c);
                cycle.stamps[i] = ALWAYS;
            }
        }
        Ok(SymbolicSim {
            module,
            next_regs: regs.clone(),
            regs,
            mems,
            mem_read_regs,
            cycle,
            stack: Vec::new(),
        })
    }

    /// The module being simulated.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Current symbolic register state (for induction-style checks).
    pub fn reg_state(&self) -> &[WordId] {
        &self.regs
    }

    /// Evaluates one cycle from the given input words (in input-port
    /// order) and then commits the clock edge. The step evaluates the
    /// `demand`ed nodes and whatever the clock edge reads, and no other
    /// node; the returned cycle holds their words
    /// ([`SymbolicCycle::node`]) until the next step. Demanding every
    /// node (`module.node_ids()`) evaluates each one the concrete
    /// simulator would, with the same words.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the module's input ports in count
    /// or width — the caller (the checker) constructs them from a validated
    /// spec.
    pub fn step(
        &mut self,
        dag: &mut WordDag,
        inputs: &[WordId],
        demand: &[NodeId],
    ) -> &SymbolicCycle {
        let m = self.module;
        assert_eq!(inputs.len(), m.inputs.len(), "input count mismatch");
        for (&w, p) in inputs.iter().zip(&m.inputs) {
            assert_eq!(dag.width(w), p.width, "input width mismatch");
        }
        self.cycle.epoch = self
            .cycle
            .epoch
            .checked_add(1)
            .filter(|&e| e != ALWAYS)
            .expect("fewer than 2^32 - 1 steps");
        for &id in demand {
            self.eval(dag, inputs, id);
        }
        self.commit(dag, inputs);
        &self.cycle
    }

    /// Evaluates `root` through the part of its cone it reads, with an
    /// explicit stack: a node's operands are evaluated before it, and a
    /// mux with a constant select evaluates only the taken arm.
    fn eval(&mut self, dag: &mut WordDag, inputs: &[WordId], root: NodeId) -> WordId {
        let m = self.module;
        let cyc = &mut self.cycle;
        if let Some(w) = cyc.node(root) {
            return w;
        }
        let stack = &mut self.stack;
        stack.push((root, false));
        while let Some(&(id, expanded)) = stack.last() {
            if cyc.node(id).is_some() {
                stack.pop();
                continue;
            }
            let node = &m.nodes[id.index()];
            if !expanded {
                stack.last_mut().expect("nonempty").1 = true;
                let mut push = |o: NodeId| {
                    if cyc.node(o).is_none() {
                        stack.push((o, false));
                    }
                };
                match node {
                    Node::Mux { sel, .. } => push(*sel),
                    _ => node.for_each_operand(push),
                }
                continue;
            }
            let w = |o: NodeId| cyc.nodes[o.index()];
            let v = match *node {
                Node::Input(idx) => inputs[idx],
                Node::Const(_) => unreachable!("constants are interned at creation"),
                Node::RegQ(r) => self.regs[r.index()],
                Node::MemReadData(mm, p) => self.mem_read_regs[mm.index()][p],
                Node::InstOut(..) => unreachable!("module is flat"),
                Node::Un(op, a) => dag.un(op, w(a)),
                Node::Bin(op, a, b) => dag.bin(op, w(a), w(b)),
                Node::Mux { sel, t, f } => {
                    let s = w(sel);
                    let (a, b) = match dag.const_value(s) {
                        Some(c) if c.bit(0) => (t, None),
                        Some(_) => (f, None),
                        None => (t, Some(f)),
                    };
                    let mut pending = false;
                    for arm in std::iter::once(a).chain(b) {
                        if cyc.node(arm).is_none() {
                            stack.push((arm, false));
                            pending = true;
                        }
                    }
                    if pending {
                        continue;
                    }
                    match b {
                        None => w(a),
                        Some(_) => dag.mux(s, w(t), w(f)),
                    }
                }
                Node::Slice { src, hi, lo } => dag.slice(w(src), hi, lo),
                Node::Concat(hi, lo) => dag.concat(w(hi), w(lo)),
                Node::Zext(a, width) => dag.zext(w(a), width),
                Node::Sext(a, width) => dag.sext(w(a), width),
            };
            debug_assert_eq!(dag.width(v), m.node_widths[id.index()]);
            cyc.set(id, v);
            stack.pop();
        }
        cyc.nodes[root.index()]
    }

    /// The clock edge: registers, then memories (read-first). Every word
    /// the edge reads is evaluated before any state changes, so each one
    /// sees this cycle's state.
    fn commit(&mut self, dag: &mut WordDag, inputs: &[WordId]) {
        let m = self.module;
        for (ri, reg) in m.regs.iter().enumerate() {
            let next = reg.next.expect("checked module");
            let old = self.regs[ri];
            self.next_regs[ri] = match reg.en {
                None => self.eval(dag, inputs, next),
                Some(en) => {
                    let e = self.eval(dag, inputs, en);
                    match dag.const_value(e).map(|c| c.bit(0)) {
                        Some(false) => old,
                        Some(true) => self.eval(dag, inputs, next),
                        None => {
                            let n = self.eval(dag, inputs, next);
                            dag.mux(e, n, old)
                        }
                    }
                }
            };
        }
        // The memory ports' words; a write whose enable folds to 0 reads
        // nothing else.
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for mem in &m.mems {
            for rp in &mem.read_ports {
                reads.push(self.eval(dag, inputs, rp.addr));
            }
            for wp in &mem.write_ports {
                let en = self.eval(dag, inputs, wp.en);
                if dag.const_value(en).is_some_and(Bv::is_zero) {
                    writes.push(None);
                } else {
                    let addr = self.eval(dag, inputs, wp.addr);
                    let data = self.eval(dag, inputs, wp.data);
                    writes.push(Some((en, addr, data)));
                }
            }
        }
        std::mem::swap(&mut self.regs, &mut self.next_regs);
        let (mut reads, mut writes) = (reads.into_iter(), writes.into_iter());
        for (mi, mem) in m.mems.iter().enumerate() {
            let eff_addr = |dag: &mut WordDag, addr: WordId| -> WordId {
                if mem.depth == (1usize << mem.addr_width.min(63)) {
                    addr
                } else {
                    // Non-power-of-two depth wraps modulo depth, matching
                    // the concrete simulator.
                    let d = dag.constant(&Bv::from_u64(mem.addr_width, mem.depth as u64));
                    dag.bin(BinOp::URem, addr, d)
                }
            };
            let index = |dag: &mut WordDag, addr: WordId, wi: usize| -> WordId {
                let idx = dag.constant(&Bv::from_u64(mem.addr_width, wi as u64));
                dag.bin(BinOp::Eq, addr, idx)
            };
            // Sample read ports against pre-write contents.
            for pi in 0..mem.read_ports.len() {
                let addr = eff_addr(dag, reads.next().expect("one word per read port"));
                let mut acc = dag.constant(&Bv::zero(mem.data_width));
                for (wi, &word) in self.mems[mi].iter().enumerate() {
                    let hit = index(dag, addr, wi);
                    acc = dag.mux(hit, word, acc);
                }
                self.mem_read_regs[mi][pi] = acc;
            }
            // Apply writes.
            for _ in &mem.write_ports {
                let Some((en, addr, data)) = writes.next().expect("one entry per write port")
                else {
                    continue;
                };
                let addr = eff_addr(dag, addr);
                for wi in 0..mem.depth {
                    let hit = index(dag, addr, wi);
                    let strobe = dag.bin(BinOp::And, en, hit);
                    self.mems[mi][wi] = dag.mux(strobe, data, self.mems[mi][wi]);
                }
            }
        }
    }
}

/// Evaluates a *combinational* module symbolically (no state, one shot):
/// every output port and the cones that drive them.
///
/// # Panics
///
/// Panics if the module has state or instances, or inputs mismatch; callers
/// validate with [`crate::EquivSpec::validate`] first.
pub fn eval_comb_symbolic(dag: &mut WordDag, module: &Module, inputs: &[WordId]) -> SymbolicCycle {
    assert!(module.is_combinational(), "module must be combinational");
    let mut sim = SymbolicSim::new(dag, module, InitState::Reset).expect("comb module");
    sim.step(dag, inputs, &module.output_drivers);
    sim.cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitblast::BitBlaster;
    use dfv_rtl::{ModuleBuilder, Simulator};
    use dfv_sat::{Budget, SolveResult};

    /// Lowers `words`, solves, and reads their model values.
    fn solved_values(dag: &WordDag, words: &[WordId]) -> Vec<Bv> {
        let mut bb = BitBlaster::new();
        let lits: Vec<_> = words.iter().flat_map(|&w| bb.lower(dag, w)).collect();
        bb.emit_cone(&lits);
        assert_eq!(bb.solve(&[], &Budget::unlimited()), SolveResult::Sat);
        words.iter().map(|&w| bb.model_value(dag, w)).collect()
    }

    /// A two-stage accumulator pipeline used across the tests.
    fn pipeline() -> Module {
        let mut b = ModuleBuilder::new("pipe");
        let x = b.input("x", 8);
        let s1 = b.reg("s1", 8, Bv::zero(8));
        let s2 = b.reg("s2", 8, Bv::zero(8));
        let q1 = b.reg_q(s1);
        let q2 = b.reg_q(s2);
        let one = b.lit(8, 1);
        let inc = b.add(x, one);
        b.connect_reg(s1, inc);
        let dbl = b.add(q1, q1);
        b.connect_reg(s2, dbl);
        b.output("y", q2);
        b.finish().unwrap()
    }

    #[test]
    fn symbolic_constant_run_matches_concrete() {
        let m = pipeline();
        let mut dag = WordDag::new();
        let mut sym = SymbolicSim::new(&mut dag, &m, InitState::Reset).unwrap();
        let x = dag.constant(&Bv::from_u64(8, 5));
        let mut outs = Vec::new();
        for _ in 0..4 {
            let cyc = sym.step(&mut dag, std::slice::from_ref(&x), &m.output_drivers);
            outs.push(cyc.output(&m, "y"));
        }
        let mut sim = Simulator::new(m.clone()).unwrap();
        for value in solved_values(&dag, &outs) {
            let expect = sim.output("y");
            sim.step_with(&[("x", Bv::from_u64(8, 5))]);
            assert_eq!(value, expect);
        }
    }

    #[test]
    fn symbolic_memory_matches_concrete() {
        let mut b = ModuleBuilder::new("memmod");
        let we = b.input("we", 1);
        let addr = b.input("addr", 3);
        let data = b.input("data", 8);
        let mem = b.mem("m", 3, 8, 6); // deliberately non-power-of-two depth
        b.mem_write(mem, we, addr, data);
        let rd = b.mem_read(mem, addr);
        b.output("q", rd);
        let m = b.finish().unwrap();

        let stim: Vec<(u64, u64, u64)> = vec![
            (1, 2, 0xAA),
            (1, 7, 0xBB), // addr 7 wraps to 1 (depth 6)
            (0, 2, 0x00),
            (1, 1, 0xCC),
            (0, 1, 0x00),
            (0, 7, 0x00),
        ];

        let mut dag = WordDag::new();
        let mut sym = SymbolicSim::new(&mut dag, &m, InitState::Reset).unwrap();
        let mut words = Vec::new();
        for &(we_v, a_v, d_v) in &stim {
            let ins = vec![
                dag.constant(&Bv::from_u64(1, we_v)),
                dag.constant(&Bv::from_u64(3, a_v)),
                dag.constant(&Bv::from_u64(8, d_v)),
            ];
            let cyc = sym.step(&mut dag, &ins, &m.output_drivers);
            words.push(cyc.output(&m, "q"));
        }
        let values = solved_values(&dag, &words);

        let mut sim = Simulator::new(m.clone()).unwrap();
        for (i, &(we_v, a_v, d_v)) in stim.iter().enumerate() {
            let expect = {
                sim.poke("we", Bv::from_u64(1, we_v));
                sim.poke("addr", Bv::from_u64(3, a_v));
                sim.poke("data", Bv::from_u64(8, d_v));
                let o = sim.output("q");
                sim.step();
                o
            };
            assert_eq!(values[i], expect, "cycle {i}");
        }
    }

    #[test]
    fn a_step_evaluates_only_what_is_demanded_and_read() {
        // `y` muxes on a constant select, and the register's enable is
        // constant 0: neither the untaken arm nor the register's D input
        // (both products) is evaluated, and a step that demands nothing
        // evaluates only what the clock edge reads.
        let mut b = ModuleBuilder::new("lazy");
        let x = b.input("x", 8);
        let sq = b.mul(x, x);
        let one = b.lit(1, 1);
        let y = b.mux(one, x, sq);
        b.output("y", y);
        let r = b.reg("r", 8, Bv::zero(8));
        let cube = b.mul(sq, x);
        b.connect_reg(r, cube);
        let off = b.lit(1, 0);
        b.reg_enable(r, off);
        let q = b.reg_q(r);
        b.output("q", q);
        let m = b.finish().unwrap();

        let mut dag = WordDag::new();
        let mut sym = SymbolicSim::new(&mut dag, &m, InitState::Reset).unwrap();
        let xw = dag.leaf(8);
        let before = dag.len();
        let cyc = sym.step(&mut dag, &[xw], &m.output_drivers[..1]);
        assert_eq!(cyc.output(&m, "y"), xw);
        assert_eq!(cyc.node(sq), None);
        assert_eq!(cyc.node(cube), None);
        assert_eq!(cyc.node(q), None);
        assert_eq!(dag.len(), before, "nothing new was built");
        let cyc = sym.step(&mut dag, &[xw], &[]);
        assert_eq!(cyc.node(y), None);
        // Demanding everything evaluates every node.
        let all: Vec<_> = m.node_ids().collect();
        let cyc = sym.step(&mut dag, &[xw], &all);
        assert!(all.iter().all(|&id| cyc.node(id).is_some()));
        assert_eq!(cyc.output(&m, "q"), dag.constant(&Bv::zero(8)));
    }

    #[test]
    fn oversized_memory_rejected() {
        let mut b = ModuleBuilder::new("big");
        let addr = b.input("addr", 12);
        let mem = b.mem("huge", 12, 8, 4096);
        let rd = b.mem_read(mem, addr);
        b.output("q", rd);
        let m = b.finish().unwrap();
        match SymbolicSim::new(&mut WordDag::new(), &m, InitState::Reset) {
            Err(SecError::MemTooLarge { depth, .. }) => assert_eq!(depth, 4096),
            other => panic!("expected MemTooLarge, got {other:?}"),
        }
    }
}
