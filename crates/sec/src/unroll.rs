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

use dfv_bits::Bv;
use dfv_rtl::ir::{BinOp, Module, Node};

use crate::spec::{InitState, SecError};
use crate::word::{WordDag, WordId};

/// The largest memory depth the symbolic simulator will expand
/// word-by-word.
pub const MEM_BLAST_LIMIT: usize = 256;

/// Symbolic (word-DAG) state of a flat module.
#[derive(Debug)]
pub struct SymbolicSim<'m> {
    module: &'m Module,
    regs: Vec<WordId>,
    mems: Vec<Vec<WordId>>,
    mem_read_regs: Vec<Vec<WordId>>,
    /// The last step's node words.
    cycle: SymbolicCycle,
}

/// The per-cycle result of a symbolic step: every node's word.
#[derive(Debug, Clone)]
pub struct SymbolicCycle {
    /// Node values, indexed by node id.
    pub nodes: Vec<WordId>,
}

impl SymbolicCycle {
    /// The word for a named output port.
    ///
    /// # Panics
    ///
    /// Panics if the module has no such output (validated specs never hit
    /// this).
    pub fn output(&self, module: &Module, name: &str) -> WordId {
        let idx = module
            .output_index(name)
            .unwrap_or_else(|| panic!("no output port {name:?}"));
        self.nodes[module.output_drivers[idx].index()]
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
        let regs = module.regs.iter().map(|r| state(dag, &r.init)).collect();
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
        Ok(SymbolicSim {
            module,
            regs,
            mems,
            mem_read_regs,
            cycle: SymbolicCycle {
                nodes: Vec::with_capacity(module.nodes.len()),
            },
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

    /// Evaluates one cycle's combinational logic from the given input words
    /// (in input-port order) and then commits the clock edge. The returned
    /// node words stay valid until the next step.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the module's input ports in count
    /// or width — the caller (the checker) constructs them from a validated
    /// spec.
    pub fn step(&mut self, dag: &mut WordDag, inputs: &[WordId]) -> &SymbolicCycle {
        let m = self.module;
        assert_eq!(inputs.len(), m.inputs.len(), "input count mismatch");
        let nodes = &mut self.cycle.nodes;
        nodes.clear();
        for (i, node) in m.nodes.iter().enumerate() {
            let v = match node {
                Node::Input(idx) => {
                    assert_eq!(
                        dag.width(inputs[*idx]),
                        m.node_widths[i],
                        "input width mismatch"
                    );
                    inputs[*idx]
                }
                Node::Const(c) => dag.constant(c),
                Node::RegQ(r) => self.regs[r.index()],
                Node::MemReadData(mm, p) => self.mem_read_regs[mm.index()][*p],
                Node::InstOut(..) => unreachable!("module is flat"),
                Node::Un(op, a) => dag.un(*op, nodes[a.index()]),
                Node::Bin(op, a, b) => dag.bin(*op, nodes[a.index()], nodes[b.index()]),
                Node::Mux { sel, t, f } => {
                    dag.mux(nodes[sel.index()], nodes[t.index()], nodes[f.index()])
                }
                Node::Slice { src, hi, lo } => dag.slice(nodes[src.index()], *hi, *lo),
                Node::Concat(hi, lo) => dag.concat(nodes[hi.index()], nodes[lo.index()]),
                Node::Zext(a, w) => dag.zext(nodes[a.index()], *w),
                Node::Sext(a, w) => dag.sext(nodes[a.index()], *w),
            };
            debug_assert_eq!(dag.width(v), m.node_widths[i]);
            nodes.push(v);
        }
        self.commit(dag);
        &self.cycle
    }

    /// The clock edge: registers, then memories (read-first).
    fn commit(&mut self, dag: &mut WordDag) {
        let m = self.module;
        let nodes = &self.cycle.nodes;
        for (ri, reg) in m.regs.iter().enumerate() {
            let next = nodes[reg.next.expect("checked module").index()];
            self.regs[ri] = match reg.en {
                None => next,
                Some(en) => dag.mux(nodes[en.index()], next, self.regs[ri]),
            };
        }
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
            for (pi, rp) in mem.read_ports.iter().enumerate() {
                let addr = eff_addr(dag, nodes[rp.addr.index()]);
                let mut acc = dag.constant(&Bv::zero(mem.data_width));
                for (wi, &word) in self.mems[mi].iter().enumerate() {
                    let hit = index(dag, addr, wi);
                    acc = dag.mux(hit, word, acc);
                }
                self.mem_read_regs[mi][pi] = acc;
            }
            // Apply writes.
            for wp in &mem.write_ports {
                let en = nodes[wp.en.index()];
                let addr = eff_addr(dag, nodes[wp.addr.index()]);
                let data = nodes[wp.data.index()];
                for wi in 0..mem.depth {
                    let hit = index(dag, addr, wi);
                    let strobe = dag.bin(BinOp::And, en, hit);
                    self.mems[mi][wi] = dag.mux(strobe, data, self.mems[mi][wi]);
                }
            }
        }
    }
}

/// Evaluates a *combinational* module symbolically (no state, one shot).
///
/// # Panics
///
/// Panics if the module has state or instances, or inputs mismatch; callers
/// validate with [`crate::EquivSpec::validate`] first.
pub fn eval_comb_symbolic(dag: &mut WordDag, module: &Module, inputs: &[WordId]) -> SymbolicCycle {
    assert!(module.is_combinational(), "module must be combinational");
    let mut sim = SymbolicSim::new(dag, module, InitState::Reset).expect("comb module");
    sim.step(dag, inputs);
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
            let cyc = sym.step(&mut dag, std::slice::from_ref(&x));
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
            let cyc = sym.step(&mut dag, &ins);
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
