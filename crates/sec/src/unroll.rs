//! Symbolic simulation: executing a flat module over SAT literals.
//!
//! [`SymbolicSim`] mirrors `dfv_rtl::Simulator` cycle for cycle, but every
//! word is a vector of literals, so one symbolic run covers *all* concrete
//! runs. Unrolling a transaction is just stepping the symbolic simulator
//! `k` times.

use dfv_bits::Bv;
use dfv_rtl::ir::{Module, Node};
use dfv_sat::Lit;

use crate::bitblast::BitBlaster;
use crate::spec::{InitState, SecError};

/// The largest memory depth the bit-blaster will expand word-by-word.
pub const MEM_BLAST_LIMIT: usize = 256;

/// Symbolic (literal-vector) state of a flat module.
///
/// Besides the architectural state, the simulator keeps one previous
/// cycle of words: each node's word as consumers read it, and as the
/// bit-blaster produced it (before any hook rewrote it). A node whose
/// operand words did not change since that cycle takes its produced word
/// from there instead of being bit-blasted again. Gate encoding is a pure
/// function of the operand literals plus caches that only grow, so the
/// skipped encoding would have returned exactly that word and allocated
/// no variable and recorded no gate: the CNF is the same, only cheaper to
/// build.
#[derive(Debug)]
pub struct SymbolicSim<'m> {
    module: &'m Module,
    regs: Vec<Vec<Lit>>,
    mems: Vec<Vec<Vec<Lit>>>,
    mem_read_regs: Vec<Vec<Vec<Lit>>>,
    /// The last step's node words as consumers read them (after the hook).
    cycle: SymbolicCycle,
    /// The last step's bit-blasted word of every operator and constant
    /// node (before the hook); empty for the other sources.
    blasted: Vec<Vec<Lit>>,
    /// Whether a step has run yet (the first one has nothing to reuse).
    stepped: bool,
    /// Whether a node's word differs from the step before.
    node_changed: Vec<bool>,
    /// Whether a register's word changed at the last clock edge.
    reg_changed: Vec<bool>,
    /// Whether any word of a memory changed at the last clock edge.
    mem_changed: Vec<bool>,
    /// The buffer each node's word is built in and handed to the hook.
    hook_word: Vec<Lit>,
}

/// The per-cycle result of a symbolic step: every node's literal vector.
#[derive(Debug, Clone)]
pub struct SymbolicCycle {
    /// Node values, indexed by node id.
    pub nodes: Vec<Vec<Lit>>,
}

impl SymbolicCycle {
    /// The word for a named output port.
    ///
    /// # Panics
    ///
    /// Panics if the module has no such output (validated specs never hit
    /// this).
    pub fn output(&self, module: &Module, name: &str) -> Vec<Lit> {
        let idx = module
            .output_index(name)
            .unwrap_or_else(|| panic!("no output port {name:?}"));
        self.nodes[module.output_drivers[idx].index()].clone()
    }
}

impl<'m> SymbolicSim<'m> {
    /// Creates symbolic state for `module` with the given initial-state
    /// convention.
    ///
    /// # Errors
    ///
    /// Returns [`SecError`] if the module is not flat or a memory exceeds
    /// [`MEM_BLAST_LIMIT`].
    pub fn new(bb: &mut BitBlaster, module: &'m Module, init: InitState) -> Result<Self, SecError> {
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
        let regs = module
            .regs
            .iter()
            .map(|r| match init {
                InitState::Reset => bb.constant(&r.init),
                InitState::Free => bb.fresh_word(r.width),
            })
            .collect();
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
                        match init {
                            InitState::Reset => bb.constant(&word),
                            InitState::Free => bb.fresh_word(m.data_width),
                        }
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
                    .map(|_| match init {
                        InitState::Reset => bb.constant(&Bv::zero(m.data_width)),
                        InitState::Free => bb.fresh_word(m.data_width),
                    })
                    .collect()
            })
            .collect();
        let n = module.nodes.len();
        Ok(SymbolicSim {
            module,
            regs,
            mems,
            mem_read_regs,
            cycle: SymbolicCycle {
                nodes: vec![Vec::new(); n],
            },
            blasted: vec![Vec::new(); n],
            stepped: false,
            node_changed: vec![true; n],
            reg_changed: vec![true; module.regs.len()],
            mem_changed: vec![true; module.mems.len()],
            hook_word: Vec::new(),
        })
    }

    /// The module being simulated.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Current symbolic register state (for induction-style checks).
    pub fn reg_state(&self) -> &[Vec<Lit>] {
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
    pub fn step(&mut self, bb: &mut BitBlaster, inputs: &[Vec<Lit>]) -> &SymbolicCycle {
        self.step_hooked(bb, inputs, &mut |_, _, _| {})
    }

    /// Like [`SymbolicSim::step`], but invokes `hook` on every node's word
    /// *after* it is computed and *before* any consumer (downstream node,
    /// register next, memory port) reads it. The hook may rewrite the word
    /// in place — this is how the SAT sweeper substitutes proven-equal
    /// representative literals so the rest of the encoding collapses
    /// through the bit-blaster's gate caches. The hook's `usize` argument
    /// is the node index within the module. It sees every node of every
    /// step, with the same word whether that word was bit-blasted afresh
    /// or reused from the step before.
    ///
    /// # Panics
    ///
    /// As [`SymbolicSim::step`]; additionally if the hook changes a word's
    /// width.
    pub fn step_hooked(
        &mut self,
        bb: &mut BitBlaster,
        inputs: &[Vec<Lit>],
        hook: &mut dyn FnMut(&mut BitBlaster, usize, &mut Vec<Lit>),
    ) -> &SymbolicCycle {
        let m = self.module;
        assert_eq!(inputs.len(), m.inputs.len(), "input count mismatch");
        let mut v = std::mem::take(&mut self.hook_word);
        for (i, node) in m.nodes.iter().enumerate() {
            let w = m.node_widths[i];
            let nodes = &self.cycle.nodes;
            v.clear();
            match node {
                Node::Input(idx) => {
                    assert_eq!(inputs[*idx].len(), w as usize, "input width mismatch");
                    v.extend_from_slice(&inputs[*idx]);
                }
                Node::RegQ(r) => v.extend_from_slice(&self.regs[r.index()]),
                Node::MemReadData(mm, p) => {
                    v.extend_from_slice(&self.mem_read_regs[mm.index()][*p])
                }
                Node::InstOut(..) => unreachable!("module is flat"),
                _ => {
                    // Operators and constants: reuse the last step's word
                    // when no operand changed.
                    let mut stale = !self.stepped;
                    node.for_each_operand(|a| stale |= self.node_changed[a.index()]);
                    if stale {
                        self.blasted[i] = match node {
                            Node::Const(c) => bb.constant(c),
                            Node::Un(op, a) => bb.un_op(*op, &nodes[a.index()]),
                            Node::Bin(op, a, b) => {
                                bb.bin_op(*op, &nodes[a.index()], &nodes[b.index()])
                            }
                            Node::Mux { sel, t, f } => {
                                let s = nodes[sel.index()][0];
                                bb.mux_word(s, &nodes[t.index()], &nodes[f.index()])
                            }
                            Node::Slice { src, hi, lo } => {
                                nodes[src.index()][*lo as usize..=*hi as usize].to_vec()
                            }
                            Node::Concat(hi, lo) => {
                                let mut c = nodes[lo.index()].clone();
                                c.extend_from_slice(&nodes[hi.index()]);
                                c
                            }
                            Node::Zext(a, tw) => {
                                let mut c = nodes[a.index()].clone();
                                c.resize(*tw as usize, bb.false_lit());
                                c
                            }
                            Node::Sext(a, tw) => {
                                let mut c = nodes[a.index()].clone();
                                let sign = *c.last().expect("nonzero width");
                                c.resize(*tw as usize, sign);
                                c
                            }
                            Node::Input(_)
                            | Node::RegQ(_)
                            | Node::MemReadData(..)
                            | Node::InstOut(..) => unreachable!("sources handled above"),
                        };
                    }
                    v.extend_from_slice(&self.blasted[i]);
                }
            }
            debug_assert_eq!(v.len(), w as usize);
            hook(bb, i, &mut v);
            assert_eq!(v.len(), w as usize, "hook must preserve word width");
            let prev = &mut self.cycle.nodes[i];
            self.node_changed[i] = *prev != v;
            if self.node_changed[i] {
                std::mem::swap(prev, &mut v);
            }
        }
        self.hook_word = v;
        self.commit(bb);
        self.stepped = true;
        &self.cycle
    }

    /// The clock edge: registers, then memories (read-first). An update
    /// whose inputs all match the step before reproduces the state it
    /// produced then, which is the current state, so it is skipped.
    fn commit(&mut self, bb: &mut BitBlaster) {
        let m = self.module;
        let nodes = &self.cycle.nodes;
        let changed = &self.node_changed;
        for (ri, reg) in m.regs.iter().enumerate() {
            let next = reg.next.expect("checked module");
            let v = match reg.en {
                None => nodes[next.index()].clone(),
                Some(en) => {
                    if !changed[next.index()] && !changed[en.index()] && !self.reg_changed[ri] {
                        continue;
                    }
                    let e = nodes[en.index()][0];
                    bb.mux_word(e, &nodes[next.index()], &self.regs[ri])
                }
            };
            self.reg_changed[ri] = v != self.regs[ri];
            self.regs[ri] = v;
        }
        for (mi, mem) in m.mems.iter().enumerate() {
            let eff_addr = |bb: &mut BitBlaster, addr: &[Lit]| -> Vec<Lit> {
                if mem.depth == (1usize << mem.addr_width.min(63)) {
                    addr.to_vec()
                } else {
                    // Non-power-of-two depth wraps modulo depth, matching
                    // the concrete simulator.
                    let d = bb.constant(&Bv::from_u64(mem.addr_width, mem.depth as u64));
                    bb.bin_op(dfv_rtl::ir::BinOp::URem, addr, &d)
                }
            };
            let mem_stable = !self.mem_changed[mi];
            // Sample read ports against pre-write contents.
            for (pi, rp) in mem.read_ports.iter().enumerate() {
                if mem_stable && !changed[rp.addr.index()] {
                    continue;
                }
                let addr = eff_addr(bb, &nodes[rp.addr.index()]);
                let mut acc = bb.constant(&Bv::zero(mem.data_width));
                for (wi, word) in self.mems[mi].iter().enumerate() {
                    let idx = bb.constant(&Bv::from_u64(mem.addr_width, wi as u64));
                    let hit = bb.eq_word(&addr, &idx);
                    acc = bb.mux_word(hit, word, &acc);
                }
                self.mem_read_regs[mi][pi] = acc;
            }
            // Apply writes.
            let ports_stable = mem.write_ports.iter().all(|wp| {
                !changed[wp.en.index()] && !changed[wp.addr.index()] && !changed[wp.data.index()]
            });
            if mem_stable && ports_stable {
                continue;
            }
            let mut any_written = false;
            for wp in &mem.write_ports {
                let en = nodes[wp.en.index()][0];
                let addr = eff_addr(bb, &nodes[wp.addr.index()]);
                let data = &nodes[wp.data.index()];
                for wi in 0..mem.depth {
                    let idx = bb.constant(&Bv::from_u64(mem.addr_width, wi as u64));
                    let hit = bb.eq_word(&addr, &idx);
                    let strobe = bb.and_gate(en, hit);
                    let word = bb.mux_word(strobe, data, &self.mems[mi][wi]);
                    if word != self.mems[mi][wi] {
                        any_written = true;
                        self.mems[mi][wi] = word;
                    }
                }
            }
            self.mem_changed[mi] = any_written;
        }
    }
}

/// Evaluates a *combinational* module symbolically (no state, one shot).
///
/// # Panics
///
/// Panics if the module has state or instances, or inputs mismatch; callers
/// validate with [`crate::EquivSpec::validate`] first.
pub fn eval_comb_symbolic(
    bb: &mut BitBlaster,
    module: &Module,
    inputs: &[Vec<Lit>],
) -> SymbolicCycle {
    eval_comb_symbolic_hooked(bb, module, inputs, &mut |_, _, _| {})
}

/// [`eval_comb_symbolic`] with a per-node rewrite hook (see
/// [`SymbolicSim::step_hooked`]).
///
/// # Panics
///
/// As [`eval_comb_symbolic`].
pub fn eval_comb_symbolic_hooked(
    bb: &mut BitBlaster,
    module: &Module,
    inputs: &[Vec<Lit>],
    hook: &mut dyn FnMut(&mut BitBlaster, usize, &mut Vec<Lit>),
) -> SymbolicCycle {
    assert!(module.is_combinational(), "module must be combinational");
    let mut sim = SymbolicSim::new(bb, module, InitState::Reset).expect("comb module");
    sim.step_hooked(bb, inputs, hook);
    sim.cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitblast::model_word;
    use dfv_rtl::{ModuleBuilder, Simulator};
    use dfv_sat::{Budget, SolveResult};

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
        let mut bb = BitBlaster::new();
        let mut sym = SymbolicSim::new(&mut bb, &m, InitState::Reset).unwrap();
        let x = bb.constant(&Bv::from_u64(8, 5));
        let mut outs = Vec::new();
        for _ in 0..4 {
            let cyc = sym.step(&mut bb, std::slice::from_ref(&x));
            outs.push(cyc.output(&m, "y"));
        }
        bb.emit_cone(&outs.concat());
        assert_eq!(bb.solve(&[], &Budget::unlimited()), SolveResult::Sat);
        let mut sim = Simulator::new(m.clone()).unwrap();
        for word in outs {
            let expect = sim.output("y");
            sim.step_with(&[("x", Bv::from_u64(8, 5))]);
            assert_eq!(model_word(bb.solver(), &word), expect);
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

        let mut bb = BitBlaster::new();
        let mut sym = SymbolicSim::new(&mut bb, &m, InitState::Reset).unwrap();
        let mut words = Vec::new();
        for &(we_v, a_v, d_v) in &stim {
            let ins = vec![
                bb.constant(&Bv::from_u64(1, we_v)),
                bb.constant(&Bv::from_u64(3, a_v)),
                bb.constant(&Bv::from_u64(8, d_v)),
            ];
            let cyc = sym.step(&mut bb, &ins);
            words.push(cyc.output(&m, "q"));
        }
        bb.emit_cone(&words.concat());
        assert_eq!(bb.solve(&[], &Budget::unlimited()), SolveResult::Sat);

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
            assert_eq!(model_word(bb.solver(), &words[i]), expect, "cycle {i}");
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
        let mut bb = BitBlaster::new();
        match SymbolicSim::new(&mut bb, &m, InitState::Reset) {
            Err(SecError::MemTooLarge { depth, .. }) => assert_eq!(depth, 4096),
            other => panic!("expected MemTooLarge, got {other:?}"),
        }
    }
}
