//! Symbolic simulation: executing a flat module over words of the
//! [`WordDag`].
//!
//! [`SymbolicSim`] mirrors `dfv_rtl::Simulator` cycle for cycle, but every
//! value is a [`WordId`] of a hash-consed, normalizing word DAG, so one
//! symbolic run covers *all* concrete runs. Unrolling a transaction is
//! just stepping the symbolic simulator `k` times. A node whose operands
//! are the same words as the last time it was evaluated reuses the word
//! it built then, with no DAG call, so a cycle that recomputes settled
//! logic adds nothing to the DAG; nothing is encoded into SAT until the
//! checker lowers the words it reads ([`crate::BitBlaster::lower`]).
//!
//! Stepping is demand-driven: a step evaluates only the nodes the caller
//! asks for (the outputs compared or checked that cycle) and what the
//! clock edge reads, each through the part of its cone that can reach it.
//! A mux whose select folds to a constant evaluates only the taken arm,
//! a register whose enable folds to 0 does not evaluate its D input, and
//! a memory read port's `addr == i` mux chain is built only when a later
//! step reads the port's data, so a cycle whose outputs nobody reads
//! builds only its next state.
//!
//! A sum, difference, negation, constant product or constant left shift
//! whose only user is another one is never interned: its linear form
//! stays pending and the user extends it in place, so an accumulation
//! chain interns one word, its last.

use dfv_bits::Bv;
use dfv_rtl::ir::{BinOp, Mem, Module, Node, NodeId, UnOp};

use crate::spec::{InitState, SecError};
use crate::word::{Lin, WordDag, WordId};

/// The largest memory depth the symbolic simulator will expand
/// word-by-word.
pub const MEM_BLAST_LIMIT: usize = 256;

/// The stamp of a node whose word never changes (a constant).
const ALWAYS: u32 = u32::MAX;

/// The operand words of a node whose last evaluation made no DAG call.
const UNSEEN: [WordId; 3] = [WordId::NONE; 3];

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

/// The registered data of a memory read port.
#[derive(Debug, Clone)]
enum ReadData {
    /// Its word.
    Word(WordId),
    /// The address sampled at the last clock edge and the memory's words
    /// before that edge's writes: the `addr == i` mux chain, built when
    /// the data is first read.
    Sampled { addr: WordId, words: Vec<WordId> },
}

/// Symbolic (word-DAG) state of a flat module.
#[derive(Debug)]
pub struct SymbolicSim<'m> {
    module: &'m Module,
    regs: Vec<WordId>,
    mems: Vec<Vec<WordId>>,
    read_data: Vec<Vec<ReadData>>,
    /// The last step's node words.
    cycle: SymbolicCycle,
    /// Scratch for the evaluation walk: the nodes waiting on operands.
    stack: Vec<NodeId>,
    /// Scratch for the clock edge: the registers' next words.
    next_regs: Vec<WordId>,
    /// The pending linear forms and their nodes, whose word in `cycle`
    /// is [`WordId::NONE`] while they wait.
    lins: Vec<(NodeId, Lin)>,
}

/// The per-cycle result of a symbolic step: the word of every node the
/// step evaluated.
#[derive(Debug, Clone)]
pub struct SymbolicCycle {
    /// Per node, indexed by node id.
    slots: Vec<Slot>,
    /// The current step's stamp.
    epoch: u32,
}

/// One node's state in a [`SymbolicCycle`], kept together so a step
/// touches one place per node.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Its word, meaningful where `stamp` matches; [`WordId::NONE`] while
    /// its linear form is pending.
    word: WordId,
    /// The step that last evaluated it ([`ALWAYS`] for constants).
    stamp: u32,
    /// The operand words of its last DAG call, or [`UNSEEN`]. While they
    /// recur, `word` is reused.
    seen: [WordId; 3],
    /// Whether it is a sum, difference, negation, product or left shift
    /// whose only user is another one, reading it linearly: its linear
    /// form is left pending for that user to extend.
    defer: bool,
}

impl SymbolicCycle {
    /// The word of node `id`, if this step evaluated it.
    pub fn node(&self, id: NodeId) -> Option<WordId> {
        self.ready(id).then(|| self.slots[id.index()].word)
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

    /// Whether this step evaluated `id` (its word may still be pending).
    fn ready(&self, id: NodeId) -> bool {
        let s = self.slots[id.index()].stamp;
        s == self.epoch || s == ALWAYS
    }

    fn set(&mut self, id: NodeId, word: WordId) {
        let slot = &mut self.slots[id.index()];
        slot.word = word;
        slot.stamp = self.epoch;
    }
}

/// Whether `node` is linear in the operands [`scan`] tracks.
fn is_linear(node: &Node) -> bool {
    matches!(
        node,
        Node::Un(UnOp::Neg, _) | Node::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl, ..)
    )
}

/// One pass over a module's nodes: the cycle with every constant
/// interned, and marked which nodes [`SymbolicSim`] may leave pending —
/// linear nodes whose one use in the whole module is an operand that a
/// linear node reads linearly (not a shift amount).
fn scan(dag: &mut WordDag, m: &Module) -> SymbolicCycle {
    // Per node, its uses so far (none, one linear use, or anything else)
    // in the low bits, and whether it is linear.
    const ONE_LINEAR: u8 = 1;
    const OTHER: u8 = 2;
    const LINEAR: u8 = 4;
    let n = m.nodes.len();
    let mut cycle = SymbolicCycle {
        slots: vec![
            Slot {
                word: WordId::default(),
                stamp: 0,
                seen: UNSEEN,
                defer: false,
            };
            n
        ],
        epoch: 0,
    };
    let mut uses = vec![0u8; n];
    let linear = |uses: &mut [u8], o: NodeId| {
        let u = &mut uses[o.index()];
        *u = *u & LINEAR | if *u & !LINEAR == 0 { ONE_LINEAR } else { OTHER };
    };
    let other = |uses: &mut [u8], o: NodeId| uses[o.index()] = uses[o.index()] & LINEAR | OTHER;
    for (i, node) in m.nodes.iter().enumerate() {
        if is_linear(node) {
            uses[i] |= LINEAR;
        }
        match *node {
            // Constants are the same word on every cycle: intern them once.
            Node::Const(ref c) => {
                cycle.slots[i].word = dag.constant(c);
                cycle.slots[i].stamp = ALWAYS;
            }
            Node::Un(UnOp::Neg, a) => linear(&mut uses, a),
            Node::Bin(BinOp::Shl, a, b) => {
                linear(&mut uses, a);
                other(&mut uses, b);
            }
            Node::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul, a, b) => {
                linear(&mut uses, a);
                linear(&mut uses, b);
            }
            _ => node.for_each_operand(|o| other(&mut uses, o)),
        }
    }
    let ports = m.mems.iter().flat_map(|mem| {
        let reads = mem.read_ports.iter().map(|rp| rp.addr);
        let writes = mem
            .write_ports
            .iter()
            .flat_map(|wp| [wp.en, wp.addr, wp.data]);
        reads.chain(writes)
    });
    let regs = m.regs.iter().flat_map(|r| r.next.into_iter().chain(r.en));
    for o in m.output_drivers.iter().copied().chain(regs).chain(ports) {
        other(&mut uses, o);
    }
    for (slot, &u) in cycle.slots.iter_mut().zip(&uses) {
        slot.defer = u == LINEAR | ONE_LINEAR;
    }
    cycle
}

/// The word a memory address selects: `addr`, wrapped modulo a
/// non-power-of-two depth as the concrete simulator wraps it.
fn eff_addr(dag: &mut WordDag, mem: &Mem, addr: WordId) -> WordId {
    if mem.depth == (1usize << mem.addr_width.min(63)) {
        addr
    } else {
        let d = dag.constant(&Bv::from_u64(mem.addr_width, mem.depth as u64));
        dag.bin(BinOp::URem, addr, d)
    }
}

/// `addr == wi`.
fn hits(dag: &mut WordDag, mem: &Mem, addr: WordId, wi: usize) -> WordId {
    let idx = dag.constant(&Bv::from_u64(mem.addr_width, wi as u64));
    dag.bin(BinOp::Eq, addr, idx)
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
        let read_data = module
            .mems
            .iter()
            .map(|m| {
                m.read_ports
                    .iter()
                    .map(|_| ReadData::Word(state(dag, &Bv::zero(m.data_width))))
                    .collect()
            })
            .collect();
        let cycle = scan(dag, module);
        Ok(SymbolicSim {
            module,
            next_regs: regs.clone(),
            regs,
            mems,
            read_data,
            cycle,
            stack: Vec::new(),
            lins: Vec::new(),
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
        self.evaluate(dag, inputs, demand);
        self.commit(dag, inputs);
        &self.cycle
    }

    /// Evaluates one cycle as [`Self::step`] does, without the clock edge:
    /// the state stays as it is. An unrolling evaluates its last cycle
    /// this way, since nothing reads the state after it.
    ///
    /// # Panics
    ///
    /// As [`Self::step`].
    pub fn evaluate(
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
        &self.cycle
    }

    /// The word of an evaluated node, interning its linear form if it is
    /// pending.
    fn word(&mut self, dag: &mut WordDag, id: NodeId) -> WordId {
        let w = self.cycle.slots[id.index()].word;
        if w != WordId::NONE {
            return w;
        }
        let lin = self.pop_lin(id);
        let w = dag.finish_lin(lin);
        self.cycle.slots[id.index()].word = w;
        w
    }

    /// Whether evaluated node `id`'s linear form is pending.
    fn is_pending(&self, id: NodeId) -> bool {
        self.cycle.slots[id.index()].word == WordId::NONE
    }

    /// Removes node `id`'s pending form from `lins`.
    fn pop_lin(&mut self, id: NodeId) -> Lin {
        let i = self
            .lins
            .iter()
            .rposition(|&(n, _)| n == id)
            .expect("a pending node has a form");
        self.lins.swap_remove(i).1
    }

    /// `scale ·` the value of evaluated node `id` as a linear form: its
    /// pending form, taken (the node's only user is the caller), or its
    /// word's.
    fn lin(&mut self, dag: &mut WordDag, id: NodeId, scale: &Bv) -> Lin {
        match self.take(id) {
            Some(mut lin) => {
                lin.scale(scale);
                lin
            }
            None => dag.lin_of(self.cycle.slots[id.index()].word, scale),
        }
    }

    /// `lin += scale ·` the value of evaluated node `id`, as [`Self::lin`].
    fn extend(&mut self, dag: &mut WordDag, lin: &mut Lin, id: NodeId, scale: &Bv) {
        match self.take(id) {
            Some(other) => dag.lin_merge(lin, other, scale),
            None => dag.lin_add(lin, self.cycle.slots[id.index()].word, scale),
        }
    }

    /// Takes node `id`'s pending form. The node counts as unevaluated
    /// again, so a later demand for it builds its word.
    fn take(&mut self, id: NodeId) -> Option<Lin> {
        if !self.is_pending(id) {
            return None;
        }
        let slot = &mut self.cycle.slots[id.index()];
        slot.stamp = 0;
        slot.seen = UNSEEN;
        Some(self.pop_lin(id))
    }

    /// Evaluates a linear node through linear forms, extending pending
    /// operands in place: `Ok` with the node's form, or `Err` with its
    /// word when a product or shift has no constant factor.
    fn linear(&mut self, dag: &mut WordDag, id: NodeId) -> Result<Lin, WordId> {
        let w = self.module.node_widths[id.index()];
        let one = Bv::from_u64(w, 1);
        Ok(match self.module.nodes[id.index()] {
            Node::Un(UnOp::Neg, a) => self.lin(dag, a, &Bv::ones(w)),
            Node::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) => {
                let mut lin = self.lin(dag, a, &one);
                let scale = if op == BinOp::Add { one } else { Bv::ones(w) };
                self.extend(dag, &mut lin, b, &scale);
                lin
            }
            Node::Bin(BinOp::Mul, a, b) => {
                let factor = |s: &Self, o: NodeId| match s.is_pending(o) {
                    true => None,
                    false => dag.const_value(s.cycle.slots[o.index()].word).cloned(),
                };
                match (factor(self, a), factor(self, b)) {
                    (_, Some(k)) => self.lin(dag, a, &k),
                    (Some(k), _) => self.lin(dag, b, &k),
                    _ => {
                        let (x, y) = (self.word(dag, a), self.word(dag, b));
                        return Err(dag.bin(BinOp::Mul, x, y));
                    }
                }
            }
            Node::Bin(BinOp::Shl, a, b) => {
                let amt = self.word(dag, b);
                let Some(s) = dag.const_value(amt) else {
                    let x = self.word(dag, a);
                    return Err(dag.bin(BinOp::Shl, x, amt));
                };
                let s = s.try_to_u64().map_or(w, |s| s.min(u64::from(w)) as u32);
                let scale = if s >= w { Bv::zero(w) } else { one.shl(s) };
                self.lin(dag, a, &scale)
            }
            _ => unreachable!("a linear node"),
        })
    }

    /// Evaluates linear node `id` through [`Self::linear`]: its word, or
    /// `None` when its form is left pending. With no operand pending, a
    /// node whose operand words are the ones it last built its word from
    /// takes that word again.
    fn linear_node(&mut self, dag: &mut WordDag, id: NodeId) -> Option<WordId> {
        let i = id.index();
        let (a, b) = match self.module.nodes[i] {
            Node::Un(_, a) => (a, None),
            Node::Bin(_, a, b) => (a, Some(b)),
            _ => unreachable!("a linear node"),
        };
        let settled = !self.is_pending(a) && !b.is_some_and(|b| self.is_pending(b));
        let ops = settled.then(|| {
            let w = |o: NodeId| self.cycle.slots[o.index()].word;
            [w(a), b.map_or(WordId::NONE, w), WordId::NONE]
        });
        let slot = &mut self.cycle.slots[i];
        if ops == Some(slot.seen) {
            return Some(slot.word);
        }
        slot.seen = ops.unwrap_or(UNSEEN);
        match self.linear(dag, id) {
            Ok(lin) if self.cycle.slots[id.index()].defer => {
                self.lins.push((id, lin));
                self.cycle.set(id, WordId::NONE);
                self.stack.pop();
                None
            }
            Ok(lin) => Some(dag.finish_lin(lin)),
            Err(w) => Some(w),
        }
    }

    /// The word of node `id` built by `build` from `ops`, or the word it
    /// built last time if `ops` are the operand words it saw then.
    fn via_dag(
        &mut self,
        dag: &mut WordDag,
        id: NodeId,
        ops: [WordId; 3],
        build: impl FnOnce(&mut WordDag) -> WordId,
    ) -> WordId {
        let i = id.index();
        if self.cycle.slots[i].seen == ops {
            return self.cycle.slots[i].word;
        }
        self.cycle.slots[i].seen = ops;
        build(dag)
    }

    /// The data word of read port `pi` of memory `mi`, building its mux
    /// chain on first use.
    fn read_data(&mut self, dag: &mut WordDag, mi: usize, pi: usize) -> WordId {
        let mem = &self.module.mems[mi];
        let slot = &mut self.read_data[mi][pi];
        if let ReadData::Sampled { addr, words } = slot {
            let addr = eff_addr(dag, mem, *addr);
            let mut acc = dag.constant(&Bv::zero(mem.data_width));
            for (wi, &word) in words.iter().enumerate() {
                let hit = hits(dag, mem, addr, wi);
                acc = dag.mux(hit, word, acc);
            }
            *slot = ReadData::Word(acc);
        }
        match slot {
            ReadData::Word(w) => *w,
            ReadData::Sampled { .. } => unreachable!("built above"),
        }
    }

    /// Readies operand `o`: an input or a register is read at once, any
    /// other node not yet evaluated is pushed. Whether it was pushed.
    fn visit(&mut self, inputs: &[WordId], o: NodeId) -> bool {
        if self.cycle.ready(o) {
            return false;
        }
        match self.module.nodes[o.index()] {
            Node::Input(idx) => self.cycle.set(o, inputs[idx]),
            Node::RegQ(r) => self.cycle.set(o, self.regs[r.index()]),
            _ => {
                self.stack.push(o);
                return true;
            }
        }
        false
    }

    /// Evaluates `root` through the part of its cone it reads, with an
    /// explicit stack: a node's operands are evaluated before it, and a
    /// mux with a constant select evaluates only the taken arm.
    fn eval(&mut self, dag: &mut WordDag, inputs: &[WordId], root: NodeId) -> WordId {
        let m = self.module;
        if let Some(w) = self.cycle.node(root) {
            return w;
        }
        self.stack.push(root);
        while let Some(&id) = self.stack.last() {
            if self.cycle.ready(id) {
                self.stack.pop();
                continue;
            }
            let i = id.index();
            let none = WordId::NONE;
            // Each arm first readies the operands it reads. One it has to
            // push sends the walk there, and the node is met again after.
            let v = match m.nodes[i] {
                Node::Input(idx) => inputs[idx],
                Node::Const(_) => unreachable!("constants are interned at creation"),
                Node::RegQ(r) => self.regs[r.index()],
                Node::MemReadData(mm, p) => self.read_data(dag, mm.index(), p),
                Node::InstOut(..) => unreachable!("module is flat"),
                // A constant select reads only the taken arm.
                Node::Mux { sel, t, f } => {
                    if self.visit(inputs, sel) {
                        continue;
                    }
                    let s = self.word(dag, sel);
                    match dag.const_value(s).map(|c| c.bit(0)) {
                        Some(taken) => {
                            let arm = if taken { t } else { f };
                            if self.visit(inputs, arm) {
                                continue;
                            }
                            self.cycle.slots[i].seen = UNSEEN;
                            self.word(dag, arm)
                        }
                        None => {
                            if self.visit(inputs, t) | self.visit(inputs, f) {
                                continue;
                            }
                            let (wt, wf) = (self.word(dag, t), self.word(dag, f));
                            self.via_dag(dag, id, [s, wt, wf], |d| d.mux(s, wt, wf))
                        }
                    }
                }
                // `0 & b` and `ones | b` are their first operand: `b` is
                // read only when `a` does not absorb it.
                Node::Bin(op @ (BinOp::And | BinOp::Or), a, b) => {
                    if self.visit(inputs, a) {
                        continue;
                    }
                    let wa = self.word(dag, a);
                    let absorbs = dag.const_value(wa).is_some_and(|c| match op {
                        BinOp::And => c.is_zero(),
                        _ => c.is_ones(),
                    });
                    if absorbs {
                        self.cycle.slots[i].seen = UNSEEN;
                        wa
                    } else if self.visit(inputs, b) {
                        continue;
                    } else {
                        let wb = self.word(dag, b);
                        self.via_dag(dag, id, [wa, wb, none], |d| d.bin(op, wa, wb))
                    }
                }
                Node::Un(op, a) => {
                    if self.visit(inputs, a) {
                        continue;
                    }
                    if op == UnOp::Neg && (self.cycle.slots[i].defer || self.is_pending(a)) {
                        match self.linear_node(dag, id) {
                            Some(w) => w,
                            None => continue,
                        }
                    } else {
                        let wa = self.word(dag, a);
                        self.via_dag(dag, id, [wa, none, none], |d| d.un(op, wa))
                    }
                }
                Node::Bin(op, a, b) => {
                    if self.visit(inputs, a) | self.visit(inputs, b) {
                        continue;
                    }
                    let linear = matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl);
                    if linear
                        && (self.cycle.slots[i].defer || self.is_pending(a) || self.is_pending(b))
                    {
                        match self.linear_node(dag, id) {
                            Some(w) => w,
                            None => continue,
                        }
                    } else {
                        let (wa, wb) = (self.word(dag, a), self.word(dag, b));
                        self.via_dag(dag, id, [wa, wb, none], |d| d.bin(op, wa, wb))
                    }
                }
                Node::Slice { src, hi, lo } => {
                    if self.visit(inputs, src) {
                        continue;
                    }
                    let ws = self.word(dag, src);
                    self.via_dag(dag, id, [ws, none, none], |d| d.slice(ws, hi, lo))
                }
                Node::Concat(hi, lo) => {
                    if self.visit(inputs, hi) | self.visit(inputs, lo) {
                        continue;
                    }
                    let (wh, wl) = (self.word(dag, hi), self.word(dag, lo));
                    self.via_dag(dag, id, [wh, wl, none], |d| d.concat(wh, wl))
                }
                Node::Zext(a, width) => {
                    if self.visit(inputs, a) {
                        continue;
                    }
                    let wa = self.word(dag, a);
                    self.via_dag(dag, id, [wa, none, none], |d| d.zext(wa, width))
                }
                Node::Sext(a, width) => {
                    if self.visit(inputs, a) {
                        continue;
                    }
                    let wa = self.word(dag, a);
                    self.via_dag(dag, id, [wa, none, none], |d| d.sext(wa, width))
                }
            };
            debug_assert_eq!(dag.width(v), m.node_widths[i]);
            self.cycle.set(id, v);
            self.stack.pop();
        }
        self.word(dag, root)
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
            // Sample read ports against pre-write contents; the data's mux
            // chain waits for a read of it.
            for slot in &mut self.read_data[mi] {
                let addr = reads.next().expect("one word per read port");
                match slot {
                    ReadData::Sampled { addr: a, words } => {
                        *a = addr;
                        words.clone_from(&self.mems[mi]);
                    }
                    ReadData::Word(_) => {
                        *slot = ReadData::Sampled {
                            addr,
                            words: self.mems[mi].clone(),
                        }
                    }
                }
            }
            // Apply writes.
            for _ in &mem.write_ports {
                let Some((en, addr, data)) = writes.next().expect("one entry per write port")
                else {
                    continue;
                };
                let addr = eff_addr(dag, mem, addr);
                for wi in 0..mem.depth {
                    let hit = hits(dag, mem, addr, wi);
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
    sim.evaluate(dag, inputs, &module.output_drivers);
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
    fn a_read_port_builds_its_mux_chain_only_when_its_data_is_read() {
        // Two ROM banks with symbolic addresses. Steps that read only
        // bank 0's data build no `addr == i` compare on bank 1's sampled
        // addresses; a step that reads bank 1's data builds its chain.
        let mut b = ModuleBuilder::new("banks");
        let a0 = b.input("a0", 2);
        let a1 = b.input("a1", 2);
        let m0 = b.mem("bank0", 2, 8, 4);
        let m1 = b.mem("bank1", 2, 8, 4);
        b.mem_init(m0, (0..4).map(|i| Bv::from_u64(8, i)).collect());
        b.mem_init(m1, (0..4).map(|i| Bv::from_u64(8, 0x10 + i)).collect());
        let r0 = b.mem_read(m0, a0);
        let r1 = b.mem_read(m1, a1);
        b.output("q0", r0);
        b.output("q1", r1);
        let m = b.finish().unwrap();

        let mut dag = WordDag::new();
        let mut sym = SymbolicSim::new(&mut dag, &m, InitState::Reset).unwrap();
        let index: Vec<WordId> = (0..4).map(|i| dag.constant(&Bv::from_u64(2, i))).collect();
        let mut sampled = Vec::new();
        for _ in 0..3 {
            let ins = [dag.leaf(2), dag.leaf(2)];
            sampled.push(ins);
            sym.step(&mut dag, &ins, &m.output_drivers[..1]);
        }
        // Whether some `addr == i` was built, by whether building one
        // again adds nothing.
        let compared = |dag: &mut WordDag, addr: WordId| {
            index.iter().all(|&i| {
                let n = dag.len();
                dag.bin(BinOp::Eq, addr, i);
                dag.len() == n
            })
        };
        // Bank 0's data was read on steps 1 and 2, from the addresses
        // sampled on steps 0 and 1; bank 1's never.
        assert!(compared(&mut dag, sampled[0][0]));
        assert!(compared(&mut dag, sampled[1][0]));
        for ins in &sampled {
            assert!(!compared(&mut dag, ins[1]), "bank 1 was compared");
        }
        let ins = [dag.leaf(2), dag.leaf(2)];
        let q1 = sym
            .step(&mut dag, &ins, &m.output_drivers[1..])
            .output(&m, "q1");
        let addr = sampled[2][1];
        assert!(compared(&mut dag, addr), "bank 1's read built no chain");
        for i in 0..4 {
            let v = dag.eval(q1, &mut |_| Bv::from_u64(2, i));
            assert_eq!(v, Bv::from_u64(8, 0x10 + i));
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
