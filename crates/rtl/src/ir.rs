//! The word-level synchronous IR shared by the whole workspace.
//!
//! A [`Module`] is a directed acyclic graph of combinational [`Node`]s plus
//! sequential elements ([`Reg`]s and [`Mem`]s) and sub-module [`Instance`]s.
//! Acyclicity is structural: every node may only reference nodes with a
//! smaller id, so combinational loops cannot be expressed at all (state
//! elements break cycles — a register's `next` may reference any node).
//!
//! The same IR serves three masters, mirroring the paper's methodology:
//!
//! * the cycle-accurate RTL simulator ([`crate::Simulator`]) executes it,
//! * the SLM elaborator (`dfv-slmir`) *produces* purely combinational
//!   instances of it from conditioned C-like source ("inferring a
//!   hardware-like model statically"),
//! * the sequential equivalence checker (`dfv-sec`) bit-blasts it.

use std::collections::HashMap;
use std::fmt;

use dfv_bits::Bv;

/// Identifies a combinational node within one [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Identifies a register within one [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegId(pub(crate) u32);

/// Identifies a memory within one [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemId(pub(crate) u32);

/// Identifies a sub-module instance within one [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RegId {
    /// The raw index of this register.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl MemId {
    /// The raw index of this memory.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl InstId {
    /// The raw index of this instance.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A named, sized port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name, unique among ports of the module.
    pub name: String,
    /// Width in bits.
    pub width: u32,
}

/// Unary operators. Reductions produce a 1-bit result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise NOT.
    Not,
    /// Two's-complement negation.
    Neg,
    /// Reduction AND (1 bit).
    RedAnd,
    /// Reduction OR (1 bit).
    RedOr,
    /// Reduction XOR / parity (1 bit).
    RedXor,
}

/// Binary operators. Arithmetic/logic ops require equal operand widths and
/// produce that width; comparisons produce 1 bit; shifts take an arbitrary
///-width amount and produce the left operand's width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Modular addition.
    Add,
    /// Modular subtraction.
    Sub,
    /// Modular multiplication (low half).
    Mul,
    /// Unsigned division (divide-by-zero yields all-ones).
    UDiv,
    /// Unsigned remainder (by zero yields the dividend).
    URem,
    /// Signed division truncating toward zero.
    SDiv,
    /// Signed remainder (sign of dividend).
    SRem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left by a dynamic amount.
    Shl,
    /// Logical shift right by a dynamic amount.
    LShr,
    /// Arithmetic shift right by a dynamic amount.
    AShr,
    /// Equality (1 bit).
    Eq,
    /// Inequality (1 bit).
    Ne,
    /// Unsigned less-than (1 bit).
    ULt,
    /// Unsigned less-or-equal (1 bit).
    ULe,
    /// Signed less-than (1 bit).
    SLt,
    /// Signed less-or-equal (1 bit).
    SLe,
}

impl BinOp {
    /// Whether this operator produces a 1-bit result regardless of operand
    /// width.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::ULt | BinOp::ULe | BinOp::SLt | BinOp::SLe
        )
    }

    /// Whether this operator is a shift (whose right operand width is
    /// unconstrained).
    pub fn is_shift(self) -> bool {
        matches!(self, BinOp::Shl | BinOp::LShr | BinOp::AShr)
    }
}

/// One combinational node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// The value of input port `inputs[idx]`.
    Input(usize),
    /// A constant.
    Const(Bv),
    /// The current (Q) output of a register.
    RegQ(RegId),
    /// The registered read data of memory read port `(mem, port_idx)`.
    MemReadData(MemId, usize),
    /// The value of output `out_idx` of sub-module instance `inst`.
    InstOut(InstId, usize),
    /// A unary operation.
    Un(UnOp, NodeId),
    /// A binary operation.
    Bin(BinOp, NodeId, NodeId),
    /// A two-way multiplexer: `if sel { t } else { f }` (`sel` is 1 bit).
    Mux {
        /// 1-bit select.
        sel: NodeId,
        /// Value when `sel` is 1.
        t: NodeId,
        /// Value when `sel` is 0.
        f: NodeId,
    },
    /// Inclusive part-select `src[hi:lo]`.
    Slice {
        /// Source node.
        src: NodeId,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
    /// Concatenation `{hi, lo}` (first operand becomes the MSBs).
    Concat(NodeId, NodeId),
    /// Zero-extension to the given width.
    Zext(NodeId, u32),
    /// Sign-extension to the given width.
    Sext(NodeId, u32),
}

impl Node {
    /// Calls `f` for each combinational operand of this node, in operand
    /// order. Sources (inputs, constants, register and memory outputs,
    /// instance outputs) have none.
    pub fn for_each_operand(&self, mut f: impl FnMut(NodeId)) {
        match self {
            Node::Input(_)
            | Node::Const(_)
            | Node::RegQ(_)
            | Node::MemReadData(..)
            | Node::InstOut(..) => {}
            Node::Un(_, a) | Node::Zext(a, _) | Node::Sext(a, _) | Node::Slice { src: a, .. } => {
                f(*a)
            }
            Node::Bin(_, a, b) | Node::Concat(a, b) => {
                f(*a);
                f(*b);
            }
            Node::Mux { sel, t, f: fv } => {
                f(*sel);
                f(*t);
                f(*fv);
            }
        }
    }
}

/// A D-type register, clocked by the module's single implicit clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Reg {
    /// Register name, unique among registers of the module.
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Reset / initial value, applied by [`crate::Simulator::reset`].
    pub init: Bv,
    /// The D input; `None` until connected (a check error if left open).
    pub next: Option<NodeId>,
    /// Optional clock-enable (1 bit). When 0 the register holds its value.
    pub en: Option<NodeId>,
}

/// A write port of a memory.
#[derive(Debug, Clone, PartialEq)]
pub struct WritePort {
    /// 1-bit write enable.
    pub en: NodeId,
    /// Address (width = the memory's address width).
    pub addr: NodeId,
    /// Write data (width = the memory's data width).
    pub data: NodeId,
}

/// A synchronous-read port of a memory: the address is sampled at the clock
/// edge and the (pre-write, "read-first") data appears one cycle later via
/// [`Node::MemReadData`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReadPort {
    /// Address (width = the memory's address width).
    pub addr: NodeId,
}

/// A synchronous memory with one-cycle read latency — the canonical
/// SLM-vs-RTL timing divergence of the paper's §3.2 ("the SLM may model a
/// memory simply as a static array in C ... while the RTL implements a real
/// memory that has a delay of one clock cycle").
#[derive(Debug, Clone, PartialEq)]
pub struct Mem {
    /// Memory name, unique among memories of the module.
    pub name: String,
    /// Address width; the depth is `2^addr_width` unless limited.
    pub addr_width: u32,
    /// Data width.
    pub data_width: u32,
    /// Number of words (`<= 2^addr_width`). Out-of-range accesses wrap
    /// modulo the depth.
    pub depth: usize,
    /// Initial contents; missing words initialize to zero.
    pub init: Vec<Bv>,
    /// Write ports.
    pub write_ports: Vec<WritePort>,
    /// Synchronous read ports.
    pub read_ports: Vec<ReadPort>,
}

/// An instantiation of another module within this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name, unique among instances of the module.
    pub name: String,
    /// Name of the instantiated module (resolved within a [`Design`]).
    pub module: String,
    /// Driver node for each input port of the instantiated module, in that
    /// module's input order.
    pub input_conns: Vec<NodeId>,
}

/// One synchronous module: ports, a combinational DAG, registers, memories,
/// and instances of other modules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Input ports.
    pub inputs: Vec<Port>,
    /// Output ports (parallel to [`Module::output_drivers`]).
    pub outputs: Vec<Port>,
    /// The node driving each output port.
    pub output_drivers: Vec<NodeId>,
    /// Combinational nodes in topological (definition) order.
    pub nodes: Vec<Node>,
    /// Cached width of each node.
    pub node_widths: Vec<u32>,
    /// Optional debug names for nodes.
    pub node_names: HashMap<u32, String>,
    /// Registers.
    pub regs: Vec<Reg>,
    /// Memories.
    pub mems: Vec<Mem>,
    /// Sub-module instances.
    pub instances: Vec<Instance>,
}

impl Module {
    /// The width of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this module.
    pub fn width_of(&self, id: NodeId) -> u32 {
        self.node_widths[id.index()]
    }

    /// All node ids of this module, in definition (topological) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Looks up an input port index by name.
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|p| p.name == name)
    }

    /// Looks up an output port index by name.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|p| p.name == name)
    }

    /// Looks up a named combinational node (see
    /// `ModuleBuilder::name_node`) by its debug name.
    pub fn node_named(&self, name: &str) -> Option<NodeId> {
        self.node_names
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .map(|(&raw, _)| NodeId(raw))
    }

    /// Looks up a register by name.
    pub fn reg_index(&self, name: &str) -> Option<RegId> {
        self.regs
            .iter()
            .position(|r| r.name == name)
            .map(|i| RegId(i as u32))
    }

    /// Whether the module is purely combinational (no state, no instances).
    pub fn is_combinational(&self) -> bool {
        self.regs.is_empty() && self.mems.is_empty() && self.instances.is_empty()
    }

    /// Structural size statistics, used as complexity proxies by the
    /// experiment harness.
    pub fn stats(&self) -> ModuleStats {
        let mut op_nodes = 0usize;
        let mut mux_nodes = 0usize;
        for n in &self.nodes {
            match n {
                Node::Un(..) | Node::Bin(..) => op_nodes += 1,
                Node::Mux { .. } => mux_nodes += 1,
                _ => {}
            }
        }
        ModuleStats {
            nodes: self.nodes.len(),
            op_nodes,
            mux_nodes,
            regs: self.regs.len(),
            reg_bits: self.regs.iter().map(|r| r.width as usize).sum(),
            mems: self.mems.len(),
            mem_bits: self
                .mems
                .iter()
                .map(|m| m.depth * m.data_width as usize)
                .sum(),
            instances: self.instances.len(),
        }
    }
}

/// Structural size statistics for a [`Module`]. See [`Module::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleStats {
    /// Total combinational nodes.
    pub nodes: usize,
    /// Unary/binary operator nodes.
    pub op_nodes: usize,
    /// Multiplexer nodes.
    pub mux_nodes: usize,
    /// Register count.
    pub regs: usize,
    /// Total register bits.
    pub reg_bits: usize,
    /// Memory count.
    pub mems: usize,
    /// Total memory bits.
    pub mem_bits: usize,
    /// Instance count.
    pub instances: usize,
}

impl fmt::Display for ModuleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes ({} ops, {} muxes), {} regs ({} bits), {} mems ({} bits), {} instances",
            self.nodes,
            self.op_nodes,
            self.mux_nodes,
            self.regs,
            self.reg_bits,
            self.mems,
            self.mem_bits,
            self.instances
        )
    }
}

/// A collection of modules, one of which is the top for elaboration.
#[derive(Debug, Clone, Default)]
pub struct Design {
    /// Modules, in no particular order; names must be unique.
    pub modules: Vec<Module>,
}

impl Design {
    /// Creates an empty design.
    pub fn new() -> Self {
        Design::default()
    }

    /// Adds a module.
    ///
    /// # Panics
    ///
    /// Panics if a module of the same name already exists.
    pub fn add_module(&mut self, module: Module) {
        assert!(
            self.module(&module.name).is_none(),
            "duplicate module name {:?}",
            module.name
        );
        self.modules.push(module);
    }

    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }
}
