//! Ergonomic construction of [`Module`]s.
//!
//! [`ModuleBuilder`] validates every operation at insertion time (width
//! agreement, operand existence) so that a finished module is correct by
//! construction; [`ModuleBuilder::finish`] additionally runs the structural
//! checks of [`crate::check_module`].

use std::collections::HashSet;

use dfv_bits::Bv;

use crate::check::check_module;
use crate::ir::{
    BinOp, Instance, Mem, MemId, Module, Node, NodeId, Port, ReadPort, Reg, RegId, UnOp, WritePort,
};
use crate::RtlError;

/// Builds a [`Module`] node by node.
///
/// All methods that create nodes return the new [`NodeId`]. Methods panic on
/// *programming errors* (width mismatches, dangling ids) — these are bugs in
/// the generator, not data errors — with messages naming the offending
/// operation.
///
/// # Example
///
/// ```
/// use dfv_bits::Bv;
/// use dfv_rtl::ModuleBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ModuleBuilder::new("accum");
/// let din = b.input("din", 8);
/// let acc = b.reg("acc", 16, Bv::zero(16));
/// let q = b.reg_q(acc);
/// let wide = b.zext(din, 16);
/// let sum = b.add(q, wide);
/// b.connect_reg(acc, sum);
/// b.output("total", b.reg_q(acc));
/// let module = b.finish()?;
/// assert_eq!(module.stats().regs, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModuleBuilder {
    m: Module,
    reg_q_nodes: Vec<NodeId>,
    /// Names are unique per kind: a register may share its name with the
    /// output port it drives, as in Verilog.
    names: HashSet<(&'static str, String)>,
}

impl ModuleBuilder {
    /// Starts building a module with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            m: Module {
                name: name.into(),
                ..Module::default()
            },
            reg_q_nodes: Vec::new(),
            names: HashSet::new(),
        }
    }

    fn push(&mut self, node: Node, width: u32) -> NodeId {
        assert!(width > 0, "node width must be at least 1");
        let id = NodeId(self.m.nodes.len() as u32);
        self.m.nodes.push(node);
        self.m.node_widths.push(width);
        id
    }

    fn width(&self, id: NodeId) -> u32 {
        assert!(
            id.index() < self.m.nodes.len(),
            "node id {id:?} does not belong to this module"
        );
        self.m.node_widths[id.index()]
    }

    fn claim_name(&mut self, kind: &'static str, name: &str) {
        assert!(
            self.names.insert((kind, name.to_string())),
            "duplicate {kind} name {name:?}"
        );
    }

    /// Declares an input port and returns the node carrying its value.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used or `width` is zero.
    pub fn input(&mut self, name: impl Into<String>, width: u32) -> NodeId {
        let name = name.into();
        self.claim_name("port", &name);
        let idx = self.m.inputs.len();
        self.m.inputs.push(Port { name, width });
        self.push(Node::Input(idx), width)
    }

    /// Declares an output port driven by `driver`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used.
    pub fn output(&mut self, name: impl Into<String>, driver: NodeId) {
        let name = name.into();
        self.claim_name("port", &name);
        let width = self.width(driver);
        self.m.outputs.push(Port { name, width });
        self.m.output_drivers.push(driver);
    }

    /// Creates a constant node.
    pub fn constant(&mut self, value: Bv) -> NodeId {
        let w = value.width();
        self.push(Node::Const(value), w)
    }

    /// Shorthand for a `u64` constant of the given width.
    pub fn lit(&mut self, width: u32, value: u64) -> NodeId {
        self.constant(Bv::from_u64(width, value))
    }

    /// Declares a register with a reset value. Connect its D input later
    /// with [`ModuleBuilder::connect_reg`].
    ///
    /// # Panics
    ///
    /// Panics if the name is already used or `init.width() != width`.
    pub fn reg(&mut self, name: impl Into<String>, width: u32, init: Bv) -> RegId {
        let name = name.into();
        self.claim_name("register", &name);
        assert_eq!(
            init.width(),
            width,
            "register {name:?} init width {} != {width}",
            init.width()
        );
        let id = RegId(self.m.regs.len() as u32);
        self.m.regs.push(Reg {
            name,
            width,
            init,
            next: None,
            en: None,
        });
        let q = self.push(Node::RegQ(id), width);
        self.reg_q_nodes.push(q);
        id
    }

    /// The node carrying a register's current (Q) value.
    pub fn reg_q(&self, reg: RegId) -> NodeId {
        self.reg_q_nodes[reg.index()]
    }

    /// Connects a register's D input.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or the register is already connected.
    pub fn connect_reg(&mut self, reg: RegId, next: NodeId) {
        let w = self.width(next);
        let r = &mut self.m.regs[reg.index()];
        assert_eq!(
            r.width, w,
            "register {:?} next width {w} != {}",
            r.name, r.width
        );
        assert!(r.next.is_none(), "register {:?} connected twice", r.name);
        r.next = Some(next);
    }

    /// Sets a register's clock enable (1-bit).
    ///
    /// # Panics
    ///
    /// Panics if `en` is not one bit wide.
    pub fn reg_enable(&mut self, reg: RegId, en: NodeId) {
        assert_eq!(self.width(en), 1, "register enable must be one bit");
        self.m.regs[reg.index()].en = Some(en);
    }

    /// Declares a memory. `depth` words of `data_width` bits, addressed by
    /// `addr_width` bits.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used, `depth` is zero or exceeds
    /// `2^addr_width`, or any width is zero.
    pub fn mem(
        &mut self,
        name: impl Into<String>,
        addr_width: u32,
        data_width: u32,
        depth: usize,
    ) -> MemId {
        let name = name.into();
        self.claim_name("memory", &name);
        assert!(
            data_width > 0 && addr_width > 0,
            "memory widths must be nonzero"
        );
        assert!(depth > 0, "memory depth must be nonzero");
        if addr_width < usize::BITS {
            assert!(
                depth <= 1usize << addr_width,
                "memory {name:?} depth {depth} exceeds 2^{addr_width}"
            );
        }
        let id = MemId(self.m.mems.len() as u32);
        self.m.mems.push(Mem {
            name,
            addr_width,
            data_width,
            depth,
            init: Vec::new(),
            write_ports: Vec::new(),
            read_ports: Vec::new(),
        });
        id
    }

    /// Sets a memory's initial contents (missing words are zero).
    ///
    /// # Panics
    ///
    /// Panics if `init` is longer than the depth or a word has the wrong
    /// width.
    pub fn mem_init(&mut self, mem: MemId, init: Vec<Bv>) {
        let m = &mut self.m.mems[mem.index()];
        assert!(init.len() <= m.depth, "memory init longer than depth");
        for w in &init {
            assert_eq!(w.width(), m.data_width, "memory init word width mismatch");
        }
        m.init = init;
    }

    /// Adds a synchronous read port and returns the node carrying the
    /// registered read data (valid one cycle after the address).
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not have the memory's address width.
    pub fn mem_read(&mut self, mem: MemId, addr: NodeId) -> NodeId {
        let (aw, dw) = {
            let m = &self.m.mems[mem.index()];
            (m.addr_width, m.data_width)
        };
        assert_eq!(self.width(addr), aw, "memory read address width mismatch");
        let port_idx = self.m.mems[mem.index()].read_ports.len();
        self.m.mems[mem.index()].read_ports.push(ReadPort { addr });
        self.push(Node::MemReadData(mem, port_idx), dw)
    }

    /// Adds a write port (write-enable gated, sampled at the clock edge).
    ///
    /// # Panics
    ///
    /// Panics on width mismatches (`en` 1 bit, `addr`/`data` matching the
    /// memory).
    pub fn mem_write(&mut self, mem: MemId, en: NodeId, addr: NodeId, data: NodeId) {
        let (aw, dw) = {
            let m = &self.m.mems[mem.index()];
            (m.addr_width, m.data_width)
        };
        assert_eq!(self.width(en), 1, "memory write enable must be one bit");
        assert_eq!(self.width(addr), aw, "memory write address width mismatch");
        assert_eq!(self.width(data), dw, "memory write data width mismatch");
        self.m.mems[mem.index()]
            .write_ports
            .push(WritePort { en, addr, data });
    }

    pub(crate) fn bin(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        let (wa, wb) = (self.width(a), self.width(b));
        let out_width = if op.is_shift() {
            wa
        } else {
            assert_eq!(wa, wb, "{op:?} operand widths differ ({wa} vs {wb})");
            if op.is_comparison() {
                1
            } else {
                wa
            }
        };
        self.push(Node::Bin(op, a, b), out_width)
    }

    /// `a + b` (modular, equal widths).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Add, a, b)
    }

    /// `a - b` (modular, equal widths).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Sub, a, b)
    }

    /// `a * b` (low half, equal widths).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Mul, a, b)
    }

    /// Unsigned `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn udiv(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::UDiv, a, b)
    }

    /// Unsigned `a % b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn urem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::URem, a, b)
    }

    /// Signed `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn sdiv(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::SDiv, a, b)
    }

    /// Signed `a % b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn srem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::SRem, a, b)
    }

    /// Bitwise `a & b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::And, a, b)
    }

    /// Bitwise `a | b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Or, a, b)
    }

    /// Bitwise `a ^ b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Xor, a, b)
    }

    /// `a << b` with a dynamic amount.
    pub fn shl(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Shl, a, b)
    }

    /// Logical `a >> b` with a dynamic amount.
    pub fn lshr(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::LShr, a, b)
    }

    /// Arithmetic `a >>> b` with a dynamic amount.
    pub fn ashr(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::AShr, a, b)
    }

    /// `a == b` (1 bit).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn eq(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Eq, a, b)
    }

    /// `a != b` (1 bit).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn ne(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::Ne, a, b)
    }

    /// Unsigned `a < b` (1 bit).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn ult(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::ULt, a, b)
    }

    /// Unsigned `a <= b` (1 bit).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn ule(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::ULe, a, b)
    }

    /// Signed `a < b` (1 bit).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn slt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::SLt, a, b)
    }

    /// Signed `a <= b` (1 bit).
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn sle(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.bin(BinOp::SLe, a, b)
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        let w = self.width(a);
        self.push(Node::Un(UnOp::Not, a), w)
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        let w = self.width(a);
        self.push(Node::Un(UnOp::Neg, a), w)
    }

    /// Reduction AND (1 bit).
    pub fn red_and(&mut self, a: NodeId) -> NodeId {
        self.push(Node::Un(UnOp::RedAnd, a), 1)
    }

    /// Reduction OR (1 bit).
    pub fn red_or(&mut self, a: NodeId) -> NodeId {
        self.push(Node::Un(UnOp::RedOr, a), 1)
    }

    /// Reduction XOR (1 bit).
    pub fn red_xor(&mut self, a: NodeId) -> NodeId {
        self.push(Node::Un(UnOp::RedXor, a), 1)
    }

    /// Two-way multiplexer `if sel { t } else { f }`.
    ///
    /// # Panics
    ///
    /// Panics if `sel` is not 1 bit or `t`/`f` widths differ.
    pub fn mux(&mut self, sel: NodeId, t: NodeId, f: NodeId) -> NodeId {
        assert_eq!(self.width(sel), 1, "mux select must be one bit");
        let (wt, wf) = (self.width(t), self.width(f));
        assert_eq!(wt, wf, "mux data widths differ ({wt} vs {wf})");
        self.push(Node::Mux { sel, t, f }, wt)
    }

    /// Inclusive part-select `src[hi:lo]`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is outside the source width.
    pub fn slice(&mut self, src: NodeId, hi: u32, lo: u32) -> NodeId {
        let w = self.width(src);
        assert!(
            hi >= lo && hi < w,
            "slice [{hi}:{lo}] invalid for width {w}"
        );
        self.push(Node::Slice { src, hi, lo }, hi - lo + 1)
    }

    /// Single-bit select `src[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the source width.
    pub fn bit(&mut self, src: NodeId, i: u32) -> NodeId {
        self.slice(src, i, i)
    }

    /// Concatenation `{hi, lo}`.
    pub fn concat(&mut self, hi: NodeId, lo: NodeId) -> NodeId {
        let w = self.width(hi) + self.width(lo);
        self.push(Node::Concat(hi, lo), w)
    }

    /// Zero-extension to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is narrower than the source.
    pub fn zext(&mut self, src: NodeId, width: u32) -> NodeId {
        let w = self.width(src);
        assert!(width >= w, "zext target {width} narrower than source {w}");
        if width == w {
            return src;
        }
        self.push(Node::Zext(src, width), width)
    }

    /// Sign-extension to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is narrower than the source.
    pub fn sext(&mut self, src: NodeId, width: u32) -> NodeId {
        let w = self.width(src);
        assert!(width >= w, "sext target {width} narrower than source {w}");
        if width == w {
            return src;
        }
        self.push(Node::Sext(src, width), width)
    }

    /// Truncation to the low `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or wider than the source.
    pub fn trunc(&mut self, src: NodeId, width: u32) -> NodeId {
        let w = self.width(src);
        assert!(width <= w, "trunc target {width} wider than source {w}");
        if width == w {
            return src;
        }
        self.slice(src, width - 1, 0)
    }

    /// Instantiates another module. `input_conns` drive the instance's
    /// inputs in port order; returns the nodes carrying the instance's
    /// outputs in port order.
    ///
    /// Widths are validated against `module`'s ports immediately.
    ///
    /// # Panics
    ///
    /// Panics if the connection count or a width differs, or the instance
    /// name is taken.
    pub fn instantiate(
        &mut self,
        name: impl Into<String>,
        module: &Module,
        input_conns: &[NodeId],
    ) -> Vec<NodeId> {
        let name = name.into();
        self.claim_name("instance", &name);
        assert_eq!(
            input_conns.len(),
            module.inputs.len(),
            "instance {name:?} of {:?}: expected {} input connections, got {}",
            module.name,
            module.inputs.len(),
            input_conns.len()
        );
        for (c, p) in input_conns.iter().zip(&module.inputs) {
            assert_eq!(
                self.width(*c),
                p.width,
                "instance {name:?}: width mismatch on port {:?}",
                p.name
            );
        }
        let inst_id = crate::ir::InstId(self.m.instances.len() as u32);
        self.m.instances.push(Instance {
            name,
            module: module.name.clone(),
            input_conns: input_conns.to_vec(),
        });
        module
            .outputs
            .iter()
            .enumerate()
            .map(|(i, p)| self.push(Node::InstOut(inst_id, i), p.width))
            .collect()
    }

    /// The width of an already-created node — useful for code generators
    /// that need to adapt operand widths on the fly.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this builder.
    pub fn node_width(&self, id: NodeId) -> u32 {
        self.width(id)
    }

    /// Resizes to `width`, zero-extending or truncating as needed.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn resize_zext(&mut self, src: NodeId, width: u32) -> NodeId {
        if width >= self.width(src) {
            self.zext(src, width)
        } else {
            self.trunc(src, width)
        }
    }

    /// Resizes to `width`, sign-extending or truncating as needed.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn resize_sext(&mut self, src: NodeId, width: u32) -> NodeId {
        if width >= self.width(src) {
            self.sext(src, width)
        } else {
            self.trunc(src, width)
        }
    }

    /// Attaches a debug name to a node (visible in traces and netlists).
    pub fn name_node(&mut self, id: NodeId, name: impl Into<String>) {
        self.m.node_names.insert(id.0, name.into());
    }

    /// Finishes the module, running structural checks.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError`] if a register is unconnected or any structural
    /// check fails.
    pub fn finish(self) -> Result<Module, RtlError> {
        check_module(&self.m)?;
        Ok(self.m)
    }

    /// Finishes the module **without** structural checks — for tests that
    /// deliberately build broken modules.
    pub fn finish_unchecked(self) -> Module {
        self.m
    }
}
