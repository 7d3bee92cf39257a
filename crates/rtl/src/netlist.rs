//! A line-oriented text netlist format for [`Design`]s and [`Module`]s.
//!
//! The format is the workspace's interchange representation — the analogue
//! of passing Verilog between tools. It is deliberately simple: one
//! declaration per line, nodes in id order, `#` comments.
//!
//! ```text
//! module counter
//!   input en 1
//!   output count 8
//!   reg count_r 8 8'h00
//!   n0 = input 0 : 1
//!   n1 = regq 0 : 8
//!   n2 = const 8'h01 : 8
//!   n3 = add n1 n2 : 8
//!   next 0 n3
//!   enable 0 n0
//!   drive 0 n1
//! end
//! ```
//!
//! Netlist text is a trust boundary — the `dfv-serve` daemon parses what
//! clients send — so the parser refuses any width above [`MAX_WIDTH`]:
//! a literal, port, register, memory or node width is a number on one
//! line, and without a cap a dozen bytes such as `4000000000'h0` would
//! make the parser allocate half a gigabyte.

use dfv_bits::Bv;

use crate::check::check_module;
use crate::ir::{
    BinOp, Design, InstId, Instance, Mem, MemId, Module, Node, NodeId, Port, ReadPort, Reg, RegId,
    UnOp, WritePort,
};
use crate::RtlError;

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

fn binop_from(name: &str) -> Option<BinOp> {
    Some(match name {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "udiv" => BinOp::UDiv,
        "urem" => BinOp::URem,
        "sdiv" => BinOp::SDiv,
        "srem" => BinOp::SRem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "lshr" => BinOp::LShr,
        "ashr" => BinOp::AShr,
        "eq" => BinOp::Eq,
        "ne" => BinOp::Ne,
        "ult" => BinOp::ULt,
        "ule" => BinOp::ULe,
        "slt" => BinOp::SLt,
        "sle" => BinOp::SLe,
        _ => return None,
    })
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

fn unop_from(name: &str) -> Option<UnOp> {
    Some(match name {
        "not" => UnOp::Not,
        "neg" => UnOp::Neg,
        "redand" => UnOp::RedAnd,
        "redor" => UnOp::RedOr,
        "redxor" => UnOp::RedXor,
        _ => return None,
    })
}

/// Appends the decimal digits of `v`.
fn push_dec(s: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    s.extend_from_slice(&buf[i..]);
}

/// Appends ` K` for each number.
fn push_nums(s: &mut Vec<u8>, nums: &[u64]) {
    for &n in nums {
        s.push(b' ');
        push_dec(s, n);
    }
}

/// Appends ` nK` for each node reference.
fn push_refs(s: &mut Vec<u8>, ids: &[NodeId]) {
    for &id in ids {
        s.extend_from_slice(b" n");
        push_dec(s, u64::from(id.0));
    }
}

/// Appends `v` as a sized hex literal exactly as its `Display` renders it
/// (`12'h0ab`: one zero-padded digit per started nibble), reading each
/// nibble straight out of the limbs.
fn push_bv(s: &mut Vec<u8>, v: &Bv) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    push_dec(s, u64::from(v.width()));
    s.extend_from_slice(b"'h");
    let limbs = v.limbs();
    for i in (0..v.width().div_ceil(4) as usize).rev() {
        let nib = (limbs[i / 16] >> ((i % 16) * 4)) & 0xF;
        s.push(HEX[nib as usize]);
    }
}

/// Appends `  <kw> <idx> nA ...` and a newline.
fn push_indexed(s: &mut Vec<u8>, kw: &str, idx: usize, ids: &[NodeId]) {
    s.extend_from_slice(kw.as_bytes());
    push_nums(s, &[idx as u64]);
    push_refs(s, ids);
    s.push(b'\n');
}

/// Appends `  <kw> <name> <width>` and a newline.
fn push_port(s: &mut Vec<u8>, kw: &str, p: &Port) {
    s.extend_from_slice(kw.as_bytes());
    s.extend_from_slice(p.name.as_bytes());
    push_nums(s, &[u64::from(p.width)]);
    s.push(b'\n');
}

/// Serializes a module to the text netlist format.
///
/// Tokens go straight into one byte buffer sized up front: no per-line
/// formatting and no intermediate strings.
pub fn write_module(m: &Module) -> String {
    let ports: usize = m
        .mems
        .iter()
        .map(|x| x.read_ports.len() + x.write_ports.len())
        .sum();
    let words: usize = m.mems.iter().map(|x| x.init.len()).sum();
    let lines = m.inputs.len()
        + 2 * m.outputs.len()
        + 3 * m.regs.len()
        + m.mems.len()
        + ports
        + m.instances.len()
        + m.nodes.len()
        + m.node_names.len()
        + 2;
    let mut s = Vec::with_capacity(24 * lines + 8 * words + m.name.len());
    s.extend_from_slice(b"module ");
    s.extend_from_slice(m.name.as_bytes());
    s.push(b'\n');
    for p in &m.inputs {
        push_port(&mut s, "  input ", p);
    }
    for p in &m.outputs {
        push_port(&mut s, "  output ", p);
    }
    for r in &m.regs {
        s.extend_from_slice(b"  reg ");
        s.extend_from_slice(r.name.as_bytes());
        push_nums(&mut s, &[u64::from(r.width)]);
        s.push(b' ');
        push_bv(&mut s, &r.init);
        s.push(b'\n');
    }
    for mem in &m.mems {
        s.extend_from_slice(b"  mem ");
        s.extend_from_slice(mem.name.as_bytes());
        push_nums(
            &mut s,
            &[
                u64::from(mem.addr_width),
                u64::from(mem.data_width),
                mem.depth as u64,
            ],
        );
        for w in &mem.init {
            s.push(b' ');
            push_bv(&mut s, w);
        }
        s.push(b'\n');
    }
    for inst in &m.instances {
        s.extend_from_slice(b"  inst ");
        s.extend_from_slice(inst.name.as_bytes());
        s.push(b' ');
        s.extend_from_slice(inst.module.as_bytes());
        push_refs(&mut s, &inst.input_conns);
        s.push(b'\n');
    }
    for (i, node) in m.nodes.iter().enumerate() {
        s.extend_from_slice(b"  n");
        push_dec(&mut s, i as u64);
        s.extend_from_slice(b" = ");
        match node {
            Node::Input(idx) => {
                s.extend_from_slice(b"input");
                push_nums(&mut s, &[*idx as u64]);
            }
            Node::Const(v) => {
                s.extend_from_slice(b"const ");
                push_bv(&mut s, v);
            }
            Node::RegQ(r) => {
                s.extend_from_slice(b"regq");
                push_nums(&mut s, &[r.index() as u64]);
            }
            Node::MemReadData(mm, p) => {
                s.extend_from_slice(b"memread");
                push_nums(&mut s, &[mm.index() as u64, *p as u64]);
            }
            Node::InstOut(inst, o) => {
                s.extend_from_slice(b"instout");
                push_nums(&mut s, &[u64::from(inst.0), *o as u64]);
            }
            Node::Un(op, a) => {
                s.extend_from_slice(unop_name(*op).as_bytes());
                push_refs(&mut s, &[*a]);
            }
            Node::Bin(op, a, b) => {
                s.extend_from_slice(binop_name(*op).as_bytes());
                push_refs(&mut s, &[*a, *b]);
            }
            Node::Mux { sel, t, f } => {
                s.extend_from_slice(b"mux");
                push_refs(&mut s, &[*sel, *t, *f]);
            }
            Node::Slice { src, hi, lo } => {
                s.extend_from_slice(b"slice");
                push_refs(&mut s, &[*src]);
                push_nums(&mut s, &[u64::from(*hi), u64::from(*lo)]);
            }
            Node::Concat(a, b) => {
                s.extend_from_slice(b"concat");
                push_refs(&mut s, &[*a, *b]);
            }
            Node::Zext(a, tw) => {
                s.extend_from_slice(b"zext");
                push_refs(&mut s, &[*a]);
                push_nums(&mut s, &[u64::from(*tw)]);
            }
            Node::Sext(a, tw) => {
                s.extend_from_slice(b"sext");
                push_refs(&mut s, &[*a]);
                push_nums(&mut s, &[u64::from(*tw)]);
            }
        }
        s.extend_from_slice(b" :");
        push_nums(&mut s, &[u64::from(m.node_widths[i])]);
        s.push(b'\n');
    }
    for (i, r) in m.regs.iter().enumerate() {
        if let Some(n) = r.next {
            push_indexed(&mut s, "  next", i, &[n]);
        }
        if let Some(en) = r.en {
            push_indexed(&mut s, "  enable", i, &[en]);
        }
    }
    for (i, mem) in m.mems.iter().enumerate() {
        for rp in &mem.read_ports {
            push_indexed(&mut s, "  readport", i, &[rp.addr]);
        }
        for wp in &mem.write_ports {
            push_indexed(&mut s, "  write", i, &[wp.en, wp.addr, wp.data]);
        }
    }
    for (i, d) in m.output_drivers.iter().enumerate() {
        push_indexed(&mut s, "  drive", i, &[*d]);
    }
    let mut names: Vec<_> = m.node_names.iter().collect();
    names.sort_unstable_by_key(|(id, _)| **id);
    for (&id, name) in names {
        s.extend_from_slice(b"  name");
        push_refs(&mut s, &[NodeId(id)]);
        s.push(b' ');
        s.extend_from_slice(name.as_bytes());
        s.push(b'\n');
    }
    s.extend_from_slice(b"end\n");
    String::from_utf8(s).expect("names are str and every other byte is ASCII")
}

/// Serializes a whole design (modules in order).
pub fn write_design(d: &Design) -> String {
    d.modules
        .iter()
        .map(write_module)
        .collect::<Vec<_>>()
        .join("\n")
}

/// A cursor over netlist text that yields the whitespace-separated
/// tokens of one line at a time, in a single byte-level pass.
///
/// Lines end at `\n` and are numbered from 0, as `str::lines` numbers
/// them; a `#` ends a line's tokens (the rest is a comment). Whitespace is
/// `char::is_whitespace`, as for `str::split_whitespace`: ASCII bytes are
/// classified on their own, and only a non-ASCII char is decoded.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Scanner<'a> {
    /// Whether the char at `pos` (not ASCII) is whitespace, and its length.
    fn wide_char(&self) -> (bool, usize) {
        let c = self.text[self.pos..]
            .chars()
            .next()
            .expect("pos is on a char boundary");
        (c.is_whitespace(), c.len_utf8())
    }

    /// Moves past the end of the current line. Returns the number of the
    /// line now current, or `None` at the end of the text.
    fn next_line(&mut self) -> Option<usize> {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| b == b'\n')? + 1;
        self.line += 1;
        (self.pos < self.text.len()).then_some(self.line)
    }

    /// The next token of the current line, if any.
    fn token(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let ws = |b: u8| matches!(b, b' ' | b'\t'..=b'\r');
        loop {
            match bytes.get(self.pos) {
                // `next_line` skips whatever a comment holds.
                None | Some(b'\n' | b'#') => return None,
                Some(&b) if b.is_ascii() => {
                    if !ws(b) {
                        break;
                    }
                    self.pos += 1;
                }
                Some(_) => match self.wide_char() {
                    (true, n) => self.pos += n,
                    (false, _) => break,
                },
            }
        }
        let start = self.pos;
        loop {
            match bytes.get(self.pos) {
                None | Some(b'#') => break,
                Some(&b) if b.is_ascii() => {
                    if ws(b) {
                        break;
                    }
                    self.pos += 1;
                }
                Some(_) => match self.wide_char() {
                    (true, _) => break,
                    (false, n) => self.pos += n,
                },
            }
        }
        Some(&self.text[start..self.pos])
    }
}

impl<'a> Iterator for Scanner<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.token()
    }
}

struct Parser<'a> {
    sc: Scanner<'a>,
}

fn perr(line: usize, message: impl Into<String>) -> RtlError {
    RtlError::Parse {
        line: line + 1,
        message: message.into(),
    }
}

fn parse_node_ref(line: usize, tok: &str) -> Result<NodeId, RtlError> {
    let id = tok
        .strip_prefix('n')
        .and_then(|s| s.parse::<u32>().ok())
        .ok_or_else(|| perr(line, format!("expected node reference, found {tok:?}")))?;
    Ok(NodeId(id))
}

fn parse_num<T: std::str::FromStr>(line: usize, tok: &str, what: &str) -> Result<T, RtlError> {
    tok.parse()
        .map_err(|_| perr(line, format!("invalid {what} {tok:?}")))
}

/// The widest value, in bits, a parsed netlist may declare: 65 536 bits,
/// 8 KiB per value. Far above any width the workspace's designs use
/// (their widest packed SLM arrays are 128 bits), and low enough that
/// one netlist line cannot make the parser allocate more than a few
/// kilobytes.
pub const MAX_WIDTH: u32 = 1 << 16;

/// The deepest memory, in words, a parsed netlist may declare: 65 536
/// words, a 16-bit address space. Simulators allocate every word up
/// front, so together with [`MAX_WIDTH`] this bounds what one `mem` line
/// can make a simulation of a client netlist allocate; the workspace's
/// designs use at most 16 words.
pub const MAX_MEM_DEPTH: usize = 1 << 16;

fn width_cap(line: usize, width: u64, what: &str) -> Result<(), RtlError> {
    if width > u64::from(MAX_WIDTH) {
        return Err(perr(
            line,
            format!("{what} {width} exceeds the maximum width {MAX_WIDTH}"),
        ));
    }
    Ok(())
}

/// Parses a width field, refusing anything above [`MAX_WIDTH`].
fn parse_width(line: usize, tok: &str, what: &str) -> Result<u32, RtlError> {
    let width: u32 = parse_num(line, tok, what)?;
    width_cap(line, width.into(), what)?;
    Ok(width)
}

fn parse_bv(line: usize, tok: &str) -> Result<Bv, RtlError> {
    if let Some(v) = small_literal(tok) {
        return Ok(v);
    }
    // Refuse an oversized literal before the general parser allocates
    // storage for its declared width.
    if let Some(width) = tok
        .split_once('\'')
        .and_then(|(w, _)| w.parse::<u64>().ok())
    {
        width_cap(line, width, "literal width")?;
    }
    tok.parse::<Bv>()
        .map_err(|e| perr(line, format!("bad literal {tok:?}: {e}")))
}

/// The fast path of [`parse_bv`]: a sized literal of at most 64 bits with
/// a plain decimal width and a value that fits, accumulated in a `u64`.
/// Anything else returns `None` and goes to the general parser, which
/// accepts or rejects it exactly as it always has.
fn small_literal(tok: &str) -> Option<Bv> {
    let (w, rest) = tok.split_once('\'')?;
    if !(1..=2).contains(&w.len()) || !w.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let width: u32 = w.parse().ok()?;
    if !(1..=64).contains(&width) {
        return None;
    }
    let radix: u64 = match rest.bytes().next()? {
        b'b' | b'B' => 2,
        b'o' | b'O' => 8,
        b'd' | b'D' => 10,
        b'h' | b'H' => 16,
        _ => return None,
    };
    let mut value = 0u64;
    let mut any = false;
    for b in rest.bytes().skip(1) {
        if b == b'_' {
            continue;
        }
        let d = char::from(b).to_digit(radix as u32)?;
        value = value.checked_mul(radix)?.checked_add(u64::from(d))?;
        any = true;
    }
    (any && (width == 64 || value >> width == 0)).then(|| Bv::from_u64(width, value))
}

impl<'a> Parser<'a> {
    fn parse_design(text: &'a str) -> Result<Design, RtlError> {
        let mut p = Parser {
            sc: Scanner {
                text,
                pos: 0,
                line: 0,
            },
        };
        let mut d = Design::new();
        let mut line = (!text.is_empty()).then_some(0);
        while let Some(ln) = line {
            match p.sc.next() {
                Some("module") => {
                    let name =
                        p.sc.next()
                            .ok_or_else(|| perr(ln, "module needs a name"))?
                            .to_string();
                    let m = p.parse_module_body(name)?;
                    check_module(&m)?;
                    d.add_module(m);
                }
                Some(other) => return Err(perr(ln, format!("expected `module`, found {other:?}"))),
                None => {}
            }
            line = p.sc.next_line();
        }
        Ok(d)
    }

    fn parse_module_body(&mut self, name: String) -> Result<Module, RtlError> {
        let mut m = Module {
            name,
            ..Module::default()
        };
        while let Some(ln) = self.sc.next_line() {
            let t = &mut self.sc;
            let Some(kw) = t.next() else {
                continue;
            };
            match kw {
                "end" => return Ok(m),
                "input" | "output" => {
                    let pname = t.next().ok_or_else(|| perr(ln, "port needs a name"))?;
                    let width = parse_width(ln, t.next().unwrap_or(""), "width")?;
                    let port = Port {
                        name: pname.to_string(),
                        width,
                    };
                    if kw == "input" {
                        m.inputs.push(port);
                    } else {
                        m.outputs.push(port);
                        m.output_drivers.push(NodeId(u32::MAX)); // patched by `drive`
                    }
                }
                "reg" => {
                    let rname = t.next().ok_or_else(|| perr(ln, "reg needs a name"))?;
                    let width = parse_width(ln, t.next().unwrap_or(""), "width")?;
                    let init = parse_bv(ln, t.next().unwrap_or(""))?;
                    m.regs.push(Reg {
                        name: rname.to_string(),
                        width,
                        init,
                        next: None,
                        en: None,
                    });
                }
                "mem" => {
                    let mname = t.next().ok_or_else(|| perr(ln, "mem needs a name"))?;
                    let addr_width = parse_width(ln, t.next().unwrap_or(""), "addr width")?;
                    let data_width = parse_width(ln, t.next().unwrap_or(""), "data width")?;
                    let depth: usize = parse_num(ln, t.next().unwrap_or(""), "depth")?;
                    if depth > MAX_MEM_DEPTH {
                        return Err(perr(
                            ln,
                            format!("mem depth {depth} exceeds the maximum depth {MAX_MEM_DEPTH}"),
                        ));
                    }
                    let mut init = Vec::new();
                    for tok in t {
                        init.push(parse_bv(ln, tok)?);
                    }
                    m.mems.push(Mem {
                        name: mname.to_string(),
                        addr_width,
                        data_width,
                        depth,
                        init,
                        write_ports: Vec::new(),
                        read_ports: Vec::new(),
                    });
                }
                "inst" => {
                    let iname = t.next().ok_or_else(|| perr(ln, "inst needs a name"))?;
                    let module = t.next().ok_or_else(|| perr(ln, "inst needs a module"))?;
                    let mut conns = Vec::new();
                    for tok in t {
                        conns.push(parse_node_ref(ln, tok)?);
                    }
                    m.instances.push(Instance {
                        name: iname.to_string(),
                        module: module.to_string(),
                        input_conns: conns,
                    });
                }
                "next" => {
                    let idx: usize = parse_num(ln, t.next().unwrap_or(""), "reg index")?;
                    let node = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    m.regs
                        .get_mut(idx)
                        .ok_or_else(|| perr(ln, "reg index out of range"))?
                        .next = Some(node);
                }
                "enable" => {
                    let idx: usize = parse_num(ln, t.next().unwrap_or(""), "reg index")?;
                    let node = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    m.regs
                        .get_mut(idx)
                        .ok_or_else(|| perr(ln, "reg index out of range"))?
                        .en = Some(node);
                }
                "readport" => {
                    let idx: usize = parse_num(ln, t.next().unwrap_or(""), "mem index")?;
                    let addr = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    m.mems
                        .get_mut(idx)
                        .ok_or_else(|| perr(ln, "mem index out of range"))?
                        .read_ports
                        .push(ReadPort { addr });
                }
                "write" => {
                    let idx: usize = parse_num(ln, t.next().unwrap_or(""), "mem index")?;
                    let en = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    let addr = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    let data = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    m.mems
                        .get_mut(idx)
                        .ok_or_else(|| perr(ln, "mem index out of range"))?
                        .write_ports
                        .push(WritePort { en, addr, data });
                }
                "drive" => {
                    let idx: usize = parse_num(ln, t.next().unwrap_or(""), "output index")?;
                    let node = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    if idx >= m.output_drivers.len() {
                        return Err(perr(ln, "output index out of range"));
                    }
                    m.output_drivers[idx] = node;
                }
                "name" => {
                    let node = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    let name = t.next().ok_or_else(|| perr(ln, "name needs a value"))?;
                    m.node_names.insert(node.0, name.to_string());
                }
                tok if tok.starts_with('n') => {
                    // nK = <op> <args...> : <width>
                    let id = parse_node_ref(ln, tok)?;
                    if id.index() != m.nodes.len() {
                        return Err(perr(
                            ln,
                            format!(
                                "node ids must be dense and in order (expected n{})",
                                m.nodes.len()
                            ),
                        ));
                    }
                    if t.next() != Some("=") {
                        return Err(perr(ln, "expected `=` after node id"));
                    }
                    // The body runs up to the last `:` token and the width
                    // follows it. No op reads past its third argument, so
                    // the first four body tokens are all that is kept.
                    let mut body = [""; 4];
                    let mut colon = None;
                    let mut width_tok = None;
                    for (i, tok) in t.enumerate() {
                        if let Some(slot) = body.get_mut(i) {
                            *slot = tok;
                        }
                        if tok == ":" {
                            colon = Some(i);
                            width_tok = None;
                        } else if colon == Some(i.wrapping_sub(1)) {
                            width_tok = Some(tok);
                        }
                    }
                    let colon = colon.ok_or_else(|| perr(ln, "node line missing `: width`"))?;
                    let width = parse_width(ln, width_tok.unwrap_or(""), "width")?;
                    let node = parse_node(ln, &body[..colon.min(body.len())])?;
                    m.nodes.push(node);
                    m.node_widths.push(width);
                }
                other => return Err(perr(ln, format!("unknown keyword {other:?}"))),
            }
        }
        Err(perr(usize::MAX - 1, "missing `end`"))
    }
}

fn parse_node(ln: usize, toks: &[&str]) -> Result<Node, RtlError> {
    let op = *toks.first().ok_or_else(|| perr(ln, "empty node body"))?;
    let arg = |i: usize| -> &str { toks.get(i).copied().unwrap_or("") };
    let node = match op {
        "input" => Node::Input(parse_num(ln, arg(1), "input index")?),
        "const" => Node::Const(parse_bv(ln, arg(1))?),
        "regq" => Node::RegQ(RegId(parse_num(ln, arg(1), "reg index")?)),
        "memread" => Node::MemReadData(
            MemId(parse_num(ln, arg(1), "mem index")?),
            parse_num(ln, arg(2), "port index")?,
        ),
        "instout" => Node::InstOut(
            InstId(parse_num(ln, arg(1), "inst index")?),
            parse_num(ln, arg(2), "output index")?,
        ),
        "mux" => Node::Mux {
            sel: parse_node_ref(ln, arg(1))?,
            t: parse_node_ref(ln, arg(2))?,
            f: parse_node_ref(ln, arg(3))?,
        },
        "slice" => Node::Slice {
            src: parse_node_ref(ln, arg(1))?,
            hi: parse_num(ln, arg(2), "hi")?,
            lo: parse_num(ln, arg(3), "lo")?,
        },
        "concat" => Node::Concat(parse_node_ref(ln, arg(1))?, parse_node_ref(ln, arg(2))?),
        "zext" => Node::Zext(
            parse_node_ref(ln, arg(1))?,
            parse_width(ln, arg(2), "width")?,
        ),
        "sext" => Node::Sext(
            parse_node_ref(ln, arg(1))?,
            parse_width(ln, arg(2), "width")?,
        ),
        other => {
            if let Some(u) = unop_from(other) {
                Node::Un(u, parse_node_ref(ln, arg(1))?)
            } else if let Some(b) = binop_from(other) {
                Node::Bin(b, parse_node_ref(ln, arg(1))?, parse_node_ref(ln, arg(2))?)
            } else {
                return Err(perr(ln, format!("unknown node op {other:?}")));
            }
        }
    };
    Ok(node)
}

/// Parses a design from the text netlist format, validating every module.
///
/// # Errors
///
/// Returns [`RtlError::Parse`] with a line number on syntax errors, or any
/// structural check error.
pub fn parse_design(text: &str) -> Result<Design, RtlError> {
    Parser::parse_design(text)
}

/// Parses a single module (the first in the text).
///
/// # Errors
///
/// As [`parse_design`]; additionally errors if the text contains no module.
pub fn parse_module(text: &str) -> Result<Module, RtlError> {
    let d = parse_design(text)?;
    d.modules.into_iter().next().ok_or(RtlError::Parse {
        line: 1,
        message: "no module found".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    fn rich_module() -> Module {
        let mut b = ModuleBuilder::new("rich");
        let en = b.input("en", 1);
        let x = b.input("x", 8);
        let r = b.reg("acc", 16, Bv::from_u64(16, 7));
        let q = b.reg_q(r);
        let xw = b.zext(x, 16);
        let sum = b.add(q, xw);
        b.connect_reg(r, sum);
        b.reg_enable(r, en);
        let mem = b.mem("buf", 3, 8, 8);
        b.mem_init(mem, vec![Bv::from_u64(8, 0xAA)]);
        let addr = b.slice(x, 2, 0);
        let rd = b.mem_read(mem, addr);
        b.mem_write(mem, en, addr, x);
        let hi = b.slice(sum, 15, 8);
        let cat = b.concat(hi, rd);
        let neg = b.neg(cat);
        let sel = b.red_or(x);
        let muxed = b.mux(sel, cat, neg);
        b.name_node(muxed, "muxed");
        b.output("y", muxed);
        b.output("acc", q);
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_module() {
        let m = rich_module();
        let text = write_module(&m);
        let back = parse_module(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn roundtrip_hierarchical_design() {
        let mut cb = ModuleBuilder::new("leaf");
        let a = cb.input("a", 4);
        let n = cb.not(a);
        cb.output("y", n);
        let leaf = cb.finish().unwrap();
        let mut tb = ModuleBuilder::new("top");
        let x = tb.input("x", 4);
        let o = tb.instantiate("u0", &leaf, &[x]);
        tb.output("y", o[0]);
        let top = tb.finish().unwrap();
        let mut d = Design::new();
        d.add_module(leaf);
        d.add_module(top);
        let text = write_design(&d);
        let back = parse_design(&text).unwrap();
        assert_eq!(back.modules.len(), 2);
        assert_eq!(back.module("top").unwrap(), d.module("top").unwrap());
        assert_eq!(back.module("leaf").unwrap(), d.module("leaf").unwrap());
    }

    #[test]
    fn memory_depths_above_the_cap_are_refused() {
        let max = MAX_MEM_DEPTH;
        let ok = format!("module m\n  mem q 16 8 {max}\nend\n");
        assert_eq!(parse_module(&ok).unwrap().mems[0].depth, MAX_MEM_DEPTH);
        let over = format!("module m\n  mem q 16 8 {}\nend\n", max + 1);
        match parse_module(&over) {
            Err(RtlError::Parse { line: 2, message }) => {
                assert!(message.contains("exceeds the maximum depth"), "{message}")
            }
            other => panic!("expected a depth error, got {other:?}"),
        }
    }

    #[test]
    fn widths_above_the_cap_are_refused_before_allocating() {
        let max = MAX_WIDTH;
        let over = u64::from(MAX_WIDTH) + 1;
        // At the cap: accepted.
        let ok = format!(
            "module m\n  output y {max}\n  n0 = const {max}'h1 : {max}\n  drive 0 n0\nend\n"
        );
        assert_eq!(parse_module(&ok).unwrap().node_widths, vec![MAX_WIDTH]);
        // Above it, in every place a width appears; the literal case is
        // the one that used to allocate ~500 MB.
        for (line, text) in [
            (
                2,
                "module m\n  n0 = const 4000000000'h0 : 1\nend\n".to_string(),
            ),
            (2, format!("module m\n  input a {over}\nend\n")),
            (2, format!("module m\n  reg r {over} 1'h0\nend\n")),
            (2, format!("module m\n  mem q 2 {over} 4\nend\n")),
            (2, format!("module m\n  n0 = const 1'h0 : {over}\nend\n")),
            (
                3,
                format!("module m\n  n0 = const 1'h0 : 1\n  n1 = zext n0 {over} : 8\nend\n"),
            ),
            (2, format!("module m\n  reg r 8 {over}'h0\nend\n")),
        ] {
            match parse_module(&text) {
                Err(RtlError::Parse { line: l, message }) => {
                    assert_eq!(l, line, "{text}");
                    assert!(message.contains("exceeds the maximum width"), "{message}");
                }
                other => panic!("{text}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "module m\n  input a 8\n  bogus line here\nend\n";
        match parse_design(text) {
            Err(RtlError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_out_of_order_nodes() {
        let text = "module m\n  input a 8\n  n5 = input 0 : 8\nend\n";
        assert!(matches!(parse_design(text), Err(RtlError::Parse { .. })));
    }

    #[test]
    fn parse_validates_structure() {
        // Output driver never set.
        let text = "module m\n  input a 8\n  output y 8\n  n0 = input 0 : 8\nend\n";
        assert!(parse_design(text).is_err());
    }

    #[test]
    fn any_whitespace_line_ending_or_comment_placement_parses_alike() {
        let m = rich_module();
        let text = write_module(&m);
        // CRLF endings, tabs and Unicode spaces between tokens, a comment
        // glued to a token, and no newline after `end`.
        let crlf = text.replace('\n', "\r\n");
        let spaced = text.replace(" = ", "\t=\u{a0}").replace(" :", "\u{2003}:");
        let commented = text.replacen("  input en 1\n", "  input en 1#enable\n", 1);
        let unterminated = text.trim_end().to_string();
        for variant in [crlf, spaced, commented, unterminated] {
            assert_eq!(parse_module(&variant).unwrap(), m, "{variant:?}");
        }
    }

    #[test]
    fn sized_literals_parse_on_both_sides_of_64_bits() {
        for tok in [
            "1'h1",
            "8'hff",
            "8'd255",
            "8'b1010_1010",
            "9'o777",
            "64'hffffffffffffffff",
            "65'h1ffffffffffffffff",
            "200'h0abc",
            "+8'h1",
        ] {
            assert_eq!(
                parse_bv(0, tok).unwrap(),
                tok.parse::<Bv>().unwrap(),
                "{tok}"
            );
        }
        for tok in [
            "0'h1",
            "8'h100",
            "8'hfg",
            "8'h",
            "8'x1",
            "64'h10000000000000000",
        ] {
            assert!(parse_bv(0, tok).is_err(), "{tok}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a counter\nmodule m\n\n  input a 8 # the input\n  output y 8\n  n0 = input 0 : 8\n  drive 0 n0\nend\n";
        let d = parse_design(text).unwrap();
        assert_eq!(d.modules[0].name, "m");
    }
}
