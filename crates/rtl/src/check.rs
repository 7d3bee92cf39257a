//! Structural checks and the crate error type.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::ir::{Module, Node, NodeId};

/// Errors produced by structural checks, elaboration, simulation setup, and
/// netlist parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlError {
    /// A register was never connected to a driver.
    UnconnectedReg {
        /// Module name.
        module: String,
        /// Register name.
        reg: String,
    },
    /// A node references an id at or above its own (a forward reference,
    /// which would permit combinational cycles).
    ForwardReference {
        /// Module name.
        module: String,
        /// The offending node.
        node: u32,
    },
    /// A node, register, or port references a node id outside the module.
    DanglingNode {
        /// Module name.
        module: String,
        /// Description of the referencing site.
        site: String,
    },
    /// Two widths that must agree do not.
    WidthMismatch {
        /// Module name.
        module: String,
        /// Description of the site.
        site: String,
        /// Expected width.
        expected: u32,
        /// Found width.
        found: u32,
    },
    /// An instance references a module that is not in the design.
    UnknownModule {
        /// The missing module's name.
        name: String,
    },
    /// Instantiation is (transitively) self-referential.
    RecursiveInstance {
        /// The module at the head of the cycle.
        module: String,
    },
    /// A name was looked up and not found (port, register, module, ...).
    UnknownName {
        /// What kind of thing was looked up.
        kind: &'static str,
        /// The name that was not found.
        name: String,
    },
    /// An operation that requires a flat module was given a hierarchical
    /// one. Flatten with [`crate::flatten`] first.
    NotFlat {
        /// Module name.
        module: String,
    },
    /// A netlist file failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::UnconnectedReg { module, reg } => {
                write!(f, "module {module:?}: register {reg:?} has no driver")
            }
            RtlError::ForwardReference { module, node } => {
                write!(f, "module {module:?}: node {node} has a forward reference")
            }
            RtlError::DanglingNode { module, site } => {
                write!(f, "module {module:?}: dangling node reference at {site}")
            }
            RtlError::WidthMismatch {
                module,
                site,
                expected,
                found,
            } => write!(
                f,
                "module {module:?}: width mismatch at {site} (expected {expected}, found {found})"
            ),
            RtlError::UnknownModule { name } => write!(f, "unknown module {name:?}"),
            RtlError::RecursiveInstance { module } => {
                write!(f, "recursive instantiation through module {module:?}")
            }
            RtlError::UnknownName { kind, name } => write!(f, "unknown {kind} {name:?}"),
            RtlError::NotFlat { module } => {
                write!(f, "module {module:?} has instances; flatten it first")
            }
            RtlError::Parse { line, message } => write!(f, "netlist line {line}: {message}"),
        }
    }
}

impl Error for RtlError {}

fn node_ref_ok(module: &Module, referrer: u32, id: NodeId) -> Result<(), RtlError> {
    if id.index() >= module.nodes.len() {
        return Err(RtlError::DanglingNode {
            module: module.name.clone(),
            site: format!("node {referrer}"),
        });
    }
    if id.0 >= referrer {
        return Err(RtlError::ForwardReference {
            module: module.name.clone(),
            node: referrer,
        });
    }
    Ok(())
}

// The `site` of an error is rendered only when the check fails, so a
// clean module is checked without formatting anything.
fn any_ref_ok(module: &Module, site: impl Fn() -> String, id: NodeId) -> Result<(), RtlError> {
    if id.index() >= module.nodes.len() {
        return Err(RtlError::DanglingNode {
            module: module.name.clone(),
            site: site(),
        });
    }
    Ok(())
}

fn expect_width(
    module: &Module,
    site: impl Fn() -> String,
    id: NodeId,
    expected: u32,
) -> Result<(), RtlError> {
    let found = module.node_widths[id.index()];
    if found != expected {
        return Err(RtlError::WidthMismatch {
            module: module.name.clone(),
            site: site(),
            expected,
            found,
        });
    }
    Ok(())
}

/// Validates a single module: unique names, no forward/dangling references
/// (hence no combinational cycles), all registers driven, and width
/// consistency throughout.
///
/// # Errors
///
/// Returns the first [`RtlError`] found.
pub fn check_module(m: &Module) -> Result<(), RtlError> {
    let mut names = HashSet::new();
    for p in m.inputs.iter().chain(&m.outputs) {
        if !names.insert(p.name.as_str()) {
            return Err(RtlError::UnknownName {
                kind: "unique name for port (duplicate)",
                name: p.name.clone(),
            });
        }
    }
    for (i, node) in m.nodes.iter().enumerate() {
        let this = i as u32;
        let w = m.node_widths[i];
        match node {
            Node::Input(idx) => {
                let port = m.inputs.get(*idx).ok_or_else(|| RtlError::DanglingNode {
                    module: m.name.clone(),
                    site: format!("input node {this}"),
                })?;
                if port.width != w {
                    return Err(RtlError::WidthMismatch {
                        module: m.name.clone(),
                        site: format!("input node {this}"),
                        expected: port.width,
                        found: w,
                    });
                }
            }
            Node::Const(v) => {
                if v.width() != w {
                    return Err(RtlError::WidthMismatch {
                        module: m.name.clone(),
                        site: format!("const node {this}"),
                        expected: v.width(),
                        found: w,
                    });
                }
            }
            Node::RegQ(r) => {
                let reg = m
                    .regs
                    .get(r.index())
                    .ok_or_else(|| RtlError::DanglingNode {
                        module: m.name.clone(),
                        site: format!("regq node {this}"),
                    })?;
                if reg.width != w {
                    return Err(RtlError::WidthMismatch {
                        module: m.name.clone(),
                        site: format!("regq node {this}"),
                        expected: reg.width,
                        found: w,
                    });
                }
            }
            Node::MemReadData(mem, port) => {
                let mm = m
                    .mems
                    .get(mem.index())
                    .ok_or_else(|| RtlError::DanglingNode {
                        module: m.name.clone(),
                        site: format!("memread node {this}"),
                    })?;
                if *port >= mm.read_ports.len() {
                    return Err(RtlError::DanglingNode {
                        module: m.name.clone(),
                        site: format!("memread node {this} (port {port})"),
                    });
                }
                if mm.data_width != w {
                    return Err(RtlError::WidthMismatch {
                        module: m.name.clone(),
                        site: format!("memread node {this}"),
                        expected: mm.data_width,
                        found: w,
                    });
                }
            }
            Node::InstOut(inst, _) => {
                if inst.0 as usize >= m.instances.len() {
                    return Err(RtlError::DanglingNode {
                        module: m.name.clone(),
                        site: format!("instout node {this}"),
                    });
                }
            }
            Node::Un(_, a) => node_ref_ok(m, this, *a)?,
            Node::Bin(op, a, b) => {
                node_ref_ok(m, this, *a)?;
                node_ref_ok(m, this, *b)?;
                if !op.is_shift() {
                    let (wa, wb) = (m.node_widths[a.index()], m.node_widths[b.index()]);
                    if wa != wb {
                        return Err(RtlError::WidthMismatch {
                            module: m.name.clone(),
                            site: format!("{op:?} node {this}"),
                            expected: wa,
                            found: wb,
                        });
                    }
                }
            }
            Node::Mux { sel, t, f } => {
                node_ref_ok(m, this, *sel)?;
                node_ref_ok(m, this, *t)?;
                node_ref_ok(m, this, *f)?;
                expect_width(m, || format!("mux node {this} select"), *sel, 1)?;
                expect_width(m, || format!("mux node {this}"), *t, w)?;
                expect_width(m, || format!("mux node {this}"), *f, w)?;
            }
            Node::Slice { src, hi, lo } => {
                node_ref_ok(m, this, *src)?;
                let sw = m.node_widths[src.index()];
                if hi < lo || *hi >= sw || w != hi - lo + 1 {
                    return Err(RtlError::WidthMismatch {
                        module: m.name.clone(),
                        site: format!("slice node {this} [{hi}:{lo}]"),
                        expected: hi.saturating_sub(*lo) + 1,
                        found: w,
                    });
                }
            }
            Node::Concat(a, b) => {
                node_ref_ok(m, this, *a)?;
                node_ref_ok(m, this, *b)?;
                let sum = m.node_widths[a.index()] + m.node_widths[b.index()];
                if sum != w {
                    return Err(RtlError::WidthMismatch {
                        module: m.name.clone(),
                        site: format!("concat node {this}"),
                        expected: sum,
                        found: w,
                    });
                }
            }
            Node::Zext(a, tw) | Node::Sext(a, tw) => {
                node_ref_ok(m, this, *a)?;
                let sw = m.node_widths[a.index()];
                if *tw < sw || *tw != w {
                    return Err(RtlError::WidthMismatch {
                        module: m.name.clone(),
                        site: format!("extension node {this}"),
                        expected: *tw,
                        found: w,
                    });
                }
            }
        }
    }
    for reg in &m.regs {
        let next = reg.next.ok_or_else(|| RtlError::UnconnectedReg {
            module: m.name.clone(),
            reg: reg.name.clone(),
        })?;
        let site = || format!("register {:?} next", reg.name);
        any_ref_ok(m, site, next)?;
        expect_width(m, site, next, reg.width)?;
        if let Some(en) = reg.en {
            let site = || format!("register {:?} enable", reg.name);
            any_ref_ok(m, site, en)?;
            expect_width(m, site, en, 1)?;
        }
        if reg.init.width() != reg.width {
            return Err(RtlError::WidthMismatch {
                module: m.name.clone(),
                site: format!("register {:?} init", reg.name),
                expected: reg.width,
                found: reg.init.width(),
            });
        }
    }
    for mem in &m.mems {
        for (i, wp) in mem.write_ports.iter().enumerate() {
            let site = || format!("memory {:?} write port {i}", mem.name);
            any_ref_ok(m, site, wp.en)?;
            any_ref_ok(m, site, wp.addr)?;
            any_ref_ok(m, site, wp.data)?;
            expect_width(m, site, wp.en, 1)?;
            expect_width(m, site, wp.addr, mem.addr_width)?;
            expect_width(m, site, wp.data, mem.data_width)?;
        }
        for (i, rp) in mem.read_ports.iter().enumerate() {
            let site = || format!("memory {:?} read port {i}", mem.name);
            any_ref_ok(m, site, rp.addr)?;
            expect_width(m, site, rp.addr, mem.addr_width)?;
        }
    }
    for ((port, driver), idx) in m.outputs.iter().zip(&m.output_drivers).zip(0..) {
        let site = || format!("output {:?} (index {idx})", port.name);
        any_ref_ok(m, site, *driver)?;
        expect_width(m, site, *driver, port.width)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use dfv_bits::Bv;

    #[test]
    fn good_module_passes() {
        let mut b = ModuleBuilder::new("ok");
        let a = b.input("a", 8);
        let r = b.reg("r", 8, Bv::zero(8));
        let q = b.reg_q(r);
        let s = b.add(a, q);
        b.connect_reg(r, s);
        b.output("y", s);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn unconnected_reg_fails() {
        let mut b = ModuleBuilder::new("bad");
        let _ = b.reg("r", 8, Bv::zero(8));
        let err = b.finish().unwrap_err();
        assert!(matches!(err, RtlError::UnconnectedReg { .. }));
        assert!(err.to_string().contains("no driver"));
    }

    #[test]
    fn hand_built_forward_reference_fails() {
        use crate::ir::{BinOp, Module, Node, NodeId};
        let m = Module {
            name: "fwd".into(),
            nodes: vec![
                Node::Const(Bv::zero(4)),
                // Refers to node 2, which comes later: a would-be comb loop.
                Node::Bin(BinOp::Add, NodeId(2), NodeId(0)),
                Node::Bin(BinOp::Add, NodeId(1), NodeId(0)),
            ],
            node_widths: vec![4, 4, 4],
            ..Module::default()
        };
        assert!(matches!(
            check_module(&m),
            Err(RtlError::ForwardReference { node: 1, .. })
        ));
    }

    #[test]
    fn hand_built_width_mismatch_fails() {
        use crate::ir::{BinOp, Module, Node, NodeId};
        let m = Module {
            name: "w".into(),
            nodes: vec![
                Node::Const(Bv::zero(4)),
                Node::Const(Bv::zero(5)),
                Node::Bin(BinOp::Add, NodeId(0), NodeId(1)),
            ],
            node_widths: vec![4, 5, 4],
            ..Module::default()
        };
        assert!(matches!(
            check_module(&m),
            Err(RtlError::WidthMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "operand widths differ")]
    fn builder_rejects_mismatch_eagerly() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 8);
        let c = b.input("b", 9);
        let _ = b.add(a, c);
    }

    #[test]
    #[should_panic(expected = "duplicate port name")]
    fn builder_rejects_duplicate_names() {
        let mut b = ModuleBuilder::new("m");
        let _ = b.input("a", 8);
        let _ = b.input("a", 4);
    }
}
