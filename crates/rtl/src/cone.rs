//! Fan-in cone extraction: netlist back-traversal from a divergence
//! point, ranking everything that can influence it by structural
//! distance.
//!
//! This is the RTL half of the divergence localizer: once a comparison
//! names the first mismatching signal, the cone tells the user which
//! inputs, registers, memories, and named nodes feed it — nearest
//! first — so debugging starts at the likeliest suspects instead of
//! the whole design.

use std::collections::VecDeque;

use crate::ir::{Module, Node, NodeId};

/// What kind of design object a cone entry names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConeKind {
    /// An input port.
    Input,
    /// A register (traversal continues through its D input and enable).
    Reg,
    /// A memory (traversal continues through its read/write ports).
    Mem,
    /// A named intermediate node.
    Node,
}

impl std::fmt::Display for ConeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConeKind::Input => "input",
            ConeKind::Reg => "reg",
            ConeKind::Mem => "mem",
            ConeKind::Node => "node",
        })
    }
}

/// One named object in a fan-in cone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeEntry {
    /// Name of the object (port/register/memory/node name).
    pub name: String,
    /// What the name refers to.
    pub kind: ConeKind,
    /// Structural distance from the start point, in IR edges. Crossing
    /// a register (Q to D) costs one edge like any other, so distance
    /// loosely tracks "how many steps back in logic" a suspect is.
    pub distance: u32,
}

/// Where to start a fan-in traversal.
#[derive(Debug, Clone)]
pub enum ConeStart {
    /// From an output port, by name.
    Output(String),
    /// From a register's Q, by name.
    Reg(String),
    /// From an arbitrary node.
    Node(NodeId),
}

/// Computes the fan-in cone of `start`, ranked by distance (then by
/// name for determinism), truncated to `max_entries`.
///
/// Traversal is over the sequential closure: it crosses register and
/// memory boundaries (a register's cone includes its D and enable
/// logic; a memory read's cone includes the read address and every
/// write port), so the result covers everything that can influence the
/// start point at *any* cycle. Unnamed intermediate nodes are walked
/// through but not reported.
///
/// Returns `None` when `start` names a port/register the module does
/// not have.
pub fn fanin_cone(
    module: &Module,
    start: &ConeStart,
    max_entries: usize,
) -> Option<Vec<ConeEntry>> {
    let start_node = match start {
        ConeStart::Output(name) => module.output_drivers[module.output_index(name)?],
        ConeStart::Reg(name) => {
            let r = module.reg_index(name)?;
            // Start from the register itself: its Q node may not exist,
            // but its fan-in is its D/enable logic.
            let mut state = ConeState::new(module);
            state.visit_reg(r.index(), 0);
            return Some(state.finish(max_entries));
        }
        ConeStart::Node(id) => *id,
    };
    let mut state = ConeState::new(module);
    state.visit_node(start_node, 0);
    Some(state.finish(max_entries))
}

/// The static node-to-node fanout map of a module's combinational DAG, in
/// compressed (CSR) form: for every node, which nodes read its value as an
/// operand. This is the forward counterpart of [`fanin_cone`]'s backward
/// traversal, and what the bytecode and lane engines' dirty-cone
/// schedulers walk to find the nodes a change can reach.
///
/// Sequential edges (a node feeding a register D/enable, a memory port, or
/// an output) are *not* included — those are crossed at the clock edge, not
/// during combinational settling.
#[derive(Debug, Clone)]
pub struct FanoutMap {
    /// `edges[offsets[i]..offsets[i + 1]]` are the consumers of node `i`,
    /// in ascending id order.
    offsets: Vec<u32>,
    edges: Vec<NodeId>,
}

impl FanoutMap {
    /// Builds the fanout map of `module`'s combinational nodes.
    pub fn build(module: &Module) -> Self {
        let n = module.nodes.len();
        let mut counts = vec![0u32; n + 1];
        for node in &module.nodes {
            node.for_each_operand(|op| counts[op.index() + 1] += 1);
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut edges = vec![NodeId(0); offsets[n] as usize];
        let mut next = counts;
        for (i, node) in module.nodes.iter().enumerate() {
            node.for_each_operand(|op| {
                edges[next[op.index()] as usize] = NodeId(i as u32);
                next[op.index()] += 1;
            });
        }
        FanoutMap { offsets, edges }
    }

    /// The nodes that read `node`'s value, in ascending id order.
    pub fn fanouts(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total combinational edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

struct ConeState<'a> {
    module: &'a Module,
    node_dist: Vec<Option<u32>>,
    reg_dist: Vec<Option<u32>>,
    mem_dist: Vec<Option<u32>>,
    queue: VecDeque<(Task, u32)>,
    entries: Vec<ConeEntry>,
}

#[derive(Clone, Copy)]
enum Task {
    Node(NodeId),
    Reg(usize),
    Mem(usize),
}

impl<'a> ConeState<'a> {
    fn new(module: &'a Module) -> Self {
        Self {
            module,
            node_dist: vec![None; module.nodes.len()],
            reg_dist: vec![None; module.regs.len()],
            mem_dist: vec![None; module.mems.len()],
            queue: VecDeque::new(),
            entries: Vec::new(),
        }
    }

    fn visit_node(&mut self, id: NodeId, dist: u32) {
        if self.node_dist[id.index()].is_some() {
            return;
        }
        self.node_dist[id.index()] = Some(dist);
        self.queue.push_back((Task::Node(id), dist));
        self.drain();
    }

    fn visit_reg(&mut self, ri: usize, dist: u32) {
        if self.reg_dist[ri].is_some() {
            return;
        }
        self.reg_dist[ri] = Some(dist);
        self.queue.push_back((Task::Reg(ri), dist));
        self.drain();
    }

    fn drain(&mut self) {
        while let Some((task, dist)) = self.queue.pop_front() {
            match task {
                Task::Node(id) => self.expand_node(id, dist),
                Task::Reg(ri) => self.expand_reg(ri, dist),
                Task::Mem(mi) => self.expand_mem(mi, dist),
            }
        }
    }

    fn enqueue_node(&mut self, id: NodeId, dist: u32) {
        if self.node_dist[id.index()].is_none() {
            self.node_dist[id.index()] = Some(dist);
            self.queue.push_back((Task::Node(id), dist));
        }
    }

    fn enqueue_reg(&mut self, ri: usize, dist: u32) {
        if self.reg_dist[ri].is_none() {
            self.reg_dist[ri] = Some(dist);
            self.queue.push_back((Task::Reg(ri), dist));
        }
    }

    fn enqueue_mem(&mut self, mi: usize, dist: u32) {
        if self.mem_dist[mi].is_none() {
            self.mem_dist[mi] = Some(dist);
            self.queue.push_back((Task::Mem(mi), dist));
        }
    }

    fn expand_node(&mut self, id: NodeId, dist: u32) {
        if let Some(name) = self.module.node_names.get(&(id.index() as u32)) {
            self.entries.push(ConeEntry {
                name: name.clone(),
                kind: ConeKind::Node,
                distance: dist,
            });
        }
        match &self.module.nodes[id.index()] {
            Node::Input(idx) => {
                self.entries.push(ConeEntry {
                    name: self.module.inputs[*idx].name.clone(),
                    kind: ConeKind::Input,
                    distance: dist,
                });
            }
            Node::Const(_) => {}
            Node::RegQ(r) => self.enqueue_reg(r.index(), dist),
            Node::MemReadData(m, p) => {
                let port = *p;
                let mi = m.index();
                // The registered read data depends on the read address...
                let addr = self.module.mems[mi].read_ports[port].addr;
                self.enqueue_node(addr, dist + 1);
                // ...and on the stored contents.
                self.enqueue_mem(mi, dist);
            }
            Node::InstOut(..) => {
                // Cones are extracted from flat (simulatable) modules;
                // instance outputs never appear there.
            }
            Node::Un(_, a) => self.enqueue_node(*a, dist + 1),
            Node::Bin(_, a, b) => {
                self.enqueue_node(*a, dist + 1);
                self.enqueue_node(*b, dist + 1);
            }
            Node::Mux { sel, t, f } => {
                self.enqueue_node(*sel, dist + 1);
                self.enqueue_node(*t, dist + 1);
                self.enqueue_node(*f, dist + 1);
            }
            Node::Slice { src, .. } => self.enqueue_node(*src, dist + 1),
            Node::Concat(a, b) => {
                self.enqueue_node(*a, dist + 1);
                self.enqueue_node(*b, dist + 1);
            }
            Node::Zext(a, _) | Node::Sext(a, _) => self.enqueue_node(*a, dist + 1),
        }
    }

    fn expand_reg(&mut self, ri: usize, dist: u32) {
        let reg = &self.module.regs[ri];
        self.entries.push(ConeEntry {
            name: reg.name.clone(),
            kind: ConeKind::Reg,
            distance: dist,
        });
        if let Some(next) = reg.next {
            self.enqueue_node(next, dist + 1);
        }
        if let Some(en) = reg.en {
            self.enqueue_node(en, dist + 1);
        }
    }

    fn expand_mem(&mut self, mi: usize, dist: u32) {
        let mem = &self.module.mems[mi];
        self.entries.push(ConeEntry {
            name: mem.name.clone(),
            kind: ConeKind::Mem,
            distance: dist,
        });
        let ports: Vec<NodeId> = mem
            .write_ports
            .iter()
            .flat_map(|wp| [wp.en, wp.addr, wp.data])
            .collect();
        for n in ports {
            self.enqueue_node(n, dist + 1);
        }
    }

    fn finish(mut self, max_entries: usize) -> Vec<ConeEntry> {
        self.entries
            .sort_by(|a, b| (a.distance, &a.name, a.kind).cmp(&(b.distance, &b.name, b.kind)));
        self.entries.dedup();
        self.entries.truncate(max_entries);
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use dfv_bits::Bv;

    /// y = reg(a + b), with an enable from `en` and a constant folded in.
    fn sample_module() -> Module {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let en = b.input("en", 1);
        let sum = b.add(a, bb);
        b.name_node(sum, "sum");
        let r = b.reg("acc", 8, Bv::zero(8));
        b.connect_reg(r, sum);
        b.reg_enable(r, en);
        let q = b.reg_q(r);
        let one = b.lit(8, 1);
        let y = b.add(q, one);
        b.output("y", y);
        b.finish().unwrap()
    }

    #[test]
    fn cone_from_output_ranks_by_distance() {
        let m = sample_module();
        let cone = fanin_cone(&m, &ConeStart::Output("y".into()), 16).unwrap();
        let names: Vec<(&str, u32)> = cone.iter().map(|e| (e.name.as_str(), e.distance)).collect();
        // acc is one edge from y's driver; its D/enable logic follows.
        assert_eq!(names[0], ("acc", 1));
        assert!(cone.iter().any(|e| e.name == "sum" && e.distance == 2));
        assert!(cone
            .iter()
            .any(|e| e.name == "a" && e.kind == ConeKind::Input && e.distance == 3));
        assert!(cone.iter().any(|e| e.name == "en" && e.distance == 2));
        // Constants are not suspects.
        assert!(cone
            .iter()
            .all(|e| e.kind != ConeKind::Node || e.name == "sum"));
    }

    #[test]
    fn cone_from_reg_covers_its_update_logic() {
        let m = sample_module();
        let cone = fanin_cone(&m, &ConeStart::Reg("acc".into()), 16).unwrap();
        assert_eq!(cone[0].name, "acc");
        assert_eq!(cone[0].distance, 0);
        assert!(cone.iter().any(|e| e.name == "b" && e.distance == 2));
    }

    #[test]
    fn cone_crosses_memories_to_write_ports() {
        let mut b = ModuleBuilder::new("memmod");
        let we = b.input("we", 1);
        let waddr = b.input("waddr", 4);
        let wdata = b.input("wdata", 8);
        let raddr = b.input("raddr", 4);
        let mem = b.mem("m", 4, 8, 16);
        b.mem_write(mem, we, waddr, wdata);
        let rdata = b.mem_read(mem, raddr);
        b.output("rdata", rdata);
        let m = b.finish().unwrap();
        let cone = fanin_cone(&m, &ConeStart::Output("rdata".into()), 16).unwrap();
        assert!(cone
            .iter()
            .any(|e| e.name == "m" && e.kind == ConeKind::Mem));
        for inp in ["we", "waddr", "wdata", "raddr"] {
            assert!(cone.iter().any(|e| e.name == inp), "missing {inp}");
        }
    }

    #[test]
    fn fanout_map_inverts_operand_edges() {
        let m = sample_module();
        let fan = FanoutMap::build(&m);
        let mut expected_edges = 0;
        for (i, node) in m.nodes.iter().enumerate() {
            node.for_each_operand(|op| {
                expected_edges += 1;
                assert!(
                    fan.fanouts(op).contains(&NodeId(i as u32)),
                    "edge {op:?} -> n{i} missing from fanout map"
                );
            });
        }
        assert_eq!(fan.edge_count(), expected_edges);
        // Fanouts are ascending (consumers always have larger ids).
        for i in 0..m.nodes.len() {
            let outs = fan.fanouts(NodeId(i as u32));
            assert!(outs.windows(2).all(|w| w[0] < w[1]));
            assert!(outs.iter().all(|o| o.index() > i));
        }
    }

    #[test]
    fn unknown_start_is_none_and_truncation_applies() {
        let m = sample_module();
        assert!(fanin_cone(&m, &ConeStart::Output("nope".into()), 8).is_none());
        assert!(fanin_cone(&m, &ConeStart::Reg("nope".into()), 8).is_none());
        let cone = fanin_cone(&m, &ConeStart::Output("y".into()), 2).unwrap();
        assert_eq!(cone.len(), 2);
    }
}
