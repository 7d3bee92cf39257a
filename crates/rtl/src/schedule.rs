//! The precompiled evaluation schedule behind [`crate::Simulator`].
//!
//! Instead of re-interpreting the [`Module`] graph on every pass, the
//! simulator builds a [`SimSchedule`] once per module:
//!
//! * a **flat limb arena layout** — every register, memory read register,
//!   and combinational node gets a fixed `u64`-limb slot, so evaluation
//!   writes values in place with zero per-node allocation;
//! * a **levelized order plus static fanout map** (the forward complement
//!   of [`crate::cone`]'s fan-in traversal) so evaluation can walk just
//!   the fanout cone of what actually changed, in dependency order.
//!
//! The bytecode lowering (`lower.rs`) and the 64-lane engine
//! (`lanes.rs`) both compile their kernels from this layout and order.

use dfv_bits::limbs::limbs_for;

use crate::cone::FanoutMap;
use crate::ir::{Module, Node, NodeId};

/// One fixed arena slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// Offset into the value arena, in limbs.
    pub off: u32,
    /// Width in bits.
    pub width: u32,
    /// Length in limbs (`ceil(width / 64)`, cached).
    pub limbs: u32,
}

/// The precompiled evaluation schedule of one flat [`Module`]. Built once
/// by [`crate::Simulator::new`]; immutable afterwards and shared by every
/// evaluation pass.
#[derive(Debug, Clone)]
pub struct SimSchedule {
    /// Arena slot per node, indexed by node id.
    slots: Vec<Slot>,
    /// Topological level per node (sources at 0; every operand has a
    /// strictly smaller level than its consumer).
    level: Vec<u32>,
    /// Number of distinct levels (0 for an empty graph).
    num_levels: u32,
    /// All node ids sorted by (level, id) — the full-pass order.
    order: Vec<u32>,
    /// Static node-to-node fanout map.
    fanout: FanoutMap,
    /// Per input port: the `Node::Input` node ids reading it.
    input_nodes: Vec<Vec<u32>>,
    /// Per register: the `Node::RegQ` node ids reading it.
    reg_nodes: Vec<Vec<u32>>,
    /// Per memory, per read port: the `Node::MemReadData` node ids.
    mem_read_nodes: Vec<Vec<Vec<u32>>>,
    /// Arena slot per register (current value).
    reg_slots: Vec<Slot>,
    /// Arena slot per memory read register.
    mem_rd_slots: Vec<Vec<Slot>>,
    /// Per memory: base offset into the memory arena and per-word stride.
    mem_layout: Vec<(u32, u32)>,
    /// Length of the state region (registers + memory read registers) at
    /// the bottom of the arena, in limbs; node slots start here.
    state_len: usize,
    /// Total main-arena length in limbs.
    arena_len: usize,
    /// Total memory-arena length in limbs.
    mem_arena_len: usize,
    /// Largest slot, in limbs (scratch sizing).
    max_limbs: usize,
}

impl SimSchedule {
    /// Compiles `module` (which must be flat and checked) into a schedule.
    pub fn build(module: &Module) -> Self {
        let n = module.nodes.len();
        let mut off = 0u32;
        let mut max_limbs = 1usize;
        let slot_at = |width: u32, off: &mut u32, max: &mut usize| {
            let l = limbs_for(width) as u32;
            let s = Slot {
                off: *off,
                width,
                limbs: l,
            };
            *off += l;
            *max = (*max).max(l as usize);
            s
        };

        // Layout: registers and memory read registers first, then nodes in
        // id order — so a node's operands (smaller ids, or state slots)
        // always sit strictly below its own slot and `split_at_mut` can
        // hand out operand reads and the result write simultaneously.
        let reg_slots: Vec<Slot> = module
            .regs
            .iter()
            .map(|r| slot_at(r.width, &mut off, &mut max_limbs))
            .collect();
        let mem_rd_slots: Vec<Vec<Slot>> = module
            .mems
            .iter()
            .map(|m| {
                m.read_ports
                    .iter()
                    .map(|_| slot_at(m.data_width, &mut off, &mut max_limbs))
                    .collect()
            })
            .collect();
        let state_len = off as usize;
        let slots: Vec<Slot> = module
            .node_widths
            .iter()
            .map(|&w| slot_at(w, &mut off, &mut max_limbs))
            .collect();
        let arena_len = off as usize;

        let mut mem_layout = Vec::with_capacity(module.mems.len());
        let mut mem_off = 0u32;
        for m in &module.mems {
            let stride = limbs_for(m.data_width) as u32;
            mem_layout.push((mem_off, stride));
            mem_off += stride * m.depth as u32;
            max_limbs = max_limbs.max(stride as usize);
        }
        let mem_arena_len = mem_off as usize;

        // Source maps and levels in one pass over the nodes.
        let mut level = vec![0u32; n];
        let mut input_nodes = vec![Vec::new(); module.inputs.len()];
        let mut reg_nodes = vec![Vec::new(); module.regs.len()];
        let mut mem_read_nodes: Vec<Vec<Vec<u32>>> = module
            .mems
            .iter()
            .map(|m| vec![Vec::new(); m.read_ports.len()])
            .collect();
        for (i, node) in module.nodes.iter().enumerate() {
            match node {
                Node::Input(idx) => input_nodes[*idx].push(i as u32),
                Node::RegQ(r) => reg_nodes[r.index()].push(i as u32),
                Node::MemReadData(m, p) => mem_read_nodes[m.index()][*p].push(i as u32),
                Node::InstOut(..) => unreachable!("schedule requires a flat module"),
                _ => {}
            }
            let mut lvl = 0u32;
            node.for_each_operand(|id| lvl = lvl.max(level[id.index()] + 1));
            level[i] = lvl;
        }
        let num_levels = level.iter().max().map_or(0, |&m| m + 1);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| (level[i as usize], i));

        SimSchedule {
            slots,
            level,
            num_levels,
            order,
            fanout: FanoutMap::build(module),
            input_nodes,
            reg_nodes,
            mem_read_nodes,
            reg_slots,
            mem_rd_slots,
            mem_layout,
            state_len,
            arena_len,
            mem_arena_len,
            max_limbs,
        }
    }

    /// Number of topological levels.
    pub fn num_levels(&self) -> u32 {
        self.num_levels
    }

    /// The level of a node (sources at 0).
    pub fn level(&self, node: NodeId) -> u32 {
        self.level[node.index()]
    }

    /// Total combinational node-to-node edges in the fanout map.
    pub fn edge_count(&self) -> usize {
        self.fanout.edge_count()
    }

    pub(crate) fn level_raw(&self, n: u32) -> u32 {
        self.level[n as usize]
    }

    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    pub(crate) fn fanouts(&self, n: u32) -> &[NodeId] {
        self.fanout.fanouts(NodeId(n))
    }

    pub(crate) fn node_slot(&self, n: usize) -> Slot {
        self.slots[n]
    }

    pub(crate) fn reg_slot(&self, r: usize) -> Slot {
        self.reg_slots[r]
    }

    pub(crate) fn mem_rd_slot(&self, m: usize, p: usize) -> Slot {
        self.mem_rd_slots[m][p]
    }

    /// Base offset and per-word stride of a memory in the memory arena.
    pub(crate) fn mem_layout(&self, m: usize) -> (u32, u32) {
        self.mem_layout[m]
    }

    pub(crate) fn input_nodes(&self, idx: usize) -> &[u32] {
        &self.input_nodes[idx]
    }

    pub(crate) fn reg_nodes(&self, r: usize) -> &[u32] {
        &self.reg_nodes[r]
    }

    pub(crate) fn mem_read_nodes(&self, m: usize, p: usize) -> &[u32] {
        &self.mem_read_nodes[m][p]
    }

    pub(crate) fn state_len(&self) -> usize {
        self.state_len
    }

    pub(crate) fn arena_len(&self) -> usize {
        self.arena_len
    }

    pub(crate) fn mem_arena_len(&self) -> usize {
        self.mem_arena_len
    }

    pub(crate) fn max_limbs(&self) -> usize {
        self.max_limbs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    #[test]
    fn schedule_levels_respect_dependencies() {
        let mut b = ModuleBuilder::new("lvl");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let s = b.add(x, y);
        let t = b.mul(s, y);
        let u = b.not(t);
        b.output("u", u);
        let m = b.finish().unwrap();
        let sched = SimSchedule::build(&m);
        assert_eq!(sched.level(x), 0);
        assert_eq!(sched.level(s), 1);
        assert_eq!(sched.level(t), 2);
        assert_eq!(sched.level(u), 3);
        assert_eq!(sched.num_levels(), 4);
        // The full-pass order is level-sorted and covers every node.
        let order = sched.order();
        assert_eq!(order.len(), m.nodes.len());
        assert!(order
            .windows(2)
            .all(|w| sched.level_raw(w[0]) <= sched.level_raw(w[1])));
    }
}
