//! The wrapped-RTL: an RTL simulator behind transaction-level transactors.
//!
//! The paper's §2: "the actual RTL can be instantiated in another top-level
//! hierarchy that places transactors at the RTL inputs and outputs so that
//! the SLM input stimulus can be used for RTL simulation. The RTL with
//! transactors is called the wrapped-RTL."

use std::collections::HashMap;

use dfv_bits::Bv;
use dfv_obs::{ObsHook, SharedRecorder};
use dfv_rtl::{Module, RtlError, Simulator};

/// A transaction: named SLM-level values (whole arrays as packed words).
pub type Transaction = HashMap<String, Bv>;

/// Drives RTL input ports from an SLM-level transaction, possibly over many
/// cycles (serialization).
pub trait InputTransactor {
    /// Loads one transaction to be driven.
    fn load(&mut self, txn: &Transaction);
    /// Applies this cycle's input values; returns `false` once the
    /// transaction has been fully driven (idle values still applied).
    fn drive(&mut self, sim: &mut Simulator) -> bool;
}

/// Samples RTL output ports, reassembling SLM-level outputs, possibly over
/// many cycles (deserialization).
pub trait OutputTransactor {
    /// Samples the current cycle (called after combinational evaluation,
    /// before the clock edge). Completed SLM-level outputs are appended to
    /// `out` as `(name, value, cycle)`.
    fn sample(&mut self, sim: &mut Simulator, cycle: u64, out: &mut Vec<(String, Bv, u64)>);
    /// Whether all expected outputs for the loaded transaction have been
    /// collected.
    fn done(&self) -> bool;
    /// Resets per-transaction state.
    fn begin_transaction(&mut self);
}

/// A parallel (single-cycle) driver: each mapped transaction field is
/// applied to its port on the first cycle and held; unmapped cycles drive
/// the configured idle value.
#[derive(Debug, Clone, Default)]
pub struct DirectDriver {
    /// `(txn field, rtl port)` pairs.
    map: Vec<(String, String)>,
    pending: Option<Transaction>,
    hold: bool,
}

impl DirectDriver {
    /// Creates a driver that applies fields once and holds them.
    pub fn new() -> Self {
        DirectDriver {
            map: Vec::new(),
            pending: None,
            hold: true,
        }
    }

    /// Maps a transaction field to an RTL input port.
    pub fn map(mut self, field: &str, port: &str) -> Self {
        self.map.push((field.into(), port.into()));
        self
    }
}

impl InputTransactor for DirectDriver {
    fn load(&mut self, txn: &Transaction) {
        self.pending = Some(txn.clone());
    }

    fn drive(&mut self, sim: &mut Simulator) -> bool {
        if let Some(txn) = self.pending.take() {
            for (field, port) in &self.map {
                sim.poke(port, txn[field].clone());
            }
            return self.hold;
        }
        false
    }
}

/// A serializing driver: splits one wide transaction field into fixed-width
/// beats driven LSB-first on a data port with a valid strobe — the paper's
/// "the SLM ... may read in the entire image as a single array of pixels
/// while the RTL reads it as a stream of pixels" (§3.2). Honors an optional
/// ready (back-pressure) output from the DUT.
#[derive(Debug, Clone)]
pub struct SerialDriver {
    field: String,
    data_port: String,
    valid_port: String,
    ready_port: Option<String>,
    beat_width: u32,
    beats: Vec<Bv>,
    next: usize,
}

impl SerialDriver {
    /// Creates a serializer for `field`, driving `data_port` +
    /// `valid_port`, `beat_width` bits per cycle.
    pub fn new(field: &str, data_port: &str, valid_port: &str, beat_width: u32) -> Self {
        SerialDriver {
            field: field.into(),
            data_port: data_port.into(),
            valid_port: valid_port.into(),
            ready_port: None,
            beat_width,
            beats: Vec::new(),
            next: 0,
        }
    }

    /// Respects a ready output port: beats advance only when it is high.
    pub fn with_ready(mut self, ready_port: &str) -> Self {
        self.ready_port = Some(ready_port.into());
        self
    }
}

impl InputTransactor for SerialDriver {
    fn load(&mut self, txn: &Transaction) {
        let wide = &txn[&self.field];
        assert_eq!(
            wide.width() % self.beat_width,
            0,
            "field {:?} width {} is not a multiple of beat width {}",
            self.field,
            wide.width(),
            self.beat_width
        );
        self.beats = (0..wide.width() / self.beat_width)
            .map(|i| wide.slice((i + 1) * self.beat_width - 1, i * self.beat_width))
            .collect();
        self.next = 0;
    }

    fn drive(&mut self, sim: &mut Simulator) -> bool {
        if self.next >= self.beats.len() {
            sim.poke(&self.valid_port, Bv::from_bool(false));
            sim.poke(&self.data_port, Bv::zero(self.beat_width));
            return false;
        }
        sim.poke(&self.valid_port, Bv::from_bool(true));
        sim.poke(&self.data_port, self.beats[self.next].clone());
        // Advance unless the DUT is stalling us.
        let advance = match &self.ready_port {
            Some(rp) => {
                let port = rp.clone();
                sim.output(&port).bit(0)
            }
            None => true,
        };
        if advance {
            self.next += 1;
        }
        true
    }
}

/// Samples one output port on a fixed cycle (parallel collection).
#[derive(Debug, Clone)]
pub struct FixedCycleMonitor {
    port: String,
    cycle: u64,
    collected: bool,
}

impl FixedCycleMonitor {
    /// Samples `port` on the given cycle (counted from transaction start).
    pub fn new(port: &str, cycle: u64) -> Self {
        FixedCycleMonitor {
            port: port.into(),
            cycle,
            collected: false,
        }
    }
}

impl OutputTransactor for FixedCycleMonitor {
    fn sample(&mut self, sim: &mut Simulator, cycle: u64, out: &mut Vec<(String, Bv, u64)>) {
        if cycle == self.cycle && !self.collected {
            let v = sim.output(&self.port);
            out.push((self.port.clone(), v, cycle));
            self.collected = true;
        }
    }

    fn done(&self) -> bool {
        self.collected
    }

    fn begin_transaction(&mut self) {
        self.collected = false;
    }
}

/// Deserializes a stream: collects `beats` values from a data port when a
/// valid port is high, reassembling them LSB-first into one wide value.
#[derive(Debug, Clone)]
pub struct SerialCollector {
    name: String,
    data_port: String,
    valid_port: String,
    beats: usize,
    collected: Vec<Bv>,
    emitted: bool,
}

impl SerialCollector {
    /// Creates a collector producing SLM-level output `name` from `beats`
    /// beats of `data_port` gated by `valid_port`.
    pub fn new(name: &str, data_port: &str, valid_port: &str, beats: usize) -> Self {
        SerialCollector {
            name: name.into(),
            data_port: data_port.into(),
            valid_port: valid_port.into(),
            beats,
            collected: Vec::new(),
            emitted: false,
        }
    }
}

impl OutputTransactor for SerialCollector {
    fn sample(&mut self, sim: &mut Simulator, cycle: u64, out: &mut Vec<(String, Bv, u64)>) {
        if self.emitted {
            return;
        }
        let valid_port = self.valid_port.clone();
        if sim.output(&valid_port).bit(0) {
            let data_port = self.data_port.clone();
            self.collected.push(sim.output(&data_port));
            if self.collected.len() == self.beats {
                let mut packed = self.collected[0].clone();
                for b in &self.collected[1..] {
                    packed = b.concat(&packed);
                }
                out.push((self.name.clone(), packed, cycle));
                self.emitted = true;
            }
        }
    }

    fn done(&self) -> bool {
        self.emitted
    }

    fn begin_transaction(&mut self) {
        self.collected.clear();
        self.emitted = false;
    }
}

/// The wrapped-RTL: a cycle simulator plus input/output transactors,
/// exposing a transaction-level `run_transaction` API.
pub struct WrappedRtl {
    sim: Simulator,
    drivers: Vec<Box<dyn InputTransactor>>,
    monitors: Vec<Box<dyn OutputTransactor>>,
    max_cycles: u64,
    total_cycles: u64,
    obs: ObsHook,
}

impl WrappedRtl {
    /// Wraps a flat module.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError`] if the module fails validation.
    pub fn new(module: Module) -> Result<Self, RtlError> {
        Ok(WrappedRtl {
            sim: Simulator::new(module)?,
            drivers: Vec::new(),
            monitors: Vec::new(),
            max_cycles: 10_000,
            total_cycles: 0,
            obs: ObsHook::none(),
        })
    }

    /// Wraps an already-constructed simulator — e.g. one built with
    /// [`Simulator::new_reference`] to run the transaction harness on the
    /// reference evaluation engine for engine-parity checks.
    pub fn from_simulator(sim: Simulator) -> Self {
        WrappedRtl {
            sim,
            drivers: Vec::new(),
            monitors: Vec::new(),
            max_cycles: 10_000,
            total_cycles: 0,
            obs: ObsHook::none(),
        }
    }

    /// Streams instrumentation into `rec`: `cosim.transactions` /
    /// `cosim.cycles` counters from this wrapper, plus the underlying
    /// simulator's own `rtl.*` counters (the recorder is forwarded).
    pub fn set_recorder(&mut self, rec: SharedRecorder) {
        self.sim.set_recorder(rec.clone());
        self.obs.set(rec);
    }

    /// Adds an input transactor.
    pub fn with_driver(mut self, d: impl InputTransactor + 'static) -> Self {
        self.drivers.push(Box::new(d));
        self
    }

    /// Adds an output transactor.
    pub fn with_monitor(mut self, m: impl OutputTransactor + 'static) -> Self {
        self.monitors.push(Box::new(m));
        self
    }

    /// Caps the cycles one transaction may take (guards against hung
    /// handshakes).
    pub fn with_max_cycles(mut self, max: u64) -> Self {
        self.max_cycles = max;
        self
    }

    /// Direct access to the underlying simulator (for pokes the transactors
    /// do not cover, e.g. mode pins).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Total cycles consumed across all transactions — the RTL-side cost
    /// metric for the paper's simulation-speed comparison (E2).
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Runs one transaction to completion: drives inputs, steps the clock,
    /// samples outputs until every monitor is done (or the cycle cap).
    ///
    /// Returns the collected SLM-level outputs as `(name, value, cycle)`.
    pub fn run_transaction(&mut self, txn: &Transaction) -> Vec<(String, Bv, u64)> {
        for d in &mut self.drivers {
            d.load(txn);
        }
        for m in &mut self.monitors {
            m.begin_transaction();
        }
        let mut outputs = Vec::new();
        let before = self.total_cycles;
        for cycle in 0..self.max_cycles {
            for d in &mut self.drivers {
                let _ = d.drive(&mut self.sim);
            }
            for m in &mut self.monitors {
                m.sample(&mut self.sim, cycle, &mut outputs);
            }
            self.sim.step();
            self.total_cycles += 1;
            if self.monitors.iter().all(|m| m.done()) {
                break;
            }
        }
        self.obs.add("cosim.transactions", 1);
        self.obs.add("cosim.cycles", self.total_cycles - before);
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_rtl::ModuleBuilder;

    /// A DUT that sums a stream of 4 bytes (valid-gated) and presents the
    /// total with a done flag.
    fn stream_summer() -> Module {
        let mut b = ModuleBuilder::new("summer");
        let valid = b.input("valid", 1);
        let data = b.input("data", 8);
        let acc = b.reg("acc", 16, Bv::zero(16));
        let cnt = b.reg("cnt", 3, Bv::zero(3));
        let accq = b.reg_q(acc);
        let cntq = b.reg_q(cnt);
        let dw = b.zext(data, 16);
        let sum = b.add(accq, dw);
        let next_acc = b.mux(valid, sum, accq);
        b.connect_reg(acc, next_acc);
        let one = b.lit(3, 1);
        let cnt_inc = b.add(cntq, one);
        let next_cnt = b.mux(valid, cnt_inc, cntq);
        b.connect_reg(cnt, next_cnt);
        let four = b.lit(3, 4);
        let done = b.eq(cntq, four);
        b.output("total", accq);
        b.output("done", done);
        b.finish().unwrap()
    }

    #[test]
    fn serialized_transaction_runs() {
        let wrapped = WrappedRtl::new(stream_summer()).unwrap();
        let mut wrapped = wrapped
            .with_driver(SerialDriver::new("bytes", "data", "valid", 8))
            .with_monitor(SerialCollector::new("total", "total", "done", 1));
        let mut txn = Transaction::new();
        // Bytes 1, 2, 3, 4 packed LSB-first.
        txn.insert("bytes".into(), Bv::from_u64(32, 0x04_03_02_01));
        let outs = wrapped.run_transaction(&txn);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, "total");
        assert_eq!(outs[0].1.to_u64(), 10);
        // One beat per cycle + the done cycle.
        assert_eq!(outs[0].2, 4);
    }

    #[test]
    fn direct_driver_and_fixed_monitor() {
        // Registered adder: result valid after 1 edge; sample at cycle 1.
        let mut b = ModuleBuilder::new("addreg");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let s = b.add(x, y);
        let r = b.reg("r", 8, Bv::zero(8));
        b.connect_reg(r, s);
        let q = b.reg_q(r);
        b.output("sum", q);
        let m = b.finish().unwrap();

        let mut wrapped = WrappedRtl::new(m)
            .unwrap()
            .with_driver(DirectDriver::new().map("a", "x").map("b", "y"))
            .with_monitor(FixedCycleMonitor::new("sum", 1));
        let mut txn = Transaction::new();
        txn.insert("a".into(), Bv::from_u64(8, 30));
        txn.insert("b".into(), Bv::from_u64(8, 12));
        let outs = wrapped.run_transaction(&txn);
        assert_eq!(outs[0].1.to_u64(), 42);
        // Second transaction reuses the wrapper.
        let mut txn2 = Transaction::new();
        txn2.insert("a".into(), Bv::from_u64(8, 1));
        txn2.insert("b".into(), Bv::from_u64(8, 2));
        let outs2 = wrapped.run_transaction(&txn2);
        assert_eq!(outs2[0].1.to_u64(), 3);
    }

    #[test]
    fn recorder_counts_transactions_and_cycles() {
        let rec = dfv_obs::MemoryRecorder::shared();
        let mut wrapped = WrappedRtl::new(stream_summer())
            .unwrap()
            .with_driver(SerialDriver::new("bytes", "data", "valid", 8))
            .with_monitor(SerialCollector::new("total", "total", "done", 1));
        wrapped.set_recorder(rec.clone());
        let mut txn = Transaction::new();
        txn.insert("bytes".into(), Bv::from_u64(32, 0x04_03_02_01));
        wrapped.run_transaction(&txn);
        let m = rec.lock().unwrap();
        assert_eq!(m.counter("cosim.transactions"), 1);
        assert_eq!(m.counter("cosim.cycles"), wrapped.total_cycles());
        // The forwarded recorder sees the inner simulator's work too.
        assert_eq!(m.counter("rtl.steps"), wrapped.total_cycles());
    }

    #[test]
    fn evaluation_engines_agree_through_transactors() {
        // The same serialized transactions through the bytecode engine
        // and the full-reevaluation reference must produce identical
        // transaction-level outputs and cycle counts.
        let run = |sim: Simulator| {
            let mut wrapped = WrappedRtl::from_simulator(sim)
                .with_driver(SerialDriver::new("bytes", "data", "valid", 8))
                .with_monitor(SerialCollector::new("total", "total", "done", 1));
            let mut txn = Transaction::new();
            txn.insert("bytes".into(), Bv::from_u64(32, 0x99_42_07_13));
            let outs = wrapped.run_transaction(&txn);
            (outs, wrapped.total_cycles())
        };
        let fast = run(Simulator::new(stream_summer()).unwrap());
        let reference = run(Simulator::new_reference(stream_summer()).unwrap());
        assert_eq!(fast, reference);
    }

    #[test]
    fn max_cycles_guards_hangs() {
        // A monitor waiting for a done flag that never rises.
        let mut b = ModuleBuilder::new("never");
        let x = b.input("x", 1);
        let zero = b.lit(1, 0);
        b.output("done", zero);
        b.output("echo", x);
        let m = b.finish().unwrap();
        let mut wrapped = WrappedRtl::new(m)
            .unwrap()
            .with_driver(DirectDriver::new().map("x", "x"))
            .with_monitor(SerialCollector::new("v", "echo", "done", 1))
            .with_max_cycles(50);
        let mut txn = Transaction::new();
        txn.insert("x".into(), Bv::from_bool(true));
        let outs = wrapped.run_transaction(&txn);
        assert!(outs.is_empty());
        assert_eq!(wrapped.total_cycles(), 50);
    }
}
