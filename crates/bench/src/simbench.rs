//! The deterministic simulator workload sweep behind `bench sim` and E16,
//! plus the 64-lane batched sweep behind `bench sim` and E15.
//!
//! Three seeded workloads from `dfv-designs` — a dense FIR stream, a
//! valid-gated convolution stream, and a mostly-idle memory system — each
//! run on both scalar evaluation engines: the default register-bytecode
//! VM ([`dfv_rtl::EvalMode::Bytecode`]) and the full-reevaluation
//! reference oracle ([`dfv_rtl::EvalMode::FullOracle`]). The VM's output
//! hash is asserted against the oracle's before any number lands in the
//! report. The comparable payload is the deterministic counter set
//! (`steps`, `eval_passes`, `node_evals`, and a cross-engine output
//! hash); wall-clock lives only in the report's timing section, so the
//! canonical JSON reproduces byte-for-byte across runs and machines while
//! the full JSON still carries the measured speedup.
//!
//! `node_evals` means "work units dispatched" per engine: VM
//! instructions for the bytecode engine (fusion can make it smaller than
//! the node count at equal coverage), IR nodes for the oracle. The
//! cross-engine work ratio is therefore approximate; the hashes are
//! exact.
//!
//! The batched sweep ([`add_batch_sweep`]) measures campaign throughput
//! instead of single-stream latency: 64 independently-seeded copies of
//! each workload run once per engine — 64 scalar VM simulators versus one
//! 64-lane [`dfv_rtl::LaneSim`] carrying one stream per lane — with the
//! per-lane output hashes asserted identical before any counter is
//! reported. `node_evals` counts kernel dispatches (VM instructions on
//! the scalar side, lane kernels on the other), so the lane engine's
//! dispatch count against the scalar instruction count is the honest work
//! ratio.

use dfv_bits::limbs::limbs_for;
use dfv_bits::{Bv, SplitMix64};
use dfv_designs::{conv, fir, memsys};
use dfv_obs::{Json, RunReport};
use dfv_rtl::{EvalMode, LaneSim, Module, SimStats, Simulator};

/// Lanes in the batched sweep (the lane engine's fixed width).
pub const BATCH_LANES: usize = 64;

/// Wall-clock repetitions per workload/engine pair in the scalar sweep;
/// the recorded time is the minimum across repetitions.
const TIMING_REPS: usize = 5;

/// One named deterministic workload: a module plus a seeded driver.
struct Workload {
    name: &'static str,
    module: fn() -> Module,
    /// Pushes the input values for one cycle into `out` (cleared and
    /// reused by the harness so driving allocates no per-cycle `Vec`).
    /// Ports not mentioned hold their previous value — both engines share
    /// that semantics, so the same value stream drives scalar simulators
    /// and individual lanes alike.
    drive: fn(&mut SplitMix64, u64, &mut Vec<(&'static str, Bv)>),
    /// Output ports folded into the cross-engine hash each cycle.
    hash_outputs: &'static [&'static str],
}

fn fir_module() -> Module {
    fir::rtl()
}

fn conv_module() -> Module {
    conv::rtl()
}

fn memsys_module() -> Module {
    memsys::rtl(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3])
}

/// Dense: a new sample every cycle, occasional stalls. `in_valid` is
/// constant, so it is driven once — ports hold their value, and a poke
/// that changes nothing is free on every engine.
fn drive_fir(rng: &mut SplitMix64, cycle: u64, out: &mut Vec<(&'static str, Bv)>) {
    let r = rng.next_u64();
    if cycle == 0 {
        out.push(("in_valid", Bv::from_bool(true)));
    }
    out.push(("stall", Bv::from_bool(r & 0xF == 0)));
    out.push(("x", Bv::from_u64(8, r >> 8)));
}

/// Medium density: a pixel on three cycles out of four.
fn drive_conv(rng: &mut SplitMix64, _cycle: u64, out: &mut Vec<(&'static str, Bv)>) {
    let r = rng.next_u64();
    out.push(("in_valid", Bv::from_bool(r & 3 != 0)));
    out.push(("pix_in", Bv::from_u64(8, r >> 8)));
}

/// Sparse: one request every 16th cycle, idle otherwise — the best case for
/// dirty-cone scheduling.
fn drive_memsys(rng: &mut SplitMix64, cycle: u64, out: &mut Vec<(&'static str, Bv)>) {
    // Drive only edges: raise req_valid on request cycles, drop it the
    // cycle after. Ports hold their value in between, so the effective
    // stimulus (and every engine's counters) is identical to re-driving
    // the idle value each cycle.
    if cycle.is_multiple_of(16) {
        let r = rng.next_u64();
        out.push(("req_valid", Bv::from_bool(true)));
        out.push(("tag", Bv::from_u64(memsys::TAG_W, r)));
        out.push(("addr", Bv::from_u64(memsys::ADDR_W, r >> 32)));
    } else if cycle % 16 == 1 {
        out.push(("req_valid", Bv::from_bool(false)));
    }
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fir_dense",
        module: fir_module,
        drive: drive_fir,
        hash_outputs: &["y", "out_valid"],
    },
    Workload {
        name: "conv_stream",
        module: conv_module,
        drive: drive_conv,
        hash_outputs: &["pix_out", "out_valid"],
    },
    Workload {
        name: "memsys_sparse",
        module: memsys_module,
        drive: drive_memsys,
        hash_outputs: &["resp0_valid", "resp0_data", "resp1_valid", "resp1_data"],
    },
];

/// The base stimulus seed for a workload.
fn base_seed(w: &Workload) -> u64 {
    0xD15C_0000 ^ w.name.len() as u64
}

/// Per-lane stream seed — lane 0 is the base stream itself, so the
/// single-stream sweep (`bench sim`) and lane 0 of the batched sweep
/// replay the identical workload.
fn lane_seed(base: u64, lane: usize) -> u64 {
    base ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn fnv_fold(hash: u64, limb: u64) -> u64 {
    (hash ^ limb).wrapping_mul(0x100000001b3)
}

/// Runs one workload stream on one scalar engine; returns the simulator's
/// counters and a fold of the watched outputs (engine-independent by
/// construction).
fn run_workload(w: &Workload, mode: EvalMode, seed: u64, cycles: u64) -> (SimStats, u64) {
    let module = (w.module)();
    let mut sim = match mode {
        EvalMode::Bytecode => Simulator::new(module),
        EvalMode::FullOracle => Simulator::new_reference(module),
    }
    .expect("workload module builds");
    // Resolve the hashed ports once; the read loop is name-scan-free so
    // the sweep times the engines, not the port lookups.
    let out_idx: Vec<usize> = w
        .hash_outputs
        .iter()
        .map(|p| sim.module().output_index(p).expect("workload output port"))
        .collect();
    let mut rng = SplitMix64::new(seed);
    let mut hash = 0xcbf29ce484222325u64; // FNV-1a
    let mut stim = Vec::new();
    let mut ports = PortCache::default();
    for cycle in 0..cycles {
        stim.clear();
        (w.drive)(&mut rng, cycle, &mut stim);
        for (port, value) in stim.drain(..) {
            let idx = ports.input(sim.module(), port);
            sim.poke_at(idx, value);
        }
        sim.step();
        sim.for_each_output_limb(&out_idx, |limb| hash = fnv_fold(hash, limb));
    }
    (sim.stats(), hash)
}

/// A name→index cache for driven ports: drivers reuse the same
/// `'static` literals each cycle, so the pointer comparison hits and
/// each port name is resolved once instead of scanned every poke.
#[derive(Default)]
struct PortCache(Vec<(&'static str, usize)>);

impl PortCache {
    fn input(&mut self, module: &Module, port: &'static str) -> usize {
        if let Some(&(_, i)) = self
            .0
            .iter()
            .find(|(p, _)| std::ptr::eq(*p, port) || *p == port)
        {
            return i;
        }
        let i = module.input_index(port).expect("workload input port");
        self.0.push((port, i));
        i
    }
}

/// Runs 64 independently-seeded streams of one workload on a single
/// [`LaneSim`]; returns the lane engine's counters and the per-lane
/// output hashes (same fold as [`run_workload`]). Ports move as planes,
/// as the scalar side moves them by index: each lane's drives land in
/// per-port planes kept across cycles (an undriven lane holds its value,
/// as a scalar port does), each port driven this cycle is poked with one
/// call, and hashes fold from the output planes.
fn run_workload_lanes(w: &Workload, cycles: u64) -> (dfv_rtl::LaneStats, Vec<u64>) {
    let mut sim = LaneSim::new((w.module)()).expect("workload module builds");
    let module = sim.module().clone();
    let out_idx: Vec<usize> = w
        .hash_outputs
        .iter()
        .map(|p| module.output_index(p).expect("workload output port"))
        .collect();
    let mut planes: Vec<Vec<u64>> = module
        .inputs
        .iter()
        .map(|p| vec![0; BATCH_LANES * limbs_for(p.width)])
        .collect();
    let mut driven = vec![false; planes.len()];
    let mut rngs: Vec<SplitMix64> = (0..BATCH_LANES)
        .map(|lane| SplitMix64::new(lane_seed(base_seed(w), lane)))
        .collect();
    let mut hashes = vec![0xcbf29ce484222325u64; BATCH_LANES];
    let mut stim = Vec::new();
    let mut ports = PortCache::default();
    for cycle in 0..cycles {
        for (lane, rng) in rngs.iter_mut().enumerate() {
            stim.clear();
            (w.drive)(rng, cycle, &mut stim);
            for (port, value) in stim.drain(..) {
                let idx = ports.input(&module, port);
                let n = value.limbs().len();
                planes[idx][lane * n..][..n].copy_from_slice(value.limbs());
                driven[idx] = true;
            }
        }
        for (idx, plane) in planes.iter().enumerate() {
            if std::mem::take(&mut driven[idx]) {
                sim.poke_plane(idx, plane);
            }
        }
        sim.step();
        for &o in &out_idx {
            let n = limbs_for(module.outputs[o].width);
            let plane = sim.output_plane(o);
            for (lane, hash) in hashes.iter_mut().enumerate() {
                for &limb in &plane[lane * n..][..n] {
                    *hash = fnv_fold(*hash, limb);
                }
            }
        }
    }
    (sim.stats(), hashes)
}

fn engine_tag(mode: EvalMode) -> &'static str {
    match mode {
        EvalMode::Bytecode => "vm",
        EvalMode::FullOracle => "reference",
    }
}

/// Both scalar engines, reference last (its hash anchors the parity
/// assert, and "compiled engine first" keeps the table order stable).
const ENGINES: [EvalMode; 2] = [EvalMode::Bytecode, EvalMode::FullOracle];

/// Runs the whole `bench sim` sweep and reduces it to a [`RunReport`]:
/// the scalar engine sweep at `cycles` cycles per workload
/// ([`add_engine_sweep`]), then the batched sweep at `batch_cycles`
/// cycles per stream ([`add_batch_sweep`]).
///
/// Counters and values are a pure function of the fixed seeds (the
/// canonical JSON is byte-reproducible); timing phases carry the
/// wall-clock measurements.
///
/// # Panics
///
/// Panics if the VM disagrees with the reference oracle, or a lane with
/// its scalar run, on any workload's output stream — that would be a
/// simulator bug, not a measurement. The asserts fire before the report
/// (and thus any timing) is returned.
pub fn sim_bench_report(cycles: u64, batch_cycles: u64) -> RunReport {
    let mut rep = RunReport::new("sim_engine_sweep");
    add_engine_sweep(&mut rep, cycles);
    add_batch_sweep(&mut rep, batch_cycles);
    rep
}

/// Appends the scalar engine sweep (VM and reference oracle, every
/// workload) to a report; also the body of E16. One timing phase per
/// workload/engine pair.
///
/// # Panics
///
/// Panics if the VM's output hash differs from the oracle's.
pub fn add_engine_sweep(rep: &mut RunReport, cycles: u64) {
    rep.set_value("cycles_per_workload", Json::UInt(cycles));
    for w in &WORKLOADS {
        // Best-of-N wall clock, engines interleaved within each
        // repetition: the per-engine timed section is a few milliseconds,
        // so a single run is dominated by scheduler noise on a shared
        // machine, and timing engines seconds apart would let load drift
        // skew their *ratio*. The counters and hash are a pure function
        // of the seed — identical across repetitions — so only the
        // minimum wall time per engine is recorded.
        let mut best = [std::time::Duration::MAX; ENGINES.len()];
        let mut outs: [Option<(SimStats, u64)>; ENGINES.len()] = [None; ENGINES.len()];
        for _ in 0..TIMING_REPS {
            for (k, &mode) in ENGINES.iter().enumerate() {
                let t = std::time::Instant::now();
                let r = run_workload(w, mode, base_seed(w), cycles);
                best[k] = best[k].min(t.elapsed());
                outs[k].get_or_insert(r);
            }
        }
        for (k, &mode) in ENGINES.iter().enumerate() {
            let tag = engine_tag(mode);
            rep.push_phase(format!("{}.{tag}", w.name), best[k]);
            let (stats, _) = outs[k].expect("at least one timing rep");
            rep.set_counter(format!("sim.{}.{tag}.steps", w.name), stats.steps);
            rep.set_counter(
                format!("sim.{}.{tag}.eval_passes", w.name),
                stats.eval_passes,
            );
            rep.set_counter(format!("sim.{}.{tag}.node_evals", w.name), stats.node_evals);
        }
        let [(vm_stats, vm_hash), (ref_stats, ref_hash)] =
            outs.map(|o| o.expect("at least one timing rep"));
        assert_eq!(
            vm_hash, ref_hash,
            "vm engine diverged from the reference oracle on workload {}",
            w.name
        );
        rep.set_value(
            format!("node_evals_ref_over_vm_x100.{}", w.name),
            Json::UInt(ref_stats.node_evals * 100 / vm_stats.node_evals.max(1)),
        );
        rep.set_counter(format!("sim.{}.out_hash", w.name), ref_hash);
    }
}

/// Appends the 64-lane batched sweep to a report (`bench sim`, E15): for
/// each workload, 64 independently-seeded streams on 64 scalar VM
/// simulators versus the same 64 streams on one [`LaneSim`].
/// Counters land under `sim_batch.*`; the per-lane output hashes must
/// agree or this panics (a lane/scalar divergence is a simulator bug).
///
/// `node_evals` counts kernel dispatches on both engines (VM
/// instructions on the scalar side; every lane kernel, division included,
/// runs in the lane domain), so `sim_batch.<w>.scalar.node_evals` versus
/// `sim_batch.<w>.lanes.node_evals` is an apples-to-apples work
/// comparison.
pub fn add_batch_sweep(rep: &mut RunReport, cycles: u64) {
    rep.set_value("batch_lanes", Json::UInt(BATCH_LANES as u64));
    for w in &WORKLOADS {
        let (scalar_evals, scalar_hashes) = rep.phase(format!("{}.scalar64", w.name), || {
            let mut evals = 0u64;
            let mut hashes = Vec::with_capacity(BATCH_LANES);
            for lane in 0..BATCH_LANES {
                let (stats, hash) =
                    run_workload(w, EvalMode::Bytecode, lane_seed(base_seed(w), lane), cycles);
                evals += stats.node_evals;
                hashes.push(hash);
            }
            (evals, hashes)
        });
        let (lane_stats, lane_hashes) = rep.phase(format!("{}.lanes", w.name), || {
            run_workload_lanes(w, cycles)
        });
        assert_eq!(
            scalar_hashes, lane_hashes,
            "lane engine diverged from scalar on workload {}",
            w.name
        );
        let out_hash = scalar_hashes
            .iter()
            .fold(0xcbf29ce484222325u64, |h, &x| fnv_fold(h, x));
        rep.set_counter(
            format!("sim_batch.{}.scalar.node_evals", w.name),
            scalar_evals,
        );
        rep.set_counter(
            format!("sim_batch.{}.lanes.node_evals", w.name),
            lane_stats.node_evals,
        );
        rep.set_counter(format!("sim_batch.{}.out_hash", w.name), out_hash);
        rep.set_value(
            format!("node_evals_scalar_over_lanes_x100.{}", w.name),
            Json::UInt(scalar_evals * 100 / lane_stats.node_evals.max(1)),
        );
    }
}

/// Wall-clock of the phase `{workload}.{tag}`, in microseconds.
fn phase_us(rep: &RunReport, workload: &str, tag: &str) -> u128 {
    let name = format!("{workload}.{tag}");
    rep.phases()
        .iter()
        .filter(|p| p.name == name)
        .map(|p| p.wall.as_micros())
        .sum()
}

/// Renders the scalar sweep as a table — one row per workload x engine —
/// plus the measured wall-clock speedups against the reference oracle.
pub fn render_sim_bench(rep: &RunReport) -> String {
    let mut out = String::from(
        "simulator workload sweep: bytecode VM vs the full-reevaluation reference oracle\n\n",
    );
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let ref_evals = rep.counter(&format!("sim.{}.reference.node_evals", w.name));
        let ref_us = phase_us(rep, w.name, "reference");
        for mode in ENGINES {
            let tag = engine_tag(mode);
            let evals = rep.counter(&format!("sim.{}.{tag}.node_evals", w.name));
            let us = phase_us(rep, w.name, tag);
            rows.push(vec![
                w.name.to_string(),
                tag.to_string(),
                evals.to_string(),
                format!("{:.2}x", ref_evals as f64 / evals.max(1) as f64),
                format!("{us}"),
                if us > 0 {
                    format!("{:.2}x", ref_us as f64 / us as f64)
                } else {
                    "-".into()
                },
            ]);
        }
    }
    out.push_str(&crate::render_table(
        &[
            "workload",
            "engine",
            "node_evals",
            "work vs ref",
            "us",
            "wall vs ref",
        ],
        &rows,
    ));
    out.push_str(
        "\nnode_evals are deterministic work units per engine (VM instructions for the\nbytecode engine, IR nodes for the reference) and form the canonical JSON\npayload; the us / speedup columns are measured wall-clock and live only in the\nfull JSON's timing section. The VM's output hash is asserted against the\nreference oracle before the report exists.\n",
    );
    out
}

/// Renders the batched sweep table ([`add_batch_sweep`] counters).
pub fn render_sim_batch(rep: &RunReport) -> String {
    let mut out = format!(
        "batched campaign sweep: {BATCH_LANES} scalar simulators vs one {BATCH_LANES}-lane engine\n\n",
    );
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let scalar = rep.counter(&format!("sim_batch.{}.scalar.node_evals", w.name));
        let lanes = rep.counter(&format!("sim_batch.{}.lanes.node_evals", w.name));
        let (mut scalar_us, mut lanes_us) = (0u128, 0u128);
        for p in rep.phases() {
            if p.name == format!("{}.scalar64", w.name) {
                scalar_us += p.wall.as_micros();
            } else if p.name == format!("{}.lanes", w.name) {
                lanes_us += p.wall.as_micros();
            }
        }
        rows.push(vec![
            w.name.to_string(),
            scalar.to_string(),
            lanes.to_string(),
            format!("{:.2}x", scalar as f64 / lanes.max(1) as f64),
            format!("{scalar_us}"),
            format!("{lanes_us}"),
            if lanes_us > 0 {
                format!("{:.2}x", scalar_us as f64 / lanes_us as f64)
            } else {
                "-".into()
            },
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "workload",
            "scalar64 node_evals",
            "lane dispatches",
            "work ratio",
            "scalar us",
            "lanes us",
            "wall speedup",
        ],
        &rows,
    ));
    out.push_str(
        "\nper-lane output hashes are asserted identical before any counter is reported.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_report(cycles: u64) -> RunReport {
        let mut rep = RunReport::new("engines_only");
        add_engine_sweep(&mut rep, cycles);
        rep
    }

    #[test]
    fn canonical_json_reproduces_and_sparse_workload_wins() {
        let a = engine_report(200);
        let b = engine_report(200);
        assert_eq!(a.canonical_json(), b.canonical_json());
        // On the sparse workload the VM's dirty-cone scheduling must do
        // strictly less work than the reference.
        let vm = a.counter("sim.memsys_sparse.vm.node_evals");
        let reference = a.counter("sim.memsys_sparse.reference.node_evals");
        assert!(vm > 0);
        assert!(vm < reference, "vm {vm} vs reference {reference}");
        // Timing never leaks into the canonical form.
        assert!(!a.canonical_json().contains("wall_us"));
    }

    #[test]
    fn vm_and_reference_rows_present() {
        let a = engine_report(150);
        for w in ["fir_dense", "conv_stream", "memsys_sparse"] {
            // Same stimulus on both engines: equal step counts.
            assert_eq!(
                a.counter(&format!("sim.{w}.vm.steps")),
                a.counter(&format!("sim.{w}.reference.steps"))
            );
            assert!(a.counter(&format!("sim.{w}.vm.steps")) > 0);
            assert!(a.counter(&format!("sim.{w}.vm.node_evals")) > 0);
        }
        assert!(!a.canonical_json().contains(".dirty."));
    }

    #[test]
    fn batch_sweep_reproduces_and_beats_scalar_by_8x() {
        let mk = || {
            let mut rep = RunReport::new("batch_only");
            add_batch_sweep(&mut rep, 120);
            rep
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.canonical_json(), b.canonical_json());
        for w in ["fir_dense", "conv_stream", "memsys_sparse"] {
            let scalar = a.counter(&format!("sim_batch.{w}.scalar.node_evals"));
            let lane_work = a.counter(&format!("sim_batch.{w}.lanes.node_evals"));
            assert!(lane_work > 0, "{w}");
            assert!(
                lane_work * 8 <= scalar,
                "{w}: lane work {lane_work} vs scalar {scalar}"
            );
        }
    }
}
