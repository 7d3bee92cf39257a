//! Batched constrained-random stimulus sweeps over compiled RTL.
//!
//! The simulation side of the campaign picture: a [`StimulusSweep`] runs
//! `scenarios` independent constrained-random stimulus streams (one
//! seeded [`StimulusGen`] per scenario) against a module for a fixed
//! cycle count, and digests each scenario's output stream into a stable
//! FNV-1a hash. The sweep is the fuzzing analogue of
//! [`crate::FaultCampaign`]: scenarios are the cells, and the report is a
//! pure function of the sweep seed and the module.
//!
//! # Lane batching
//!
//! With [`StimulusSweep::with_lanes`] the scenarios are chunked into
//! groups of up to 64 and each group executes on one
//! [`dfv_rtl::LaneSim`] — the bit-sliced 64-lane evaluator — with
//! scenario *i* of the group riding lane *i*. One kernel dispatch then
//! advances every scenario in the group at once, which is where the
//! ~`1/lanes` node-evaluation cost of a sweep comes from (measured by
//! [`StimulusSweepReport::node_evals`]).
//!
//! Determinism is the whole point of the layering: scenario seeds derive
//! from the scenario *index* (never the group, lane, or worker that ran
//! it), the scalar and lane engines are differentially tested to produce
//! identical outputs, and groups merge back in scenario order through the
//! deterministic scheduler in [`crate::sched`]. The canonical report
//! excludes the engine-dependent work counters, so it is byte-identical
//! for every `lanes` and worker count.

use dfv_bits::limbs::{limbs_for, LANES};
use dfv_bits::{Bv, Fnv, SplitMix64};
use dfv_cosim::{FieldSpec, StimulusGen};
use dfv_obs::{Json, RunReport};
use dfv_rtl::{LaneSim, Module, Simulator};

/// A seeded multi-scenario constrained-random sweep.
///
/// # Example
///
/// ```
/// use dfv_core::StimulusSweep;
/// use dfv_cosim::FieldSpec;
///
/// let module = dfv_designs::fir::rtl();
/// let sweep = StimulusSweep::new(7)
///     .field("in_valid", FieldSpec::Uniform { width: 1 })
///     .field("x", FieldSpec::Corners { width: 8, corner_percent: 25 })
///     .scenarios(8)
///     .cycles(32);
/// let scalar = sweep.run(&module).unwrap();
/// let batched = sweep.with_lanes(64).run(&module).unwrap();
/// assert_eq!(
///     scalar.to_run_report().canonical_json(),
///     batched.to_run_report().canonical_json(),
/// );
/// assert!(batched.node_evals < scalar.node_evals);
/// ```
#[derive(Debug, Clone)]
pub struct StimulusSweep {
    seed: u64,
    scenarios: usize,
    cycles: usize,
    lanes: usize,
    workers: Option<usize>,
    fields: Vec<(String, FieldSpec)>,
}

impl StimulusSweep {
    /// A sweep whose entire report is a pure function of `seed` and the
    /// module it runs over. Defaults: 64 scenarios, 256 cycles, scalar
    /// (one-lane) execution.
    pub fn new(seed: u64) -> Self {
        StimulusSweep {
            seed,
            scenarios: 64,
            cycles: 256,
            lanes: 1,
            workers: None,
            fields: Vec::new(),
        }
    }

    /// Adds a stimulus field driving the input port of the same name.
    /// Ports without a field are held at zero.
    pub fn field(mut self, port: &str, spec: FieldSpec) -> Self {
        self.fields.push((port.into(), spec));
        self
    }

    /// Sets how many independent scenarios to run.
    pub fn scenarios(mut self, n: usize) -> Self {
        self.scenarios = n;
        self
    }

    /// Sets how many cycles each scenario runs.
    pub fn cycles(mut self, n: usize) -> Self {
        self.cycles = n;
        self
    }

    /// Chunks scenarios into groups of `lanes` (clamped to `1..=64`),
    /// each executed on one [`LaneSim`] with scenario *i* of the group on
    /// lane *i*. Scenario seeds derive from scenario indices, so the
    /// report is byte-identical for every `lanes` value.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.clamp(1, LANES);
        self
    }

    /// Sets the scheduler worker count (lane groups are the work items).
    /// Defaults to [`std::thread::available_parallelism`]; `DFV_WORKERS`
    /// overrides either. The report is identical for every count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// The per-scenario stream seed — exposed so one scenario can be
    /// replayed in isolation from a report.
    pub fn scenario_seed(&self, scenario: usize) -> u64 {
        let mut r =
            SplitMix64::new(self.seed ^ (scenario as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64()
    }

    fn gen_for(&self, scenario: usize) -> StimulusGen {
        let mut g = StimulusGen::new(self.scenario_seed(scenario));
        for (name, spec) in &self.fields {
            g = g.field(name, spec.clone());
        }
        g
    }

    /// Runs the sweep. Errors (as strings, no panic) on a field naming a
    /// missing input port or mismatching its width — catching the
    /// misconfiguration before any cycles are spent.
    pub fn run(&self, module: &Module) -> Result<StimulusSweepReport, String> {
        for (name, spec) in &self.fields {
            let port = module
                .inputs
                .iter()
                .find(|p| &p.name == name)
                .ok_or_else(|| format!("stimulus field {name:?} names no input port"))?;
            let (fw, pw) = (field_width(spec), port.width);
            if fw != pw {
                return Err(format!(
                    "stimulus field {name:?} is {fw} bits but port is {pw}"
                ));
            }
        }
        let workers = crate::sched::resolve_workers(self.workers);
        let scenario_ids: Vec<usize> = (0..self.scenarios).collect();
        let groups: Vec<&[usize]> = scenario_ids.chunks(self.lanes.max(1)).collect();
        // One engine is validated and built per sweep; each work item
        // runs on its own clone of it.
        let runs = if self.lanes > 1 {
            let engine = LaneSim::new(module.clone()).map_err(|e| e.to_string())?;
            crate::sched::run_indexed(&groups, workers, |_, group| {
                self.run_group_lanes(engine.clone(), module, group)
            })
        } else {
            let engine = Simulator::new(module.clone()).map_err(|e| e.to_string())?;
            crate::sched::run_indexed(&groups, workers, |_, group| {
                self.run_group_scalar(engine.clone(), module, group)
            })
        };
        let mut scenarios = Vec::with_capacity(self.scenarios);
        let mut node_evals = 0u64;
        for run in runs {
            scenarios.extend(run.hashes);
            node_evals += run.node_evals;
        }
        Ok(StimulusSweepReport {
            seed: self.seed,
            cycles: self.cycles,
            scenarios,
            node_evals,
        })
    }

    /// One lane group on the scalar engine `sim` (a fresh clone of the
    /// sweep's engine): each scenario starts from a reset and its stream
    /// is replayed cycle by cycle.
    fn run_group_scalar(&self, mut sim: Simulator, module: &Module, group: &[usize]) -> GroupRun {
        let mut run = GroupRun::default();
        for &scenario in group {
            sim.reset();
            let mut gen = self.gen_for(scenario);
            let mut h = Fnv::new();
            for _ in 0..self.cycles {
                for (name, value) in gen.next_transaction() {
                    sim.poke(&name, value);
                }
                sim.step();
                for port in &module.outputs {
                    hash_bv(&mut h, &sim.output(&port.name));
                }
            }
            run.hashes.push(ScenarioOutcome {
                scenario,
                out_hash: h.finish(),
            });
        }
        // Stats survive a reset, so they cover every scenario of the group.
        run.node_evals = sim.stats().node_evals;
        run
    }

    /// One lane group on the batched engine: `sim` (a fresh clone of the
    /// sweep's [`LaneSim`]) carries the whole group, scenario *i* on lane
    /// *i*, each lane fed by its own generator — the same per-scenario
    /// streams the scalar path draws.
    /// Ports move as whole planes: each cycle every lane's fields are
    /// drawn in field order straight into per-field planes (the draws
    /// [`StimulusGen::next_transaction`] makes, with no map built), each
    /// plane is poked with one call, and each lane's digest is folded
    /// from the output planes in the bytes [`hash_bv`] writes.
    fn run_group_lanes(&self, mut sim: LaneSim, module: &Module, group: &[usize]) -> GroupRun {
        // `run` has checked that every field names an input of its width.
        let ports: Vec<usize> = self
            .fields
            .iter()
            .map(|(name, _)| module.input_index(name).expect("field port checked by run"))
            .collect();
        let mut planes: Vec<Vec<u64>> = self
            .fields
            .iter()
            .map(|(_, spec)| vec![0; LANES * limbs_for(field_width(spec))])
            .collect();
        let mut gens: Vec<StimulusGen> = group
            .iter()
            .map(|&s| StimulusGen::new(self.scenario_seed(s)))
            .collect();
        let mut hashers: Vec<Fnv> = group.iter().map(|_| Fnv::new()).collect();
        for _ in 0..self.cycles {
            for (lane, gen) in gens.iter_mut().enumerate() {
                for ((_, spec), plane) in self.fields.iter().zip(&mut planes) {
                    let n = plane.len() / LANES;
                    gen.draw_into(spec, &mut plane[lane * n..][..n]);
                }
            }
            for (&port, plane) in ports.iter().zip(&planes) {
                sim.poke_plane(port, plane);
            }
            sim.step();
            for (o, port) in module.outputs.iter().enumerate() {
                let n = limbs_for(port.width);
                let plane = sim.output_plane(o);
                for (lane, h) in hashers.iter_mut().enumerate() {
                    hash_limbs(h, port.width, &plane[lane * n..][..n]);
                }
            }
        }
        let mut run = GroupRun::default();
        for (&scenario, h) in group.iter().zip(&hashers) {
            run.hashes.push(ScenarioOutcome {
                scenario,
                out_hash: h.finish(),
            });
        }
        run.node_evals = sim.stats().node_evals;
        run
    }
}

/// One work item's results: the group's scenario digests in lane order
/// plus the engine work it spent.
#[derive(Debug, Default)]
struct GroupRun {
    hashes: Vec<ScenarioOutcome>,
    node_evals: u64,
}

fn field_width(spec: &FieldSpec) -> u32 {
    match spec {
        FieldSpec::Uniform { width }
        | FieldSpec::Range { width, .. }
        | FieldSpec::Corners { width, .. }
        | FieldSpec::Excluding { width, .. } => *width,
    }
}

/// Folds one output value into a scenario digest: width then limbs,
/// little-endian — identical bytes whichever engine produced the `Bv`.
fn hash_bv(h: &mut Fnv, v: &Bv) {
    hash_limbs(h, v.width(), v.limbs());
}

/// [`hash_bv`] over a value given as its width and limbs.
fn hash_limbs(h: &mut Fnv, width: u32, limbs: &[u64]) {
    h.write(&width.to_le_bytes());
    for limb in limbs {
        h.write(&limb.to_le_bytes());
    }
}

/// One scenario's digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The scenario index (its seed is [`StimulusSweep::scenario_seed`]).
    pub scenario: usize,
    /// FNV-1a over every output port value of every cycle, in cycle-major
    /// module-output order.
    pub out_hash: u64,
}

/// The result of one sweep.
///
/// The work counter ([`Self::node_evals`]) measures the engine, not the
/// design's behaviour — it differs between scalar and batched execution
/// by construction, so [`Self::to_run_report`] deliberately leaves it out
/// of the canonical report.
#[derive(Debug, Clone)]
pub struct StimulusSweepReport {
    /// The sweep seed everything derives from.
    pub seed: u64,
    /// Cycles each scenario ran.
    pub cycles: usize,
    /// Per-scenario digests, in scenario order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Kernel dispatches summed over every engine the sweep ran — the
    /// batched path's headline: one dispatch covers a whole lane group.
    pub node_evals: u64,
}

impl StimulusSweepReport {
    /// An order-sensitive digest of the whole sweep (for quick equality
    /// checks and bench summaries).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(&self.seed.to_le_bytes());
        for s in &self.scenarios {
            h.write(&(s.scenario as u64).to_le_bytes());
            h.write(&s.out_hash.to_le_bytes());
        }
        h.finish()
    }

    /// The sweep as a machine-readable [`RunReport`]. Only
    /// engine-independent data enters: the seed, geometry, and the
    /// per-scenario digests — so the canonical JSON is byte-identical
    /// for every `lanes` and worker count.
    pub fn to_run_report(&self) -> RunReport {
        let mut rep = RunReport::new("stimulus_sweep");
        rep.set_counter("stimsweep.scenarios", self.scenarios.len() as u64);
        rep.set_counter("stimsweep.cycles", self.cycles as u64);
        rep.set_value("seed", Json::UInt(self.seed));
        rep.set_value("digest", Json::UInt(self.digest()));
        rep.set_value(
            "scenarios",
            Json::Arr(
                self.scenarios
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("scenario", Json::UInt(s.scenario as u64)),
                            ("out_hash", Json::UInt(s.out_hash)),
                        ])
                    })
                    .collect(),
            ),
        );
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fir_sweep(seed: u64) -> StimulusSweep {
        StimulusSweep::new(seed)
            .field("in_valid", FieldSpec::Uniform { width: 1 })
            .field(
                "x",
                FieldSpec::Corners {
                    width: 8,
                    corner_percent: 25,
                },
            )
            .field(
                "stall",
                FieldSpec::Excluding {
                    width: 1,
                    exclude: vec![],
                },
            )
            .scenarios(96)
            .cycles(40)
    }

    /// A sweep over every field kind: a 100-bit uniform field, a
    /// zero-extended 70-bit corners field, range and exclusion fields,
    /// and one input with no field (held at zero). 70 scenarios leave a
    /// partial last lane group.
    fn mixed_sweep() -> (Module, StimulusSweep) {
        let mut b = dfv_rtl::ModuleBuilder::new("mixed");
        let wide = b.input("wide", 100);
        let c = b.input("c", 70);
        let r = b.input("r", 12);
        let e = b.input("e", 4);
        let idle = b.input("idle", 8);
        let acc = b.reg("acc", 100, Bv::zero(100));
        let q = b.reg_q(acc);
        let mut mix = b.add(q, wide);
        for (port, op) in [(c, 0), (r, 1), (e, 0), (idle, 2)] {
            let z = b.zext(port, 100);
            mix = match op {
                0 => b.xor(mix, z),
                1 => b.add(mix, z),
                _ => b.or(mix, z),
            };
        }
        b.connect_reg(acc, mix);
        b.output("acc", q);
        b.output("mix", mix);
        b.output("r_out", r);
        let sweep = StimulusSweep::new(0x5EED)
            .field("wide", FieldSpec::Uniform { width: 100 })
            .field(
                "c",
                FieldSpec::Corners {
                    width: 70,
                    corner_percent: 30,
                },
            )
            .field(
                "r",
                FieldSpec::Range {
                    width: 12,
                    lo: 100,
                    hi: 3000,
                },
            )
            .field(
                "e",
                FieldSpec::Excluding {
                    width: 4,
                    exclude: vec![0, 7, 15],
                },
            )
            .scenarios(70)
            .cycles(24);
        (b.finish().unwrap(), sweep)
    }

    #[test]
    fn scalar_and_lane_reports_are_byte_identical_at_any_geometry() {
        for (module, sweep) in [(dfv_designs::fir::rtl(), fir_sweep(0xF12)), mixed_sweep()] {
            let base = sweep.run(&module).unwrap().to_run_report().canonical_json();
            for workers in [1usize, 4] {
                for lanes in [1usize, 5, 64] {
                    let j = sweep
                        .clone()
                        .with_workers(workers)
                        .with_lanes(lanes)
                        .run(&module)
                        .unwrap()
                        .to_run_report()
                        .canonical_json();
                    assert_eq!(
                        j, base,
                        "{} diverged at workers={workers} lanes={lanes}",
                        module.name
                    );
                }
            }
        }
    }

    #[test]
    fn batching_cuts_kernel_dispatches() {
        // A fully lane-able datapath: one dispatch advances all 64 lanes,
        // and the sweep's total work drops by well over the 8x acceptance
        // floor even when every per-lane fallback evaluation (zero here)
        // is charged against the batched engine.
        let mut b = dfv_rtl::ModuleBuilder::new("laneable");
        let en = b.input("en", 1);
        let x = b.input("x", 16);
        let acc = b.reg("acc", 16, dfv_bits::Bv::zero(16));
        let q = b.reg_q(acc);
        let sum = b.add(q, x);
        let folded = b.xor(sum, q);
        b.connect_reg(acc, folded);
        b.reg_enable(acc, en);
        b.output("acc", q);
        let module = b.finish().unwrap();

        let sweep = |lanes| {
            StimulusSweep::new(3)
                .field("en", FieldSpec::Uniform { width: 1 })
                .field("x", FieldSpec::Uniform { width: 16 })
                .scenarios(96)
                .cycles(40)
                .with_lanes(lanes)
                .run(&module)
                .unwrap()
        };
        let scalar = sweep(1);
        let batched = sweep(64);
        assert_eq!(scalar.digest(), batched.digest());
        assert!(
            batched.node_evals * 8 <= scalar.node_evals,
            "batched {} vs scalar {}",
            batched.node_evals,
            scalar.node_evals
        );
    }

    #[test]
    fn scenarios_are_independent_of_grouping() {
        // A scenario's digest must not depend on which group (or lane) ran
        // it: sweeping 10 scenarios in groups of 3 gives the same
        // per-scenario hashes as groups of 64.
        let module = dfv_designs::fir::rtl();
        let a = fir_sweep(11)
            .scenarios(10)
            .with_lanes(3)
            .run(&module)
            .unwrap();
        let b = fir_sweep(11)
            .scenarios(10)
            .with_lanes(64)
            .run(&module)
            .unwrap();
        assert_eq!(a.scenarios, b.scenarios);
        // And distinct scenarios see distinct stimulus.
        assert_ne!(a.scenarios[0].out_hash, a.scenarios[1].out_hash);
    }

    #[test]
    fn misconfigured_fields_error_before_running() {
        let module = dfv_designs::fir::rtl();
        let missing = StimulusSweep::new(1)
            .field("nope", FieldSpec::Uniform { width: 8 })
            .run(&module);
        assert!(missing.unwrap_err().contains("no input port"));
        let wrong_width = StimulusSweep::new(1)
            .field("x", FieldSpec::Uniform { width: 16 })
            .run(&module);
        assert!(wrong_width.unwrap_err().contains("16 bits but port is 8"));
    }
}
