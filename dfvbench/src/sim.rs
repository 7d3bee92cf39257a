//! The simulation share of a cold campaign job, called as a library: a
//! batched 64-lane stimulus sweep checked against the scalar engine, and
//! SLM/RTL co-simulation of seeded transaction streams checked by
//! comparators.

use dfv_bits::{Bv, SplitMix64};
use dfv_core::StimulusSweep;
use dfv_cosim::{
    Comparator, FieldSpec, InOrderComparator, OutOfOrderComparator, StimulusGen, StreamItem,
};
use dfv_designs::{conv, fir, memsys};
use dfv_rtl::{LaneSim, Module, Simulator};
use dfv_slmir::{Interp, Program, ScalarTy, Value};

use crate::gen::seeded_table;
use crate::mix;
use crate::stats::Fnv;
use crate::trace::Tracer;

/// Scenarios per sweep: one full lane group.
const SCENARIOS: usize = 64;
/// Distinct sweep seeds the jobs rotate through; each has its scalar
/// reference computed before timing.
const SWEEP_POOL: usize = 8;

/// The three designs the simulation share runs: the repository's FIR
/// and blur tile, and the dual-bank lookup with a seeded ROM. The FIR keeps
/// its fixed coefficients because the lane engine's constant multiplier
/// costs one shift-add per set coefficient bit: seeded coefficients would
/// make a job's cost depend on the seed.
struct Designs {
    table: [u8; 16],
    modules: [Module; 3],
}

impl Designs {
    fn new(seed: u64) -> Designs {
        let table = seeded_table(&mut SplitMix64::new(mix(seed, 0xDE5)));
        Designs {
            table,
            modules: [fir::rtl(), conv::rtl(), memsys::rtl(&table)],
        }
    }
}

/// The stimulus fields of each design's sweep, in module order.
fn sweep_fields() -> [Vec<(&'static str, FieldSpec)>; 3] {
    let bit = FieldSpec::Uniform { width: 1 };
    [
        vec![
            ("in_valid", bit.clone()),
            (
                "x",
                FieldSpec::Corners {
                    width: 8,
                    corner_percent: 25,
                },
            ),
        ],
        vec![
            ("in_valid", bit.clone()),
            ("pix_in", FieldSpec::Uniform { width: 8 }),
        ],
        vec![
            ("req_valid", bit),
            (
                "tag",
                FieldSpec::Uniform {
                    width: memsys::TAG_W,
                },
            ),
            (
                "addr",
                FieldSpec::Uniform {
                    width: memsys::ADDR_W,
                },
            ),
        ],
    ]
}

fn sweep(seed: u64, fields: &[(&'static str, FieldSpec)], cycles: usize) -> StimulusSweep {
    fields
        .iter()
        .fold(StimulusSweep::new(seed), |s, (n, f)| s.field(n, f.clone()))
        .scenarios(SCENARIOS)
        .cycles(cycles)
        .with_workers(1)
}

fn hash_bv(h: &mut Fnv, v: &Bv) {
    h.write(&v.width().to_le_bytes());
    for limb in v.limbs() {
        h.u64(*limb);
    }
}

/// How much simulation one job does.
#[derive(Debug, Clone, Copy)]
pub struct SimSize {
    /// Cycles each lane-sweep scenario runs.
    pub sweep_cycles: usize,
    /// FIR blocks (8 samples each) co-simulated.
    pub fir_blocks: usize,
    /// Blur tiles co-simulated.
    pub tiles: usize,
    /// Tagged lookups co-simulated.
    pub lookups: usize,
}

impl SimSize {
    /// Stream items the comparators must match: each FIR sample, each
    /// blur pixel and each lookup response.
    fn items(self) -> usize {
        self.fir_blocks * fir::BLOCK + self.tiles * conv::PIXELS + self.lookups
    }
}

const I8: ScalarTy = ScalarTy {
    width: 8,
    signed: true,
};
const U8: ScalarTy = ScalarTy {
    width: 8,
    signed: false,
};
const U4: ScalarTy = ScalarTy {
    width: 4,
    signed: false,
};

/// The SLM side of the co-simulation: the three parsed golden models.
struct Golden {
    fir: Program,
    conv: Program,
    memsys: Program,
}

/// Spans a closure when tracing, runs it plain otherwise.
fn span<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

fn unpack_array(v: &Value) -> &[Bv] {
    match v {
        Value::Array(words, _) => words,
        other => panic!("expected an array, got {other}"),
    }
}

/// One co-simulation job's stream totals.
#[derive(Default)]
struct CosimTally {
    matched: usize,
    mismatches: usize,
    node_evals: u64,
    digest: Fnv,
}

fn cosim_job(
    designs: &Designs,
    golden: &Golden,
    size: SimSize,
    rng: &mut SplitMix64,
    mut tr: Option<&mut Tracer>,
) -> CosimTally {
    let mut tally = CosimTally::default();
    let [fir_m, conv_m, mem_m] = &designs.modules;
    let (mut fir_sim, mut conv_sim, mut mem_sim) = span(&mut tr, "rtl.sim_build", || {
        let sim = |m: &Module| Simulator::new(m.clone()).expect("module simulates");
        (sim(fir_m), sim(conv_m), sim(mem_m))
    });
    let (mut fir_slm, mut conv_slm, mut mem_slm) = span(&mut tr, "slmir.interp", || {
        (
            Interp::new_compiled(&golden.fir),
            Interp::new_compiled(&golden.conv),
            Interp::new_compiled(&golden.memsys),
        )
    });

    // FIR: one block of 8 samples per transaction, the RTL reset between
    // blocks to match the SLM's zero history.
    let mut cmp = InOrderComparator::new(u64::MAX);
    for blk in 0..size.fir_blocks {
        let xs: Vec<Bv> = (0..fir::BLOCK)
            .map(|_| Bv::from_u64(8, rng.bits(8)))
            .collect();
        let r = span(&mut tr, "slmir.interp", || {
            fir_slm
                .run("fir", &[Value::Array(xs.clone(), I8)])
                .expect("fir model runs")
        });
        let ys = unpack_array(&r.outs[0].1).to_vec();
        let actual: Vec<Bv> = span(&mut tr, "rtl.sim_step", || {
            fir_sim.reset();
            xs.iter()
                .map(|x| {
                    fir_sim.poke("in_valid", Bv::from_bool(true));
                    fir_sim.poke("stall", Bv::from_bool(false));
                    fir_sim.poke("x", x.clone());
                    fir_sim.step();
                    fir_sim.output("y")
                })
                .collect()
        });
        span(&mut tr, "cosim.compare", || {
            for (n, (e, a)) in ys.into_iter().zip(actual).enumerate() {
                let time = (blk * fir::BLOCK + n) as u64;
                tally.digest.u64(a.to_u64());
                cmp.push_expected(StreamItem { value: e, time });
                cmp.push_actual(StreamItem { value: a, time });
            }
        });
    }
    let rep = span(&mut tr, "cosim.compare", || cmp.finish());
    tally.matched += rep.matched;
    tally.mismatches += rep.mismatches.len();

    // Blur: a whole tile into the SLM, 16 load then 16 output cycles of RTL.
    let mut cmp = InOrderComparator::new(u64::MAX);
    for tile in 0..size.tiles {
        let img: Vec<Bv> = (0..conv::PIXELS)
            .map(|_| Bv::from_u64(8, rng.bits(8)))
            .collect();
        let r = span(&mut tr, "slmir.interp", || {
            conv_slm
                .run("blur", &[Value::Array(img.clone(), U8)])
                .expect("blur model runs")
        });
        let res = unpack_array(&r.outs[0].1).to_vec();
        let actual: Vec<Bv> = span(&mut tr, "rtl.sim_step", || {
            conv_sim.reset();
            for p in &img {
                conv_sim.poke("in_valid", Bv::from_bool(true));
                conv_sim.poke("pix_in", p.clone());
                conv_sim.step();
            }
            (0..conv::PIXELS)
                .map(|_| {
                    conv_sim.poke("in_valid", Bv::from_bool(false));
                    let v = conv_sim.output("pix_out");
                    conv_sim.step();
                    v
                })
                .collect()
        });
        span(&mut tr, "cosim.compare", || {
            for (n, (e, a)) in res.into_iter().zip(actual).enumerate() {
                let time = (tile * conv::PIXELS + n) as u64;
                tally.digest.u64(a.to_u64());
                cmp.push_expected(StreamItem { value: e, time });
                cmp.push_actual(StreamItem { value: a, time });
            }
        });
    }
    let rep = span(&mut tr, "cosim.compare", || cmp.finish());
    tally.matched += rep.matched;
    tally.mismatches += rep.mismatches.len();

    // Lookups: one tagged request per cycle; the two banks answer out of
    // order on separate ports, matched to the SLM's answers by tag.
    let reqs: Vec<(u64, u64)> = (0..size.lookups as u64)
        .map(|k| (k % (1 << memsys::TAG_W), rng.below(16)))
        .collect();
    let mut cmp = OutOfOrderComparator::new(10, 8, 8);
    for (k, &(tag, addr)) in reqs.iter().enumerate() {
        let r = span(&mut tr, "slmir.interp", || {
            mem_slm
                .run("lookup", &[Value::from_u64(U4, addr)])
                .expect("lookup model runs")
        });
        let data = r.ret.as_bv().expect("lookup returns a scalar").to_u64();
        span(&mut tr, "cosim.compare", || {
            cmp.push_expected(StreamItem {
                value: memsys::pack_response(tag, data),
                time: k as u64,
            })
        });
    }
    let responses: Vec<(u64, u64, u64)> = span(&mut tr, "rtl.sim_step", || {
        let mut out = Vec::new();
        for cycle in 0..(reqs.len() as u64 + memsys::SLOW_LATENCY + 1) {
            match reqs.get(cycle as usize) {
                Some(&(tag, addr)) => {
                    mem_sim.poke("req_valid", Bv::from_bool(true));
                    mem_sim.poke("tag", Bv::from_u64(memsys::TAG_W, tag));
                    mem_sim.poke("addr", Bv::from_u64(memsys::ADDR_W, addr));
                }
                None => mem_sim.poke("req_valid", Bv::from_bool(false)),
            }
            mem_sim.step();
            for (v, t, d) in [
                ("resp0_valid", "resp0_tag", "resp0_data"),
                ("resp1_valid", "resp1_tag", "resp1_data"),
            ] {
                if mem_sim.output(v).bit(0) {
                    out.push((
                        cycle,
                        mem_sim.output(t).to_u64(),
                        mem_sim.output(d).to_u64(),
                    ));
                }
            }
        }
        out
    });
    let rep = span(&mut tr, "cosim.compare", || {
        for &(cycle, tag, data) in &responses {
            tally.digest.u64(data);
            cmp.push_actual(StreamItem {
                value: memsys::pack_response(tag, data),
                time: cycle,
            });
        }
        cmp.finish()
    });
    tally.matched += rep.matched;
    tally.mismatches += rep.mismatches.len();
    tally.node_evals =
        fir_sim.stats().node_evals + conv_sim.stats().node_evals + mem_sim.stats().node_evals;
    tally
}

/// The simulation share of a cold campaign job: one 64-lane sweep of each
/// design, every scenario hash checked against the scalar engine's, and a
/// co-simulation batch with zero comparator mismatches over a known item
/// count.
pub struct SimPass {
    seed: u64,
    size: SimSize,
    fields: [Vec<(&'static str, FieldSpec)>; 3],
    /// Per pool entry, per design: the scalar path's scenario hashes.
    reference: Vec<[Vec<u64>; 3]>,
    state: Option<(Designs, Golden)>,
}

impl SimPass {
    pub fn new(seed: u64, size: SimSize) -> Self {
        SimPass {
            seed,
            size,
            fields: sweep_fields(),
            reference: Vec::new(),
            state: None,
        }
    }

    fn sweep_seed(&self, i: usize) -> u64 {
        mix(self.seed, 0x5EED_0000 + (i % SWEEP_POOL) as u64)
    }

    /// Computes the scalar references the lane sweeps are checked against.
    pub fn prepare(&mut self) {
        let designs = Designs::new(self.seed);
        self.reference = (0..SWEEP_POOL)
            .map(|p| {
                let seed = self.sweep_seed(p);
                std::array::from_fn(|d| {
                    let r = sweep(seed, &self.fields[d], self.size.sweep_cycles)
                        .run(&designs.modules[d])
                        .expect("scalar sweep runs");
                    r.scenarios.iter().map(|s| s.out_hash).collect()
                })
            })
            .collect();
    }

    /// Builds the designs and parses the golden models, then runs one
    /// warm-up pass.
    pub fn setup(&mut self) -> Result<(), String> {
        let designs = Designs::new(self.seed);
        let parse = |src: &str| dfv_slmir::parse(src).map_err(|e| e.to_string());
        let golden = Golden {
            fir: parse(fir::slm_source())?,
            conv: parse(conv::slm_source())?,
            memsys: parse(&memsys::slm_source(&designs.table))?,
        };
        self.state = Some((designs, golden));
        self.run(usize::MAX, None, None)
    }

    /// Runs one design's sweep on the lane engine through its public
    /// calls, each under a span: what `StimulusSweep::run` does with one
    /// lane group.
    fn traced_lanes(
        &self,
        tr: &mut Tracer,
        d: usize,
        module: &Module,
        sweep_seed: u64,
    ) -> Vec<u64> {
        let sw = sweep(sweep_seed, &self.fields[d], self.size.sweep_cycles);
        let mut sim = tr.time("rtl.lane_build", || {
            LaneSim::new(module.clone()).expect("module simulates")
        });
        let mut gens: Vec<StimulusGen> = (0..SCENARIOS)
            .map(|s| {
                self.fields[d]
                    .iter()
                    .fold(StimulusGen::new(sw.scenario_seed(s)), |g, (n, f)| {
                        g.field(n, f.clone())
                    })
            })
            .collect();
        let mut hashers = vec![Fnv::default(); SCENARIOS];
        let mut outs = Vec::with_capacity(SCENARIOS * module.outputs.len());
        for _ in 0..self.size.sweep_cycles {
            let txns: Vec<_> = tr.time("cosim.stimulus", || {
                gens.iter_mut().map(|g| g.next_transaction()).collect()
            });
            tr.time("rtl.lane_poke", || {
                for (lane, txn) in txns.into_iter().enumerate() {
                    for (name, value) in txn {
                        sim.poke_lane(&name, lane, value);
                    }
                }
            });
            tr.time("rtl.lane_step", || sim.step());
            outs.clear();
            tr.time("rtl.lane_peek", || {
                for lane in 0..SCENARIOS {
                    for port in &module.outputs {
                        outs.push(sim.output_lane(&port.name, lane));
                    }
                }
            });
            for (k, v) in outs.iter().enumerate() {
                hash_bv(&mut hashers[k / module.outputs.len()], v);
            }
        }
        tr.count("rtl.lane_node_evals", sim.stats().node_evals as f64);
        hashers.iter().map(Fnv::finish).collect()
    }

    /// Runs and checks job `i`'s simulation share.
    pub fn run(
        &self,
        i: usize,
        mut tr: Option<&mut Tracer>,
        digest: Option<&mut Fnv>,
    ) -> Result<(), String> {
        let (designs, golden) = self.state.as_ref().expect("set up");
        let seed = self.sweep_seed(i);
        let mut hashes: [Vec<u64>; 3] = Default::default();
        for (d, m) in designs.modules.iter().enumerate() {
            hashes[d] = match tr.as_deref_mut() {
                None => {
                    let r = sweep(seed, &self.fields[d], self.size.sweep_cycles)
                        .with_lanes(64)
                        .run(m)?;
                    r.scenarios.iter().map(|s| s.out_hash).collect()
                }
                Some(t) => self.traced_lanes(t, d, m, seed),
            };
        }
        if let Some(d) = (0..3).find(|&d| hashes[d] != self.reference[i % SWEEP_POOL][d]) {
            return Err(format!(
                "job {i}: design {d} lane hashes differ from the scalar sweep"
            ));
        }
        let mut rng = SplitMix64::new(mix(self.seed, i as u64));
        let tally = cosim_job(designs, golden, self.size, &mut rng, tr.as_deref_mut());
        if let Some(t) = tr {
            t.count("rtl.node_evals", tally.node_evals as f64);
            t.count("cosim.mismatches", tally.mismatches as f64);
        }
        let items = self.size.items();
        if tally.mismatches > 0 || tally.matched != items {
            return Err(format!(
                "job {i}: {} matched of {items}, {} mismatches",
                tally.matched, tally.mismatches
            ));
        }
        if let Some(d) = digest {
            for h in hashes.iter().flatten() {
                d.u64(*h);
            }
            d.u64(tally.digest.finish());
        }
        Ok(())
    }
}
