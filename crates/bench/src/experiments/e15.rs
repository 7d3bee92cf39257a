//! E15 — 64-lane batched campaign simulation: the lane engine's work
//! ratio on the three standard workloads, plus the determinism grid that
//! justifies using it inside campaigns.
//!
//! Two claims, both rendered from one report:
//!
//! * **throughput** — 64 independently-seeded streams of each workload
//!   cost ~1/64 the kernel dispatches on one [`dfv_rtl::LaneSim`] that 64
//!   scalar simulators pay, with per-lane output hashes asserted
//!   identical first (the [`crate::simbench::add_batch_sweep`] counters);
//! * **determinism** — a [`dfv_core::StimulusSweep`] over the FIR design
//!   and a [`dfv_core::FaultCampaign`] over seeded stream blocks render
//!   byte-identical canonical reports at every point of the
//!   workers x lanes grid {1,4} x {1,64}, because scenario/cell seeds
//!   derive from indices, never from the executing lane, group, or
//!   worker.

use dfv_bits::Bv;
use dfv_core::{FaultBlock, FaultCampaign, StimulusSweep};
use dfv_cosim::{ComparatorPolicy, FieldSpec, StreamItem};
use dfv_obs::{Json, RunReport};

use crate::render_table;

/// Cycles per stream in the batched workload sweep.
const BATCH_CYCLES: u64 = 250;
/// Stimulus-sweep geometry: scenarios x cycles.
const SCENARIOS: usize = 96;
const SWEEP_CYCLES: usize = 64;

/// The workers x lanes grid every campaign surface is swept over.
const GRID: [(usize, usize); 4] = [(1, 1), (1, 64), (4, 1), (4, 64)];

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
        .scenarios(SCENARIOS)
        .cycles(SWEEP_CYCLES)
}

/// Seeded per-block streams for the fault-campaign grid (distinct values,
/// so every structural fault is observable).
fn fault_blocks() -> Vec<FaultBlock> {
    ["fir", "conv", "memsys"]
        .iter()
        .enumerate()
        .map(|(bi, name)| {
            let s: Vec<StreamItem> = (0..48)
                .map(|i| StreamItem {
                    value: Bv::from_u64(16, 0x100 * (bi as u64 + 1) + i),
                    time: i * 3,
                })
                .collect();
            FaultBlock {
                name: (*name).into(),
                expected: s.clone(),
                actual: s,
                policy: ComparatorPolicy::InOrder {
                    tolerance: u64::MAX,
                    max_skew: None,
                },
            }
        })
        .collect()
}

/// Runs E15 and reduces it to a [`RunReport`]. The canonical JSON is a
/// pure function of the fixed seeds.
///
/// # Panics
///
/// Panics if any grid point's canonical report diverges from the
/// (workers=1, lanes=1) baseline, or if the lane engine's per-lane
/// outputs diverge from the scalar engine on any workload.
pub fn e15_report() -> RunReport {
    let mut rep = RunReport::new("e15_lane_batching");
    crate::simbench::add_batch_sweep(&mut rep, BATCH_CYCLES);

    let module = dfv_designs::fir::rtl();
    let (digest, scalar_evals, lane_evals) = rep.phase("stimsweep_grid", || {
        let mut base: Option<String> = None;
        let mut digest = 0u64;
        let mut scalar_evals = 0u64;
        let mut lane_evals = 0u64;
        for (workers, lanes) in GRID {
            let r = fir_sweep(0xE15)
                .with_workers(workers)
                .with_lanes(lanes)
                .run(&module)
                .expect("fir sweep fields match the module");
            let canon = r.to_run_report().canonical_json();
            match &base {
                None => {
                    digest = r.digest();
                    base = Some(canon);
                }
                Some(b) => assert_eq!(
                    &canon, b,
                    "stimulus sweep diverged at workers={workers} lanes={lanes}"
                ),
            }
            if workers == 1 {
                if lanes == 64 {
                    lane_evals = r.node_evals;
                } else {
                    scalar_evals = r.node_evals;
                }
            }
        }
        (digest, scalar_evals, lane_evals)
    });
    rep.set_counter("e15.stimsweep.digest", digest);
    rep.set_counter("e15.stimsweep.scalar_evals", scalar_evals);
    rep.set_counter("e15.stimsweep.lane_evals", lane_evals);
    rep.set_counter("e15.stimsweep.grid_points", GRID.len() as u64);

    let blocks = fault_blocks();
    let detected = rep.phase("faultcamp_grid", || {
        let mut base: Option<String> = None;
        let mut detected = 0u64;
        for (workers, lanes) in GRID {
            let r = FaultCampaign::new(0xE15_0002)
                .with_workers(workers)
                .with_lanes(lanes)
                .run(&blocks);
            let canon = r.to_run_report().canonical_json();
            match &base {
                None => {
                    detected = r.detected() as u64;
                    base = Some(canon);
                }
                Some(b) => assert_eq!(
                    &canon, b,
                    "fault campaign diverged at workers={workers} lanes={lanes}"
                ),
            }
        }
        detected
    });
    rep.set_counter("e15.faultcamp.detected", detected);
    rep.set_counter("e15.faultcamp.grid_points", GRID.len() as u64);
    rep.set_value("grid", Json::Str("workers {1,4} x lanes {1,64}".into()));
    rep
}

/// Runs E15 and renders its report.
pub fn e15_lane_batching() -> String {
    let rep = e15_report();
    let mut out = String::from(
        "E15 — 64-lane batched campaign simulation: one LaneSim vs 64 scalar\nsimulators per workload, and the workers x lanes determinism grid\n\n",
    );
    let mut rows = Vec::new();
    for w in ["fir_dense", "conv_stream", "memsys_sparse"] {
        let scalar = rep.counter(&format!("sim_batch.{w}.scalar.node_evals"));
        let lanes = rep.counter(&format!("sim_batch.{w}.lanes.node_evals"));
        rows.push(vec![
            w.to_string(),
            scalar.to_string(),
            lanes.to_string(),
            format!("{:.2}x", scalar as f64 / lanes.max(1) as f64),
        ]);
    }
    out.push_str(&render_table(
        &[
            "workload",
            "scalar64 node_evals",
            "lane dispatches",
            "work ratio",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\nstimulus sweep: {} scenarios x {} cycles on the FIR design; canonical\nreports byte-identical across all {} grid points (digest {:#x});\nbatched work {} evals vs scalar {}.\n",
        SCENARIOS,
        SWEEP_CYCLES,
        rep.counter("e15.stimsweep.grid_points"),
        rep.counter("e15.stimsweep.digest"),
        rep.counter("e15.stimsweep.lane_evals"),
        rep.counter("e15.stimsweep.scalar_evals"),
    ));
    out.push_str(&format!(
        "fault campaign: {} cells detected over 3 blocks; canonical reports\nbyte-identical across all {} grid points.\n",
        rep.counter("e15.faultcamp.detected"),
        rep.counter("e15.faultcamp.grid_points"),
    ));
    out.push_str("\ncanonical JSON (byte-reproducible; timing lives only in the full report):\n");
    out.push_str(&rep.canonical_json());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_reproduces_and_batching_ratio_holds() {
        let j1 = e15_report().canonical_json();
        let j2 = e15_report().canonical_json();
        assert_eq!(j1, j2);
        assert!(!j1.contains("wall_us"));
        let parsed = dfv_obs::parse_json(&j1).unwrap();
        let counters = parsed.get("counters").unwrap();
        for w in ["fir_dense", "conv_stream", "memsys_sparse"] {
            let scalar = counters
                .get(&format!("sim_batch.{w}.scalar.node_evals"))
                .and_then(Json::as_u64)
                .unwrap();
            let lane_work = counters
                .get(&format!("sim_batch.{w}.lanes.node_evals"))
                .and_then(Json::as_u64)
                .unwrap();
            assert!(
                lane_work * 8 <= scalar,
                "{w}: lane work {lane_work} vs scalar {scalar}"
            );
        }
    }
}
