//! E10 — the observability layer end to end: one instrumented SLM run and
//! one instrumented RTL run of the same FIR workload, reduced to a
//! machine-readable [`RunReport`].
//!
//! This is the first experiment whose output is *numbers about the runs
//! themselves* rather than about the designs: the `slm.*` / `rtl.*`
//! counters recorded by the engines, per-phase wall time measured at the
//! edges, and the SLM-vs-RTL cost ratio in both forms —
//!
//! * **work ratio** (`rtl.node_evals` per `slm.activations`) — a
//!   deterministic structural proxy that lands in the canonical JSON and
//!   reproduces byte-for-byte across runs. `rtl.node_evals` counts the
//!   default engine's VM instructions executed;
//! * **wall ratio** (RTL phase time per SLM phase time) — the measured
//!   §2 "SLM simulates faster than RTL" number, reported in the rendered
//!   text and the report's `timing` section only, since wall time varies
//!   run to run.

use dfv_obs::{Json, MemoryRecorder, RunReport};

use crate::models::{sample_block, CycleApproxFir, RtlFir};
use crate::render_table;

/// Seeded sample blocks each model processes.
const BLOCKS: u64 = 16;

/// Runs the instrumented workload and reduces it to a [`RunReport`].
///
/// The canonical JSON of the result is a pure function of the (fixed)
/// seeds: counters from the engines plus the derived work ratio, with
/// wall time confined to the `timing` section.
pub fn e10_report() -> RunReport {
    let mut rep = RunReport::new("e10_observability");

    let slm_rec = MemoryRecorder::shared();
    let mut slm = CycleApproxFir::new();
    slm.set_recorder(slm_rec.clone());
    rep.phase("slm", || {
        let mut sink = 0i64;
        for seed in 0..BLOCKS {
            sink ^= slm.run(&sample_block(seed))[0];
        }
        std::hint::black_box(sink);
    });

    let rtl_rec = MemoryRecorder::shared();
    let mut rtl = RtlFir::new();
    rtl.set_recorder(rtl_rec.clone());
    rep.phase("rtl", || {
        let mut sink = 0i64;
        for seed in 0..BLOCKS {
            sink ^= rtl.run(&sample_block(seed))[0];
        }
        std::hint::black_box(sink);
    });

    rep.add_counters(
        slm_rec
            .lock()
            .unwrap()
            .counters()
            .iter()
            .map(|(k, v)| (*k, *v)),
    );
    rep.add_counters(
        rtl_rec
            .lock()
            .unwrap()
            .counters()
            .iter()
            .map(|(k, v)| (*k, *v)),
    );
    rep.set_value("blocks", Json::UInt(BLOCKS));
    let slm_work = rep.counter("slm.activations").max(1);
    let rtl_work = rep.counter("rtl.node_evals");
    rep.set_value(
        "work_ratio_rtl_over_slm_x100",
        Json::UInt(rtl_work * 100 / slm_work),
    );
    rep
}

/// Runs E10 and renders its report.
pub fn e10_observability() -> String {
    let rep = e10_report();
    let mut out =
        String::from("E10 — observability: instrumented SLM vs RTL runs of the FIR workload\n\n");
    let rows: Vec<Vec<String>> = [
        "slm.activations",
        "slm.delta_cycles",
        "slm.events_fired",
        "rtl.steps",
        "rtl.eval_passes",
        "rtl.node_evals",
        "rtl.value_changes",
    ]
    .iter()
    .map(|name| vec![name.to_string(), rep.counter(name).to_string()])
    .collect();
    out.push_str(&render_table(&["counter", "value"], &rows));

    let work_x100 = rep
        .value("work_ratio_rtl_over_slm_x100")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    out.push_str(&format!(
        "\nwork ratio (deterministic): the RTL model executes {:.2} VM instructions per\nSLM process activation for the same {} blocks.\n",
        work_x100 as f64 / 100.0,
        BLOCKS
    ));
    let (mut slm_us, mut rtl_us) = (0u128, 0u128);
    for p in rep.phases() {
        match p.name.as_str() {
            "slm" => slm_us += p.wall.as_micros(),
            "rtl" => rtl_us += p.wall.as_micros(),
            _ => {}
        }
    }
    if slm_us > 0 {
        out.push_str(&format!(
            "wall ratio (measured at the phase edges): RTL took {:.1}x the SLM's time\n({} us vs {} us) — the §2 speed gap, now emitted as machine-readable JSON.\n",
            rtl_us as f64 / slm_us as f64,
            rtl_us,
            slm_us
        ));
    }
    out.push_str("\ncanonical JSON (byte-reproducible; timing lives only in the full report):\n");
    out.push_str(&rep.canonical_json());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_reproduces_and_ratio_is_nonzero() {
        let j1 = e10_report().canonical_json();
        let j2 = e10_report().canonical_json();
        assert_eq!(j1, j2);
        let parsed = dfv_obs::parse_json(&j1).unwrap();
        let ratio = parsed
            .get("values")
            .and_then(|v| v.get("work_ratio_rtl_over_slm_x100"))
            .and_then(Json::as_u64)
            .unwrap();
        // The RTL netlist does strictly more work per sample than one SLM
        // process activation.
        assert!(ratio >= 100, "ratio_x100 = {ratio}");
        assert!(!j1.contains("wall_us"));
        let full = dfv_obs::parse_json(&e10_report().full_json()).unwrap();
        assert!(full.get("timing").is_some());
    }
}
