//! E12 — the compiled simulation engine, measured: E10's SLM-vs-RTL work
//! ratio re-taken on the default bytecode engine, plus an old-vs-new
//! engine comparison on the identical FIR workload in the same report.
//!
//! The pre-compilation baseline survives as
//! [`Simulator::new_reference`](dfv_rtl::Simulator::new_reference) — the
//! full-reevaluation oracle whose `node_evals` equals
//! `eval_passes * node_count` by construction. Running both engines on
//! the same seeded blocks gives two deterministic numbers:
//!
//! * **work ratio vs SLM** (`rtl_vm.node_evals` per `slm.activations`)
//!   — E10's structural cost proxy, now measured on the engine that
//!   skips stable cones. Its unit is VM instructions executed, not IR
//!   nodes (a fused instruction covers two nodes; sources emit none);
//! * **engine work ratio** (`rtl_ref.node_evals` per
//!   `rtl_vm.node_evals`) — reference node evaluations per VM
//!   instruction on a dense streaming workload.
//!
//! Wall-clock throughput for both engines is measured at the phase edges
//! and reported in the rendered text and the `timing` section only; the
//! canonical JSON stays byte-reproducible.

use std::sync::{Arc, Mutex};

use dfv_obs::{Json, MemoryRecorder, RunReport};

use crate::models::{sample_block, CycleApproxFir, RtlFir};
use crate::render_table;

/// Seeded sample blocks each model processes (matches E10).
const BLOCKS: u64 = 16;

/// Re-keys one engine's `rtl.*` recorder counters under an
/// engine-specific prefix so the two RTL runs do not collide.
fn add_prefixed(rep: &mut RunReport, prefix: &str, rec: &Arc<Mutex<MemoryRecorder>>) {
    for (k, v) in rec.lock().unwrap().counters() {
        let suffix = k.strip_prefix("rtl.").unwrap_or(k);
        rep.set_counter(format!("{prefix}.{suffix}"), *v);
    }
}

/// Runs the instrumented workload on all three models and reduces it to a
/// [`RunReport`]. The canonical JSON is a pure function of the fixed
/// seeds.
pub fn e12_report() -> RunReport {
    let mut rep = RunReport::new("e12_sim_engine");

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

    let vm_rec = MemoryRecorder::shared();
    let mut rtl_vm = RtlFir::new();
    rtl_vm.set_recorder(vm_rec.clone());
    let vm_sink = rep.phase("rtl_vm", || {
        let mut sink = 0i64;
        for seed in 0..BLOCKS {
            sink ^= rtl_vm.run(&sample_block(seed))[0];
        }
        sink
    });

    let ref_rec = MemoryRecorder::shared();
    let mut rtl_ref = RtlFir::new_reference();
    rtl_ref.set_recorder(ref_rec.clone());
    let ref_sink = rep.phase("rtl_reference", || {
        let mut sink = 0i64;
        for seed in 0..BLOCKS {
            sink ^= rtl_ref.run(&sample_block(seed))[0];
        }
        sink
    });
    assert_eq!(vm_sink, ref_sink, "engines diverged on the FIR workload");

    rep.add_counters(
        slm_rec
            .lock()
            .unwrap()
            .counters()
            .iter()
            .map(|(k, v)| (*k, *v)),
    );
    add_prefixed(&mut rep, "rtl_vm", &vm_rec);
    add_prefixed(&mut rep, "rtl_ref", &ref_rec);

    rep.set_value("blocks", Json::UInt(BLOCKS));
    let slm_work = rep.counter("slm.activations").max(1);
    let vm_work = rep.counter("rtl_vm.node_evals");
    let ref_work = rep.counter("rtl_ref.node_evals");
    rep.set_value(
        "work_ratio_rtl_over_slm_x100",
        Json::UInt(vm_work * 100 / slm_work),
    );
    rep.set_value(
        "engine_work_ratio_ref_over_vm_x100",
        Json::UInt(ref_work * 100 / vm_work.max(1)),
    );
    rep
}

/// Runs E12 and renders its report.
pub fn e12_sim_engine() -> String {
    let rep = e12_report();
    let mut out = String::from(
        "E12 — compiled simulation engine: bytecode VM vs full-reevaluation reference\non the FIR workload, with E10's SLM-vs-RTL work ratio re-taken\n\n",
    );
    let rows: Vec<Vec<String>> = [
        "slm.activations",
        "rtl_vm.steps",
        "rtl_vm.eval_passes",
        "rtl_vm.node_evals",
        "rtl_ref.eval_passes",
        "rtl_ref.node_evals",
    ]
    .iter()
    .map(|name| vec![name.to_string(), rep.counter(name).to_string()])
    .collect();
    out.push_str(&render_table(&["counter", "value"], &rows));

    let work_x100 = rep
        .value("work_ratio_rtl_over_slm_x100")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let engine_x100 = rep
        .value("engine_work_ratio_ref_over_vm_x100")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    out.push_str(&format!(
        "\nwork ratio vs SLM (deterministic): the compiled RTL engine executes {:.2}\nVM instructions per SLM process activation for the same {} blocks (E10 measured\nIR node evaluations on the pre-compilation engine).\n",
        work_x100 as f64 / 100.0,
        BLOCKS
    ));
    out.push_str(&format!(
        "engine work ratio (deterministic): the reference engine evaluates {:.2} nodes\nper instruction the VM executes on this dense workload.\n",
        engine_x100 as f64 / 100.0
    ));
    let (mut vm_us, mut ref_us) = (0u128, 0u128);
    for p in rep.phases() {
        match p.name.as_str() {
            "rtl_vm" => vm_us += p.wall.as_micros(),
            "rtl_reference" => ref_us += p.wall.as_micros(),
            _ => {}
        }
    }
    if vm_us > 0 {
        out.push_str(&format!(
            "engine wall speedup (measured at the phase edges): {:.2}x\n({} us reference vs {} us bytecode VM) — timing section only.\n",
            ref_us as f64 / vm_us as f64,
            ref_us,
            vm_us
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
    fn canonical_json_reproduces_and_engine_ratio_holds() {
        let j1 = e12_report().canonical_json();
        let j2 = e12_report().canonical_json();
        assert_eq!(j1, j2);
        let parsed = dfv_obs::parse_json(&j1).unwrap();
        let engine = parsed
            .get("values")
            .and_then(|v| v.get("engine_work_ratio_ref_over_vm_x100"))
            .and_then(Json::as_u64)
            .unwrap();
        // The reference engine re-evaluates every node per pass; the VM
        // emits at most one instruction per node and skips stable cones.
        assert!(engine >= 100, "engine ratio_x100 = {engine}");
        assert!(!j1.contains("wall_us"));
        let full = dfv_obs::parse_json(&e12_report().full_json()).unwrap();
        assert!(full.get("timing").is_some());
    }
}
