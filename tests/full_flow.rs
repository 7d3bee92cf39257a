//! End-to-end integration: the complete paper methodology across crates —
//! lint → elaborate → co-simulate → equivalence-check → campaign.

use dfv::bits::Bv;
use dfv::core::{BlockPair, BlockStatus, Campaign, VerificationPlan};
use dfv::designs::{alu, conv, fir};
use dfv::rtl::Simulator;
use dfv::sec::{check_equivalence, EquivOutcome};
use dfv::slmir::{elaborate, is_conditioned, parse, Interp, ScalarTy, Value};

/// The full campaign over the verifiable design pairs.
fn plan() -> VerificationPlan {
    VerificationPlan::new()
        .block(BlockPair {
            name: "alu".into(),
            slm_source: alu::slm_bit_accurate().into(),
            slm_entry: "alu".into(),
            rtl: alu::rtl(8, 8),
            spec: alu::equiv_spec(),
        })
        .block(BlockPair {
            name: "fir".into(),
            slm_source: fir::slm_source().into(),
            slm_entry: "fir".into(),
            rtl: fir::rtl(),
            spec: fir::equiv_spec(),
        })
        .block(BlockPair {
            name: "conv".into(),
            slm_source: conv::slm_source().into(),
            slm_entry: "blur".into(),
            rtl: conv::rtl(),
            spec: conv::equiv_spec(),
        })
}

#[test]
fn whole_campaign_passes_and_caches() {
    let plan = plan();
    let mut campaign = Campaign::new();
    let r1 = campaign.run(&plan);
    assert!(r1.all_pass(), "\n{r1}");
    assert_eq!(r1.cache_hits(), 0);
    // Re-run: all cache hits, and no proof work at all (paper §4.1). The
    // claim is stated in deterministic work, not wall clock: the first
    // run attempted a proof of every block, the second served every
    // verdict from the cache without running a check.
    let r2 = campaign.run(&plan);
    assert!(r2.all_pass());
    assert_eq!(r2.cache_hits(), plan.blocks.len());
    for b in &r1.blocks {
        assert!(
            b.attempts >= 1,
            "{}: no proof attempt on the cold run",
            b.name
        );
    }
    for b in &r2.blocks {
        assert!(b.from_cache, "{}: not served from the cache", b.name);
        assert_eq!(b.attempts, 0, "{}: proof attempted on the warm run", b.name);
        assert!(b.equiv.is_none(), "{}: check ran on the warm run", b.name);
    }
}

#[test]
fn editing_one_block_reverifies_only_it() {
    let mut campaign = Campaign::new();
    let base = plan();
    campaign.run(&base);
    let mut edited = base.clone();
    edited.blocks[0].slm_source = alu::slm_int_style().into();
    let r = campaign.run(&edited);
    assert_eq!(r.cache_hits(), base.blocks.len() - 1);
    // The int-style SLM is NOT equivalent to the 8-bit-temp RTL (Fig 1).
    assert!(matches!(r.blocks[0].status, BlockStatus::NotEquivalent(_)));
    assert!(r.blocks[1].status == BlockStatus::Pass);
}

#[test]
fn all_design_slms_are_conditioned() {
    for (src, entry) in [
        (alu::slm_bit_accurate(), "alu"),
        (alu::slm_int_style(), "alu"),
        (fir::slm_source(), "fir"),
        (conv::slm_source(), "blur"),
    ] {
        let prog = parse(src).unwrap();
        assert!(is_conditioned(&prog, entry), "{entry} has blocking lints");
    }
}

#[test]
fn interpreter_elaborator_and_rtl_agree_on_fir() {
    // Three-way agreement on concrete data: SLM interpreter, elaborated
    // SLM hardware model, and the streaming RTL.
    let prog = parse(fir::slm_source()).unwrap();
    let slm_hw = elaborate(&prog, "fir").unwrap();
    let samples: Vec<i64> = vec![12, -33, 7, 127, -128, 0, 55, -1];

    // Interpreter.
    let s8 = ScalarTy {
        width: 8,
        signed: true,
    };
    let xs = Value::Array(samples.iter().map(|&s| Bv::from_i64(8, s)).collect(), s8);
    let run = Interp::new(&prog).run("fir", &[xs]).unwrap();
    let (_, Value::Array(interp_ys, _)) = &run.outs[0] else {
        panic!()
    };

    // Elaborated hardware model.
    let mut packed = Bv::from_i64(8, samples[0]);
    for &s in &samples[1..] {
        packed = Bv::from_i64(8, s).concat(&packed);
    }
    let mut hw = Simulator::new(slm_hw).unwrap();
    let hw_ys = hw.eval_comb(&[("xs", packed)])["ys"].clone();

    // Streaming RTL.
    let mut rtl = Simulator::new(fir::rtl()).unwrap();
    let mut rtl_ys = Vec::new();
    for &s in &samples {
        rtl.poke("in_valid", Bv::from_bool(true));
        rtl.poke("stall", Bv::from_bool(false));
        rtl.poke("x", Bv::from_i64(8, s));
        rtl.step();
        rtl_ys.push(rtl.output("y"));
    }

    for (i, iy) in interp_ys.iter().enumerate() {
        let lo = i as u32 * fir::OUT_WIDTH;
        assert_eq!(&hw_ys.slice(lo + fir::OUT_WIDTH - 1, lo), iy, "hw ys[{i}]");
        assert_eq!(&rtl_ys[i], iy, "rtl ys[{i}]");
    }
}

#[test]
fn fig1_flow_from_the_paper() {
    // The paper's storyline end to end: the int-style SLM simulates
    // "correctly", random simulation may or may not hit the corner, and SEC
    // nails the exact witness.
    let prog = parse(alu::slm_int_style()).unwrap();
    let slm = elaborate(&prog, "alu").unwrap();
    let narrow_rtl = alu::rtl(8, 8);
    let report = check_equivalence(&slm, &narrow_rtl, &alu::equiv_spec()).unwrap();
    let EquivOutcome::NotEquivalent(cex) = report.outcome else {
        panic!("int-style SLM must diverge from narrow RTL");
    };
    // The witness must exercise the 8-bit overflow of a + b.
    let get = |n: &str| {
        cex.slm_inputs
            .iter()
            .find(|(name, _)| name == n)
            .unwrap()
            .1
            .to_i64()
    };
    let sum = get("a") + get("b");
    assert!(!(-128..=127).contains(&sum), "witness must overflow: {cex}");

    // The paper's fix: widen the RTL temporary; now they are equivalent.
    let wide_rtl = alu::rtl(8, 9);
    let report = check_equivalence(&slm, &wide_rtl, &alu::equiv_spec()).unwrap();
    assert!(report.outcome.is_equivalent());
}

#[test]
fn netlist_roundtrip_preserves_design_rtl() {
    for m in [alu::rtl(8, 8), fir::rtl(), conv::rtl()] {
        let text = dfv::rtl::write_module(&m);
        let back = dfv::rtl::parse_module(&text).unwrap();
        assert_eq!(back, m, "netlist roundtrip of {}", m.name);
    }
}
