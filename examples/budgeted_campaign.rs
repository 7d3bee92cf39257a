//! Resource-governed campaigns: budgets, graceful degradation, and the
//! crash-safe persisted cache.
//!
//! Four acts:
//! 1. A campaign mixing an easy block with a deliberately hard one (16-bit
//!    distributivity — CDCL-intractable under a tiny budget) runs
//!    under a 100-conflict / 1 ms escalating policy: the easy block is
//!    proven, the hard one degrades to bounded random falsification and
//!    comes back `INCONC` in bounded time.
//! 2. A second campaign on the same cache path (a "process restart") serves
//!    the easy block from the persisted cache and retries the inconclusive
//!    one — inconclusive verdicts are never cached.
//! 3. A cache *record* is corrupted on disk; the next campaign drops just
//!    that record (a miss for that entry only), recovers the rest, and
//!    still finishes.
//! 4. The cache file's magic line is corrupted; the next campaign rejects
//!    the whole file, reports why, rebuilds cold, and still finishes.
//!
//! Run with `cargo run --example budgeted_campaign`.

use std::time::Duration;

use dfv::core::{BlockPair, CacheLoad, Campaign, CampaignOptions, RetryPolicy, VerificationPlan};
use dfv::rtl::ModuleBuilder;
use dfv::sec::{Binding, EquivSpec};

fn easy_block() -> BlockPair {
    let mut rb = ModuleBuilder::new("rtl_inc");
    let x = rb.input("x", 8);
    let one = rb.lit(8, 1);
    let y = rb.add(x, one);
    rb.output("y", y);
    BlockPair {
        name: "inc".into(),
        slm_source: "uint8 inc(uint8 x) { return x + 1; }".into(),
        slm_entry: "inc".into(),
        rtl: rb.finish().expect("inc rtl builds"),
        spec: EquivSpec::new(1)
            .bind("x", 0, Binding::Slm("x".into()))
            .compare("return", "y", 0),
    }
}

/// Distributivity over 16-bit operands: genuinely equivalent, but proving
/// `a*(b+c) == a*b + a*c` at the bit level is far beyond a 100-conflict
/// budget.
fn hard_block() -> BlockPair {
    let mut rb = ModuleBuilder::new("rtl_distrib");
    let a = rb.input("a", 16);
    let b = rb.input("b", 16);
    let c = rb.input("c", 16);
    let (aw, bw, cw) = (rb.zext(a, 32), rb.zext(b, 32), rb.zext(c, 32));
    let ab = rb.mul(aw, bw);
    let ac = rb.mul(aw, cw);
    let y = rb.add(ab, ac); // a*b + a*c, against the SLM's a*(b+c)
    rb.output("y", y);
    BlockPair {
        name: "distrib".into(),
        slm_source: "uint32 distrib(uint16 a, uint16 b, uint16 c) { \
                     return (uint32)a * ((uint32)b + (uint32)c); }"
            .into(),
        slm_entry: "distrib".into(),
        rtl: rb.finish().expect("distrib rtl builds"),
        spec: EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .bind("c", 0, Binding::Slm("c".into()))
            .compare("return", "y", 0),
    }
}

fn main() {
    let cache = std::env::temp_dir().join(format!(
        "dfv-budgeted-campaign-{}.cache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache);
    let plan = VerificationPlan::new()
        .block(easy_block())
        .block(hard_block());
    let opts = || CampaignOptions {
        retry: RetryPolicy::escalating(100, 10, 2).with_timeout(Duration::from_millis(1)),
        deadline: Some(Duration::from_secs(30)),
        cache_path: Some(cache.clone()),
        ..CampaignOptions::default()
    };

    println!("== act 1: cold campaign under a 100-conflict / 1 ms budget ==");
    let mut c1 = Campaign::with_options(opts());
    println!("cache load: {:?}", c1.cache_load());
    let r1 = c1.run(&plan);
    print!("{r1}");
    assert_eq!(
        r1.inconclusive(),
        1,
        "the distributivity proof must exhaust its budget"
    );

    println!("\n== act 2: restart — unchanged proven blocks come from disk ==");
    let mut c2 = Campaign::with_options(opts());
    println!("cache load: {:?}", c2.cache_load());
    let r2 = c2.run(&plan);
    print!("{r2}");
    assert!(
        r2.blocks[0].from_cache,
        "the easy block must be a cache hit"
    );
    assert!(
        !r2.blocks[1].from_cache,
        "inconclusive verdicts are never cached; the hard block retries"
    );

    println!("\n== act 3: one cache record is corrupted on disk ==");
    let text = std::fs::read_to_string(&cache).expect("cache exists");
    std::fs::write(&cache, text.replace("pass", "warp")).expect("corrupt in place");
    let mut c3 = Campaign::with_options(opts());
    match c3.cache_load() {
        CacheLoad::Recovered { entries, dropped } => println!(
            "recovered: {entries} intact record(s) kept, {dropped} damaged record(s) \
             dropped as misses"
        ),
        other => panic!("expected per-entry recovery, got {other:?}"),
    }
    let r3 = c3.run(&plan);
    print!("{r3}");
    assert!(
        !r3.blocks[0].from_cache,
        "the damaged record is a miss for that entry"
    );

    println!("\n== act 4: the cache file's magic line is corrupted ==");
    let text = std::fs::read_to_string(&cache).expect("cache exists");
    std::fs::write(&cache, text.replace("dfv-campaign-cache", "not-a-cache"))
        .expect("corrupt in place");
    let mut c4 = Campaign::with_options(opts());
    match c4.cache_load() {
        CacheLoad::Corrupt { reason } => println!("detected: {reason} -> rebuilding cold"),
        other => panic!("expected whole-file rejection, got {other:?}"),
    }
    let r4 = c4.run(&plan);
    print!("{r4}");
    assert!(!r4.blocks[0].from_cache, "cold after corruption");

    let _ = std::fs::remove_file(&cache);
    println!("\nall four acts behaved; no hang, no panic.");
}
