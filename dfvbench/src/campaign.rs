//! The two daemon workloads: cold verification campaigns (`sec_cold`) and
//! one-block edits of a warm plan (`incremental_edit`).

use std::path::PathBuf;
use std::time::Instant;

use dfv_bits::SplitMix64;
use dfv_core::{verify_block, BlockPair, BlockStatus};
use dfv_cosim::{apply_mutation, enumerate_mutations};
use dfv_sec::EquivOutcome;

use crate::daemon::{campaign, replay, Daemon, Verdict};
use crate::gen::{Family, COLD_MIX};
use crate::sim::{SimPass, SimSize};
use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::{mix, Workload};

/// Block uids are partitioned so that no two inputs of one run collide:
/// timed jobs count up from 0, warm-up and base-plan blocks and edits each
/// get a range of their own.
const UID_WARM: u64 = 1 << 26;
const UID_BASE: u64 = 2 << 26;
const UID_EDIT: u64 = 3 << 26;

/// Copies of the cold mix in the incremental workload's plan. A large plan
/// makes each job long beside the host's scheduling hiccups, which keeps
/// the latency tail steady.
const PLAN_COPIES: usize = 16;
/// Families an incremental edit lands on, in rotation: those whose single
/// proof or falsification stays under a millisecond, small beside the
/// resubmission, so every job costs about the same.
const EDIT_FAMILIES: [Family; 3] = [Family::Alu, Family::MemFast, Family::MemSlow];
/// Every `BUG_EVERY`-th round of the rotation injects a mutation instead of
/// an equivalence-preserving constant change.
const BUG_EVERY: usize = 4;
/// Edits prepared per second of measurement, comfortably above the rate a
/// warm 128-block resubmission reaches.
const EDITS_PER_SECOND: usize = 60;

/// The cold campaign's simulation share: about a sixth of a job.
const COLD_SIM: SimSize = SimSize {
    sweep_cycles: 16,
    fir_blocks: 8,
    tiles: 2,
    lookups: 64,
};
/// The incremental job's simulation share, a few percent of a job: enough
/// that every simulation layer runs and is timed on both workloads.
const EDIT_SIM: SimSize = SimSize {
    sweep_cycles: 2,
    fir_blocks: 1,
    tiles: 1,
    lookups: 8,
};

fn uid_offset(seed: u64) -> u64 {
    mix(seed, 0xB10C) % (1 << 25)
}

fn check_all_pass(verdicts: &[Verdict], n: usize) -> Result<(), String> {
    if verdicts.len() != n {
        return Err(format!("{} verdicts for {n} blocks", verdicts.len()));
    }
    match verdicts.iter().find(|v| v.status != "PASS") {
        Some(v) => Err(format!("block {} is {}, expected PASS", v.name, v.status)),
        None => Ok(()),
    }
}

fn fold_verdicts(d: &mut Fnv, verdicts: &[Verdict]) {
    for v in verdicts {
        d.str(&v.status);
    }
}

/// One cold campaign per job: a block of every family, all constants new,
/// proved by the daemon, then the job's simulation share.
pub struct SecCold {
    seed: u64,
    state_dir: PathBuf,
    daemon: Option<Daemon>,
    sim: SimPass,
}

impl SecCold {
    pub fn new(seed: u64, state_dir: PathBuf) -> Self {
        SecCold {
            seed,
            state_dir,
            daemon: None,
            sim: SimPass::new(seed, COLD_SIM),
        }
    }

    fn blocks(&self, job: u64, uid_base: u64) -> Vec<BlockPair> {
        let mut rng = SplitMix64::new(mix(self.seed, job));
        let uid0 = uid_base + uid_offset(self.seed) + job * COLD_MIX.len() as u64;
        COLD_MIX
            .iter()
            .enumerate()
            .map(|(k, f)| f.block(format!("{}{job}", f.tag()), uid0 + k as u64, &mut rng))
            .collect()
    }
}

impl Workload for SecCold {
    fn prepare(&mut self) -> Result<(), String> {
        self.sim.prepare();
        Ok(())
    }

    fn setup(&mut self) -> Result<(), String> {
        let mut daemon = Daemon::start(&self.state_dir)?;
        let warm = self.blocks(0, UID_WARM);
        check_all_pass(&daemon.submit(&campaign(warm))?, COLD_MIX.len())?;
        self.daemon = Some(daemon);
        self.sim.setup()
    }

    fn teardown(&mut self) {
        if let Some(d) = self.daemon.take() {
            d.stop();
        }
    }

    fn job(
        &mut self,
        i: usize,
        tr: Option<&mut Tracer>,
        digest: Option<&mut Fnv>,
    ) -> Result<f64, String> {
        let blocks = self.blocks(i as u64, 0);
        let spec = campaign(blocks.clone());
        let daemon = self.daemon.as_mut().expect("set up");
        let (mut tr, mut digest) = (tr, digest);
        let open = tr.as_deref_mut().map(|t| t.open("job"));
        let t = Instant::now();
        let verdicts = daemon.submit(&spec)?;
        check_all_pass(&verdicts, blocks.len())?;
        let daemon_ms = t.elapsed().as_secs_f64() * 1e3;
        self.sim.run(i, tr.as_deref_mut(), digest.as_deref_mut())?;
        let lat = t.elapsed().as_secs_f64() * 1e3;
        if let (Some(tr), Some(open)) = (tr, open) {
            tr.close(open);
            let all: Vec<usize> = (0..blocks.len()).collect();
            let staged = replay(tr, &spec, &blocks, &all);
            tr.count("serve.residual_ms", daemon_ms - staged);
            let hits = verdicts.iter().filter(|v| v.from_cache).count();
            tr.count("core.store_hit_ratio", hits as f64 / verdicts.len() as f64);
        }
        if let Some(d) = digest {
            fold_verdicts(d, &verdicts);
        }
        Ok(lat)
    }
}

/// One prepared edit: which plan slot it replaces, with what, and the
/// verdict `verify_block` gives the new pair outside the daemon.
struct Edit {
    slot: usize,
    block: BlockPair,
    status: &'static str,
    /// Counterexample mismatch locations (`slm_output>rtl_output@cycle`).
    cex: Vec<String>,
}

/// A warm 128-block plan resubmitted with exactly one block edited.
pub struct IncrementalEdit {
    seed: u64,
    state_dir: PathBuf,
    seconds: f64,
    plan: Vec<BlockPair>,
    edits: Vec<Edit>,
    daemon: Option<Daemon>,
    sim: SimPass,
}

impl IncrementalEdit {
    pub fn new(seed: u64, state_dir: PathBuf, seconds: f64) -> Self {
        IncrementalEdit {
            seed,
            state_dir,
            seconds,
            plan: Vec::new(),
            edits: Vec::new(),
            daemon: None,
            sim: SimPass::new(seed, EDIT_SIM),
        }
    }

    fn plan(&self) -> Vec<BlockPair> {
        let mut rng = SplitMix64::new(mix(self.seed, 0x9A7E));
        let uid0 = UID_BASE + uid_offset(self.seed);
        (0..PLAN_COPIES)
            .flat_map(|c| COLD_MIX.iter().map(move |f| (c, *f)))
            .enumerate()
            .map(|(k, (c, f))| f.block(format!("{}{c}", f.tag()), uid0 + k as u64, &mut rng))
            .collect()
    }

    fn edit(&self, e: usize) -> Edit {
        let mut rng = SplitMix64::new(mix(self.seed ^ 0xED17, e as u64));
        let family = EDIT_FAMILIES[e % EDIT_FAMILIES.len()];
        let copy = rng.below(PLAN_COPIES as u64) as usize;
        let slot = copy * COLD_MIX.len()
            + COLD_MIX
                .iter()
                .position(|f| *f == family)
                .expect("edit family is in the mix");
        let uid = UID_EDIT + uid_offset(self.seed) + e as u64;
        let mut block = family.block(self.plan[slot].name.clone(), uid, &mut rng);
        if (e / EDIT_FAMILIES.len()) % BUG_EVERY == BUG_EVERY - 1 {
            let sites = enumerate_mutations(&block.rtl);
            let m = &sites[rng.below(sites.len() as u64) as usize];
            block.rtl = apply_mutation(&block.rtl, m);
        }
        let reference = verify_block(&block);
        let (status, cex) = match (&reference.status, &reference.equiv) {
            (BlockStatus::Pass, _) => ("PASS", Vec::new()),
            (BlockStatus::NotEquivalent(_), Some(r)) => match &r.outcome {
                EquivOutcome::NotEquivalent(cex) => (
                    "FAIL",
                    cex.mismatches
                        .iter()
                        .map(|m| format!("{}>{}@{}", m.slm_output, m.rtl_output, m.rtl_cycle))
                        .collect(),
                ),
                _ => unreachable!("a FAIL verdict carries a counterexample"),
            },
            (other, _) => panic!("edit {e} verifies as {other}, outside the workload's design"),
        };
        Edit {
            slot,
            block,
            status,
            cex,
        }
    }
}

impl Workload for IncrementalEdit {
    fn prepare(&mut self) -> Result<(), String> {
        self.plan = self.plan();
        let n = (self.seconds * EDITS_PER_SECOND as f64).ceil() as usize;
        self.edits = (0..n).map(|e| self.edit(e)).collect();
        self.sim.prepare();
        Ok(())
    }

    fn max_jobs(&self) -> Option<usize> {
        Some(self.edits.len())
    }

    fn setup(&mut self) -> Result<(), String> {
        let mut daemon = Daemon::start(&self.state_dir)?;
        let plan = self.plan();
        check_all_pass(&daemon.submit(&campaign(plan))?, self.plan.len())?;
        self.daemon = Some(daemon);
        self.sim.setup()
    }

    fn teardown(&mut self) {
        if let Some(d) = self.daemon.take() {
            d.stop();
        }
    }

    fn job(
        &mut self,
        i: usize,
        tr: Option<&mut Tracer>,
        digest: Option<&mut Fnv>,
    ) -> Result<f64, String> {
        let edit = &self.edits[i];
        let mut blocks = self.plan.clone();
        blocks[edit.slot] = edit.block.clone();
        let spec = campaign(blocks.clone());
        let daemon = self.daemon.as_mut().expect("set up");
        let (mut tr, mut digest) = (tr, digest);
        let open = tr.as_deref_mut().map(|t| t.open("job"));
        let t = Instant::now();
        let verdicts = daemon.submit(&spec)?;
        if verdicts.len() != blocks.len() {
            return Err(format!(
                "{} verdicts for {} blocks",
                verdicts.len(),
                blocks.len()
            ));
        }
        for (k, v) in verdicts.iter().enumerate() {
            let (want, hit) = if k == edit.slot {
                (edit.status, false)
            } else {
                ("PASS", true)
            };
            if v.status != want || v.from_cache != hit {
                return Err(format!(
                    "job {i}: block {} is {} (store hit {}), expected {want} (store hit {hit})",
                    v.name, v.status, v.from_cache
                ));
            }
        }
        let daemon_ms = t.elapsed().as_secs_f64() * 1e3;
        self.sim.run(i, tr.as_deref_mut(), digest.as_deref_mut())?;
        let lat = t.elapsed().as_secs_f64() * 1e3;
        if let (Some(tr), Some(open)) = (tr, open) {
            tr.close(open);
            let staged = replay(tr, &spec, &blocks, &[edit.slot]);
            tr.count("serve.residual_ms", daemon_ms - staged);
            let hits = verdicts.iter().filter(|v| v.from_cache).count();
            tr.count("core.store_hit_ratio", hits as f64 / verdicts.len() as f64);
        }
        if let Some(d) = digest {
            fold_verdicts(d, &verdicts);
            for loc in &edit.cex {
                d.str(loc);
            }
        }
        Ok(lat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hashes(blocks: &[BlockPair]) -> Vec<u64> {
        blocks.iter().map(BlockPair::content_hash).collect()
    }

    #[test]
    fn the_same_seed_generates_the_same_jobs() {
        let dir = PathBuf::from("unused");
        let (a, b) = (SecCold::new(5, dir.clone()), SecCold::new(5, dir.clone()));
        assert_eq!(hashes(&a.blocks(3, 0)), hashes(&b.blocks(3, 0)));
        assert_ne!(
            hashes(&a.blocks(3, 0)),
            hashes(&SecCold::new(6, dir).blocks(3, 0))
        );
    }

    #[test]
    fn edits_are_new_content_with_reproducible_reference_verdicts() {
        let prepared = || {
            let mut w = IncrementalEdit::new(5, PathBuf::from("unused"), 0.5);
            w.prepare().expect("edits prepare");
            w
        };
        let (a, b) = (prepared(), prepared());
        let plan: HashSet<u64> = hashes(&a.plan).into_iter().collect();
        let mut seen = HashSet::new();
        for (x, y) in a.edits.iter().zip(&b.edits) {
            let h = x.block.content_hash();
            assert!(!plan.contains(&h) && seen.insert(h), "edit repeats content");
            assert_eq!(
                (h, x.status, &x.cex),
                (y.block.content_hash(), y.status, &y.cex)
            );
        }
        assert!(a
            .edits
            .iter()
            .any(|e| e.status == "FAIL" && !e.cex.is_empty()));
        assert!(a.edits.iter().any(|e| e.status == "PASS"));
    }
}
