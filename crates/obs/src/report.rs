//! Machine-readable run reports.
//!
//! A [`RunReport`] gathers a run's counters (from a
//! [`MemoryRecorder`](crate::MemoryRecorder) or set directly), named
//! values, and per-phase wall times measured *at the edges* via
//! [`RunReport::phase`]. Rendering comes in two forms:
//!
//! - [`RunReport::canonical_json`] — deterministic: counters and
//!   values only, byte-identical across reruns of a seeded workload
//!   (this is what `scripts/check.sh` diffs);
//! - [`RunReport::full_json`] — adds the `timing` section with
//!   measured wall durations, which naturally varies run to run.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed phase of a run.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name.
    pub name: String,
    /// Wall time spent in the phase, measured at its edges.
    pub wall: Duration,
}

/// Counters, values, and edge-timed phases for one run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    name: String,
    counters: BTreeMap<String, u64>,
    values: Vec<(String, Json)>,
    phases: Vec<Phase>,
}

impl RunReport {
    /// Creates an empty report with the given run name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The run name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets one counter to a value (replacing any previous value).
    pub fn set_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Merges counters from an iterator, summing into existing entries.
    pub fn add_counters<'a>(&mut self, counters: impl IntoIterator<Item = (&'a str, u64)>) {
        for (k, v) in counters {
            *self.counters.entry(k.to_string()).or_insert(0) += v;
        }
    }

    /// Current value of one counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a named value in the `values` section (insertion-ordered;
    /// re-setting a key overwrites in place).
    pub fn set_value(&mut self, key: impl Into<String>, value: Json) {
        let key = key.into();
        if let Some(slot) = self.values.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.values.push((key, value));
        }
    }

    /// Looks up a named value.
    pub fn value(&self, key: &str) -> Option<&Json> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Runs `f` as a named phase, measuring wall time at its edges —
    /// the only place the observability layer touches the clock.
    pub fn phase<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.phases.push(Phase {
            name: name.into(),
            wall: start.elapsed(),
        });
        out
    }

    /// Records an externally measured phase duration.
    pub fn push_phase(&mut self, name: impl Into<String>, wall: Duration) {
        self.phases.push(Phase {
            name: name.into(),
            wall,
        });
    }

    /// The recorded phases, in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total wall time across phases.
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// The report as a JSON value. With `include_timing` the `timing`
    /// section (wall times) is appended; without it the output is a
    /// pure function of counters and values.
    pub fn to_json(&self, include_timing: bool) -> Json {
        self.json_with(Json::Obj(self.values.clone()), include_timing)
    }

    /// [`to_json`](RunReport::to_json), consuming the report: the values
    /// move into the tree instead of being copied.
    pub fn into_json(mut self, include_timing: bool) -> Json {
        let values = Json::Obj(std::mem::take(&mut self.values));
        self.json_with(values, include_timing)
    }

    fn json_with(&self, values: Json, include_timing: bool) -> Json {
        let mut pairs = vec![
            ("report".to_string(), Json::str(&self.name)),
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            ("values".to_string(), values),
        ];
        if include_timing {
            pairs.push((
                "timing".to_string(),
                Json::obj(vec![
                    (
                        "phases",
                        Json::Arr(
                            self.phases
                                .iter()
                                .map(|p| {
                                    Json::obj(vec![
                                        ("name", Json::str(&p.name)),
                                        ("wall_us", Json::UInt(p.wall.as_micros() as u64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("total_us", Json::UInt(self.total_wall().as_micros() as u64)),
                ]),
            ));
        }
        Json::Obj(pairs)
    }

    /// Deterministic JSON text: counters and values, no wall times.
    /// Byte-identical across reruns of the same seeded workload.
    pub fn canonical_json(&self) -> String {
        self.to_json(false).render()
    }

    /// Full JSON text including the measured `timing` section.
    pub fn full_json(&self) -> String {
        self.to_json(true).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::recorder::{MemoryRecorder, Recorder};

    #[test]
    fn canonical_json_excludes_timing_and_orders_counters() {
        let mut rep = RunReport::new("unit");
        rep.phase("work", || {
            // A deterministic counted busy-phase: the same amount of work
            // every run, no scheduler dependence.
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
        });
        rep.set_counter("z.last", 1);
        rep.set_counter("a.first", 2);
        rep.set_value("seed", Json::UInt(42));
        let canon = rep.canonical_json();
        assert!(!canon.contains("timing"));
        let a = canon.find("a.first").unwrap();
        let z = canon.find("z.last").unwrap();
        assert!(a < z, "counters sorted by name");
        let parsed = parse_json(&canon).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("a.first"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("values")
                .and_then(|v| v.get("seed"))
                .and_then(Json::as_u64),
            Some(42)
        );
        let full = parse_json(&rep.full_json()).unwrap();
        assert!(full.get("timing").is_some());
    }

    #[test]
    fn counters_merge_from_recorder() {
        let mut rec = MemoryRecorder::new();
        rec.counter_add("sat.conflicts", 3);
        rec.counter_add("sat.conflicts", 4);
        let mut rep = RunReport::new("r");
        rep.add_counters(rec.counters().iter().map(|(k, v)| (*k, *v)));
        rep.add_counters([("sat.conflicts", 1)]);
        assert_eq!(rep.counter("sat.conflicts"), 8);
    }

    #[test]
    fn set_value_overwrites_in_place() {
        let mut rep = RunReport::new("r");
        rep.set_value("a", Json::UInt(1));
        rep.set_value("b", Json::UInt(2));
        rep.set_value("a", Json::UInt(3));
        let canon = rep.canonical_json();
        assert!(canon.find("\"a\":3").unwrap() < canon.find("\"b\":2").unwrap());
    }

    #[test]
    fn into_json_equals_to_json_and_moves_the_values() {
        for timing in [false, true] {
            let mut rep = RunReport::new("r");
            rep.set_counter("n", 1);
            rep.set_value("note", Json::str("a string that lives on the heap"));
            rep.push_phase("p", Duration::from_micros(7));
            let want = rep.to_json(timing);
            let text = rep.value("note").and_then(Json::as_str).unwrap().as_ptr();
            let got = rep.into_json(timing);
            assert_eq!(got, want);
            let note = got.get("values").and_then(|v| v.get("note"));
            assert_eq!(note.and_then(Json::as_str).unwrap().as_ptr(), text);
        }
    }

    #[test]
    fn phase_returns_closure_result() {
        let mut rep = RunReport::new("r");
        let v = rep.phase("p", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(rep.phases().len(), 1);
        assert_eq!(rep.phases()[0].name, "p");
    }
}
