//! Plain-data capture of a [`Registry`](crate::Registry), serializable via
//! `mm-json`, with a deterministic projection and a before/after diff.

use crate::Scope;
use mm_json::{Json, ToJson};

/// One captured counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Determinism scope.
    pub scope: Scope,
    /// Value at capture time.
    pub value: u64,
}

/// One captured histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnap {
    /// Metric name.
    pub name: String,
    /// Determinism scope.
    pub scope: Scope,
    /// Finite bucket upper bounds (inclusive).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one more than `bounds` (the overflow bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
}

/// One captured span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnap {
    /// Full `/`-joined path ("f7/drive").
    pub path: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds inside the span (zeroed in deterministic views).
    pub total_ns: u64,
}

/// One captured section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionSnap {
    /// Section name ("netsim", "campaign", ...).
    pub name: String,
    /// Counters, name-ordered.
    pub counters: Vec<CounterSnap>,
    /// Histograms, name-ordered.
    pub histograms: Vec<HistogramSnap>,
    /// Span paths, path-ordered.
    pub spans: Vec<SpanSnap>,
}

impl SectionSnap {
    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }
}

/// Schema version stamped into serialized snapshots.
pub const SNAPSHOT_SCHEMA: u32 = 1;

/// A full capture of a registry at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All sections, name-ordered.
    pub sections: Vec<SectionSnap>,
}

impl Snapshot {
    /// Look up a section by name.
    pub fn section(&self, name: &str) -> Option<&SectionSnap> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Look up a counter value.
    pub fn counter(&self, section: &str, name: &str) -> Option<u64> {
        self.section(section)?
            .counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The scheduler-independent projection: [`Scope::Sim`] counters and
    /// histograms, span paths and counts with `total_ns` zeroed, empty
    /// sections dropped. Serializing this is byte-identical for any
    /// `MM_THREADS` — the property the `telemetry` tests check.
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            sections: self
                .sections
                .iter()
                .map(|s| SectionSnap {
                    name: s.name.clone(),
                    counters: s
                        .counters
                        .iter()
                        .filter(|c| c.scope == Scope::Sim)
                        .cloned()
                        .collect(),
                    histograms: s
                        .histograms
                        .iter()
                        .filter(|h| h.scope == Scope::Sim)
                        .cloned()
                        .collect(),
                    spans: s
                        .spans
                        .iter()
                        .map(|sp| SpanSnap {
                            path: sp.path.clone(),
                            count: sp.count,
                            total_ns: 0,
                        })
                        .collect(),
                })
                .filter(|s| !s.is_empty())
                .collect(),
        }
    }

    /// Keep only the named sections (order preserved), dropping the rest.
    /// Used by front-ends whose output contract covers a few sections —
    /// e.g. `mmx fleet --metrics` keeps `fleet`/`sched` and drops `exec`,
    /// whose Sim-scoped task counts vary with the shard count.
    pub fn retain_sections(&self, names: &[&str]) -> Snapshot {
        Snapshot {
            sections: self
                .sections
                .iter()
                .filter(|s| names.contains(&s.name.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// Metric-wise `self - baseline` (saturating), for before/after
    /// comparisons around a benchmarked region. Metrics absent from the
    /// baseline pass through unchanged; metrics only in the baseline are
    /// dropped. Histograms diff bucket-wise when the bounds match, else
    /// pass through. Note `record_max` counters subtract like any other —
    /// diff them only when the baseline was zero.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        Snapshot {
            sections: self
                .sections
                .iter()
                .map(|s| {
                    let base = baseline.section(&s.name);
                    SectionSnap {
                        name: s.name.clone(),
                        counters: s
                            .counters
                            .iter()
                            .map(|c| {
                                let before = base
                                    .and_then(|b| b.counters.iter().find(|bc| bc.name == c.name))
                                    .map_or(0, |bc| bc.value);
                                CounterSnap {
                                    name: c.name.clone(),
                                    scope: c.scope,
                                    value: c.value.saturating_sub(before),
                                }
                            })
                            .collect(),
                        histograms: s
                            .histograms
                            .iter()
                            .map(|h| {
                                let before = base
                                    .and_then(|b| b.histograms.iter().find(|bh| bh.name == h.name))
                                    .filter(|bh| bh.bounds == h.bounds);
                                let mut out = h.clone();
                                if let Some(bh) = before {
                                    for (b, prev) in out.buckets.iter_mut().zip(&bh.buckets) {
                                        *b = b.saturating_sub(*prev);
                                    }
                                    out.count = out.count.saturating_sub(bh.count);
                                    out.sum = out.sum.saturating_sub(bh.sum);
                                }
                                out
                            })
                            .collect(),
                        spans: s
                            .spans
                            .iter()
                            .map(|sp| {
                                let before =
                                    base.and_then(|b| b.spans.iter().find(|bs| bs.path == sp.path));
                                SpanSnap {
                                    path: sp.path.clone(),
                                    count: sp.count.saturating_sub(before.map_or(0, |b| b.count)),
                                    total_ns: sp
                                        .total_ns
                                        .saturating_sub(before.map_or(0, |b| b.total_ns)),
                                }
                            })
                            .collect(),
                    }
                })
                .collect(),
        }
    }
}

fn u64s(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|v| v.to_json()).collect())
}

impl ToJson for CounterSnap {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("scope", self.scope.as_str().to_json()),
            ("value", self.value.to_json()),
        ])
    }
}

impl ToJson for HistogramSnap {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("scope", self.scope.as_str().to_json()),
            ("bounds", u64s(&self.bounds)),
            ("buckets", u64s(&self.buckets)),
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
        ])
    }
}

impl ToJson for SpanSnap {
    fn to_json(&self) -> Json {
        Json::obj([
            ("path", self.path.to_json()),
            ("count", self.count.to_json()),
            ("total_ns", self.total_ns.to_json()),
        ])
    }
}

impl ToJson for SectionSnap {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            (
                "counters",
                Json::Arr(self.counters.iter().map(ToJson::to_json).collect()),
            ),
            (
                "histograms",
                Json::Arr(self.histograms.iter().map(ToJson::to_json).collect()),
            ),
            (
                "spans",
                Json::Arr(self.spans.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", SNAPSHOT_SCHEMA.to_json()),
            (
                "sections",
                Json::Arr(self.sections.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("netsim", "handoffs_a3").add(4);
        reg.counter_scoped("exec", "busy_ns", Scope::Sched).add(9);
        reg.histogram("netsim", "delay_ms", &[100, 200]).record(150);
        {
            let _s = reg.span("campaign", "drives");
        }
        reg
    }

    #[test]
    fn json_round_trips_through_mm_json() {
        let snap = sample_registry().snapshot();
        let text = snap.to_json().to_string();
        let parsed = Json::parse(&text).expect("snapshot JSON parses");
        assert_eq!(parsed["schema"].as_u64(), Some(1));
        let sections = parsed["sections"].as_array().unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0]["name"].as_str(), Some("campaign"));
    }

    #[test]
    fn deterministic_drops_sched_and_ns() {
        let snap = sample_registry().snapshot();
        let det = snap.deterministic();
        assert!(det.section("exec").is_none(), "sched-only section dropped");
        let spans = &det.section("campaign").unwrap().spans;
        assert_eq!(spans[0].count, 1);
        assert_eq!(spans[0].total_ns, 0);
        assert_eq!(det.counter("netsim", "handoffs_a3"), Some(4));
    }

    #[test]
    fn retain_sections_keeps_only_the_named_ones() {
        let snap = sample_registry().snapshot();
        let kept = snap.retain_sections(&["netsim", "exec"]);
        assert!(kept.section("netsim").is_some());
        assert!(kept.section("exec").is_some());
        assert!(kept.section("campaign").is_none());
        assert!(snap.retain_sections(&[]).sections.is_empty());
    }

    #[test]
    fn diff_subtracts_the_baseline() {
        let reg = sample_registry();
        let before = reg.snapshot();
        reg.counter("netsim", "handoffs_a3").add(6);
        reg.histogram("netsim", "delay_ms", &[100, 200]).record(250);
        let after = reg.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counter("netsim", "handoffs_a3"), Some(6));
        let h = &d.section("netsim").unwrap().histograms[0];
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets, vec![0, 0, 1]);
        assert_eq!(h.sum, 250);
    }

    #[test]
    fn diff_passes_new_metrics_through() {
        let reg = Registry::new();
        reg.counter("s", "fresh").add(3);
        let d = reg.snapshot().diff(&Snapshot::default());
        assert_eq!(d.counter("s", "fresh"), Some(3));
    }
}
