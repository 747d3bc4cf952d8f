//! Named counters, gauges, and exact-percentile digests, with JSON
//! snapshots.
//!
//! Metric names are `&'static str` in `crate.subsystem.metric` form and
//! must be registered in [`crate::schema`] — the CI validator fails on
//! names it does not know, so adding a metric means adding it to the
//! schema in the same change. The hot path allocates nothing in steady
//! state for counters and gauges (names are static), and a disabled
//! thread returns after one branch.

use crate::digest::Digest;
use crate::span::SpanStat as SpanStatInner;
use std::cell::RefCell;
use std::collections::HashMap;
use tm_testkit::json::Json;

pub use crate::span::SpanStat;

/// One thread's metric state (spans live here too, so a [`crate::Scope`]
/// swap isolates everything at once).
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) counters: HashMap<&'static str, u64>,
    pub(crate) gauges: HashMap<&'static str, f64>,
    pub(crate) digests: HashMap<&'static str, Digest>,
    pub(crate) spans: HashMap<&'static str, SpanStatInner>,
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::default());
}

/// Swaps the current thread's registry, returning the old one
/// (the mechanism behind [`crate::Scope`]).
pub(crate) fn swap_registry(new: Registry) -> Registry {
    REGISTRY.with(|r| std::mem::replace(&mut *r.borrow_mut(), new))
}

pub(crate) fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    REGISTRY.with(|r| f(&mut r.borrow_mut()))
}

/// Adds `n` to the counter `name` (saturating — counters never wrap).
/// No-op while collection is disabled on this thread.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| {
        let c = r.counters.entry(name).or_insert(0);
        *c = c.saturating_add(n);
    });
}

/// Sets the gauge `name` to `v` (last write wins). No-op while
/// collection is disabled on this thread.
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| {
        r.gauges.insert(name, v);
    });
}

/// Records `v` (a nanosecond latency or similar `u64` measure) into
/// the exact-percentile digest `name`. No-op while collection is
/// disabled on this thread.
#[inline]
pub fn digest_record(name: &'static str, v: u64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| r.digests.entry(name).or_default().record(v));
}

/// Clears the current thread's registry.
pub fn reset() {
    with_registry(|r| *r = Registry::default());
}

/// Takes the current thread's metrics, leaving the registry empty.
///
/// This is the worker half of cross-thread aggregation: a worker thread
/// drains its registry just before finishing and hands the [`Snapshot`]
/// to the spawning thread, which folds it in with [`absorb`].
pub fn drain() -> Snapshot {
    let snap = snapshot();
    reset();
    snap
}

/// Folds a drained worker [`Snapshot`] into the current thread's
/// registry: counters add (saturating), gauges keep the incoming value
/// (last write wins, and the worker finished last), digests add
/// bucket-wise, spans add calls and times.
///
/// Names are resolved against the closed [`crate::schema`] registry —
/// that is where the `&'static str` keys come from — so entries whose
/// names are not registered are dropped, exactly as the CI validator
/// would reject them. No-op while collection is disabled on this
/// thread.
pub fn absorb(snap: &Snapshot) {
    if !crate::enabled() {
        return;
    }
    let static_metric = |name: &str| {
        crate::schema::KNOWN_METRICS.iter().find(|(n, _)| *n == name).map(|(n, _)| *n)
    };
    let static_span =
        |name: &str| crate::schema::KNOWN_SPANS.iter().find(|n| **n == name).copied();
    with_registry(|r| {
        for (name, v) in &snap.counters {
            if let Some(key) = static_metric(name) {
                let c = r.counters.entry(key).or_insert(0);
                *c = c.saturating_add(*v);
            }
        }
        for (name, v) in &snap.gauges {
            if let Some(key) = static_metric(name) {
                r.gauges.insert(key, *v);
            }
        }
        for (name, d) in &snap.digests {
            if let Some(key) = static_metric(name) {
                r.digests.entry(key).or_default().merge(d);
            }
        }
        for s in &snap.spans {
            if let Some(key) = static_span(&s.name) {
                let stat = r
                    .spans
                    .entry(key)
                    .or_insert_with(|| SpanStat { name: key.to_string(), ..SpanStat::default() });
                stat.calls = stat.calls.saturating_add(s.calls);
                stat.total_ns = stat.total_ns.saturating_add(s.total_ns);
                stat.self_ns = stat.self_ns.saturating_add(s.self_ns);
            }
        }
    });
}

/// A point-in-time copy of the current thread's metrics, ordered by
/// name for deterministic rendering.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges.
    pub gauges: Vec<(String, f64)>,
    /// `(name, digest)` exact-percentile digests.
    pub digests: Vec<(String, Digest)>,
    /// Aggregated span statistics.
    pub spans: Vec<SpanStat>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.digests.is_empty()
            && self.spans.is_empty()
    }

    /// The value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The value of a gauge, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The stats of an exact-percentile digest, if recorded.
    pub fn digest(&self, name: &str) -> Option<&Digest> {
        self.digests.iter().find(|(n, _)| n == name).map(|(_, d)| d)
    }

    /// The aggregated stats of a span, if recorded.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Folds another snapshot into this one, registry-free: counters
    /// add (saturating), gauges keep the incoming value (last write
    /// wins), digests add bucket-wise, spans add calls and times.
    /// Name order stays sorted, so rendering stays deterministic.
    ///
    /// This is the aggregation primitive for long-running processes
    /// (the serving daemon) that fold per-request worker drains into a
    /// shared `Mutex<Snapshot>` instead of a thread-local registry —
    /// [`absorb`] requires the destination to be the current thread's
    /// registry, which a shared aggregate is not.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.counters[i].1 = self.counters[i].1.saturating_add(*v),
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.gauges[i].1 = *v,
                Err(i) => self.gauges.insert(i, (name.clone(), *v)),
            }
        }
        for (name, d) in &other.digests {
            match self.digests.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.digests[i].1.merge(d),
                Err(i) => self.digests.insert(i, (name.clone(), d.clone())),
            }
        }
        for s in &other.spans {
            match self.spans.binary_search_by(|e| e.name.cmp(&s.name)) {
                Ok(i) => {
                    let stat = &mut self.spans[i];
                    stat.calls = stat.calls.saturating_add(s.calls);
                    stat.total_ns = stat.total_ns.saturating_add(s.total_ns);
                    stat.self_ns = stat.self_ns.saturating_add(s.self_ns);
                }
                Err(i) => self.spans.insert(i, s.clone()),
            }
        }
    }

    /// Renders the snapshot as the workspace's metrics-report JSON
    /// (validated by [`crate::schema::validate`]).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name.clone())),
                    ("calls", Json::Num(s.calls as f64)),
                    ("total_ns", Json::Num(s.total_ns as f64)),
                    ("self_ns", Json::Num(s.self_ns as f64)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| {
                Json::obj([("name", Json::str(n.clone())), ("value", Json::Num(*v as f64))])
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| Json::obj([("name", Json::str(n.clone())), ("value", Json::Num(*v))]))
            .collect();
        let digests = self.digests.iter().map(|(n, d)| d.to_json(n)).collect();
        Json::obj([
            ("schema_version", Json::Num(crate::schema::SCHEMA_VERSION as f64)),
            ("spans", Json::Arr(spans)),
            ("counters", Json::Arr(counters)),
            ("gauges", Json::Arr(gauges)),
            ("digests", Json::Arr(digests)),
        ])
    }
}

/// Copies the current thread's metrics into a [`Snapshot`]. Works
/// whether or not collection is enabled (a disabled thread yields an
/// empty report).
pub fn snapshot() -> Snapshot {
    with_registry(|r| {
        let mut counters: Vec<(String, u64)> =
            r.counters.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        counters.sort();
        let mut gauges: Vec<(String, f64)> =
            r.gauges.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut digests: Vec<(String, Digest)> =
            r.digests.iter().map(|(n, d)| (n.to_string(), d.clone())).collect();
        digests.sort_by(|a, b| a.0.cmp(&b.0));
        let mut spans: Vec<SpanStat> = r.spans.values().cloned().collect();
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { counters, gauges, digests, spans }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    #[test]
    fn counters_accumulate_and_saturate() {
        let _scope = Scope::enter();
        counter_add("sim.timing.events", 2);
        counter_add("sim.timing.events", 3);
        assert_eq!(snapshot().counter("sim.timing.events"), Some(5));
        counter_add("sim.timing.events", u64::MAX);
        assert_eq!(
            snapshot().counter("sim.timing.events"),
            Some(u64::MAX),
            "counter overflow must saturate, not wrap"
        );
    }

    #[test]
    fn gauges_keep_last_write() {
        let _scope = Scope::enter();
        gauge_set("bdd.nodes", 10.0);
        gauge_set("bdd.nodes", 7.0);
        assert_eq!(snapshot().gauge("bdd.nodes"), Some(7.0));
    }

    #[test]
    fn digest_records_count_sum_and_exact_extremes() {
        let _scope = Scope::enter();
        // Below 128 every value has its own bucket; above, extremes
        // are still tracked exactly.
        digest_record("spcf.short_path.output_ns", 1);
        digest_record("spcf.short_path.output_ns", 2);
        digest_record("spcf.short_path.output_ns", 2);
        digest_record("spcf.short_path.output_ns", 3);
        digest_record("spcf.short_path.output_ns", 1_000_000_000);
        digest_record("spcf.short_path.output_ns", 1_000_000_001);
        let snap = snapshot();
        let d = snap.digest("spcf.short_path.output_ns").expect("recorded");
        assert_eq!(d.buckets.get(&crate::digest::bucket_index(1)), Some(&1), "v=1 alone");
        assert_eq!(d.buckets.get(&crate::digest::bucket_index(2)), Some(&2), "both v=2");
        assert_eq!(d.buckets.get(&crate::digest::bucket_index(3)), Some(&1), "v=3 alone");
        assert_eq!((d.min, d.max), (1, 1_000_000_001), "extremes are exact");
        assert_eq!(d.count, 6);
        let expect_sum = 1.0 + 2.0 + 2.0 + 3.0 + 1e9 + (1e9 + 1.0);
        assert!((d.sum - expect_sum).abs() < 1e-6);
    }

    #[test]
    fn snapshot_orders_by_name() {
        let _scope = Scope::enter();
        counter_add("spcf.short_path.memo_miss", 1);
        counter_add("bdd.cache.hits", 1);
        counter_add("monitor.trace.dropped", 1);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "bdd.cache.hits",
                "monitor.trace.dropped",
                "spcf.short_path.memo_miss"
            ]
        );
    }

    #[test]
    fn absorb_merges_every_metric_kind() {
        let _scope = Scope::enter();
        counter_add("spcf.short_path.stab_calls", 3);
        gauge_set("bdd.nodes", 5.0);
        digest_record("spcf.short_path.output_ns", 3);
        {
            let _span = crate::span!("spcf.short_path");
        }

        // A "worker" snapshot as another thread would have drained it.
        let mut worker = Snapshot::default();
        worker.counters.push(("spcf.short_path.stab_calls".to_string(), 4));
        worker.counters.push(("not.registered".to_string(), 99));
        worker.gauges.push(("bdd.nodes".to_string(), 9.0));
        let mut d = Digest::default();
        d.record(1);
        d.record(2_000_000_000_000);
        worker.digests.push(("spcf.short_path.output_ns".to_string(), d));
        worker.spans.push(SpanStat {
            name: "spcf.short_path".to_string(),
            calls: 2,
            total_ns: 100,
            self_ns: 80,
        });

        absorb(&worker);
        let snap = snapshot();
        assert_eq!(snap.counter("spcf.short_path.stab_calls"), Some(7));
        assert_eq!(snap.counter("not.registered"), None, "unknown names are dropped");
        assert_eq!(snap.gauge("bdd.nodes"), Some(9.0), "worker gauge wins");
        let merged = snap.digest("spcf.short_path.output_ns").expect("merged");
        assert_eq!(merged.count, 3);
        assert_eq!((merged.min, merged.max), (1, 2_000_000_000_000));
        let span = snap.span("spcf.short_path").expect("merged span");
        assert_eq!(span.calls, 3);
        assert!(span.total_ns >= 100, "worker time folded in: {span:?}");
        assert!(span.self_ns <= span.total_ns);
    }

    #[test]
    fn merge_is_registry_free_and_keeps_name_order() {
        let mut agg = Snapshot::default();
        let mut a = Snapshot::default();
        a.counters.push(("serve.requests".to_string(), 2));
        a.gauges.push(("serve.pool.sessions".to_string(), 1.0));
        let mut h = Digest::default();
        h.record(3);
        a.digests.push(("spcf.short_path.output_ns".to_string(), h));
        let mut d = Digest::default();
        d.record(3);
        a.digests.push(("serve.request_ns".to_string(), d));
        a.spans.push(SpanStat {
            name: "serve.request".to_string(),
            calls: 2,
            total_ns: 50,
            self_ns: 40,
        });
        let mut b = Snapshot::default();
        b.counters.push(("serve.pool.hits".to_string(), 1));
        b.counters.push(("serve.requests".to_string(), 3));
        b.gauges.push(("serve.pool.sessions".to_string(), 4.0));
        let mut h2 = Digest::default();
        h2.record(2_000_000_000_000);
        b.digests.push(("spcf.short_path.output_ns".to_string(), h2));
        let mut d2 = Digest::default();
        d2.record(2_000_000_000_000);
        b.digests.push(("serve.request_ns".to_string(), d2));
        b.spans.push(SpanStat {
            name: "serve.request".to_string(),
            calls: 1,
            total_ns: 10,
            self_ns: 10,
        });
        agg.merge(&a);
        agg.merge(&b);
        assert_eq!(agg.counter("serve.requests"), Some(5));
        assert_eq!(agg.counter("serve.pool.hits"), Some(1));
        let names: Vec<&str> = agg.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["serve.pool.hits", "serve.requests"], "sorted after merge");
        assert_eq!(agg.gauge("serve.pool.sessions"), Some(4.0), "last write wins");
        let merged = agg.digest("spcf.short_path.output_ns").expect("merged");
        assert_eq!(merged.count, 2);
        assert_eq!((merged.min, merged.max), (3, 2_000_000_000_000));
        let digest = agg.digest("serve.request_ns").expect("merged digest");
        assert_eq!(digest.count, 2);
        assert_eq!(digest.min, 3);
        assert_eq!(digest.max, 2_000_000_000_000);
        let span = agg.span("serve.request").expect("merged span");
        assert_eq!((span.calls, span.total_ns, span.self_ns), (3, 60, 50));
        // A merged aggregate renders to a schema-valid report.
        let parsed = Json::parse(&agg.to_json().render()).expect("parses");
        crate::schema::validate(&parsed).expect("merged aggregate is schema-valid");
    }

    #[test]
    fn drain_empties_and_absorb_restores_across_threads() {
        let _scope = Scope::enter();
        counter_add("sim.timing.events", 1);
        let workers: Vec<Snapshot> = std::thread::scope(|scope| {
            (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        crate::set_thread_enabled(Some(true));
                        counter_add("sim.timing.events", 10);
                        drain()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        for w in &workers {
            assert_eq!(w.counter("sim.timing.events"), Some(10));
            absorb(w);
        }
        assert_eq!(snapshot().counter("sim.timing.events"), Some(31));
        // drain leaves the worker registry empty — verified locally too.
        counter_add("sim.timing.events", 1);
        let drained = drain();
        assert_eq!(drained.counter("sim.timing.events"), Some(32));
        assert!(snapshot().is_empty());
    }

    #[test]
    fn json_round_trips_through_parser_and_schema() {
        let _scope = Scope::enter();
        counter_add("bdd.unique.hits", 41);
        gauge_set("spcf.short_path.memo_entries", 12.0);
        digest_record("spcf.path_based.output_ns", 1234);
        digest_record("spcf.path_based.output_ns", 2_000_000_000_000);
        {
            let _outer = crate::span!("masking.synthesize");
            let _inner = crate::span!("masking.spcf");
        }
        let rendered = snapshot().to_json().render();
        let parsed = Json::parse(&rendered).expect("report parses");
        crate::schema::validate(&parsed).expect("report is schema-valid");
        // The parsed tree carries the same values the snapshot had.
        let counters = parsed.get("counters").and_then(Json::as_arr).expect("counters");
        assert_eq!(counters[0].get("name").and_then(Json::as_str), Some("bdd.unique.hits"));
        assert_eq!(counters[0].get("value").and_then(Json::as_num), Some(41.0));
        let digests = parsed.get("digests").and_then(Json::as_arr).expect("digests");
        assert_eq!(digests[0].get("max").and_then(Json::as_num), Some(2e12));
    }
}
