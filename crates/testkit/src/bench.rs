//! Wall-clock benchmark harness (the workspace's `criterion`
//! stand-in).
//!
//! Each benchmark runs a warmup phase, then `sample_size` timed
//! samples; a sample times a batch of iterations sized so one sample
//! takes at least [`MIN_SAMPLE_TIME`] (fast kernels are batched, slow
//! kernels run once per sample). The harness reports min / median /
//! p95 / max per iteration and appends every result to a JSON report
//! written on [`BenchGroup::finish`] (default
//! `target/tm-bench/<group>.json`, overridable via `TM_BENCH_DIR`).
//!
//! Benches stay `harness = false` binaries, mirroring the criterion
//! layout:
//!
//! ```no_run
//! use tm_testkit::bench::BenchGroup;
//!
//! let mut group = BenchGroup::new("spcf_algorithms");
//! group.sample_size(10);
//! group.bench("node_based/c1", || 2 + 2);
//! group.finish();
//! ```

use crate::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall-clock span of one timed sample; iterations are batched
/// until a sample is at least this long.
pub const MIN_SAMPLE_TIME: Duration = Duration::from_millis(2);

/// Environment variable overriding the JSON report directory.
pub const DIR_ENV: &str = "TM_BENCH_DIR";

/// Statistics of one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct BenchStats {
    /// Benchmark id within the group.
    pub id: String,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample (nearest-rank).
    pub p95_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Optional per-stage split of one iteration, `(stage, ns)`, attached
    /// with [`BenchGroup::split`].
    pub split_ns: Vec<(String, f64)>,
}

impl BenchStats {
    fn from_samples(id: &str, iters: u64, mut ns: Vec<f64>) -> Self {
        ns.sort_by(f64::total_cmp);
        let n = ns.len();
        let rank = |q: f64| ns[(((n as f64) * q).ceil() as usize).clamp(1, n) - 1];
        BenchStats {
            id: id.to_string(),
            iters_per_sample: iters,
            samples: n,
            min_ns: ns[0],
            median_ns: rank(0.5),
            p95_ns: rank(0.95),
            max_ns: ns[n - 1],
            split_ns: Vec::new(),
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::str(self.id.clone())),
            ("iters_per_sample", Json::Num(self.iters_per_sample as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("min_ns", Json::Num(self.min_ns)),
            ("median_ns", Json::Num(self.median_ns)),
            ("p95_ns", Json::Num(self.p95_ns)),
            ("max_ns", Json::Num(self.max_ns)),
        ];
        if !self.split_ns.is_empty() {
            let split = self.split_ns.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
            fields.push(("split_ns", Json::Obj(split.collect())));
        }
        Json::obj(fields)
    }
}

/// A named group of benchmarks sharing a sample budget and one JSON
/// report file.
pub struct BenchGroup {
    name: String,
    sample_size: usize,
    warmup: Duration,
    results: Vec<BenchStats>,
    meta: Vec<(&'static str, f64)>,
}

impl BenchGroup {
    /// A new group with 20 samples and a 200 ms warmup per benchmark.
    pub fn new(name: impl Into<String>) -> Self {
        BenchGroup {
            name: name.into(),
            sample_size: 20,
            warmup: Duration::from_millis(200),
            results: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Sets the number of timed samples per benchmark (minimum 1 — a
    /// single sample is a smoke run, not a measurement).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warmup duration per benchmark.
    pub fn warmup(&mut self, d: Duration) -> &mut Self {
        self.warmup = d;
        self
    }

    /// Records a group-level metadata value (e.g. the worker count a
    /// run used), emitted in the JSON report's `meta` object. A repeated
    /// key overwrites the earlier value.
    pub fn meta(&mut self, key: &'static str, value: f64) -> &mut Self {
        match self.meta.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.meta.push((key, value)),
        }
        self
    }

    /// Runs one benchmark: warmup, then timed samples of `f`.
    ///
    /// The closure's return value is passed through
    /// [`std::hint::black_box`] so the work is not optimized away.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) -> &BenchStats {
        // Warmup, measuring a single-iteration estimate as we go.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        let mut elapsed = Duration::ZERO;
        while elapsed < self.warmup || warmup_iters == 0 {
            black_box(f());
            warmup_iters += 1;
            elapsed = warmup_start.elapsed();
            if warmup_iters >= 1_000_000 {
                break;
            }
        }
        let est_per_iter = elapsed.as_secs_f64() / warmup_iters as f64;
        // Batch iterations so one sample spans at least MIN_SAMPLE_TIME.
        let iters = if est_per_iter <= 0.0 {
            1
        } else {
            (MIN_SAMPLE_TIME.as_secs_f64() / est_per_iter).ceil().max(1.0) as u64
        };

        let mut samples_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }

        let stats = BenchStats::from_samples(id, iters, samples_ns);
        println!(
            "{:<40} median {:>12} p95 {:>12} (n={}, {} iter/sample)",
            format!("{}/{}", self.name, stats.id),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            stats.samples,
            stats.iters_per_sample,
        );
        self.results.push(stats);
        self.results.last().expect("just pushed")
    }

    /// Attaches a per-stage split of one iteration, `(stage, ns)`, to the
    /// most recent benchmark; it is emitted as that result's `split_ns`
    /// object. Ignored before the first benchmark.
    pub fn split(&mut self, parts: Vec<(String, f64)>) -> &mut Self {
        if let Some(last) = self.results.last_mut() {
            last.split_ns = parts;
        }
        self
    }

    /// Writes the group's JSON report and consumes the group.
    ///
    /// Report path: `$TM_BENCH_DIR/<group>.json` or
    /// `target/tm-bench/<group>.json`. I/O failures are reported to
    /// stderr but never fail the bench run.
    pub fn finish(self) {
        let dir = std::env::var(DIR_ENV).unwrap_or_else(|_| default_report_dir());
        let report = Json::obj([
            ("group", Json::str(self.name.clone())),
            (
                "meta",
                Json::obj(self.meta.iter().map(|&(k, v)| (k, Json::Num(v)))),
            ),
            ("results", Json::Arr(self.results.iter().map(BenchStats::to_json).collect())),
        ]);
        let path = format!("{dir}/{}.json", self.name);
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, report.render()))
        {
            eprintln!("tm-testkit: could not write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
    }
}

/// The workspace root: the outermost ancestor of the current directory
/// holding a `Cargo.lock`. Cargo runs test and bench binaries with the
/// *package* directory as CWD, so relative output paths should be
/// resolved against this instead.
pub fn workspace_root() -> Option<std::path::PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    cwd.ancestors()
        .filter(|a| a.join("Cargo.lock").is_file())
        .last()
        .map(std::path::Path::to_path_buf)
}

/// Default report directory: `target/tm-bench` under the workspace
/// root, so reports from every crate's benches land in one place.
fn default_report_dir() -> String {
    match workspace_root() {
        Some(root) => root.join("target/tm-bench").to_string_lossy().into_owned(),
        None => "target/tm-bench".to_string(),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_sane() {
        let s = BenchStats::from_samples("x", 1, vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 3.0);
        assert_eq!(s.max_ns, 5.0);
        assert!(s.p95_ns >= s.median_ns && s.p95_ns <= s.max_ns);
    }

    #[test]
    fn bench_runs_and_records() {
        let mut g = BenchGroup::new("testkit_selftest");
        g.sample_size(3).warmup(Duration::from_millis(1));
        let s = g.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.min_ns > 0.0);
        assert!(s.median_ns >= s.min_ns);
        assert_eq!(s.samples, 3);
        // Don't write a report from unit tests.
    }

    #[test]
    fn meta_overwrites_repeated_keys() {
        let mut g = BenchGroup::new("testkit_meta");
        g.meta("jobs", 1.0).meta("gates", 42.0).meta("jobs", 4.0);
        assert_eq!(g.meta, vec![("jobs", 4.0), ("gates", 42.0)]);
    }

    #[test]
    fn split_attaches_to_the_last_result() {
        let mut g = BenchGroup::new("testkit_split");
        g.sample_size(1).warmup(Duration::ZERO);
        g.split(vec![("ignored".into(), 1.0)]);
        g.bench("a", || 1);
        g.bench("b", || 2);
        g.split(vec![("stage".into(), 7.0)]);
        assert!(g.results[0].split_ns.is_empty());
        let json = g.results[1].to_json().render();
        assert!(json.contains("\"split_ns\""), "{json}");
        assert!(json.contains("\"stage\""), "{json}");
        assert!(!g.results[0].to_json().render().contains("split_ns"));
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
