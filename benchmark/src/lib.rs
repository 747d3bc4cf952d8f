//! One benchmark for the three `timemask` workflows.
//!
//! | workload | what runs |
//! |---|---|
//! | [`table2`] | `synthesize` + `verify` on the 20 Table 2 circuits at Δ_y = 0.9Δ (runnable, but not listed in `BENCHMARK.json`: too unsteady on a shared host) |
//! | [`serve`] | open-loop SPCF/mask traffic against an in-process `tm-server` |
//! | [`fleet`] | `FleetSim` lifetimes of the masked `comparator2` |
//!
//! Every workload reports the same end-to-end metrics ([`END_TO_END`],
//! measured with tracing off) and, in a traced run, every per-layer
//! metric ([`PER_LAYER`]; a layer the workload never reaches reads 0).
//! Each run checks its outputs against an independent reference and
//! fails when a check fails. See `README.md` for the full metric map.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod serve;
pub mod stats;
pub mod table2;
pub mod trace;

use std::time::Instant;
use tm_testkit::json::Json;
use tm_testkit::rng::Rng;
use trace::Tracer;

/// End-to-end metrics, `(name, unit)`, reported by every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("area_overhead_pct", "%"),
];

/// Per-layer metrics, `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("netlist.extract_s", "s"),
    ("netlist.extract_nodes", "count"),
    ("logic.qm_s", "s"),
    ("logic.qm_calls", "count"),
    ("netlist.global_bdds_s", "s"),
    ("sta.analyse_s", "s"),
    ("core.verify_s", "s"),
    ("core.synth_rest_s", "s"),
    ("spcf.short_path_s", "s"),
    ("bdd.nodes", "count"),
    ("server.request_parse_us", "us"),
    ("netlist.blif_parse_us", "us"),
    ("server.pool_key_us", "us"),
    ("server.pool_build_ms", "ms"),
    ("spcf.compute_ms", "ms"),
    ("server.report_us", "us"),
    ("core.mask_ms", "ms"),
    ("server.queue_p50_ms", "ms"),
    ("server.queue_tail_ms", "ms"),
    ("server.pool_hit_ratio", "ratio"),
    ("spcf.session_rebuilds_per_hit", "ratio"),
    ("bdd.store_peak_live", "count"),
    ("client.lateness_tail_ms", "ms"),
    ("client.spcf_p50_ms", "ms"),
    ("client.spcf_tail_ms", "ms"),
    ("client.mask_p50_ms", "ms"),
    ("client.mask_tail_ms", "ms"),
    ("fleet.epoch_ms", "ms"),
    ("sim.packed_block_us", "us"),
    ("monitor.assess_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// What one invocation asks for.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the
    /// end-to-end one.
    pub trace: bool,
    /// `serve`: pinned offered rates, req/s, ascending.
    pub rates: Vec<f64>,
    /// `serve`: the pinned rate the latency metrics are read at.
    pub ref_rate: f64,
    /// `serve`: the tail-latency limit a rate must meet to count
    /// towards `max_rate_rps`.
    pub tail_limit_ms: f64,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (circuits, requests, epochs).
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Every correctness gate: `Err` names the first broken check.
    pub gate: Result<(), String>,
    /// End-to-end metrics by name (untraced runs).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics by name (traced runs).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Workload-specific figures printed on the detail line.
    pub detail: Vec<(&'static str, Json)>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            gate: Ok(()),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            detail: Vec::new(),
            tracer: None,
        }
    }
}

impl Outcome {
    /// The run's result object: `correct`, `attempted`, `failed`, and
    /// every end-to-end (untraced) or per-layer (traced) metric with
    /// its unit. An end-to-end metric the workload did not produce is
    /// a benchmark bug and fails; an unreached layer reads 0.
    pub fn result_json(&self, traced: bool) -> Result<Json, String> {
        let (declared, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        if let Some((name, _)) = values
            .iter()
            .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
        {
            return Err(format!("undeclared metric `{name}`"));
        }
        let mut metrics = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match values.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            metrics.push((
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::Obj(vec![
            (
                "correct".to_string(),
                Json::Bool(self.gate.is_ok() && self.failed == 0),
            ),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            (
                "metrics".to_string(),
                Json::Obj(
                    metrics
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                ),
            ),
        ]))
    }

    /// Folds a failed check into the gate, keeping the first failure.
    pub fn check(&mut self, result: Result<(), String>) {
        if self.gate.is_ok() {
            self.gate = result;
        }
    }
}

/// Times `setup` `repeats` times and returns the median seconds and the
/// last result (set-up is repeated so its median is steady).
pub fn repeated_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    assert!(repeats >= 1, "set up at least once");
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        // Drop the previous set-up outside the timed region.
        drop(last.replace(value));
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// Peak resident set size of this process in MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line `{line}`: {e}"))?;
    Ok(kib * 1024.0 / 1e6)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::seed_from_u64(seed).shuffle(&mut order);
    order
}

/// Relative difference of `traced` over `untraced`, in percent.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    100.0 * (traced - untraced) / untraced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_requires_every_end_to_end_metric() {
        let mut outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        outcome.end_to_end = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let json = outcome.result_json(false).expect("complete");
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let m = json.get("metrics").expect("metrics");
        assert_eq!(
            m.get("p50_ms")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("ms")
        );

        outcome.end_to_end.pop();
        assert!(
            outcome.result_json(false).is_err(),
            "a missing end-to-end metric fails"
        );
        // Per-layer metrics default to 0 for unreached layers.
        let traced = outcome.result_json(true).expect("layers default to zero");
        let m = traced.get("metrics").expect("metrics");
        assert_eq!(
            m.get("fleet.epoch_ms")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_num),
            Some(0.0)
        );
    }

    #[test]
    fn failed_gate_or_failed_operations_mark_the_run_incorrect() {
        let mut outcome = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        outcome.check(Err("broken".into()));
        outcome.check(Ok(()));
        assert_eq!(
            outcome.gate,
            Err("broken".to_string()),
            "the first failure sticks"
        );
        let json = outcome.result_json(true).expect("renders");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));

        let failed = Outcome {
            attempted: 2,
            failed: 1,
            ..Outcome::default()
        };
        let json = failed.result_json(true).expect("renders");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }

    #[test]
    fn permutations_are_seeded() {
        assert_eq!(permutation(20, 5), permutation(20, 5));
        assert_ne!(permutation(20, 5), permutation(20, 6));
        let mut p = permutation(20, 5);
        p.sort_unstable();
        assert_eq!(p, (0..20).collect::<Vec<_>>());
    }
}
