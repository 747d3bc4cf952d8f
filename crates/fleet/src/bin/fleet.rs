//! The fleet bench binary: drives a population of virtual chips
//! through the packed monitor kernel and writes `BENCH_fleet.json`.
//!
//! ```text
//! fleet [--chips N] [--epochs N] [--cycles N] [--jobs N] [--classes N]
//!       [--seed N] [--max-stress F] [--baseline-chips N] [--smoke]
//!       [--out FILE] [--metrics-out FILE] [--check-report FILE]
//! ```
//!
//! Two passes per run: the packed kernel over the full fleet (per-epoch
//! wall time → p50/p95 epoch latency), then the scalar per-chip
//! baseline over `--baseline-chips` chips (`meta.variant` names the
//! comparison). The packed kernel also replays the baseline cohort so
//! the run cross-checks bit-identity before reporting a speedup.
//! `--check-report` validates an existing report's schema and exits —
//! CI runs it against both the fresh smoke report and the committed
//! `BENCH_fleet.json`.

use std::time::Instant;
use tm_fleet::{FleetConfig, FleetKernel, FleetSim, ShardAggregate};
use tm_masking::{synthesize, MaskedDesign, MaskingOptions};
use tm_netlist::circuits::comparator2;
use tm_netlist::library::lsi10k_like;
use tm_testkit::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: fleet [--chips N] [--epochs N] [--cycles N] [--jobs N] [--classes N] \
         [--seed N] [--max-stress F] [--baseline-chips N] [--smoke] [--out FILE] \
         [--metrics-out FILE] [--check-report FILE]"
    );
    std::process::exit(2);
}

/// One timed fleet pass: per-epoch wall milliseconds plus the final
/// aggregates.
struct Pass {
    config: FleetConfig,
    epochs: Vec<ShardAggregate>,
    epoch_ms: Vec<f64>,
    elapsed_ms: f64,
}

fn run_pass(design: &MaskedDesign, config: &FleetConfig) -> Pass {
    let mut sim = FleetSim::new(design, config).unwrap_or_else(|e| {
        eprintln!("fleet: invalid config: {e}");
        std::process::exit(2);
    });
    let t0 = Instant::now();
    let mut epochs = Vec::with_capacity(config.epochs);
    let mut epoch_ms = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        let te = Instant::now();
        epochs.push(sim.run_epoch().expect("epoch within configured range"));
        epoch_ms.push(te.elapsed().as_secs_f64() * 1e3);
    }
    tm_telemetry::counter_add("fleet.chips", config.chips as u64);
    Pass { config: config.clone(), epochs, epoch_ms, elapsed_ms: t0.elapsed().as_secs_f64() * 1e3 }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let k = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[k.min(sorted.len() - 1)]
}

impl Pass {
    fn chips_cycles_per_sec(&self) -> f64 {
        let work: u64 = self.epochs.iter().map(|a| a.cycles).sum();
        work as f64 / (self.elapsed_ms / 1e3).max(1e-9)
    }

    /// Percentile `p` of the per-epoch wall times.
    fn epoch_percentile(&self, p: f64) -> f64 {
        let mut sorted = self.epoch_ms.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }

    fn to_json(&self, id: &str) -> Json {
        let last = self.epochs.last().expect("at least one epoch");
        Json::obj([
            ("id", Json::str(id)),
            ("chips", Json::Num(self.config.chips as f64)),
            ("epochs", Json::Num(self.config.epochs as f64)),
            ("cycles_per_epoch", Json::Num(self.config.cycles_per_epoch as f64)),
            ("elapsed_ms", Json::Num(self.elapsed_ms)),
            ("chips_cycles_per_sec", Json::Num(self.chips_cycles_per_sec())),
            ("epoch_p50_ms", Json::Num(self.epoch_percentile(0.50))),
            ("epoch_p95_ms", Json::Num(self.epoch_percentile(0.95))),
            ("detected", Json::Num(self.epochs.iter().map(|a| a.detected).sum::<u64>() as f64)),
            ("escapes", Json::Num(self.epochs.iter().map(|a| a.escapes).sum::<u64>() as f64)),
            ("flagged_chips", Json::Num(last.flagged_total as f64)),
            (
                "escapes_before_flag",
                Json::Num(
                    self.epochs.iter().map(|a| a.escapes_before_flag).sum::<u64>() as f64
                ),
            ),
            (
                "rate_ppm_p95",
                Json::Num(last.rate_ppm.quantile(0.95).unwrap_or(0) as f64),
            ),
        ])
    }
}

/// Structural check of a `BENCH_fleet.json` report. Returns every
/// problem found.
fn check_report(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get("group").and_then(Json::as_str) != Some("fleet") {
        errs.push("group must be \"fleet\"".into());
    }
    let meta = doc.get("meta");
    if meta.is_none() {
        errs.push("missing meta object".into());
    }
    if meta.and_then(|m| m.get("variant")).and_then(Json::as_str).is_none() {
        errs.push("meta.variant must name the baseline comparison".into());
    }
    for key in ["jobs", "chips", "epochs", "cycles_per_epoch", "seed"] {
        if meta.and_then(|m| m.get(key)).and_then(Json::as_num).is_none() {
            errs.push(format!("meta.{key} must be numeric"));
        }
    }
    if doc.get("speedup_packed_vs_scalar").and_then(Json::as_num).is_none() {
        errs.push("missing numeric speedup_packed_vs_scalar".into());
    }
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        errs.push("missing results array".into());
        return errs;
    };
    let mut ids = Vec::new();
    for (i, entry) in results.iter().enumerate() {
        match entry.get("id").and_then(Json::as_str) {
            Some(id) => ids.push(id.to_string()),
            None => errs.push(format!("results[{i}] missing string id")),
        }
        for key in [
            "chips",
            "epochs",
            "cycles_per_epoch",
            "elapsed_ms",
            "chips_cycles_per_sec",
            "epoch_p50_ms",
            "epoch_p95_ms",
            "flagged_chips",
        ] {
            if entry.get(key).and_then(Json::as_num).is_none() {
                errs.push(format!("results[{i}] missing numeric {key}"));
            }
        }
    }
    for want in ["packed", "scalar_baseline"] {
        if !ids.iter().any(|id| id == want) {
            errs.push(format!("results must include id \"{want}\""));
        }
    }
    errs
}

fn main() {
    let mut chips: Option<usize> = None;
    let mut epochs: Option<usize> = None;
    let mut cycles: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut classes: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut max_stress: Option<f64> = None;
    let mut baseline_chips: Option<usize> = None;
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut check: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |dst: &mut Option<usize>| {
            *dst = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
        };
        match arg.as_str() {
            "--chips" => num(&mut chips),
            "--epochs" => num(&mut epochs),
            "--cycles" => num(&mut cycles),
            "--jobs" => num(&mut jobs),
            "--classes" => num(&mut classes),
            "--baseline-chips" => num(&mut baseline_chips),
            "--seed" => {
                seed = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--max-stress" => {
                max_stress =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--smoke" => smoke = true,
            "--out" => out = args.next(),
            "--metrics-out" => metrics_out = args.next(),
            "--check-report" => check = args.next(),
            _ => usage(),
        }
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("fleet: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let doc = Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("fleet: {path} is not JSON: {e}");
            std::process::exit(1);
        });
        let errs = check_report(&doc);
        if errs.is_empty() {
            eprintln!("fleet: {path} OK");
            return;
        }
        for e in &errs {
            eprintln!("fleet: {path}: {e}");
        }
        std::process::exit(1);
    }

    let metrics_out = metrics_out.or_else(tm_telemetry::metrics_out_env);
    if metrics_out.is_some() {
        tm_telemetry::set_thread_enabled(Some(true));
    }

    let mut config = FleetConfig::default();
    if smoke {
        config.chips = 2048;
        config.epochs = 6;
        config.cycles_per_epoch = 8;
        config.jobs = 4;
    } else {
        config.chips = 1_000_000;
        config.epochs = 12;
        config.cycles_per_epoch = 16;
        config.jobs = 8;
    }
    let default_baseline = if smoke { 192 } else { 4096 };
    if let Some(v) = chips {
        config.chips = v;
    }
    if let Some(v) = epochs {
        config.epochs = v;
    }
    if let Some(v) = cycles {
        config.cycles_per_epoch = v;
    }
    if let Some(v) = jobs {
        config.jobs = v;
    }
    if let Some(v) = classes {
        config.delay_classes = v;
    }
    if let Some(v) = seed {
        config.seed = v;
    }
    if let Some(v) = max_stress {
        config.max_stress = v;
    }
    let baseline_chips = baseline_chips.unwrap_or(default_baseline).min(config.chips);

    let nl = comparator2(std::sync::Arc::new(lsi10k_like()));
    let design = synthesize(&nl, MaskingOptions::default()).design;

    eprintln!(
        "fleet: packed pass — {} chips x {} epochs x {} cycles, jobs {}",
        config.chips, config.epochs, config.cycles_per_epoch, config.jobs
    );
    let packed = run_pass(&design, &config);
    eprintln!(
        "fleet: packed {:.0} chips*cycles/s, epoch p50 {:.1} ms, flagged {}",
        packed.chips_cycles_per_sec(),
        packed.epoch_percentile(0.5),
        packed.epochs.last().unwrap().flagged_total
    );

    let mut scalar_config = config.clone();
    scalar_config.chips = baseline_chips;
    scalar_config.kernel = FleetKernel::Scalar;
    eprintln!("fleet: scalar baseline — {} chips", baseline_chips);
    let scalar = run_pass(&design, &scalar_config);
    eprintln!(
        "fleet: scalar {:.0} chips*cycles/s ({}x speedup)",
        scalar.chips_cycles_per_sec(),
        (packed.chips_cycles_per_sec() / scalar.chips_cycles_per_sec()).round()
    );

    // Bit-identity cross-check: the packed kernel replays the baseline
    // cohort and must reproduce every scalar aggregate exactly.
    let mut replay_config = scalar_config.clone();
    replay_config.kernel = FleetKernel::Packed;
    let replay = run_pass(&design, &replay_config);
    if replay.epochs != scalar.epochs {
        eprintln!("fleet: FAIL packed and scalar kernels diverged on the baseline cohort");
        std::process::exit(1);
    }
    eprintln!("fleet: kernels bit-identical on the {baseline_chips}-chip cohort");

    if smoke && packed.epochs.last().unwrap().flagged_total == 0 {
        eprintln!("fleet: FAIL smoke run flagged no chips (trend detector dead?)");
        std::process::exit(1);
    }

    let speedup = packed.chips_cycles_per_sec() / scalar.chips_cycles_per_sec().max(1e-9);
    if let Some(path) = out {
        let doc = Json::obj([
            ("group", Json::str("fleet")),
            (
                "meta",
                Json::obj([
                    ("variant", Json::str("packed_vs_scalar_per_chip")),
                    ("netlist", Json::str("comparator2_masked")),
                    ("jobs", Json::Num(config.jobs as f64)),
                    ("chips", Json::Num(config.chips as f64)),
                    ("epochs", Json::Num(config.epochs as f64)),
                    ("cycles_per_epoch", Json::Num(config.cycles_per_epoch as f64)),
                    ("delay_classes", Json::Num(config.delay_classes as f64)),
                    ("seed", Json::Num(config.seed as f64)),
                    ("max_stress", Json::Num(config.max_stress)),
                    ("baseline_chips", Json::Num(baseline_chips as f64)),
                    ("smoke", Json::Num(smoke as u8 as f64)),
                ]),
            ),
            (
                "results",
                Json::Arr(vec![packed.to_json("packed"), scalar.to_json("scalar_baseline")]),
            ),
            ("speedup_packed_vs_scalar", Json::Num(speedup)),
        ]);
        match std::fs::write(&path, doc.render() + "\n") {
            Ok(()) => eprintln!("fleet: wrote {path}"),
            Err(e) => {
                eprintln!("fleet: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = metrics_out {
        if let Err(e) = tm_telemetry::write_snapshot(&path) {
            eprintln!("fleet: cannot write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("fleet: wrote metrics to {path}");
    }
}
