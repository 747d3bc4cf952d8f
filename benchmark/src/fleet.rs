//! `fleet`: `FleetSim` lifetimes of the masked `comparator2` —
//! [`CHIPS`] chips × [`EPOCHS`] epochs × [`CYCLES`] cycles on
//! [`JOBS`] shards, repeated a fixed number of times per run (see
//! [`lifetimes`]), so the epoch count and with it the tail percentile
//! are the same on every host.
//!
//! The seed drives every chip's aging rate and workload. Each lifetime
//! must reproduce the first one's aggregates exactly, and a replayed
//! cohort of [`COHORT`] chips must give packed-kernel aggregates equal
//! to the scalar kernel's. The traced run times `run_epoch`,
//! `assess_cohorts` and `PackedTimingSim::transition_block` directly.

use crate::stats;
use crate::trace::Tracer;
use crate::{overhead_pct, peak_rss_mb, repeated_setup, Outcome, RunArgs};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tm_fleet::{FleetConfig, FleetKernel, FleetSim, ShardAggregate};
use tm_masking::{synthesize, MaskedDesign, MaskingOptions};
use tm_netlist::circuits::comparator2;
use tm_netlist::library::lsi10k_like;
use tm_sim::func::PatternBlock;
use tm_sim::packed::PackedTimingSim;
use tm_sta::Sta;
use tm_testkit::json::Json;
use tm_testkit::rng::{fnv1a64, Rng};

/// Chips in the fleet.
pub const CHIPS: usize = 200_000;
/// Epochs per lifetime.
pub const EPOCHS: usize = 12;
/// Monitored cycles per chip per epoch.
pub const CYCLES: usize = 16;
/// Shards (worker threads).
pub const JOBS: usize = 2;
/// Chips in the packed-vs-scalar replay cohort.
pub const COHORT: usize = 512;
/// Nominal seconds per lifetime, from which [`lifetimes`] sizes a run.
const LIFETIME_S: f64 = 2.5;
/// Set-ups timed for `setup_s`. One set-up takes well under a
/// millisecond, so many are timed: their median then comes from about
/// half a second of steady running, not from the first cold calls.
const SETUPS: usize = 2001;
/// 64-lane blocks timed in the traced run.
const BLOCKS: usize = 2000;

/// The fleet configuration for `seed`.
pub fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        chips: CHIPS,
        epochs: EPOCHS,
        cycles_per_epoch: CYCLES,
        jobs: JOBS,
        seed: seed ^ fnv1a64(b"fleet"),
        ..FleetConfig::default()
    }
}

/// The monitored design — masked `comparator2` — and its area overhead
/// in percent.
pub fn design() -> (MaskedDesign, f64) {
    let nl = comparator2(Arc::new(lsi10k_like()));
    let result = synthesize(&nl, MaskingOptions::default());
    (result.design, result.report.area_overhead_percent)
}

/// Runs every epoch of `config` and returns the aggregates.
pub fn lifetime(
    design: &MaskedDesign,
    config: &FleetConfig,
) -> Result<Vec<ShardAggregate>, String> {
    let mut sim = FleetSim::new(design, config).map_err(|e| e.to_string())?;
    (0..config.epochs)
        .map(|_| sim.run_epoch().map_err(|e| e.to_string()))
        .collect()
}

/// The `fleet` gate: the packed kernel's aggregates of a cohort must
/// equal the scalar kernel's, epoch by epoch.
pub fn check_kernels(packed: &[ShardAggregate], scalar: &[ShardAggregate]) -> Result<(), String> {
    if packed.len() != scalar.len() {
        return Err(format!(
            "packed ran {} epochs, scalar {}",
            packed.len(),
            scalar.len()
        ));
    }
    match packed.iter().zip(scalar).position(|(p, s)| p != s) {
        Some(e) => Err(format!(
            "packed and scalar kernels diverge at epoch {e}: {:?} vs {:?}",
            packed[e], scalar[e]
        )),
        None => Ok(()),
    }
}

/// Replays the first [`COHORT`] chips of `config` on both kernels.
pub fn replay_cohort(
    design: &MaskedDesign,
    config: &FleetConfig,
) -> Result<(Vec<ShardAggregate>, Vec<ShardAggregate>), String> {
    let packed = FleetConfig {
        chips: COHORT,
        kernel: FleetKernel::Packed,
        ..config.clone()
    };
    let scalar = FleetConfig {
        kernel: FleetKernel::Scalar,
        ..packed.clone()
    };
    Ok((lifetime(design, &packed)?, lifetime(design, &scalar)?))
}

/// Untraced lifetimes.
struct Passes {
    epoch_ms: Vec<f64>,
    /// Chip-cycles per second of each lifetime.
    rate: Vec<f64>,
    first: Vec<ShardAggregate>,
}

/// Lifetimes a run of `seconds` measures: a fixed count per run
/// length, never fewer than two (enough epochs for a tail).
pub fn lifetimes(seconds: f64) -> usize {
    ((seconds / LIFETIME_S).round() as usize).max(2)
}

/// Runs `count` lifetimes (the first on the set-up's simulator), timing
/// each epoch and checking each lifetime against the first.
fn measure(
    design: &MaskedDesign,
    config: &FleetConfig,
    mut sim: FleetSim,
    count: usize,
    outcome: &mut Outcome,
) -> Passes {
    let mut passes = Passes {
        epoch_ms: Vec::new(),
        rate: Vec::new(),
        first: Vec::new(),
    };
    for pass in 0..count {
        if pass > 0 {
            match FleetSim::new(design, config) {
                Ok(next) => sim = next,
                Err(e) => {
                    outcome.check(Err(e.to_string()));
                    break;
                }
            }
        }
        let mut aggs = Vec::with_capacity(config.epochs);
        let mut busy = Duration::ZERO;
        for _ in 0..config.epochs {
            let t = Instant::now();
            let agg = sim.run_epoch();
            let dt = t.elapsed();
            busy += dt;
            passes.epoch_ms.push(dt.as_secs_f64() * 1e3);
            outcome.attempted += 1;
            match agg {
                Ok(a) => aggs.push(a),
                Err(e) => {
                    outcome.failed += 1;
                    outcome.check(Err(e.to_string()));
                }
            }
        }
        let cycles: u64 = aggs.iter().map(|a| a.cycles).sum();
        passes.rate.push(cycles as f64 / busy.as_secs_f64());
        if passes.first.is_empty() {
            passes.first = aggs;
        } else if aggs != passes.first {
            outcome.check(Err(
                "a repeated lifetime changed the fleet aggregates".into()
            ));
        }
    }
    passes
}

/// Runs the `fleet` workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let config = config(args.seed);
    let (setup_s, built) = repeated_setup(SETUPS, || {
        let (design, area) = design();
        FleetSim::new(&design, &config).map(|sim| (design, area, sim))
    });
    let (design, area, sim) = match built {
        Ok(b) => b,
        Err(e) => {
            outcome.check(Err(e.to_string()));
            return outcome;
        }
    };
    let passes = measure(
        &design,
        &config,
        sim,
        if args.trace {
            1
        } else {
            lifetimes(args.seconds)
        },
        &mut outcome,
    );
    let expected_cycles = (CHIPS * CYCLES) as u64;
    if passes
        .first
        .iter()
        .any(|a| a.cycles != expected_cycles || a.chips != CHIPS as u64)
    {
        outcome.check(Err(format!(
            "an epoch did not simulate {CHIPS} chips x {CYCLES} cycles"
        )));
    }
    match replay_cohort(&design, &config) {
        Ok((packed, scalar)) => {
            outcome.attempted += 2 * EPOCHS as u64;
            outcome.check(check_kernels(&packed, &scalar));
        }
        Err(e) => outcome.check(Err(e)),
    }

    let rate = stats::median(&passes.rate);
    let last = passes.first.last();
    outcome.detail = vec![
        ("chip_cycles_per_s", Json::Num(rate)),
        ("lifetimes", Json::Num(passes.rate.len() as f64)),
        (
            "flagged_chips",
            Json::Num(last.map_or(0.0, |a| a.flagged_total as f64)),
        ),
        (
            "detected",
            Json::Num(passes.first.iter().map(|a| a.detected as f64).sum()),
        ),
        (
            "escapes",
            Json::Num(passes.first.iter().map(|a| a.escapes as f64).sum()),
        ),
    ];
    if args.trace {
        let untraced: f64 = passes.epoch_ms.iter().sum();
        traced_pass(&design, &config, args.seed, untraced, &mut outcome);
        return outcome;
    }

    let epochs = stats::summarize(&passes.epoch_ms);
    match &epochs {
        Ok(s) => outcome.detail.extend([
            ("epoch_samples", Json::Num(s.n as f64)),
            ("epoch_tail_pct", Json::Num(s.tail_pct)),
        ]),
        Err(e) => outcome.check(Err(format!("epoch times: {e}"))),
    }
    let ok = outcome.attempted - outcome.failed.min(outcome.attempted);
    outcome.end_to_end = vec![
        ("setup_s", setup_s),
        ("ok_frac", ok as f64 / outcome.attempted.max(1) as f64),
        ("p50_ms", epochs.as_ref().map_or(0.0, |s| s.env.p50)),
        ("tail_ms", epochs.as_ref().map_or(0.0, |s| s.env.tail)),
        ("throughput_per_s", rate),
        ("area_overhead_pct", area),
    ];
    match peak_rss_mb() {
        Ok(mb) => outcome.end_to_end.push(("peak_rss_mb", mb)),
        Err(e) => outcome.check(Err(e)),
    }
    outcome
}

/// The traced pass: one lifetime with a span per epoch (id = epoch),
/// the cohort assessment, and [`BLOCKS`] seeded 64-lane blocks through
/// the packed kernel on the instrumented design.
fn traced_pass(
    design: &MaskedDesign,
    config: &FleetConfig,
    seed: u64,
    untraced_ms: f64,
    outcome: &mut Outcome,
) {
    let mut tr = Tracer::new(Instant::now(), 0);
    let root = tr.open("fleet.lifetime", 0, None);
    let mut sim = match FleetSim::new(design, config) {
        Ok(sim) => sim,
        Err(e) => {
            outcome.check(Err(e.to_string()));
            return;
        }
    };
    let mut aggs = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let (agg, _) = tr.time("fleet.epoch", epoch as u64, Some(root), || sim.run_epoch());
        outcome.attempted += 1;
        match agg {
            Ok(a) => aggs.push(a),
            Err(e) => {
                outcome.failed += 1;
                outcome.check(Err(e.to_string()));
            }
        }
    }
    let (cohorts, _) = tr.time("monitor.assess", 0, Some(root), || {
        sim.assess_cohorts(&aggs)
    });
    if cohorts.len() != config.delay_classes {
        outcome.check(Err(format!(
            "{} cohort assessments for {} classes",
            cohorts.len(),
            config.delay_classes
        )));
    }
    tr.close(root);

    let (instrumented, _) = design.instrumented();
    let packed = PackedTimingSim::new(&instrumented);
    let clock = Sta::new(&design.original).critical_path_delay();
    let times = vec![clock; instrumented.outputs().len()];
    let inputs = instrumented.inputs().len();
    let mut rng = Rng::seed_from_u64(seed ^ fnv1a64(b"fleet.blocks"));
    let mut block = || PatternBlock::from_words((0..inputs).map(|_| rng.next_u64()).collect(), 64);
    let kernel = tr.open("sim.packed", 0, None);
    let mut prev = block();
    for b in 0..BLOCKS {
        let next = block();
        let (r, _) = tr.time("sim.packed_block", b as u64, Some(kernel), || {
            packed.transition_block(&prev, &next, &times)
        });
        std::hint::black_box(r);
        prev = next;
    }
    tr.close(kernel);

    let ms = |name: &str| -> Vec<f64> {
        tr.durations(name)
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect()
    };
    let epoch_ms = ms("fleet.epoch");
    outcome.per_layer = vec![
        ("fleet.epoch_ms", stats::median(&epoch_ms)),
        (
            "sim.packed_block_us",
            stats::median(&ms("sim.packed_block")) * 1e3,
        ),
        ("monitor.assess_ms", stats::median(&ms("monitor.assess"))),
        (
            "trace_overhead_pct",
            overhead_pct(epoch_ms.iter().sum(), untraced_ms),
        ),
    ];
    outcome.tracer = Some(tr);
}
