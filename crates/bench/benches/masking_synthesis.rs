//! Benchmarks for the end-to-end masking flow: one Table 2 row
//! (synthesis plus exact verification) per circuit, on the in-repo
//! `tm-testkit` harness (JSON report in `target/tm-bench/`; the
//! committed trajectory is `BENCH_masking.json`).
//!
//! Each result carries a `split_ns` object: the per-run wall time of
//! the `masking.{spcf,extract,covers,map,slack}` spans, of
//! `masking.verify`, and of the enclosing `masking.synthesize`, read
//! from the telemetry snapshot of separate traced runs so the timed
//! samples stay untraced.
//!
//! Flags (see [`BenchArgs`]): `--samples N`, `--metrics-out PATH`,
//! `--smoke` to run the small smoke suite instead of the Table 2 suite,
//! and `--jobs N` for SPCF workers.

use std::hint::black_box;
use tm_bench::{harness_library, BenchArgs};
use tm_masking::{synthesize, verify, MaskingOptions};
use tm_netlist::netlist::Netlist;
use tm_netlist::suites::{smoke_suite, table2_suite};
use tm_testkit::bench::BenchGroup;

/// Spans reported in each result's split, in pipeline order.
const STAGES: [&str; 7] = [
    "masking.spcf",
    "masking.extract",
    "masking.covers",
    "masking.map",
    "masking.slack",
    "masking.verify",
    "masking.synthesize",
];

/// Traced runs averaged into each split.
const SPLIT_RUNS: u32 = 3;

/// One Table 2 row: synthesize, then verify exactly.
fn row(nl: &Netlist, options: MaskingOptions) -> bool {
    let mut result = synthesize(nl, options);
    verify(&mut result).all_ok()
}

/// Mean per-run span totals over traced runs, in an isolated registry.
fn split(nl: &Netlist, options: MaskingOptions) -> Vec<(String, f64)> {
    let _scope = tm_telemetry::Scope::enter();
    for _ in 0..SPLIT_RUNS {
        black_box(row(nl, options));
    }
    let snap = tm_telemetry::snapshot();
    STAGES
        .iter()
        .map(|&stage| {
            let total = snap.span(stage).map_or(0, |s| s.total_ns);
            (stage.to_string(), total as f64 / f64::from(SPLIT_RUNS))
        })
        .collect()
}

fn main() {
    let args = BenchArgs::parse();
    let lib = harness_library();
    let options = MaskingOptions { jobs: args.jobs(), ..Default::default() };

    let mut group = BenchGroup::new("masking_synthesis");
    group.sample_size(10);
    args.apply(&mut group);
    // Two-level core for the BENCH_masking.json trajectory:
    // 0 = level-by-level Quine–McCluskey, 1 = word-parallel Shannon primes.
    group.meta("variant", 1.0);
    let suite = if args.smoke { smoke_suite() } else { table2_suite() };
    for entry in suite {
        let nl = entry.build(lib.clone());
        group.bench(&format!("row/{}", entry.name), || black_box(row(&nl, options)));
        group.split(split(&nl, options));
    }
    group.finish();
    args.write_metrics();
}
