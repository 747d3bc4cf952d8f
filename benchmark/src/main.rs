//! The benchmark's command line.
//!
//! ```text
//! tm-benchmark --workload table2|serve|fleet --seed N --seconds S --trace 0|1
//!              [--rates R1,R2,...] [--ref-rate R] [--tail-limit-ms L]
//! ```
//!
//! Prints a detail line (workload-specific figures) and then, as the
//! last line of standard output, the result object. Exits 1 when a
//! correctness gate fails and 2 on a usage error. A traced run writes
//! its spans as Chrome trace-event JSON to
//! `benchmark/out/trace-<workload>-<seed>.json`.

use std::process::ExitCode;
use tm_benchmark::{fleet, serve, table2, RunArgs};
use tm_testkit::json::Json;

const USAGE: &str =
    "usage: tm-benchmark --workload table2|serve|fleet --seed N --seconds S --trace 0|1 \
                     [--rates R1,R2,...] [--ref-rate R] [--tail-limit-ms L]";

struct Cli {
    workload: String,
    run: RunArgs,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rates = Vec::new();
    let mut ref_rate = None;
    let mut tail_limit_ms = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => seconds = Some(num(value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--rates" => rates = value.split(',').map(num).collect::<Result<_, _>>()?,
            "--ref-rate" => ref_rate = Some(num(value)?),
            "--tail-limit-ms" => tail_limit_ms = Some(num(value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            rates,
            ref_rate: ref_rate.unwrap_or(f64::NAN),
            tail_limit_ms: tail_limit_ms.unwrap_or(f64::NAN),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("tm-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match cli.workload.as_str() {
        "table2" => table2::run(&cli.run),
        "serve" => serve::run(&cli.run),
        "fleet" => fleet::run(&cli.run),
        other => {
            eprintln!("tm-benchmark: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(tracer) = &outcome.tracer {
        let path = format!(
            "{}/out/trace-{}-{}.json",
            env!("CARGO_MANIFEST_DIR"),
            cli.workload,
            cli.run.seed
        );
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json().render()));
        match written {
            Ok(()) => eprintln!(
                "tm-benchmark: wrote {} spans to {path}",
                tracer.spans().len()
            ),
            Err(e) => outcome.check(Err(format!("cannot write the trace to {path}: {e}"))),
        }
    }

    let result = match outcome.result_json(cli.run.trace) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("tm-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let detail = Json::obj([
        ("workload", Json::str(cli.workload.clone())),
        ("seed", Json::Num(cli.run.seed as f64)),
        ("trace", Json::Bool(cli.run.trace)),
        (
            "gate",
            outcome
                .gate
                .as_ref()
                .map_or_else(|e| Json::str(e.clone()), |()| Json::str("ok")),
        ),
        (
            "detail",
            Json::Obj(
                outcome
                    .detail
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", detail.render());
    println!("{}", result.render());
    if result.get("correct") == Some(&Json::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tm-benchmark: correctness gate failed: {}",
            outcome.gate.err().unwrap_or_else(|| format!(
                "{} of {} operations failed",
                outcome.failed, outcome.attempted
            ))
        );
        ExitCode::FAILURE
    }
}
