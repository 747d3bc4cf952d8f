//! Offline schema checker for emitted metrics reports.
//!
//! Usage: `validate_metrics [--require-nonzero NAME]... <report.json>...`
//! — parses each file with the in-repo JSON parser and validates it
//! against the closed metric registry ([`tm_telemetry::schema`]). Each
//! `--require-nonzero NAME` additionally demands that every report
//! records counter `NAME` with a positive value (CI uses this as a
//! cache-stats sanity gate: a smoke bench that never hits the BDD
//! computed cache means the instrumentation or the cache is broken).
//! Exits nonzero listing every problem if any file is malformed, names
//! an unregistered metric, or misses a required counter.

use tm_telemetry::schema;
use tm_testkit::json::Json;

fn counter_value(report: &Json, name: &str) -> Option<f64> {
    report
        .get("counters")
        .and_then(Json::as_arr)?
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|e| e.get("value").and_then(Json::as_num))
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut required: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--require-nonzero" {
            match args.next() {
                Some(name) => required.push(name),
                None => {
                    eprintln!("--require-nonzero needs a counter name");
                    std::process::exit(2);
                }
            }
        } else {
            paths.push(arg);
        }
    }
    if paths.is_empty() {
        eprintln!("usage: validate_metrics [--require-nonzero NAME]... <report.json>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let parsed = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("{path}: invalid JSON: {e}");
                failed = true;
                continue;
            }
        };
        match schema::validate(&parsed) {
            Ok(()) => {
                let mut missing = false;
                for name in &required {
                    match counter_value(&parsed, name) {
                        Some(v) if v > 0.0 => {}
                        Some(v) => {
                            eprintln!("{path}: counter `{name}` must be nonzero, got {v}");
                            missing = true;
                        }
                        None => {
                            eprintln!("{path}: required counter `{name}` is absent");
                            missing = true;
                        }
                    }
                }
                if missing {
                    failed = true;
                    continue;
                }
                let n = |section: &str| {
                    parsed.get(section).and_then(Json::as_arr).map_or(0, <[Json]>::len)
                };
                println!(
                    "{path}: ok ({} spans, {} counters, {} gauges, {} digests)",
                    n("spans"),
                    n("counters"),
                    n("gauges"),
                    n("digests"),
                );
            }
            Err(errs) => {
                for e in &errs {
                    eprintln!("{path}: {e}");
                }
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
