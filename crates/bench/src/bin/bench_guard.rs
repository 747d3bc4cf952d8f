//! Regression guard comparing a fresh micro-bench report against the
//! committed perf-trajectory baseline, and the tool that writes that
//! baseline's noise envelope.
//!
//! ```text
//! bench_guard --fresh target/tm-bench/bdd_ops.json \
//!             --baseline BENCH_bdd.json [--tolerance-pct 2]
//! bench_guard --write-envelope BENCH_bdd.json --fresh run1.json --fresh run2.json ...
//! ```
//!
//! The baseline file holds the perf trajectory: `{"group": ...,
//! "entries": [<report>, ...]}`. The guard first checks every entry's
//! statistics (`min ≤ median ≤ p95 ≤ max` per bench id) and rejects a
//! baseline that breaks them. It then picks the **last** entry whose
//! `meta` matches the fresh report's (same `variant`, same `smoke`
//! shape) and asserts every shared bench id's fresh median is within
//! `--tolerance-pct` of the baseline: of the entry's `max_median_ns`
//! when it has one, else of its `median_ns`. CI uses this as the
//! dormant-overhead gate: the dormant recorder's `recording()` checks
//! ride every BDD hot-core kernel, so a fresh `bdd_ops` smoke run
//! drifting more than 2 % above the committed medians means the
//! instrumentation stopped being free.
//!
//! `--write-envelope OUT` folds N fresh reports of one group and meta
//! shape into one envelope entry (`meta.envelope: 1`, `meta.runs: N`):
//! per bench id the minimum of the runs' minima, the median of their
//! medians, the maximum of their p95s and maxima, and the maximum of
//! their medians as `max_median_ns` — the run-to-run noise on shared
//! hardware, which routinely exceeds a tight tolerance. The entry
//! replaces the last entry of `OUT` with the same meta shape (or is
//! appended; `OUT` is created if missing), so the rest of the
//! trajectory is kept. `scripts/bench_envelope.sh` runs a bench N times
//! and calls this mode.
//!
//! Exit status: 0 within tolerance (or envelope written), 1 regression
//! or malformed input, 2 usage. Callers are expected to retry a failing
//! comparison a couple of times before believing it.

use tm_testkit::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: bench_guard --fresh FILE --baseline FILE [--tolerance-pct N]\n       \
         bench_guard --write-envelope OUT --fresh FILE [--fresh FILE ...]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_guard: {msg}");
    std::process::exit(1);
}

fn read_json(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not JSON: {e}")))
}

/// The `results` rows of one report or baseline entry.
fn results(report: &Json) -> &[Json] {
    report.get("results").and_then(Json::as_arr).unwrap_or(&[])
}

fn num(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_num)
}

fn id(row: &Json) -> Option<&str> {
    row.get("id").and_then(Json::as_str)
}

fn meta_num(report: &Json, key: &str) -> f64 {
    report.get("meta").and_then(|m| m.get(key)).and_then(Json::as_num).unwrap_or(0.0)
}

/// Whether two reports have the meta shape the guard matches on.
fn same_shape(a: &Json, b: &Json) -> bool {
    meta_num(a, "variant") == meta_num(b, "variant") && meta_num(a, "smoke") == meta_num(b, "smoke")
}

/// Every statistic in `entry` that breaks `min ≤ median ≤ p95 ≤ max`
/// (and, for envelopes, `median ≤ max_median ≤ max`), one message each.
fn entry_violations(entry: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    for row in results(entry) {
        let name = id(row).unwrap_or("<no id>");
        let stats: Option<Vec<f64>> =
            ["min_ns", "median_ns", "p95_ns", "max_ns"].iter().map(|k| num(row, k)).collect();
        let Some(s) = stats else {
            errs.push(format!("{name}: missing min/median/p95/max"));
            continue;
        };
        let (min, median, p95, max) = (s[0], s[1], s[2], s[3]);
        if !(min <= median && median <= p95 && p95 <= max) {
            errs.push(format!(
                "{name}: needs min <= median <= p95 <= max, has {min} / {median} / {p95} / {max}"
            ));
        }
        if let Some(mm) = num(row, "max_median_ns") {
            if !(median <= mm && mm <= max) {
                errs.push(format!(
                    "{name}: needs median <= max_median <= max, has {median} / {mm} / {max}"
                ));
            }
        }
    }
    errs
}

/// The median a fresh run is held to: the envelope's max-of-medians
/// when the entry has one, else its median.
fn baseline_median(row: &Json) -> Option<f64> {
    num(row, "max_median_ns").or_else(|| num(row, "median_ns"))
}

/// Folds fresh reports of one group and meta shape into one envelope
/// entry (see the module docs).
fn envelope(runs: &[Json]) -> Result<Json, String> {
    let first = runs.first().ok_or("an envelope needs at least one run")?;
    let group = first.get("group").and_then(Json::as_str).ok_or("run has no group")?;
    for (i, run) in runs.iter().enumerate() {
        if run.get("group").and_then(Json::as_str) != Some(group) || !same_shape(run, first) {
            return Err(format!("run {i} differs from run 0 in group, variant or smoke"));
        }
        let errs = entry_violations(run);
        if !errs.is_empty() {
            return Err(format!("run {i}: {}", errs.join("; ")));
        }
    }
    let mut rows = Vec::new();
    for row in results(first) {
        let name = id(row).ok_or("result without id")?;
        let mut stats: Vec<[f64; 4]> = Vec::with_capacity(runs.len());
        for (i, run) in runs.iter().enumerate() {
            let r = results(run)
                .iter()
                .find(|r| id(r) == Some(name))
                .ok_or_else(|| format!("run {i} has no result {name}"))?;
            let get = |k| num(r, k).ok_or_else(|| format!("run {i}: {name} has no {k}"));
            stats.push([get("min_ns")?, get("median_ns")?, get("p95_ns")?, get("max_ns")?]);
        }
        let col = |k: usize| stats.iter().map(move |s| s[k]);
        let mut medians: Vec<f64> = col(1).collect();
        medians.sort_by(f64::total_cmp);
        let mid = medians.len() / 2;
        let median = if medians.len() % 2 == 1 {
            medians[mid]
        } else {
            (medians[mid - 1] + medians[mid]) / 2.0
        };
        let max_of = |k: usize| col(k).fold(f64::NEG_INFINITY, f64::max);
        rows.push(Json::obj([
            ("id", Json::str(name)),
            ("samples", num(row, "samples").map_or(Json::Null, Json::Num)),
            ("runs", Json::Num(runs.len() as f64)),
            ("min_ns", Json::Num(col(0).fold(f64::INFINITY, f64::min))),
            ("median_ns", Json::Num(median)),
            ("p95_ns", Json::Num(max_of(2))),
            ("max_ns", Json::Num(max_of(3))),
            ("max_median_ns", Json::Num(max_of(1))),
        ]));
    }
    let mut meta = match first.get("meta") {
        Some(Json::Obj(members)) => members.clone(),
        _ => Vec::new(),
    };
    meta.retain(|(k, _)| k != "envelope" && k != "runs");
    meta.push(("envelope".into(), Json::Num(1.0)));
    meta.push(("runs".into(), Json::Num(runs.len() as f64)));
    Ok(Json::obj([
        ("group", Json::str(group)),
        ("meta", Json::Obj(meta)),
        ("results", Json::Arr(rows)),
    ]))
}

/// `baseline` with `entry` replacing its last entry of the same meta
/// shape, or appended; every other member is kept as it was.
fn with_entry(baseline: Option<Json>, entry: Json) -> Result<Json, String> {
    let group = entry.get("group").cloned().unwrap_or(Json::Null);
    let mut members = match baseline {
        Some(Json::Obj(members)) => members,
        Some(_) => return Err("baseline is not a JSON object".into()),
        None => vec![("group".into(), group), ("entries".into(), Json::Arr(Vec::new()))],
    };
    let Some((_, Json::Arr(entries))) = members.iter_mut().find(|(k, _)| k == "entries") else {
        return Err("baseline has no `entries` array".into());
    };
    match entries.iter().rposition(|e| same_shape(e, &entry)) {
        Some(i) => entries[i] = entry,
        None => entries.push(entry),
    }
    Ok(Json::Obj(members))
}

fn write_envelope(out: &str, fresh: &[String]) {
    let runs: Vec<Json> = fresh.iter().map(|p| read_json(p)).collect();
    let entry = envelope(&runs).unwrap_or_else(|e| fail(&e));
    let existing = std::path::Path::new(out).exists().then(|| read_json(out));
    let doc = with_entry(existing, entry).unwrap_or_else(|e| fail(&format!("{out}: {e}")));
    std::fs::write(out, doc.render() + "\n")
        .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    println!("bench_guard: wrote a {}-run envelope to {out}", runs.len());
}

fn guard(fresh_path: &str, baseline_path: &str, tolerance_pct: f64) {
    let fresh = read_json(fresh_path);
    let baseline = read_json(baseline_path);
    let entries = baseline
        .get("entries")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(&format!("{baseline_path} has no `entries` array")));
    let mut bad = false;
    for (i, entry) in entries.iter().enumerate() {
        for e in entry_violations(entry) {
            eprintln!("bench_guard: {baseline_path} entries[{i}]: {e}");
            bad = true;
        }
    }
    if bad {
        fail(&format!("{baseline_path} has inconsistent statistics; regenerate it"));
    }
    let Some(base) = entries.iter().rfind(|e| same_shape(e, &fresh)) else {
        fail(&format!(
            "no baseline entry matches variant={} smoke={}; commit one first",
            meta_num(&fresh, "variant"),
            meta_num(&fresh, "smoke")
        ));
    };

    let mut compared = 0usize;
    let mut failed = false;
    println!(
        "{:<24} {:>14} {:>14} {:>9}  (tolerance +{tolerance_pct}%)",
        "bench", "baseline_ns", "fresh_ns", "delta"
    );
    for row in results(&fresh) {
        let (Some(name), Some(fresh_median)) = (id(row), num(row, "median_ns")) else {
            continue;
        };
        let Some(base_median) =
            results(base).iter().find(|b| id(b) == Some(name)).and_then(baseline_median)
        else {
            continue; // new bench: nothing to regress against
        };
        compared += 1;
        let delta_pct = (fresh_median - base_median) / base_median * 100.0;
        let over = fresh_median > base_median * (1.0 + tolerance_pct / 100.0);
        println!(
            "{:<24} {:>14.0} {:>14.0} {:>+8.2}%{}",
            name,
            base_median,
            fresh_median,
            delta_pct,
            if over { "  REGRESSION" } else { "" }
        );
        failed |= over;
    }
    if compared == 0 {
        fail("no shared bench ids between fresh report and baseline");
    }
    if failed {
        fail(&format!(
            "fresh medians exceed the committed baseline by more than {tolerance_pct}% — \
             dormant tracing is no longer free (or the machine is noisy; rerun before \
             believing this)"
        ));
    }
    println!("bench_guard: {compared} benches within +{tolerance_pct}% of baseline");
}

fn main() {
    let mut fresh: Vec<String> = Vec::new();
    let mut baseline: Option<String> = None;
    let mut envelope_out: Option<String> = None;
    let mut tolerance_pct = 2.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fresh" => fresh.push(args.next().unwrap_or_else(|| usage())),
            "--baseline" => baseline = args.next(),
            "--write-envelope" => envelope_out = args.next(),
            "--tolerance-pct" => {
                tolerance_pct =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    match (envelope_out, baseline) {
        (Some(out), None) if !fresh.is_empty() => write_envelope(&out, &fresh),
        (None, Some(baseline)) if fresh.len() == 1 => guard(&fresh[0], &baseline, tolerance_pct),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(variant: f64, rows: &[(&str, [f64; 4])]) -> Json {
        let rows = rows.iter().map(|(id, s)| {
            Json::obj([
                ("id", Json::str(*id)),
                ("samples", Json::Num(10.0)),
                ("min_ns", Json::Num(s[0])),
                ("median_ns", Json::Num(s[1])),
                ("p95_ns", Json::Num(s[2])),
                ("max_ns", Json::Num(s[3])),
            ])
        });
        Json::obj([
            ("group", Json::str("g")),
            ("meta", Json::obj([("variant", Json::Num(variant)), ("smoke", Json::Num(1.0))])),
            ("results", Json::Arr(rows.collect())),
        ])
    }

    #[test]
    fn the_hand_assembled_sim_envelope_is_rejected() {
        // The `scalar/lifetime_epochs` row of the sim_kernels envelope
        // as it was assembled by hand: its median sits above a p95 that
        // equals its max.
        let entry = Json::parse(
            r#"{"group": "sim_kernels",
                "meta": {"jobs": 1, "variant": 1, "smoke": 1, "envelope": 1},
                "results": [{"id": "scalar/lifetime_epochs", "iters_per_sample": 1,
                             "samples": 10, "min_ns": 2250115, "median_ns": 3576990,
                             "p95_ns": 2468940, "max_ns": 2468940}]}"#,
        )
        .unwrap();
        let errs = entry_violations(&entry);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with("scalar/lifetime_epochs"), "{errs:?}");
    }

    #[test]
    fn consistent_entries_pass_and_max_median_is_checked() {
        assert!(entry_violations(&report(1.0, &[("a", [1.0, 2.0, 3.0, 4.0])])).is_empty());
        assert!(entry_violations(&report(1.0, &[("a", [1.0, 2.0, 2.0, 2.0])])).is_empty());
        assert_eq!(entry_violations(&report(1.0, &[("a", [3.0, 2.0, 3.0, 4.0])])).len(), 1);
        assert_eq!(entry_violations(&report(1.0, &[("a", [1.0, 2.0, 5.0, 4.0])])).len(), 1);
        let env = envelope(&[report(1.0, &[("a", [1.0, 2.0, 3.0, 4.0])])]).unwrap();
        assert!(entry_violations(&env).is_empty());
    }

    #[test]
    fn envelope_folds_runs_and_is_consistent() {
        let runs = [
            report(1.0, &[("a", [10.0, 12.0, 15.0, 20.0]), ("b", [5.0, 6.0, 7.0, 8.0])]),
            report(1.0, &[("a", [9.0, 14.0, 16.0, 16.0]), ("b", [4.0, 5.0, 9.0, 9.5])]),
            report(1.0, &[("a", [11.0, 13.0, 13.5, 14.0]), ("b", [6.0, 7.0, 7.0, 7.0])]),
        ];
        let env = envelope(&runs).unwrap();
        assert!(entry_violations(&env).is_empty());
        assert_eq!(meta_num(&env, "envelope"), 1.0);
        assert_eq!(meta_num(&env, "runs"), 3.0);
        assert_eq!(meta_num(&env, "variant"), 1.0);
        let a = &results(&env)[0];
        assert_eq!(id(a), Some("a"));
        assert_eq!(num(a, "min_ns"), Some(9.0));
        assert_eq!(num(a, "median_ns"), Some(13.0));
        assert_eq!(num(a, "p95_ns"), Some(16.0));
        assert_eq!(num(a, "max_ns"), Some(20.0));
        assert_eq!(num(a, "max_median_ns"), Some(14.0));
        assert_eq!(baseline_median(a), Some(14.0), "the guard holds runs to the max median");
        let b = &results(&env)[1];
        assert_eq!(num(b, "median_ns"), Some(6.0));
        assert_eq!(num(b, "max_median_ns"), Some(7.0));
    }

    #[test]
    fn envelope_rejects_mixed_or_inconsistent_runs() {
        let good = report(1.0, &[("a", [1.0, 2.0, 3.0, 4.0])]);
        assert!(envelope(&[good.clone(), report(2.0, &[("a", [1.0, 2.0, 3.0, 4.0])])]).is_err());
        assert!(envelope(&[good.clone(), report(1.0, &[("a", [1.0, 5.0, 3.0, 4.0])])]).is_err());
        assert!(envelope(&[good, report(1.0, &[("b", [1.0, 2.0, 3.0, 4.0])])]).is_err());
        assert!(envelope(&[]).is_err());
    }

    #[test]
    fn a_new_envelope_replaces_only_its_own_shape() {
        let old = Json::obj([
            ("group", Json::str("g")),
            (
                "entries",
                Json::Arr(vec![
                    report(0.0, &[("a", [1.0, 1.0, 1.0, 1.0])]),
                    report(1.0, &[("a", [2.0, 2.0, 2.0, 2.0])]),
                ]),
            ),
            ("median_speedup", Json::Num(2.0)),
        ]);
        let env = envelope(&[report(1.0, &[("a", [3.0, 3.0, 3.0, 3.0])])]).unwrap();
        let doc = with_entry(Some(old), env.clone()).unwrap();
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(meta_num(&entries[0], "variant"), 0.0);
        assert_eq!(entries[1], env);
        assert_eq!(doc.get("median_speedup").and_then(Json::as_num), Some(2.0));
        let fresh = with_entry(None, env).unwrap();
        assert_eq!(fresh.get("entries").and_then(Json::as_arr).map(|e| e.len()), Some(1));
    }
}
