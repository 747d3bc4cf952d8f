//! Every correctness gate can fail: each test runs a workload's real
//! flow on a small input, checks that the gate passes, then feeds it one
//! corrupted output and checks that the gate rejects it.

use std::sync::Arc;
use std::time::Duration;
use tm_benchmark::serve::{check_response, check_rung, references, Corpus, Kind};
use tm_benchmark::{fleet, table2, END_TO_END, PER_LAYER};
use tm_masking::{synthesize, MaskingOptions};
use tm_netlist::library::lsi10k_like;
use tm_netlist::suites::smoke_suite;
use tm_server::{ServeConfig, ServeCore};
use tm_testkit::json::Json;

#[test]
fn table2_gate_rejects_a_corrupted_mask() {
    let entry = smoke_suite()
        .into_iter()
        .find(|e| e.name == "cmb")
        .expect("cmb");
    let nl = entry.build(Arc::new(lsi10k_like()));

    let mut good = synthesize(&nl, MaskingOptions::default());
    let row = table2::flow_row(&mut good);
    assert!(row.protected, "the test circuit must need masking");
    table2::check_row(&row).expect("the real flow passes the gate");

    // Corrupt the synthesized design: every MUX select reads the
    // prediction instead of the error indicator.
    let mut bad = synthesize(&nl, MaskingOptions::default());
    for p in &mut bad.design.protected {
        std::mem::swap(&mut p.e, &mut p.ytilde);
    }
    let row = table2::flow_row(&mut bad);
    let err = table2::check_row(&row).expect_err("a corrupted mask must fail the gate");
    assert!(err.contains("cmb"), "{err}");
}

#[test]
fn table2_gate_rejects_partial_coverage() {
    let row = table2::FlowRow {
        circuit: "c".into(),
        protected: true,
        area_pct: 10.0,
        critical_patterns: 4.0,
        coverage: 0.75,
        verified: true,
    };
    assert!(table2::check_row(&row).is_err());
}

#[test]
fn serve_gate_rejects_a_corrupted_response() {
    let corpus = Corpus::new(3);
    let refs = references(&corpus);
    for (i, r) in refs.iter().enumerate() {
        check_rung(corpus.kinds[i], r).expect("serial references are exact");
    }

    // A real served response matches its reference byte for byte.
    let core = Arc::new(ServeCore::new(ServeConfig::for_workers(2)));
    let server = tm_server::serve(core, "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let hot = corpus
        .kinds
        .iter()
        .position(|&k| k == Kind::Hot)
        .expect("hot payload");
    let mask = corpus
        .kinds
        .iter()
        .position(|&k| k == Kind::Mask)
        .expect("mask payload");
    let served = tm_client::request(&addr, &corpus.payloads[hot], Duration::from_secs(30))
        .expect("served")
        .raw;
    let masked = tm_client::request(&addr, &corpus.payloads[mask], Duration::from_secs(30))
        .expect("served")
        .raw;
    server.shutdown();
    check_response(Kind::Hot, &served, &refs[hot]).expect("served spcf response passes");
    check_response(Kind::Mask, &masked, &refs[mask]).expect("served mask response passes");

    // One flipped byte fails the byte-identity check.
    let mut corrupted = served.clone();
    let frame = &mut corrupted[0];
    let at = frame.find("\"target\":").expect("report has a target") + "\"target\":".len();
    let digit = if frame.as_bytes()[at] == b'9' {
        "8"
    } else {
        "9"
    };
    frame.replace_range(at..at + 1, digit);
    assert!(check_response(Kind::Hot, &corrupted, &refs[hot]).is_err());
}

#[test]
fn serve_gate_rejects_a_degraded_rung() {
    let corpus = Corpus::new(3);
    let refs = references(&corpus);
    let hot = corpus
        .kinds
        .iter()
        .position(|&k| k == Kind::Hot)
        .expect("hot payload");
    // A node-based answer is rejected even when the reference was
    // degraded the same way.
    let degraded: Vec<String> = refs[hot]
        .iter()
        .map(|f| f.replace("short-path-based", "node-based"))
        .collect();
    let err = check_response(Kind::Hot, &degraded, &degraded).expect_err("wrong rung");
    assert!(err.contains("rung"), "{err}");

    let mask = corpus
        .kinds
        .iter()
        .position(|&k| k == Kind::Mask)
        .expect("mask payload");
    let degraded: Vec<String> = refs[mask]
        .iter()
        .map(|f| f.replace("\"exact\"", "\"node_based\""))
        .collect();
    assert!(check_response(Kind::Mask, &degraded, &degraded).is_err());
}

#[test]
fn fleet_gate_rejects_a_corrupted_aggregate() {
    let (design, _) = fleet::design();
    let config = tm_fleet::FleetConfig {
        epochs: 3,
        cycles_per_epoch: 4,
        ..fleet::config(9)
    };
    let (packed, scalar) = fleet::replay_cohort(&design, &config).expect("cohort replays");
    fleet::check_kernels(&packed, &scalar).expect("packed and scalar kernels agree");

    let mut corrupted = packed.clone();
    corrupted[1].detected += 1;
    let err =
        fleet::check_kernels(&corrupted, &scalar).expect_err("a corrupted aggregate must fail");
    assert!(err.contains("epoch 1"), "{err}");
    assert!(
        fleet::check_kernels(&packed[..2], &scalar).is_err(),
        "a missing epoch must fail"
    );
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("metric field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), expect(&END_TO_END));
    assert_eq!(declared("per_layer"), expect(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, ["serve", "fleet"]);
}
