//! `table2`: the paper's §4.1 flow on the 20 Table 2 circuits.
//!
//! Each circuit runs `synthesize` then `verify` at Δ_y = 0.9Δ, serially,
//! in suite order. The inputs are the fixed Table 2 stand-ins, so the
//! seed changes nothing here. The order is fixed too: permuting it moved
//! mid-size circuits' times by up to a third on a shared 2-vCPU host,
//! through the allocator and cache state the previous circuit leaves.
//! Passes over the whole suite repeat until the run's time is up.
//!
//! The traced run replays each stage `synthesize` performs through that
//! layer's public call — `Sta::new`, `try_spcf_with(ShortPath)`,
//! `extract`, `SopNetwork::global_bdds`, and `qm::minimize` on every
//! extracted node's on-set and off-set — beside timed `synthesize` and
//! `verify` calls, so the split of the flow is measured from outside
//! the program.

use crate::stats::{self, Envelope};
use crate::trace::Tracer;
use crate::{overhead_pct, peak_rss_mb, repeated_setup, Outcome, RunArgs};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tm_logic::{qm, Bdd, TruthTable};
use tm_masking::{synthesize, verify, MaskingOptions, MaskingResult};
use tm_netlist::extract::extract;
use tm_netlist::library::lsi10k_like;
use tm_netlist::suites::table2_suite;
use tm_netlist::Netlist;
use tm_spcf::{try_spcf_with, Algorithm, SpcfOptions};
use tm_sta::Sta;
use tm_testkit::json::Json;

/// Builds the 20 Table 2 stand-in netlists.
pub fn build_suite() -> Vec<Netlist> {
    let lib = Arc::new(lsi10k_like());
    table2_suite()
        .iter()
        .map(|entry| entry.build(Arc::clone(&lib)))
        .collect()
}

/// What one circuit's flow produced, as the gate and the metrics see it.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRow {
    /// Circuit name.
    pub circuit: String,
    /// The flow protected at least one output.
    pub protected: bool,
    /// Area overhead of the masking logic, percent.
    pub area_pct: f64,
    /// Critical-pattern count of the SPCF it protected.
    pub critical_patterns: f64,
    /// Masking coverage from `verify` (1.0 = every speed-path pattern).
    pub coverage: f64,
    /// Every exact `verify` check passed.
    pub verified: bool,
}

/// Verifies a synthesis result and collects its row.
pub fn flow_row(result: &mut MaskingResult) -> FlowRow {
    let verdict = verify(result);
    let r = &result.report;
    FlowRow {
        circuit: r.circuit.clone(),
        protected: r.critical_outputs > 0,
        area_pct: r.area_overhead_percent,
        critical_patterns: r.critical_patterns,
        coverage: verdict.coverage(),
        verified: verdict.all_ok(),
    }
}

/// The `table2` gate on one circuit: `verify` must pass and masking
/// coverage must be exactly 1.0.
pub fn check_row(row: &FlowRow) -> Result<(), String> {
    if !row.verified {
        return Err(format!("{}: verify failed", row.circuit));
    }
    if row.coverage != 1.0 {
        return Err(format!(
            "{}: masking coverage {} is not 1.0",
            row.circuit, row.coverage
        ));
    }
    Ok(())
}

/// Table 2's mean area overhead over the protected circuits.
pub fn mean_area_pct(rows: &[FlowRow]) -> f64 {
    let protected: Vec<f64> = rows
        .iter()
        .filter(|r| r.protected)
        .map(|r| r.area_pct)
        .collect();
    protected.iter().sum::<f64>() / protected.len().max(1) as f64
}

/// Untraced timings of whole passes.
struct Passes {
    /// Per circuit (suite index): flow seconds of each pass.
    per_circuit: Vec<Vec<f64>>,
    /// Wall seconds of each pass.
    pass_wall: Vec<f64>,
    /// Per circuit: the row of the first pass.
    rows: Vec<FlowRow>,
}

/// Runs whole passes (at least one) until `seconds` have elapsed,
/// gating every circuit and checking that every pass reproduces the
/// first one's rows exactly.
fn measure(suite: &[Netlist], seconds: f64, outcome: &mut Outcome) -> Passes {
    let mut per_circuit = vec![Vec::new(); suite.len()];
    let mut first: Vec<Option<FlowRow>> = vec![None; suite.len()];
    let mut pass_wall = Vec::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        for (i, nl) in suite.iter().enumerate() {
            let t = Instant::now();
            let mut result = synthesize(nl, MaskingOptions::default());
            let row = flow_row(&mut result);
            per_circuit[i].push(t.elapsed().as_secs_f64());
            outcome.attempted += 1;
            if let Err(e) = check_row(&row) {
                outcome.failed += 1;
                outcome.check(Err(e));
            }
            match &first[i] {
                None => first[i] = Some(row),
                Some(prev) if *prev != row => outcome.check(Err(format!(
                    "{}: a repeated pass changed the result ({prev:?} then {row:?})",
                    row.circuit
                ))),
                Some(_) => {}
            }
        }
        pass_wall.push(pass_start.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let rows = first
        .into_iter()
        .map(|r| r.expect("every circuit ran"))
        .collect();
    Passes {
        per_circuit,
        pass_wall,
        rows,
    }
}

/// Runs the `table2` workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let (setup_s, suite) = repeated_setup(5, build_suite);
    // The traced run needs one untraced pass as its overhead baseline.
    let passes = measure(
        &suite,
        if args.trace { 0.0 } else { args.seconds },
        &mut outcome,
    );

    // Each circuit's fastest pass: on a shared machine a slow stretch
    // only ever adds time, so the fastest of several passes is the
    // steadiest estimate of the flow's own cost. The flow wall is their
    // sum.
    let circuit_s: Vec<f64> = passes
        .per_circuit
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let mut sorted = circuit_s.clone();
    sorted.sort_by(f64::total_cmp);
    // Twenty heterogeneous circuits are too few for the ten-beyond tail
    // rule, so the tail here is the slowest circuit.
    let env = Envelope {
        min: sorted[0],
        p50: stats::median(&sorted),
        tail: sorted[sorted.len() - 1],
        max: sorted[sorted.len() - 1],
    };
    outcome.check(env.validate());
    let flow_wall_s: f64 = circuit_s.iter().sum();
    let area = mean_area_pct(&passes.rows);
    let slowest = circuit_s
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    outcome.detail = vec![
        ("flow_wall_s", Json::Num(flow_wall_s)),
        ("flow_max_circuit_s", Json::Num(env.max)),
        (
            "slowest_circuit",
            Json::str(passes.rows[slowest].circuit.clone()),
        ),
        ("area_overhead_pct", Json::Num(area)),
        ("passes", Json::Num(passes.pass_wall.len() as f64)),
        (
            "pass_wall_s",
            Json::Arr(passes.pass_wall.iter().map(|&w| Json::Num(w)).collect()),
        ),
        ("circuits", Json::Num(suite.len() as f64)),
    ];

    if args.trace {
        let untraced_flow: f64 = passes.per_circuit.iter().map(|t| t[0]).sum();
        let mut tr = Tracer::new(Instant::now(), 0);
        let layers = traced_flow(&suite, 0, &mut tr, &mut outcome);
        outcome.per_layer = layers.metrics();
        outcome.per_layer.push((
            "trace_overhead_pct",
            overhead_pct(layers.flow_s(), untraced_flow),
        ));
        outcome.detail.extend(layers.shares());
        outcome.tracer = Some(tr);
        return outcome;
    }
    let ok = outcome.attempted - outcome.failed;
    outcome.end_to_end = vec![
        ("setup_s", setup_s),
        ("ok_frac", ok as f64 / outcome.attempted as f64),
        ("p50_ms", env.p50 * 1e3),
        ("tail_ms", env.tail * 1e3),
        ("throughput_per_s", suite.len() as f64 / flow_wall_s),
        ("area_overhead_pct", area),
    ];
    match peak_rss_mb() {
        Ok(mb) => outcome.end_to_end.push(("peak_rss_mb", mb)),
        Err(e) => outcome.check(Err(e)),
    }
    outcome
}

/// Per-layer totals of a traced flow.
#[derive(Default)]
pub struct Layers {
    sta: Duration,
    spcf: Duration,
    bdd_nodes: usize,
    extract: Duration,
    extract_nodes: usize,
    global_bdds: Duration,
    qm: Duration,
    qm_calls: usize,
    synthesize: Duration,
    verify: Duration,
    synth_rest: f64,
}

impl Layers {
    /// Seconds in `synthesize` plus `verify`: the flow itself.
    pub fn flow_s(&self) -> f64 {
        (self.synthesize + self.verify).as_secs_f64()
    }

    /// The flow's per-layer metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("netlist.extract_s", self.extract.as_secs_f64()),
            ("netlist.extract_nodes", self.extract_nodes as f64),
            ("logic.qm_s", self.qm.as_secs_f64()),
            ("logic.qm_calls", self.qm_calls as f64),
            ("netlist.global_bdds_s", self.global_bdds.as_secs_f64()),
            ("sta.analyse_s", self.sta.as_secs_f64()),
            ("core.verify_s", self.verify.as_secs_f64()),
            ("core.synth_rest_s", self.synth_rest),
            ("spcf.short_path_s", self.spcf.as_secs_f64()),
            ("bdd.nodes", self.bdd_nodes as f64),
        ]
    }

    /// Shares of the flow spent in extraction and in short-path SPCF,
    /// percent, for the detail line.
    pub fn shares(&self) -> [(&'static str, Json); 3] {
        let flow = self.flow_s();
        [
            ("traced_flow_wall_s", Json::Num(flow)),
            (
                "extract_share_pct",
                Json::Num(100.0 * self.extract.as_secs_f64() / flow),
            ),
            (
                "spcf_share_pct",
                Json::Num(100.0 * self.spcf.as_secs_f64() / flow),
            ),
        ]
    }
}

/// The §4.1 flow on every circuit with each stage `synthesize` performs
/// replayed through its layer's public call, beside timed `synthesize`
/// and `verify` calls. Every call runs inside a span whose id is
/// `id_base` plus the circuit's index; every circuit is gated.
pub fn traced_flow(
    circuits: &[Netlist],
    id_base: u64,
    tr: &mut Tracer,
    outcome: &mut Outcome,
) -> Layers {
    let mut l = Layers::default();
    let options = MaskingOptions::default();
    for (i, nl) in circuits.iter().enumerate() {
        let id = id_base + i as u64;
        let root = tr.open("flow.circuit", id, None);

        let (sta, t_sta) = tr.time("sta.analyse", id, Some(root), || Sta::new(nl));
        let target = sta.critical_path_delay() * options.target_fraction;
        let mut bdd = Bdd::new(nl.inputs().len().max(1));
        let (spcf, t_spcf) = tr.time("spcf.short_path", id, Some(root), || {
            try_spcf_with(
                Algorithm::ShortPath,
                nl,
                &sta,
                &mut bdd,
                target,
                &SpcfOptions::default(),
            )
        });
        l.bdd_nodes += bdd.node_count();
        let protected = match &spcf {
            Ok(set) => set.outputs.iter().any(|o| o.spcf != bdd.zero()),
            Err(e) => {
                outcome.check(Err(format!("{}: short-path SPCF failed: {e}", nl.name())));
                false
            }
        };
        // `synthesize` extracts and builds global BDDs only when some
        // output needs protection; the replay does the same.
        let (mut t_extract, mut t_globals) = (Duration::ZERO, Duration::ZERO);
        if protected {
            let (tin, t) = tr.time("netlist.extract", id, Some(root), || {
                extract(nl, options.extract)
            });
            t_extract = t;
            l.extract_nodes += tin.num_nodes();
            (_, t_globals) = tr.time("netlist.global_bdds", id, Some(root), || {
                tin.global_bdds(&mut bdd)
            });
            let phases: Vec<(TruthTable, TruthTable)> = tin
                .node_sigs()
                .into_iter()
                .filter_map(|sig| tin.node_of(sig))
                .map(|node| {
                    let on = node.truth_table();
                    (!&on, on)
                })
                .collect();
            let qm_span = tr.open("logic.qm", id, Some(root));
            for (off, on) in &phases {
                let zero = TruthTable::zero(on.num_vars());
                std::hint::black_box(qm::minimize(on, &zero));
                std::hint::black_box(qm::minimize(off, &zero));
                l.qm_calls += 2;
            }
            l.qm += tr.close(qm_span);
        }

        let (mut result, t_synth) = tr.time("core.synthesize", id, Some(root), || {
            synthesize(nl, options)
        });
        let (row, t_verify) = tr.time("core.verify", id, Some(root), || flow_row(&mut result));
        tr.close(root);
        outcome.attempted += 1;
        if let Err(e) = check_row(&row) {
            outcome.failed += 1;
            outcome.check(Err(e));
        }
        l.sta += t_sta;
        l.spcf += t_spcf;
        l.extract += t_extract;
        l.global_bdds += t_globals;
        l.synthesize += t_synth;
        l.verify += t_verify;
        l.synth_rest += (t_synth.as_secs_f64()
            - (t_sta + t_spcf + t_extract + t_globals).as_secs_f64())
        .max(0.0);
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_area_skips_unprotected_rows() {
        let row = |protected, area_pct| FlowRow {
            circuit: "c".into(),
            protected,
            area_pct,
            critical_patterns: 1.0,
            coverage: 1.0,
            verified: true,
        };
        assert_eq!(
            mean_area_pct(&[row(true, 10.0), row(false, 0.0), row(true, 30.0)]),
            20.0
        );
    }
}
