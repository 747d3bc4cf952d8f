//! Order-free retargeting: a warm engine must answer every target
//! exactly as a fresh one would, whatever targets it served before.
//!
//! A seeded property over generated netlists drives random Δ_y ladders
//! — repeats, ascents and descents in any mix, with a `gc()` partway
//! through — through one long-lived [`Session`] (the type the serving
//! pool holds), for every algorithm. A second property interleaves all
//! four algorithms on one session, the shape of the serial `table1`
//! run. Each point's [`Bdd::export`] encodings must equal those of a
//! cold [`spcf_with`] run on a fresh manager.

use std::sync::Arc;
use tm_logic::bdd::PortableBdd;
use tm_logic::Bdd;
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::lsi10k_like;
use tm_netlist::NetId;
use tm_resilience::Budget;
use tm_netlist::Netlist;
use tm_spcf::{spcf_with, Algorithm, Session, SpcfOptions, SpcfSet};
use tm_sta::Sta;
use tm_testkit::prop::{check, Config, Gen};

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::ShortPath,
    Algorithm::PathBased,
    Algorithm::NodeBased,
    Algorithm::Conservative,
];

/// Target fractions of Δ a ladder draws from; few enough that random
/// ladders revisit points.
const FRACTIONS: [f64; 6] = [0.95, 0.9, 0.8, 0.7, 0.6, 0.5];

#[derive(Debug)]
struct Case {
    seed: u64,
    inputs: usize,
    outputs: usize,
    gates: usize,
    algorithm: Algorithm,
    ladder: Vec<f64>,
    /// The session is collected after this many ladder points.
    gc_after: usize,
}

fn gen_case(g: &mut Gen) -> Case {
    let len = g.gen_range(3usize..=7);
    Case {
        seed: g.gen_range(0u64..1 << 32),
        inputs: g.gen_range(6usize..=10),
        outputs: g.gen_range(1usize..=3),
        gates: g.gen_range(14usize..=36),
        algorithm: ALGORITHMS[g.gen_range(0..ALGORITHMS.len())],
        ladder: (0..len).map(|_| FRACTIONS[g.gen_range(0..FRACTIONS.len())]).collect(),
        gc_after: g.gen_range(1..len),
    }
}

fn exports(set: &SpcfSet, bdd: &Bdd) -> Vec<(NetId, PortableBdd)> {
    set.outputs.iter().map(|o| (o.output, bdd.export(o.spcf))).collect()
}

/// The exports of a cold `algorithm` run at `target` on a fresh manager.
fn cold_exports(
    nl: &Netlist,
    sta: &Sta<'_>,
    algorithm: Algorithm,
    target: tm_netlist::Delay,
) -> Vec<(NetId, PortableBdd)> {
    let mut bdd = Bdd::new(nl.inputs().len());
    let cold = spcf_with(algorithm, nl, sta, &mut bdd, target, &SpcfOptions::default());
    exports(&cold, &bdd)
}

fn case_netlist(lib: &Arc<tm_netlist::Library>, case: &Case) -> Arc<Netlist> {
    let mut spec = GeneratorSpec::sized("order_free", case.inputs, case.outputs, case.gates);
    spec.seed = case.seed;
    Arc::new(generate(&spec, Arc::clone(lib)))
}

#[test]
fn warm_sessions_match_cold_runs_on_any_ladder() {
    let lib = Arc::new(lsi10k_like());
    check("order_free_retarget", &Config::with_cases(40), gen_case, |case| {
        let nl = case_netlist(&lib, case);
        let sta = Sta::new(&nl);
        let delta = sta.critical_path_delay();
        let mut session = Session::new(Arc::clone(&nl));
        for (k, &frac) in case.ladder.iter().enumerate() {
            if k == case.gc_after {
                session.gc();
            }
            let target = delta * frac;
            let set = session
                .compute(case.algorithm, target, Budget::unlimited())
                .map_err(|e| format!("unlimited compute exhausted: {e}"))?;
            if exports(&set, session.bdd()) != cold_exports(&nl, &sta, case.algorithm, target) {
                return Err(format!("Session diverged from cold at point {k} ({frac})"));
            }
        }
        Ok(())
    });
}

/// All four algorithms interleaved on one session — one engine slot
/// each over one shared manager, as the serial `table1` path runs them
/// — with a `gc()` partway, against cold exports. The case's own
/// algorithm is ignored; each ladder point is served by every engine.
#[test]
fn interleaved_algorithms_on_one_session_match_cold_runs() {
    let lib = Arc::new(lsi10k_like());
    check("order_free_interleaved", &Config::with_cases(20), gen_case, |case| {
        let nl = case_netlist(&lib, case);
        let sta = Sta::new(&nl);
        let delta = sta.critical_path_delay();
        let mut session = Session::new(Arc::clone(&nl));
        for (k, &frac) in case.ladder.iter().enumerate() {
            if k == case.gc_after {
                session.gc();
            }
            let target = delta * frac;
            // Rotate the start so every algorithm runs first somewhere.
            for i in 0..ALGORITHMS.len() {
                let algorithm = ALGORITHMS[(k + i) % ALGORITHMS.len()];
                let set = session
                    .compute(algorithm, target, Budget::unlimited())
                    .map_err(|e| format!("unlimited compute exhausted: {e}"))?;
                if exports(&set, session.bdd()) != cold_exports(&nl, &sta, algorithm, target) {
                    return Err(format!(
                        "{algorithm:?} diverged from cold at point {k} ({frac})"
                    ));
                }
            }
        }
        Ok(())
    });
}
