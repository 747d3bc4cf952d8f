//! Order-free retargeting: a warm engine must answer every target
//! exactly as a fresh one would, whatever targets it served before.
//!
//! A seeded property over generated netlists drives random Δ_y ladders
//! — repeats, ascents and descents in any mix, with a `gc()` partway
//! through — through both long-lived session types, the borrow-based
//! [`WarmSession`] and the serving pool's [`PooledSession`], for every
//! algorithm. Each point's [`Bdd::export`] encodings must equal those
//! of a cold [`spcf_with`] run on a fresh manager.

use std::sync::Arc;
use tm_logic::bdd::PortableBdd;
use tm_logic::Bdd;
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::lsi10k_like;
use tm_netlist::NetId;
use tm_resilience::Budget;
use tm_server::pool::PooledSession;
use tm_spcf::{spcf_with, Algorithm, SpcfOptions, SpcfSet, WarmSession};
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
    /// Both sessions are collected after this many ladder points.
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

#[test]
fn warm_sessions_match_cold_runs_on_any_ladder() {
    let lib = Arc::new(lsi10k_like());
    check("order_free_retarget", &Config::with_cases(40), gen_case, |case| {
        let mut spec = GeneratorSpec::sized("order_free", case.inputs, case.outputs, case.gates);
        spec.seed = case.seed;
        let nl = Arc::new(generate(&spec, Arc::clone(&lib)));
        let sta = Sta::new(&nl);
        let delta = sta.critical_path_delay();

        let mut warm_bdd = Bdd::new(nl.inputs().len());
        let mut warm =
            WarmSession::new(case.algorithm, &nl, &sta, &mut warm_bdd, Budget::unlimited());
        let mut pooled = PooledSession::from_netlist(Arc::clone(&nl));
        for (k, &frac) in case.ladder.iter().enumerate() {
            if k == case.gc_after {
                warm.gc();
                pooled.gc();
            }
            let target = delta * frac;
            let mut cold_bdd = Bdd::new(nl.inputs().len());
            let cold = spcf_with(
                case.algorithm,
                &nl,
                &sta,
                &mut cold_bdd,
                target,
                &SpcfOptions::default(),
            );
            let cold = exports(&cold, &cold_bdd);

            let set = warm.retarget(target);
            if exports(&set, warm.bdd()) != cold {
                return Err(format!("WarmSession diverged from cold at point {k} ({frac})"));
            }
            let set = pooled
                .compute(case.algorithm, target, Budget::unlimited())
                .map_err(|e| format!("unlimited pooled compute exhausted: {e}"))?;
            if exports(&set, pooled.bdd()) != cold {
                return Err(format!("PooledSession diverged from cold at point {k} ({frac})"));
            }
        }
        Ok(())
    });
}
