//! Warm-session suite: retargeting one [`Session`] down a descending
//! Δ_y ladder must be a pure performance optimization.
//!
//! 1. **Warm == cold, bit for bit**: every ladder point of a warm
//!    session produces the same critical-output list, the same
//!    pattern counts, and byte-identical [`Bdd::export`] encodings as
//!    a cold run with a fresh manager at that target — for every
//!    engine, even though the warm manager carries the accumulated
//!    nodes and caches of every previous point.
//! 2. **Monotone containment**: for `Δ' ≥ Δ`, `Σ_y(Δ') ⊆ Σ_y(Δ)` and
//!    the critical-output set only grows as the target descends — the
//!    property the warm memo reuse relies on.
//! 3. **Budget hygiene**: a query restores the manager's previous
//!    budget when it returns, and a budget-tripped query leaves the
//!    session usable.

use std::collections::HashMap;
use std::sync::Arc;
use tm_logic::Bdd;
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::lsi10k_like;
use tm_netlist::{NetId, Netlist};
use tm_resilience::Budget;
use tm_spcf::{spcf_with, Algorithm, Session, SpcfOptions, SpcfSet};
use tm_sta::Sta;

/// One unlimited-budget query on a session.
fn retarget(session: &mut Session, algorithm: Algorithm, target: tm_netlist::Delay) -> SpcfSet {
    session.compute(algorithm, target, Budget::unlimited()).expect("unlimited budget")
}

/// Seeded 12-input netlists with several outputs each, sized so the
/// short-path memo sees real sharing across targets.
fn ladder_suite() -> Vec<Arc<Netlist>> {
    let lib = Arc::new(lsi10k_like());
    (0..6u64)
        .map(|i| {
            let mut spec = GeneratorSpec::sized(
                format!("ladder_{i}"),
                12,
                2 + (i as usize % 3),
                40 + 6 * i as usize,
            );
            spec.seed = 0x1ADDE12 + 101 * i;
            Arc::new(generate(&spec, lib.clone()))
        })
        .collect()
}

/// The descending protection-band ladder the sweep binaries walk.
const FRACTIONS: [f64; 4] = [0.95, 0.85, 0.70, 0.55];

#[test]
fn warm_retarget_matches_cold_runs_bit_for_bit() {
    for nl in ladder_suite() {
        let sta = Sta::new(&nl);
        let delta = sta.critical_path_delay();
        for algorithm in [Algorithm::ShortPath, Algorithm::PathBased, Algorithm::NodeBased] {
            let mut session = Session::new(Arc::clone(&nl));
            for frac in FRACTIONS {
                let target = delta * frac;
                let warm = retarget(&mut session, algorithm, target);

                let mut cold_bdd = Bdd::new(nl.inputs().len());
                let cold = spcf_with(
                    algorithm,
                    &nl,
                    &sta,
                    &mut cold_bdd,
                    target,
                    &SpcfOptions::default(),
                );

                let warm_outs: Vec<NetId> = warm.outputs.iter().map(|o| o.output).collect();
                let cold_outs: Vec<NetId> = cold.outputs.iter().map(|o| o.output).collect();
                assert_eq!(
                    warm_outs, cold_outs,
                    "{}/{algorithm:?}@{frac}: critical-output lists differ",
                    nl.name()
                );
                for (w, c) in warm.outputs.iter().zip(&cold.outputs) {
                    assert_eq!(
                        session.bdd().export(w.spcf),
                        cold_bdd.export(c.spcf),
                        "{}/{algorithm:?}@{frac}: exports differ on {:?}",
                        nl.name(),
                        w.output
                    );
                }
            }
            assert_eq!(session.computes(), FRACTIONS.len() as u64);
        }
    }
}

#[test]
fn descending_ladder_is_monotone() {
    for nl in ladder_suite() {
        let sta = Sta::new(&nl);
        let delta = sta.critical_path_delay();
        let mut session = Session::new(Arc::clone(&nl));
        let mut prev: HashMap<NetId, tm_logic::bdd::BddRef> = HashMap::new();
        for frac in FRACTIONS {
            let spcf = retarget(&mut session, Algorithm::ShortPath, delta * frac);
            let current: HashMap<_, _> =
                spcf.outputs.iter().map(|o| (o.output, o.spcf)).collect();
            // Σ_y(Δ') ⊆ Σ_y(Δ) for Δ' ≥ Δ: every output critical at the
            // looser target stays critical, with a superset SPCF, at
            // the tighter one.
            for (net, sigma_loose) in &prev {
                let sigma_tight = current
                    .get(net)
                    .unwrap_or_else(|| panic!("{}: output {net:?} lost criticality", nl.name()));
                assert!(
                    session.bdd_mut().is_subset(*sigma_loose, *sigma_tight),
                    "{}@{frac}: SPCF shrank on {net:?}",
                    nl.name()
                );
            }
            assert!(current.len() >= prev.len(), "{}: critical-output set shrank", nl.name());
            prev = current;
        }
    }
}

/// Retargeting is order-free: every engine's `retarget` must leave it
/// answering exactly as a fresh engine would, whatever targets it
/// served before. Pinned here for every engine on an adversarially
/// shuffled ladder that ascends, descends, and revisits.
#[test]
fn unsorted_ladder_matches_cold_runs_bit_for_bit() {
    let unsorted = [0.70, 0.95, 0.55, 0.85, 0.55, 0.95];
    for nl in ladder_suite() {
        let sta = Sta::new(&nl);
        let delta = sta.critical_path_delay();
        for algorithm in [
            Algorithm::ShortPath,
            Algorithm::PathBased,
            Algorithm::NodeBased,
            Algorithm::Conservative,
        ] {
            let mut session = Session::new(Arc::clone(&nl));
            for frac in unsorted {
                let target = delta * frac;
                let warm = retarget(&mut session, algorithm, target);

                let mut cold_bdd = Bdd::new(nl.inputs().len());
                let cold = spcf_with(
                    algorithm,
                    &nl,
                    &sta,
                    &mut cold_bdd,
                    target,
                    &SpcfOptions::default(),
                );

                let warm_outs: Vec<NetId> = warm.outputs.iter().map(|o| o.output).collect();
                let cold_outs: Vec<NetId> = cold.outputs.iter().map(|o| o.output).collect();
                assert_eq!(
                    warm_outs, cold_outs,
                    "{}/{algorithm:?}@{frac}: critical-output lists differ on unsorted ladder",
                    nl.name()
                );
                for (w, c) in warm.outputs.iter().zip(&cold.outputs) {
                    assert_eq!(
                        session.bdd().export(w.spcf),
                        cold_bdd.export(c.spcf),
                        "{}/{algorithm:?}@{frac}: unsorted-ladder exports differ on {:?}",
                        nl.name(),
                        w.output
                    );
                }
            }
        }
    }
}

/// A reused engine charges its lifetime memo against each query's
/// budget. Two ladders that each fit a memo budget alone but not
/// together must both be answered exactly: the warm engine's
/// exhaustion is retried once on a fresh engine.
#[test]
fn warm_engine_over_memo_budget_retries_on_a_fresh_engine() {
    let nl = &ladder_suite()[2];
    let sta = Sta::new(nl);
    let delta = sta.critical_path_delay();
    let first: &[f64] = &[0.95, 0.9];
    let second: &[f64] = &[0.6, 0.55];
    // Memo entries a short-path session holds after `ladders`, read
    // both from the session and off the gauge its engine publishes on
    // drop.
    let memo_after = |ladders: &[&[f64]]| -> u64 {
        let _scope = tm_telemetry::Scope::enter();
        let mut session = Session::new(Arc::clone(nl));
        for &frac in ladders.iter().copied().flatten() {
            retarget(&mut session, Algorithm::ShortPath, delta * frac);
        }
        let entries = session.memo_entries();
        drop(session);
        let gauge = tm_telemetry::snapshot().gauge("spcf.short_path.memo_entries");
        assert_eq!(gauge, Some(entries as f64), "the dropped session published its memo");
        entries
    };
    let fits_each = memo_after(&[first]).max(memo_after(&[second]));
    assert!(
        memo_after(&[first, second]) > fits_each,
        "vacuous fixture: the ladders share every memo entry"
    );

    let _scope = tm_telemetry::Scope::enter();
    let budget = Budget::unlimited().with_max_memo_entries(fits_each);
    let mut session = Session::new(Arc::clone(nl));
    for &frac in first.iter().chain(second) {
        let target = delta * frac;
        let warm = session
            .compute(Algorithm::ShortPath, target, budget)
            .unwrap_or_else(|e| panic!("@{frac}: a fresh engine fits this point: {e}"));
        let mut cold_bdd = Bdd::new(nl.inputs().len());
        let cold = spcf_with(
            Algorithm::ShortPath,
            nl,
            &sta,
            &mut cold_bdd,
            target,
            &SpcfOptions::default(),
        );
        assert_eq!(warm.outputs.len(), cold.outputs.len(), "@{frac}");
        for (w, c) in warm.outputs.iter().zip(&cold.outputs) {
            assert_eq!(session.bdd().export(w.spcf), cold_bdd.export(c.spcf), "@{frac}");
        }
    }
    assert!(
        tm_telemetry::snapshot().counter("spcf.session.rebuilds").unwrap_or(0) >= 1,
        "the warm engine was never replaced"
    );
}

#[test]
fn warm_session_budget_hygiene() {
    let lib = Arc::new(lsi10k_like());
    let nl = Arc::new(generate(&GeneratorSpec::sized("hygiene", 12, 3, 60), lib));
    let sta = Sta::new(&nl);
    let delta = sta.critical_path_delay();

    let mut session = Session::new(Arc::clone(&nl));
    let outer = Budget::unlimited().with_max_steps(1 << 40);
    session.bdd_mut().set_budget(outer);
    let tight = Budget::unlimited().with_max_bdd_nodes(8);
    let err = session.compute(Algorithm::ShortPath, delta * 0.55, tight);
    assert!(err.is_err(), "an 8-node budget cannot fit a 12-input SPCF");
    // The query restored the budget installed before it.
    assert_eq!(session.bdd().budget(), outer);

    // The same session still works after the tripped query.
    let spcf = retarget(&mut session, Algorithm::ShortPath, delta * 0.55);
    assert!(!spcf.outputs.is_empty());

    // ... and its manager still works cold.
    let cold = spcf_with(
        Algorithm::ShortPath,
        &nl,
        &sta,
        session.bdd_mut(),
        delta * 0.55,
        &SpcfOptions::default(),
    );
    assert!(!cold.outputs.is_empty());
}
