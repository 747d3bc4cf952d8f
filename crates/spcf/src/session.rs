//! The long-lived SPCF session (DESIGN.md §9) and the degradation
//! ladder (DESIGN.md §7).
//!
//! The protection-band sweep, `table1`, the DVS explorer and the
//! serving pool all ask one circuit many SPCF questions. A [`Session`]
//! owns what survives between them: the netlist, one BDD manager, the
//! gate-prime and global-function caches, and one warm engine per
//! [`Algorithm`]. Almost all of it is target-independent:
//!
//! - the manager's unique table and computed caches;
//! - gate primes and lazily built global net functions;
//! - the short-path engine's stabilization memo — `stab(s, t, v)` never
//!   mentions Δ_y, so a descending ladder re-derives each point from
//!   memoized stabilization sets, the computational face of the
//!   paper's monotonicity `Σ_y(Δ') ⊆ Σ_y(Δ)` for `Δ' ≥ Δ`.
//!
//! Queries may arrive at any Δ_y in any order, because
//! [`SpcfEngine::retarget`] is order-free. A budget-exhausted or
//! panicked query discards its engine, never the session.

use crate::common::{Algorithm, GatePrimes, LazyGlobals, SpcfSet};
use crate::engine::{compute_targets, critical_outputs, engine_for, span_name, EngineCx, SpcfEngine};
use std::sync::Arc;
use std::time::Instant;
use tm_logic::bdd::{BddRef, BddRemap};
use tm_logic::Bdd;
use tm_netlist::library::Library;
use tm_netlist::map::{tech_map, MapOptions};
use tm_netlist::sop_network::SopNetwork;
use tm_netlist::{Delay, Netlist};
use tm_resilience::{Budget, Exhausted, Resource, TmError};
use tm_sta::Sta;

/// One circuit's warm SPCF state, reusable across queries (see the
/// module docs). Owned and `Send`, so it can sit in a long-lived pool.
pub struct Session {
    netlist: Arc<Netlist>,
    bdd: Bdd,
    primes: GatePrimes,
    globals: LazyGlobals,
    slots: [Option<Box<dyn SpcfEngine + Send>>; 4],
    computes: u64,
}

/// The engine slot of an algorithm.
fn slot(algorithm: Algorithm) -> usize {
    match algorithm {
        Algorithm::ShortPath => 0,
        Algorithm::PathBased => 1,
        Algorithm::NodeBased => 2,
        Algorithm::Conservative => 3,
    }
}

impl Session {
    /// Builds a session by technology-mapping a parsed BLIF network
    /// onto `library`.
    pub fn build(sop: &SopNetwork, library: Arc<Library>) -> Result<Session, TmError> {
        if sop.outputs().is_empty() {
            return Err(TmError::invalid_input("circuit has no primary outputs"));
        }
        if sop.inputs().is_empty() {
            return Err(TmError::invalid_input("circuit has no primary inputs"));
        }
        Ok(Session::new(Arc::new(tech_map(sop, library, MapOptions::default()))))
    }

    /// A cold session over an already-mapped netlist.
    pub fn new(netlist: Arc<Netlist>) -> Session {
        Session {
            bdd: Bdd::new(netlist.inputs().len().max(1)),
            primes: GatePrimes::new(),
            globals: LazyGlobals::new(&netlist),
            slots: [None, None, None, None],
            computes: 0,
            netlist,
        }
    }

    /// The circuit this session analyzes.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The session's manager (pattern counts, exports). Refs returned
    /// by [`Session::compute`] stay valid until the next GC.
    pub fn bdd(&self) -> &Bdd {
        &self.bdd
    }

    /// Mutable access to the session's manager (unions, subset checks).
    pub fn bdd_mut(&mut self) -> &mut Bdd {
        &mut self.bdd
    }

    /// The circuit's critical path delay Δ (recomputed per call; STA is
    /// linear in the netlist and borrows it, so it is not stored).
    pub fn delta(&self) -> Delay {
        Sta::new(&self.netlist).critical_path_delay()
    }

    /// Live node count of the session's manager.
    pub fn node_count(&self) -> u64 {
        self.bdd.node_count() as u64
    }

    /// Total memo entries across the session's warm engines.
    pub fn memo_entries(&self) -> u64 {
        self.slots.iter().flatten().map(|e| e.memo_entries()).fold(0, u64::saturating_add)
    }

    /// Queries answered or attempted by this session.
    pub fn computes(&self) -> u64 {
        self.computes
    }

    /// Every [`BddRef`] the session pins across queries: the global net
    /// functions plus whatever each resident engine reports.
    fn capacity_roots(&self) -> Vec<BddRef> {
        let mut roots = Vec::new();
        self.globals.collect_roots(&mut roots);
        for engine in self.slots.iter().flatten() {
            engine.collect_roots(&mut roots);
        }
        roots
    }

    /// Rewrites every cached ref through `remap`.
    fn remap_refs(&mut self, remap: &BddRemap) {
        self.globals.remap_refs(remap);
        for engine in self.slots.iter_mut().flatten() {
            engine.remap_refs(remap);
        }
    }

    /// Mark-and-sweep of the manager rooted at the session's live refs,
    /// with store compaction. Dead intermediates of past queries are
    /// reclaimed and their node budget refunded (the manager charges
    /// allocations against its current size). Returns nodes reclaimed.
    pub fn gc(&mut self) -> u64 {
        let before = self.bdd.node_count();
        let roots = self.capacity_roots();
        let remap = self.bdd.gc(&roots);
        self.remap_refs(&remap);
        (before - self.bdd.node_count()) as u64
    }

    /// Full capacity maintenance: GC, then Rudell sifting when the
    /// store has outgrown [`Bdd::should_reorder`]. Returns total nodes
    /// reclaimed.
    pub fn maintain(&mut self) -> u64 {
        let before = self.bdd.node_count();
        self.gc();
        if self.bdd.should_reorder() {
            let roots = self.capacity_roots();
            let remap = self.bdd.reorder(&roots);
            self.remap_refs(&remap);
        }
        before.saturating_sub(self.bdd.node_count()) as u64
    }

    /// Between-query watermark check: runs [`Session::maintain`] when
    /// the live store is at or above `watermark` nodes and publishes
    /// the manager's `bdd.gc.*` / `bdd.reorder.*` deltas. Returns nodes
    /// reclaimed (0 below the watermark).
    pub fn maybe_gc(&mut self, watermark: u64) -> u64 {
        if self.node_count() < watermark {
            return 0;
        }
        let reclaimed = self.maintain();
        self.bdd.publish_metrics();
        reclaimed
    }

    /// The SPCF of every output critical at `target` under `budget`,
    /// reusing the algorithm's warm engine whatever it served before.
    ///
    /// `budget` holds per query: the manager's step counter is
    /// lifetime, so the step limit is offset by the steps earlier
    /// queries took, just as GC refunds the node budget.
    ///
    /// An exhaustion gets one retry on a fresh engine when the failed
    /// engine was warm (its memo of earlier queries is charged against
    /// this query's budget) or when the trip was on nodes, in which
    /// case maintenance first reclaims dead intermediates. A fresh
    /// engine's step or memo exhaustion propagates to the caller's
    /// [`ladder`].
    pub fn compute(
        &mut self,
        algorithm: Algorithm,
        target: Delay,
        budget: Budget,
    ) -> Result<SpcfSet, Exhausted> {
        self.computes += 1;
        let warm = self.slots[slot(algorithm)].as_ref().is_some_and(|e| e.memo_entries() > 0);
        match self.compute_attempt(algorithm, target, budget) {
            Err(e) if warm || e.resource == Resource::BddNodes => {
                tm_telemetry::counter_add("spcf.session.rebuilds", 1);
                if e.resource == Resource::BddNodes {
                    self.maintain();
                }
                self.compute_attempt(algorithm, target, budget)
            }
            r => r,
        }
    }

    fn compute_attempt(
        &mut self,
        algorithm: Algorithm,
        target: Delay,
        budget: Budget,
    ) -> Result<SpcfSet, Exhausted> {
        let _span = tm_telemetry::span::enter(span_name(algorithm));
        tm_telemetry::counter_add("spcf.session.retargets", 1);
        let start = Instant::now();
        // Take the engine out for the run: a panic unwinding through
        // here leaves the slot empty, so the next query starts from a
        // fresh engine, not a half-prepared one.
        let mut engine =
            self.slots[slot(algorithm)].take().unwrap_or_else(|| engine_for(algorithm));
        // Fault-injection site: an armed `compute.panic` unwinds here,
        // after the slot was emptied.
        tm_resilience::fault::compute_panic_check();

        let sta = Sta::new(&self.netlist);
        let targets = critical_outputs(&self.netlist, &sta, target);
        let prev_budget = self.bdd.budget();
        let steps = budget.max_steps.saturating_add(self.bdd.steps_taken());
        self.bdd.set_budget(Budget { max_steps: steps, ..budget });
        let mut cx = EngineCx {
            netlist: &self.netlist,
            sta: &sta,
            target,
            budget,
            bdd: &mut self.bdd,
            primes: &mut self.primes,
            globals: &mut self.globals,
        };
        let result = compute_targets(engine.as_mut(), &mut cx, &targets);
        self.bdd.set_budget(prev_budget);
        let outputs = result?; // on error the slot stays empty
        self.slots[slot(algorithm)] = Some(engine);
        Ok(SpcfSet::new(algorithm, target, outputs, start.elapsed(), 1))
    }
}

impl Drop for Session {
    /// Publishes each resident engine's lifetime counters, and the
    /// manager's, exactly once.
    fn drop(&mut self) {
        if !tm_telemetry::enabled() {
            return;
        }
        let Session { netlist, bdd, primes, globals, slots, .. } = self;
        let sta = Sta::new(netlist);
        let budget = bdd.budget();
        let mut cx =
            EngineCx { netlist, sta: &sta, target: Delay::ZERO, budget, bdd, primes, globals };
        for engine in slots.iter_mut().flatten() {
            engine.publish_metrics(&mut cx);
        }
        cx.bdd.publish_metrics();
    }
}

/// Counts one step down the ladder onto `rung`.
fn count_step(rung: Algorithm) {
    match rung {
        Algorithm::NodeBased => tm_telemetry::counter_add("spcf.degrade.node_based", 1),
        Algorithm::Conservative => tm_telemetry::counter_add("spcf.degrade.conservative", 1),
        Algorithm::ShortPath | Algorithm::PathBased => {}
    }
}

/// The degradation ladder (DESIGN.md §7): runs `attempt` at `first`
/// and, on each [`Exhausted`], one rung cheaper
/// ([`Algorithm::next_rung`]), counting every step under
/// `spcf.degrade.*`. Returns the rung that answered with its result,
/// or the floor's exhaustion.
pub fn ladder<T>(
    first: Algorithm,
    mut attempt: impl FnMut(Algorithm) -> Result<T, Exhausted>,
) -> Result<(Algorithm, T), Exhausted> {
    let mut rung = first;
    loop {
        let e = match attempt(rung) {
            Ok(v) => return Ok((rung, v)),
            Err(e) => e,
        };
        let next = rung.next_rung().ok_or(e)?;
        if tm_telemetry::trace_level() >= 2 {
            eprintln!("[spcf] {rung} SPCF: {e}; degrading to {next}");
        }
        count_step(next);
        rung = next;
    }
}

/// Load shedding onto the same ladder: `rung`, or `floor` when `floor`
/// lies below it (counted as one step onto `floor`).
pub fn shed(rung: Algorithm, floor: Algorithm) -> Algorithm {
    if std::iter::successors(rung.next_rung(), |a| a.next_rung()).any(|a| a == floor) {
        count_step(floor);
        floor
    } else {
        rung
    }
}
