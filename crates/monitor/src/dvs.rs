//! Aggressive dynamic voltage scaling under error masking — the first
//! of the paper's §6 future-research directions, implemented.
//!
//! Lowering V_DD saves quadratic energy but slows every gate; without
//! protection the supply can only drop until the *first* speed-path
//! misses the clock. With the error-masking circuit in place, timing
//! errors on speed-paths are hidden outright (no rollback), so the
//! supply can keep dropping until the protection band — speed-paths
//! within `1 − target_fraction` of `Δ` — is exhausted.
//! [`DvsExplorer`] sweeps the supply, replays a workload through the
//! timing-accurate simulator at each point, and reports the lowest safe
//! voltage with and without masking plus the resulting energy saving.

use std::sync::Arc;
use tm_masking::{inject_and_measure, MaskedDesign};
use tm_netlist::{Delay, Netlist};
use tm_resilience::{Budget, Context, TmError, TmResult};
use tm_sim::timing::TimingSim;
use tm_spcf::{Algorithm, Session};
use tm_sta::Sta;

/// A first-order alpha-power-law delay/energy model for supply scaling.
///
/// Delay scales as `V / (V − V_th)^α` (normalized to 1 at `v_nominal`);
/// dynamic energy scales as `(V / V_nominal)²`.
#[derive(Clone, Copy, Debug)]
pub struct VoltageModel {
    /// Nominal supply (delay factor 1.0, energy factor 1.0).
    pub v_nominal: f64,
    /// Threshold voltage.
    pub v_threshold: f64,
    /// Velocity-saturation exponent α.
    pub alpha: f64,
}

impl Default for VoltageModel {
    fn default() -> Self {
        VoltageModel { v_nominal: 1.0, v_threshold: 0.3, alpha: 1.3 }
    }
}

impl VoltageModel {
    /// Gate-delay multiplier at supply `vdd` relative to nominal.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not above the threshold voltage.
    pub fn delay_factor(&self, vdd: f64) -> f64 {
        assert!(vdd > self.v_threshold, "supply must exceed threshold");
        let d = |v: f64| v / (v - self.v_threshold).powf(self.alpha);
        d(vdd) / d(self.v_nominal)
    }

    /// Dynamic-energy multiplier at supply `vdd` relative to nominal.
    pub fn energy_factor(&self, vdd: f64) -> f64 {
        (vdd / self.v_nominal).powi(2)
    }
}

/// One measured point of a DVS sweep.
#[derive(Clone, Copy, Debug)]
pub struct DvsPoint {
    /// Supply voltage.
    pub vdd: f64,
    /// Gate-delay multiplier at this supply.
    pub delay_factor: f64,
    /// Dynamic-energy multiplier at this supply.
    pub energy_factor: f64,
    /// Cycles where a *raw* (unmasked) output mis-sampled.
    pub raw_errors: usize,
    /// Cycles where a *masked* output mis-sampled (escapes).
    pub escapes: usize,
}

/// Result of a DVS exploration.
#[derive(Clone, Debug)]
pub struct DvsSweep {
    /// Measured points, highest supply first.
    pub points: Vec<DvsPoint>,
    /// Lowest supply with zero raw errors — the limit *without*
    /// masking.
    pub min_safe_unmasked: Option<f64>,
    /// Lowest supply with zero escapes — the limit *with* masking.
    pub min_safe_masked: Option<f64>,
}

impl DvsSweep {
    /// Relative dynamic-energy saving enabled by masking: energy at the
    /// masked limit vs energy at the unmasked limit (0.0 when masking
    /// buys nothing).
    pub fn energy_saving(&self, model: &VoltageModel) -> f64 {
        match (self.min_safe_masked, self.min_safe_unmasked) {
            (Some(m), Some(u)) if m < u => {
                1.0 - model.energy_factor(m) / model.energy_factor(u)
            }
            _ => 0.0,
        }
    }
}

/// Sweeps the supply voltage for a masked design.
#[derive(Clone, Debug)]
pub struct DvsExplorer {
    /// The voltage/delay/energy model.
    pub model: VoltageModel,
    /// Lowest supply to try.
    pub v_min: f64,
    /// Sweep step (volts).
    pub v_step: f64,
    /// Clock period; defaults to the original circuit's `Δ` when
    /// `None`.
    pub clock: Option<Delay>,
}

impl Default for DvsExplorer {
    fn default() -> Self {
        DvsExplorer { model: VoltageModel::default(), v_min: 0.80, v_step: 0.01, clock: None }
    }
}

impl DvsExplorer {
    /// Runs the sweep with the given workload vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TmError`] when the design is unprotected, the sweep
    /// range is degenerate (including `v_min` at or below the model's
    /// threshold voltage), or a workload vector has the wrong arity.
    pub fn sweep(&self, design: &MaskedDesign, vectors: &[Vec<bool>]) -> TmResult<DvsSweep> {
        if !design.is_protected() {
            return Err(TmError::invalid_input("DVS exploration needs a protected design"));
        }
        if !(self.v_min < self.model.v_nominal) {
            return Err(TmError::invalid_input("sweep range is empty"));
        }
        if self.v_min <= self.model.v_threshold {
            return Err(TmError::invalid_input(format!(
                "v_min {} must exceed the threshold voltage {}",
                self.v_min, self.model.v_threshold
            )));
        }
        if !(self.v_step > 0.0) || !self.v_step.is_finite() {
            return Err(TmError::invalid_input(format!(
                "v_step must be finite and positive, got {}",
                self.v_step
            )));
        }
        let clock = self
            .clock
            .unwrap_or_else(|| Sta::new(&design.original).critical_path_delay());

        let mut points = Vec::new();
        let mut vdd = self.model.v_nominal;
        while vdd >= self.v_min - 1e-12 {
            let factor = self.model.delay_factor(vdd);
            let scale = vec![factor; design.combined.num_gates()];
            let outcome = inject_and_measure(design, &scale, clock, vectors)
                .context(format!("DVS sweep at vdd {vdd:.3}"))?;
            points.push(DvsPoint {
                vdd,
                delay_factor: factor,
                energy_factor: self.model.energy_factor(vdd),
                raw_errors: outcome.raw_errors,
                escapes: outcome.masked_errors,
            });
            vdd -= self.v_step;
        }

        // The lowest safe supply is the *contiguous* clean range walked
        // from nominal downward — operating below a failing point is
        // unsafe even if a lower point happens to measure clean.
        let mut min_safe_unmasked = None;
        for p in &points {
            if p.raw_errors == 0 {
                min_safe_unmasked = Some(p.vdd);
            } else {
                break;
            }
        }
        let mut min_safe_masked = None;
        for p in &points {
            if p.escapes == 0 {
                min_safe_masked = Some(p.vdd);
            } else {
                break;
            }
        }

        Ok(DvsSweep { points, min_safe_unmasked, min_safe_masked })
    }
}

/// One analytically characterized point of a DVS sweep: instead of
/// replaying a workload, the point is described by the short-path SPCF
/// at the *effective* target `Δ_eff = clock / delay_factor` — under a
/// uniform supply-induced slowdown, a pattern mis-samples exactly when
/// its nominal stabilization delay exceeds `Δ_eff`.
#[derive(Clone, Copy, Debug)]
pub struct DvsAnalyticPoint {
    /// Supply voltage.
    pub vdd: f64,
    /// Gate-delay multiplier at this supply.
    pub delay_factor: f64,
    /// Dynamic-energy multiplier at this supply.
    pub energy_factor: f64,
    /// The clock expressed in nominal-delay units (`clock /
    /// delay_factor`): the arrival-time budget a pattern must meet at
    /// this supply.
    pub effective_target: Delay,
    /// Outputs whose worst arrival exceeds the effective target.
    pub critical_outputs: usize,
    /// Fraction of the input space whose stabilization delay exceeds
    /// the effective target (union SPCF over all critical outputs);
    /// `0.0` means every pattern meets the clock at this supply.
    pub error_pattern_fraction: f64,
}

/// Result of an analytic (simulation-free) DVS exploration.
#[derive(Clone, Debug)]
pub struct DvsAnalyticSweep {
    /// Characterized points, highest supply first.
    pub points: Vec<DvsAnalyticPoint>,
    /// Lowest supply whose whole input space still meets the clock
    /// (contiguous from nominal) — the guaranteed-safe limit without
    /// masking, over *all* patterns rather than a sampled workload.
    pub min_safe_unmasked: Option<f64>,
}

impl DvsExplorer {
    /// Characterizes the sweep analytically with a **warm SPCF
    /// session**: one BDD manager and one short-path memo serve every
    /// supply point. Lower supplies mean larger delay factors and thus
    /// a *descending* ladder of effective targets, so each point only
    /// extends the memoized stabilization queries of the previous one
    /// (`Σ_y(Δ') ⊆ Σ_y(Δ)` for `Δ' ≥ Δ`).
    ///
    /// The result is workload-independent and conservative: a supply is
    /// reported safe only when *no* input pattern can miss the clock,
    /// whereas [`DvsExplorer::sweep`] can only observe the vectors it
    /// replays.
    ///
    /// # Errors
    ///
    /// Returns [`TmError`] when the sweep range is degenerate (same
    /// conditions as [`DvsExplorer::sweep`]).
    pub fn analytic_sweep(&self, netlist: &Netlist) -> TmResult<DvsAnalyticSweep> {
        if !(self.v_min < self.model.v_nominal) {
            return Err(TmError::invalid_input("sweep range is empty"));
        }
        if self.v_min <= self.model.v_threshold {
            return Err(TmError::invalid_input(format!(
                "v_min {} must exceed the threshold voltage {}",
                self.v_min, self.model.v_threshold
            )));
        }
        if !(self.v_step > 0.0) || !self.v_step.is_finite() {
            return Err(TmError::invalid_input(format!(
                "v_step must be finite and positive, got {}",
                self.v_step
            )));
        }
        let sta = Sta::new(netlist);
        let clock = self.clock.unwrap_or_else(|| sta.critical_path_delay());

        let mut session = Session::new(Arc::new(netlist.clone()));
        let mut points = Vec::new();
        let mut vdd = self.model.v_nominal;
        while vdd >= self.v_min - 1e-12 {
            let factor = self.model.delay_factor(vdd);
            let effective_target = clock * (1.0 / factor);
            let spcf =
                session.compute(Algorithm::ShortPath, effective_target, Budget::unlimited())?;
            let union = spcf.union(session.bdd_mut());
            points.push(DvsAnalyticPoint {
                vdd,
                delay_factor: factor,
                energy_factor: self.model.energy_factor(vdd),
                effective_target,
                critical_outputs: spcf.outputs.len(),
                error_pattern_fraction: session.bdd().sat_fraction(union),
            });
            vdd -= self.v_step;
        }

        let mut min_safe_unmasked = None;
        for p in &points {
            if p.error_pattern_fraction == 0.0 {
                min_safe_unmasked = Some(p.vdd);
            } else {
                break;
            }
        }
        Ok(DvsAnalyticSweep { points, min_safe_unmasked })
    }
}

/// Evaluates an *unmasked* netlist at one supply (for baselines).
pub fn unmasked_errors_at(
    netlist: &tm_netlist::Netlist,
    model: &VoltageModel,
    vdd: f64,
    clock: Delay,
    vectors: &[Vec<bool>],
) -> usize {
    let factor = model.delay_factor(vdd);
    let sim = TimingSim::with_scale(netlist, vec![factor; netlist.num_gates()]);
    let mut errors = 0;
    for pair in vectors.windows(2) {
        if sim.transition(&pair[0], &pair[1], clock).has_error() {
            errors += 1;
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_masking::{synthesize, MaskingOptions};
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;
    use tm_sim::patterns::random_vectors;

    #[test]
    fn voltage_model_monotone() {
        let m = VoltageModel::default();
        assert!((m.delay_factor(1.0) - 1.0).abs() < 1e-12);
        assert!(m.delay_factor(0.9) > 1.0);
        assert!(m.delay_factor(0.8) > m.delay_factor(0.9));
        assert!(m.energy_factor(0.8) < 1.0);
    }

    #[test]
    fn masking_extends_the_safe_voltage_range() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let design = synthesize(&nl, MaskingOptions::default()).design;
        let vectors = random_vectors(4, 300, 4242);
        let explorer = DvsExplorer { v_min: 0.80, v_step: 0.02, ..Default::default() };
        let sweep = explorer.sweep(&design, &vectors).expect("valid sweep");
        let safe_u = sweep.min_safe_unmasked.expect("nominal must be safe");
        let safe_m = sweep.min_safe_masked.expect("nominal must be safe");
        assert!(
            safe_m < safe_u,
            "masking should tolerate a lower supply: masked {safe_m} vs unmasked {safe_u}"
        );
        let saving = sweep.energy_saving(&explorer.model);
        assert!(saving > 0.0, "no energy saving measured");
        // Sanity: points are ordered and the nominal point is clean.
        assert_eq!(sweep.points[0].raw_errors, 0);
        assert_eq!(sweep.points[0].escapes, 0);
    }

    #[test]
    #[should_panic(expected = "exceed threshold")]
    fn below_threshold_rejected() {
        VoltageModel::default().delay_factor(0.2);
    }

    #[test]
    fn analytic_sweep_is_monotone_and_conservative() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let explorer = DvsExplorer { v_min: 0.80, v_step: 0.02, ..Default::default() };
        let analytic = explorer.analytic_sweep(&nl).expect("valid sweep");
        // Nominal supply meets the clock for every pattern.
        assert_eq!(analytic.points[0].error_pattern_fraction, 0.0);
        // Lower supply ⇒ smaller effective target ⇒ the error-pattern
        // set only grows (Σ_y monotonicity through the warm session).
        for w in analytic.points.windows(2) {
            assert!(w[1].error_pattern_fraction >= w[0].error_pattern_fraction);
            assert!(w[1].effective_target < w[0].effective_target);
        }
        // The analytic limit covers all patterns, so it is at least as
        // cautious as the sampled-workload simulation.
        let design = synthesize(&nl, MaskingOptions::default()).design;
        let vectors = random_vectors(4, 300, 4242);
        let simulated = explorer.sweep(&design, &vectors).expect("valid sweep");
        let sim_safe = simulated.min_safe_unmasked.expect("nominal must be safe");
        let ana_safe = analytic.min_safe_unmasked.expect("nominal must be safe");
        assert!(
            ana_safe >= sim_safe - 1e-12,
            "analytic limit {ana_safe} must not be below the sampled limit {sim_safe}"
        );
    }
}
