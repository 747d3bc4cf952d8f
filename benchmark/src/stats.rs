//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as a median plus a *tail*: the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples above it.
//! The tail percentile therefore follows from the sample count alone,
//! and a run reports both. A summary is only handed out after
//! [`Envelope::validate`] has checked `min ≤ p50 ≤ tail ≤ max` — the
//! ordering a hand-assembled envelope can silently break (one committed
//! bench file lists a median above its p95).

/// Samples that must lie strictly above the tail sample.
pub const TAIL_BEYOND: usize = 10;

/// The four order statistics a timing is reported with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Envelope {
    /// Smallest sample.
    pub min: f64,
    /// Median (mean of the two middle samples for an even count).
    pub p50: f64,
    /// Tail sample (see the module docs).
    pub tail: f64,
    /// Largest sample.
    pub max: f64,
}

impl Envelope {
    /// Rejects an envelope whose statistics are not finite or not
    /// ordered `min ≤ p50 ≤ tail ≤ max`.
    pub fn validate(&self) -> Result<(), String> {
        let all = [self.min, self.p50, self.tail, self.max];
        if all.iter().any(|v| !v.is_finite()) {
            return Err(format!("non-finite statistic in {self:?}"));
        }
        if !(self.min <= self.p50 && self.p50 <= self.tail && self.tail <= self.max) {
            return Err(format!(
                "statistics out of order (need min <= p50 <= tail <= max): {self:?}"
            ));
        }
        Ok(())
    }
}

/// A validated summary of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The validated order statistics.
    pub env: Envelope,
    /// Percentile of the tail sample: `100 · (n − TAIL_BEYOND) / n`.
    pub tail_pct: f64,
}

/// Index of the tail sample in a sorted set of `n`, if the set is large
/// enough to have [`TAIL_BEYOND`] samples above some sample.
fn tail_index(n: usize) -> Option<usize> {
    n.checked_sub(TAIL_BEYOND + 1)
}

/// The median of a sorted, non-empty slice.
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// Summarizes `samples` by median and tail. Fails when the set is too
/// small for the tail rule to land at or above the median, or when the
/// statistics come out unordered.
pub fn summarize(samples: &[f64]) -> Result<Summary, String> {
    let n = samples.len();
    let Some(k) = tail_index(n) else {
        return Err(format!(
            "{n} samples: the tail needs at least {}",
            TAIL_BEYOND + 1
        ));
    };
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let env = Envelope {
        min: sorted[0],
        p50: median_sorted(&sorted),
        tail: sorted[k],
        max: sorted[n - 1],
    };
    env.validate()?;
    Ok(Summary {
        n,
        env,
        tail_pct: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
    })
}

/// A tail read over consecutive time slices of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlicedTail {
    /// Median over the slices of each slice's tail.
    pub tail: f64,
    /// The slices' common tail percentile.
    pub tail_pct: f64,
    /// Number of slices.
    pub slices: usize,
    /// Samples per slice.
    pub per_slice: usize,
}

/// The fewest samples a slice may hold, so that its tail lies at p90 or
/// above.
pub const MIN_SLICE: usize = 10 * TAIL_BEYOND;

/// The tail of `samples` (in time order) read over consecutive slices
/// of `per_slice` samples: the median of the slices' tails, each by
/// the ten-beyond rule. A stall on a shared machine that hits one slice
/// then moves that slice's tail, not the result. Samples past the last
/// whole slice are left out. Needs at least three slices, so that the
/// median can leave one out, and at least [`MIN_SLICE`] per slice.
pub fn sliced_tail(samples: &[f64], per_slice: usize) -> Result<SlicedTail, String> {
    if per_slice < MIN_SLICE {
        return Err(format!(
            "slices of {per_slice} samples: a slice needs at least {MIN_SLICE}"
        ));
    }
    let slices = samples.len() / per_slice;
    if slices < 3 {
        return Err(format!(
            "{} samples make {slices} slices of {per_slice}: need at least 3",
            samples.len()
        ));
    }
    let mut tails = Vec::with_capacity(slices);
    let mut tail_pct = 0.0;
    for chunk in samples.chunks_exact(per_slice) {
        let s = summarize(chunk)?;
        tails.push(s.env.tail);
        tail_pct = s.tail_pct;
    }
    Ok(SlicedTail {
        tail: median(&tails),
        tail_pct,
        slices,
        per_slice,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&samples).expect("valid");
        assert_eq!(
            s.env.tail, 90.0,
            "ten samples (91..=100) lie beyond the tail"
        );
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.env.p50, 50.5);
        assert_eq!((s.env.min, s.env.max, s.n), (1.0, 100.0, 100));
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        let samples: Vec<f64> = (0..1000).map(|i| (i * 7919 % 1000) as f64).collect();
        let s = summarize(&samples).expect("valid");
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.env.tail, 989.0);
    }

    #[test]
    fn too_few_samples_for_a_tail_are_rejected() {
        assert!(summarize(&[1.0; 10]).is_err());
        assert!(summarize(&[]).is_err());
        // 11 samples: the tail is the minimum, below the median.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert!(summarize(&eleven).is_err());
        // 21 samples: the tail sample is the median itself.
        let twenty_one: Vec<f64> = (0..21).map(f64::from).collect();
        let s = summarize(&twenty_one).expect("tail reaches the median");
        assert_eq!(s.env.p50, s.env.tail);
    }

    #[test]
    fn committed_sim_envelope_shape_is_rejected() {
        // The `scalar/lifetime_epochs` entry of the committed
        // BENCH_sim.json: a median above a p95 that equals the max.
        let env = Envelope {
            min: 2_250_115.0,
            p50: 3_576_990.0,
            tail: 2_468_940.0,
            max: 2_468_940.0,
        };
        let err = env
            .validate()
            .expect_err("median above p95 must be rejected");
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn ordered_and_finite_envelopes_pass() {
        let ok = Envelope {
            min: 1.0,
            p50: 2.0,
            tail: 3.0,
            max: 3.0,
        };
        assert!(ok.validate().is_ok());
        let nan = Envelope {
            min: 1.0,
            p50: f64::NAN,
            tail: 3.0,
            max: 4.0,
        };
        assert!(nan.validate().is_err());
        let tail_over_max = Envelope {
            min: 1.0,
            p50: 2.0,
            tail: 5.0,
            max: 4.0,
        };
        assert!(tail_over_max.validate().is_err());
    }

    #[test]
    fn sliced_tail_leaves_out_one_slow_slice() {
        let mut samples: Vec<f64> = (0..400).map(|i| f64::from(i % 100)).collect();
        for v in &mut samples[100..200] {
            *v += 1000.0;
        }
        let t = sliced_tail(&samples, 100).expect("four slices of 100");
        assert_eq!((t.slices, t.per_slice, t.tail_pct), (4, 100, 90.0));
        assert_eq!(t.tail, 89.0, "the slow slice is left out");
        assert!(sliced_tail(&samples, 99).is_err(), "too few per slice");
        assert!(sliced_tail(&samples[..299], 100).is_err(), "two slices");
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
