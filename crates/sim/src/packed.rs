//! Bit-parallel (64-lane) *timed* simulation: the packed monitor
//! kernel.
//!
//! [`crate::timing::TimingSim`] replays one input transition per call,
//! event by event. This module evaluates **64 transitions per word
//! op**: each `u64` lane carries an independent transition through the
//! same netlist under the same per-gate delay realization. The two use
//! cases (see DESIGN.md §15):
//!
//! - **64 vectors, one chip** — `run_lifetime` plays its workload in
//!   blocks of 64 consecutive transitions;
//! - **64 chips, one delay class** — the fleet simulator buckets
//!   per-chip aged delay realizations into discrete classes, so all
//!   chips of a class share one compiled schedule and differ only in
//!   their workload lanes.
//!
//! # Bit-identity with the scalar simulator
//!
//! The packed kernel is a drop-in for [`TimingSim`]: for every lane,
//! `sampled` and `settled` are **bit-identical** to
//! [`TimingSim::transition_with_sample_times`] on that lane's vectors
//! (enforced by the differential suite below). Three details make this
//! exact rather than approximate:
//!
//! - Events carry a **lane mask**: when a net changes in some lanes,
//!   the readers' rescheduled outputs claim only those lanes. Without
//!   the mask, a lane whose inputs did *not* change at the trigger
//!   time could observe a downstream value one pin-delay early
//!   (transport-delay anticipation through another lane's trigger).
//! - Event times replicate the scalar float path op for op:
//!   `Delay::from_quantized(qt) + pin_delay`, then
//!   [`Delay::quantize`] — quantization rounding accumulates per gate
//!   hop exactly as in the scalar heap.
//! - Pop order is `(quantized time, sequence)`, and sequence numbers
//!   are assigned in the same causal order as the scalar simulator
//!   (initial input events in input order, reader events in reader
//!   order), so same-instant supersessions resolve identically.
//!
//! # The compiled schedule
//!
//! Everything that does not depend on the vectors is compiled once per
//! `(netlist, scale)` in [`PackedTimingSim::with_scale`]: per-net
//! reader lists with pre-multiplied pin delays, per-gate on-set (or,
//! when shorter, negated off-set) minterm plans (the SOP evaluation loop of
//! [`crate::func::simulate_block`] without the per-call truth-table
//! scan), and the output-position table. Per block, only lanes that
//! actually change generate events.
//!
//! # Stepping
//!
//! A [`PackedStepper`] carries the net words, the event heap and the
//! output words from one cycle to the next: the levelized settle pass
//! runs once, when it starts, and each [`PackedStepper::step`] launches
//! from the words the previous step settled to. In every live lane
//! those are the functional value of the last vector, because with one
//! delay per gate the last event applied to a net is the evaluation
//! after its gate's last input change (DESIGN.md §15).
//! [`PackedTimingSim::transition_block`] is one step of a fresh
//! stepper, so there is one event loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tm_netlist::{Delay, Netlist};

use crate::func::PatternBlock;

/// Hard cap on packed events per transition block; mirrors the scalar
/// simulator's budget (a combinational netlist settles long before
/// this, cyclic ones do not).
const MAX_EVENTS: usize = 50_000_000;

/// Sampling guard band — must equal the scalar simulator's constant
/// (see `crate::timing`), or sampled words drift off the scalar result
/// by one quantization step.
const SAMPLING_GUARD: Delay = Delay::from_units_const(1e-3);

/// One gate reading a net: where its output lands and after how long.
#[derive(Clone, Copy, Debug)]
struct PackedReader {
    /// Gate index (into the compiled gate tables).
    gate: u32,
    /// Output net index of that gate.
    out_net: u32,
    /// Pre-multiplied pin delay (`cell.pin_delay(pin) * scale[gate]`);
    /// kept as a [`Delay`] so the fire-time float math matches the
    /// scalar simulator exactly.
    delay: Delay,
}

/// Result of simulating one block of up to 64 input transitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedTransition {
    /// Number of live lanes (≤ 64); bits above this are zero.
    pub lanes: usize,
    /// Per primary output (output order): lane `k`'s value latched at
    /// that output's sample time.
    pub sampled: Vec<u64>,
    /// Per primary output: lane `k`'s settled value (= functional
    /// evaluation of that lane's `next` vector).
    pub settled: Vec<u64>,
}

impl PackedTransition {
    /// Per-output timing-error words: lanes where the sampled value
    /// differs from the settled value.
    pub fn errors(&self) -> Vec<u64> {
        self.sampled.iter().zip(&self.settled).map(|(&s, &f)| s ^ f).collect()
    }

    /// Lane `k`'s sampled value at output `pos`.
    pub fn sampled_bit(&self, pos: usize, lane: usize) -> bool {
        (self.sampled[pos] >> lane) & 1 == 1
    }

    /// Lane `k`'s settled value at output `pos`.
    pub fn settled_bit(&self, pos: usize, lane: usize) -> bool {
        (self.settled[pos] >> lane) & 1 == 1
    }
}

/// A 64-lane timed simulator bound to one netlist and one per-gate
/// delay realization (the compiled schedule).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_netlist::{circuits::comparator2, library::lsi10k_like, Delay};
/// use tm_sim::func::PatternBlock;
/// use tm_sim::packed::PackedTimingSim;
///
/// let nl = comparator2(Arc::new(lsi10k_like()));
/// let sim = PackedTimingSim::new(&nl);
/// let prev = PatternBlock::from_patterns(&[vec![false; 4], vec![false; 4]]);
/// let next = PatternBlock::from_patterns(&[
///     vec![false, false, true, false], // 7-unit path: errors at 6.3
///     vec![false, true, false, false], // 4-unit path: clean at 6.3
/// ]);
/// let r = sim.transition_block(&prev, &next, &[Delay::new(6.3)]);
/// assert_eq!(r.errors()[0], 0b01);
/// ```
#[derive(Debug)]
pub struct PackedTimingSim<'a> {
    netlist: &'a Netlist,
    /// Per net: compiled reader list.
    readers: Vec<Vec<PackedReader>>,
    /// Per gate: input net indices, in pin order.
    gate_inputs: Vec<Vec<u32>>,
    /// Per gate: the smaller of the cell's on-set and off-set minterm
    /// lists (SOP evaluation plan) and whether it is the off-set, whose
    /// sum the evaluation negates.
    gate_minterms: Vec<(Vec<u64>, bool)>,
    /// Per gate: output net index (levelized settle-pass order =
    /// topological gate order).
    gate_out: Vec<u32>,
    /// Per net: primary-output position, if the net is an output.
    out_pos: Vec<Option<u32>>,
    /// Every gate's pins share one delay, so the event loop ends on the
    /// settle pass's words and a [`PackedStepper`] may carry them
    /// (DESIGN.md §15). Otherwise each step re-settles after its loop.
    carry_settles: bool,
}

impl<'a> PackedTimingSim<'a> {
    /// Compiles the schedule with nominal delays.
    pub fn new(netlist: &'a Netlist) -> Self {
        Self::with_scale(netlist, &vec![1.0; netlist.num_gates()])
    }

    /// Compiles the schedule with per-gate delay multipliers (one aged
    /// delay realization — in the fleet, one delay class).
    ///
    /// # Panics
    ///
    /// Panics if the scale vector length differs from the gate count or
    /// contains non-positive factors.
    pub fn with_scale(netlist: &'a Netlist, scale: &[f64]) -> Self {
        assert_eq!(scale.len(), netlist.num_gates(), "one scale factor per gate");
        assert!(scale.iter().all(|s| s.is_finite() && *s > 0.0), "bad scale factor");
        let lib = netlist.library();
        let mut readers: Vec<Vec<PackedReader>> = vec![Vec::new(); netlist.num_nets()];
        let mut gate_inputs = Vec::with_capacity(netlist.num_gates());
        let mut gate_minterms = Vec::with_capacity(netlist.num_gates());
        let mut gate_out = Vec::with_capacity(netlist.num_gates());
        let mut carry_settles = true;
        for (gid, g) in netlist.gates() {
            let cell = lib.cell(g.cell());
            let f = cell.function();
            let ins: Vec<u32> = g.inputs().iter().map(|i| i.index() as u32).collect();
            let minterms = 1u64 << ins.len();
            let negate = 2 * (0..minterms).filter(|&m| f.eval(m)).count() as u64 > minterms;
            for (pin, &inp) in g.inputs().iter().enumerate() {
                readers[inp.index()].push(PackedReader {
                    gate: gid.index() as u32,
                    out_net: g.output().index() as u32,
                    delay: cell.pin_delay(pin) * scale[gid.index()],
                });
            }
            carry_settles &= (1..ins.len()).all(|pin| cell.pin_delay(pin) == cell.pin_delay(0));
            gate_inputs.push(ins);
            gate_minterms.push(((0..minterms).filter(|&m| f.eval(m) != negate).collect(), negate));
            gate_out.push(g.output().index() as u32);
        }
        let mut out_pos = vec![None; netlist.num_nets()];
        for (pos, &o) in netlist.outputs().iter().enumerate() {
            out_pos[o.index()] = Some(pos as u32);
        }
        PackedTimingSim {
            netlist,
            readers,
            gate_inputs,
            gate_minterms,
            gate_out,
            out_pos,
            carry_settles,
        }
    }

    /// The compiled netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Evaluates one gate's output word from the current net words
    /// (the SOP plan of `simulate_block`, compiled, over whichever of
    /// the on-set and off-set is smaller).
    #[inline]
    fn eval_gate(&self, gate: usize, values: &[u64]) -> u64 {
        let ins = &self.gate_inputs[gate];
        let (minterms, negate) = &self.gate_minterms[gate];
        let mut out = 0u64;
        for &m in minterms {
            let mut term = u64::MAX;
            for (pin, &inp) in ins.iter().enumerate() {
                let w = values[inp as usize];
                term &= if (m >> pin) & 1 == 1 { w } else { !w };
            }
            out |= term;
        }
        if *negate {
            !out
        } else {
            out
        }
    }

    /// Starts a [`PackedStepper`] at `start` (one word per primary
    /// input, bit `k` = lane `k`; bits at or above `lanes` are ignored).
    /// The levelized settle pass runs here, once; every later
    /// [`PackedStepper::step`] launches from the words the previous
    /// step settled to.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not one word per input or `lanes` is not
    /// in `1..=64`.
    pub fn stepper(&self, start: &[u64], lanes: usize) -> PackedStepper<'_, 'a> {
        let inputs = self.netlist.inputs();
        assert_eq!(start.len(), inputs.len(), "start arity mismatch");
        assert!((1..=64).contains(&lanes), "lanes must be 1..=64");
        let mut values = vec![0u64; self.netlist.num_nets()];
        for (&net, &w) in inputs.iter().zip(start) {
            values[net.index()] = w;
        }
        let outputs = self.netlist.outputs().len();
        let mut stepper = PackedStepper {
            sim: self,
            lanes,
            lane_mask: if lanes == 64 { u64::MAX } else { (1u64 << lanes) - 1 },
            values,
            heap: BinaryHeap::new(),
            sampled: vec![0; outputs],
            settled: vec![0; outputs],
        };
        stepper.settle();
        stepper
    }

    /// Simulates up to 64 transitions at once: lane `k` moves from
    /// `prev.pattern(k)` to `next.pattern(k)`, and every primary output
    /// is latched at its per-output sample time (output order, same
    /// convention as [`crate::timing::TimingSim::transition_with_sample_times`]).
    ///
    /// This is one step of a fresh [`PackedStepper`].
    ///
    /// # Panics
    ///
    /// Panics if the blocks' arities differ from the input count, their
    /// lane counts disagree, `sample_times` is not one per output, or
    /// the event budget is exhausted (cyclic netlist).
    pub fn transition_block(
        &self,
        prev: &PatternBlock,
        next: &PatternBlock,
        sample_times: &[Delay],
    ) -> PackedTransition {
        assert_eq!(prev.words().len(), self.netlist.inputs().len(), "prev arity mismatch");
        assert_eq!(prev.len(), next.len(), "lane count mismatch");
        let mut stepper = self.stepper(prev.words(), prev.len());
        stepper.step(next.words(), sample_times);
        PackedTransition {
            lanes: stepper.lanes,
            sampled: stepper.sampled,
            settled: stepper.settled,
        }
    }
}

/// Event-heap entry: (quantized time, sequence, net, new word, lane
/// mask). Sequence is unique, so word and mask never order.
type Event = Reverse<(i64, u64, u32, u64, u64)>;

/// A packed kernel walking up to 64 lanes through a sequence of input
/// vectors, one [`step`](PackedStepper::step) per clock cycle.
///
/// It owns the per-net words, the event heap and the sampled/settled
/// output words, and carries them from step to step: a step launches
/// from the words the previous one settled to instead of re-running
/// the settle pass, and clears its buffers instead of reallocating
/// them. In every live lane the carried words equal the settle pass on
/// the last vector (DESIGN.md §15), so each step is bit-identical to a
/// fresh [`PackedTimingSim::transition_block`] from that vector.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_netlist::{circuits::comparator2, library::lsi10k_like, Delay};
/// use tm_sim::packed::PackedTimingSim;
///
/// let nl = comparator2(Arc::new(lsi10k_like()));
/// let sim = PackedTimingSim::new(&nl);
/// // One lane: 0000 -> b0 (the 7-unit path) -> 0000 -> a1 (4 units).
/// let mut st = sim.stepper(&[0, 0, 0, 0], 1);
/// st.step(&[0, 0, 1, 0], &[Delay::new(6.3)]);
/// assert_eq!(st.sampled()[0] ^ st.settled()[0], 1, "late: mis-sampled");
/// st.step(&[0, 0, 0, 0], &[Delay::new(6.3)]);
/// st.step(&[0, 1, 0, 0], &[Delay::new(6.3)]);
/// assert_eq!(st.sampled()[0] ^ st.settled()[0], 0, "short path: clean");
/// ```
#[derive(Debug)]
pub struct PackedStepper<'s, 'a> {
    sim: &'s PackedTimingSim<'a>,
    lanes: usize,
    lane_mask: u64,
    /// Per net: the word the last step settled to.
    values: Vec<u64>,
    /// Empty between steps; kept for its allocation.
    heap: BinaryHeap<Event>,
    sampled: Vec<u64>,
    settled: Vec<u64>,
}

impl PackedStepper<'_, '_> {
    /// The levelized settle pass over the current input words (gate
    /// order is topological).
    fn settle(&mut self) {
        let sim = self.sim;
        for (g, &out) in sim.gate_out.iter().enumerate() {
            self.values[out as usize] = sim.eval_gate(g, &self.values);
        }
    }

    /// Per primary output (output order): each lane's value latched at
    /// that output's sample time in the last step; bits of dead lanes
    /// are zero.
    pub fn sampled(&self) -> &[u64] {
        &self.sampled
    }

    /// Per primary output: each lane's value once the last step's
    /// events ran out (with one delay per cell, the functional value of
    /// that lane's last vector); bits of dead lanes are zero.
    pub fn settled(&self) -> &[u64] {
        &self.settled
    }

    /// Advances every lane to its bit of `next` (one word per primary
    /// input; bits of dead lanes are ignored) and latches every output
    /// at its sample time.
    ///
    /// # Panics
    ///
    /// Panics if `next` is not one word per input, `sample_times` is
    /// not one per output, or the event budget is exhausted (cyclic
    /// netlist).
    pub fn step(&mut self, next: &[u64], sample_times: &[Delay]) {
        let sim = self.sim;
        let inputs = sim.netlist.inputs();
        let outputs = sim.netlist.outputs();
        assert_eq!(next.len(), inputs.len(), "next arity mismatch");
        assert_eq!(sample_times.len(), outputs.len(), "one sample time per output");
        let lane_mask = self.lane_mask;
        let values = &mut self.values;
        let sampled = &mut self.sampled;
        let heap = &mut self.heap;

        // The carried words are the state the transition launches from.
        for (s, &o) in sampled.iter_mut().zip(outputs) {
            *s = values[o.index()] & lane_mask;
        }
        let mut seq = 0u64;
        for (&net, &n) in inputs.iter().zip(next) {
            let p = values[net.index()] & lane_mask;
            let n = n & lane_mask;
            if p != n {
                heap.push(Reverse((0, seq, net.index() as u32, n, p ^ n)));
                seq += 1;
            }
        }

        let mut events = 0usize;
        while let Some(Reverse((qt, _, net, word, mask))) = heap.pop() {
            events += 1;
            assert!(events <= MAX_EVENTS, "event budget exhausted; netlist cyclic?");
            let net_idx = net as usize;
            let changed = (values[net_idx] ^ word) & mask;
            if changed == 0 {
                continue; // superseded or redundant in every claimed lane
            }
            values[net_idx] = (values[net_idx] & !changed) | (word & changed);
            let t = Delay::from_quantized(qt);
            if let Some(pos) = sim.out_pos[net_idx] {
                let pos = pos as usize;
                // Same latch rule as the scalar history walk: the last
                // change at or before the sample time (plus guard)
                // wins; event times are non-decreasing off the heap.
                if t <= sample_times[pos] + SAMPLING_GUARD {
                    sampled[pos] = (sampled[pos] & !changed) | (word & changed);
                }
            }
            for r in &sim.readers[net_idx] {
                let out_w = sim.eval_gate(r.gate as usize, values);
                let fire = t + r.delay;
                heap.push(Reverse((fire.quantize(), seq, r.out_net, out_w, changed)));
                seq += 1;
            }
        }

        tm_telemetry::counter_add("sim.packed.blocks", 1);
        tm_telemetry::counter_add("sim.packed.events", events as u64);

        for (s, &o) in self.settled.iter_mut().zip(outputs) {
            *s = values[o.index()] & lane_mask;
        }
        if !sim.carry_settles {
            self.settle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingSim;
    use std::sync::Arc;
    use tm_logic::TruthTable;
    use tm_netlist::circuits::{comparator2, parity, ripple_adder};
    use tm_netlist::generate::{generate, GeneratorSpec};
    use tm_netlist::library::{lsi10k_like, Cell, Library};
    use tm_testkit::rng::Rng;

    fn random_block(inputs: usize, lanes: usize, rng: &mut Rng) -> PatternBlock {
        let pats: Vec<Vec<bool>> =
            (0..lanes).map(|_| (0..inputs).map(|_| rng.next_bool()).collect()).collect();
        PatternBlock::from_patterns(&pats)
    }

    /// The differential gate: every lane of the packed kernel must
    /// reproduce the scalar event-driven simulator bit for bit.
    fn assert_matches_scalar(
        nl: &Netlist,
        scale: &[f64],
        prev: &PatternBlock,
        next: &PatternBlock,
        sample_times: &[Delay],
    ) {
        let packed = PackedTimingSim::with_scale(nl, scale);
        let scalar = TimingSim::with_scale(nl, scale.to_vec());
        let r = packed.transition_block(prev, next, sample_times);
        for k in 0..prev.len() {
            let s = scalar.transition_with_sample_times(
                &prev.pattern(k),
                &next.pattern(k),
                sample_times,
            );
            for (pos, (&sam, &set)) in s.sampled.iter().zip(&s.settled).enumerate() {
                assert_eq!(r.sampled_bit(pos, k), sam, "sampled lane {k} output {pos}");
                assert_eq!(r.settled_bit(pos, k), set, "settled lane {k} output {pos}");
            }
        }
    }

    /// Random per-input words with every bit set at random, so lanes
    /// at or above the live count carry junk.
    fn junk_words(inputs: usize, rng: &mut Rng) -> Vec<u64> {
        (0..inputs).map(|_| rng.next_u64()).collect()
    }

    /// The stepper differential gate: one stepper walks `steps`
    /// consecutive random vectors, and at every step each live lane
    /// must equal the scalar simulator from the previous vector, and
    /// the whole step must equal a fresh `transition_block`. Sample
    /// times are drawn per step and per output across the settle window
    /// (mid-flight ones included). Returns the number of mis-sampled
    /// lane-outputs seen, so callers can require a non-vacuous run.
    fn assert_stepper_matches(
        nl: &Netlist,
        scale: &[f64],
        lanes: usize,
        steps: usize,
        rng: &mut Rng,
    ) -> u32 {
        let packed = PackedTimingSim::with_scale(nl, scale);
        let scalar = TimingSim::with_scale(nl, scale.to_vec());
        let inputs = nl.inputs().len();
        let window = tm_sta::Sta::new(nl).critical_path_delay().units() * 1.5;
        let mut prev = junk_words(inputs, rng);
        let mut stepper = packed.stepper(&prev, lanes);
        let mut errors = 0;
        for step in 0..steps {
            let next = junk_words(inputs, rng);
            let times: Vec<Delay> = (0..nl.outputs().len())
                .map(|_| Delay::new(rng.gen_range(0.0..window)))
                .collect();
            stepper.step(&next, &times);
            let fresh = packed.transition_block(
                &PatternBlock::from_words(prev.clone(), lanes),
                &PatternBlock::from_words(next.clone(), lanes),
                &times,
            );
            assert_eq!(stepper.sampled(), &fresh.sampled[..], "sampled vs fresh, step {step}");
            assert_eq!(stepper.settled(), &fresh.settled[..], "settled vs fresh, step {step}");
            let lane_mask = if lanes == 64 { u64::MAX } else { (1u64 << lanes) - 1 };
            for (&sam, &set) in stepper.sampled().iter().zip(stepper.settled()) {
                assert_eq!((sam | set) & !lane_mask, 0, "dead lanes must read zero");
                errors += (sam ^ set).count_ones();
            }
            for k in 0..lanes {
                let bits = |words: &[u64]| -> Vec<bool> {
                    words.iter().map(|w| (w >> k) & 1 == 1).collect()
                };
                let s = scalar.transition_with_sample_times(&bits(&prev), &bits(&next), &times);
                for (pos, (&sam, &set)) in s.sampled.iter().zip(&s.settled).enumerate() {
                    let got = |w: &[u64]| (w[pos] >> k) & 1 == 1;
                    let at = format!("step {step} lane {k} output {pos}");
                    assert_eq!(got(stepper.sampled()), sam, "sampled, {at}");
                    assert_eq!(got(stepper.settled()), set, "settled, {at}");
                }
            }
            prev = next;
        }
        errors
    }

    fn aged_scale(nl: &Netlist, rng: &mut Rng) -> Vec<f64> {
        (0..nl.num_gates()).map(|_| rng.gen_range(0.8..1.4)).collect()
    }

    #[test]
    fn stepper_matches_scalar_and_fresh_blocks_on_comparator() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let mut rng = Rng::seed_from_u64(0x57E9);
        let mut errors = 0;
        for lanes in [1, 17, 64] {
            let scale = aged_scale(&nl, &mut rng);
            errors += assert_stepper_matches(&nl, &scale, lanes, 24, &mut rng);
        }
        assert!(errors > 0, "sample times must reach mid-flight transitions");
    }

    #[test]
    fn stepper_matches_scalar_and_fresh_blocks_on_aged_adder() {
        let nl = ripple_adder(Arc::new(lsi10k_like()), 4);
        let mut rng = Rng::seed_from_u64(0x57EA);
        let mut errors = 0;
        for lanes in [1, 17, 64] {
            let scale = aged_scale(&nl, &mut rng);
            errors += assert_stepper_matches(&nl, &scale, lanes, 20, &mut rng);
        }
        assert!(errors > 0, "sample times must reach mid-flight transitions");
    }

    #[test]
    fn stepper_matches_scalar_and_fresh_blocks_on_generated_circuits() {
        let lib = Arc::new(lsi10k_like());
        let mut rng = Rng::seed_from_u64(0x57EB);
        let mut errors = 0;
        for (seed, lanes) in [1, 17, 64].into_iter().enumerate() {
            let mut spec = GeneratorSpec::sized(format!("st{seed}"), 12, 6, 40);
            spec.seed = 0x5EED ^ seed as u64;
            let nl = generate(&spec, lib.clone());
            let scale = aged_scale(&nl, &mut rng);
            errors += assert_stepper_matches(&nl, &scale, lanes, 16, &mut rng);
        }
        assert!(errors > 0, "sample times must reach mid-flight transitions");
    }

    #[test]
    fn unequal_pin_delays_resettle_between_steps() {
        // z = AND2(!x, y) with the y pin slower than the x → !x path.
        // Raising y and dropping x together schedules z's evaluation
        // on the old !x at t=3, after the fresh one at t=2, so the
        // event loop ends off the functional value (as the scalar
        // simulator does). The next step must still launch from the
        // settle pass, like a fresh block.
        let mut lib = Library::new("skewed");
        let inv = lib.add(Cell::new(
            "INV",
            TruthTable::from_fn(1, |m| m == 0),
            1.0,
            1.0,
            vec![Delay::new(1.0)],
        ));
        let and2 = lib.add(Cell::new(
            "AND2",
            TruthTable::from_fn(2, |m| m == 3),
            1.0,
            1.0,
            vec![Delay::new(1.0), Delay::new(3.0)],
        ));
        let mut nl = Netlist::new("skew", Arc::new(lib));
        let x = nl.add_input("x");
        let y = nl.add_input("y");
        let nx = nl.add_gate(inv, &[x], "nx");
        let z = nl.add_gate(and2, &[nx, y], "z");
        nl.mark_output(z);
        let sim = PackedTimingSim::new(&nl);
        let late = [Delay::new(100.0)];
        let mut stepper = sim.stepper(&[1, 0], 1);
        stepper.step(&[0, 1], &late);
        let scalar = TimingSim::new(&nl).transition(&[true, false], &[false, true], late[0]);
        assert!(!scalar.settled[0], "the stale evaluation lands last");
        assert_eq!(stepper.settled(), &[0]);
        stepper.step(&[0, 1], &late);
        let fresh = sim.transition_block(
            &PatternBlock::from_words(vec![0, 1], 1),
            &PatternBlock::from_words(vec![0, 1], 1),
            &late,
        );
        assert_eq!(fresh.settled, vec![1]);
        assert_eq!(stepper.settled(), &fresh.settled[..]);
        assert_eq!(stepper.sampled(), &fresh.sampled[..]);
    }

    #[test]
    fn stepper_counts_one_block_per_step() {
        let _scope = tm_telemetry::Scope::enter();
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sim = PackedTimingSim::new(&nl);
        let mut stepper = sim.stepper(&[0; 4], 3);
        for t in 0..5u64 {
            stepper.step(&[t & 1, t >> 1 & 1, 0b111, t & 0b101], &[Delay::new(7.0)]);
        }
        assert_eq!(tm_telemetry::snapshot().counter("sim.packed.blocks"), Some(5));
    }

    #[test]
    fn doc_example_paths() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sim = PackedTimingSim::new(&nl);
        let prev = PatternBlock::from_patterns(&[vec![false; 4], vec![false; 4]]);
        let next = PatternBlock::from_patterns(&[
            vec![false, false, true, false],
            vec![false, true, false, false],
        ]);
        let late = sim.transition_block(&prev, &next, &[Delay::new(7.0)]);
        assert_eq!(late.errors()[0], 0);
        let early = sim.transition_block(&prev, &next, &[Delay::new(6.3)]);
        assert_eq!(early.errors()[0], 0b01, "only the 7-unit lane mis-samples");
    }

    #[test]
    fn full_diagonal_matches_scalar_on_comparator() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        // All 16x16 transitions in four 64-lane blocks, sampled right
        // in the glitch window.
        let pats: Vec<Vec<bool>> = (0..256u64)
            .map(|m| {
                let (from, _to) = (m / 16, m % 16);
                (0..4).map(|i| (from >> i) & 1 == 1).collect()
            })
            .collect();
        let nexts: Vec<Vec<bool>> = (0..256u64)
            .map(|m| {
                let to = m % 16;
                (0..4).map(|i| (to >> i) & 1 == 1).collect()
            })
            .collect();
        for chunk in 0..4 {
            let lo = chunk * 64;
            let prev = PatternBlock::from_patterns(&pats[lo..lo + 64]);
            let next = PatternBlock::from_patterns(&nexts[lo..lo + 64]);
            for sample in [0.0, 2.5, 4.0, 6.3, 7.0, 100.0] {
                assert_matches_scalar(
                    &nl,
                    &vec![1.0; nl.num_gates()],
                    &prev,
                    &next,
                    &[Delay::new(sample)],
                );
            }
        }
    }

    #[test]
    fn glitchy_adder_matches_scalar_under_aging() {
        let lib = Arc::new(lsi10k_like());
        let nl = ripple_adder(lib, 4);
        let mut rng = Rng::seed_from_u64(0xADD3);
        for round in 0..6 {
            let scale: Vec<f64> =
                (0..nl.num_gates()).map(|_| 1.0 + rng.next_f64() * 0.4).collect();
            let lanes = [64, 17, 1][round % 3];
            let prev = random_block(9, lanes, &mut rng);
            let next = random_block(9, lanes, &mut rng);
            let times: Vec<Delay> = (0..nl.outputs().len())
                .map(|_| Delay::new(rng.gen_range(1.0..24.0)))
                .collect();
            assert_matches_scalar(&nl, &scale, &prev, &next, &times);
        }
    }

    #[test]
    fn generated_circuits_match_scalar() {
        let lib = Arc::new(lsi10k_like());
        let mut rng = Rng::seed_from_u64(0x9ACD);
        for seed in 0..4u64 {
            let mut spec = GeneratorSpec::sized(format!("pk{seed}"), 12, 6, 40);
            spec.seed = 0xC0FFEE ^ seed;
            let nl = generate(&spec, lib.clone());
            let scale: Vec<f64> =
                (0..nl.num_gates()).map(|_| 0.8 + rng.next_f64() * 0.6).collect();
            let prev = random_block(nl.inputs().len(), 64, &mut rng);
            let next = random_block(nl.inputs().len(), 64, &mut rng);
            // Mixed per-output sample times, including mid-flight ones.
            let times: Vec<Delay> = (0..nl.outputs().len())
                .map(|_| Delay::new(rng.gen_range(0.5..12.0)))
                .collect();
            assert_matches_scalar(&nl, &scale, &prev, &next, &times);
        }
    }

    #[test]
    fn settled_equals_functional_evaluation() {
        let nl = parity(Arc::new(lsi10k_like()), 7);
        let sim = PackedTimingSim::new(&nl);
        let mut rng = Rng::seed_from_u64(3);
        let prev = random_block(7, 64, &mut rng);
        let next = random_block(7, 64, &mut rng);
        let r = sim.transition_block(&prev, &next, &[Delay::new(1000.0)]);
        let functional = crate::func::simulate_outputs(&nl, &next);
        assert_eq!(r.settled, functional);
        assert_eq!(r.sampled, r.settled, "late sample is error-free");
    }

    #[test]
    fn no_change_lanes_stay_quiet() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sim = PackedTimingSim::new(&nl);
        let v = PatternBlock::from_patterns(&vec![vec![true, false, true, false]; 8]);
        let r = sim.transition_block(&v, &v, &[Delay::ZERO]);
        assert_eq!(r.errors()[0], 0);
        assert_eq!(r.lanes, 8);
    }

    #[test]
    fn telemetry_counts_blocks_and_events() {
        let _scope = tm_telemetry::Scope::enter();
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sim = PackedTimingSim::new(&nl);
        let prev = PatternBlock::from_patterns(&[vec![false; 4]]);
        let next = PatternBlock::from_patterns(&[vec![true; 4]]);
        let _ = sim.transition_block(&prev, &next, &[Delay::new(7.0)]);
        let snap = tm_telemetry::snapshot();
        assert_eq!(snap.counter("sim.packed.blocks"), Some(1));
        assert!(snap.counter("sim.packed.events").unwrap_or(0) > 0);
    }
}
