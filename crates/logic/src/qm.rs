//! Prime implicant generation and two-level cover selection.
//!
//! The short-path SPCF recursion (paper Eqn. 1) needs *all prime
//! implicants* of the on-set and off-set of every gate function, and the
//! masking synthesis (§4.1) needs minimized SOP covers of
//! technology-independent nodes. Functions here are exact for tables up to
//! [`crate::tt::MAX_TT_VARS`] inputs; the synthesis flow keeps node
//! arities at 10–15 inputs, well inside that bound.
//!
//! Primes come from recursive Shannon cofactoring on the packed table
//! rather than Quine–McCluskey's level-by-level merging: splitting
//! `F = x̄·F₀ + x·F₁` on its top variable,
//!
//! ```text
//! primes(F) = primes(F₀·F₁)
//!           ∪ { x̄·p : p ∈ primes(F₀), p ⊄ F₁ }
//!           ∪ { x·q : q ∈ primes(F₁), q ⊄ F₀ }
//! ```
//!
//! The prime set of a function is unique and the result is sorted by the
//! total key `(literal_count, mask, value)`, so the output does not depend
//! on how the primes were found.

use crate::cube::Cube;
use crate::sop::Sop;
use crate::tt::{cube_word, cube_words, tail_mask, words_cover_cube, TruthTable};
use std::cmp::Reverse;

/// Computes all prime implicants of the incompletely specified function
/// with the given on-set and don't-care set.
///
/// A prime implicant is a cube contained in `on ∪ dc` that is not
/// contained in any larger such cube. The result is sorted by ascending
/// literal count, then mask, then value (the order the essential-weight
/// selection expects).
///
/// # Panics
///
/// Panics if the two tables have different arities.
///
/// # Examples
///
/// ```
/// use tm_logic::{qm::prime_implicants, tt::TruthTable};
///
/// // f = majority of 3 inputs: primes are the three 2-literal cubes.
/// let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
/// let primes = prime_implicants(&f, &TruthTable::zero(3));
/// assert_eq!(primes.len(), 3);
/// assert!(primes.iter().all(|p| p.literal_count() == 2));
/// ```
pub fn prime_implicants(on: &TruthTable, dc: &TruthTable) -> Vec<Cube> {
    assert_eq!(on.num_vars(), dc.num_vars(), "on/dc arity mismatch");
    let f = on | dc;
    let mut primes = Vec::new();
    primes_into(f.words(), f.num_vars(), &mut primes);
    primes.sort_unstable_by_key(|c| (c.literal_count(), c.mask(), c.value()));
    primes
}

/// Appends the primes of the `k`-variable function packed in `f` (for
/// `k ≤ 6`, one word holding the low `2^k` bits) to `out`.
fn primes_into(f: &[u64], k: usize, out: &mut Vec<Cube>) {
    match f {
        [w] => word_primes(*w, k, out),
        _ => table_primes(f, k, out),
    }
}

/// Turns the cofactor primes appended to `out` since `start` into primes
/// of the whole function: drops each one inside the other cofactor and
/// adds the split literal (variable bit `x`, `polarity`) to the rest.
fn keep_split_primes(
    out: &mut Vec<Cube>,
    start: usize,
    x: u64,
    polarity: bool,
    inside_other: impl Fn(&Cube) -> bool,
) {
    let mut kept = start;
    for i in start..out.len() {
        let p = out[i];
        if !inside_other(&p) {
            let value = if polarity { p.value() | x } else { p.value() };
            out[kept] = Cube::from_masks(p.mask() | x, value);
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// Primes of a function of `k ≤ 6` variables held in the low `2^k` bits
/// of one word, appended to `out`.
fn word_primes(f: u64, k: usize, out: &mut Vec<Cube>) {
    if f == 0 {
        return;
    }
    if f == tail_mask(k) {
        out.push(Cube::universe());
        return;
    }
    // k ≥ 1 here: a 0-variable table is either constant.
    let half = tail_mask(k - 1);
    let (f0, f1) = (f & half, f >> (1u32 << (k - 1)));
    if f0 == f1 {
        return word_primes(f0, k - 1, out);
    }
    let x = 1u64 << (k - 1);
    let inside = |g: u64| {
        move |p: &Cube| {
            let pattern = cube_word(p) & half;
            g & pattern == pattern
        }
    };
    word_primes(f0 & f1, k - 1, out);
    let start = out.len();
    word_primes(f0, k - 1, out);
    keep_split_primes(out, start, x, false, inside(f1));
    let start = out.len();
    word_primes(f1, k - 1, out);
    keep_split_primes(out, start, x, true, inside(f0));
}

/// Primes of a function of `k > 6` variables held in `2^(k-6)` words,
/// appended to `out`.
fn table_primes(f: &[u64], k: usize, out: &mut Vec<Cube>) {
    if f.iter().all(|&w| w == 0) {
        return;
    }
    if f.iter().all(|&w| w == u64::MAX) {
        out.push(Cube::universe());
        return;
    }
    let (f0, f1) = f.split_at(f.len() / 2);
    if f0 == f1 {
        return primes_into(f0, k - 1, out);
    }
    let both: Vec<u64> = f0.iter().zip(f1).map(|(a, b)| a & b).collect();
    let x = 1u64 << (k - 1);
    primes_into(&both, k - 1, out);
    let start = out.len();
    primes_into(f0, k - 1, out);
    keep_split_primes(out, start, x, false, |p| words_cover_cube(f1, k - 1, p));
    let start = out.len();
    primes_into(f1, k - 1, out);
    keep_split_primes(out, start, x, true, |p| words_cover_cube(f0, k - 1, p));
}

/// Prime implicants of both the on-set and off-set of a completely
/// specified function.
///
/// This is the set `P` of Eqn. 1: "the set of all prime implicants in the
/// on-set and off-set of f". Returned as `(on_primes, off_primes)`.
pub fn on_off_primes(f: &TruthTable) -> (Vec<Cube>, Vec<Cube>) {
    let dc = TruthTable::zero(f.num_vars());
    (prime_implicants(f, &dc), prime_implicants(&!f, &dc))
}

/// A bitset over on-set minterm indices (ranks in ascending order).
type Row = Vec<u64>;

/// The coverage row of cube `p`: the ranks of the on-set minterms it
/// contains. `rank_base[i]` is the rank of the first on-set minterm in
/// word `i`. A literal on a variable `>= n` can only be met by its
/// negative polarity.
fn coverage_row(p: &Cube, on: &TruthTable, rank_base: &[usize], row_words: usize) -> Row {
    let mut row = vec![0u64; row_words];
    if p.value() >> on.num_vars() != 0 {
        return row;
    }
    let pattern = cube_word(p);
    for i in cube_words(p, on.words().len()) {
        let w = on.words()[i];
        let mut hits = w & pattern;
        while hits != 0 {
            let bit = hits.trailing_zeros();
            hits &= hits - 1;
            let r = rank_base[i] + (w & ((1u64 << bit) - 1)).count_ones() as usize;
            row[r >> 6] |= 1u64 << (r & 63);
        }
    }
    row
}

/// Selects an irredundant cover of the on-set from a set of prime
/// implicants using essential primes plus greedy set covering.
///
/// Every on-set minterm ends up covered; don't-care minterms may or may
/// not be. The selection is heuristic (greedy), as in classical two-level
/// minimizers: each greedy step takes the prime covering the most
/// uncovered minterms, breaking ties toward fewer literals and then the
/// lower index. The result is irredundant with respect to single-cube
/// removal.
///
/// # Panics
///
/// Panics if the primes do not jointly cover the on-set (they always do
/// when produced by [`prime_implicants`] of the same function).
pub fn select_cover(on: &TruthTable, primes: &[Cube]) -> Sop {
    let n = on.num_vars();
    let minterm_count = on.count_ones() as usize;
    if minterm_count == 0 {
        return Sop::zero(n);
    }

    // Coverage matrix as bitset rows, one per prime.
    let row_words = minterm_count.div_ceil(64);
    let rank_base: Vec<usize> = on
        .words()
        .iter()
        .scan(0usize, |rank, &w| {
            let base = *rank;
            *rank += w.count_ones() as usize;
            Some(base)
        })
        .collect();
    let rows: Vec<Row> =
        primes.iter().map(|p| coverage_row(p, on, &rank_base, row_words)).collect();

    // Minterms covered at least once, and at least twice.
    let mut once = vec![0u64; row_words];
    let mut twice = vec![0u64; row_words];
    for row in &rows {
        for ((o, t), &r) in once.iter_mut().zip(&mut twice).zip(row) {
            *t |= *o & r;
            *o |= r;
        }
    }
    let mut uncovered: Row = vec![u64::MAX; row_words];
    if !minterm_count.is_multiple_of(64) {
        uncovered[row_words - 1] = (1u64 << (minterm_count % 64)) - 1;
    }
    let missing = uncovered.iter().zip(&once).position(|(u, o)| u & !o != 0);
    assert!(
        missing.is_none(),
        "prime set does not cover on-set minterm {}",
        missing
            .and_then(|i| {
                let r = (i << 6) + (uncovered[i] & !once[i]).trailing_zeros() as usize;
                on.minterms().nth(r)
            })
            .unwrap_or_default()
    );

    // Essential primes first: minterms covered by exactly one prime.
    let mut selected = vec![false; primes.len()];
    for (pi, row) in rows.iter().enumerate() {
        if row.iter().zip(&once).zip(&twice).any(|((&r, &o), &t)| r & o & !t != 0) {
            selected[pi] = true;
            uncovered.iter_mut().zip(row).for_each(|(u, &r)| *u &= !r);
        }
    }

    // Greedy set cover for the rest: the largest gain, then the fewest
    // literals, then the lowest index. A prime whose gain reaches zero
    // never gains again, so it leaves the candidate list.
    let mut candidates: Vec<usize> = (0..primes.len()).filter(|&pi| !selected[pi]).collect();
    while uncovered.iter().any(|&u| u != 0) {
        let mut best = None;
        candidates.retain(|&pi| {
            let row = rows[pi].iter().zip(&uncovered);
            let gain: u32 = row.map(|(r, u)| (r & u).count_ones()).sum();
            let key = (gain, Reverse((primes[pi].literal_count(), pi)));
            if gain > 0 && best.as_ref().is_none_or(|b| key > *b) {
                best = Some(key);
            }
            gain > 0
        });
        let Some((_, Reverse((_, pi)))) = best else { break };
        selected[pi] = true;
        uncovered.iter_mut().zip(&rows[pi]).for_each(|(u, &r)| *u &= !r);
    }

    // Irredundancy pass in index order: drop a selected prime whose
    // minterms the remaining others cover. When prime i is examined, the
    // earlier ones are final and the later ones all still selected, so
    // "the others" are the kept prefix plus the whole suffix.
    let chosen: Vec<usize> = (0..primes.len()).filter(|&pi| selected[pi]).collect();
    let mut suffix: Vec<Row> = vec![vec![0u64; row_words]; chosen.len() + 1];
    for i in (0..chosen.len()).rev() {
        let (head, tail) = suffix.split_at_mut(i + 1);
        for ((s, &later), &r) in head[i].iter_mut().zip(&tail[0]).zip(&rows[chosen[i]]) {
            *s = later | r;
        }
    }
    let mut prefix = vec![0u64; row_words];
    let mut kept = Vec::with_capacity(chosen.len());
    for (i, &pi) in chosen.iter().enumerate() {
        let redundant = rows[pi]
            .iter()
            .zip(&prefix)
            .zip(&suffix[i + 1])
            .all(|((&r, &before), &after)| r & !(before | after) == 0);
        if !redundant {
            prefix.iter_mut().zip(&rows[pi]).for_each(|(a, &r)| *a |= r);
            kept.push(primes[pi]);
        }
    }

    let mut sop = Sop::from_cubes(n, kept);
    sop.sort_by_literal_count();
    sop
}

/// Exact-prime, greedy-cover two-level minimization of an incompletely
/// specified function.
///
/// Returns a sum-of-products whose on-set contains `on` and is contained
/// in `on ∪ dc`.
///
/// # Examples
///
/// ```
/// use tm_logic::{qm::minimize, tt::TruthTable};
///
/// let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
/// let sop = minimize(&f, &TruthTable::zero(3));
/// assert_eq!(sop.len(), 3); // the three majority cubes
/// ```
pub fn minimize(on: &TruthTable, dc: &TruthTable) -> Sop {
    let primes = prime_implicants(on, dc);
    select_cover(on, &primes)
}

/// Minimized covers of the on-set and off-set of a completely specified
/// function: `(on_cover, off_cover)`.
pub fn minimize_both_phases(f: &TruthTable) -> (Sop, Sop) {
    let dc = TruthTable::zero(f.num_vars());
    (minimize(f, &dc), minimize(&!f, &dc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover_correct(on: &TruthTable, dc: &TruthTable, sop: &Sop) {
        for m in 0..on.num_minterms() {
            let v = sop.eval(m);
            if on.eval(m) {
                assert!(v, "on-set minterm {m} not covered");
            } else if !dc.eval(m) {
                assert!(!v, "off-set minterm {m} wrongly covered");
            }
        }
    }

    #[test]
    fn primes_of_constants() {
        assert!(prime_implicants(&TruthTable::zero(3), &TruthTable::zero(3)).is_empty());
        let p = prime_implicants(&TruthTable::one(3), &TruthTable::zero(3));
        assert_eq!(p, vec![Cube::universe()]);
    }

    #[test]
    fn primes_of_single_variable() {
        let f = TruthTable::var(3, 1);
        let p = prime_implicants(&f, &TruthTable::zero(3));
        assert_eq!(p, vec![Cube::from_literals(3, &[(1, true)])]);
    }

    #[test]
    fn xor_has_only_minterm_primes() {
        let f = &TruthTable::var(2, 0) ^ &TruthTable::var(2, 1);
        let p = prime_implicants(&f, &TruthTable::zero(2));
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|c| c.literal_count() == 2));
    }

    #[test]
    fn dont_cares_enlarge_primes() {
        // on = {3}, dc = {1, 2}: the single prime would be x0&x1 without
        // dc, but with dc the function can expand.
        let mut on = TruthTable::zero(2);
        on.set(0b11, true);
        let mut dc = TruthTable::zero(2);
        dc.set(0b01, true);
        dc.set(0b10, true);
        let p = prime_implicants(&on, &dc);
        // Primes: x0 (covers {1,3}) and x1 (covers {2,3}).
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|c| c.literal_count() == 1));
    }

    #[test]
    fn minimize_majority() {
        let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let sop = minimize(&f, &TruthTable::zero(3));
        check_cover_correct(&f, &TruthTable::zero(3), &sop);
        assert_eq!(sop.len(), 3);
    }

    #[test]
    fn minimize_with_dc_uses_dc() {
        let mut on = TruthTable::zero(3);
        on.set(0b111, true);
        let dc = TruthTable::from_fn(3, |m| m != 0b111 && m != 0b000);
        let sop = minimize(&on, &dc);
        check_cover_correct(&on, &dc, &sop);
        // With everything but 000 allowed, a single 1-literal cube suffices.
        assert_eq!(sop.len(), 1);
        assert_eq!(sop.cubes()[0].literal_count(), 1);
    }

    #[test]
    fn both_phases_partition() {
        let f = TruthTable::from_fn(4, |m| (m * 7 + 3) % 5 < 2);
        let (on, off) = minimize_both_phases(&f);
        for m in 0..16u64 {
            assert_eq!(on.eval(m), f.eval(m));
            assert_eq!(off.eval(m), !f.eval(m));
        }
    }

    #[test]
    fn random_functions_minimize_correctly() {
        // Deterministic pseudo-random functions over 5 vars.
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..25 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let s = seed;
            let f = TruthTable::from_fn(5, |m| (s >> (m % 64)) & 1 == 1);
            let sop = minimize(&f, &TruthTable::zero(5));
            check_cover_correct(&f, &TruthTable::zero(5), &sop);
        }
    }

    #[test]
    fn primes_are_maximal() {
        let f = TruthTable::from_fn(4, |m| m % 3 == 0);
        let primes = prime_implicants(&f, &TruthTable::zero(4));
        for p in &primes {
            assert!(f.covers_cube(p), "prime not an implicant");
            // Freeing any bound variable must leave the on-set.
            for (var, _) in p.literals() {
                let bigger = Cube::from_masks(p.mask() & !(1 << var), p.value() & !(1 << var));
                assert!(!f.covers_cube(&bigger), "prime {p:?} not maximal at var {var}");
            }
        }
    }
}
