//! Test-only reference implementations of the two-level layer: the
//! level-by-level Quine–McCluskey prime generator, the list-based greedy
//! cover selection, and per-minterm definitions of the truth-table
//! operations. The library's word-parallel versions must agree with
//! these exactly (see `two_level_oracle.rs`).

use std::collections::{HashMap, HashSet};
use tm_logic::{Cube, Sop, TruthTable};

/// All prime implicants of `on ∪ dc` by Quine–McCluskey merging, sorted
/// by `(literal_count, mask, value)`.
pub fn prime_implicants(on: &TruthTable, dc: &TruthTable) -> Vec<Cube> {
    assert_eq!(on.num_vars(), dc.num_vars(), "on/dc arity mismatch");
    let n = on.num_vars();
    let care_or_dc = on | dc;

    if care_or_dc.is_zero() {
        return Vec::new();
    }
    if care_or_dc.is_one() {
        return vec![Cube::universe()];
    }

    // Level 0: all minterms of on ∪ dc.
    let mut current: HashSet<Cube> =
        minterms(&care_or_dc).into_iter().map(|m| Cube::minterm(n, m)).collect();
    let mut primes: Vec<Cube> = Vec::new();

    while !current.is_empty() {
        let mut merged_away: HashSet<Cube> = HashSet::new();
        let mut next: HashSet<Cube> = HashSet::new();

        // Group cubes by their bound-variable mask; only same-mask cubes
        // can merge, and a merge partner differs in exactly one value bit.
        let mut by_mask: HashMap<u64, HashSet<u64>> = HashMap::new();
        for c in &current {
            by_mask.entry(c.mask()).or_default().insert(c.value());
        }
        for c in &current {
            let values = &by_mask[&c.mask()];
            let mut bit_iter = c.mask();
            while bit_iter != 0 {
                let bit = bit_iter & bit_iter.wrapping_neg();
                bit_iter &= bit_iter - 1;
                let partner = c.value() ^ bit;
                if values.contains(&partner) {
                    merged_away.insert(*c);
                    merged_away.insert(Cube::from_masks(c.mask(), partner));
                    next.insert(Cube::from_masks(c.mask() & !bit, c.value() & !bit));
                }
            }
        }

        for c in &current {
            if !merged_away.contains(c) {
                primes.push(*c);
            }
        }
        current = next;
    }

    primes.sort_by_key(|c| (c.literal_count(), c.mask(), c.value()));
    primes.dedup();
    primes
}

/// Essential primes, then greedy covering (gain, then literal count,
/// then index), then an in-order irredundancy pass; covering lists per
/// minterm.
pub fn select_cover(on: &TruthTable, primes: &[Cube]) -> Sop {
    let n = on.num_vars();
    let minterms: Vec<u64> = minterms(on);
    if minterms.is_empty() {
        return Sop::zero(n);
    }

    // Coverage matrix: for each on-set minterm, which primes cover it.
    let mut covering: Vec<Vec<usize>> = vec![Vec::new(); minterms.len()];
    for (pi, p) in primes.iter().enumerate() {
        for (mi, &m) in minterms.iter().enumerate() {
            if p.eval(m) {
                covering[mi].push(pi);
            }
        }
    }
    for (mi, cov) in covering.iter().enumerate() {
        assert!(
            !cov.is_empty(),
            "prime set does not cover on-set minterm {}",
            minterms[mi]
        );
    }

    let mut selected: HashSet<usize> = HashSet::new();
    let mut uncovered: HashSet<usize> = (0..minterms.len()).collect();

    // Essential primes first: minterms covered by exactly one prime.
    for cov in &covering {
        if cov.len() == 1 {
            selected.insert(cov[0]);
        }
    }
    uncovered.retain(|&mi| !covering[mi].iter().any(|pi| selected.contains(pi)));

    // Greedy set cover for the rest.
    while !uncovered.is_empty() {
        let mut best = usize::MAX;
        let mut best_gain = 0usize;
        let mut gains: HashMap<usize, usize> = HashMap::new();
        for &mi in &uncovered {
            for &pi in &covering[mi] {
                *gains.entry(pi).or_insert(0) += 1;
            }
        }
        for (&pi, &gain) in &gains {
            // Tie-break toward fewer literals, then stable by index.
            if gain > best_gain
                || (gain == best_gain
                    && best != usize::MAX
                    && (primes[pi].literal_count(), pi)
                        < (primes[best].literal_count(), best))
            {
                best = pi;
                best_gain = gain;
            }
        }
        selected.insert(best);
        uncovered.retain(|&mi| !covering[mi].contains(&best));
    }

    // Irredundancy pass: drop any selected prime whose on-set minterms are
    // all covered by the others.
    let mut chosen: Vec<usize> = selected.into_iter().collect();
    chosen.sort_unstable();
    let mut i = 0;
    while i < chosen.len() {
        let pi = chosen[i];
        let redundant = minterms.iter().enumerate().all(|(mi, _)| {
            !covering[mi].contains(&pi)
                || covering[mi].iter().any(|&qj| qj != pi && chosen.contains(&qj))
        });
        if redundant {
            chosen.remove(i);
        } else {
            i += 1;
        }
    }

    let mut sop = Sop::from_cubes(n, chosen.into_iter().map(|pi| primes[pi]).collect());
    sop.sort_by_literal_count();
    sop
}

/// Reference `minimize`: reference primes, reference cover.
pub fn minimize(on: &TruthTable, dc: &TruthTable) -> Sop {
    select_cover(on, &prime_implicants(on, dc))
}

/// On-set minterms, ascending, by evaluating every minterm.
pub fn minterms(t: &TruthTable) -> Vec<u64> {
    (0..t.num_minterms()).filter(|&m| t.eval(m)).collect()
}

/// `t` with `var` fixed to `value`, minterm by minterm.
pub fn cofactor(t: &TruthTable, var: usize, value: bool) -> TruthTable {
    let bit = 1u64 << var;
    TruthTable::from_fn(t.num_vars(), |m| t.eval(if value { m | bit } else { m & !bit }))
}

/// Variables whose two cofactors differ somewhere.
pub fn support(t: &TruthTable) -> Vec<usize> {
    (0..t.num_vars())
        .filter(|&v| (0..t.num_minterms()).any(|m| t.eval(m) != t.eval(m ^ (1 << v))))
        .collect()
}

/// The cube's minterms over `num_vars` inputs; literals on variables
/// `>= num_vars` are ignored.
pub fn cube_minterms(num_vars: usize, cube: &Cube) -> Vec<u64> {
    let live = (1u64 << num_vars) - 1;
    (0..1u64 << num_vars).filter(|&m| (m ^ cube.value()) & cube.mask() & live == 0).collect()
}

/// Union of the SOP's cubes, minterm by minterm.
pub fn from_sop(num_vars: usize, sop: &Sop) -> TruthTable {
    let mut t = TruthTable::zero(num_vars);
    for c in sop.cubes() {
        for m in cube_minterms(num_vars, c) {
            t.set(m, true);
        }
    }
    t
}

/// Whether every minterm of the cube is in `t`.
pub fn covers_cube(t: &TruthTable, cube: &Cube) -> bool {
    cube_minterms(t.num_vars(), cube).into_iter().all(|m| t.eval(m))
}

/// `t` with bits `a` and `b` of every minterm exchanged.
pub fn swap_vars(t: &TruthTable, a: usize, b: usize) -> TruthTable {
    TruthTable::from_fn(t.num_vars(), |m| {
        let (x, y) = ((m >> a) & 1, (m >> b) & 1);
        let swapped = (m & !(1 << a) & !(1 << b)) | (x << b) | (y << a);
        t.eval(swapped)
    })
}

/// `t` over `num_vars` inputs with variable `i` read from `map[i]`.
pub fn expand(t: &TruthTable, num_vars: usize, map: &[usize]) -> TruthTable {
    TruthTable::from_fn(num_vars, |m| {
        let inner = map.iter().enumerate().fold(0u64, |acc, (i, &to)| acc | (((m >> to) & 1) << i));
        t.eval(inner)
    })
}

/// `t` on `vars.len()` inputs, variable `j` read from `vars[j]`, every
/// other variable 0.
pub fn project(t: &TruthTable, vars: &[usize]) -> TruthTable {
    TruthTable::from_fn(vars.len(), |m| {
        let full = vars.iter().enumerate().fold(0u64, |acc, (j, &v)| acc | (((m >> j) & 1) << v));
        t.eval(full)
    })
}
