//! The word-parallel two-level layer against its test-only reference:
//! Shannon-cofactoring primes, bitset cover selection and word-level
//! truth-table operations must reproduce the Quine–McCluskey primes,
//! the list-based greedy cover and the per-minterm definitions exactly,
//! on random functions of 0–12 inputs from sparse to dense.
//!
//! Runs on the in-repo `tm-testkit` property runner; a failing case
//! prints its seed (reproduce with `TM_PROP_SEED=<seed>`).

mod reference;

use std::time::{Duration, Instant};
use tm_logic::{qm, Cube, Sop, TruthTable};
use tm_testkit::prop::{check, Config, Gen};
use tm_testkit::prop_assert_eq;

/// A random table over `n` inputs. Each word is the AND (sparse) or OR
/// (dense) of one to four random words, so densities run from 1/16 to
/// 15/16; everything shrinks toward the zero function.
fn gen_table(g: &mut Gen, n: usize) -> TruthTable {
    let draws = g.gen_range(1usize..=4);
    let dense = g.next_bool();
    let words: Vec<u64> = (0..1usize << n.saturating_sub(6))
        .map(|_| {
            let parts = g.bitvec(draws, 64);
            if dense {
                parts.iter().fold(0, |a, b| a | b)
            } else {
                parts.iter().fold(u64::MAX, |a, b| a & b)
            }
        })
        .collect();
    TruthTable::from_fn(n, |m| (words[(m >> 6) as usize] >> (m & 63)) & 1 == 1)
}

/// An on-set and a disjoint don't-care set (empty half the time) over
/// `min_vars..=max_vars` inputs.
fn gen_on_dc(g: &mut Gen, min_vars: usize, max_vars: usize) -> (TruthTable, TruthTable) {
    let n = g.gen_range(min_vars..=max_vars);
    let on = gen_table(g, n);
    let dc = if g.next_bool() { &gen_table(g, n) & &!&on } else { TruthTable::zero(n) };
    (on, dc)
}

/// A random cube over `n` inputs; sometimes it also binds variables
/// `>= n`, which the table operations ignore.
fn gen_cube(g: &mut Gen, n: usize) -> Cube {
    let span = if g.gen_bool(0.2) { 64 } else { n as u32 };
    Cube::from_masks(g.bits(span) & g.bits(span), g.bits(span))
}

fn cfg(cases: u32) -> Config {
    Config::with_cases(cases)
}

/// Primes, covers (in the given and the reversed prime order, which
/// moves every index tie-break) and minimized SOPs equal the reference.
fn two_level_agrees(on: &TruthTable, dc: &TruthTable) -> Result<(), String> {
    let primes = qm::prime_implicants(on, dc);
    prop_assert_eq!(&primes, &reference::prime_implicants(on, dc));
    prop_assert_eq!(qm::select_cover(on, &primes), reference::select_cover(on, &primes));
    let reversed: Vec<Cube> = primes.iter().rev().copied().collect();
    prop_assert_eq!(qm::select_cover(on, &reversed), reference::select_cover(on, &reversed));
    prop_assert_eq!(qm::minimize(on, dc), reference::minimize(on, dc));
    Ok(())
}

/// Up to 9 inputs: many cases.
#[test]
fn two_level_matches_reference_up_to_9_inputs() {
    check(
        "two_level_matches_reference_up_to_9_inputs",
        &cfg(128),
        |g| gen_on_dc(g, 0, 9),
        |(on, dc)| two_level_agrees(on, dc),
    );
}

/// 10 to 12 inputs, the arity of the synthesis flow's nodes: fewer
/// cases, since the reference is slow on dense tables.
#[test]
fn two_level_matches_reference_at_10_to_12_inputs() {
    check(
        "two_level_matches_reference_at_10_to_12_inputs",
        &cfg(8),
        |g| gen_on_dc(g, 10, 12),
        |(on, dc)| two_level_agrees(on, dc),
    );
}

/// Cover selection over an arbitrary cube list (duplicates, non-primes,
/// cubes binding variables outside the table) matches the reference.
#[test]
fn select_cover_matches_reference_on_arbitrary_cube_lists() {
    check(
        "select_cover_matches_reference_on_arbitrary_cube_lists",
        &cfg(64),
        |g| {
            let n = g.gen_range(0usize..=9);
            let cubes: Vec<Cube> = (0..g.gen_range(1usize..24)).map(|_| gen_cube(g, n)).collect();
            (n, cubes)
        },
        |(n, cubes)| {
            // The on-set is what the list covers, so selection succeeds.
            let sop = Sop::from_cubes(*n, cubes.clone());
            let on = TruthTable::from_fn(*n, |m| sop.eval(m));
            prop_assert_eq!(qm::select_cover(&on, cubes), reference::select_cover(&on, cubes));
            Ok(())
        },
    );
}

/// Checks every word-level table operation of `t` against its
/// per-minterm definition.
fn word_ops_agree(t: &TruthTable, cubes: &[Cube], g_swap: (usize, usize)) -> Result<(), String> {
    let n = t.num_vars();
    prop_assert_eq!(t.minterms().collect::<Vec<_>>(), reference::minterms(t));
    prop_assert_eq!(t.support(), reference::support(t));
    for v in 0..n {
        for value in [false, true] {
            prop_assert_eq!(t.cofactor(v, value), reference::cofactor(t, v, value), "var {}", v);
        }
        prop_assert_eq!(t.depends_on(v), reference::support(t).contains(&v));
    }
    for c in cubes {
        prop_assert_eq!(t.covers_cube(c), reference::covers_cube(t, c), "cube {:?}", c);
    }
    let sop = Sop::from_cubes(n, cubes.to_vec());
    prop_assert_eq!(TruthTable::from_sop(n, &sop), reference::from_sop(n, &sop));
    let mut t_or = t.clone();
    for c in cubes {
        t_or.or_cube(c);
    }
    prop_assert_eq!(t_or, t | &reference::from_sop(n, &sop));
    if n > 0 {
        // Renaming by a transposition is one variable swap.
        let (a, b) = (g_swap.0 % n, g_swap.1 % n);
        let mut transposition: Vec<usize> = (0..n).collect();
        transposition.swap(a, b);
        let swapped = t.expand(n, &transposition);
        prop_assert_eq!(swapped, reference::swap_vars(t, a, b), "swap {} {}", a, b);
    }
    Ok(())
}

/// Word-level cofactor, support, minterms, cube cover/union, SOP
/// tables and variable swaps equal their per-minterm definitions.
#[test]
fn word_ops_match_per_minterm_definitions() {
    check(
        "word_ops_match_per_minterm_definitions",
        &cfg(96),
        |g| {
            let n = g.gen_range(0usize..=10);
            let t = gen_table(g, n);
            let cubes: Vec<Cube> = (0..g.gen_range(0usize..6)).map(|_| gen_cube(g, n)).collect();
            (t, cubes, (g.gen_range(0usize..64), g.gen_range(0usize..64)))
        },
        |(t, cubes, swap)| {
            // Implicant cubes exercise the `true` side of covers_cube.
            let mut all = cubes.clone();
            let primes = qm::prime_implicants(t, &TruthTable::zero(t.num_vars()));
            all.extend(primes.into_iter().take(4));
            word_ops_agree(t, &all, *swap)
        },
    );
}

/// `expand` to a wider space under a random injective map, and
/// `project` onto a random ordered subset, match their definitions.
#[test]
fn expand_and_project_match_definitions() {
    check(
        "expand_and_project_match_definitions",
        &cfg(96),
        |g| {
            let n = g.gen_range(0usize..=8);
            let wide = n + g.gen_range(0usize..=3);
            let t = gen_table(g, n);
            // A random injective map n → wide (Fisher–Yates prefix).
            let mut slots: Vec<usize> = (0..wide).collect();
            for i in 0..n {
                let j = g.gen_range(i..wide);
                slots.swap(i, j);
            }
            let mut keep: Vec<usize> = (0..n).filter(|_| g.next_bool()).collect();
            if keep.len() > 1 {
                let j = g.gen_range(0..keep.len());
                keep.swap(0, j);
            }
            (t, wide, slots[..n].to_vec(), keep)
        },
        |(t, wide, map, keep)| {
            prop_assert_eq!(t.expand(*wide, map), reference::expand(t, *wide, map));
            prop_assert_eq!(t.project(keep), reference::project(t, keep));
            Ok(())
        },
    );
}

/// Every variable pair and every cofactor across the in-word/word-stride
/// boundary (variables 5 and 6), on tables of 6 to 8 inputs.
#[test]
fn word_ops_at_the_five_six_boundary() {
    let mut seed = 0x5eed_0506_u64;
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        seed
    };
    for n in 6..=8usize {
        let words: Vec<u64> = (0..1 << (n - 6)).map(|_| next()).collect();
        let t = TruthTable::from_fn(n, |m| (words[(m >> 6) as usize] >> (m & 63)) & 1 == 1);
        let cubes: Vec<Cube> = [(5, 6), (4, 6), (5, 7), (0, 5)]
            .iter()
            .filter(|&&(_, b)| b < n)
            .flat_map(|&(a, b)| {
                [
                    Cube::from_literals(n, &[(a, true), (b, false)]),
                    Cube::from_literals(n, &[(a, false), (b, true)]),
                ]
            })
            .collect();
        for a in 0..n {
            for b in 0..n {
                if let Err(e) = word_ops_agree(&t, &cubes, (a, b)) {
                    panic!("n={n} swap ({a},{b}): {e}");
                }
            }
        }
        // A function that only depends on variable 5 or 6.
        for v in [5, 6].into_iter().filter(|&v| v < n) {
            let x = TruthTable::var(n, v);
            assert_eq!(x.support(), vec![v]);
            assert_eq!(x.cofactor(v, true), TruthTable::one(n));
            assert!(x.cofactor(v, false).is_zero());
        }
    }
}

/// Primes of two 16-input functions: parity (2^15 minterm primes) and a
/// dense random function, checked for being exactly the prime set.
/// In a release build both finish well under a second.
#[test]
fn sixteen_input_primes_are_exact_and_fast() {
    let n = 16;
    let parity = TruthTable::from_fn(n, |m| m.count_ones() % 2 == 1);
    let mut seed = 0x16_16_16_u64;
    let dense = TruthTable::from_fn(n, |_| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        !(seed >> 33).is_multiple_of(4)
    });
    let zero = TruthTable::zero(n);

    let start = Instant::now();
    let parity_primes = qm::prime_implicants(&parity, &zero);
    let dense_primes = qm::prime_implicants(&dense, &zero);
    let elapsed = start.elapsed();

    assert_eq!(parity_primes.len(), 1 << 15);
    assert!(parity_primes.iter().all(|p| p.literal_count() == 16 && parity.covers_cube(p)));
    // Dense: implicants, maximal, and jointly the whole function.
    for p in &dense_primes {
        assert!(dense.covers_cube(p), "{p:?} is not an implicant");
        for (var, _) in p.literals() {
            let bigger = Cube::from_masks(p.mask() & !(1 << var), p.value());
            assert!(!dense.covers_cube(&bigger), "{p:?} is not maximal at x{var}");
        }
    }
    assert_eq!(TruthTable::from_sop(n, &Sop::from_cubes(n, dense_primes)), dense);
    if !cfg!(debug_assertions) {
        assert!(elapsed < Duration::from_secs(1), "16-input primes took {elapsed:?}");
    }
}
