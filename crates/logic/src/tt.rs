//! Dense truth tables for Boolean functions of a small number of inputs.
//!
//! Technology-independent nodes in the paper have 10–15 inputs (§4.1) and
//! mapped library cells have at most a handful, so an explicit truth table
//! (one bit per minterm, packed into `u64` words) is an exact and fast
//! function representation for everything that happens *locally* at a
//! node. Global functions over all primary inputs use BDDs instead
//! ([`crate::bdd`]).

use crate::cube::Cube;
use crate::sop::Sop;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Maximum supported input count for a dense truth table.
///
/// 2^20 bits = 128 KiB per table; enough for the 10–15-input nodes the
/// synthesis flow manipulates, with headroom.
pub const MAX_TT_VARS: usize = 20;

/// A dense truth table over `num_vars` inputs.
///
/// Bit `m` of the table is the function value on the minterm whose
/// assignment bits are `m` (variable `i` = bit `i` of `m`).
///
/// # Examples
///
/// ```
/// use tm_logic::tt::TruthTable;
///
/// let a = TruthTable::var(2, 0);
/// let b = TruthTable::var(2, 1);
/// let and = &a & &b;
/// assert!(and.eval(0b11));
/// assert!(!and.eval(0b01));
/// assert_eq!(and.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

fn word_count(num_vars: usize) -> usize {
    if num_vars >= 6 {
        1 << (num_vars - 6)
    } else {
        1
    }
}

/// Mask of valid bits in the (single) word of a table with fewer than six
/// variables.
pub(crate) fn tail_mask(num_vars: usize) -> u64 {
    if num_vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << num_vars)) - 1
    }
}

/// In-word projection patterns: bit `b` of `VAR_MASKS[v]` is bit `v` of
/// `b`, so variable `v < 6` is the same pattern in every word.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The minterms of a cube inside one 64-bit word: the AND of its literals
/// on variables 0–5 (literals on higher variables select words instead).
pub(crate) fn cube_word(cube: &Cube) -> u64 {
    let mut pattern = u64::MAX;
    for (v, &var_mask) in VAR_MASKS.iter().enumerate() {
        match cube.literal(v) {
            Some(true) => pattern &= var_mask,
            Some(false) => pattern &= !var_mask,
            None => {}
        }
    }
    pattern
}

/// Indices of the words of a `word_count`-word table that meet the
/// cube's literals on variables ≥ 6, ascending (a subset walk over the
/// free word-index bits).
pub(crate) fn cube_words(cube: &Cube, word_count: usize) -> impl Iterator<Item = usize> {
    let index_bits = word_count as u64 - 1;
    let bound = (cube.mask() >> 6) & index_bits;
    let base = (cube.value() >> 6) & bound;
    let free = index_bits & !bound;
    std::iter::successors(Some(0u64), move |&sub| {
        (sub != free).then(|| sub.wrapping_sub(free) & free)
    })
    .map(move |sub| (base | sub) as usize)
}

/// The cube with literals on variables `>= num_vars` dropped.
fn clip(cube: &Cube, num_vars: usize) -> Cube {
    let live = (1u64 << num_vars) - 1;
    Cube::from_masks(cube.mask() & live, cube.value())
}

/// Whether the table held in `words` (over `num_vars` inputs) contains
/// every minterm of `cube`; literals on variables `>= num_vars` are
/// ignored.
pub(crate) fn words_cover_cube(words: &[u64], num_vars: usize, cube: &Cube) -> bool {
    let cube = clip(cube, num_vars);
    let pattern = cube_word(&cube) & tail_mask(num_vars);
    cube_words(&cube, words.len()).all(|i| words[i] & pattern == pattern)
}

impl TruthTable {
    /// The constant-false function of `num_vars` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_TT_VARS`.
    pub fn zero(num_vars: usize) -> Self {
        assert!(num_vars <= MAX_TT_VARS, "truth table limited to {MAX_TT_VARS} vars");
        TruthTable { num_vars, words: vec![0; word_count(num_vars)] }
    }

    /// The constant-true function of `num_vars` inputs.
    pub fn one(num_vars: usize) -> Self {
        let mut t = Self::zero(num_vars);
        for w in &mut t.words {
            *w = u64::MAX;
        }
        t.canonicalize();
        t
    }

    /// The projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(num_vars: usize, var: usize) -> Self {
        assert!(var < num_vars, "variable {var} out of range {num_vars}");
        let mut t = Self::zero(num_vars);
        if var < 6 {
            for w in &mut t.words {
                *w = VAR_MASKS[var];
            }
        } else {
            // Whole words alternate.
            let stride = 1usize << (var - 6);
            for (i, w) in t.words.iter_mut().enumerate() {
                if i & stride != 0 {
                    *w = u64::MAX;
                }
            }
        }
        t.canonicalize();
        t
    }

    /// Builds a table from a predicate over minterm assignments.
    pub fn from_fn(num_vars: usize, mut f: impl FnMut(u64) -> bool) -> Self {
        let mut t = Self::zero(num_vars);
        for m in 0..(1u64 << num_vars) {
            if f(m) {
                t.set(m, true);
            }
        }
        t
    }

    /// Builds a table as the union of an SOP's cubes.
    ///
    /// # Panics
    ///
    /// Panics if the SOP's variable count differs from `num_vars`.
    pub fn from_sop(num_vars: usize, sop: &Sop) -> Self {
        assert_eq!(sop.num_vars(), num_vars, "SOP arity mismatch");
        let mut t = Self::zero(num_vars);
        for cube in sop.cubes() {
            t.or_cube(cube);
        }
        t
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of minterms (2^num_vars).
    pub fn num_minterms(&self) -> u64 {
        1u64 << self.num_vars
    }

    /// The packed table: bit `m & 63` of word `m >> 6` is the value on
    /// minterm `m`. Tables with fewer than six inputs use the low
    /// `2^num_vars` bits of one word; the rest are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Evaluates the function on a minterm.
    pub fn eval(&self, minterm: u64) -> bool {
        let word = (minterm >> 6) as usize;
        let bit = minterm & 63;
        (self.words.get(word).copied().unwrap_or(0) >> bit) & 1 == 1
    }

    /// Sets the function value on one minterm.
    ///
    /// # Panics
    ///
    /// Panics if the minterm is out of range.
    pub fn set(&mut self, minterm: u64, value: bool) {
        assert!(minterm < self.num_minterms(), "minterm out of range");
        let word = (minterm >> 6) as usize;
        let bit = minterm & 63;
        if value {
            self.words[word] |= 1u64 << bit;
        } else {
            self.words[word] &= !(1u64 << bit);
        }
    }

    /// ORs all minterms of a cube into the table. Literals on variables
    /// `>= num_vars` are ignored.
    pub fn or_cube(&mut self, cube: &Cube) {
        let cube = clip(cube, self.num_vars);
        let pattern = cube_word(&cube) & tail_mask(self.num_vars);
        for i in cube_words(&cube, self.words.len()) {
            self.words[i] |= pattern;
        }
    }

    /// Number of satisfying minterms.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the function is constant true.
    pub fn is_one(&self) -> bool {
        let tail = tail_mask(self.num_vars);
        self.words.iter().all(|&w| w == tail)
    }

    /// Whether the cube lies entirely inside the on-set. Literals on
    /// variables `>= num_vars` are ignored.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        words_cover_cube(&self.words, self.num_vars, cube)
    }

    /// Iterates the on-set minterms in ascending order.
    pub fn minterms(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = (i as u64) << 6;
            std::iter::successors((w != 0).then_some(w), |&rest| {
                let next = rest & (rest - 1);
                (next != 0).then_some(next)
            })
            .map(move |rest| base | u64::from(rest.trailing_zeros()))
        })
    }

    /// The cofactor with respect to `var = value` (a function of the same
    /// arity; `var` becomes irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        assert!(var < self.num_vars, "variable {var} out of range {}", self.num_vars);
        let mut out = self.clone();
        if var < 6 {
            let shift = 1u32 << var;
            let high = VAR_MASKS[var];
            for w in &mut out.words {
                *w = if value {
                    let h = *w & high;
                    h | (h >> shift)
                } else {
                    let l = *w & !high;
                    l | (l << shift)
                };
            }
        } else {
            let stride = 1usize << (var - 6);
            for i in (0..out.words.len()).filter(|i| i & stride == 0) {
                let w = out.words[if value { i | stride } else { i }];
                out.words[i] = w;
                out.words[i | stride] = w;
            }
        }
        out
    }

    /// Whether the function actually depends on `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn depends_on(&self, var: usize) -> bool {
        assert!(var < self.num_vars, "variable {var} out of range {}", self.num_vars);
        if var < 6 {
            let shift = 1u32 << var;
            let low = !VAR_MASKS[var];
            self.words.iter().any(|&w| ((w >> shift) ^ w) & low != 0)
        } else {
            let stride = 1usize << (var - 6);
            (0..self.words.len())
                .filter(|i| i & stride == 0)
                .any(|i| self.words[i] != self.words[i | stride])
        }
    }

    /// The support: variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Exchanges variables `a` and `b` (both `< num_vars`): the result on
    /// minterm `m` is the function on `m` with bits `a` and `b` swapped.
    fn swap_vars(&mut self, a: usize, b: usize) {
        let (a, b) = (a.min(b), a.max(b));
        if a == b {
            return;
        }
        if b < 6 {
            // Delta swap: bits with a=1,b=0 trade places with a=0,b=1.
            let shift = (1u32 << b) - (1u32 << a);
            let sel = VAR_MASKS[a] & !VAR_MASKS[b];
            for w in &mut self.words {
                let t = ((*w >> shift) ^ *w) & sel;
                *w ^= t ^ (t << shift);
            }
        } else if a < 6 {
            // Word i has b=0, word i|stride has b=1: trade the a=1 half of
            // the first with the a=0 half of the second.
            let shift = 1u32 << a;
            let high = VAR_MASKS[a];
            let stride = 1usize << (b - 6);
            for i in (0..self.words.len()).filter(|i| i & stride == 0) {
                let (lo, hi) = (self.words[i], self.words[i | stride]);
                self.words[i] = (lo & !high) | ((hi & !high) << shift);
                self.words[i | stride] = (hi & high) | ((lo & high) >> shift);
            }
        } else {
            let (sa, sb) = (1usize << (a - 6), 1usize << (b - 6));
            for i in (0..self.words.len()).filter(|i| i & sa != 0 && i & sb == 0) {
                self.words.swap(i, i ^ sa ^ sb);
            }
        }
    }

    /// Moves each listed variable `v` to position `to` by variable swaps.
    ///
    /// # Panics
    ///
    /// Panics if a variable or a target repeats or is out of range.
    fn move_vars(&mut self, moves: impl Iterator<Item = (usize, usize)>) {
        // at[p]: original variable now at position p; pos is its inverse.
        let mut at: Vec<usize> = (0..self.num_vars).collect();
        let mut pos = at.clone();
        let (mut moved, mut taken) = (vec![false; self.num_vars], vec![false; self.num_vars]);
        for (v, to) in moves {
            assert!(v < self.num_vars && to < self.num_vars, "variable out of range");
            assert!(!moved[v] && !taken[to], "variable {v} or target {to} repeated");
            moved[v] = true;
            taken[to] = true;
            let from = pos[v];
            if from != to {
                self.swap_vars(from, to);
                let displaced = at[to];
                at.swap(from, to);
                pos[v] = to;
                pos[displaced] = from;
            }
        }
    }

    /// The same function over `num_vars` inputs with variable `i`
    /// renamed to `map[i]`; the result does not depend on the new
    /// variables outside `map`.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not have one distinct target below
    /// `num_vars` per variable, or if `num_vars > MAX_TT_VARS`.
    pub fn expand(&self, num_vars: usize, map: &[usize]) -> Self {
        assert_eq!(map.len(), self.num_vars, "one target per variable");
        let mut out = Self::zero(num_vars);
        if self.num_vars < 6 {
            // Replicate the pattern over the new low variables.
            let mut w = self.words[0];
            for v in self.num_vars..num_vars.min(6) {
                w |= w << (1u32 << v);
            }
            out.words.iter_mut().for_each(|o| *o = w);
        } else {
            let len = self.words.len();
            for (i, o) in out.words.iter_mut().enumerate() {
                *o = self.words[i % len];
            }
        }
        out.move_vars(map.iter().copied().enumerate());
        out
    }

    /// The function restricted to the listed variables: variable `j` of
    /// the result is variable `vars[j]` of `self`, and every unlisted
    /// variable is fixed to 0. When the function does not depend on the
    /// unlisted variables, this is the same function on fewer inputs.
    ///
    /// # Panics
    ///
    /// Panics if a listed variable is out of range or repeated.
    pub fn project(&self, vars: &[usize]) -> Self {
        let mut moved = self.clone();
        moved.move_vars(vars.iter().enumerate().map(|(j, &v)| (v, j)));
        let mut out = Self::zero(vars.len());
        let len = out.words.len();
        out.words.copy_from_slice(&moved.words[..len]);
        out.canonicalize();
        out
    }

    fn canonicalize(&mut self) {
        if self.num_vars < 6 {
            self.words[0] &= tail_mask(self.num_vars);
        }
    }
}

impl Not for &TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        let mut out = TruthTable {
            num_vars: self.num_vars,
            words: self.words.iter().map(|w| !w).collect(),
        };
        out.canonicalize();
        out
    }
}

impl BitAnd for &TruthTable {
    type Output = TruthTable;
    fn bitand(self, rhs: &TruthTable) -> TruthTable {
        assert_eq!(self.num_vars, rhs.num_vars, "truth table arity mismatch");
        TruthTable {
            num_vars: self.num_vars,
            words: self.words.iter().zip(&rhs.words).map(|(a, b)| a & b).collect(),
        }
    }
}

impl BitOr for &TruthTable {
    type Output = TruthTable;
    fn bitor(self, rhs: &TruthTable) -> TruthTable {
        assert_eq!(self.num_vars, rhs.num_vars, "truth table arity mismatch");
        TruthTable {
            num_vars: self.num_vars,
            words: self.words.iter().zip(&rhs.words).map(|(a, b)| a | b).collect(),
        }
    }
}

impl BitXor for &TruthTable {
    type Output = TruthTable;
    fn bitxor(self, rhs: &TruthTable) -> TruthTable {
        assert_eq!(self.num_vars, rhs.num_vars, "truth table arity mismatch");
        TruthTable {
            num_vars: self.num_vars,
            words: self.words.iter().zip(&rhs.words).map(|(a, b)| a ^ b).collect(),
        }
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, {} ones)", self.num_vars, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let z = TruthTable::zero(3);
        let o = TruthTable::one(3);
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(o.count_ones(), 8);
        assert_eq!((!&o).count_ones(), 0);
    }

    #[test]
    fn variable_projection_small_and_large() {
        for n in [1usize, 3, 6, 7, 9] {
            for v in 0..n {
                let t = TruthTable::var(n, v);
                for m in 0..(1u64 << n) {
                    assert_eq!(t.eval(m), (m >> v) & 1 == 1, "n={n} v={v} m={m}");
                }
            }
        }
    }

    #[test]
    fn boolean_ops_match_bitwise_semantics() {
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 3);
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        for m in 0..16u64 {
            let av = m & 1 == 1;
            let bv = (m >> 3) & 1 == 1;
            assert_eq!(and.eval(m), av && bv);
            assert_eq!(or.eval(m), av || bv);
            assert_eq!(xor.eval(m), av ^ bv);
        }
    }

    #[test]
    fn cube_union() {
        let mut t = TruthTable::zero(3);
        t.or_cube(&Cube::from_literals(3, &[(0, true)]));
        assert_eq!(t.count_ones(), 4);
        t.or_cube(&Cube::from_literals(3, &[(2, false)]));
        // x0 | !x2 has 4 + 4 - 2 = 6 minterms
        assert_eq!(t.count_ones(), 6);
        assert!(t.covers_cube(&Cube::from_literals(3, &[(0, true), (2, true)])));
        assert!(!t.covers_cube(&Cube::universe()));
    }

    #[test]
    fn cofactor_and_support() {
        // f = x0 & x2 over 3 vars
        let f = &TruthTable::var(3, 0) & &TruthTable::var(3, 2);
        assert_eq!(f.support(), vec![0, 2]);
        let f_x2 = f.cofactor(2, true);
        // cofactor is x0 (independent of x2)
        for m in 0..8u64 {
            assert_eq!(f_x2.eval(m), m & 1 == 1);
        }
        assert!(f.cofactor(2, false).is_zero());
        assert!(!f.depends_on(1));
    }

    #[test]
    fn from_fn_roundtrip() {
        let maj = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        assert_eq!(maj.count_ones(), 4);
        assert!(maj.eval(0b110));
        assert!(!maj.eval(0b100));
        assert_eq!(maj.minterms().collect::<Vec<_>>(), vec![0b011, 0b101, 0b110, 0b111]);
    }
}
