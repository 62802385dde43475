//! Value generators with shrinking.
//!
//! A [`Gen`] produces random values from a [`TestRng`] and can propose
//! smaller candidates for a failing value (`shrink`). Numeric ranges
//! shrink toward the low end of the range (or toward zero when the range
//! spans it); vectors shrink by dropping elements and then shrinking
//! elements in place. Composite generators built with [`map`] or
//! [`from_fn`] do not shrink — the minimal-input report then shows the
//! original failing value, which is still fully reproducible from the
//! printed seed.

use crate::rng::TestRng;
use std::fmt::Debug;

/// A generator of test values.
pub trait Gen {
    /// The generated type.
    type Value: Clone + Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Push shrink candidates for `v` (simpler values that might still
    /// fail). The default proposes nothing.
    fn shrink(&self, _v: &Self::Value, _out: &mut Vec<Self::Value>) {}
}

/// `f64` in `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform `f64` generator over `[lo, hi)`.
pub fn f64_range(lo: f64, hi: f64) -> F64Range {
    assert!(lo < hi, "empty f64 range {lo}..{hi}");
    F64Range { lo, hi }
}

impl Gen for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.f64_in(self.lo, self.hi)
    }

    fn shrink(&self, v: &f64, out: &mut Vec<f64>) {
        let target = if self.lo <= 0.0 && 0.0 < self.hi {
            0.0
        } else {
            self.lo
        };
        if (v - target).abs() < 1e-12 {
            return;
        }
        // Halving ladder from `target` up toward `v`: greedy acceptance of
        // the first still-failing candidate turns the shrink loop into a
        // binary search for the failure boundary.
        out.push(target);
        let mut delta = (v - target) / 2.0;
        for _ in 0..8 {
            let cand = v - delta;
            if (cand - target).abs() > 1e-12 && (cand - v).abs() > 1e-12 {
                out.push(cand);
            }
            delta /= 2.0;
        }
    }
}

/// `usize` in `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct UsizeRange {
    lo: usize,
    hi: usize,
}

/// Uniform `usize` generator over `[lo, hi)`.
pub fn usize_range(lo: usize, hi: usize) -> UsizeRange {
    assert!(lo < hi, "empty usize range {lo}..{hi}");
    UsizeRange { lo, hi }
}

impl Gen for UsizeRange {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        rng.usize_in(self.lo, self.hi)
    }

    fn shrink(&self, v: &usize, out: &mut Vec<usize>) {
        if *v == self.lo {
            return;
        }
        // Halving ladder toward `v` (ending at v-1): greedy acceptance
        // binary-searches for the failure boundary.
        out.push(self.lo);
        let mut delta = (v - self.lo) / 2;
        while delta > 0 {
            let cand = v - delta;
            if cand != self.lo {
                out.push(cand);
            }
            delta /= 2;
        }
        out.push(v - 1);
        out.dedup();
    }
}

/// `u64` in `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct U64Range {
    lo: u64,
    hi: u64,
}

/// Uniform `u64` generator over `[lo, hi)`.
pub fn u64_range(lo: u64, hi: u64) -> U64Range {
    assert!(lo < hi, "empty u64 range {lo}..{hi}");
    U64Range { lo, hi }
}

impl Gen for U64Range {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        rng.u64_in(self.lo, self.hi)
    }

    fn shrink(&self, v: &u64, out: &mut Vec<u64>) {
        if *v == self.lo {
            return;
        }
        out.push(self.lo);
        let mut delta = (v - self.lo) / 2;
        while delta > 0 {
            let cand = v - delta;
            if cand != self.lo {
                out.push(cand);
            }
            delta /= 2;
        }
        out.push(v - 1);
        out.dedup();
    }
}

/// `Vec<T>` with length in `[min_len, max_len)`.
#[derive(Debug, Clone)]
pub struct VecOf<G> {
    elem: G,
    min_len: usize,
    max_len: usize,
}

/// Vector generator: length uniform in `[min_len, max_len)`, elements
/// from `elem`.
pub fn vec_of<G: Gen>(elem: G, min_len: usize, max_len: usize) -> VecOf<G> {
    assert!(min_len < max_len, "empty length range {min_len}..{max_len}");
    VecOf {
        elem,
        min_len,
        max_len,
    }
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<G::Value> {
        let len = rng.usize_in(self.min_len, self.max_len);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<G::Value>, out: &mut Vec<Vec<G::Value>>) {
        // Structurally smaller first: drop elements while the minimum
        // length allows.
        if v.len() > self.min_len {
            out.push(v[..self.min_len].to_vec());
            out.push(v[..v.len() - 1].to_vec());
            if v.len() > 1 {
                out.push(v[1..].to_vec());
            }
        }
        // Then element-wise shrinks, one position at a time.
        let mut elem_cands = Vec::new();
        for (i, e) in v.iter().enumerate() {
            elem_cands.clear();
            self.elem.shrink(e, &mut elem_cands);
            for c in elem_cands.drain(..) {
                let mut smaller = v.clone();
                smaller[i] = c;
                out.push(smaller);
            }
            if i >= 4 {
                break; // bound the candidate set for long vectors
            }
        }
    }
}

/// One of a fixed set of values.
#[derive(Debug, Clone)]
pub struct Choose<T> {
    options: Vec<T>,
}

/// Pick uniformly from `options` (cloned). Shrinks toward the first option.
pub fn choose<T: Clone + Debug>(options: &[T]) -> Choose<T> {
    assert!(!options.is_empty(), "choose from an empty set");
    Choose {
        options: options.to_vec(),
    }
}

impl<T: Clone + Debug + PartialEq> Gen for Choose<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.options[rng.usize_in(0, self.options.len())].clone()
    }

    fn shrink(&self, v: &T, out: &mut Vec<T>) {
        if self.options[0] != *v {
            out.push(self.options[0].clone());
        }
    }
}

/// Generator from a plain closure (no shrinking).
pub struct FromFn<F> {
    f: F,
}

/// Build a generator from `f` — the escape hatch for size-dependent or
/// composite values (the analogue of `prop_flat_map`).
pub fn from_fn<T, F>(f: F) -> FromFn<F>
where
    T: Clone + Debug,
    F: Fn(&mut TestRng) -> T,
{
    FromFn { f }
}

impl<T, F> Gen for FromFn<F>
where
    T: Clone + Debug,
    F: Fn(&mut TestRng) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(rng)
    }
}

/// Mapped generator (no shrinking — the mapping is not invertible).
pub struct Map<G, F> {
    inner: G,
    f: F,
}

/// Apply `f` to every generated value.
pub fn map<G, T, F>(inner: G, f: F) -> Map<G, F>
where
    G: Gen,
    T: Clone + Debug,
    F: Fn(G::Value) -> T,
{
    Map { inner, f }
}

impl<G, T, F> Gen for Map<G, F>
where
    G: Gen,
    T: Clone + Debug,
    F: Fn(G::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// ASCII string with length in `[min_len, max_len)`, drawn from printable
/// characters plus separators (`\n`, `\t`, `,`) — shaped to stress text
/// parsers.
#[derive(Debug, Clone, Copy)]
pub struct AsciiString {
    min_len: usize,
    max_len: usize,
}

/// Parser-stress string generator.
pub fn ascii_string(min_len: usize, max_len: usize) -> AsciiString {
    assert!(min_len < max_len, "empty length range {min_len}..{max_len}");
    AsciiString { min_len, max_len }
}

impl Gen for AsciiString {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let len = rng.usize_in(self.min_len, self.max_len);
        (0..len)
            .map(|_| match rng.below(16) {
                0 => '\n',
                1 => ',',
                2 => '\t',
                3 => '.',
                4 => '-',
                _ => (b' ' + rng.below(95) as u8) as char,
            })
            .collect()
    }

    fn shrink(&self, v: &String, out: &mut Vec<String>) {
        if v.len() <= self.min_len {
            return;
        }
        let half: String = v.chars().take(v.len() / 2).collect();
        if half.len() >= self.min_len {
            out.push(half);
        }
        let minimal: String = v.chars().take(self.min_len).collect();
        out.push(minimal);
    }
}

macro_rules! impl_tuple_gen {
    ($(($($g:ident . $idx:tt),+))+) => {$(
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, v: &Self::Value, out: &mut Vec<Self::Value>) {
                // Shrink one coordinate at a time, holding the others.
                $({
                    let mut cands = Vec::new();
                    self.$idx.shrink(&v.$idx, &mut cands);
                    for c in cands {
                        let mut smaller = v.clone();
                        smaller.$idx = c;
                        out.push(smaller);
                    }
                })+
            }
        }
    )+};
}

impl_tuple_gen! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        let f = f64_range(-1.0, 1.0);
        let u = usize_range(3, 9);
        let q = u64_range(100, 200);
        for _ in 0..500 {
            assert!((-1.0..1.0).contains(&f.generate(&mut rng)));
            assert!((3..9).contains(&u.generate(&mut rng)));
            assert!((100..200).contains(&q.generate(&mut rng)));
        }
    }

    #[test]
    fn numeric_shrinks_move_toward_low_end() {
        let g = usize_range(2, 50);
        let mut out = Vec::new();
        g.shrink(&40, &mut out);
        assert!(out.contains(&2));
        assert!(out.iter().all(|c| (2..40).contains(c)));
        out.clear();
        g.shrink(&2, &mut out);
        assert!(out.is_empty());

        let f = f64_range(-5.0, 5.0);
        let mut fo = Vec::new();
        f.shrink(&4.0, &mut fo);
        assert!(fo.contains(&0.0), "range spans zero, shrink to zero");
    }

    #[test]
    fn vec_shrinks_structurally_then_elementwise() {
        let g = vec_of(usize_range(0, 10), 1, 6);
        let v = vec![5usize, 7, 9];
        let mut out = Vec::new();
        g.shrink(&v, &mut out);
        assert!(out.contains(&vec![5]), "prefix of min length");
        assert!(out.contains(&vec![5, 7]), "drop last");
        assert!(out.contains(&vec![0, 7, 9]), "element shrink");
        assert!(out.iter().all(|c| !c.is_empty()));
    }

    #[test]
    fn tuples_generate_and_shrink_coordinatewise() {
        let g = (usize_range(1, 5), f64_range(0.0, 1.0));
        let mut rng = TestRng::seed_from_u64(2);
        let v = g.generate(&mut rng);
        assert!((1..5).contains(&v.0));
        let mut out = Vec::new();
        g.shrink(&(4usize, 0.5f64), &mut out);
        assert!(out.iter().any(|c| c.0 == 1 && c.1 == 0.5));
        assert!(out.iter().any(|c| c.0 == 4 && c.1 == 0.0));
    }

    #[test]
    fn choose_covers_and_shrinks_to_first() {
        let g = choose(&["a", "b", "c"]);
        let mut rng = TestRng::seed_from_u64(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(g.generate(&mut rng));
        }
        assert_eq!(seen.len(), 3);
        let mut out = Vec::new();
        g.shrink(&"c", &mut out);
        assert_eq!(out, vec!["a"]);
    }

    #[test]
    fn ascii_string_lengths_and_shrink() {
        let g = ascii_string(0, 40);
        let mut rng = TestRng::seed_from_u64(4);
        for _ in 0..200 {
            let s = g.generate(&mut rng);
            assert!(s.len() < 40);
            assert!(s.is_ascii());
        }
        let mut out = Vec::new();
        g.shrink(&"hello world".to_string(), &mut out);
        assert!(out.contains(&String::new()));
    }
}
