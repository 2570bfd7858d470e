//! Constructive δ-cover-free set families.
//!
//! Theorem 18 of the paper (Erdős–Frankl–Füredi) guarantees, for any `n > δ`,
//! a family of `n` subsets of `{1, …, ⌈5δ²·log n⌉}` in which no set is
//! covered by the union of δ others. The proof is probabilistic, and the
//! paper has nodes find such families by local exhaustive search — which is
//! super-exponential. We substitute the classical *Kautz–Singleton*
//! construction from Reed–Solomon codes:
//!
//! * pick a prime `q` and a degree bound `k` with `q^(k+1) ≥ n` (enough
//!   polynomials) and `q > δ·k` (the cover-free margin);
//! * identify index `i` with the polynomial `p_i` over `F_q` whose
//!   coefficients are the base-`q` digits of `i`;
//! * let `F_i = { x·q + p_i(x) : x ∈ [0, q) } ⊆ [0, q²)`.
//!
//! Distinct degree-≤k polynomials agree on at most `k` points, so
//! `|F_i ∩ F_j| ≤ k`, and a union of δ other sets meets `F_i` in at most
//! `δ·k < q = |F_i|` points — hence no set is covered. The ground-set size
//! `q² = O((δ·log n / log δ)²)` matches EFF up to a polylog factor, and every
//! node derives the *same* family from `(n, δ)` alone, exactly as the paper
//! assumes.

/// A δ-cover-free family of `m` subsets of `[0, range())`, computed lazily:
/// member sets are derived on demand from their index.
///
/// ```
/// use coloring::CoverFreeFamily;
/// let fam = CoverFreeFamily::construct(100, 3);
/// let s = fam.set(42);
/// assert_eq!(s.len(), fam.q() as usize);
/// assert!(s.iter().all(|&x| x < fam.range()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CoverFreeFamily {
    m: u64,
    delta: u64,
    q: u64,
    k: u64,
}

impl CoverFreeFamily {
    /// Construct a family of `m ≥ 1` sets that is `delta`-cover-free,
    /// choosing `(q, k)` to minimize the ground-set size `q²`.
    pub fn construct(m: u64, delta: u64) -> CoverFreeFamily {
        let m = m.max(1);
        let mut best: Option<(u64, u64)> = None;
        // k beyond log2(m) cannot help: q ≥ 2 already gives q^(k+1) ≥ m.
        let k_cap = 64 - m.leading_zeros() as u64 + 1;
        for k in 1..=k_cap {
            let q_min_poly = int_root_ceil(m, k + 1);
            let q_min_cover = delta.saturating_mul(k) + 1;
            let q = next_prime(q_min_poly.max(q_min_cover).max(2));
            match best {
                Some((bq, _)) if bq <= q => {}
                _ => best = Some((q, k)),
            }
        }
        let (q, k) = best.expect("k_cap >= 1");
        CoverFreeFamily { m, delta, q, k }
    }

    /// Number of sets in the family.
    pub fn len(&self) -> u64 {
        self.m
    }

    /// True only for the degenerate empty family (never constructed).
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// The cover parameter δ: no member is covered by the union of δ others.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The field size / per-set cardinality.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Ground-set size: member sets are subsets of `[0, range())`.
    pub fn range(&self) -> u64 {
        self.q * self.q
    }

    /// The `i`-th member set, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&self, i: u64) -> Vec<u64> {
        assert!(i < self.m, "set index {i} out of range (m = {})", self.m);
        // Coefficients of p_i: base-q digits of i (low to high).
        let mut coeffs = Vec::with_capacity(self.k as usize + 1);
        let mut rest = i;
        for _ in 0..=self.k {
            coeffs.push(rest % self.q);
            rest /= self.q;
        }
        debug_assert_eq!(rest, 0, "q^(k+1) >= m violated");
        (0..self.q)
            .map(|x| {
                let mut acc: u64 = 0;
                for &c in coeffs.iter().rev() {
                    acc = (acc * x + c) % self.q;
                }
                x * self.q + acc
            })
            .collect()
    }

    /// An element of `F_i` not in `∪ F_j` for the given other indices.
    /// Guaranteed to exist when at most δ distinct other indices (≠ i) are
    /// supplied; returns `None` otherwise (caller bug or over-degree graph).
    pub fn free_element(&self, i: u64, others: &[u64]) -> Option<u64> {
        let mine = self.set(i);
        let mut covered: Vec<u64> = others
            .iter()
            .filter(|&&j| j != i)
            .flat_map(|&j| self.set(j))
            .collect();
        covered.sort_unstable();
        mine.into_iter().find(|x| covered.binary_search(x).is_err())
    }
}

/// Smallest integer `r` with `r^e ≥ m`.
fn int_root_ceil(m: u64, e: u64) -> u64 {
    if m <= 1 {
        return 1;
    }
    let mut r = (m as f64).powf(1.0 / e as f64).floor() as u64;
    while checked_pow(r, e).is_some_and(|p| p >= m) {
        r -= 1;
        if r == 0 {
            break;
        }
    }
    loop {
        r += 1;
        if checked_pow(r, e).is_none_or(|p| p >= m) {
            return r;
        }
    }
}

fn checked_pow(base: u64, exp: u64) -> Option<u64> {
    let mut acc: u64 = 1;
    for _ in 0..exp {
        acc = acc.checked_mul(base)?;
    }
    Some(acc)
}

/// Smallest prime ≥ `n`.
fn next_prime(n: u64) -> u64 {
    let mut c = n.max(2);
    loop {
        if is_prime(c) {
            return c;
        }
        c += 1;
    }
}

fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn primes_and_roots() {
        assert_eq!(next_prime(1), 2);
        assert_eq!(next_prime(14), 17);
        assert!(is_prime(101));
        assert!(!is_prime(1001)); // 7 × 11 × 13
        assert_eq!(int_root_ceil(100, 2), 10);
        assert_eq!(int_root_ceil(101, 2), 11);
        assert_eq!(int_root_ceil(1, 5), 1);
        assert_eq!(int_root_ceil(u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn parameters_satisfy_constraints() {
        for &(m, delta) in &[(10u64, 2u64), (1000, 5), (1 << 16, 8), (3, 1)] {
            let f = CoverFreeFamily::construct(m, delta);
            assert!(checked_pow(f.q(), f.k + 1).is_none_or(|p| p >= m));
            assert!(f.q() > delta * f.k, "q must exceed δk");
        }
    }

    #[test]
    fn sets_have_cardinality_q_and_small_intersections() {
        let f = CoverFreeFamily::construct(200, 3);
        for i in [0u64, 1, 57, 199] {
            let s: BTreeSet<u64> = f.set(i).into_iter().collect();
            assert_eq!(s.len(), f.q() as usize, "evaluations must be distinct rows");
            assert!(s.iter().all(|&x| x < f.range()));
        }
        for (i, j) in [(0u64, 1u64), (3, 77), (120, 121)] {
            let a: BTreeSet<u64> = f.set(i).into_iter().collect();
            let b: BTreeSet<u64> = f.set(j).into_iter().collect();
            assert!(
                a.intersection(&b).count() as u64 <= f.k,
                "polynomials agree on more than k points"
            );
        }
    }

    #[test]
    fn cover_free_property_exhaustive_small() {
        // m = 50, δ = 2: check every set against many δ-subsets.
        let f = CoverFreeFamily::construct(50, 2);
        for i in 0..50 {
            for a in 0..50 {
                for b in (a + 1)..50 {
                    if a == i || b == i {
                        continue;
                    }
                    assert!(
                        f.free_element(i, &[a, b]).is_some(),
                        "F_{i} covered by F_{a} ∪ F_{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn free_element_ignores_self_index() {
        let f = CoverFreeFamily::construct(10, 2);
        assert!(f.free_element(3, &[3, 3]).is_some());
    }

    #[test]
    fn range_grows_slower_than_identity() {
        // The whole point of a round: for large m the new range is smaller.
        let f = CoverFreeFamily::construct(1 << 20, 4);
        assert!(f.range() < 1 << 20, "range {} not reducing", f.range());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_index_bounds_checked() {
        let f = CoverFreeFamily::construct(10, 2);
        let _ = f.set(10);
    }
}
