//! The iterated color-reduction schedule of Linial's coloring algorithm.

use crate::cover_free::CoverFreeFamily;

/// The precomputed round structure of the fast coloring procedure
/// (Algorithm 5).
///
/// Round `t` assumes the nodes' temporary colors are legal and lie in
/// `[0, input_range(t))`; each node then picks, from the round's cover-free
/// family, an element of its own set not covered by the union of its (≤ δ)
/// participating neighbors' sets. The result is a legal coloring in the
/// strictly smaller `[0, input_range(t+1))`. The chain is iterated until the
/// range stops shrinking — a fixed point of size `O(δ² log² δ)` reached
/// after `O(log* n)` rounds (the paper's loop bound).
///
/// The schedule depends only on `(n, δ)`, so — as the paper assumes — every
/// node derives the identical schedule locally.
///
/// ```
/// use coloring::LinialSchedule;
/// let sched = LinialSchedule::compute(1 << 16, 4);
/// assert!(sched.rounds() <= 6); // "log* n" in practice
/// assert!(sched.final_range() < 1 << 16);
/// // A node with color 77 whose neighbors have colors 5 and 1000:
/// let c1 = sched.step(0, 77, &[5, 1000]);
/// assert!(c1 < sched.input_range(1));
/// ```
#[derive(Clone, Debug, Hash)]
pub struct LinialSchedule {
    n: u64,
    delta: u64,
    families: Vec<CoverFreeFamily>,
}

impl LinialSchedule {
    /// Compute the schedule for `n` nodes and maximum degree `delta`.
    pub fn compute(n: u64, delta: u64) -> LinialSchedule {
        let n = n.max(2);
        let mut families = Vec::new();
        let mut range = n;
        loop {
            let fam = CoverFreeFamily::construct(range, delta);
            if fam.range() >= range {
                break;
            }
            range = fam.range();
            families.push(fam);
        }
        LinialSchedule { n, delta, families }
    }

    /// Number of color-reduction rounds (the paper's `log* n` loop bound).
    pub fn rounds(&self) -> usize {
        self.families.len()
    }

    /// The maximum degree this schedule supports.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Size of the color space *entering* round `t` (round 0 takes node IDs
    /// in `[0, n)`); `input_range(rounds())` is the final color range.
    pub fn input_range(&self, t: usize) -> u64 {
        if t == 0 {
            self.n
        } else {
            self.families[t - 1].range()
        }
    }

    /// The final color range after all rounds.
    pub fn final_range(&self) -> u64 {
        self.input_range(self.rounds())
    }

    /// The paper's `calc-new-color`: given this node's temporary color and
    /// the temporary colors of its participating neighbors (all in
    /// `input_range(round)`, all distinct from `my_color`), produce the
    /// node's color for the next round.
    ///
    /// # Panics
    ///
    /// Panics if `round ≥ rounds()`, if a color is out of range, or if more
    /// than δ distinct neighbor colors are supplied (the guarantee of
    /// Theorem 18 needs ≤ δ other sets).
    pub fn step(&self, round: usize, my_color: u64, neighbor_colors: &[u64]) -> u64 {
        let fam = &self.families[round];
        assert!(my_color < fam.len(), "color {my_color} out of round range");
        let mut others: Vec<u64> = neighbor_colors
            .iter()
            .copied()
            .filter(|&c| c != my_color)
            .collect();
        others.sort_unstable();
        others.dedup();
        assert!(
            others.len() as u64 <= self.delta,
            "more than δ = {} neighbor colors",
            self.delta
        );
        fam.free_element(my_color, &others)
            .expect("cover-free family must yield a free element for ≤ δ neighbors")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run the schedule synchronously on an explicit graph, starting from
    /// ID colors, asserting legality after every round.
    fn run_sync(adj: &[Vec<usize>], delta: u64) -> Vec<u64> {
        let n = adj.len() as u64;
        let sched = LinialSchedule::compute(n, delta);
        let mut colors: Vec<u64> = (0..n).collect();
        for t in 0..sched.rounds() {
            let next: Vec<u64> = (0..adj.len())
                .map(|v| {
                    let nbr: Vec<u64> = adj[v].iter().map(|&u| colors[u]).collect();
                    sched.step(t, colors[v], &nbr)
                })
                .collect();
            colors = next;
            for v in 0..adj.len() {
                for &u in &adj[v] {
                    assert_ne!(colors[v], colors[u], "illegal after round {t}");
                }
                assert!(colors[v] < sched.input_range(t + 1));
            }
        }
        assert!(colors.iter().all(|&c| c < sched.final_range()));
        colors
    }

    fn ring(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect()
    }

    #[test]
    fn ring_colors_reduce_legally() {
        run_sync(&ring(64), 2);
        run_sync(&ring(257), 2);
    }

    #[test]
    fn grid_colors_reduce_legally() {
        let (w, h) = (8, 8);
        let idx = |x: usize, y: usize| y * w + x;
        let mut adj = vec![Vec::new(); w * h];
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    adj[idx(x, y)].push(idx(x + 1, y));
                    adj[idx(x + 1, y)].push(idx(x, y));
                }
                if y + 1 < h {
                    adj[idx(x, y)].push(idx(x, y + 1));
                    adj[idx(x, y + 1)].push(idx(x, y));
                }
            }
        }
        run_sync(&adj, 4);
    }

    #[test]
    fn round_count_grows_very_slowly() {
        let r10 = LinialSchedule::compute(1 << 10, 4).rounds();
        let r20 = LinialSchedule::compute(1 << 20, 4).rounds();
        let r40 = LinialSchedule::compute(1 << 40, 4).rounds();
        assert!(r10 <= r20 && r20 <= r40);
        assert!(r40 <= 8, "log*-like growth expected, got {r40}");
    }

    #[test]
    fn final_range_is_polynomial_in_delta() {
        for delta in [2u64, 4, 8, 16] {
            let sched = LinialSchedule::compute(1 << 20, delta);
            let bound = 40 * delta * delta * (64 - delta.leading_zeros() as u64).pow(2);
            assert!(
                sched.final_range() <= bound.max(100),
                "δ = {delta}: final range {} too large",
                sched.final_range()
            );
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = LinialSchedule::compute(5000, 6);
        let b = LinialSchedule::compute(5000, 6);
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.final_range(), b.final_range());
        assert_eq!(a.step(0, 123, &[5, 6]), b.step(0, 123, &[5, 6]));
    }

    #[test]
    fn tiny_systems_may_need_zero_rounds() {
        let sched = LinialSchedule::compute(4, 2);
        // With n = 4 no cover-free family can shrink the range; IDs stand.
        assert_eq!(sched.final_range(), 4);
        assert_eq!(sched.rounds(), 0);
    }
}
