//! The four cluster-distance functions of Sec. V-A.2 (Eqs. 8–11), plus the
//! asymmetric Nergiz–Clifton variant mentioned at the end of that section.
//!
//! All five are functions of `(|A|, d(A), |B|, d(B), |A∪B|, d(A∪B))` only,
//! so algorithm code computes the join cost once and dispatches here.

/// The paper's default ε for distance function 4 ("in our experiments we
/// used ε = 0.1").
pub const DEFAULT_EPSILON: f64 = 0.1;

/// A cluster-to-cluster distance for the agglomerative algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterDistance {
    /// Eq. (8): `|A∪B|·d(A∪B) − |A|·d(A) − |B|·d(B)` — the exact increase
    /// of the clustering cost Σ|S|·d(S); favours unifying small clusters
    /// (balanced growth).
    D1,
    /// Eq. (9): `d(A∪B) − d(A) − d(B)` — may be negative; yields
    /// unbalanced cluster growth, which the paper found preferable.
    D2,
    /// Eq. (10): `(d(A∪B) − d(A) − d(B)) / log2|A∪B|` — pushes the
    /// unbalanced idea further by prioritizing additions to larger
    /// clusters; one of the two consistently-best functions.
    D3,
    /// Eq. (11): `d(A∪B) / (d(A) + d(B) + ε)` — the factor by which the
    /// union's cost exceeds the parts'; the other consistently-best
    /// function.
    D4 {
        /// The additive constant guarding against zero denominators when
        /// both clusters are singletons.
        epsilon: f64,
    },
    /// Nergiz & Clifton (ICDE Workshops 2006): `d(A∪B) − d(B)` — an
    /// asymmetric version of [`ClusterDistance::D2`].
    NergizClifton,
}

impl ClusterDistance {
    /// Eq. (11) with the paper's ε = 0.1.
    pub const fn d4() -> Self {
        ClusterDistance::D4 {
            epsilon: DEFAULT_EPSILON,
        }
    }

    /// The four functions evaluated in the paper's experiments.
    pub const fn paper_variants() -> [ClusterDistance; 4] {
        [
            ClusterDistance::D1,
            ClusterDistance::D2,
            ClusterDistance::D3,
            ClusterDistance::d4(),
        ]
    }

    /// Short display name ("D1" … "D4", "NC").
    pub fn name(&self) -> &'static str {
        match self {
            ClusterDistance::D1 => "D1",
            ClusterDistance::D2 => "D2",
            ClusterDistance::D3 => "D3",
            ClusterDistance::D4 { .. } => "D4",
            ClusterDistance::NergizClifton => "NC",
        }
    }

    /// Is the function asymmetric in its arguments? Symmetric callers
    /// should evaluate both orientations and take the minimum.
    pub fn is_asymmetric(&self) -> bool {
        matches!(self, ClusterDistance::NergizClifton)
    }

    /// Evaluates `dist(A, B)` from sizes and costs. `size_u`/`cost_u`
    /// refer to the union `A∪B`.
    ///
    /// For [`ClusterDistance::D3`] the union size is at least 2 whenever
    /// `A` and `B` are disjoint non-empty clusters, so the logarithm is
    /// positive; a union of size 1 (possible only in degenerate calls)
    /// falls back to the raw D2 value.
    #[inline]
    pub fn eval(
        &self,
        size_a: usize,
        cost_a: f64,
        size_b: usize,
        cost_b: f64,
        size_u: usize,
        cost_u: f64,
    ) -> f64 {
        match *self {
            ClusterDistance::D1 => {
                size_u as f64 * cost_u - size_a as f64 * cost_a - size_b as f64 * cost_b
            }
            ClusterDistance::D2 => cost_u - cost_a - cost_b,
            ClusterDistance::D3 => d3(cost_a, cost_b, size_u, cost_u, || (size_u as f64).log2()),
            ClusterDistance::D4 { epsilon } => cost_u / (cost_a + cost_b + epsilon),
            ClusterDistance::NergizClifton => cost_u - cost_b,
        }
    }

    /// Symmetric evaluation: for asymmetric functions, the minimum over
    /// both orientations; otherwise identical to [`Self::eval`].
    #[inline]
    pub fn eval_symmetric(
        &self,
        size_a: usize,
        cost_a: f64,
        size_b: usize,
        cost_b: f64,
        size_u: usize,
        cost_u: f64,
    ) -> f64 {
        if self.is_asymmetric() {
            let ab = self.eval(size_a, cost_a, size_b, cost_b, size_u, cost_u);
            let ba = self.eval(size_b, cost_b, size_a, cost_a, size_u, cost_u);
            ab.min(ba)
        } else {
            self.eval(size_a, cost_a, size_b, cost_b, size_u, cost_u)
        }
    }
}

/// Eq. (10), with `log2|A∪B|` from `log2_u` (called only when the union
/// has at least 2 members).
#[inline]
fn d3(cost_a: f64, cost_b: f64, size_u: usize, cost_u: f64, log2_u: impl FnOnce() -> f64) -> f64 {
    let delta = cost_u - cost_a - cost_b;
    if size_u >= 2 {
        delta / log2_u()
    } else {
        delta
    }
}

/// The distance of one clustering-engine run over `rows` records: D3
/// reads `log2|A∪B|` from a table of every union size the run can form
/// instead of calling `log2` per evaluation. The table holds the same
/// `log2` values, so every distance is bit-identical to
/// [`ClusterDistance::eval_symmetric`].
#[derive(Debug)]
pub(crate) struct RunDistance {
    distance: ClusterDistance,
    /// `log2[s] = (s as f64).log2()` for `s` in `0..=rows` (D3 only).
    log2: Vec<f64>,
}

impl RunDistance {
    /// `distance` over a run of `rows` records. O(rows) under D3.
    pub(crate) fn new(distance: ClusterDistance, rows: usize) -> Self {
        let log2 = match distance {
            ClusterDistance::D3 => (0..=rows).map(|s| (s as f64).log2()).collect(),
            _ => Vec::new(),
        };
        RunDistance { distance, log2 }
    }

    /// `dist(A, B)` of two disjoint clusters of the run, the union's
    /// cost given: [`ClusterDistance::eval_symmetric`] with
    /// `|A∪B| = |A| + |B|`.
    #[inline]
    pub(crate) fn eval(
        &self,
        size_a: usize,
        cost_a: f64,
        size_b: usize,
        cost_b: f64,
        cost_u: f64,
    ) -> f64 {
        let size_u = size_a + size_b;
        match self.distance {
            ClusterDistance::D3 => d3(cost_a, cost_b, size_u, cost_u, || self.log2[size_u]),
            d => d.eval_symmetric(size_a, cost_a, size_b, cost_b, size_u, cost_u),
        }
    }
}

impl Default for ClusterDistance {
    /// D3 — one of the two functions the paper found consistently best.
    fn default() -> Self {
        ClusterDistance::D3
    }
}

impl std::fmt::Display for ClusterDistance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_is_clustering_cost_delta() {
        // |A|=2, d(A)=0.5; |B|=1, d(B)=0; |A∪B|=3, d=1.0
        let v = ClusterDistance::D1.eval(2, 0.5, 1, 0.0, 3, 1.0);
        assert!((v - (3.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn d2_can_be_negative() {
        // The paper notes Eq. (9) "may attain negative values".
        let v = ClusterDistance::D2.eval(2, 0.6, 2, 0.6, 4, 1.0);
        assert!(v < 0.0);
    }

    #[test]
    fn d3_divides_by_log_union_size() {
        let d2 = ClusterDistance::D2.eval(2, 0.1, 2, 0.1, 4, 1.0);
        let d3 = ClusterDistance::D3.eval(2, 0.1, 2, 0.1, 4, 1.0);
        assert!((d3 - d2 / 2.0).abs() < 1e-12); // log2(4) = 2
    }

    #[test]
    fn d3_union_of_one_falls_back() {
        let v = ClusterDistance::D3.eval(1, 0.0, 1, 0.0, 1, 0.0);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn run_distance_matches_eval_symmetric_bit_for_bit() {
        let nc = ClusterDistance::NergizClifton;
        for d in ClusterDistance::paper_variants().into_iter().chain([nc]) {
            let run = RunDistance::new(d, 40);
            for (size_a, size_b) in [(1, 1), (1, 2), (3, 7), (17, 23)] {
                for (cost_a, cost_b, cost_u) in [(0.0, 0.0, 0.3), (0.1, 0.4, 1.0), (0.7, 0.2, 0.9)]
                {
                    let size_u = size_a + size_b;
                    let want = d.eval_symmetric(size_a, cost_a, size_b, cost_b, size_u, cost_u);
                    let got = run.eval(size_a, cost_a, size_b, cost_b, cost_u);
                    assert_eq!(got.to_bits(), want.to_bits(), "{d} {size_a} {size_b}");
                }
            }
        }
    }

    #[test]
    fn d4_epsilon_guards_singletons() {
        // Two singletons: d(A)=d(B)=0; ε keeps the ratio finite.
        let v = ClusterDistance::d4().eval(1, 0.0, 1, 0.0, 2, 0.3);
        assert!((v - 3.0).abs() < 1e-12);
        assert!(v.is_finite());
    }

    #[test]
    fn nc_is_asymmetric() {
        let nc = ClusterDistance::NergizClifton;
        assert!(nc.is_asymmetric());
        let ab = nc.eval(1, 0.1, 1, 0.4, 2, 1.0);
        let ba = nc.eval(1, 0.4, 1, 0.1, 2, 1.0);
        assert!((ab - 0.6).abs() < 1e-12);
        assert!((ba - 0.9).abs() < 1e-12);
        let sym = nc.eval_symmetric(1, 0.1, 1, 0.4, 2, 1.0);
        assert!((sym - 0.6).abs() < 1e-12);
    }

    #[test]
    fn symmetric_functions_commute() {
        for d in ClusterDistance::paper_variants() {
            let ab = d.eval(2, 0.3, 3, 0.7, 5, 1.1);
            let ba = d.eval(3, 0.7, 2, 0.3, 5, 1.1);
            assert!((ab - ba).abs() < 1e-12, "{d} should be symmetric");
        }
    }

    #[test]
    fn names_and_default() {
        assert_eq!(ClusterDistance::default().name(), "D3");
        assert_eq!(ClusterDistance::d4().to_string(), "D4");
        let names: Vec<_> = ClusterDistance::paper_variants()
            .iter()
            .map(|d| d.name())
            .collect();
        assert_eq!(names, vec!["D1", "D2", "D3", "D4"]);
    }
}
