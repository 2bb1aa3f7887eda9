//! Masking graphs: who exchanges pairwise masks with whom.
//!
//! SecAgg uses the complete graph (every pair of live clients shares a
//! mask), which costs `O(n)` key agreements and mask expansions per
//! client. SecAgg+ (Bell et al.) keeps the sum secure with a sparse
//! k-regular graph of degree `O(log n)`; we use the circulant Harary
//! construction, which is symmetric and connected — the two properties
//! mask cancellation and recoverability need.

use crate::SecAggError;

/// A symmetric masking graph over `n` clients (indexed `0..n`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaskingGraph {
    /// Complete graph: classic SecAgg.
    Complete,
    /// Circulant (Harary) graph where node `i` is adjacent to
    /// `i ± 1, ..., i ± half_degree (mod n)` — SecAgg+ with
    /// `k = 2 * half_degree`.
    Harary {
        /// Half of the node degree (neighbors on each side).
        half_degree: usize,
    },
}

impl MaskingGraph {
    /// Largest roster for which [`MaskingGraph::recommended`] keeps the
    /// complete graph. Above it the Harary graph's `O(log n)` degree is
    /// already well below `n - 1`, and — with neighborhood-scoped Shamir
    /// indexing — a sparse graph is what lifts the per-round client cap
    /// past 255 (x-coordinates only need to cover `degree + 1` holders).
    pub(crate) const RECOMMENDED_COMPLETE_MAX: usize = 32;

    /// Recommended SecAgg+ degree for `n` clients: `k ≈ 2⌈log₂ n⌉ + 2`,
    /// the `O(log n)` regime of Bell et al.
    #[must_use]
    pub fn harary_for(n: usize) -> MaskingGraph {
        let lg = (usize::BITS - n.max(2).leading_zeros()) as usize; // ceil-ish log2
        MaskingGraph::Harary {
            half_degree: (lg + 1).min(n.saturating_sub(1) / 2).max(1),
        }
    }

    /// The graph a round of `n` clients should use when the caller has
    /// no preference: complete up to
    /// `MaskingGraph::RECOMMENDED_COMPLETE_MAX` clients (maximal mask
    /// density, and bit-identical to the historical default for small
    /// rounds), the Harary `O(log n)` graph beyond — which is also what
    /// keeps `degree + 1 ≤ 255` and therefore makes rosters in the
    /// thousands pass [`crate::RoundParams::validate`].
    #[must_use]
    pub fn recommended(n: usize) -> MaskingGraph {
        if n <= Self::RECOMMENDED_COMPLETE_MAX {
            MaskingGraph::Complete
        } else {
            Self::harary_for(n)
        }
    }

    /// Checks the graph is usable for `n` nodes.
    pub(crate) fn validate(&self, n: usize) -> Result<(), SecAggError> {
        match *self {
            MaskingGraph::Complete => Ok(()),
            MaskingGraph::Harary { half_degree } => {
                if half_degree == 0 {
                    return Err(SecAggError::Config("harary half_degree must be ≥ 1".into()));
                }
                if n >= 2 && 2 * half_degree >= n {
                    // Degenerates to (super-)complete; allowed but clamped
                    // at neighbor computation. Still fine.
                    return Ok(());
                }
                Ok(())
            }
        }
    }

    /// Neighbor indices of node `idx` among `n` nodes (sorted, no self).
    #[must_use]
    pub fn neighbors(&self, n: usize, idx: usize) -> Vec<usize> {
        assert!(idx < n);
        match *self {
            MaskingGraph::Complete => (0..n).filter(|&j| j != idx).collect(),
            MaskingGraph::Harary { half_degree } => {
                if 2 * half_degree + 1 >= n {
                    return (0..n).filter(|&j| j != idx).collect();
                }
                let mut out = Vec::with_capacity(2 * half_degree);
                for off in 1..=half_degree {
                    out.push((idx + off) % n);
                    out.push((idx + n - off) % n);
                }
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    /// The share-holder set of node `idx`: the node itself plus its
    /// masking neighbors, sorted by global index. This is the owner's
    /// *reconstruction set* — the only parties that ever hold (and
    /// return) Shamir shares of `idx`'s secrets — so Shamir
    /// x-coordinates are indexed by **position in this list** (`x =
    /// position + 1`), not by global roster index. Uniqueness within
    /// every owner's holder set is all the server's per-owner share
    /// pooling needs, which is what lifts the roster cap from 255 to
    /// whatever the wire's roster width allows: only `degree + 1` must
    /// fit in GF(256).
    ///
    /// For the complete graph the holder list is the whole roster, so
    /// local and global indexing coincide (and pre-neighborhood rounds
    /// stay bit-identical).
    #[must_use]
    pub fn holders(&self, n: usize, idx: usize) -> Vec<usize> {
        let mut h = self.neighbors(n, idx);
        let pos = h.partition_point(|&j| j < idx);
        h.insert(pos, idx);
        h
    }

    /// True if `a` and `b` exchange masks.
    #[must_use]
    pub(crate) fn are_neighbors(&self, n: usize, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        match *self {
            MaskingGraph::Complete => true,
            MaskingGraph::Harary { half_degree } => {
                if 2 * half_degree + 1 >= n {
                    return true;
                }
                let diff = (a + n - b) % n;
                diff <= half_degree || (n - diff) <= half_degree
            }
        }
    }

    /// Node degree for `n` nodes.
    #[must_use]
    pub fn degree(&self, n: usize) -> usize {
        match *self {
            MaskingGraph::Complete => n.saturating_sub(1),
            MaskingGraph::Harary { half_degree } => (2 * half_degree).min(n.saturating_sub(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_neighbors() {
        let g = MaskingGraph::Complete;
        assert_eq!(g.neighbors(4, 1), vec![0, 2, 3]);
        assert_eq!(g.degree(4), 3);
        assert!(g.are_neighbors(4, 0, 3));
        assert!(!g.are_neighbors(4, 2, 2));
    }

    #[test]
    fn harary_symmetry() {
        // Symmetry is what makes pairwise masks cancel.
        for n in [5usize, 8, 13, 40] {
            let g = MaskingGraph::harary_for(n);
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        g.are_neighbors(n, a, b),
                        g.are_neighbors(n, b, a),
                        "n={n} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn harary_neighbors_match_predicate() {
        let n = 12;
        let g = MaskingGraph::Harary { half_degree: 2 };
        for i in 0..n {
            let nb = g.neighbors(n, i);
            for j in 0..n {
                assert_eq!(nb.contains(&j), g.are_neighbors(n, i, j), "i={i} j={j}");
            }
            assert_eq!(nb.len(), g.degree(n));
        }
    }

    fn bfs_reaches_all(g: &MaskingGraph, n: usize) -> bool {
        let mut seen = vec![false; n];
        let mut queue = vec![0usize];
        seen[0] = true;
        while let Some(u) = queue.pop() {
            for v in g.neighbors(n, u) {
                if !seen[v] {
                    seen[v] = true;
                    queue.push(v);
                }
            }
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn harary_is_connected() {
        // BFS from node 0 must reach everyone (needed so Shamir shares of
        // any client reach enough peers).
        let n = 30;
        assert!(bfs_reaches_all(&MaskingGraph::harary_for(n), n));
    }

    #[test]
    fn recommended_is_connected_up_to_4096() {
        // The recommended graph must stay connected at every scale the
        // neighborhood-indexed rounds now admit — including the awkward
        // sizes just past each power of two where the Harary degree
        // steps. Connectivity is what guarantees any client's shares
        // reach enough live holders.
        for n in [
            2usize, 3, 32, 33, 64, 65, 255, 256, 257, 511, 512, 1000, 1024, 2048, 4095, 4096,
        ] {
            let g = MaskingGraph::recommended(n);
            assert!(bfs_reaches_all(&g, n), "n={n} graph {g:?} disconnected");
            assert!(
                g.degree(n) < 255, // degree + 1 holders must fit GF(256)
                "n={n}: recommended degree {} cannot index in GF(256)",
                g.degree(n)
            );
        }
    }

    #[test]
    fn recommended_keeps_small_rounds_complete() {
        for n in 1..=MaskingGraph::RECOMMENDED_COMPLETE_MAX {
            assert_eq!(MaskingGraph::recommended(n), MaskingGraph::Complete);
        }
        assert!(matches!(
            MaskingGraph::recommended(MaskingGraph::RECOMMENDED_COMPLETE_MAX + 1),
            MaskingGraph::Harary { .. }
        ));
    }

    #[test]
    fn holders_is_sorted_neighbors_plus_self() {
        for n in [2usize, 5, 12, 33, 100, 300] {
            for g in [MaskingGraph::Complete, MaskingGraph::recommended(n)] {
                for idx in 0..n {
                    let h = g.holders(n, idx);
                    assert_eq!(h.len(), g.degree(n) + 1, "n={n} idx={idx}");
                    assert!(h.windows(2).all(|w| w[0] < w[1]), "unsorted/dup n={n}");
                    assert!(h.contains(&idx), "owner missing n={n} idx={idx}");
                    for &j in &h {
                        assert!(
                            j == idx || g.are_neighbors(n, idx, j),
                            "n={n}: {j} in holders({idx}) but not a neighbor"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn complete_holders_match_global_indexing() {
        // The bit-equality keystone: under the complete graph a node's
        // holder list is the whole roster in index order, so the local
        // x-coordinate (position + 1) equals the historical global one.
        let n = 9;
        let g = MaskingGraph::Complete;
        for idx in 0..n {
            assert_eq!(g.holders(n, idx), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn small_n_degenerates_to_complete() {
        let g = MaskingGraph::Harary { half_degree: 5 };
        assert_eq!(g.neighbors(4, 0), vec![1, 2, 3]);
        assert!(g.are_neighbors(4, 0, 2));
    }

    #[test]
    fn degree_scales_logarithmically() {
        let d100 = MaskingGraph::harary_for(100).degree(100);
        let d10000 = MaskingGraph::harary_for(10_000).degree(10_000);
        assert!(d100 < 100 - 1, "d100={d100} should be sparse");
        assert!(d10000 < 40, "d10000={d10000} should be O(log n)");
        assert!(d10000 > d100 / 2, "degree should grow slowly");
    }

    #[test]
    fn zero_half_degree_rejected() {
        let g = MaskingGraph::Harary { half_degree: 0 };
        assert!(g.validate(10).is_err());
    }
}
