//! `k_n`-nearest-neighbour hyperedges — the "common information" set of
//! §3.4 (Eq. 11).
//!
//! For each joint the `k_n` joints with the smallest Euclidean distance
//! (including the joint itself, whose distance is zero) form one hyperedge,
//! yielding `N` hyperedges of `k_n` members each.

use crate::Hypergraph;

/// Squared Euclidean distance between two points of dimension `d`.
#[inline]
fn dist2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// The `k_n`-NN hyperedge of a single anchor vertex, in canonical
/// (ascending-index) member order.
///
/// `coords` is row-major `[n_vertices, dim]`. Ties are broken by vertex
/// index, and the selected members are sorted before returning, so the
/// same coordinates always yield the same member list. The anchor's
/// distance row is computed once, so the selection compares stored
/// distances.
fn knn_edge(coords: &[f32], n_vertices: usize, dim: usize, kn: usize, anchor: usize) -> Vec<usize> {
    let pi = &coords[anchor * dim..(anchor + 1) * dim];
    let dist: Vec<f32> =
        (0..n_vertices).map(|v| dist2(&coords[v * dim..(v + 1) * dim], pi)).collect();
    let mut order: Vec<usize> = (0..n_vertices).collect();
    // partial sort: the kn smallest by (distance, index)
    order.select_nth_unstable_by(kn - 1, |&a, &b| {
        dist[a].partial_cmp(&dist[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    order.truncate(kn);
    // canonicalise: `select_nth_unstable_by` leaves the prefix in
    // arbitrary order; sorting makes the member list a pure function of
    // the coordinates alone
    order.sort_unstable();
    order
}

/// Build the `k_n`-NN hyperedge set for one frame.
///
/// `coords` is row-major `[n_vertices, dim]` (the paper uses `dim = 3`
/// joint coordinates; the dynamic-topology branch uses FC-mapped features).
/// Ties are broken by vertex index so the construction is deterministic,
/// and every edge's members are in canonical ascending order.
///
/// Panics if `kn == 0` or `kn > n_vertices`.
pub fn knn_hyperedges(coords: &[f32], n_vertices: usize, dim: usize, kn: usize) -> Hypergraph {
    assert_eq!(coords.len(), n_vertices * dim, "coords must be [n_vertices, dim]");
    assert!(kn >= 1, "k_n must be at least 1");
    assert!(kn <= n_vertices, "k_n = {kn} exceeds vertex count {n_vertices}");
    // each anchor's neighbour search is independent; the partial sort is
    // deterministic (ties broken by index), so sharding anchors over the
    // worker pool returns the same edge set at any thread count
    let work = n_vertices * n_vertices * (dim + 4);
    let edges = dhg_tensor::parallel::parallel_map(n_vertices, work, |i| {
        knn_edge(coords, n_vertices, dim, kn, i)
    });
    Hypergraph::new(n_vertices, edges)
}

/// The comparator-based selection [`knn_edge`] replaced, which computes
/// both distances on every comparison: the reference the stored-row
/// selection must match member for member.
#[cfg(test)]
pub(crate) fn knn_edge_by_comparator(
    coords: &[f32],
    n_vertices: usize,
    dim: usize,
    kn: usize,
    anchor: usize,
) -> Vec<usize> {
    let pi = &coords[anchor * dim..(anchor + 1) * dim];
    let mut order: Vec<usize> = (0..n_vertices).collect();
    order.select_nth_unstable_by(kn - 1, |&a, &b| {
        let da = dist2(&coords[a * dim..(a + 1) * dim], pi);
        let db = dist2(&coords[b * dim..(b + 1) * dim], pi);
        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    order.truncate(kn);
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four collinear points at x = 0, 1, 2, 10.
    fn line() -> Vec<f32> {
        vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 10.0, 0.0, 0.0]
    }

    #[test]
    fn each_vertex_gets_one_edge_of_size_kn() {
        let hg = knn_hyperedges(&line(), 4, 3, 2);
        assert_eq!(hg.n_edges(), 4);
        for e in hg.edges() {
            assert_eq!(e.len(), 2);
        }
    }

    #[test]
    fn every_edge_contains_its_anchor() {
        let hg = knn_hyperedges(&line(), 4, 3, 2);
        for (i, e) in hg.edges().iter().enumerate() {
            assert!(e.contains(&i), "edge {i} = {e:?} missing its anchor");
        }
    }

    #[test]
    fn nearest_neighbours_are_chosen() {
        let hg = knn_hyperedges(&line(), 4, 3, 2);
        // vertex 0's nearest other point is 1; vertex 3's is 2
        assert_eq!(hg.edge(0), &[0, 1]);
        assert_eq!(hg.edge(3), &[2, 3]);
        // vertex 1 is equidistant to 0 and 2: tie broken by index → 0
        assert_eq!(hg.edge(1), &[0, 1]);
    }

    #[test]
    fn kn_equal_n_connects_everything() {
        let hg = knn_hyperedges(&line(), 4, 3, 4);
        for e in hg.edges() {
            assert_eq!(e, &[0, 1, 2, 3]);
        }
    }

    #[test]
    fn identical_points_are_handled() {
        let coords = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let hg = knn_hyperedges(&coords, 3, 3, 2);
        assert_eq!(hg.n_edges(), 3);
        for e in hg.edges() {
            assert_eq!(e.len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds vertex count")]
    fn kn_too_large_panics() {
        knn_hyperedges(&line(), 4, 3, 5);
    }

    #[test]
    fn edge_members_are_in_canonical_order() {
        // a scrambled point cloud whose neighbour sets are not index-sorted
        // by construction; the returned member lists must still be
        let coords: Vec<f32> = (0..12 * 3).map(|i| ((i * 37 % 23) as f32).sin() * 5.0).collect();
        let hg = knn_hyperedges(&coords, 12, 3, 4);
        for (i, e) in hg.edges().iter().enumerate() {
            assert!(e.windows(2).all(|w| w[0] < w[1]), "edge {i} not sorted: {e:?}");
            assert_eq!(e, &knn_edge(&coords, 12, 3, 4, i), "per-anchor helper diverged");
            assert_eq!(e, &knn_edge_by_comparator(&coords, 12, 3, 4, i), "oracle diverged");
        }
    }

    #[test]
    fn works_in_embedded_feature_space() {
        // 8-dimensional features: two tight clusters
        let mut coords = Vec::new();
        for i in 0..6 {
            let base = if i < 3 { 0.0 } else { 100.0 };
            for d in 0..8 {
                coords.push(base + (i * 8 + d) as f32 * 1e-3);
            }
        }
        let hg = knn_hyperedges(&coords, 6, 8, 3);
        // each vertex's edge stays within its cluster
        for (i, e) in hg.edges().iter().enumerate() {
            let cluster = |v: usize| v / 3;
            assert!(e.iter().all(|&v| cluster(v) == cluster(i)), "edge {i}: {e:?}");
        }
    }
}
