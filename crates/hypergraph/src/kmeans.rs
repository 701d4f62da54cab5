//! `k_m`-medoid cluster hyperedges — the "global information" set of §3.4.
//!
//! The paper's procedure: pick `k_m` joints as centroids, assign every
//! joint to its nearest centroid, replace each centroid by the member with
//! the smallest mean distance to the rest of its cluster (a medoid update,
//! which keeps centroids on actual joints), and iterate until the centroids
//! stop moving. The resulting `k_m` disjoint clusters become hyperedges.

use crate::Hypergraph;
use rand::seq::SliceRandom;
use rand::Rng;

#[inline]
fn dist2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

const MAX_ITERS: usize = 50;

/// Partition `n_vertices` points (`coords` row-major `[n_vertices, dim]`)
/// into `k_m` disjoint clusters and return them as hyperedges.
///
/// The assignment is deterministic given the RNG state. Empty clusters are
/// repaired by stealing the point farthest from its current medoid, so the
/// result always has exactly `k_m` non-empty, disjoint, covering
/// hyperedges.
pub fn kmeans_hyperedges(
    coords: &[f32],
    n_vertices: usize,
    dim: usize,
    km: usize,
    rng: &mut impl Rng,
) -> Hypergraph {
    kmeans_with(coords, n_vertices, dim, km, rng, medoid)
}

/// The member of a cluster with the smallest summed distance to all its
/// members, ties to the lower vertex index. Each member's sum is
/// computed once, adding the members in cluster order.
fn medoid(coords: &[f32], dim: usize, members: &[usize]) -> usize {
    let point = |i: usize| &coords[i * dim..(i + 1) * dim];
    let cost: Vec<f32> =
        members.iter().map(|&a| members.iter().map(|&m| dist2(point(a), point(m))).sum()).collect();
    members
        .iter()
        .copied()
        .zip(cost)
        .min_by(|&(a, sa), &(b, sb)| {
            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        })
        .map(|(v, _)| v)
        .expect("cluster repaired to be non-empty")
}

/// [`kmeans_hyperedges`] with the medoid update step `update(coords, dim,
/// members)`.
pub(crate) fn kmeans_with(
    coords: &[f32],
    n_vertices: usize,
    dim: usize,
    km: usize,
    rng: &mut impl Rng,
    update: impl Fn(&[f32], usize, &[usize]) -> usize,
) -> Hypergraph {
    assert_eq!(coords.len(), n_vertices * dim, "coords must be [n_vertices, dim]");
    assert!(km >= 1, "k_m must be at least 1");
    assert!(km <= n_vertices, "k_m = {km} exceeds vertex count {n_vertices}");
    // initial centroids: km distinct joints
    let mut ids: Vec<usize> = (0..n_vertices).collect();
    ids.shuffle(rng);
    let mut medoids = ids[..km].to_vec();
    let point = |i: usize| &coords[i * dim..(i + 1) * dim];
    let mut assign = vec![0usize; n_vertices];
    for _ in 0..MAX_ITERS {
        // assignment step: nearest medoid (ties to the lower cluster index)
        for (v, slot) in assign.iter_mut().enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, &m) in medoids.iter().enumerate() {
                let d = dist2(point(v), point(m));
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            *slot = best;
        }

        // repair empty clusters: steal the globally worst-assigned point
        loop {
            let mut counts = vec![0usize; km];
            for &a in &assign {
                counts[a] += 1;
            }
            let Some(empty) = counts.iter().position(|&c| c == 0) else { break };
            let (worst, _) = (0..n_vertices)
                .filter(|&v| counts[assign[v]] > 1)
                .map(|v| (v, dist2(point(v), point(medoids[assign[v]]))))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one donor cluster has > 1 member");
            assign[worst] = empty;
            medoids[empty] = worst;
        }

        // update step: medoid = member with the smallest mean distance to
        // the other members of its cluster
        let mut new_medoids = medoids.clone();
        for (c, medoid) in new_medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n_vertices).filter(|&v| assign[v] == c).collect();
            *medoid = update(coords, dim, &members);
        }

        if new_medoids == medoids {
            break; // §3.4: iterate until the centroid change is 0
        }
        medoids = new_medoids;
    }

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); km];
    for (v, &c) in assign.iter().enumerate() {
        edges[c].push(v);
    }
    Hypergraph::new(n_vertices, edges)
}

/// The comparator-based update [`medoid`] replaced, which re-sums both
/// members' distances on every comparison: the reference the
/// summed-once update must match.
#[cfg(test)]
pub(crate) fn medoid_by_comparator(coords: &[f32], dim: usize, members: &[usize]) -> usize {
    let point = |i: usize| &coords[i * dim..(i + 1) * dim];
    members
        .iter()
        .copied()
        .min_by(|&a, &b| {
            let sa: f32 = members.iter().map(|&m| dist2(point(a), point(m))).sum();
            let sb: f32 = members.iter().map(|&m| dist2(point(b), point(m))).sum();
            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        })
        .expect("cluster repaired to be non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two well-separated 3-D clusters of 4 points each.
    fn two_clusters() -> Vec<f32> {
        let mut c = Vec::new();
        for i in 0..4 {
            c.extend_from_slice(&[i as f32 * 0.1, 0.0, 0.0]);
        }
        for i in 0..4 {
            c.extend_from_slice(&[50.0 + i as f32 * 0.1, 0.0, 0.0]);
        }
        c
    }

    #[test]
    fn partition_is_disjoint_and_covering() {
        let coords = two_clusters();
        let mut rng = StdRng::seed_from_u64(7);
        let hg = kmeans_hyperedges(&coords, 8, 3, 3, &mut rng);
        assert_eq!(hg.n_edges(), 3);
        let mut seen = [false; 8];
        for e in hg.edges() {
            assert!(!e.is_empty());
            for &v in e {
                assert!(!seen[v], "vertex {v} in two clusters");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "not all vertices covered");
    }

    #[test]
    fn separated_clusters_are_recovered() {
        let coords = two_clusters();
        let mut rng = StdRng::seed_from_u64(3);
        let hg = kmeans_hyperedges(&coords, 8, 3, 2, &mut rng);
        let mut sizes: Vec<usize> = hg.edges().iter().map(|e| e.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![4, 4]);
        // each hyperedge is entirely one side
        for e in hg.edges() {
            let left = e.iter().filter(|&&v| v < 4).count();
            assert!(left == 0 || left == 4, "mixed cluster: {e:?}");
        }
    }

    #[test]
    fn km_equals_n_gives_singletons() {
        let coords = two_clusters();
        let mut rng = StdRng::seed_from_u64(11);
        let hg = kmeans_hyperedges(&coords, 8, 3, 8, &mut rng);
        for e in hg.edges() {
            assert_eq!(e.len(), 1);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let coords = two_clusters();
        let a = kmeans_hyperedges(&coords, 8, 3, 3, &mut StdRng::seed_from_u64(42));
        let b = kmeans_hyperedges(&coords, 8, 3, 3, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn identical_points_do_not_loop_forever() {
        let coords = vec![2.0; 6 * 3];
        let mut rng = StdRng::seed_from_u64(5);
        let hg = kmeans_hyperedges(&coords, 6, 3, 2, &mut rng);
        assert_eq!(hg.n_edges(), 2);
        let total: usize = hg.edges().iter().map(|e| e.len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    #[should_panic(expected = "exceeds vertex count")]
    fn km_too_large_panics() {
        let coords = vec![0.0; 9];
        kmeans_hyperedges(&coords, 3, 3, 4, &mut StdRng::seed_from_u64(0));
    }
}
