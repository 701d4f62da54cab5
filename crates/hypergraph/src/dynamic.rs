//! Dynamic joint weights (§3.3, Eq. 6–9).
//!
//! Each joint's importance at time `t` is its moving distance between
//! consecutive frames (Eq. 6), normalised over the members of each
//! hyperedge (Eq. 7 — the paper labels this a softmax but writes a plain
//! distance-proportional normalisation; we follow the written equation).
//! The weighted incidence `Imp = W_all ∘ H` (Eq. 8) then yields the
//! propagation operator `Imp · Impᵀ` (Eq. 9).

use crate::Hypergraph;
use dhg_tensor::NdArray;

/// Per-frame, per-joint moving distance (Eq. 6).
///
/// `positions` is `[T, V, D]`; the result is `[T, V]` where entry `(t, v)`
/// is `‖p_v^t − p_v^{t−1}‖₂`. The first frame has no predecessor; it
/// copies frame 1's distance so it carries the same motion signal instead
/// of a dead zero (for `T == 1` everything is zero).
pub fn moving_distance(positions: &NdArray) -> NdArray {
    assert_eq!(positions.ndim(), 3, "positions must be [T, V, D]");
    let (t, v, d) = (positions.shape()[0], positions.shape()[1], positions.shape()[2]);
    let mut out = NdArray::zeros(&[t, v]);
    let p = positions.data();
    for ti in 1..t {
        for vi in 0..v {
            let cur = &p[(ti * v + vi) * d..(ti * v + vi) * d + d];
            let prev = &p[((ti - 1) * v + vi) * d..((ti - 1) * v + vi) * d + d];
            // missing detections (all-zero joints, the OpenPose
            // convention) would otherwise register as huge teleports
            if cur.iter().all(|&c| c == 0.0) || prev.iter().all(|&c| c == 0.0) {
                continue;
            }
            let dist: f32 =
                cur.iter().zip(prev).map(|(&a, &b)| (a - b) * (a - b)).sum::<f32>().sqrt();
            out.set(&[ti, vi], dist);
        }
    }
    if t > 1 {
        for vi in 0..v {
            let second = out.at(&[1, vi]);
            out.set(&[0, vi], second);
        }
    }
    out
}

/// The per-(vertex, hyperedge) weight matrix `W_all ∈ [0,1]^{V×E}`
/// (Eq. 7): within each hyperedge, member weights are the members' moving
/// distances normalised to sum to 1. A motionless hyperedge (all distances
/// zero) falls back to uniform weights, matching the static-hypergraph
/// behaviour.
pub fn joint_weights(hg: &Hypergraph, distances: &[f32]) -> NdArray {
    assert_eq!(distances.len(), hg.n_vertices(), "one distance per vertex required");
    let (v, e) = (hg.n_vertices(), hg.n_edges());
    let mut w = NdArray::zeros(&[v, e]);
    for (j, edge) in hg.edges().iter().enumerate() {
        let total: f32 = edge.iter().map(|&i| distances[i]).sum();
        if total > 1e-8 {
            for &i in edge {
                w.set(&[i, j], distances[i] / total);
            }
        } else {
            let uniform = 1.0 / edge.len() as f32;
            for &i in edge {
                w.set(&[i, j], uniform);
            }
        }
    }
    w
}

/// The propagation operator `Imp · Impᵀ` of Eq. 9 for one frame, where
/// `Imp = W_all ∘ H` (Eq. 8). Returns a `[V, V]` matrix.
pub fn weighted_incidence_operator(hg: &Hypergraph, distances: &[f32]) -> NdArray {
    let imp = joint_weights(hg, distances); // already zero off-edge, so ∘H is free
    imp.view().matmul(imp.view().t())
}

/// Normalise each row of a `[V, V]` operator to sum to 1 (rows of zeros
/// stay zero). `Imp·Impᵀ` entries scale like `1/|e|²`, which would make
/// the joint-weight branch orders of magnitude weaker than the
/// row-stochastic static operator it is summed with; row normalisation
/// restores comparable feature magnitude while preserving Eq. 9\'s
/// motion-driven mixing *pattern*.
pub fn normalize_rows(op: &NdArray) -> NdArray {
    assert_eq!(op.ndim(), 2, "normalize_rows expects [V, V]");
    let v = op.shape()[0];
    let mut out = op.clone();
    let data = out.data_mut();
    for r in 0..v {
        let row = &mut data[r * v..(r + 1) * v];
        let sum: f32 = row.iter().sum();
        if sum.abs() > 1e-8 {
            for x in row {
                *x /= sum;
            }
        }
    }
    out
}

/// Stack the (row-normalised) [`weighted_incidence_operator`] over every
/// frame of a sequence: `positions` is `[T, V, D]`, the result is
/// `[T, V, V]`.
pub fn dynamic_operators(hg: &Hypergraph, positions: &NdArray) -> NdArray {
    let dis = moving_distance(positions);
    let (t, v) = (dis.shape()[0], dis.shape()[1]);
    let mut out = NdArray::zeros(&[t, v, v]);
    // frames are independent, so shard them over the worker pool; each
    // frame's [V, V] block is written by exactly one closure call, keeping
    // the result bitwise identical to the serial loop at any thread count
    let work = t * v * v * hg.n_edges().max(1);
    dhg_tensor::parallel::for_each_block(out.data_mut(), v * v, work, |ti, blk| {
        let row = &dis.data()[ti * v..(ti + 1) * v];
        let op = normalize_rows(&weighted_incidence_operator(hg, row));
        blk.copy_from_slice(op.data());
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_distance_matches_hand_computation() {
        // one joint moving 3-4-5 style, one static (offset by 1 so no
        // joint hits the all-zero "missing detection" sentinel)
        let p = NdArray::from_vec(
            vec![
                1.0, 1.0, 1.0, /* v1 */ 2.0, 2.0, 2.0, // t = 0
                4.0, 5.0, 1.0, /* v1 */ 2.0, 2.0, 2.0, // t = 1
            ],
            &[2, 2, 3],
        );
        let d = moving_distance(&p);
        assert_eq!(d.shape(), &[2, 2]);
        assert!((d.at(&[1, 0]) - 5.0).abs() < 1e-6);
        assert_eq!(d.at(&[1, 1]), 0.0);
        // first frame copies the second
        assert!((d.at(&[0, 0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn missing_detections_do_not_register_as_teleports() {
        // a joint that drops to (0,0,0) for one frame (OpenPose missing
        // detection) must not spike the moving distance
        let p = NdArray::from_vec(
            vec![
                1.0, 1.0, 1.0, // t = 0: present
                0.0, 0.0, 0.0, // t = 1: missing
                1.0, 1.0, 1.0, // t = 2: present again
            ],
            &[3, 1, 3],
        );
        let d = moving_distance(&p);
        assert_eq!(d.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn single_frame_distances_are_zero() {
        let p = NdArray::ones(&[1, 3, 3]);
        let d = moving_distance(&p);
        assert_eq!(d.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn weights_normalise_within_each_hyperedge() {
        let hg = Hypergraph::new(4, vec![vec![0, 1, 2], vec![2, 3]]);
        let w = joint_weights(&hg, &[1.0, 2.0, 3.0, 1.0]);
        // edge 0: 1/6, 2/6, 3/6
        assert!((w.at(&[0, 0]) - 1.0 / 6.0).abs() < 1e-6);
        assert!((w.at(&[1, 0]) - 2.0 / 6.0).abs() < 1e-6);
        assert!((w.at(&[2, 0]) - 3.0 / 6.0).abs() < 1e-6);
        // edge 1: 3/4, 1/4
        assert!((w.at(&[2, 1]) - 0.75).abs() < 1e-6);
        assert!((w.at(&[3, 1]) - 0.25).abs() < 1e-6);
        // non-members are zero
        assert_eq!(w.at(&[3, 0]), 0.0);
        assert_eq!(w.at(&[0, 1]), 0.0);
    }

    #[test]
    fn weights_columns_sum_to_one() {
        let hg = Hypergraph::new(5, vec![vec![0, 1, 4], vec![1, 2, 3], vec![0, 3]]);
        let w = joint_weights(&hg, &[0.3, 0.0, 2.0, 1.5, 0.7]);
        for j in 0..3 {
            let col: f32 = (0..5).map(|i| w.at(&[i, j])).sum();
            assert!((col - 1.0).abs() < 1e-5, "column {j} sums to {col}");
        }
    }

    #[test]
    fn motionless_hyperedge_falls_back_to_uniform() {
        let hg = Hypergraph::new(3, vec![vec![0, 1, 2]]);
        let w = joint_weights(&hg, &[0.0, 0.0, 0.0]);
        for i in 0..3 {
            assert!((w.at(&[i, 0]) - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn operator_is_symmetric_psd_diagonal() {
        let hg = Hypergraph::new(4, vec![vec![0, 1, 2], vec![2, 3]]);
        let op = weighted_incidence_operator(&hg, &[1.0, 0.5, 2.0, 1.0]);
        assert_eq!(op.shape(), &[4, 4]);
        assert!(op.allclose(&op.transpose_last2(), 1e-6, 1e-7));
        // Gram matrices have non-negative diagonals
        for i in 0..4 {
            assert!(op.at(&[i, i]) >= 0.0);
        }
    }

    #[test]
    fn moving_joints_dominate_the_operator() {
        let hg = Hypergraph::new(3, vec![vec![0, 1, 2]]);
        // joint 2 moves 10x more than the others
        let op = weighted_incidence_operator(&hg, &[0.1, 0.1, 1.0]);
        assert!(op.at(&[2, 2]) > op.at(&[0, 0]) * 9.0);
    }

    #[test]
    fn normalize_rows_makes_rows_stochastic() {
        let op = NdArray::from_vec(vec![2.0, 2.0, 0.0, 0.0, 0.5, 1.5, 0.0, 0.0, 0.0], &[3, 3]);
        let n = normalize_rows(&op);
        assert!((n.at(&[0, 0]) - 0.5).abs() < 1e-6);
        assert!((n.at(&[1, 1]) - 0.25).abs() < 1e-6);
        // all-zero rows stay zero instead of becoming NaN
        assert_eq!(n.at(&[2, 2]), 0.0);
        assert!(n.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dynamic_operator_rows_sum_to_one() {
        let hg = Hypergraph::new(3, vec![vec![0, 1, 2]]);
        let p = NdArray::from_vec(
            vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0,
                 1.5, 1.0, 1.0, 2.0, 2.5, 2.0, 3.0, 3.0, 3.5],
            &[2, 3, 3],
        );
        let ops = dynamic_operators(&hg, &p);
        for t in 0..2 {
            for r in 0..3 {
                let sum: f32 = (0..3).map(|c| ops.at(&[t, r, c])).sum();
                assert!((sum - 1.0).abs() < 1e-5, "row ({t},{r}) sums to {sum}");
            }
        }
    }

    #[test]
    fn dynamic_operators_stack_per_frame() {
        let hg = Hypergraph::new(2, vec![vec![0, 1]]);
        let p = NdArray::from_vec(
            vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, /* t1 */ 3.0, 1.0, 1.0, 2.0, 2.0, 2.0],
            &[2, 2, 3],
        );
        let ops = dynamic_operators(&hg, &p);
        assert_eq!(ops.shape(), &[2, 2, 2]);
        // at t=1 joint 0 carries all the weight
        assert!((ops.at(&[1, 0, 0]) - 1.0).abs() < 1e-6);
        assert_eq!(ops.at(&[1, 1, 1]), 0.0);
    }
}
