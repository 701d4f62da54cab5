//! The hypergraph structure `G_h = {V_h, ξ_h, W_h}` of §3.2.

use dhg_tensor::NdArray;

/// A hypergraph over vertices `0..n_vertices` whose hyperedges each connect
/// an arbitrary subset of vertices with a scalar weight (`W_h`, initially 1
/// in the paper).
#[derive(Clone, Debug, PartialEq)]
pub struct Hypergraph {
    n_vertices: usize,
    /// Sorted, deduplicated member lists, one per hyperedge.
    edges: Vec<Vec<usize>>,
    /// Per-hyperedge weights `W_h(e)`.
    weights: Vec<f32>,
}

impl Hypergraph {
    /// Build a hypergraph with unit hyperedge weights. Panics on empty
    /// hyperedges or out-of-range vertices; members are sorted and
    /// deduplicated.
    pub fn new(n_vertices: usize, edges: Vec<Vec<usize>>) -> Self {
        let weights = vec![1.0; edges.len()];
        Self::with_weights(n_vertices, edges, weights)
    }

    /// Build a hypergraph with explicit hyperedge weights.
    pub fn with_weights(n_vertices: usize, edges: Vec<Vec<usize>>, weights: Vec<f32>) -> Self {
        assert_eq!(edges.len(), weights.len(), "one weight per hyperedge required");
        let edges: Vec<Vec<usize>> = edges
            .into_iter()
            .map(|mut e| {
                assert!(!e.is_empty(), "hyperedges must be non-empty");
                e.sort_unstable();
                e.dedup();
                for &v in &e {
                    assert!(v < n_vertices, "vertex {v} out of range (n={n_vertices})");
                }
                e
            })
            .collect();
        Hypergraph { n_vertices, edges, weights }
    }

    /// Number of vertices `|V_h|`.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Number of hyperedges `|ξ_h|`.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The member vertices of hyperedge `e`.
    pub fn edge(&self, e: usize) -> &[usize] {
        &self.edges[e]
    }

    /// All hyperedges.
    pub fn edges(&self) -> &[Vec<usize>] {
        &self.edges
    }

    /// Hyperedge weights `W_h`.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Merge the hyperedge sets of two hypergraphs over the same vertex set
    /// (the union of the k-NN and k-means sets in §3.4).
    pub fn union(&self, other: &Hypergraph) -> Hypergraph {
        assert_eq!(self.n_vertices, other.n_vertices, "union over differing vertex sets");
        let mut edges = self.edges.clone();
        edges.extend(other.edges.iter().cloned());
        let mut weights = self.weights.clone();
        weights.extend_from_slice(&other.weights);
        Hypergraph { n_vertices: self.n_vertices, edges, weights }
    }

    /// The incidence matrix `H ∈ {0,1}^{V×E}` of Eq. 2.
    pub fn incidence(&self) -> NdArray {
        let (v, e) = (self.n_vertices, self.edges.len());
        let mut h = NdArray::zeros(&[v, e]);
        for (j, edge) in self.edges.iter().enumerate() {
            for &i in edge {
                h.set(&[i, j], 1.0);
            }
        }
        h
    }

    /// Weighted vertex degrees `d(v) = Σ_e W_h(e) h(v, e)` (Eq. 3).
    pub fn vertex_degrees(&self) -> Vec<f32> {
        let mut d = vec![0.0f32; self.n_vertices];
        for (edge, &w) in self.edges.iter().zip(&self.weights) {
            for &v in edge {
                d[v] += w;
            }
        }
        d
    }

    /// Hyperedge degrees `δ(e) = Σ_v h(v, e)` (Eq. 4).
    pub fn edge_degrees(&self) -> Vec<f32> {
        self.edges.iter().map(|e| e.len() as f32).collect()
    }

    /// The normalised hypergraph convolution operator of Eq. 5:
    ///
    /// `Ω = D_v^{-1/2} · H · W · D_e^{-1} · Hᵀ · D_v^{-1/2}` — a `[V, V]`
    /// matrix applied to vertex features. Isolated vertices (degree 0)
    /// contribute zero rows/columns rather than NaNs.
    pub fn operator(&self) -> NdArray {
        let v = self.n_vertices;
        let dv = self.vertex_degrees();
        let de = self.edge_degrees();
        let dv_inv_sqrt: Vec<f32> =
            dv.iter().map(|&d| if d > 0.0 { d.powf(-0.5) } else { 0.0 }).collect();
        let mut op = NdArray::zeros(&[v, v]);
        let data = op.data_mut();
        // Ω[i][j] = Σ_e  dv⁻½[i] · h(i,e) · w(e)/δ(e) · h(j,e) · dv⁻½[j]
        for (edge, (&w, &deg)) in self.edges.iter().zip(self.weights.iter().zip(&de)) {
            if deg == 0.0 {
                continue;
            }
            let scale = w / deg;
            for &i in edge {
                let si = dv_inv_sqrt[i] * scale;
                if si == 0.0 {
                    continue;
                }
                for &j in edge {
                    data[i * v + j] += si * dv_inv_sqrt[j];
                }
            }
        }
        op
    }

    /// The operator of Eq. 5 computed naively from its matrix-product
    /// definition. Slower; retained as an independent oracle for tests.
    pub fn operator_dense_reference(&self) -> NdArray {
        let h = self.incidence();
        let v = self.n_vertices;
        let e = self.edges.len();
        let mut dv_is = NdArray::zeros(&[v, v]);
        for (i, &d) in self.vertex_degrees().iter().enumerate() {
            dv_is.set(&[i, i], if d > 0.0 { d.powf(-0.5) } else { 0.0 });
        }
        let mut w_de_inv = NdArray::zeros(&[e, e]);
        for (j, (&w, &d)) in self.weights.iter().zip(self.edge_degrees().iter()).enumerate() {
            w_de_inv.set(&[j, j], if d > 0.0 { w / d } else { 0.0 });
        }
        dv_is.matmul(&h).matmul(&w_de_inv).view().matmul(h.view().t()).matmul(&dv_is)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        // 5 vertices, 3 hyperedges incl. an overlap and a weighted edge
        Hypergraph::with_weights(
            5,
            vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 0]],
            vec![1.0, 2.0, 1.0],
        )
    }

    #[test]
    fn incidence_matches_membership() {
        let h = sample().incidence();
        assert_eq!(h.shape(), &[5, 3]);
        assert_eq!(h.at(&[0, 0]), 1.0);
        assert_eq!(h.at(&[0, 2]), 1.0);
        assert_eq!(h.at(&[0, 1]), 0.0);
        assert_eq!(h.at(&[2, 1]), 1.0);
    }

    #[test]
    fn degrees_follow_eq3_eq4() {
        let hg = sample();
        // d(2) = w(e0) + w(e1) = 1 + 2
        assert_eq!(hg.vertex_degrees(), vec![2.0, 1.0, 3.0, 3.0, 1.0]);
        assert_eq!(hg.edge_degrees(), vec![3.0, 2.0, 3.0]);
    }

    #[test]
    fn operator_matches_dense_reference() {
        let hg = sample();
        let fast = hg.operator();
        let slow = hg.operator_dense_reference();
        assert!(fast.allclose(&slow, 1e-5, 1e-6), "{fast:?} vs {slow:?}");
    }

    #[test]
    fn operator_is_symmetric() {
        let hg = sample();
        let op = hg.operator();
        assert!(op.allclose(&op.transpose_last2(), 1e-6, 1e-7));
    }

    #[test]
    fn isolated_vertex_gives_zero_row() {
        let hg = Hypergraph::new(4, vec![vec![0, 1]]);
        let op = hg.operator();
        for j in 0..4 {
            assert_eq!(op.at(&[3, j]), 0.0);
            assert_eq!(op.at(&[j, 3]), 0.0);
        }
        // no NaNs anywhere
        assert!(op.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn union_concatenates_edges() {
        let a = Hypergraph::new(4, vec![vec![0, 1]]);
        let b = Hypergraph::with_weights(4, vec![vec![2, 3]], vec![0.5]);
        let u = a.union(&b);
        assert_eq!(u.n_edges(), 2);
        assert_eq!(u.weights(), &[1.0, 0.5]);
    }

    #[test]
    fn members_are_sorted_and_deduped() {
        let hg = Hypergraph::new(5, vec![vec![3, 1, 3, 2]]);
        assert_eq!(hg.edge(0), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_edge_panics() {
        Hypergraph::new(3, vec![vec![]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_panics() {
        Hypergraph::new(3, vec![vec![0, 3]]);
    }

    #[test]
    fn single_edge_all_vertices_operator_rows_sum_to_one() {
        // With one hyperedge covering everything and unit weight, the
        // operator is (1/δ)·J normalised by dv=1: each row sums to 1.
        let hg = Hypergraph::new(4, vec![vec![0, 1, 2, 3]]);
        let op = hg.operator();
        for i in 0..4 {
            let row: f32 = (0..4).map(|j| op.at(&[i, j])).sum();
            assert!((row - 1.0).abs() < 1e-6);
        }
    }
}
