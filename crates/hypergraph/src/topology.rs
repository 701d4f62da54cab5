//! Dynamic-topology construction (§3.4): per-anchor `k_n`-NN "common
//! information" hyperedges plus `k_m`-medoid "global information"
//! clusters, united into one normalised `[V, V]` operator.
//!
//! [`from_scratch_operator`] builds one operator from one coordinate set;
//! [`stacked_operators`] stacks them for a batch, per sample or per
//! frame, sharded over the worker pool. The
//! construction is stateless: identical coordinates and seed always give
//! the identical operator, whatever the call order or thread count.

use dhg_tensor::NdArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How often the dynamic topology is rebuilt (§3.4 builds it per frame;
/// per sample time-averages the embedding first — far cheaper, see the
/// `dhgcn_forward_per_{sample,frame}_topology` pair in the
/// `dynamic_hypergraph` bench).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyGranularity {
    /// One hypergraph per sample per block (time-averaged embedding).
    PerSample,
    /// One hypergraph per frame per sample per block (paper-faithful).
    PerFrame,
}

/// Hyper-parameters of one dynamic-topology construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopologyConfig {
    /// `k_n`: members per kNN hyperedge (clamped to the vertex count).
    pub kn: usize,
    /// `k_m`: number of k-medoid cluster hyperedges (clamped likewise).
    pub km: usize,
    /// Seed for the k-medoid initial shuffle; identical coordinates +
    /// identical seed ⇒ identical topology.
    pub seed: u64,
}

impl TopologyConfig {
    /// A construction with `k_n`-member kNN hyperedges, `k_m` clusters and
    /// the given k-medoid seed.
    pub fn new(kn: usize, km: usize, seed: u64) -> Self {
        TopologyConfig { kn, km, seed }
    }
}

/// Build the normalised operator of the union of the kNN and k-medoid
/// hyperedges of one coordinate set `[v, d]` (row-major). The k-medoid
/// initialisation is reseeded per call, so identical coordinates always
/// give the same topology: the operator is a deterministic function of the
/// data, not of call order (which also makes per-sample and per-frame
/// loops safe to shard across threads).
pub fn from_scratch_operator(coords: &[f32], v: usize, d: usize, config: &TopologyConfig) -> NdArray {
    let knn = crate::knn_hyperedges(coords, v, d, config.kn.min(v));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let kmeans = crate::kmeans_hyperedges(coords, v, d, config.km.min(v), &mut rng);
    knn.union(&kmeans).operator()
}

/// Stack per-sample or per-(sample, frame) topology operators for a batch
/// of embedded features `feats ∈ [N, T, V, E]` (`[N, V, V]` per sample,
/// `[N, T, V, V]` per frame), sharded over the worker pool exactly like
/// the historical in-branch loops (one `[V, V]` block per closure call ⇒
/// bitwise-deterministic at any thread count).
pub fn stacked_operators(
    feats: &NdArray,
    granularity: TopologyGranularity,
    config: &TopologyConfig,
) -> NdArray {
    assert_eq!(feats.ndim(), 4, "feats must be [N, T, V, E]");
    let s = feats.shape();
    let (n, t, v, e) = (s[0], s[1], s[2], s[3]);
    match granularity {
        TopologyGranularity::PerSample => {
            // time-average the embedding, one hypergraph per sample;
            // samples are independent, so shard them over the pool
            let mean = feats.mean_axes(&[1], false); // [N, V, E]
            let mut stacked = NdArray::zeros(&[n, v, v]);
            let work = n * v * v * (e + config.kn + config.km + 8);
            dhg_tensor::parallel::for_each_block(stacked.data_mut(), v * v, work, |ni, blk| {
                let coords = &mean.data()[ni * v * e..(ni + 1) * v * e];
                blk.copy_from_slice(from_scratch_operator(coords, v, e, config).data());
            });
            stacked
        }
        TopologyGranularity::PerFrame => {
            // one hypergraph per (sample, frame) pair, sharded likewise;
            // block index ni·t + ti matches the [N, T, V, E] layout
            let mut stacked = NdArray::zeros(&[n, t, v, v]);
            let work = n * t * v * v * (e + config.kn + config.km + 8);
            dhg_tensor::parallel::for_each_block(stacked.data_mut(), v * v, work, |item, blk| {
                let base = item * v * e;
                let coords = &feats.data()[base..base + v * e];
                blk.copy_from_slice(from_scratch_operator(coords, v, e, config).data());
            });
            stacked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn cloud(v: usize, d: usize, salt: u64) -> Vec<f32> {
        (0..v * d).map(|i| ((i as u64 * 2654435761 + salt * 97) % 1000) as f32 * 0.01).collect()
    }

    fn config() -> TopologyConfig {
        TopologyConfig::new(3, 4, 0xDEAD_BEEF)
    }

    #[test]
    fn stacked_operators_per_sample_matches_manual_loop() {
        let (n, t, v, e) = (2, 3, 8, 4);
        let feats = NdArray::from_vec(cloud(n * t * v, e, 9), &[n, t, v, e]);
        let cfg = config();
        let got = stacked_operators(&feats, TopologyGranularity::PerSample, &cfg);
        assert_eq!(got.shape(), &[n, v, v]);
        let mean = feats.mean_axes(&[1], false);
        for ni in 0..n {
            let coords = &mean.data()[ni * v * e..(ni + 1) * v * e];
            let want = from_scratch_operator(coords, v, e, &cfg);
            let block = got.slice_axis(0, ni, 1).reshape(&[v, v]);
            assert_eq!(block, want);
        }
    }

    #[test]
    fn stacked_operators_per_frame_matches_manual_loop() {
        let (n, t, v, e) = (1, 2, 6, 3);
        let feats = NdArray::from_vec(cloud(n * t * v, e, 11), &[n, t, v, e]);
        let cfg = config();
        let got = stacked_operators(&feats, TopologyGranularity::PerFrame, &cfg);
        assert_eq!(got.shape(), &[n, t, v, v]);
        for ti in 0..t {
            let coords = &feats.data()[ti * v * e..(ti + 1) * v * e];
            let want = from_scratch_operator(coords, v, e, &cfg);
            assert_eq!(got.slice_axis(1, ti, 1).reshape(&[v, v]), want);
        }
    }

    /// [`from_scratch_operator`] built from the comparator-based kNN
    /// selection and medoid update, which recompute distances on every
    /// comparison.
    fn comparator_operator(coords: &[f32], v: usize, d: usize, config: &TopologyConfig) -> NdArray {
        let kn = config.kn.min(v);
        let edges =
            (0..v).map(|i| crate::knn::knn_edge_by_comparator(coords, v, d, kn, i)).collect();
        let knn = crate::Hypergraph::new(v, edges);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let km = config.km.min(v);
        let oracle = crate::kmeans::medoid_by_comparator;
        let kmeans = crate::kmeans::kmeans_with(coords, v, d, km, &mut rng, oracle);
        knn.union(&kmeans).operator()
    }

    #[test]
    fn operators_match_the_comparator_selection_bit_for_bit() {
        // continuous clouds, clouds on a 3-value grid (exact distance
        // ties), clouds with duplicated points, and clouds of one point
        let mut rng = StdRng::seed_from_u64(0x7090);
        let v = 25;
        for k in 0..2000usize {
            let d = if (k / 4) % 2 == 0 { 3 } else { 24 };
            let mut coords: Vec<f32> = (0..v * d)
                .map(|_| match k % 4 {
                    1 => rng.gen_range(0..3) as f32,
                    3 => 1.5,
                    _ => rng.gen::<f32>() * 4.0 - 2.0,
                })
                .collect();
            if k % 4 == 2 {
                for _ in 0..8 {
                    let (from, to) = (rng.gen_range(0..v), rng.gen_range(0..v));
                    let row = coords[from * d..(from + 1) * d].to_vec();
                    coords[to * d..(to + 1) * d].copy_from_slice(&row);
                }
            }
            let config = TopologyConfig::new(1 + k % 5, 1 + k % 6, k as u64);
            let got = from_scratch_operator(&coords, v, d, &config);
            let want = comparator_operator(&coords, v, d, &config);
            let bits = |a: &NdArray| a.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "cloud {k}");
        }
    }
}
