//! Incremental dynamic-topology construction (ROADMAP item 3).
//!
//! The paper rebuilds the §3.4 dynamic topology (per-anchor `k_n`-NN
//! "common information" hyperedges + `k_m`-medoid "global information"
//! clusters) from scratch for every clip. Per-frame topology sees
//! consecutive frames whose coordinates barely move, so this module makes
//! construction *stateful*:
//!
//! * [`from_scratch_operator`] — the stateless construction every model
//!   calls: one coordinate set `[V, D]` to the union kNN ∪ k-medoid
//!   normalised operator `[V, V]`, with reseeded k-medoids and a full kNN
//!   sweep.
//! * [`Incremental`] — caches per-anchor kNN edges, the converged medoids
//!   and the assembled operator between calls. Anchors are re-searched
//!   only when accumulated movement exceeds
//!   [`TopologyConfig::rebuild_threshold`]; k-medoids warm-start from the
//!   previous medoids ([`crate::kmeans::kmeans_hyperedges_seeded`]).
//!   Threshold `0.0` is an exact-equality escape hatch: any movement at
//!   all forces a full from-scratch rebuild, so the output is
//!   bitwise-identical to [`from_scratch_operator`] (pinned in
//!   `crates/hypergraph/tests/incremental_props.rs`).
//!
//! # Dirty rule
//!
//! Between builds the builder tracks, per anchor `i`, the accumulated
//! self-movement `self_move[i]` (how far point `i` drifted since its edge
//! was last computed) and the accumulated worst-case movement of *any*
//! point `other_move[i]` over the same span. Distances obey the triangle
//! inequality, so an anchor's neighbour ranking can only have changed if
//! some pairwise distance changed by more than the threshold, and
//! `self_move[i] + other_move[i]` upper-bounds that change. An anchor is
//! dirty iff `self_move[i] + other_move[i] > τ` (strict, which is what
//! makes `τ = 0` all-or-nothing: bitwise-unchanged coordinates reuse the
//! cached operator — itself a pure function of those coordinates — while
//! any change rebuilds everything with the fresh seeded initialisation).

use crate::kmeans::{kmeans_hyperedges_outcome, kmeans_hyperedges_seeded};
use crate::knn::knn_edge;
use crate::Hypergraph;
use dhg_tensor::NdArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How often the dynamic topology is rebuilt (§3.4 builds it per frame;
/// per sample time-averages the embedding first — far cheaper, see the
/// `dynamic_topology` benchmark).
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
    /// Movement budget before an anchor's kNN edge is recomputed
    /// (Euclidean distance in the embedding space). `0.0` means "exact":
    /// the incremental builder is bitwise-identical to
    /// [`from_scratch_operator`].
    pub rebuild_threshold: f32,
}

impl TopologyConfig {
    /// Exact-mode config (threshold 0).
    pub fn new(kn: usize, km: usize, seed: u64) -> Self {
        TopologyConfig { kn, km, seed, rebuild_threshold: 0.0 }
    }

    /// Same config with a movement tolerance.
    pub fn with_threshold(mut self, tau: f32) -> Self {
        assert!(tau >= 0.0 && tau.is_finite(), "threshold must be finite and non-negative");
        self.rebuild_threshold = tau;
        self
    }
}

/// What one [`Incremental::build`] call actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BuildStats {
    /// kNN anchors re-searched this build.
    pub knn_recomputed: usize,
    /// kNN anchors served from the cache.
    pub knn_reused: usize,
    /// k-medoid iterations this build (0 if clustering was skipped).
    pub kmeans_iterations: usize,
    /// Whether the k-medoid run converged before its iteration cap.
    pub kmeans_converged: bool,
    /// Whether clustering was warm-started from cached medoids.
    pub warm_started: bool,
    /// Whether everything was rebuilt from scratch.
    pub full_rebuild: bool,
    /// Whether the cached operator was returned untouched.
    pub reused_everything: bool,
}

/// Build the union operator with no cached state — the historical
/// behaviour of the private `union_topology_operator` helpers in
/// `dhg-core`. The k-medoid initialisation is reseeded per call, so
/// identical coordinates always give the same topology: the operator is a
/// deterministic function of the data, not of call order (which also makes
/// per-sample and per-frame loops safe to shard across threads).
pub fn from_scratch_operator(coords: &[f32], v: usize, d: usize, config: &TopologyConfig) -> NdArray {
    let knn = crate::knn_hyperedges(coords, v, d, config.kn.min(v));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let kmeans = crate::kmeans_hyperedges(coords, v, d, config.km.min(v), &mut rng);
    knn.union(&kmeans).operator()
}

/// Cached state between two [`Incremental::build`] calls.
struct IncrementalState {
    /// Coordinates of the previous build call (movement baseline).
    coords: Vec<f32>,
    dim: usize,
    /// Per-anchor kNN edges, canonical member order (see
    /// [`crate::knn::knn_edge`]).
    edges: Vec<Vec<usize>>,
    /// Converged medoids of the last clustering run.
    medoids: Vec<usize>,
    /// Accumulated self-movement per anchor since its edge was built.
    self_move: Vec<f32>,
    /// Accumulated max-any-point movement per anchor over the same span.
    other_move: Vec<f32>,
    /// The assembled operator of the previous build.
    operator: NdArray,
}

/// The stateful builder: warm-started k-medoids + dirty-set kNN
/// invalidation. See the module docs for the dirty rule and the exactness
/// guarantee at threshold 0.
pub struct Incremental {
    config: TopologyConfig,
    state: Option<IncrementalState>,
    stats: BuildStats,
}

impl Incremental {
    /// A fresh builder with no cached state.
    pub fn new(config: TopologyConfig) -> Self {
        Incremental { config, state: None, stats: BuildStats::default() }
    }

    /// The builder's configuration.
    pub fn config(&self) -> &TopologyConfig {
        &self.config
    }

    /// Drop all cached state; the next build is a full rebuild.
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// What the most recent [`build`](Incremental::build) call did.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    #[inline]
    fn dist(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum::<f32>().sqrt()
    }

    /// Full rebuild: identical to [`from_scratch_operator`] (fresh seeded
    /// k-medoid initialisation), but caches edges/medoids for next time.
    fn rebuild(&mut self, coords: &[f32], v: usize, d: usize) -> NdArray {
        let knn = crate::knn_hyperedges(coords, v, d, self.config.kn.min(v));
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let outcome = kmeans_hyperedges_outcome(coords, v, d, self.config.km.min(v), &mut rng);
        let operator = knn.union(&outcome.hypergraph).operator();
        self.stats = BuildStats {
            knn_recomputed: v,
            kmeans_iterations: outcome.iterations,
            kmeans_converged: outcome.converged,
            full_rebuild: true,
            ..BuildStats::default()
        };
        self.state = Some(IncrementalState {
            coords: coords.to_vec(),
            dim: d,
            edges: knn.edges().to_vec(),
            medoids: outcome.medoids,
            self_move: vec![0.0; v],
            other_move: vec![0.0; v],
            operator: operator.clone(),
        });
        operator
    }

    /// Build the normalised `[V, V]` operator of the union hypergraph for
    /// coordinates `[n_vertices, dim]` (row-major), reusing whatever the
    /// dirty rule allows from the previous call.
    pub fn build(&mut self, coords: &[f32], n_vertices: usize, dim: usize) -> NdArray {
        assert_eq!(coords.len(), n_vertices * dim, "coords must be [n_vertices, dim]");
        let v = n_vertices;
        // shape change invalidates everything
        let compatible = self
            .state
            .as_ref()
            .is_some_and(|s| s.dim == dim && s.edges.len() == v);
        if !compatible {
            return self.rebuild(coords, v, dim);
        }
        let tau = self.config.rebuild_threshold;

        // movement accounting against the previous build's snapshot
        let dirty = {
            let s = self.state.as_mut().expect("checked above");
            let mut step_max = 0.0f32;
            let mut steps = vec![0.0f32; v];
            for i in 0..v {
                let step = Self::dist(&coords[i * dim..(i + 1) * dim], &s.coords[i * dim..(i + 1) * dim]);
                steps[i] = step;
                step_max = step_max.max(step);
            }
            let mut dirty = Vec::new();
            for (i, &step) in steps.iter().enumerate() {
                s.self_move[i] += step;
                s.other_move[i] += step_max;
                if s.self_move[i] + s.other_move[i] > tau {
                    dirty.push(i);
                }
            }
            dirty
        };

        if dirty.is_empty() {
            // nothing moved past the budget; in particular at τ = 0 this
            // means the coordinates are bitwise-unchanged, so the cached
            // operator — a pure function of them — is exactly right
            let s = self.state.as_mut().expect("checked above");
            s.coords.copy_from_slice(coords);
            self.stats = BuildStats {
                knn_reused: v,
                reused_everything: true,
                ..BuildStats::default()
            };
            return s.operator.clone();
        }
        if dirty.len() == v {
            // every anchor is past budget (always the case at τ = 0 with
            // any movement): fall back to the exact from-scratch path so
            // the result cannot drift from `from_scratch_operator`
            return self.rebuild(coords, v, dim);
        }

        // partial rebuild (τ > 0): re-search dirty anchors, keep the rest
        let kn = self.config.kn.min(v);
        let s = self.state.as_mut().expect("checked above");
        for &i in &dirty {
            s.edges[i] = knn_edge(coords, v, dim, kn, i);
            s.self_move[i] = 0.0;
            s.other_move[i] = 0.0;
        }
        // clusters depend on every coordinate: re-run, but warm-started
        // from the previous converged medoids
        let outcome = kmeans_hyperedges_seeded(coords, v, dim, &s.medoids);
        s.medoids = outcome.medoids;
        s.coords.copy_from_slice(coords);
        let knn_hg = Hypergraph::new(v, s.edges.clone());
        let operator = knn_hg.union(&outcome.hypergraph).operator();
        s.operator = operator.clone();
        self.stats = BuildStats {
            knn_recomputed: dirty.len(),
            knn_reused: v - dirty.len(),
            kmeans_iterations: outcome.iterations,
            kmeans_converged: outcome.converged,
            warm_started: true,
            ..BuildStats::default()
        };
        operator
    }
}

/// Stack per-sample or per-(sample, frame) topology operators for a batch
/// of embedded features `feats ∈ [N, T, V, E]`, sharded over the worker
/// pool exactly like the historical in-branch loops (one `[V, V]` block
/// per closure call ⇒ bitwise-deterministic at any thread count).
///
/// `post` runs on each finished `[V, V]` block in place — the eval path
/// uses it to fuse the importance mask and learned refinement without a
/// second sweep. Pass a no-op for the plain operators.
pub fn stacked_operators_with(
    feats: &NdArray,
    granularity: TopologyGranularity,
    config: &TopologyConfig,
    post: impl Fn(&mut [f32]) + Sync,
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
                post(blk);
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
                post(blk);
            });
            stacked
        }
    }
}

/// [`stacked_operators_with`] without a post-processing step: the plain
/// stacked operators (`[N, V, V]` per-sample, `[N, T, V, V]` per-frame).
pub fn stacked_operators(
    feats: &NdArray,
    granularity: TopologyGranularity,
    config: &TopologyConfig,
) -> NdArray {
    stacked_operators_with(feats, granularity, config, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(v: usize, d: usize, salt: u64) -> Vec<f32> {
        (0..v * d).map(|i| ((i as u64 * 2654435761 + salt * 97) % 1000) as f32 * 0.01).collect()
    }

    fn config() -> TopologyConfig {
        TopologyConfig::new(3, 4, 0xDEAD_BEEF)
    }

    #[test]
    fn incremental_first_build_matches_from_scratch() {
        let coords = cloud(25, 8, 2);
        let mut inc = Incremental::new(config());
        assert_eq!(inc.build(&coords, 25, 8), from_scratch_operator(&coords, 25, 8, &config()));
        assert!(inc.stats().full_rebuild);
    }

    #[test]
    fn unchanged_coords_reuse_everything() {
        let coords = cloud(25, 8, 3);
        let mut inc = Incremental::new(config());
        let first = inc.build(&coords, 25, 8);
        let second = inc.build(&coords, 25, 8);
        assert_eq!(first, second);
        assert!(inc.stats().reused_everything);
        assert_eq!(inc.stats().knn_reused, 25);
    }

    #[test]
    fn threshold_zero_movement_forces_full_rebuild() {
        let mut coords = cloud(25, 8, 4);
        let mut inc = Incremental::new(config());
        inc.build(&coords, 25, 8);
        coords[0] += 1e-3; // tiniest movement
        let op = inc.build(&coords, 25, 8);
        assert!(inc.stats().full_rebuild, "τ = 0 must never partially rebuild");
        assert_eq!(op, from_scratch_operator(&coords, 25, 8, &config()));
    }

    #[test]
    fn small_threshold_reuses_clean_anchors() {
        let mut coords = cloud(25, 8, 5);
        let cfg = config().with_threshold(0.05);
        let mut inc = Incremental::new(cfg);
        inc.build(&coords, 25, 8);
        // nudge one point well below the threshold... but every anchor
        // pays the global step, so pick a nudge < τ/2
        coords[10] += 0.02;
        inc.build(&coords, 25, 8);
        let st = inc.stats();
        assert!(st.reused_everything, "movement within budget must reuse the cache");
        // push the same point repeatedly: accumulated movement crosses τ
        let mut warm = false;
        for _ in 0..4 {
            coords[10] += 0.02;
            inc.build(&coords, 25, 8);
            warm |= inc.stats().warm_started;
        }
        assert!(warm, "accumulated movement must eventually trigger a partial rebuild");
    }

    #[test]
    fn partial_rebuild_happens_and_is_bounded() {
        // one far-away point moves a lot; the rest of a tight cluster
        // stays put under a generous threshold
        let v = 16;
        let d = 3;
        let mut coords = vec![0.0f32; v * d];
        for i in 0..v {
            coords[i * d] = i as f32 * 10.0;
        }
        let cfg = TopologyConfig::new(2, 2, 7).with_threshold(30.0);
        let mut inc = Incremental::new(cfg);
        inc.build(&coords, v, d);
        // the last point moves 20: its own budget (self 20 + global 20)
        // crosses τ = 30, everyone else's (global 20 alone) does not
        coords[(v - 1) * d] += 20.0;
        let op = inc.build(&coords, v, d);
        let st = inc.stats();
        assert!(st.warm_started, "expected a partial, warm-started rebuild, got {st:?}");
        assert!(st.knn_recomputed > 0 && st.knn_reused > 0);
        // the result is still a valid operator of the right shape
        assert_eq!(op.shape(), &[v, v]);
        assert!(op.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn shape_change_resets_state() {
        let mut inc = Incremental::new(config());
        inc.build(&cloud(25, 8, 6), 25, 8);
        let coords = cloud(10, 8, 6);
        let op = inc.build(&coords, 10, 8);
        assert!(inc.stats().full_rebuild);
        assert_eq!(op, from_scratch_operator(&coords, 10, 8, &config()));
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
    fn stacked_operators_per_frame_shape_and_post() {
        let (n, t, v, e) = (1, 2, 6, 3);
        let feats = NdArray::from_vec(cloud(n * t * v, e, 11), &[n, t, v, e]);
        let cfg = config();
        let plain = stacked_operators(&feats, TopologyGranularity::PerFrame, &cfg);
        assert_eq!(plain.shape(), &[n, t, v, v]);
        let doubled =
            stacked_operators_with(&feats, TopologyGranularity::PerFrame, &cfg, |blk| {
                for x in blk {
                    *x *= 2.0;
                }
            });
        for (a, b) in plain.data().iter().zip(doubled.data()) {
            assert_eq!(a * 2.0, *b);
        }
    }
}
