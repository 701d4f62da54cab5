//! Shift-GCN \[3\]: the strongest published rival in Tabs. 7–8.
//!
//! Instead of adjacency-matrix convolution, Shift-GCN *shifts* channel
//! groups across the joint axis and mixes with pointwise convolutions —
//! spatial context at pointwise cost. We implement the non-local spatial
//! shift: channel group `g` is cyclically rotated by `g` joints. The roll
//! is expressed with slice + concat, so its gradient falls out of the
//! already-verified shape-op adjoints.

use crate::common::{ModelDims, StageSpec};
use crate::tcn::{block_rank_error, BlockTail};
use dhg_nn::{global_avg_pool, Buffer, Conv2d, Linear, Module};
use dhg_tensor::Tensor;
use rand::Rng;

/// Cyclically roll a `[N, C, T, V]` tensor along the joint axis by
/// `shift` positions (joint `v` reads from joint `(v + shift) mod V`).
pub fn roll_joints(x: &Tensor, shift: usize) -> Tensor {
    let v = x.shape()[3];
    let s = shift % v;
    if s == 0 {
        return x.clone();
    }
    let head = x.slice_axis(3, s, v - s);
    let tail = x.slice_axis(3, 0, s);
    Tensor::concat(&[&head, &tail], 3)
}

/// Partition channels into `groups` contiguous chunks and roll chunk `g`
/// by `g` joints — the non-local spatial shift.
pub fn spatial_shift(x: &Tensor, groups: usize) -> Tensor {
    let c = x.shape()[1];
    assert!(groups >= 1 && groups <= c, "groups must be in 1..=C");
    let base = c / groups;
    let extra = c % groups;
    let mut parts = Vec::with_capacity(groups);
    let mut start = 0;
    for g in 0..groups {
        let len = base + usize::from(g < extra);
        if len == 0 {
            continue;
        }
        let chunk = x.slice_axis(1, start, len);
        parts.push(roll_joints(&chunk, g));
        start += len;
    }
    let refs: Vec<&Tensor> = parts.iter().collect();
    Tensor::concat(&refs, 1)
}

struct ShiftBlock {
    theta: Conv2d,
    tail: BlockTail,
    groups: usize,
}

impl ShiftBlock {
    fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        groups: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        ShiftBlock {
            theta: Conv2d::pointwise(in_channels, out_channels, rng),
            tail: BlockTail::new(in_channels, out_channels, stride, 1, dropout, rng),
            groups,
        }
    }
}

impl Module for ShiftBlock {
    fn forward(&self, x: &Tensor) -> Tensor {
        // shift → pointwise → shift again (shift-conv-shift, as published)
        let mixed = self.theta.forward(&spatial_shift(x, self.groups));
        let shifted = spatial_shift(&mixed, self.groups.min(mixed.shape()[1]));
        drop(mixed);
        self.tail.forward(x, shifted)
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = self.theta.parameters();
        ps.extend(self.tail.parameters());
        ps
    }

    fn buffers(&self) -> Vec<Buffer> {
        self.tail.buffers()
    }

    fn set_training(&mut self, training: bool) {
        self.tail.set_training(training);
    }

    fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        if let Some(p) = block_rank_error(input) {
            return p;
        }
        let mut p = dhg_nn::Plan::new(input);
        p.push_op("spatial_shift", format!("{} groups", self.groups), input.clone());
        p.extend("theta", self.theta.plan(&p.output().clone()));
        if p.has_errors() {
            return p;
        }
        p.push_op("spatial_shift", format!("{} groups", self.groups), p.output().clone());
        self.tail.plan(&mut p, input);
        p
    }
}

/// The Shift-GCN classifier.
pub struct ShiftGcn {
    input_bn: crate::common::DataBn,
    blocks: Vec<ShiftBlock>,
    fc: Linear,
    dims: ModelDims,
}

impl ShiftGcn {
    /// Build with the given backbone stages; `groups` controls how many
    /// distinct shift offsets are used per block.
    pub fn new(
        dims: ModelDims,
        stages: &[StageSpec],
        groups: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let input_bn = crate::common::DataBn::new(dims.in_channels, dims.n_joints);
        let mut blocks = Vec::with_capacity(stages.len());
        let mut in_ch = dims.in_channels;
        for stage in stages {
            blocks.push(ShiftBlock::new(
                in_ch,
                stage.channels,
                stage.stride,
                groups.min(in_ch),
                dropout,
                rng,
            ));
            in_ch = stage.channels;
        }
        let fc = Linear::new(in_ch, dims.n_classes, rng);
        ShiftGcn { input_bn, blocks, fc, dims }
    }

    /// The model geometry.
    pub fn dims(&self) -> ModelDims {
        self.dims
    }
}

impl Module for ShiftGcn {
    fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = self.input_bn.forward(x);
        for block in &self.blocks {
            h = block.forward(&h);
        }
        self.fc.forward(&global_avg_pool(&h))
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut ps = self.input_bn.parameters();
        for b in &self.blocks {
            ps.extend(b.parameters());
        }
        ps.extend(self.fc.parameters());
        ps
    }

    fn buffers(&self) -> Vec<Buffer> {
        let mut bs = self.input_bn.buffers();
        for b in &self.blocks {
            bs.extend(b.buffers());
        }
        bs
    }

    fn set_training(&mut self, training: bool) {
        self.input_bn.set_training(training);
        for b in &mut self.blocks {
            b.set_training(training);
        }
    }

    fn plan(&self, input: &dhg_nn::SymShape) -> dhg_nn::Plan {
        use dhg_nn::{Plan, SymShape};
        let mut p = Plan::new(input);
        if !p.expect_nctv(self.dims.in_channels, self.dims.n_joints) || p.has_errors() {
            return p;
        }
        p.extend("input_bn", self.input_bn.plan(input));
        for (i, b) in self.blocks.iter().enumerate() {
            p.extend(&format!("blocks[{i}]"), b.plan(&p.output().clone()));
            if p.has_errors() {
                return p;
            }
        }
        let channels = p.output().at(1);
        p.push_op("global_avg_pool", "mean over (T, V)", SymShape(vec![input.at(0), channels]));
        p.extend("fc", self.fc.plan(&p.output().clone()));
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::small_stages;
    use dhg_tensor::NdArray;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roll_is_cyclic_and_invertible() {
        let x = Tensor::constant(NdArray::from_vec((0..5).map(|i| i as f32).collect(), &[1, 1, 1, 5]));
        let r = roll_joints(&x, 2);
        assert_eq!(r.array().data(), &[2.0, 3.0, 4.0, 0.0, 1.0]);
        let back = roll_joints(&r, 3); // 2 + 3 = 5 ≡ 0
        assert_eq!(back.array(), x.array());
        // shift 0 and shift V are identities
        assert_eq!(roll_joints(&x, 0).array(), x.array());
        assert_eq!(roll_joints(&x, 5).array(), x.array());
    }

    #[test]
    fn spatial_shift_moves_information_across_joints() {
        // group 0 stays, later groups roll — joint 0 of group 1 now holds
        // joint 1's value
        let mut data = NdArray::zeros(&[1, 4, 1, 5]);
        for c in 0..4 {
            for v in 0..5 {
                data.set(&[0, c, 0, v], (c * 10 + v) as f32);
            }
        }
        let y = spatial_shift(&Tensor::constant(data), 4).array();
        assert_eq!(y.at(&[0, 0, 0, 0]), 0.0); // group 0: unshifted
        assert_eq!(y.at(&[0, 1, 0, 0]), 11.0); // group 1: shifted by 1
        assert_eq!(y.at(&[0, 2, 0, 0]), 22.0); // group 2: shifted by 2
        assert_eq!(y.at(&[0, 3, 0, 4]), 32.0); // wraps around
    }

    #[test]
    fn model_forward_and_grads() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = ShiftGcn::new(
            ModelDims { in_channels: 3, n_joints: 25, n_classes: 4 },
            &small_stages(),
            8,
            0.0,
            &mut rng,
        );
        let x = Tensor::constant(NdArray::ones(&[2, 3, 8, 25]));
        let y = m.forward(&x);
        assert_eq!(y.shape(), vec![2, 4]);
        y.cross_entropy(&[0, 1]).backward();
        assert!(m.parameters().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn shift_gradient_is_the_inverse_roll() {
        let x = Tensor::param(NdArray::from_vec((0..6).map(|i| i as f32).collect(), &[1, 1, 1, 6]));
        let w = Tensor::constant(NdArray::from_vec(
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[1, 1, 1, 6],
        ));
        // pick out joint 0 of the rolled tensor = joint 2 of x
        roll_joints(&x, 2).mul(&w).sum_all().backward();
        let g = x.grad().unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
    }
}
