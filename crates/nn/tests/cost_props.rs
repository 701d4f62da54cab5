//! Property suite for the plan IR's static cost model: over random
//! shapes, the FLOP counts `Report::cost_summary()` reports for conv,
//! matmul-backed linear, and incidence (vertex-mix) ops must equal the
//! hand-computed arithmetic counts, totals must add across ops, and
//! batch scaling must be exactly linear.

use dhg_nn::{analyze, per_sample_elems, Conv2d, Linear, Module, OpCost, Plan, SymShape};
use dhg_tensor::ops::Conv2dSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Standard conv output extent: `(in + 2·pad − dil·(k−1) − 1) / stride + 1`.
fn conv_out(i: usize, k: usize, stride: usize, pad: usize, dil: usize) -> usize {
    (i + 2 * pad - dil * (k - 1) - 1) / stride + 1
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Conv2d plans carry exactly `2·cout·cin·kh·kw·ho·wo` FLOPs per
    /// sample, whatever the kernel/stride/dilation geometry.
    #[test]
    fn conv2d_flops_match_hand_count(
        seed in 0u64..1000,
        cin in 1usize..6,
        cout in 1usize..8,
        half_k in 0usize..3,
        stride in 1usize..3,
        dil in 1usize..3,
        t in 8usize..24,
        v in 5usize..26,
    ) {
        let k = 2 * half_k + 1; // temporal spec requires odd kernels
        prop_assume!(dil * (k - 1) < t); // kernel must fit the input
        let spec = Conv2dSpec::temporal(k, stride, dil);
        let conv = Conv2d::new(cin, cout, spec, &mut StdRng::seed_from_u64(seed));
        let input = SymShape::nctv(cin, t, v);
        let report = analyze(&conv.plan(&input));
        let pad = dil * (k - 1) / 2;
        let ho = conv_out(t, k, stride, pad, dil) as u64;
        let wo = v as u64;
        let want = 2 * cout as u64 * cin as u64 * k as u64 * ho * wo;
        prop_assert_eq!(report.cost_summary().flops, want);
        // batch scaling is exactly linear
        prop_assert_eq!(report.cost_summary().scaled(7).flops, 7 * want);
    }

    /// Linear plans cost `2·rows·in·out` FLOPs, with `rows` derived from
    /// the per-sample elements of the input shape.
    #[test]
    fn linear_flops_match_hand_count(
        seed in 0u64..1000,
        rows in 1usize..9,
        inf in 1usize..33,
        out in 1usize..17,
    ) {
        let lin = Linear::new(inf, out, &mut StdRng::seed_from_u64(seed));
        let input = SymShape::batched(&[rows, inf]);
        prop_assert_eq!(per_sample_elems(&input), (rows * inf) as u64);
        let report = analyze(&lin.plan(&input));
        let want = 2 * (rows * inf * out) as u64;
        prop_assert_eq!(report.cost_summary().flops, want);
    }

    /// A hand-built plan mixing incidence (vertex-mix) and matmul ops
    /// totals to the sum of its parts: `2ctv²` per vertex op, `2mkn` per
    /// matmul — and the per-op constructors agree with first principles.
    #[test]
    fn mixed_plan_totals_add(
        c in 1usize..8,
        t in 1usize..32,
        v in 2usize..26,
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..16,
    ) {
        let (c64, t64, v64) = (c as u64, t as u64, v as u64);
        let (m64, k64, n64) = (m as u64, k as u64, n as u64);
        prop_assert_eq!(OpCost::vertex_op(c64, t64, v64, t64).flops, 2 * c64 * t64 * v64 * v64);
        prop_assert_eq!(OpCost::matmul(m64, k64, n64).flops, 2 * m64 * k64 * n64);

        let shape = SymShape::nctv(c, t, v);
        let mut p = Plan::new(&shape);
        p.push_op_costed("incidence", "", shape.clone(), OpCost::vertex_op(c64, t64, v64, t64));
        p.push_op_costed("incidence2", "", shape.clone(), OpCost::vertex_op(c64, t64, v64, t64));
        p.push_op_costed(
            "proj",
            "",
            SymShape::batched(&[m, n]),
            OpCost::matmul(m64, k64, n64),
        );
        let cost = analyze(&p).cost_summary();
        let want = 2 * (2 * c64 * t64 * v64 * v64) + 2 * m64 * k64 * n64;
        prop_assert_eq!(cost.flops, want);
        prop_assert_eq!(cost.n_ops, 3);
        let s = cost.scaled(3);
        prop_assert_eq!(s.flops, 3 * want);
        prop_assert_eq!(s.bytes, 3 * cost.bytes);
    }
}
