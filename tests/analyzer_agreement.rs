//! Analyzer-vs-runtime agreement: for every zoo model, a mis-shaped
//! input that makes the eager forward panic must also be rejected by the
//! static analyzer — and where the panic message names a category
//! (channel / joint / rank), the analyzer's diagnostic code must match
//! it. The analyzer is allowed to be stricter than the runtime (it may
//! flag inputs the eager path happens to survive), never laxer.

use dhgcn::nn::{analyze, DiagCode, Module, SymShape};
use dhgcn::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run the eager forward and return the panic message, if it panicked.
fn eager_panic(model: &dyn Module, shape: &[usize]) -> Option<String> {
    let x = Tensor::constant(NdArray::zeros(shape));
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the test output clean
    let result = catch_unwind(AssertUnwindSafe(|| {
        model.forward(&x);
    }));
    std::panic::set_hook(hook);
    result.err().map(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

#[test]
fn analyzer_predicts_every_eager_shape_panic() {
    let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
    let cases: [(&str, Vec<usize>, SymShape); 3] = [
        ("wrong channels", vec![2, 4, 8, 25], SymShape::nctv(4, 8, 25)),
        ("wrong joints", vec![2, 3, 8, 26], SymShape::nctv(3, 8, 26)),
        ("wrong rank", vec![2, 3, 8], SymShape::batched(&[3, 8])),
    ];
    for name in Zoo::NAMES {
        let m = zoo.by_name(name).unwrap_or_else(|| panic!("unknown model {name}"));
        for (case, shape, sym) in &cases {
            let report = analyze(&m.plan(sym));
            let Some(msg) = eager_panic(m.as_ref(), shape) else {
                // the eager path survived this input; the analyzer may
                // still reject it (it is allowed to be stricter)
                continue;
            };
            assert!(
                report.has_errors(),
                "{name} / {case}: eager forward panicked ({msg}) but the analyzer \
                 reported no error for {sym}"
            );
            let expected = if msg.contains("channel mismatch") {
                Some(DiagCode::ChannelMismatch)
            } else if msg.contains("joint mismatch") {
                Some(DiagCode::JointMismatch)
            } else if msg.contains("must be [N") {
                Some(DiagCode::RankMismatch)
            } else {
                None // deeper kernel panic: any analyzer error suffices
            };
            if let Some(code) = expected {
                assert!(
                    !report.with_code(code).is_empty(),
                    "{name} / {case}: eager panic '{msg}' maps to {code} but the \
                     analyzer reported {:?}",
                    report.diagnostics
                );
            }
        }
    }
}

#[test]
fn analyzer_accepts_what_the_eager_path_accepts() {
    let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
    let x = Tensor::constant(NdArray::from_vec(
        (0..2 * 3 * 8 * 25).map(|i| (i as f32 * 0.013).sin()).collect(),
        &[2, 3, 8, 25],
    ));
    for name in Zoo::NAMES {
        let mut m = zoo.by_name(name).unwrap_or_else(|| panic!("unknown model {name}"));
        m.forward(&x); // warm BN statistics
        m.set_training(false);
        let report = analyze(&m.plan(&SymShape::nctv(3, 8, 25)));
        assert!(report.ok(), "{name}: clean model analyzed dirty:\n{report}");
        assert_eq!(report.output.rank(), 2, "{name} output rank");
        assert_eq!(report.output.known(1), Some(4), "{name} class count");
    }
}
