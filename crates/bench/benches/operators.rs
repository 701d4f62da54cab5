//! Operator application micro-benchmarks: graph vs hypergraph operators
//! at skeleton scale, and dense operator application as the vertex count
//! grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhg_hypergraph::{Graph, Hypergraph};
use dhg_skeleton::{static_hypergraph, SkeletonTopology};
use dhg_tensor::NdArray;
use std::hint::black_box;

/// A ring-plus-chords graph of `v` vertices (sparse, skeleton-like).
fn synthetic_graph(v: usize) -> Graph {
    let mut edges = Vec::new();
    for i in 0..v {
        edges.push((i, (i + 1) % v));
        if i % 5 == 0 {
            edges.push((i, (i + v / 3) % v));
        }
    }
    edges.retain(|&(a, b)| a != b);
    Graph::new(v, edges)
}

/// Limb-like hyperedges over `v` vertices.
fn synthetic_hypergraph(v: usize) -> Hypergraph {
    let edges: Vec<Vec<usize>> =
        (0..v / 5).map(|g| (0..5).map(|k| (g * 5 + k) % v).collect()).collect();
    Hypergraph::new(v, edges)
}

fn bench_operator_construction(c: &mut Criterion) {
    let topo = SkeletonTopology::ntu25();
    c.bench_function("graph_normalized_adjacency_ntu25", |b| {
        let g = topo.graph();
        b.iter(|| black_box(g.normalized_adjacency()))
    });
    c.bench_function("hypergraph_operator_ntu25", |b| {
        let hg = static_hypergraph(&topo);
        b.iter(|| black_box(hg.operator()))
    });
    c.bench_function("hypergraph_operator_dense_reference_ntu25", |b| {
        let hg = static_hypergraph(&topo);
        b.iter(|| black_box(hg.operator_dense_reference()))
    });
}

fn bench_operator_application(c: &mut Criterion) {
    // features [C·T, V] times the V×V operator: what every spatial conv
    // pays once per block
    let mut group = c.benchmark_group("operator_apply");
    for &v in &[25usize, 100, 400] {
        let op = synthetic_hypergraph(v).operator();
        let x = NdArray::from_vec((0..v * 64).map(|i| (i as f32 * 0.1).sin()).collect(), &[v, 64]);
        group.bench_with_input(BenchmarkId::new("dense", v), &v, |b, _| {
            b.iter(|| black_box(op.matmul(&x)))
        });
        group.bench_with_input(BenchmarkId::new("graph_dense", v), &v, |b, _| {
            let gop = synthetic_graph(v).normalized_adjacency();
            b.iter(|| black_box(gop.matmul(&x)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_operator_construction, bench_operator_application);
criterion_main!(benches);
