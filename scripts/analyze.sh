#!/usr/bin/env bash
# Static model-graph analysis over the whole model zoo.
#
# Runs the `analyze` binary twice:
#   1. the positive audit — every zoo model (both topologies, joint and
#      bone streams, two-stream fusion) must produce a clean plan AND a
#      clean serving forward through `InferenceSession::logits` (zero
#      autograd nodes, the [3, K] output shape, row 0 of a window served
#      beside two all-zero windows bitwise equal to the window alone, zero
#      workspace alias hazards);
#   2. `--self-test` — seeded negatives (wrong channels/joints/rank,
#      cold eval-mode BatchNorm on every zoo model that has statistics,
#      mutated incidence matrices, mismatched fusion streams, a
#      grad-free head left on the density-probed matmul) must each be
#      flagged.
#
# Exits non-zero on the first diagnostic either mode misses.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== analyze: zoo audit =="
cargo run --release -q -p dhg-bench --bin analyze

echo "== analyze: self-test (seeded negatives) =="
cargo run --release -q -p dhg-bench --bin analyze -- --self-test

echo "== analyze: OK =="
