#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every change.
#   1. release build of the whole workspace
#   2. the full test suite (unit + integration + property tests); with
#      --no-fail-fast one run lists every failing crate, not just the first
#   3. the same suite built with release optimisations, so a contract that
#      only holds without them (bitwise logits, typed errors) fails here
#   4. clippy with warnings denied
#   5. a smoke pass over the criterion benches (--test runs each bench
#      once without measuring, catching bit-rot in bench code)
#   6. the static model-graph analyzer over the whole zoo (clean plans;
#      a serving audit through InferenceSession::logits: zero graph nodes,
#      the output shape, and row 0 of [x, 0, 0] bitwise equal to x alone)
#      plus its self-test of seeded negatives
#   7. thread-count determinism: the fingerprint bin (FNV-64 lines of every
#      zoo model's checkpoint, plans, training steps, a short training
#      call and served logits) at DHGCN_THREADS=1 and =3, diffed
#   8. the static-analysis gate (scripts/lint.sh): dhg-lint self-test and
#      clean-repo scan (DL001-DL008 with lint.allow), and the analyzer's
#      --budget check that every model's predicted peak workspace fits
#      the serve cap
#   9. rustdoc with warnings denied (broken intra-doc links fail the gate)
#  10. perfbench, the repository benchmark, built and tested against this
#      checkout (its own Cargo package, so no step above compiles it;
#      --locked refuses to rewrite its lockfile)
#
# Serving, streaming, network and chaos contracts are integration tests
# (tests/serve_invariance.rs, tests/streaming.rs, tests/net_roundtrip.rs,
# tests/chaos.rs, tests/chaos_net.rs) and run in steps 2 and 3. Speed is
# measured by the repository benchmark (BENCHMARK.json, perfbench/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --workspace --release

echo "== tier1: cargo test =="
cargo test -q --workspace --no-fail-fast

echo "== tier1: cargo test --release =="
cargo test -q --release --workspace --no-fail-fast

echo "== tier1: clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: bench smoke (compile + single pass, no measurement) =="
cargo bench -p dhg-bench -- --test

echo "== tier1: static model-graph analysis =="
cargo run --release -q -p dhg-bench --bin analyze
cargo run --release -q -p dhg-bench --bin analyze -- --self-test

echo "== tier1: fingerprint at 1 and 3 threads =="
DHGCN_THREADS=1 cargo run --release -q -p dhg-bench --bin fingerprint > target/fingerprint.t1
DHGCN_THREADS=3 cargo run --release -q -p dhg-bench --bin fingerprint > target/fingerprint.t3
diff target/fingerprint.t1 target/fingerprint.t3

echo "== tier1: static-analysis gate (dhg-lint + workspace budget) =="
scripts/lint.sh

echo "== tier1: cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier1: perfbench build + tests =="
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== tier1: OK =="
