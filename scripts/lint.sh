#!/usr/bin/env bash
# Static-analysis gate: the dhg-lint source auditor plus the analyzer's
# memory-budget check over the model zoo.
#
#   scripts/lint.sh             # full gate (what tier-1 runs):
#                               #   1. dhg-lint self-test (every seeded
#                               #      negative must be flagged)
#                               #   2. dhg-lint over crates/**/src with the
#                               #      repo allowlist (lint.allow); any
#                               #      unallowlisted finding or stale
#                               #      allowlist entry fails
#                               #   3. analyze --budget: every zoo model's
#                               #      predicted peak workspace must fit
#                               #      the serve workspace cap
#
# Lint codes (see crates/lint/src/lib.rs for rules and scoping):
#   DL001  HashMap/HashSet iteration in determinism-critical crates
#   DL002  wall clock / entropy outside sanctioned sites
#   DL003  unordered float reductions in hot-path crates
#   DL004  `unsafe` without a SAFETY: comment
#   DL005  unwrap/expect/assert on the serving request path
#   DL006  retry loops without backoff on the serving request path
#   DL007  materialised transpose as a matmul operand in hot-path crates
#   DL008  per-call OS threads in kernel crates, outside the worker pool
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint: dhg-lint self-test (seeded negatives) =="
cargo run --release -q -p dhg-lint --bin dhg-lint -- --self-test

echo "== lint: dhg-lint over crates/**/src =="
cargo run --release -q -p dhg-lint --bin dhg-lint -- --root .

echo "== lint: analyze --budget (predicted peak workspace vs serve cap) =="
cargo run --release -q -p dhg-bench --bin analyze -- --budget > /dev/null
echo "budget: every zoo model fits the serve workspace cap"

echo "== lint: OK =="
