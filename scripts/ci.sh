#!/usr/bin/env bash
# Local CI gate: formatting, a denying lint wall, and the full test suite.
# Run from anywhere; operates on the repository that contains it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Denying: any warning (including the workspace unwrap/expect lints) fails
# the gate. Harness code opts out per file with a justified #![allow].
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo doc --workspace --no-deps (broken intra-doc links are errors)"
# Every crate (shims included) must document cleanly; a renamed item that
# orphans a [`link`] fails the build here instead of rotting silently.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc --workspace --no-deps --quiet

echo "==> rustdoc missing-docs wall (crr-core, crr-data, crr-discovery, crr-stream)"
# The API-bearing crates additionally deny undocumented public items: a
# new pub fn without a doc comment fails the build here. (Workspace-wide
# this would punish the harness crates, so the wall is targeted.)
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D missing-docs" \
  cargo doc -p crr-core -p crr-data -p crr-discovery -p crr-stream --no-deps --quiet

echo "==> criterion smoke (perf_fit_engine + perf_scan_kernels compile and run)"
# The shimmed criterion takes a fast bounded pass (small sample budgets);
# this catches bit-rot in the tracked benchmark harness without paying
# for a full statistical measurement.
cargo bench -p crr-bench --bench perf_fit_engine >/dev/null
cargo bench -p crr-bench --bench perf_scan_kernels >/dev/null

echo "==> perfbench builds and its own tests pass (package outside the workspace)"
# perfbench reaches the library crates through path dependencies, so a
# public-API change that breaks it would otherwise surface only when the
# benchmark runs.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> deprecation wall (no calls to the positional ShardPlan constructors)"
# The typed ShardSpec builder replaced ShardPlan::{single, by_key_range,
# by_time_window}. The deprecated wrappers have since been deleted; this
# wall stays as a tombstone so the positional spellings cannot creep back
# in anywhere — crr-data included.
if grep -rn --include='*.rs' -E 'ShardPlan::(single|by_key_range|by_time_window)\(' crates; then
  echo 'ERROR: the positional ShardPlan constructors were removed; use ShardSpec' >&2
  exit 1
fi

echo "==> tracked benchmark emits and validates"
# Tiny-scale end-to-end run of the bench experiment — with metrics
# instrumentation on, including the sharded cells (1-shard baseline vs
# 4-shard equal-width and quantile plans through the cross-shard pool) —
# then the validator gates: the build fails if BENCH_discovery.json or
# metrics.json output ever loses a key, breaks a counter invariant (e.g.
# cross-shard pool hits + misses != probes, per-shard row counts not
# summing to the table rows), or contains a non-finite number. The
# `--check` flag dispatches on the file's own schema tag; the committed
# artifacts go through the same gate in the loop below.
BENCH_TMP="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
METRICS_TMP="$(mktemp /tmp/metrics_smoke.XXXXXX.json)"
ANALYSIS_TMP="$(mktemp /tmp/analysis_smoke.XXXXXX.json)"
SERVING_TMP="$(mktemp /tmp/serving_smoke.XXXXXX.json)"
STREAM_TMP="$(mktemp /tmp/stream_smoke.XXXXXX.json)"
ARTIFACT_TMP="$(mktemp /tmp/repaired_smoke.XXXXXX.crr)"
STREAM_ARTIFACT_TMP="$(mktemp /tmp/stream_repaired_smoke.XXXXXX.crr)"
trap 'rm -f "$BENCH_TMP" "$METRICS_TMP" "$ANALYSIS_TMP" "$SERVING_TMP" "$STREAM_TMP" "$ARTIFACT_TMP" "$STREAM_ARTIFACT_TMP"' EXIT
cargo run -q -p crr-bench --bin experiments -- \
  --scale 0.05 --bench-json "$BENCH_TMP" --metrics-out "$METRICS_TMP" bench >/dev/null
cargo run -q -p crr-bench --bin experiments -- --check "$BENCH_TMP"
cargo run -q -p crr-bench --bin experiments -- --check "$METRICS_TMP"

echo "==> committed artifacts validate"
# Every committed full-scale artifact must satisfy the same gates as a
# fresh smoke run — including, for BENCH_stream.json, the 5x
# incremental-speedup floor at gate scale, and for analysis.json, zero
# unsound findings.
for artifact in BENCH_discovery.json metrics.json analysis.json BENCH_serving.json BENCH_stream.json; do
  if [ -f "$artifact" ]; then
    cargo run -q -p crr-bench --bin experiments -- --check "$artifact"
  fi
done

echo "==> adaptive shard-planning gates on the committed artifacts"
# Perf gates read the committed full-scale benchmark only (smoke-scale
# timings are noise): on the skewed tax salary key the quantile plan must
# clear the 1.6x speedup floor, and its shard balance must beat the
# equal-width geometry it replaced (wall clock on a single-core host
# measures total work, so the boundary choice is gated on the geometry it
# actually controls — equal-width crowds ~60% of the skewed key's rows
# into one interval). The balance invariant re-checks, from the committed
# metrics.json, that every sharded run's per-shard row counts sum to the
# table rows.
if [ -f BENCH_discovery.json ]; then
  python3 - <<'EOF'
import json
doc = json.load(open('BENCH_discovery.json'))
cells = {(s['dataset'], s['boundary']): s for s in doc['sharded']}
q = cells[('tax', 'quantile')]
ew = cells[('tax', 'equal_width')]
assert q['ratio'] >= 1.6, f"tax quantile sharding speedup {q['ratio']:.3f}x is below the 1.6x floor"
assert q['balance_permille'] > ew['balance_permille'], (
    f"quantile plan balance ({q['balance_permille']}) does not beat "
    f"equal-width ({ew['balance_permille']}) on the skewed tax key")
print(f"tax quantile {q['ratio']:.2f}x >= 1.6x floor; "
      f"balance {q['balance_permille']} > equal-width {ew['balance_permille']}")
EOF
fi
if [ -f metrics.json ]; then
  python3 - <<'EOF'
import json
doc = json.load(open('metrics.json'))
sharded = [r for r in doc['runs'] if r['engine'] == 'sharded']
assert sharded, 'committed metrics.json has no sharded run'
for run in sharded:
    total = sum(run['shard_rows'])
    assert total == run['rows'], (
        f"{run['dataset']}@{run['rows']}: shard rows sum to {total}, not the table rows")
print(f"{len(sharded)} sharded run(s): per-shard row counts sum to the table rows")
EOF
fi

echo "==> static analysis verifies the discovered artifacts"
# Tiny-scale analyze run: discovery on both datasets (unsharded and
# sharded) plus one stream-repaired electricity cell, then crr-analyze's
# seven checks (A1–A7) over each exported artifact — the sharded ones
# against their emitted proof obligations, the repaired one against its
# bundled repair obligations. Any `unsound` finding (dead rule condition,
# unguarded shard merge, malformed inference artifact, compiled-kernel
# divergence, over-/under-claiming splice) aborts the run;
# --check re-applies the same gate to the file.
cargo run -q -p crr-bench --bin experiments -- \
  --scale 0.05 --analysis-json "$ANALYSIS_TMP" --artifact-out "$ARTIFACT_TMP" analyze >/dev/null
cargo run -q -p crr-bench --bin experiments -- --check "$ANALYSIS_TMP"

echo "==> repair-obligation mutation smoke (the A7 gate bites)"
# The exported stream-repaired artifact must (a) re-verify from its text
# form under the full A1–A7 battery, and (b) be *refused* once its repair
# guards are stripped — a verifier that admits the mutant has lost the
# proof-carrying repair property, and the build fails.
cargo run -q -p crr-bench --bin experiments -- --analyze-artifact "$ARTIFACT_TMP" >/dev/null
cargo run -q -p crr-bench --bin experiments -- --mutate-repair-guard "$ARTIFACT_TMP"

echo "==> serving smoke: live server under closed-loop load"
# Tiny-scale end-to-end serving run: discovery, artifact export, a live
# crr-serve server driven by the closed-loop load generator. The emitter
# asserts in-process that smoke cells are loss-free (zero sheds, zero
# deadline timeouts, every request 200), that the overload cell sheds
# well-formed 503s, and that hot-swap churn never changes an in-flight
# answer; --check re-applies the same gates to the file.
cargo run -q -p crr-bench --bin experiments -- \
  --scale 0.05 --serving-json "$SERVING_TMP" serving >/dev/null
cargo run -q -p crr-bench --bin experiments -- --check "$SERVING_TMP"

echo "==> streaming maintenance smoke: incremental vs full rediscovery"
# Tiny-scale maintenance race: append a tail through a crr-stream
# maintainer (route + delta + monitor + repair), verify the repaired
# artifact is sound and hot-swaps into a live server byte-identically,
# and race it against full rediscovery. The emitter asserts in-process
# that repair leaves no residual violations; --check re-applies the
# shape/consistency gates to the file (the committed full-scale artifact,
# where the electricity cell must also clear the 5x incremental-speedup
# floor, is checked in the loop above). The repaired artifact is
# exported and re-verified from its text form (stream → analyze), closing
# the maintenance → verification loop on a second, independent fixture.
cargo run -q -p crr-bench --bin experiments -- \
  --scale 0.05 --stream-json "$STREAM_TMP" --artifact-out "$STREAM_ARTIFACT_TMP" stream >/dev/null
cargo run -q -p crr-bench --bin experiments -- --check "$STREAM_TMP"
cargo run -q -p crr-bench --bin experiments -- --analyze-artifact "$STREAM_ARTIFACT_TMP" >/dev/null

echo "CI OK"
