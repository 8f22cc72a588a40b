//! Regression guards for the sufficient-statistics fit engine: the output
//! of a discovery run must be *byte-identical* — serialized rules, stats,
//! and outcome — across repeated runs, and between the sequential and
//! parallel shared-pool scans. The moments engine must also agree semantically with
//! the rescan baseline (coverage, accuracy), though not bitwise: near-rank-
//! deficient partitions may legitimately resolve differently between the
//! cached Cholesky and the row path's QR fallback.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_core::{serialize, LocateStrategy};
use crr_data::{RowSet, Table};
use crr_datasets::{electricity, GenConfig};
use crr_discovery::{
    DiscoveryConfig, DiscoverySession, FitEngine, MetricsSink, PredicateGen, PredicateSpace,
    ShardSpec, ShardedDiscovery,
};
use crr_obs::Counter;

/// Single-shard run through the session front door.
fn discover(
    t: &Table,
    rows: &RowSet,
    cfg: &DiscoveryConfig,
    space: &PredicateSpace,
) -> crr_discovery::Result<ShardedDiscovery> {
    DiscoverySession::on(t)
        .rows(rows.clone())
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
}

/// Everything observable about a run except wall-clock time.
fn fingerprint(d: &ShardedDiscovery) -> String {
    let s = &d.stats;
    format!(
        "{}\ntrained={} shared={} explored={} forced={} uncoverable={} drained={}+{} outcome={:?}",
        serialize::to_text(&d.rules),
        s.models_trained,
        s.models_shared,
        s.partitions_explored,
        s.forced_accepts,
        s.uncoverable_rows,
        s.drained_partitions,
        s.drained_rows,
        d.outcome,
    )
}

fn setup(rows: usize) -> (Table, DiscoveryConfig, PredicateSpace) {
    let ds = electricity(&GenConfig { rows, seed: 42 });
    let t = ds.table;
    let minute = t.attr("minute").unwrap();
    let target = t.attr("global_active_power").unwrap();
    let space = PredicateGen::binary(64).generate(&t, &[minute], target, 0);
    let cfg = DiscoveryConfig::new(vec![minute], target, 0.25);
    (t, cfg, space)
}

#[test]
fn repeated_runs_are_byte_identical() {
    let (t, cfg, space) = setup(2000);
    let a = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
    let b = discover(&t, &t.all_rows(), &cfg, &space).unwrap();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn metrics_instrumentation_is_byte_identical() {
    // The observability contract: an enabled sink must not perturb the
    // search — queue order, fit results and rule output are untouched.
    let (t, plain_cfg, space) = setup(2000);
    let metered_cfg = plain_cfg.clone().with_metrics(MetricsSink::enabled());
    let plain = discover(&t, &t.all_rows(), &plain_cfg, &space).unwrap();
    let metered = discover(&t, &t.all_rows(), &metered_cfg, &space).unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&metered));
    assert!(plain.metrics.is_empty());
    assert!(!metered.metrics.is_empty());

    // Sharded runs keep the contract even when the sink already holds a
    // history of failed cross-shard probes: recorded counters never steer
    // the plan, so a 4-shard quantile run stays 4 shards and matches the
    // disabled-sink run byte for byte.
    let minute = t.attr("minute").unwrap();
    let spec = ShardSpec::by_key(minute).quantile().shards(4);
    let sharded = |cfg: &DiscoveryConfig| {
        DiscoverySession::on(&t)
            .predicates(space.clone())
            .config(cfg.clone())
            .sharded(spec.clone())
            .run()
            .unwrap()
    };
    let sink = MetricsSink::enabled();
    sink.add(Counter::CrossShardPoolProbes, 100);
    sink.add(Counter::CrossShardPoolMisses, 100);
    let plain = sharded(&plain_cfg);
    let metered = sharded(&plain_cfg.clone().with_metrics(sink));
    assert_eq!(plain.shards.len(), 4);
    assert_eq!(metered.shards.len(), 4);
    assert_eq!(fingerprint(&plain), fingerprint(&metered));
    assert!(plain.metrics.is_empty());
    assert_eq!(metered.metrics.count("shards", "run"), Some(4));
}

#[test]
fn moments_and_rescan_agree_semantically() {
    let (t, base, space) = setup(2000);
    let m = discover(
        &t,
        &t.all_rows(),
        &base.clone().with_engine(FitEngine::Moments),
        &space,
    )
    .unwrap();
    let r = discover(
        &t,
        &t.all_rows(),
        &base.with_engine(FitEngine::Rescan),
        &space,
    )
    .unwrap();
    for (name, d) in [("moments", &m), ("rescan", &r)] {
        assert!(
            d.rules.uncovered(&t, &t.all_rows()).is_empty(),
            "{name}: uncovered rows"
        );
        for rule in d.rules.rules() {
            assert!(
                rule.find_violation(&t, &t.all_rows()).is_none(),
                "{name}: dishonest rho"
            );
        }
    }
    let rep_m = m.rules.evaluate(&t, &t.all_rows(), LocateStrategy::First);
    let rep_r = r.rules.evaluate(&t, &t.all_rows(), LocateStrategy::First);
    assert!(
        (rep_m.rmse - rep_r.rmse).abs() < 0.05,
        "engines diverge: moments rmse {} vs rescan rmse {}",
        rep_m.rmse,
        rep_r.rmse
    );
}
