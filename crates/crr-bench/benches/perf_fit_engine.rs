//! Tracked microbenchmarks for the sufficient-statistics fit engine:
//!
//! * end-to-end discovery, moments vs. row-rescan, on Electricity and Tax;
//! * the shared-pool probe (Proposition 6), row-major vs. columnar
//!   snapshot, for one model and for a split-shaped pop (one partition,
//!   ten pooled models, every probe a miss whose within count is read);
//! * a single partition fit, Gram-cache solve vs. materialize-and-rescan.
//!
//! `cargo bench -p crr-bench --bench perf_fit_engine`

// Bench harness: panicking on setup failure is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::type_complexity)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use crr_bench::{crr_inputs, electricity_scenario, tax_scenario, CrrOptions, Scenario};
use crr_data::NumericSnapshot;
use crr_discovery::probe::{scan_pool, GatheredPartition};
use crr_discovery::{share_fit_rows, share_fit_snapshot, FitEngine};

/// Single-shard discovery through the session front door.
fn discover(
    t: &crr_data::Table,
    rows: &crr_data::RowSet,
    cfg: &crr_discovery::DiscoveryConfig,
    space: &crr_discovery::PredicateSpace,
) -> crr_discovery::Result<crr_discovery::ShardedDiscovery> {
    crr_discovery::DiscoverySession::on(t)
        .rows(rows.clone())
        .predicates(space.clone())
        .config(cfg.clone())
        .run()
}
use crr_models::{
    fit_model, try_fit_from_moments, FitConfig, LinearModel, Model, ModelKind, Moments,
};
use std::time::Duration;

fn engine_label(engine: FitEngine) -> &'static str {
    match engine {
        FitEngine::Moments => "moments",
        FitEngine::Rescan => "rescan",
    }
}

fn bench_discovery(c: &mut Criterion) {
    let cells: [(&str, fn(usize, u64) -> Scenario, [usize; 3], usize); 2] = [
        (
            "electricity",
            electricity_scenario,
            [1_440, 2_880, 5_760],
            255,
        ),
        ("tax", tax_scenario, [1_250, 2_500, 5_000], 15),
    ];
    let mut g = c.benchmark_group("discovery");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(1500));
    for (name, make, sizes, per_attr) in cells {
        for n in sizes {
            let sc = make(n, 42);
            let rows = sc.rows();
            g.throughput(Throughput::Elements(rows.len() as u64));
            for engine in [FitEngine::Moments, FitEngine::Rescan] {
                let opts = CrrOptions {
                    engine,
                    compact: false,
                    predicates_per_attr: per_attr,
                    ..Default::default()
                };
                let (cfg, space) = crr_inputs(&sc, &opts);
                g.bench_with_input(
                    BenchmarkId::new(format!("{name}/{}", engine_label(engine)), n),
                    &n,
                    |b, _| b.iter(|| discover(sc.table(), &rows, &cfg, &space).expect("discovery")),
                );
            }
        }
    }
    g.finish();
}

/// One partition's worth of columnar data plus its row-major mirror.
struct Partition {
    snap: NumericSnapshot,
    fit: Vec<u32>,
    xs: Vec<Vec<f64>>,
    y: Vec<f64>,
    rho: f64,
}

fn partition(n: usize) -> Partition {
    let sc = electricity_scenario(n, 42);
    let snap =
        NumericSnapshot::build(sc.table(), &sc.inputs, sc.target, &sc.rows()).expect("snapshot");
    let fit = snap.ready_rows(&sc.rows());
    let mut xs = Vec::with_capacity(fit.len());
    let mut y = Vec::with_capacity(fit.len());
    for &r in &fit {
        let mut x = vec![0.0; sc.inputs.len()];
        snap.gather_x(r as usize, &mut x);
        xs.push(x);
        y.push(snap.target()[r as usize]);
    }
    Partition {
        snap,
        fit,
        xs,
        y,
        rho: sc.rho_max,
    }
}

fn bench_share_probe(c: &mut Criterion) {
    let p = partition(10_000);
    let model = fit_model(&p.xs, &p.y, &FitConfig::new(ModelKind::Linear)).expect("fit");
    let mut g = c.benchmark_group("share_probe");
    g.sample_size(30);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(1000));
    g.throughput(Throughput::Elements(p.fit.len() as u64));
    g.bench_function("rows", |b| {
        b.iter(|| share_fit_rows(&model, &p.xs, &p.y, p.rho))
    });
    g.bench_function("snapshot", |b| {
        b.iter(|| share_fit_snapshot(&model, &p.snap, &p.fit, p.rho))
    });
    // A pop that goes on to split: the pool misses on every model, and the
    // queue order reads each miss's within count. The fitted model shifted
    // in slope misses by far more than ρ_M on this partition.
    let (w, b) = model.as_affine().expect("linear fit");
    let pool: Vec<Model> = (1..=10)
        .map(|k| Model::Linear(LinearModel::new(vec![w[0] * (1.0 + 0.05 * k as f64)], b)))
        .collect();
    assert!(pool
        .iter()
        .all(|m| share_fit_rows(m, &p.xs, &p.y, p.rho).1 > p.rho));
    g.throughput(Throughput::Elements((p.fit.len() * pool.len()) as u64));
    g.bench_function("pop_rows", |b| {
        b.iter(|| {
            pool.iter()
                .map(|m| share_fit_rows(m, &p.xs, &p.y, p.rho).2)
                .fold(0.0f64, f64::max)
        })
    });
    let mut rows = GatheredPartition::new();
    let mut resid = Vec::new();
    g.bench_function("pop_gathered", |b| {
        b.iter(|| {
            rows.gather(&p.snap, &p.fit);
            scan_pool(&pool, &rows, &mut resid, p.rho, true)
        })
    });
    g.finish();
}

fn bench_single_fit(c: &mut Criterion) {
    let p = partition(10_000);
    let cfg = FitConfig::new(ModelKind::Linear);
    let moments = Moments::from_rows(&p.xs, &p.y);
    let mut g = c.benchmark_group("single_fit");
    g.sample_size(30);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(1000));
    g.throughput(Throughput::Elements(p.fit.len() as u64));
    // The cached-statistics path: what a queue pop costs once the parent's
    // moments were split by sibling subtraction.
    g.bench_function("moments_solve", |b| {
        b.iter(|| try_fit_from_moments(&moments, &cfg).expect("solvable"))
    });
    // The rescan path: gather rows out of the snapshot, then solve the
    // normal equations from scratch.
    g.bench_function("materialize_and_fit", |b| {
        b.iter(|| {
            let mut xs = Vec::with_capacity(p.fit.len());
            let mut y = Vec::with_capacity(p.fit.len());
            for &r in &p.fit {
                let mut x = vec![0.0; p.snap.num_inputs()];
                p.snap.gather_x(r as usize, &mut x);
                xs.push(x);
                y.push(p.snap.target()[r as usize]);
            }
            fit_model(&xs, &y, &cfg).expect("fit")
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_discovery,
    bench_share_probe,
    bench_single_fit
);
criterion_main!(benches);
