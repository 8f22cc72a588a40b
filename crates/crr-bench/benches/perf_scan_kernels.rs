//! Tracked microbenchmarks for the columnar scan kernels:
//!
//! * predicate selection over Electricity, interpreted row-at-a-time
//!   `Predicate::eval` vs. the compiled `CompiledConjunction` kernel;
//! * Gram/moments accumulation over the fit-ready rows, per-row
//!   `gather_x` + `add_row` vs. the batched column-major `add_rows`;
//! * split selection on the root partition (Algorithm 1 line 19), the
//!   ordered scorer (one compiled select + merge per candidate) vs. the
//!   sweep-and-verify chooser (one bucketed pass per attribute).
//!
//! `cargo bench -p crr-bench --bench perf_scan_kernels`

// Bench harness: panicking on setup failure is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::type_complexity)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use crr_bench::{crr_inputs, electricity_scenario, CrrOptions, Scenario};
use crr_core::CompiledConjunction;
use crr_data::NumericSnapshot;
use crr_discovery::split::SplitScorer;
use crr_models::Moments;
use std::time::Duration;

fn scenario(n: usize) -> (Scenario, crr_discovery::PredicateSpace) {
    let sc = electricity_scenario(n, 42);
    let opts = CrrOptions {
        predicates_per_attr: 255,
        ..Default::default()
    };
    let (_, space) = crr_inputs(&sc, &opts);
    (sc, space)
}

fn bench_predicate_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("predicate_scan");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(1500));
    for n in [2_880, 11_520] {
        let (sc, space) = scenario(n);
        let table = sc.table();
        let rows = sc.rows();
        let preds = space.predicates();
        g.throughput(Throughput::Elements((rows.len() * preds.len()) as u64));
        g.bench_with_input(BenchmarkId::new("interpreted", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for p in preds {
                    hits += rows.iter().filter(|&r| p.eval(table, r)).count();
                }
                hits
            })
        });
        g.bench_with_input(BenchmarkId::new("compiled", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for p in preds {
                    hits += CompiledConjunction::from_preds(std::slice::from_ref(p), table)
                        .count(rows.as_slice());
                }
                hits
            })
        });
    }
    g.finish();
}

fn bench_gram_accumulate(c: &mut Criterion) {
    let mut g = c.benchmark_group("gram_accumulate");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_millis(1000));
    for n in [2_880, 11_520] {
        let (sc, _) = scenario(n);
        let snap = NumericSnapshot::build(sc.table(), &sc.inputs, sc.target, &sc.rows())
            .expect("snapshot");
        let fit = snap.ready_rows(&sc.rows());
        let d = snap.num_inputs();
        let cols: Vec<&[f64]> = (0..d).map(|j| snap.input(j)).collect();
        g.throughput(Throughput::Elements(fit.len() as u64));
        g.bench_with_input(BenchmarkId::new("per_row", n), &n, |b, _| {
            b.iter(|| {
                let mut m = Moments::zeros(d);
                let mut x = vec![0.0; d];
                for &r in &fit {
                    snap.gather_x(r as usize, &mut x);
                    m.add_row(&x, snap.target()[r as usize]);
                }
                m
            })
        });
        g.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            b.iter(|| {
                let mut m = Moments::zeros(d);
                m.add_rows(&cols, snap.target(), &fit);
                m
            })
        });
    }
    g.finish();
}

fn bench_split_select(c: &mut Criterion) {
    let mut g = c.benchmark_group("split_select");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(1500));
    for n in [2_880, 11_520] {
        let (sc, space) = scenario(n);
        let (cfg, _) = crr_inputs(&sc, &CrrOptions::default());
        let table = sc.table();
        let rows = sc.rows();
        // The root partition's residuals under a constant (mean) model.
        let ys: Vec<(usize, f64)> = rows
            .iter()
            .filter_map(|r| table.value_f64(r, sc.target).map(|y| (r, y)))
            .collect();
        let mean = ys.iter().map(|&(_, y)| y).sum::<f64>() / ys.len() as f64;
        let residuals: Vec<(usize, f64)> = ys.iter().map(|&(r, y)| (r, y - mean)).collect();
        let stride = (space.len() / cfg.max_split_candidates).max(1);
        let picks: Vec<u32> = (0..space.len() as u32).step_by(stride).collect();
        let scorer = SplitScorer::new(table, &space, sc.target);
        assert_eq!(
            scorer.choose(&rows, &cfg, &picks, &residuals),
            scorer.choose_ordered(&rows, &cfg, &picks, &residuals),
        );
        g.throughput(Throughput::Elements((rows.len() * picks.len()) as u64));
        g.bench_with_input(BenchmarkId::new("ordered", n), &n, |b, _| {
            b.iter(|| scorer.choose_ordered(&rows, &cfg, &picks, &residuals))
        });
        g.bench_with_input(BenchmarkId::new("sweep", n), &n, |b, _| {
            b.iter(|| scorer.choose(&rows, &cfg, &picks, &residuals))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_predicate_scan,
    bench_gram_accumulate,
    bench_split_select
);
criterion_main!(benches);
