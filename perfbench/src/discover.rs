//! `discover-electricity` and `discover-tax-sharded`: repeated
//! `DiscoverySession::export` (Algorithm 1, Algorithm 2, artifact) on one
//! seeded table.

use crate::gauge::Bracket;
use crate::layers::{digest, probe_layers, record_discovery};
use crate::stats::{median, ratio, tail};
use crate::{Ctx, Rng};
use crr_core::RuleIndex;
use crr_data::{ShardSpec, Table};
use crr_datasets::{electricity, tax, GenConfig};
use crr_discovery::{
    DiscoveryConfig, DiscoverySession, MetricsSink, MetricsSnapshot, PredicateGen, PredicateSpace,
    RuleSetArtifact,
};
use std::time::Instant;

/// Which discovery workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// Unsharded electricity: 32 days of minutes, daily regimes repeat, so
    /// models are shared heavily and split selection dominates.
    Electricity,
    /// Tax with a quantile shard plan on the skewed salary key: pool
    /// scans, the cross-shard pool, planning and the merge do the work.
    TaxSharded,
}

/// Electricity rows: 32 days.
const ELECTRICITY_ROWS: usize = 46_080;
/// Binary predicates per condition attribute on electricity.
const ELECTRICITY_PREDICATES: usize = 255;
/// Tax rows.
const TAX_ROWS: usize = 40_000;
/// Binary predicates per condition attribute on tax.
const TAX_PREDICATES: usize = 15;
/// Discoveries that must complete whatever the time budget.
const MIN_ITERATIONS: usize = 3;

/// A discovery input: table, predicate space, config and shard plan.
pub struct Input {
    /// The generated table.
    pub table: Table,
    /// Its predicate space.
    pub space: PredicateSpace,
    /// Discovery config (metrics sink disabled).
    pub cfg: DiscoveryConfig,
    /// Shard plan.
    pub spec: ShardSpec,
}

impl Input {
    /// One export, recording into `sink`.
    pub fn export(&self, sink: &MetricsSink) -> (MetricsSnapshot, RuleSetArtifact) {
        let (found, artifact) = DiscoverySession::on(&self.table)
            .predicates(self.space.clone())
            .config(self.cfg.clone())
            .sharded(self.spec.clone())
            .metrics(sink.clone())
            .export()
            .expect("discovery on a generated table succeeds");
        (found.metrics, artifact)
    }
}

/// RMSE of `artifact` on `table`, through the compiled rule index.
pub fn rmse(artifact: &RuleSetArtifact, table: &Table) -> f64 {
    let index = RuleIndex::build(&artifact.rules, table);
    let report = index.compile(table).evaluate(&table.all_rows());
    report.rmse
}

/// Generates a discovery input under `datasets.generate` and
/// `predicates.generate` spans.
pub fn generate(ctx: &Ctx, case: Case, rows: usize, predicates: usize, seed: u64) -> Input {
    let tracer = &ctx.tracer;
    let gen = GenConfig { rows, seed };
    match case {
        Case::Electricity => {
            let ds = tracer.span("datasets.generate", || electricity(&gen));
            let table = ds.table;
            let minute = table.attr("minute").expect("electricity has minute");
            let power = table
                .attr("global_active_power")
                .expect("electricity has global_active_power");
            let space = tracer.span("predicates.generate", || {
                PredicateGen::binary(predicates).generate(&table, &[minute], power, seed)
            });
            let cfg =
                DiscoveryConfig::new(vec![minute], power, 3.0 * crr_datasets::electricity::NOISE);
            Input {
                table,
                space,
                cfg,
                spec: ShardSpec::single(),
            }
        }
        Case::TaxSharded => {
            let ds = tracer.span("datasets.generate", || tax(&gen));
            let table = ds.table;
            let salary = table.attr("salary").expect("tax has salary");
            let state = table.attr("state").expect("tax has state");
            let target = table.attr("tax").expect("tax has tax");
            let space = tracer.span("predicates.generate", || {
                PredicateGen::binary(predicates).generate(&table, &[state, salary], target, seed)
            });
            let cfg = DiscoveryConfig::new(vec![salary], target, 3.0 * crr_datasets::tax::NOISE)
                .with_shard_threads(ctx.nproc);
            let spec = ShardSpec::by_key(salary).quantile().shards(ctx.nproc);
            Input {
                table,
                space,
                cfg,
                spec,
            }
        }
    }
}

/// Records the set-up layer timings (median over the repeated set-ups).
pub fn record_setup_layers(ctx: &mut Ctx, input: &Input) {
    for (metric, span) in [
        ("datasets.generate_s", "datasets.generate"),
        ("predicates.generate_s", "predicates.generate"),
    ] {
        let v = median(&ctx.tracer.durations_s(span));
        ctx.report.set_opt(metric, v);
    }
    ctx.report.set("predicates.count", input.space.len() as f64);
}

/// Runs one discovery workload.
pub fn run(ctx: &mut Ctx, case: Case) {
    let seed = ctx.seed;
    let (rows, predicates) = match case {
        Case::Electricity => (ELECTRICITY_ROWS, ELECTRICITY_PREDICATES),
        Case::TaxSharded => (TAX_ROWS, TAX_PREDICATES),
    };
    let input = ctx.setup(|ctx| generate(ctx, case, rows, predicates, seed));
    record_setup_layers(ctx, &input);

    // Warm-up: the reference artifact every later iteration must match.
    let (_, reference) = ctx
        .tracer
        .span("warmup.export", || input.export(&MetricsSink::disabled()));
    let reference_text = reference.to_text();
    let reference_digest = digest(&reference_text);
    let sound = ctx.tracer.span("analyze.gate", || {
        crr_analyze::analyze_artifact_on(&reference, &input.table).is_sound()
    });
    ctx.report.gate("exported artifact is sound (A1-A7)", sound);
    let quality = ctx.tracer.span("rmse", || rmse(&reference, &input.table));
    ctx.report.set("rmse", quality);

    let traced = ctx.traced();
    let deadline = Instant::now() + ctx.budget;
    let mut untraced_ms = Vec::new();
    let mut untraced_scaled = Vec::new();
    let mut traced_ms = Vec::new();
    let mut snaps = Vec::new();
    let mut i = 0usize;
    let mut bracket = Bracket::open(&mut ctx.gauge);
    while i < MIN_ITERATIONS || Instant::now() < deadline {
        let with_trace = traced && i % 2 == 1;
        let sink = if with_trace {
            MetricsSink::enabled()
        } else {
            MetricsSink::disabled()
        };
        let span = if with_trace {
            "session.export"
        } else {
            "untraced.export"
        };
        let ((snap, artifact), ms, scaled) = bracket.time(&mut ctx.gauge, || {
            ctx.tracer.span(span, || input.export(&sink))
        });
        ctx.report.attempt(1);
        let same = ctx.tracer.span("digest.gate", || {
            digest(&artifact.to_text()) == reference_digest
        });
        ctx.report.gate(
            format!("iteration {i}: artifact digest equals the reference"),
            same,
        );
        if with_trace {
            traced_ms.push(ms);
            snaps.push(snap);
        } else {
            untraced_ms.push(ms);
            untraced_scaled.push(scaled);
        }
        i += 1;
    }
    ctx.report.note(format!(
        "artifact digest {reference_digest:016x} ({} rules, {} bytes)",
        reference.rules.len(),
        reference_text.len()
    ));

    let m = median(&untraced_ms).expect("at least one untraced iteration");
    ctx.report.note(format!(
        "discover_s {:.6} s: median of {} discoveries on {} rows{}",
        m / 1e3,
        untraced_ms.len(),
        input.table.num_rows(),
        tail(&untraced_ms)
            .map(|t| format!(", p{} {:.6} s", t.percentile, t.value / 1e3))
            .unwrap_or_default()
    ));
    let scaled = median(&untraced_scaled).expect("at least one untraced iteration");
    ctx.report.note(format!(
        "discover_scaled_s {:.6} s: median scaled discovery time",
        scaled / 1e3
    ));
    ctx.report.note(format!("discover_rmse {quality:.6}"));
    if traced {
        let tm = median(&traced_ms).expect("at least one traced iteration");
        ctx.report.set_opt(
            "session.export_s",
            median(&ctx.tracer.durations_s("session.export")),
        );
        record_discovery(&mut ctx.report, &snaps);
        ctx.report.set("trace.untraced_ms", m);
        ctx.report.set("trace.traced_ms", tm);
        ctx.report.set("trace.overhead_ratio", ratio(tm, m).value);
        let mut rng = Rng::new(seed, 7);
        let sound = probe_layers(
            &mut ctx.report,
            &ctx.tracer,
            &reference,
            &input.table,
            &mut rng,
        );
        ctx.report.gate("probed artifact is sound", sound);
        if case == Case::TaxSharded {
            single_shard_comparison(ctx, &input, quality);
        }
    } else {
        ctx.report.set("latency_ms", scaled);
        ctx.report
            .set("rows_per_s", input.table.num_rows() as f64 / (scaled / 1e3));
    }
}

/// The sharded RMSE next to a single-shard discovery of the same table:
/// the accuracy sharding costs, kept visible as a finding.
fn single_shard_comparison(ctx: &mut Ctx, input: &Input, sharded_rmse: f64) {
    let single = Input {
        table: input.table.clone(),
        space: input.space.clone(),
        cfg: input.cfg.clone(),
        spec: ShardSpec::single(),
    };
    let (_, artifact) = ctx.tracer.span("single_shard.export", || {
        single.export(&MetricsSink::disabled())
    });
    let single_rmse = rmse(&artifact, &input.table);
    let loss = ratio(sharded_rmse - single_rmse, single_rmse);
    ctx.report.note(format!(
        "sharded rmse {sharded_rmse:.6} vs single-shard {single_rmse:.6} ({} rules): loss {:.4} of base {:.6}",
        artifact.rules.len(),
        loss.value,
        loss.base
    ));
}
