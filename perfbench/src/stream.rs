//! `stream-drift`: a `StreamEngine` standing on an electricity base. Each
//! epoch appends a drifting day in fixed-size batches, deletes the oldest
//! day, then runs drift → repair → analyze → swap. A round replays the
//! same epochs on a fresh engine, so every round does identical work.

use crate::discover::{self, Case, Input};
use crate::gauge::Bracket;
use crate::layers::{digest, probe_layers, record_discovery, timed_ms, BATCH_ROWS};
use crate::report::Report;
use crate::stats::{median, ratio, tail};
use crate::trace::Tracer;
use crate::{Ctx, Rng};
use crr_core::RuleIndex;
use crr_data::{RowSet, Table, Value};
use crr_discovery::{MetricsSink, MetricsSnapshot, RuleSetArtifact};
use crr_serve::RuleStore;
use crr_stream::{StreamConfig, StreamEngine};
use std::time::Instant;

/// Base rows the engine stands on (8 days of minutes).
const BASE_ROWS: usize = 11_520;
/// Rows appended and deleted per epoch (one day).
const EPOCH_ROWS: usize = 1_440;
/// Epochs per round.
const EPOCHS: usize = 4;
/// Binary predicates per condition attribute.
const PREDICATES: usize = 255;
/// Level shift of the target per epoch, kW: the tail drifts away from
/// the base's rules by five noise amplitudes a day.
const DRIFT_KW: f64 = 0.25;
/// Rounds that must complete whatever the time budget.
const MIN_ROUNDS: usize = 2;

/// Set-up output: the base and its rules, the drifting tail, and the
/// store repaired sets are swapped into.
struct Standing {
    input: Input,
    base: Table,
    base_artifact: RuleSetArtifact,
    tail: Vec<Vec<Value>>,
}

fn set_up(ctx: &Ctx) -> Standing {
    let total = BASE_ROWS + EPOCHS * EPOCH_ROWS;
    let input = discover::generate(ctx, Case::Electricity, total, PREDICATES, ctx.seed);
    let target = input.cfg.target;
    let base = input
        .table
        .subset(&RowSet::from_sorted((0..BASE_ROWS as u32).collect()));
    let tail: Vec<Vec<Value>> = (BASE_ROWS..total)
        .map(|r| {
            let epoch = (r - BASE_ROWS) / EPOCH_ROWS;
            let mut row = input.table.row(r);
            if let Value::Float(x) = &mut row[target.0] {
                *x += DRIFT_KW * (epoch + 1) as f64;
            }
            row
        })
        .collect();
    let base_artifact = ctx.tracer.span("session.export", || {
        crr_discovery::DiscoverySession::on(&base)
            .predicates(input.space.clone())
            .config(input.cfg.clone())
            .export()
            .expect("discovery on a generated table succeeds")
            .1
    });
    Standing {
        input,
        base,
        base_artifact,
        tail,
    }
}

fn engine(tracer: &Tracer, s: &Standing, sink: &MetricsSink) -> StreamEngine {
    tracer.span("stream.new", || {
        StreamEngine::new(
            s.base.clone(),
            s.base_artifact.rules.clone(),
            s.input.cfg.clone().with_metrics(sink.clone()),
            s.input.space.clone(),
            StreamConfig::default().with_metrics(sink.clone()),
        )
        .expect("the engine stands on its own discovery inputs")
    })
}

/// One epoch's measurements.
struct Epoch {
    rows_per_s: f64,
    repair_ms: f64,
    append_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    drift_ms: f64,
    repair_call_ms: f64,
    affected_rows: usize,
    discovered_rules: usize,
}

/// What one round leaves behind.
struct RoundEnd {
    epochs: Vec<Epoch>,
    /// Digest of the final repaired artifact's text.
    digest: u64,
    /// RMSE of the maintained rules on the live rows.
    rmse: f64,
    artifact: RuleSetArtifact,
    /// The live rows at the end of the round.
    live: Table,
}

/// One round: a fresh engine, [`EPOCHS`] epochs, spans into `tracer`.
fn round(
    report: &mut Report,
    tracer: &Tracer,
    s: &Standing,
    store: &RuleStore,
    sink: &MetricsSink,
) -> RoundEnd {
    let mut eng = engine(tracer, s, sink);
    let mut epochs = Vec::with_capacity(EPOCHS);
    let mut last = None;
    for e in 0..EPOCHS {
        let mut append_ms = Vec::new();
        let mut delete_ms = Vec::new();
        for batch in s.tail[e * EPOCH_ROWS..(e + 1) * EPOCH_ROWS].chunks(BATCH_ROWS) {
            let (r, ms) = timed_ms(|| tracer.span("stream.append", || eng.append(batch)));
            r.expect("appending generated rows succeeds");
            append_ms.push(ms);
        }
        let oldest: Vec<usize> = (e * EPOCH_ROWS..(e + 1) * EPOCH_ROWS).collect();
        for batch in oldest.chunks(BATCH_ROWS) {
            let (r, ms) = timed_ms(|| tracer.span("stream.delete", || eng.delete(batch)));
            r.expect("deleting live rows succeeds");
            delete_ms.push(ms);
        }
        let t = Instant::now();
        let (drift, drift_ms) = timed_ms(|| tracer.span("stream.drift", || eng.drift()));
        let (repaired, repair_call_ms) = timed_ms(|| tracer.span("stream.repair", || eng.repair()));
        let repaired = repaired.expect("repair of a generated stream succeeds");
        let table = eng.table();
        let sound = tracer.span("analyze", || {
            crr_analyze::analyze_artifact_on(&repaired.artifact, table).is_sound()
        });
        let swapped = tracer.span("store.swap", || {
            store.try_swap(repaired.artifact.clone()).is_ok()
        });
        let repair_ms = t.elapsed().as_secs_f64() * 1e3;
        report.attempt(1);
        report.gate(
            format!("epoch {e}: repair leaves no residual violations"),
            repaired.residual_violations == 0,
        );
        report.gate(
            format!("epoch {e}: repaired artifact is sound (A1-A7)"),
            sound,
        );
        report.gate(
            format!("epoch {e}: repaired artifact is admitted by the store"),
            swapped,
        );
        report.gate(
            format!("epoch {e}: the tail drifted or left rows uncovered"),
            !drift.drifted.is_empty() || drift.uncovered_rows > 0,
        );
        let moved: f64 = append_ms.iter().chain(&delete_ms).sum();
        epochs.push(Epoch {
            rows_per_s: (2 * EPOCH_ROWS) as f64 / (moved / 1e3),
            repair_ms,
            append_ms,
            delete_ms,
            drift_ms,
            repair_call_ms,
            affected_rows: repaired.affected_rows,
            discovered_rules: repaired.discovered_rules,
        });
        last = Some(repaired.artifact);
    }
    let artifact = last.expect("EPOCHS > 0");
    let live = eng.live_rows();
    let table = eng.table();
    let rmse = tracer.span("rmse", || {
        let index = RuleIndex::build(eng.rules(), table);
        index.compile(table).evaluate(&live).rmse
    });
    RoundEnd {
        epochs,
        digest: digest(&artifact.to_text()),
        rmse,
        artifact,
        live: table.subset(&live),
    }
}

/// Runs the stream-maintenance workload.
pub fn run(ctx: &mut Ctx) {
    let standing = ctx.setup(|ctx| {
        let s = set_up(ctx);
        drop(engine(&ctx.tracer, &s, &MetricsSink::disabled()));
        s
    });
    discover::record_setup_layers(ctx, &standing.input);
    let store = RuleStore::open(standing.base_artifact.clone(), MetricsSink::disabled())
        .expect("the base artifact passes the admission gate");

    let traced = ctx.traced();
    let deadline = Instant::now() + ctx.budget;
    let mut untraced_epochs = Vec::new();
    // Per untraced epoch: repair time and row rate, scaled by the gauge
    // readings around its round.
    let mut scaled_repair = Vec::new();
    let mut scaled_rate = Vec::new();
    let mut traced_epochs = Vec::new();
    let mut snaps: Vec<MetricsSnapshot> = Vec::new();
    let mut reference: Option<(u64, f64)> = None;
    let mut last_traced = None;
    let off = Tracer::new(false);
    let mut i = 0usize;
    let mut bracket = Bracket::open(&mut ctx.gauge);
    while i < MIN_ROUNDS || Instant::now() < deadline {
        let with_trace = traced && i % 2 == 1;
        let sink = if with_trace {
            MetricsSink::enabled()
        } else {
            MetricsSink::disabled()
        };
        // An untraced round in the traced run is one outside span with
        // nothing recorded inside it.
        let report = &mut ctx.report;
        let tracer = &ctx.tracer;
        let (end, wall_ms, scaled_ms) = bracket.time(&mut ctx.gauge, || {
            if with_trace {
                round(report, tracer, &standing, &store, &sink)
            } else {
                tracer.span("untraced.round", || {
                    round(report, &off, &standing, &store, &sink)
                })
            }
        });
        match reference {
            None => reference = Some((end.digest, end.rmse)),
            Some((d, q)) => ctx.report.gate(
                format!("round {i}: final artifact digest and rmse equal the first round's"),
                d == end.digest && q.to_bits() == end.rmse.to_bits(),
            ),
        }
        if with_trace {
            traced_epochs.extend(end.epochs);
            snaps.push(sink.snapshot());
            last_traced = Some((end.artifact, end.live));
        } else {
            let factor = scaled_ms / wall_ms;
            for e in &end.epochs {
                scaled_repair.push(e.repair_ms * factor);
                scaled_rate.push(e.rows_per_s / factor);
            }
            untraced_epochs.extend(end.epochs);
        }
        i += 1;
    }
    let (dig, quality) = reference.expect("MIN_ROUNDS > 0");
    ctx.report.set("rmse", quality);
    let repair: Vec<f64> = untraced_epochs.iter().map(|e| e.repair_ms).collect();
    let rate: Vec<f64> = untraced_epochs.iter().map(|e| e.rows_per_s).collect();
    let repair_ms = median(&repair).expect("at least one untraced epoch");
    let rows_per_s = median(&rate).expect("at least one untraced epoch");
    let scaled_repair = median(&scaled_repair).expect("at least one untraced epoch");
    let scaled_rate = median(&scaled_rate).expect("at least one untraced epoch");
    ctx.report.note(format!(
        "scaled: repair_ms {scaled_repair:.4}; append_rows_per_s {scaled_rate:.1}"
    ));
    ctx.report.note(format!(
        "repair_ms {repair_ms:.4} (median of {} epochs{}); append_rows_per_s {rows_per_s:.1}; stream_rmse {quality:.6}; final artifact digest {dig:016x}",
        repair.len(),
        tail(&repair)
            .map(|t| format!(", p{} {:.4}", t.percentile, t.value))
            .unwrap_or_default()
    ));
    if traced {
        record_traced(ctx, &untraced_epochs, &traced_epochs, &snaps, last_traced);
    } else {
        ctx.report.set("latency_ms", scaled_repair);
        ctx.report.set("rows_per_s", scaled_rate);
    }
}

fn record_traced(
    ctx: &mut Ctx,
    untraced: &[Epoch],
    traced: &[Epoch],
    snaps: &[MetricsSnapshot],
    last: Option<(RuleSetArtifact, Table)>,
) {
    let per_epoch = |epochs: &[Epoch]| -> f64 {
        let v: Vec<f64> = epochs
            .iter()
            .map(|e| e.repair_ms + e.append_ms.iter().chain(&e.delete_ms).sum::<f64>())
            .collect();
        median(&v).expect("at least one epoch")
    };
    let (u, t) = (per_epoch(untraced), per_epoch(traced));
    let report = &mut ctx.report;
    report.set("trace.untraced_ms", u);
    report.set("trace.traced_ms", t);
    report.set("trace.overhead_ratio", ratio(t, u).value);
    let flat = |f: &dyn Fn(&Epoch) -> Vec<f64>| -> Option<f64> {
        median(&traced.iter().flat_map(f).collect::<Vec<_>>())
    };
    report.set_opt(
        "stream.new_ms",
        median(&ctx.tracer.durations_s("stream.new")).map(|s| s * 1e3),
    );
    report.set_opt("stream.append_ms", flat(&|e| e.append_ms.clone()));
    report.set_opt("stream.delete_ms", flat(&|e| e.delete_ms.clone()));
    report.set_opt("stream.drift_ms", flat(&|e| vec![e.drift_ms]));
    report.set_opt("stream.repair_ms", flat(&|e| vec![e.repair_call_ms]));
    let round_sum = |f: &dyn Fn(&Epoch) -> usize| -> f64 {
        traced.iter().take(EPOCHS).map(f).sum::<usize>() as f64
    };
    report.set("stream.affected_rows", round_sum(&|e| e.affected_rows));
    report.set(
        "stream.discovered_rules",
        round_sum(&|e| e.discovered_rules),
    );
    if let Some(snap) = snaps.last() {
        for (metric, name) in [
            ("stream.routed_pairs", "routed_pairs"),
            ("stream.moments_updates", "moments_updates"),
            ("stream.uncovered_rows", "uncovered_rows"),
            ("stream.violations", "violations"),
        ] {
            report.set(metric, snap.count("stream", name).unwrap_or(0) as f64);
        }
    }
    // Discovery counters of the repairs' sub-discoveries, one round.
    record_discovery(report, snaps);
    let export = median(&ctx.tracer.durations_s("session.export"));
    ctx.report.set_opt("session.export_s", export);
    if let Some((artifact, live)) = last {
        let mut rng = Rng::new(ctx.seed, 17);
        let sound = probe_layers(&mut ctx.report, &ctx.tracer, &artifact, &live, &mut rng);
        ctx.report.gate("probed artifact is sound", sound);
    }
}
