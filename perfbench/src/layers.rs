//! Measurements shared by every workload: the program's own counters and
//! phase timers read from `MetricsSink::snapshot()`, and timed calls into
//! the rule-index, check, artifact, analyzer and rule-store layers on a
//! workload's final artifact.

use crate::report::Report;
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::Rng;
use crr_core::{check, RuleIndex};
use crr_data::{RowSet, Table};
use crr_discovery::{MetricsSink, MetricsSnapshot, RuleSetArtifact};
use crr_serve::RuleStore;
use std::time::Instant;

/// Rows in one serving batch, the unit every per-batch layer metric uses.
pub const BATCH_ROWS: usize = 240;

/// Repeats of each in-process layer probe; the median is reported.
const PROBE_REPEATS: usize = 15;

/// FNV-1a digest of an artifact's text: equal digests across iterations
/// and across traced and untraced runs show the work was the same.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A seeded batch of [`BATCH_ROWS`] distinct rows of `table`.
pub fn sample_rows(table: &Table, rng: &mut Rng) -> RowSet {
    let n = table.num_rows();
    let mut picked: Vec<u32> = Vec::with_capacity(BATCH_ROWS);
    while picked.len() < BATCH_ROWS.min(n) {
        let r = rng.below(n) as u32;
        if !picked.contains(&r) {
            picked.push(r);
        }
    }
    RowSet::from_indices(picked)
}

/// Milliseconds of one call, with its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn median_ms(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPEATS).map(|_| f()).collect();
    median(&samples).unwrap_or(0.0)
}

/// Copies the discovery counters and phase timers of a traced run into
/// the report. `phase_snaps` are the snapshots of every traced discovery;
/// phase timers report their median, counters the last snapshot (they
/// repeat exactly for a fixed input).
pub fn record_discovery(report: &mut Report, phase_snaps: &[MetricsSnapshot]) {
    let Some(last) = phase_snaps.last() else {
        return;
    };
    let count = |s: &str, n: &str| last.count(s, n).unwrap_or(0) as f64;
    for (metric, section, name) in [
        ("queue.pops", "queue", "pops"),
        ("queue.splits", "queue", "splits"),
        ("queue.rules_emitted", "queue", "rules_emitted"),
        ("pool.probes", "pool", "probes"),
        ("fits.moments_solves", "fits", "moments_solves"),
        ("kernels.scan_rows", "kernels", "scan_rows"),
        ("shards.run", "shards", "run"),
        ("shards.balance_permille", "shards", "balance_permille"),
        ("shards.cross_pool_probes", "shards", "cross_pool_probes"),
        ("shards.steal_assists", "shards", "steal_assists"),
        ("shards.merge_fusions", "shards", "merge_fusions"),
        ("moments.add_row_ops", "moments", "add_row_ops"),
        (
            "moments.sibling_subtractions",
            "moments",
            "sibling_subtractions",
        ),
        ("moments.full_rebuilds", "moments", "full_rebuilds"),
    ] {
        report.set(metric, count(section, name));
    }
    let hits = ratio(count("pool", "hits"), count("pool", "probes"));
    report.set("pool.hit_ratio", hits.value);
    let cross = ratio(
        count("shards", "cross_pool_hits"),
        count("shards", "cross_pool_probes"),
    );
    report.set("shards.cross_pool_hit_ratio", cross.value);
    report.note(format!(
        "pool.hit_ratio {:.4} of {} probes; shards.cross_pool_hit_ratio {:.4} of {} probes",
        hits.value, hits.base, cross.value, cross.base
    ));

    let phase = |name: &str| -> f64 {
        let v: Vec<f64> = phase_snaps
            .iter()
            .filter_map(|s| s.secs("phases", &format!("{name}_secs")))
            .collect();
        median(&v).unwrap_or(0.0)
    };
    for (metric, name) in [
        ("phases.total_s", "total"),
        ("phases.split_selection_s", "split_selection"),
        ("phases.pred_scan_s", "pred_scan"),
        ("phases.pool_scan_s", "pool_scan"),
        ("phases.gram_accumulate_s", "gram_accumulate"),
        ("phases.fitting_s", "fitting"),
    ] {
        report.set(metric, phase(name));
    }
    let share = ratio(phase("split_selection"), phase("total"));
    report.set("phases.split_selection_share", share.value);
    report.note(format!(
        "phases.split_selection_share {:.4} of phases.total_s {:.6} (phases nest and overlap; pool scan sums across workers)",
        share.value, share.base
    ));
}

/// Times the rule-index, check, artifact, analyzer and rule-store layers
/// on `artifact` over `table`, each under an outside span, and records
/// them. Returns whether the analyzer found the artifact sound.
pub fn probe_layers(
    report: &mut Report,
    tracer: &Tracer,
    artifact: &RuleSetArtifact,
    table: &Table,
    rng: &mut Rng,
) -> bool {
    let rules = &artifact.rules;
    let all = table.all_rows();
    let batch = table.subset(&sample_rows(table, rng));
    report.set("rules.count", rules.len() as f64);

    let build_ms = tracer.span("index.build", || {
        median_ms(|| {
            timed_ms(|| {
                let index = RuleIndex::build(rules, &batch);
                std::hint::black_box(index.compile(&batch).covers(0));
            })
            .1
        })
    });
    report.set("index.build_ms", build_ms);

    let predict_rows_per_s = tracer.span("index.predict", || {
        let index = RuleIndex::build(rules, &batch);
        let fast = index.compile(&batch);
        let ms = median_ms(|| {
            timed_ms(|| {
                for row in 0..batch.num_rows() {
                    std::hint::black_box(fast.predict(row));
                }
            })
            .1
        });
        batch.num_rows() as f64 / (ms / 1e3)
    });
    report.set("index.predict_rows_per_s", predict_rows_per_s);

    let evaluate_ms = tracer.span("index.evaluate", || {
        median_ms(|| {
            timed_ms(|| {
                let index = RuleIndex::build(rules, table);
                std::hint::black_box(index.compile(table).evaluate(&all).rmse);
            })
            .1
        })
    });
    report.set("index.evaluate_ms", evaluate_ms);

    let batch_rows = batch.all_rows();
    let (violations, check_ms) = tracer.span("check", || {
        let mut violations = 0;
        let ms = median_ms(|| {
            let (r, ms) = timed_ms(|| check(rules, &batch, &batch_rows));
            violations = r.violations.len();
            ms
        });
        (violations, ms)
    });
    report.set("check.ms", check_ms);
    report.set("check.violations", violations as f64);

    let (text, to_text_ms) = tracer.span("artifact.to_text", || {
        let mut text = String::new();
        let ms = median_ms(|| {
            let (t, ms) = timed_ms(|| artifact.to_text());
            text = t;
            ms
        });
        (text, ms)
    });
    report.set("artifact.to_text_ms", to_text_ms);
    report.set("artifact.bytes", text.len() as f64);
    let (parsed_ok, from_text_ms) = tracer.span("artifact.from_text", || {
        let mut ok = true;
        let ms = median_ms(|| {
            let (r, ms) = timed_ms(|| RuleSetArtifact::from_text(&text));
            ok &= r.map(|a| a.to_text() == text).unwrap_or(false);
            ms
        });
        (ok, ms)
    });
    report.set("artifact.from_text_ms", from_text_ms);
    report.gate("artifact text round-trips byte-identically", parsed_ok);

    let (sound, findings, analyze_ms) = tracer.span("analyze", || {
        let mut sound = true;
        let mut findings = 0;
        let ms = median_ms(|| {
            let (r, ms) = timed_ms(|| crr_analyze::analyze_artifact_on(artifact, table));
            sound &= r.is_sound();
            findings = r.findings.len();
            ms
        });
        (sound, findings, ms)
    });
    report.set("analyze.ms", analyze_ms);
    report.set("analyze.findings", findings as f64);

    let swap_ms = tracer.span("store.swap", || {
        let store = RuleStore::open(artifact.clone(), MetricsSink::disabled())
            .expect("a sound artifact opens a store");
        median_ms(|| timed_ms(|| store.try_swap_text(&text).is_ok()).1)
    });
    report.set("store.swap_ms", swap_ms);
    sound
}
