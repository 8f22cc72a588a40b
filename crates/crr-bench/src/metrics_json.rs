//! The `metrics.json` artifact: structured observability snapshots from
//! instrumented discovery runs, written by `experiments -- bench
//! --metrics-out` and re-validated by `experiments --check` so a drifted
//! emitter or a broken counter invariant fails CI, not a reader.
//!
//! Reading, writing and the schema-tag dispatch go through
//! [`crate::artifact`]. Every metric's meaning, unit and paper
//! correspondence, and this file's layout, are documented in
//! `EXPERIMENTS.md`, section "Benchmark artifact schemas".

use crate::artifact::{document, write, Fields, Node, Out};
use crr_obs::{MetricValue, MetricsSnapshot};

/// Schema tag stamped into the file; bump when the layout changes.
/// v2 added the `shards` section and the `sharded` engine label; v3 added
/// the `serve` section (the serving runtime's counters and gauges); v4
/// added the `kernels` section (compiled-scan and batched-accumulate
/// counters) plus the `pred_scan`/`gram_accumulate` phase timers; v5 added
/// the `stream` section (the incremental maintainer's counters and drift
/// gauges) plus the `stream_apply`/`stream_repair` phase timers; v6 added
/// the planner counters (`shards.plan_*`, `shards.steal_assists`, the
/// `shards.balance_permille` gauge) and the per-run `shard_rows` array,
/// whose sum must equal the run's row count — previously sharded runs
/// never recorded how the rows actually split.
pub const SCHEMA: &str = "crr-metrics-v6";

/// Sections every enabled-sink snapshot must carry (the sink always emits
/// the full schema, zeros included, so file shape is run-independent).
pub const REQUIRED_SECTIONS: [&str; 12] = [
    "queue", "pool", "fits", "moments", "budget", "faults", "run", "phases", "shards", "serve",
    "kernels", "stream",
];

/// Streaming-maintainer counters that must stay zero in a batch discovery
/// run — `metrics.json` captures discovery, and any `stream.*` activity in
/// it means a maintainer leaked into the wrong instrumentation scope.
/// (`BENCH_stream.json` is where streaming runs are tracked.)
const STREAM_COUNTERS: [&str; 10] = [
    "batches",
    "append_rows",
    "delete_rows",
    "routed_pairs",
    "uncovered_rows",
    "moments_updates",
    "violations",
    "drifted_rules",
    "repairs",
    "repaired_rules",
];

/// One instrumented discovery run and its frozen snapshot.
#[derive(Debug, Clone)]
pub struct MetricsRun {
    /// Dataset label (`electricity`, `tax`).
    pub dataset: String,
    /// Instance size |I|.
    pub rows: usize,
    /// Fit engine label (`moments`, `rescan`), or `sharded` for a
    /// multi-shard run (moments engine under a key-range shard plan).
    pub engine: String,
    /// For the fault-harness run: how many injected faults the plan fired,
    /// which `metrics.faults.injected_failures` must equal. `None` for
    /// clean runs, which must record zero fault events.
    pub expected_fault_events: Option<u64>,
    /// Per-shard row counts in shard order for a `sharded` run, empty
    /// otherwise. The validator enforces that they sum to `rows` — a
    /// shard plan that loses or duplicates rows is an emitter bug, not a
    /// tuning matter.
    pub shard_rows: Vec<usize>,
    /// The run's frozen metrics.
    pub snapshot: MetricsSnapshot,
}

/// Renders the runs as pretty-printed JSON with a stable key order.
pub fn render(runs: &[MetricsRun]) -> String {
    let runs = runs.iter().map(|r| {
        let shard_rows: Vec<String> = r.shard_rows.iter().map(usize::to_string).collect();
        Fields::new()
            .str("dataset", &r.dataset)
            .lit("rows", r.rows)
            .str("engine", &r.engine)
            .opt("expected_fault_events", r.expected_fault_events)
            .opt(
                "shard_rows",
                (!shard_rows.is_empty()).then(|| format!("[{}]", shard_rows.join(", "))),
            )
            .lit("metrics", r.snapshot.to_json(6))
            .block()
    });
    write(SCHEMA, Fields::new().out("runs", Out::List(runs.collect())))
}

/// One counter or gauge of a run's `metrics` snapshot.
fn metric(m: &Node, section: &str, key: &str) -> Result<u64, String> {
    m.obj(section)?.uint(key)
}

/// Validates a `metrics.json` document. On success, returns a one-line
/// summary; on failure, a message naming the first violation.
///
/// Beyond shape (schema tag, non-empty `runs`, every required section
/// present per run, an integer `rows`), this enforces the counter
/// invariants the instrumentation promises:
///
/// * a `moments`-engine run never rescans rows (`fits.rescans == 0`), and
///   so does a `sharded` run (which uses the moments engine per shard);
/// * a `rescan`-engine run never touches the moments path
///   (`fits.moments_solves == 0`, `fits.declined_singular == 0`,
///   `moments.add_row_ops == 0`);
/// * the cross-shard pool accounting reconciles in **every** run:
///   `shards.cross_pool_hits + shards.cross_pool_misses ==
///   shards.cross_pool_probes` (all three are zero when unsharded);
/// * the scan-kernel ledger balances in **every** run: each split filters
///   both of its sides through exactly one engine, so
///   `kernels.compiled_scans + kernels.interpreted_scans ==
///   2 × queue.splits`;
/// * the split chooser re-scores only what it swept:
///   `split.exact_rescores <= split.candidates_swept` whenever the run
///   carries the keys (artifacts written before the sweep existed do not);
/// * a `sharded` run actually ran at least two shards (`shards.run >= 2`),
///   carries a `shard_rows` array with one entry per shard run whose sum
///   equals the run's `rows` (no shard plan may lose or duplicate rows),
///   and reports a `shards.balance_permille` gauge within `[0, 1000]`;
///   non-sharded runs must not carry `shard_rows`;
/// * `faults.injected_failures` equals `expected_fault_events` (itself a
///   non-negative integer) when the run declares one, and zero otherwise;
/// * every run popped at least one partition;
/// * every `stream.*` counter is zero — these are batch discovery runs,
///   and streaming-maintainer activity belongs in `BENCH_stream.json`.
pub fn validate(text: &str) -> Result<String, String> {
    let json = document(text, SCHEMA, "runs")?;
    let runs = Node::root(&json).arr("runs")?;
    let mut fault_runs = 0usize;
    for r in &runs {
        let ctx = r.path();
        let engine = r.str("engine")?;
        if engine != "moments" && engine != "rescan" && engine != "sharded" {
            return Err(format!("{ctx}: unknown engine '{engine}'"));
        }
        r.str("dataset")?;
        let rows = r.uint("rows")?;
        let m = r.obj("metrics")?;
        for section in REQUIRED_SECTIONS {
            if m.get(section).is_none() {
                return Err(format!("{ctx}: metrics missing section '{section}'"));
            }
        }
        if metric(&m, "queue", "pops")? == 0 {
            return Err(format!("{ctx}: run popped no partitions"));
        }
        for key in STREAM_COUNTERS {
            let n = metric(&m, "stream", key)?;
            if n != 0 {
                return Err(format!(
                    "{ctx}: discovery run recorded {n} 'stream.{key}' event(s)"
                ));
            }
        }
        let probes = metric(&m, "shards", "cross_pool_probes")?;
        let hits = metric(&m, "shards", "cross_pool_hits")?;
        let misses = metric(&m, "shards", "cross_pool_misses")?;
        if hits + misses != probes {
            return Err(format!(
                "{ctx}: cross-shard pool accounting does not reconcile \
                 ({hits} hits + {misses} misses != {probes} probes)"
            ));
        }
        let splits = metric(&m, "queue", "splits")?;
        let cscans = metric(&m, "kernels", "compiled_scans")?;
        let iscans = metric(&m, "kernels", "interpreted_scans")?;
        if cscans + iscans != 2 * splits {
            return Err(format!(
                "{ctx}: scan-kernel ledger does not balance \
                 ({cscans} compiled + {iscans} interpreted != 2 x {splits} splits)"
            ));
        }
        if let Some(split) = m.get("split") {
            let swept = split.uint("candidates_swept")?;
            let rescored = split.uint("exact_rescores")?;
            if rescored > swept {
                return Err(format!(
                    "{ctx}: split chooser re-scored more candidates than it swept \
                     ({rescored} exact re-scores > {swept} swept)"
                ));
            }
        }
        match engine {
            "moments" | "sharded" => {
                let rescans = metric(&m, "fits", "rescans")?;
                if rescans != 0 {
                    return Err(format!(
                        "{ctx}: {engine} engine recorded {rescans} row rescans"
                    ));
                }
                if engine == "sharded" {
                    let run = metric(&m, "shards", "run")?;
                    if run < 2 {
                        return Err(format!("{ctx}: sharded run executed fewer than 2 shards"));
                    }
                    let shard_rows = r.arr("shard_rows")?;
                    if shard_rows.len() as u64 != run {
                        return Err(format!(
                            "{ctx}: 'shard_rows' has {} entries but the run executed {run} shards",
                            shard_rows.len()
                        ));
                    }
                    let mut sum = 0u64;
                    for n in &shard_rows {
                        let v = n.as_uint()?;
                        if v == 0 {
                            return Err(format!("{}: empty shard", n.path()));
                        }
                        sum += v;
                    }
                    if sum != rows {
                        return Err(format!(
                            "{ctx}: shard rows do not sum to the table rows \
                             ({sum} != {rows}) — the plan lost or duplicated rows"
                        ));
                    }
                    let balance = metric(&m, "shards", "balance_permille")?;
                    if balance > 1000 {
                        return Err(format!(
                            "{ctx}: shards.balance_permille gauge out of range ({balance})"
                        ));
                    }
                }
            }
            _ => {
                for key in ["moments_solves", "declined_singular"] {
                    let n = metric(&m, "fits", key)?;
                    if n != 0 {
                        return Err(format!("{ctx}: rescan engine recorded {n} '{key}' events"));
                    }
                }
                let adds = metric(&m, "moments", "add_row_ops")?;
                if adds != 0 {
                    return Err(format!(
                        "{ctx}: rescan engine recorded {adds} moments add-row ops"
                    ));
                }
            }
        }
        if engine != "sharded" && r.get("shard_rows").is_some() {
            return Err(format!(
                "{ctx}: '{engine}' run carries 'shard_rows' (sharded runs only)"
            ));
        }
        let injected = metric(&m, "faults", "injected_failures")?;
        match r.get("expected_fault_events") {
            Some(expected) => {
                fault_runs += 1;
                let expected = expected.as_uint()?;
                if injected != expected {
                    return Err(format!(
                        "{ctx}: expected {expected} injected fault(s), recorded {injected}"
                    ));
                }
            }
            None => {
                if injected != 0 {
                    return Err(format!(
                        "{ctx}: clean run recorded {injected} injected fault(s)"
                    ));
                }
            }
        }
    }
    Ok(format!(
        "ok: {} run(s), {fault_runs} fault-harness",
        runs.len()
    ))
}

/// Convenience for emitters: a snapshot rendered standalone must parse and
/// expose a counter; used by tests and the `--metrics-out` smoke assert.
pub fn snapshot_counter(snap: &MetricsSnapshot, section: &str, name: &str) -> u64 {
    match snap.get(section, name) {
        Some(MetricValue::Count(v) | MetricValue::Gauge(v)) => v,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_obs::{Counter, MetricsSink};

    fn snap_with(faults: u64) -> MetricsSnapshot {
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::MomentsSolves, 5);
        sink.add(Counter::MomentsAddRowOps, 100);
        sink.add(Counter::InjectedFailures, faults);
        sink.snapshot()
    }

    fn sample() -> Vec<MetricsRun> {
        vec![
            MetricsRun {
                dataset: "electricity".into(),
                rows: 2880,
                engine: "moments".into(),
                expected_fault_events: None,
                shard_rows: Vec::new(),
                snapshot: snap_with(0),
            },
            MetricsRun {
                dataset: "electricity".into(),
                rows: 2880,
                engine: "moments".into(),
                expected_fault_events: Some(1),
                shard_rows: Vec::new(),
                snapshot: snap_with(1),
            },
        ]
    }

    #[test]
    fn render_round_trips_through_validate() {
        let summary = validate(&render(&sample())).expect("valid");
        assert!(summary.contains("2 run(s)"), "{summary}");
        assert!(summary.contains("1 fault-harness"), "{summary}");
    }

    fn sharded_sink() -> MetricsSink {
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::ShardsRun, 4);
        sink.add(Counter::CrossShardPoolProbes, 5);
        sink.add(Counter::CrossShardPoolHits, 3);
        sink.add(Counter::CrossShardPoolMisses, 2);
        sink
    }

    fn sharded_run() -> MetricsRun {
        MetricsRun {
            dataset: "electricity".into(),
            rows: 11520,
            engine: "sharded".into(),
            expected_fault_events: None,
            shard_rows: vec![2880, 2880, 2880, 2880],
            snapshot: sharded_sink().snapshot(),
        }
    }

    #[test]
    fn sharded_runs_validate_with_reconciled_pool_counters() {
        validate(&render(&[sharded_run()])).expect("valid sharded run");
    }

    #[test]
    fn shard_rows_must_sum_to_the_table_rows() {
        let mut run = sharded_run();
        run.shard_rows = vec![2880, 2880, 2880, 2879];
        let err = validate(&render(&[run])).expect_err("must fail");
        assert!(err.contains("lost or duplicated"), "{err}");
    }

    #[test]
    fn shard_rows_must_cover_every_shard_run() {
        let mut run = sharded_run();
        run.shard_rows = vec![5760, 5760];
        let err = validate(&render(&[run])).expect_err("must fail");
        assert!(err.contains("2 entries"), "{err}");

        let mut run = sharded_run();
        run.shard_rows.clear(); // renders as absent
        let err = validate(&render(&[run])).expect_err("must fail");
        assert!(err.contains("shard_rows"), "{err}");
    }

    #[test]
    fn shard_rows_on_an_unsharded_run_are_rejected() {
        let mut runs = sample();
        runs[0].shard_rows = vec![2880];
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("sharded runs only"), "{err}");
    }

    #[test]
    fn unreconciled_pool_counters_are_rejected() {
        let mut runs = sample();
        // A hit that no probe accounts for.
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::MomentsSolves, 5);
        sink.add(Counter::CrossShardPoolHits, 1);
        runs[0].snapshot = sink.snapshot();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("reconcile"), "{err}");
    }

    #[test]
    fn sharded_run_with_too_few_shards_is_rejected() {
        let mut runs = sample();
        runs[0].engine = "sharded".into(); // snapshot has shards.run == 0
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("fewer than 2 shards"), "{err}");
    }

    #[test]
    fn engine_inconsistency_is_rejected() {
        let mut runs = sample();
        runs[0].engine = "rescan".into(); // but the snapshot has moments_solves=5
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("moments_solves"), "{err}");
    }

    #[test]
    fn fault_count_mismatch_is_rejected() {
        let mut runs = sample();
        runs[1].expected_fault_events = Some(3);
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("expected 3"), "{err}");
    }

    #[test]
    fn unexpected_faults_on_clean_run_are_rejected() {
        let mut runs = sample();
        runs[0].snapshot = snap_with(2);
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("clean run"), "{err}");
    }

    #[test]
    fn missing_section_is_rejected() {
        let mut runs = sample();
        runs[0].snapshot.sections.retain(|s| s.name != "budget");
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    fn unbalanced_scan_ledger_is_rejected() {
        let mut runs = sample();
        // A split whose side-filters no kernel accounts for.
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::MomentsSolves, 5);
        sink.add(Counter::Splits, 3);
        sink.add(Counter::KernelCompiledScans, 5);
        runs[0].snapshot = sink.snapshot();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("scan-kernel ledger"), "{err}");
    }

    #[test]
    fn more_rescores_than_swept_candidates_is_rejected() {
        let mut runs = sample();
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::SplitCandidatesSwept, 4);
        sink.add(Counter::SplitExactRescores, 5);
        runs[0].snapshot = sink.snapshot();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("re-scored more candidates"), "{err}");
    }

    #[test]
    fn runs_without_split_counters_still_validate() {
        // Artifacts written before the split counters existed carry no
        // `split` section; the invariant applies only when it is present.
        let mut runs = sample();
        for r in &mut runs {
            r.snapshot.sections.retain(|s| s.name != "split");
        }
        let text = render(&runs);
        assert!(!text.contains("candidates_swept"));
        validate(&text).expect("pre-sweep artifact validates");
    }

    #[test]
    fn stream_activity_in_a_discovery_run_is_rejected() {
        let mut runs = sample();
        let sink = MetricsSink::enabled();
        sink.add(Counter::QueuePops, 7);
        sink.add(Counter::MomentsSolves, 5);
        sink.add(Counter::StreamBatches, 1);
        runs[0].snapshot = sink.snapshot();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("stream.batches"), "{err}");
    }

    #[test]
    fn expected_fault_events_must_be_a_non_negative_integer() {
        // A fractional count must not truncate onto the recorded one, a
        // negative one must not saturate to zero, and a mistyped string
        // must not read as a clean run.
        let mut runs = sample();
        runs[0].expected_fault_events = Some(0);
        let text = render(&runs);
        for (from, to) in [
            (
                "\"expected_fault_events\": 1,",
                "\"expected_fault_events\": 1.5,",
            ),
            (
                "\"expected_fault_events\": 0,",
                "\"expected_fault_events\": -1,",
            ),
            (
                "\"expected_fault_events\": 0,",
                "\"expected_fault_events\": \"2\",",
            ),
        ] {
            assert!(text.contains(from));
            let err = validate(&text.replacen(from, to, 1)).expect_err(to);
            assert!(err.contains("expected_fault_events"), "{err}");
        }
    }

    #[test]
    fn rows_must_be_an_integer_on_every_run() {
        let text = render(&sample()).replacen("\"rows\": 2880,", "\"rows\": 2880.5,", 1);
        let err = validate(&text).expect_err("fractional rows");
        assert!(err.contains("runs[0].rows"), "{err}");
        let mut runs = vec![sharded_run()];
        runs[0].rows = 11_520;
        let text = render(&runs).replacen("\"rows\": 11520,", "\"rows\": 11520.0001,", 1);
        let err = validate(&text).expect_err("fractional sharded rows");
        assert!(err.contains("runs[0].rows"), "{err}");
    }

    #[test]
    fn fixture_renders_byte_identical_to_the_golden_file() {
        let mut runs = sample();
        runs.push(sharded_run());
        assert_eq!(render(&runs), include_str!("../golden/metrics.json"));
    }
}
