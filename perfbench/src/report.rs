//! The metric registry (the names `BENCHMARK.json` lists) and the result
//! a run prints: a readable block, a host stamp, then one JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with `--trace 0`. Each
/// workload gives them its own headline operation; see the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("rmse", "target"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// layer a workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // crr-datasets, crr-discovery::predicates
    ("datasets.generate_s", "s"),
    ("predicates.generate_s", "s"),
    ("predicates.count", "count"),
    // crr-discovery::session / search (program counters and phase timers;
    // the phases nest and overlap, see the README)
    ("session.export_s", "s"),
    ("queue.pops", "count"),
    ("queue.splits", "count"),
    ("queue.rules_emitted", "count"),
    ("pool.probes", "count"),
    ("pool.hit_ratio", "ratio"),
    ("fits.moments_solves", "count"),
    ("kernels.scan_rows", "count"),
    ("phases.total_s", "s"),
    ("phases.split_selection_s", "s"),
    ("phases.pred_scan_s", "s"),
    ("phases.pool_scan_s", "s"),
    ("phases.gram_accumulate_s", "s"),
    ("phases.fitting_s", "s"),
    ("phases.split_selection_share", "ratio"),
    // crr-discovery::sharded, crr-data::spec
    ("shards.run", "count"),
    ("shards.balance_permille", "permille"),
    ("shards.cross_pool_probes", "count"),
    ("shards.cross_pool_hit_ratio", "ratio"),
    ("shards.steal_assists", "count"),
    ("shards.merge_fusions", "count"),
    // crr-linalg::moments
    ("moments.add_row_ops", "count"),
    ("moments.sibling_subtractions", "count"),
    ("moments.full_rebuilds", "count"),
    // crr-core::index / compiled / check
    ("rules.count", "count"),
    ("index.build_ms", "ms"),
    ("index.predict_rows_per_s", "rows/s"),
    ("index.evaluate_ms", "ms"),
    ("check.ms", "ms"),
    ("check.violations", "count"),
    // crr-discovery::artifact, crr-analyze
    ("artifact.to_text_ms", "ms"),
    ("artifact.from_text_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("analyze.ms", "ms"),
    ("analyze.findings", "count"),
    // crr-serve
    ("store.swap_ms", "ms"),
    ("serve.samples", "count"),
    ("serve.p99_ms", "ms"),
    ("serve.predict_p50_ms", "ms"),
    ("serve.predict_p99_ms", "ms"),
    ("serve.check_p50_ms", "ms"),
    ("serve.check_p99_ms", "ms"),
    ("serve.impute_p50_ms", "ms"),
    ("serve.impute_p99_ms", "ms"),
    ("serve.swap_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.bad_requests", "count"),
    ("serve.slo_rps", "req/s"),
    ("serve.capacity_rps", "req/s"),
    ("loadgen.sent", "count"),
    ("loadgen.connects", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.rung_125_p99_ms", "ms"),
    ("loadgen.rung_250_p99_ms", "ms"),
    ("loadgen.rung_500_p99_ms", "ms"),
    ("loadgen.rung_1000_p99_ms", "ms"),
    ("loadgen.rung_2000_p99_ms", "ms"),
    ("loadgen.rung_4000_p99_ms", "ms"),
    // failure accounting (all phases of the run)
    ("ops.failed_shed", "count"),
    ("ops.failed_timeout", "count"),
    ("ops.failed_transport", "count"),
    ("ops.failed_partial", "count"),
    ("ops.failed_status", "count"),
    ("ops.failed_check", "count"),
    // crr-stream
    ("stream.new_ms", "ms"),
    ("stream.append_ms", "ms"),
    ("stream.delete_ms", "ms"),
    ("stream.drift_ms", "ms"),
    ("stream.repair_ms", "ms"),
    ("stream.affected_rows", "count"),
    ("stream.discovered_rules", "count"),
    ("stream.routed_pairs", "count"),
    ("stream.moments_updates", "count"),
    ("stream.uncovered_rows", "count"),
    ("stream.violations", "count"),
    // the traced run itself
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.spans_s", "s"),
    ("other_s", "s"),
];

/// Why an operation failed; each kind is counted separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Failure {
    /// Shed with `503`.
    Shed,
    /// The server's deadline tripped, or the client timed out.
    Timeout,
    /// Connect, read or write failed.
    Transport,
    /// A `200` answer with `complete: false`.
    Partial,
    /// Any other non-`200` status.
    Status,
    /// A correctness gate failed.
    Check,
}

impl Failure {
    /// The per-layer metric counting this kind.
    pub fn metric(self) -> &'static str {
        match self {
            Failure::Shed => "ops.failed_shed",
            Failure::Timeout => "ops.failed_timeout",
            Failure::Transport => "ops.failed_transport",
            Failure::Partial => "ops.failed_partial",
            Failure::Status => "ops.failed_status",
            Failure::Check => "ops.failed_check",
        }
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failures: BTreeMap<Failure, u64>,
    failed_gates: Vec<String>,
    /// Readable lines printed before the JSON result.
    notes: Vec<String>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

impl Report {
    /// Records a metric. Panics on a name the registry lacks: that is a
    /// bug in the benchmark, caught by its first run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Records a metric if the value exists.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation of `kind`.
    pub fn fail(&mut self, kind: Failure) {
        *self.failures.entry(kind).or_default() += 1;
    }

    /// A correctness gate: a failure is a failed operation and makes the
    /// run incorrect.
    pub fn gate(&mut self, what: impl Into<String>, ok: bool) {
        if !ok {
            self.fail(Failure::Check);
            self.failed_gates.push(what.into());
        }
    }

    /// Adds a readable line to the report block.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Failed operations so far, all kinds.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// The readable block, then the JSON result line. `metrics` is the
    /// registry of the mode the run was in; every entry must have been
    /// set for end-to-end metrics, and per-layer metrics a workload did
    /// not reach read 0.
    pub fn render(&mut self, metrics: &[(&'static str, &'static str)], strict: bool) -> String {
        if !strict {
            for (kind, n) in &self.failures {
                self.values.insert(kind.metric(), *n as f64);
            }
        }
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        for gate in &self.failed_gates {
            let _ = writeln!(out, "# FAILED CHECK: {gate}");
        }
        let mut missing = Vec::new();
        let mut body = String::new();
        for (i, (name, unit)) in metrics.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if strict => {
                    missing.push(*name);
                    0.0
                }
                None => 0.0,
            };
            let _ = writeln!(out, "# {name:<34} {value:>16.6} {unit}");
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        for name in &missing {
            let _ = writeln!(
                out,
                "# FAILED CHECK: end-to-end metric {name} was not measured"
            );
        }
        let correct = self.failed_gates.is_empty() && missing.is_empty();
        let failed = self.failed() + missing.len() as u64;
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1)
        );
        out
    }
}

/// A finite number in JSON with all its digits (`{:?}` prints the
/// shortest representation that reads back to the same `f64`).
fn json_num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} registered twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// The registry is what `BENCHMARK.json` promises: same names, same
    /// units, same order.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = crr_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |section: &str| -> Vec<(String, String)> {
            let field = |m: &crr_obs::json::Json, key: &str| {
                m.get(key)
                    .and_then(|v| v.as_str())
                    .expect("string field")
                    .to_string()
            };
            doc.get(section)
                .and_then(|v| v.as_arr())
                .expect("section is a list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let own = |reg: &[(&str, &str)]| -> Vec<(String, String)> {
            reg.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_is_last_and_counts_failures() {
        let mut r = Report::default();
        r.attempt(3);
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.gate("answer matched", false);
        let text = r.render(END_TO_END, true);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
        assert!(last.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(0.1234567891234), "0.1234567891234");
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.attempt(1);
        let text = r.render(END_TO_END, true);
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
