//! The `analysis.json` artifact: static verification reports from
//! `crr-analyze`, written by `experiments -- analyze` and re-validated by
//! `experiments --check` so a drifted emitter — or an artifact with an
//! `unsound` finding — fails CI, not a reader.
//!
//! Reading, writing and the schema-tag dispatch go through
//! [`crate::artifact`]. The layout is documented in `EXPERIMENTS.md`,
//! section "Benchmark artifact schemas".

use crate::artifact::{document, write, Fields, Node, Out};
use crr_analyze::AnalysisReport;

/// Schema tag stamped into the file; bump when the layout changes.
/// `v2` added the A6/A7 check labels and the `absdom_transfers` /
/// `compile_equiv_checks` / `repair_regions` counters, plus the `repair`
/// source for artifacts coming out of a stream repair.
pub const SCHEMA: &str = "crr-analysis-v2";

/// Severity labels the validator accepts, worst first.
pub const SEVERITIES: [&str; 3] = ["unsound", "redundant", "hygiene"];

/// Check labels the validator accepts.
pub const CHECKS: [&str; 7] = [
    "satisfiability",
    "subsumption",
    "guard-soundness",
    "inference-audit",
    "rho-monotonicity",
    "compile-equivalence",
    "repair-obligations",
];

/// One analyzed artifact and its verification report.
#[derive(Debug, Clone)]
pub struct AnalysisRun {
    /// Dataset label (`electricity`, `tax`).
    pub dataset: String,
    /// Instance size |I| the rules were discovered on.
    pub rows: usize,
    /// `single` for an unsharded run (no guard obligations), `sharded`
    /// for a multi-shard run verified against its
    /// [`crr_discovery::ProofObligations`], `repair` for a stream-repaired
    /// artifact audited against its [`crr_discovery::RepairObligations`].
    pub source: String,
    /// The analyzer's report.
    pub report: AnalysisReport,
}

/// Renders the runs as pretty-printed JSON with a stable key order.
pub fn render(runs: &[AnalysisRun]) -> String {
    let runs = runs.iter().map(|r| {
        let findings = r.report.findings.iter().map(|f| {
            Fields::new()
                .str("check", f.check.label())
                .str("severity", f.severity.label())
                .opt("rule", f.rule)
                .opt("shard", f.shard)
                .str("message", &f.message)
                .inline()
        });
        let s = r.report.summary();
        Fields::new()
            .str("dataset", &r.dataset)
            .lit("rows", r.rows)
            .str("source", &r.source)
            .lit("rules", r.report.rules)
            .lit("conjuncts", r.report.conjuncts)
            .lit("shards", r.report.shards)
            .lit("counters", r.report.counters.to_json(6))
            .out("findings", Out::List(findings.collect()))
            .out(
                "summary",
                Fields::new()
                    .lit("unsound", s.unsound)
                    .lit("redundant", s.redundant)
                    .lit("hygiene", s.hygiene)
                    .inline(),
            )
            .block()
    });
    write(SCHEMA, Fields::new().out("runs", Out::List(runs.collect())))
}

/// Validates an `analysis.json` document. On success, returns a one-line
/// summary; on failure, a message naming the first violation.
///
/// Beyond shape (schema tag, non-empty `runs`, known `source` / check /
/// severity labels), this enforces:
///
/// * **the soundness gate** — no finding anywhere carries severity
///   `unsound`; an artifact that fails its own static verification never
///   passes CI;
/// * the per-severity `summary` tallies equal the findings actually
///   listed, and the analyzer's `counters.findings_*` agree with both;
/// * `counters.rules` / `counters.conjuncts` equal the run's `rules` /
///   `conjuncts`, every rule's conjuncts were satisfiability-checked
///   (`counters.unsat_checks ≥ conjuncts`), and every conjunct went
///   through the A6 compile-equivalence comparison
///   (`counters.compile_equiv_checks == conjuncts`);
/// * a `sharded` run verified at least two shard guards, a `single` run
///   none; a `repair` run audited at least one repair region
///   (`counters.repair_regions ≥ 1`) while `single` / `sharded` runs
///   audited none.
pub fn validate(text: &str) -> Result<String, String> {
    let json = document(text, SCHEMA, "runs")?;
    let runs = Node::root(&json).arr("runs")?;
    let mut total_findings = 0u64;
    for r in &runs {
        let ctx = r.path();
        r.str("dataset")?;
        let source = r.str("source")?;
        if source != "single" && source != "sharded" && source != "repair" {
            return Err(format!("{ctx}: unknown source '{source}'"));
        }
        let rules = r.uint("rules")?;
        let conjuncts = r.uint("conjuncts")?;
        let shards = r.uint("shards")?;
        if rules == 0 {
            return Err(format!("{ctx}: analyzed an empty rule set"));
        }
        match source {
            "sharded" if shards < 2 => {
                return Err(format!(
                    "{ctx}: sharded run verified only {shards} shard guard(s)"
                ));
            }
            "single" | "repair" if shards != 0 => {
                return Err(format!(
                    "{ctx}: {source} run claims {shards} shard guard(s)"
                ));
            }
            _ => {}
        }
        let counters = r.obj("counters")?;
        if counters.uint("rules")? != rules {
            return Err(format!("{ctx}: counters.rules disagrees with rules"));
        }
        if counters.uint("conjuncts")? != conjuncts {
            return Err(format!(
                "{ctx}: counters.conjuncts disagrees with conjuncts"
            ));
        }
        if counters.uint("unsat_checks")? < conjuncts {
            return Err(format!(
                "{ctx}: not every conjunct was satisfiability-checked"
            ));
        }
        if counters.uint("compile_equiv_checks")? != conjuncts {
            return Err(format!(
                "{ctx}: not every conjunct went through the compile-equivalence check"
            ));
        }
        let repair_regions = counters.uint("repair_regions")?;
        match source {
            "repair" if repair_regions == 0 => {
                return Err(format!("{ctx}: repair run audited no repair regions"));
            }
            "single" | "sharded" if repair_regions != 0 => {
                return Err(format!(
                    "{ctx}: {source} run claims {repair_regions} repair region(s)"
                ));
            }
            _ => {}
        }
        let mut tally = [0u64; 3]; // unsound, redundant, hygiene
        for f in r.arr("findings")? {
            let check = f.str("check")?;
            if !CHECKS.contains(&check) {
                return Err(format!("{}: unknown check '{check}'", f.path()));
            }
            let severity = f.str("severity")?;
            let Some(si) = SEVERITIES.iter().position(|&s| s == severity) else {
                return Err(format!("{}: unknown severity '{severity}'", f.path()));
            };
            tally[si] += 1;
            let msg = f.str("message")?;
            if severity == "unsound" {
                return Err(format!(
                    "{}: UNSOUND ({check}): {msg} — the artifact fails its own \
                     static verification",
                    f.path()
                ));
            }
        }
        let summary = r.obj("summary")?;
        for (si, name) in SEVERITIES.iter().enumerate() {
            if summary.uint(name)? != tally[si] {
                return Err(format!(
                    "{ctx}: summary.{name} disagrees with the findings listed"
                ));
            }
            let counter_key = format!("findings_{name}");
            if counters.uint(&counter_key)? != tally[si] {
                return Err(format!(
                    "{ctx}: counters.{counter_key} disagrees with the findings listed"
                ));
            }
        }
        total_findings += tally.iter().sum::<u64>();
    }
    Ok(format!(
        "ok: {} run(s), 0 unsound, {total_findings} non-blocking finding(s)",
        runs.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crr_analyze::analyze_artifact;
    use crr_core::{Conjunction, Crr, Dnf, Predicate, RuleSet};
    use crr_data::{AttrId, AttrType, Schema, Value};
    use crr_discovery::{RegionOrigin, RepairObligations, RepairRegion, RuleSetArtifact};
    use crr_models::{ConstantModel, Model};
    use std::sync::Arc;

    fn interval_rule(lo: f64, hi: f64, rho: f64) -> Crr {
        let x = AttrId(0);
        let c = Conjunction::of(vec![
            Predicate::ge(x, Value::Float(lo)),
            Predicate::lt(x, Value::Float(hi)),
        ]);
        Crr::new(
            vec![x],
            AttrId(1),
            Arc::new(Model::Constant(ConstantModel::new(1.0, 1))),
            rho,
            Dnf::single(c),
        )
        .expect("rule")
    }

    fn artifact_of(rules: RuleSet) -> RuleSetArtifact {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        RuleSetArtifact::new(schema, rules, None).expect("artifact")
    }

    fn sample() -> Vec<AnalysisRun> {
        let mut clean = RuleSet::new();
        clean.push(interval_rule(0.0, 10.0, 0.5));
        clean.push(interval_rule(10.0, 20.0, 0.5));
        let mut redundant = RuleSet::new();
        redundant.push(interval_rule(2.0, 4.0, 0.5));
        redundant.push(interval_rule(0.0, 10.0, 0.5));
        // A confined repair: one kept rule, one repaired rule whose
        // conjunct matches the claimed region's guard.
        let mut repaired = RuleSet::new();
        repaired.push(interval_rule(0.0, 10.0, 0.5));
        repaired.push(interval_rule(10.0, 20.0, 0.4));
        let x = AttrId(0);
        let repaired_artifact = artifact_of(repaired)
            .with_repair(RepairObligations {
                kept: 1,
                regions: vec![RepairRegion {
                    region_id: 0,
                    origin: RegionOrigin::Drifted {
                        rule: 1,
                        conjunct: 0,
                    },
                    guards: vec![
                        Predicate::ge(x, Value::Float(10.0)),
                        Predicate::lt(x, Value::Float(20.0)),
                    ],
                }],
            })
            .expect("repair obligations");
        vec![
            AnalysisRun {
                dataset: "electricity".into(),
                rows: 2880,
                source: "single".into(),
                report: analyze_artifact(&artifact_of(clean)),
            },
            AnalysisRun {
                dataset: "tax".into(),
                rows: 2500,
                source: "single".into(),
                report: analyze_artifact(&artifact_of(redundant)),
            },
            AnalysisRun {
                dataset: "electricity".into(),
                rows: 3168,
                source: "repair".into(),
                report: analyze_artifact(&repaired_artifact),
            },
        ]
    }

    #[test]
    fn render_round_trips_through_validate() {
        let summary = validate(&render(&sample())).expect("valid");
        assert!(summary.contains("3 run(s)"), "{summary}");
        assert!(summary.contains("0 unsound"), "{summary}");
        assert!(summary.contains("1 non-blocking"), "{summary}");
    }

    #[test]
    fn repair_runs_must_audit_regions() {
        let mut runs = sample();
        runs[0].source = "repair".into(); // but counters.repair_regions == 0
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("repair region"), "{err}");
        // And the converse: a repair report mislabeled as single.
        let mut runs = sample();
        runs[2].source = "single".into();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("repair region"), "{err}");
    }

    #[test]
    fn unsound_findings_fail_the_gate() {
        let mut runs = sample();
        // Tamper a rule into a non-finite ρ after construction, the way a
        // drifted serializer would.
        let mut bad = RuleSet::new();
        bad.push(interval_rule(0.0, 10.0, 0.5));
        let report = {
            let mut tampered = bad.clone();
            tampered.rules_mut()[0] = tampered.rules_mut()[0].with_model(
                Arc::new(Model::Constant(ConstantModel::new(1.0, 1))),
                f64::NAN,
            );
            analyze_artifact(&artifact_of(tampered))
        };
        assert!(!report.is_sound());
        runs[0].report = report;
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("UNSOUND"), "{err}");
    }

    #[test]
    fn tally_drift_is_rejected() {
        let mut runs = sample();
        // Drop a finding but keep the counters: summary and counters now
        // both disagree with the list.
        runs[1].report.findings.clear();
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("disagrees"), "{err}");
    }

    #[test]
    fn sharded_runs_must_carry_shard_guards() {
        let mut runs = sample();
        runs[0].source = "sharded".into(); // but report.shards == 0
        let err = validate(&render(&runs)).expect_err("must fail");
        assert!(err.contains("shard guard"), "{err}");
    }

    #[test]
    fn fixture_renders_byte_identical_to_the_golden_file() {
        assert_eq!(render(&sample()), include_str!("../golden/analysis.json"));
    }
}
