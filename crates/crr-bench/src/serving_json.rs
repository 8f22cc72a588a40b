//! Tracked serving benchmark output: the `serving` experiment stands up a
//! live `crr-serve` server, drives it with the closed-loop load generator
//! in `crr_serve::client`, and writes `BENCH_serving.json`; CI
//! (`scripts/ci.sh`, through `experiments --check`) re-parses and
//! validates it so a regressed emitter or a degraded serving run fails the
//! build.
//!
//! Reading, writing and the schema-tag dispatch go through
//! [`crate::artifact`]. The schema is documented field by field in
//! `EXPERIMENTS.md`, section "Benchmark artifact schemas".

use crate::artifact::{document, write, Fields, Node, Out};

/// Schema tag stamped into the file; bump when the layout changes.
pub const SCHEMA: &str = "crr-serving-v1";

/// How a load cell was driven, which decides what the validator enforces.
///
/// * `smoke` — a closed loop sized inside the server's capacity: the
///   validator requires **zero** sheds, **zero** timeouts, zero transport
///   errors, and every request answered `200`. This is the CI gate: the
///   serving runtime must answer clean traffic cleanly.
/// * `overload` — deliberately more clients than `max_in_flight`: the
///   validator requires at least one shed (the backpressure path is
///   demonstrably exercised) and zero transport errors (sheds are
///   well-formed `503`s, never resets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingMode {
    /// Within capacity; must be loss-free.
    Smoke,
    /// Beyond capacity; must shed, never error.
    Overload,
}

impl ServingMode {
    /// The label written into the artifact.
    pub fn label(self) -> &'static str {
        match self {
            ServingMode::Smoke => "smoke",
            ServingMode::Overload => "overload",
        }
    }
}

/// One measured load cell: a (dataset, endpoint, mode) point.
#[derive(Debug, Clone)]
pub struct ServingRecord {
    /// Dataset the served rule set was discovered on (`electricity`).
    pub dataset: String,
    /// Discovery instance size |I|.
    pub rows: usize,
    /// Endpoint driven (`/v1/predict`, `/v1/check`).
    pub endpoint: String,
    /// Load mode (see [`ServingMode`]).
    pub mode: ServingMode,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Total requests issued across all clients.
    pub requests: usize,
    /// Requests answered `200`.
    pub completed: usize,
    /// Batch rows per request.
    pub batch_rows: usize,
    /// Requests shed with `503` (`serve.shed` delta over the cell).
    pub shed: u64,
    /// Requests that tripped their deadline (`serve.timeouts` delta).
    pub timeouts: u64,
    /// Transport errors seen by the load generator (resets, hangs).
    pub errors: usize,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// Completed requests per second over the cell's wall time.
    pub throughput_rps: f64,
}

/// The hot-swap churn cell: swaps driven against the live server while
/// load ran, and whether answers stayed pinned to offline evaluation.
#[derive(Debug, Clone)]
pub struct SwapCell {
    /// Sound candidates admitted (`serve.swap_accepted`).
    pub accepted: u64,
    /// Candidates refused by the admission gate (`serve.swap_rejected`).
    pub rejected: u64,
    /// Final serving generation (must equal `accepted`).
    pub generation: u64,
    /// Whether every sampled in-flight answer was byte-identical to the
    /// offline evaluation of the same rule set.
    pub predictions_pinned: bool,
}

/// The full report the `serving` experiment emits.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Every measured load cell.
    pub records: Vec<ServingRecord>,
    /// The swap-churn cell.
    pub swaps: SwapCell,
}

/// Renders the report as pretty-printed JSON with a stable key order.
pub fn render(report: &ServingReport) -> String {
    let records = report.records.iter().map(|r| {
        Fields::new()
            .str("dataset", &r.dataset)
            .lit("rows", r.rows)
            .str("endpoint", &r.endpoint)
            .str("mode", r.mode.label())
            .lit("clients", r.clients)
            .lit("requests", r.requests)
            .lit("completed", r.completed)
            .lit("batch_rows", r.batch_rows)
            .lit("shed", r.shed)
            .lit("timeouts", r.timeouts)
            .lit("errors", r.errors)
            .num("p50_ms", r.p50_ms)
            .num("p90_ms", r.p90_ms)
            .num("p99_ms", r.p99_ms)
            .num("max_ms", r.max_ms)
            .num("throughput_rps", r.throughput_rps)
            .inline()
    });
    let s = &report.swaps;
    let swaps = Fields::new()
        .lit("accepted", s.accepted)
        .lit("rejected", s.rejected)
        .lit("generation", s.generation)
        .lit("predictions_pinned", s.predictions_pinned)
        .inline();
    let body = Fields::new()
        .out("records", Out::List(records.collect()))
        .out("swaps", swaps);
    write(SCHEMA, body)
}

/// Validates a `BENCH_serving.json` document. On success, returns a
/// one-line summary; on failure, a message naming the first violation.
///
/// Shape checks: the schema tag, a non-empty `records` array, and the
/// `swaps` cell. Per record: finite numbers, `completed <= requests`,
/// latency quantiles ordered `0 <= p50 <= p90 <= p99 <= max`, and positive
/// throughput whenever anything completed. Mode semantics:
///
/// * `smoke` cells are loss-free: zero sheds, zero timeouts, zero
///   transport errors, `completed == requests`;
/// * `overload` cells shed at least once and never see transport errors
///   (backpressure answers `503`, it does not reset connections);
/// * at least one record of each mode is present.
///
/// Swap semantics: at least one accepted and one rejected swap (both sides
/// of the admission gate exercised), `generation == accepted`, and
/// `predictions_pinned` true.
pub fn validate(text: &str) -> Result<String, String> {
    let json = document(text, SCHEMA, "records")?;
    let doc = Node::root(&json);
    let records = doc.arr("records")?;
    let (mut smoke, mut overload) = (0usize, 0usize);
    for r in &records {
        let ctx = r.path();
        r.str("dataset")?;
        let endpoint = r.str("endpoint")?;
        if !endpoint.starts_with("/v1/") {
            return Err(format!("{ctx}: unknown endpoint '{endpoint}'"));
        }
        if r.uint("rows")? == 0 || r.uint("batch_rows")? == 0 {
            return Err(format!("{ctx}: empty instance or batch"));
        }
        if r.uint("clients")? == 0 {
            return Err(format!("{ctx}: no clients"));
        }
        let requests = r.uint("requests")?;
        let completed = r.uint("completed")?;
        if requests == 0 || completed > requests {
            return Err(format!(
                "{ctx}: implausible request accounting ({completed}/{requests})"
            ));
        }
        let shed = r.uint("shed")?;
        let timeouts = r.uint("timeouts")?;
        let errors = r.uint("errors")?;
        let p50 = r.num("p50_ms")?;
        let p90 = r.num("p90_ms")?;
        let p99 = r.num("p99_ms")?;
        let max = r.num("max_ms")?;
        if !(0.0 <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max) {
            return Err(format!(
                "{ctx}: latency quantiles out of order (p50={p50}, p90={p90}, p99={p99}, max={max})"
            ));
        }
        let rps = r.num("throughput_rps")?;
        if completed > 0 && rps <= 0.0 {
            return Err(format!("{ctx}: completed {completed} but throughput {rps}"));
        }
        match r.str("mode")? {
            "smoke" => {
                smoke += 1;
                if shed != 0 || timeouts != 0 || errors != 0 || completed != requests {
                    return Err(format!(
                        "{ctx}: smoke cell is not loss-free \
                         (shed={shed}, timeouts={timeouts}, errors={errors}, {completed}/{requests})"
                    ));
                }
            }
            "overload" => {
                overload += 1;
                if shed == 0 {
                    return Err(format!("{ctx}: overload cell never shed"));
                }
                if errors != 0 {
                    return Err(format!(
                        "{ctx}: overload cell saw {errors} transport error(s); sheds must be 503s"
                    ));
                }
            }
            other => return Err(format!("{ctx}: unknown mode '{other}'")),
        }
    }
    if smoke == 0 || overload == 0 {
        return Err(format!(
            "need both modes measured (smoke={smoke}, overload={overload})"
        ));
    }
    let swaps = doc.obj("swaps")?;
    let accepted = swaps.uint("accepted")?;
    let rejected = swaps.uint("rejected")?;
    let generation = swaps.uint("generation")?;
    if accepted == 0 || rejected == 0 {
        return Err(format!(
            "swaps: both gate outcomes must be exercised (accepted={accepted}, rejected={rejected})"
        ));
    }
    if generation != accepted {
        return Err(format!(
            "swaps: generation {generation} != accepted {accepted}"
        ));
    }
    if !swaps.bool("predictions_pinned")? {
        return Err("swaps: predictions diverged from offline evaluation".into());
    }
    Ok(format!(
        "ok: {} cell(s) ({smoke} smoke, {overload} overload), \
         {accepted} swap(s) accepted / {rejected} rejected",
        records.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(mode: ServingMode) -> ServingRecord {
        let overload = mode == ServingMode::Overload;
        ServingRecord {
            dataset: "electricity".into(),
            rows: 11_520,
            endpoint: "/v1/predict".into(),
            mode,
            clients: if overload { 8 } else { 2 },
            requests: 80,
            completed: if overload { 61 } else { 80 },
            batch_rows: 240,
            shed: if overload { 19 } else { 0 },
            timeouts: 0,
            errors: 0,
            p50_ms: 1.2,
            p90_ms: 2.5,
            p99_ms: 4.0,
            max_ms: 9.5,
            throughput_rps: 800.0,
        }
    }

    fn report() -> ServingReport {
        ServingReport {
            records: vec![record(ServingMode::Smoke), record(ServingMode::Overload)],
            swaps: SwapCell {
                accepted: 5,
                rejected: 5,
                generation: 5,
                predictions_pinned: true,
            },
        }
    }

    #[test]
    fn render_round_trips_through_validate() {
        let summary = validate(&render(&report())).expect("valid");
        assert!(summary.contains("2 cell(s)"), "{summary}");
        assert!(summary.contains("5 swap(s) accepted"), "{summary}");
    }

    #[test]
    fn smoke_cell_with_sheds_is_rejected() {
        let mut rep = report();
        rep.records[0].shed = 1;
        let err = validate(&render(&rep)).expect_err("must fail");
        assert!(err.contains("loss-free"), "{err}");
    }

    #[test]
    fn smoke_cell_with_timeouts_is_rejected() {
        let mut rep = report();
        rep.records[0].timeouts = 2;
        assert!(validate(&render(&rep)).is_err());
    }

    #[test]
    fn overload_cell_without_sheds_is_rejected() {
        let mut rep = report();
        rep.records[1].shed = 0;
        let err = validate(&render(&rep)).expect_err("must fail");
        assert!(err.contains("never shed"), "{err}");
    }

    #[test]
    fn transport_errors_are_rejected_in_both_modes() {
        for i in 0..2 {
            let mut rep = report();
            rep.records[i].errors = 1;
            assert!(validate(&render(&rep)).is_err(), "record {i}");
        }
    }

    #[test]
    fn disordered_quantiles_are_rejected() {
        let mut rep = report();
        rep.records[0].p99_ms = 0.5; // below p90
        let err = validate(&render(&rep)).expect_err("must fail");
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn missing_modes_are_rejected() {
        let mut rep = report();
        rep.records.remove(1);
        let err = validate(&render(&rep)).expect_err("must fail");
        assert!(err.contains("both modes"), "{err}");
    }

    #[test]
    fn unexercised_or_diverged_swap_gate_is_rejected() {
        let mut rep = report();
        rep.swaps.rejected = 0;
        assert!(validate(&render(&rep)).is_err());
        let mut rep = report();
        rep.swaps.generation = 4;
        assert!(validate(&render(&rep)).is_err());
        let mut rep = report();
        rep.swaps.predictions_pinned = false;
        let err = validate(&render(&rep)).expect_err("must fail");
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn fixture_renders_byte_identical_to_the_golden_file() {
        assert_eq!(render(&report()), include_str!("../golden/serving.json"));
    }
}
