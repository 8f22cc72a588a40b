//! `serve-mixed`: a rule set discovered during set-up, served by
//! `crr-serve` with `workers = nproc`, under an open-loop mix of
//! predict/check/impute batches with hot swaps interleaved.
//!
//! The mix follows the repository's serving bench (`experiments serving`,
//! which writes `BENCH_serving.json`): its load cells send 240-row predict
//! and check batches in equal numbers, and its churn cell interleaves 10
//! swaps with 10 predicts, one swap in 18 of its 180 requests. Impute,
//! which that bench does not drive, is given the same share as predict and
//! check; that share is an assumption.

use crate::discover::{self, rmse, Case, Input};
use crate::gauge::scaled;
use crate::layers::{digest, probe_layers, record_discovery, sample_rows, timed_ms, BATCH_ROWS};
use crate::loadgen::{closed_loop, open_loop, Answer, Record, Usage};
use crate::report::{Failure, Report};
use crate::stats::{judge_rung, median, ratio, tail, tail_at_most, Verdict};
use crate::{Ctx, Rng};
use crr_core::{check, RuleIndex};
use crr_data::{Table, Value};
use crr_discovery::{MetricsSink, RuleSetArtifact};
use crr_obs::json;
use crr_serve::{RuleStore, ServeConfig, Server};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Rows of the served electricity table (8 days).
const ROWS: usize = 11_520;
/// Binary predicates per condition attribute for the served discovery.
const PREDICATES: usize = 255;
/// Distinct request batches; requests cycle through them.
const BATCHES: usize = 32;
/// Every `SWAP_EVERY`-th scheduled request is a hot swap; the requests
/// between cycle through predict, check and impute.
const SWAP_EVERY: u64 = 18;
/// The rate ladder, requests per second. The first rung is the nominal
/// rate, about a tenth of the closed-loop capacity at seed, so that the
/// nominal latency stays clear of queueing when the host's speed halves;
/// the ladder runs to about three times capacity and stops at the first
/// rung that misses the limit.
const LADDER: [f64; 6] = [125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0];
/// Names of the per-rung p99 metrics, parallel to [`LADDER`].
const RUNG_METRICS: [&str; 6] = [
    "loadgen.rung_125_p99_ms",
    "loadgen.rung_250_p99_ms",
    "loadgen.rung_500_p99_ms",
    "loadgen.rung_1000_p99_ms",
    "loadgen.rung_2000_p99_ms",
    "loadgen.rung_4000_p99_ms",
];
/// Limit on a rung's p99 data-plane latency (from the due time).
const LIMIT_MS: f64 = 10.0;
/// Samples a ladder rung above the nominal one aims for (enough for p99
/// with ten beyond), within [`RUNG_MIN`, `RUNG_MAX`].
const RUNG_SAMPLES: f64 = 1_300.0;
const RUNG_MIN: Duration = Duration::from_millis(750);
const RUNG_MAX: Duration = Duration::from_millis(2_600);
/// Open-loop warm-up before anything is recorded.
const WARMUP: Duration = Duration::from_millis(500);
/// The measured nominal rung runs in windows of this length with a gauge
/// reading between windows; each window's latencies are scaled by the
/// readings around it.
const WINDOW_SECS: f64 = 1.0;

/// A request kind of the mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Predict,
    Check,
    Impute,
    Swap,
}

impl Kind {
    fn of(j: u64) -> Kind {
        if j % SWAP_EVERY == SWAP_EVERY - 1 {
            return Kind::Swap;
        }
        match data_index(j) % 3 {
            0 => Kind::Predict,
            1 => Kind::Check,
            _ => Kind::Impute,
        }
    }

    fn path(self) -> &'static str {
        match self {
            Kind::Predict => "/v1/predict",
            Kind::Check => "/v1/check",
            Kind::Impute => "/v1/impute",
            Kind::Swap => "/admin/swap",
        }
    }
}

/// Data requests before slot `j` of the schedule (swap slots excluded).
fn data_index(j: u64) -> u64 {
    j - j / SWAP_EVERY
}

/// One request batch: its bodies and, per served artifact, what offline
/// evaluation says the server must answer.
struct Batch {
    body: String,
    impute_body: String,
    expect: [Expect; 2],
}

/// Offline answers of one artifact for one batch.
struct Expect {
    /// Digest of the `"predictions": [...]` fragment.
    predictions: u64,
    /// Digest of the imputation's `"values": [...]` fragment.
    values: u64,
    /// The check summary fragment (`"checked": .., "uncovered": ..`).
    check: String,
    /// Violations offline `check` finds.
    violations: usize,
}

/// What set-up builds.
struct Served {
    input: Input,
    artifacts: [RuleSetArtifact; 2],
    texts: [String; 2],
    batches: Vec<Batch>,
    /// Index of the batch rows in the table, for the in-process probe.
    probe: Table,
}

fn render_row(out: &mut String, row: &[Value]) {
    out.push('[');
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        match v {
            Value::Null => out.push_str("null"),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(x) => out.push_str(&json::num(*x)),
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", json::esc(s));
            }
        }
    }
    out.push(']');
}

fn render_nums(key: &str, values: impl Iterator<Item = Option<f64>>) -> String {
    let mut out = format!("\"{key}\": [");
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match v {
            Some(x) => out.push_str(&json::num(x)),
            None => out.push_str("null"),
        }
    }
    out.push(']');
    out
}

/// Builds one batch: `rows` of the table, with every third target nulled
/// for imputation, and the offline answers of both artifacts.
fn batch(table: &Table, rows: &crr_data::RowSet, artifacts: &[RuleSetArtifact; 2]) -> Batch {
    let target = artifacts[0].rules.rules()[0].target();
    let plain = table.subset(rows);
    let mut holes = plain.clone();
    for r in (0..holes.num_rows()).step_by(3) {
        holes.set_null(r, target);
    }
    let body_of = |t: &Table| {
        let mut body = String::from("{\"rows\": [");
        for r in 0..t.num_rows() {
            if r > 0 {
                body.push_str(", ");
            }
            render_row(&mut body, &t.row(r));
        }
        body.push_str("]}");
        body
    };
    let answers = |a: &RuleSetArtifact| {
        let index = RuleIndex::build(&a.rules, &plain);
        let predictions = render_nums(
            "predictions",
            (0..plain.num_rows()).map(|r| index.predict(&plain, r)),
        );
        let index = RuleIndex::build(&a.rules, &holes);
        let values = render_nums(
            "values",
            (0..holes.num_rows()).map(|r| {
                holes
                    .value_f64(r, target)
                    .or_else(|| index.predict(&holes, r))
            }),
        );
        let report = check(&a.rules, &plain, &plain.all_rows());
        Expect {
            predictions: digest(&predictions),
            values: digest(&values),
            check: format!(
                "\"checked\": {}, \"uncovered\": {}",
                report.checked, report.uncovered
            ),
            violations: report.violations.len(),
        }
    };
    Batch {
        body: body_of(&plain),
        impute_body: body_of(&holes),
        expect: [answers(&artifacts[0]), answers(&artifacts[1])],
    }
}

fn set_up(ctx: &Ctx) -> Served {
    let input = discover::generate(ctx, Case::Electricity, ROWS, PREDICATES, ctx.seed);
    let a = ctx.tracer.span("session.export", || {
        input.export(&MetricsSink::disabled()).1
    });
    // The swap partner: the same table discovered under twice the bias
    // bound, so its answers differ and a torn swap would show.
    let mut looser = input.cfg.clone();
    looser.rho_max *= 2.0;
    let b = ctx.tracer.span("session.export.swap_partner", || {
        crr_discovery::DiscoverySession::on(&input.table)
            .predicates(input.space.clone())
            .config(looser)
            .export()
            .expect("discovery on a generated table succeeds")
            .1
    });
    let artifacts = [a, b];
    let texts = [artifacts[0].to_text(), artifacts[1].to_text()];
    let mut rng = Rng::new(ctx.seed, 11);
    let (batches, probe) = ctx.tracer.span("batches.build", || {
        let batches: Vec<Batch> = (0..BATCHES)
            .map(|_| {
                batch(
                    &input.table,
                    &sample_rows(&input.table, &mut rng),
                    &artifacts,
                )
            })
            .collect();
        let probe = input.table.subset(&sample_rows(&input.table, &mut rng));
        (batches, probe)
    });
    Served {
        input,
        artifacts,
        texts,
        batches,
        probe,
    }
}

/// A started server, drained and joined when dropped: a repeated set-up
/// leaves no server behind.
struct Running(Option<Server>);

impl Running {
    fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running until dropped").addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

fn start(ctx: &Ctx, served: &Served, sink: MetricsSink) -> Running {
    ctx.tracer.span("server.start", || {
        let store = RuleStore::open(served.artifacts[0].clone(), sink)
            .expect("the set-up artifact passed the admission gate");
        let server = Server::start(
            Arc::new(store),
            ServeConfig {
                workers: ctx.nproc,
                ..ServeConfig::default()
            },
        )
        .expect("bind a loopback port");
        Running(Some(server))
    })
}

/// The mixed schedule from request `shift` on: slot `j` is a swap when
/// `j % SWAP_EVERY == SWAP_EVERY - 1`, else predict, check or impute in
/// turn, each on the next batch.
pub struct Mixed<'a> {
    served: &'a Served,
    shift: u64,
}

impl Mixed<'_> {
    /// Position of run request `i` in the mixed schedule.
    fn slot(&self, i: u64) -> u64 {
        self.shift + i
    }

    /// The batch that schedule slot `j` sends.
    fn batch(&self, j: u64) -> &Batch {
        &self.served.batches[(data_index(j) / 3) as usize % BATCHES]
    }

    /// Request `i` of the run: `(method, path, body)`.
    pub fn request(&self, i: u64) -> (&'static str, &'static str, &str) {
        let j = self.slot(i);
        let kind = Kind::of(j);
        let batch = self.batch(j);
        let body = match kind {
            Kind::Swap => &self.served.texts[((j / SWAP_EVERY + 1) % 2) as usize],
            Kind::Impute => &batch.impute_body,
            _ => &batch.body,
        };
        ("POST", kind.path(), body.as_str())
    }

    /// What of answer `i` to keep until the run ends. Data answers are
    /// condensed to their head (generation, outcome, counts), the digest of
    /// the predictions or values array, and the violation count — all that
    /// the checks read.
    pub fn keep(&self, i: u64, mut answer: Answer) -> Answer {
        let kind = Kind::of(self.slot(i));
        if kind == Kind::Swap {
            return answer;
        }
        let body = &answer.body;
        let head = &body[..body.find('[').unwrap_or(body.len())];
        let key = match kind {
            Kind::Predict => Some("\"predictions\": ["),
            Kind::Impute => Some("\"values\": ["),
            _ => None,
        };
        let fragment = key
            .and_then(|k| body.find(k))
            .and_then(|at| body[at..].find(']').map(|len| &body[at..=at + len]));
        answer.body = format!(
            "{head}|{:016x}|{}",
            fragment.map_or(0, digest),
            body.matches("\"row\": ").count()
        );
        answer
    }
}

fn field_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// One phase's outcome, classified.
#[derive(Default)]
struct Phase {
    /// Data-plane latencies from the due time, ms, by kind.
    latency: HashMap<&'static str, Vec<f64>>,
    all: Vec<f64>,
    late: Vec<f64>,
    swap_ms: Vec<f64>,
    ok: u64,
    failed: u64,
    by_failure: HashMap<Failure, u64>,
    timings: Vec<crate::stats::Timing>,
    usage: Usage,
}

impl Phase {
    /// Adds `other`'s records and counts to this phase.
    fn absorb(&mut self, other: Phase) {
        for (k, v) in other.latency {
            self.latency.entry(k).or_default().extend(v);
        }
        self.all.extend(other.all);
        self.late.extend(other.late);
        self.swap_ms.extend(other.swap_ms);
        self.ok += other.ok;
        self.failed += other.failed;
        for (f, n) in other.by_failure {
            *self.by_failure.entry(f).or_default() += n;
        }
        self.timings.extend(other.timings);
        self.usage.sent += other.usage.sent;
        self.usage.connects += other.usage.connects;
    }
}

/// Classifies and checks every record of a phase. `generations` maps a
/// swap generation to the artifact it published; it is extended by this
/// phase's swaps before any answer is checked.
fn settle(
    report: &mut Report,
    plan: &Mixed<'_>,
    records: &[Record],
    usage: Usage,
    generations: &mut HashMap<u64, usize>,
) -> Phase {
    let mut phase = Phase {
        usage,
        ..Phase::default()
    };
    let kind_of = |r: &Record| Kind::of(plan.slot(r.index));
    for r in records {
        if kind_of(r) == Kind::Swap {
            if let Ok(a) = &r.answer {
                if let (200, Some(g)) = (a.status, field_u64(&a.body, "generation")) {
                    generations.insert(g, (plan.slot(r.index) / SWAP_EVERY + 1) as usize % 2);
                }
            }
        }
    }
    for r in records {
        let kind = kind_of(r);
        report.attempt(1);
        let failure = match &r.answer {
            Err(f) => Some(*f),
            Ok(a) if a.status == 503 => Some(Failure::Shed),
            Ok(a) if a.status != 200 => Some(Failure::Status),
            Ok(a) if a.body.contains("\"complete\": false") => {
                Some(if a.body.contains("deadline") {
                    Failure::Timeout
                } else {
                    Failure::Partial
                })
            }
            Ok(_) => None,
        };
        if let Some(f) = failure {
            report.fail(f);
            *phase.by_failure.entry(f).or_default() += 1;
            phase.failed += 1;
            continue;
        }
        let answer = r.answer.as_ref().expect("failures handled above");
        if kind == Kind::Swap {
            phase
                .swap_ms
                .push(r.timing.done.duration_since(r.timing.sent).as_secs_f64() * 1e3);
            phase.ok += 1;
            continue;
        }
        let batch = plan.batch(plan.slot(r.index));
        let generation = field_u64(&answer.body, "generation").unwrap_or(u64::MAX);
        let correct = match generations
            .get(&generation)
            .copied()
            .or((generation == 0).then_some(0))
        {
            None => false,
            Some(which) => {
                let expect = &batch.expect[which];
                let tail = |digest: u64, violations: usize| format!("|{digest:016x}|{violations}");
                match kind {
                    Kind::Predict => answer.body.ends_with(&tail(expect.predictions, 0)),
                    Kind::Impute => answer.body.ends_with(&tail(expect.values, 0)),
                    _ => {
                        answer.body.contains(&expect.check)
                            && answer.body.ends_with(&tail(0, expect.violations))
                    }
                }
            }
        };
        report.gate(
            format!(
                "{} answer {} equals offline evaluation of generation {generation}",
                kind.path(),
                r.index
            ),
            correct,
        );
        if !correct {
            *phase.by_failure.entry(Failure::Check).or_default() += 1;
            phase.failed += 1;
            continue;
        }
        phase.ok += 1;
        let ms = r.timing.latency_ms();
        phase.latency.entry(kind.path()).or_default().push(ms);
        phase.all.push(ms);
        phase.late.push(r.timing.late_ms());
        phase.timings.push(r.timing);
    }
    phase
}

fn describe(label: &str, p: &Phase) -> String {
    let t = tail(&p.all);
    let count = |f| p.by_failure.get(&f).copied().unwrap_or(0);
    format!(
        "{label}: attempted {} ok {} failed {} (shed {} timeout {} transport {} partial {} status {} check {}), p50 {:.4} ms, {} over {} samples, late p99 {:.4} ms, connects {}",
        p.ok + p.failed,
        p.ok,
        p.failed,
        count(Failure::Shed),
        count(Failure::Timeout),
        count(Failure::Transport),
        count(Failure::Partial),
        count(Failure::Status),
        count(Failure::Check),
        median(&p.all).unwrap_or(f64::NAN),
        t.map(|t| format!("p{} {:.4} ms", t.percentile, t.value))
            .unwrap_or_else(|| "no tail".into()),
        p.all.len(),
        tail_at_most(&p.late, 99.0).map_or(f64::NAN, |t| t.value),
        p.usage.connects,
    )
}

/// Runs the serving workload.
pub fn run(ctx: &mut Ctx) {
    let served = ctx.setup(|ctx| {
        let served = set_up(ctx);
        let server = start(ctx, &served, MetricsSink::disabled());
        (served, server)
    });
    let (served, server) = served;
    for (i, a) in served.artifacts.iter().enumerate() {
        let sound = ctx.tracer.span("analyze.gate", || {
            crr_analyze::analyze_artifact_on(a, &served.input.table).is_sound()
        });
        ctx.report
            .gate(format!("served artifact {i} is sound (A1-A7)"), sound);
    }
    ctx.report.note(format!(
        "served artifact digests {:016x} / {:016x} ({} / {} rules)",
        digest(&served.texts[0]),
        digest(&served.texts[1]),
        served.artifacts[0].rules.len(),
        served.artifacts[1].rules.len()
    ));
    discover::record_setup_layers(ctx, &served.input);
    let quality = ctx
        .tracer
        .span("rmse", || rmse(&served.artifacts[0], &served.input.table));
    ctx.report.set("rmse", quality);

    let budget = ctx.budget.as_secs_f64();
    let traced = ctx.traced();
    let mut load = Load::new(&served, ctx.nproc);
    load.phase(
        ctx,
        "warmup",
        server.addr(),
        LADDER[0],
        WARMUP.as_secs_f64(),
    );
    let nominal_share = if traced { 0.25 } else { 0.6 };
    let (nominal, nominal_scaled) = load.nominal(
        ctx,
        if traced {
            "untraced.nominal"
        } else {
            "loadgen.nominal"
        },
        server.addr(),
        budget * nominal_share,
    );
    ctx.report.note(describe(
        &format!("nominal rung {} req/s", LADDER[0]),
        &nominal,
    ));
    let p50 = median(&nominal.all).expect("the nominal rung answered");
    let scaled_p50 = median(&nominal_scaled).expect("the nominal rung answered");
    let p99 = tail_at_most(&nominal.all, 99.0);
    ctx.report.note(format!(
        "serve_p50_ms {p50:.4}; serve_p99_ms {} over {} samples; swap_ms {:.4} (median of {})",
        p99.map_or("n/a".into(), |t| format!(
            "{:.4} (p{})",
            t.value, t.percentile
        )),
        nominal.all.len(),
        median(&nominal.swap_ms).unwrap_or(f64::NAN),
        nominal.swap_ms.len()
    ));

    // The traced run repeats the nominal rung on a server whose metrics
    // sink records, then runs the rest against it.
    let (server, traced_nominal) = if traced {
        ctx.tracer.span("server.shutdown", || drop(server));
        let sink = MetricsSink::enabled();
        let server = start(ctx, &served, sink.clone());
        load = Load::new(&served, ctx.nproc);
        load.phase(
            ctx,
            "warmup.traced",
            server.addr(),
            LADDER[0],
            WARMUP.as_secs_f64(),
        );
        let p = load.phase(
            ctx,
            "loadgen.nominal",
            server.addr(),
            LADDER[0],
            budget * 0.25,
        );
        ctx.report.note(describe(
            &format!("traced nominal rung {} req/s", LADDER[0]),
            &p,
        ));
        (server, Some((p, sink)))
    } else {
        (server, None)
    };

    // The ladder: the nominal rung, then faster ones until one misses.
    let mut slo = 0.0;
    for (i, &rate) in LADDER.iter().enumerate() {
        let rung = if i == 0 {
            None
        } else {
            let secs = (RUNG_SAMPLES / rate).clamp(RUNG_MIN.as_secs_f64(), RUNG_MAX.as_secs_f64());
            Some(load.phase(ctx, "loadgen.rung", server.addr(), rate, secs))
        };
        let p = match (&rung, &traced_nominal) {
            (Some(p), _) | (None, Some((p, _))) => p,
            (None, None) => &nominal,
        };
        let verdict = judge_rung(&p.timings, p.failed as usize, LIMIT_MS);
        if let Some(t) = tail_at_most(&p.all, 99.0) {
            ctx.report.set(RUNG_METRICS[i], t.value);
        }
        ctx.report.note(format!(
            "{} -> {verdict:?}",
            describe(&format!("rung {rate} req/s"), p)
        ));
        if verdict != Verdict::Pass {
            break;
        }
        slo = rate;
    }
    ctx.report.set("serve.slo_rps", slo);
    ctx.report
        .note(format!("serve_slo_rps {slo} (limit p99 <= {LIMIT_MS} ms)"));

    let cap_secs = budget * if traced { 0.15 } else { 0.1 };
    let (capacity, rps) = load.capacity(ctx, server.addr(), cap_secs);
    ctx.report.note(describe("closed-loop capacity", &capacity));
    ctx.report.note(format!(
        "capacity {rps:.1} data req/s over {} connections, swaps interleaved",
        ctx.nproc
    ));
    ctx.report
        .note(format!("scaled: serve_p50_ms {scaled_p50:.4}"));
    ctx.report.set("serve.capacity_rps", rps);

    if let Some((p, sink)) = traced_nominal {
        record_traced(ctx, &served, &nominal, &p, &sink);
    } else {
        ctx.report.set("latency_ms", scaled_p50);
        ctx.report
            .set("rows_per_s", BATCH_ROWS as f64 / (scaled_p50 / 1e3));
    }
    ctx.tracer.span("server.shutdown", || drop(server));
}

/// `secs` cut into windows of about [`WINDOW_SECS`] each.
fn windows(secs: f64) -> Vec<f64> {
    let n = (secs / WINDOW_SECS).round().max(1.0) as usize;
    vec![secs / n as f64; n]
}

/// Drives phases against one server: each phase continues the schedule
/// where the last stopped, so swaps keep alternating and every swap
/// generation keeps the artifact it published.
struct Load<'a> {
    served: &'a Served,
    slots: usize,
    shift: u64,
    generations: HashMap<u64, usize>,
}

impl<'a> Load<'a> {
    fn new(served: &'a Served, slots: usize) -> Self {
        Load {
            served,
            slots,
            shift: 0,
            generations: HashMap::new(),
        }
    }

    fn phase(
        &mut self,
        ctx: &mut Ctx,
        name: &'static str,
        addr: SocketAddr,
        rate: f64,
        secs: f64,
    ) -> Phase {
        let plan = Mixed {
            served: self.served,
            shift: self.shift,
        };
        let slots = self.slots;
        let (records, usage) = ctx.tracer.span(name, || {
            open_loop(addr, slots, rate, Duration::from_secs_f64(secs), &plan)
        });
        self.shift += records.len() as u64;
        settle(
            &mut ctx.report,
            &plan,
            &records,
            usage,
            &mut self.generations,
        )
    }

    /// The nominal rung for `secs`, in windows of [`WINDOW_SECS`] between
    /// gauge readings: the merged phase and every data-plane latency
    /// scaled by the readings around its window.
    fn nominal(
        &mut self,
        ctx: &mut Ctx,
        name: &'static str,
        addr: SocketAddr,
        secs: f64,
    ) -> (Phase, Vec<f64>) {
        let mut merged = Phase::default();
        let mut scaled_ms = Vec::new();
        let mut gauge = std::mem::take(&mut ctx.gauge);
        let mut before = gauge.read();
        for w in windows(secs) {
            let p = self.phase(ctx, name, addr, LADDER[0], w);
            let after = gauge.read();
            scaled_ms.extend(p.all.iter().map(|&ms| scaled(ms, before, after)));
            before = after;
            merged.absorb(p);
        }
        ctx.gauge = gauge;
        (merged, scaled_ms)
    }

    /// Closed-loop capacity under the same mix, swaps included: the
    /// phase and its answered data requests per second.
    fn capacity(&mut self, ctx: &mut Ctx, addr: SocketAddr, secs: f64) -> (Phase, f64) {
        let plan = Mixed {
            served: self.served,
            shift: self.shift,
        };
        let slots = self.slots;
        let (records, usage, elapsed) = ctx.tracer.span("loadgen.capacity", || {
            closed_loop(addr, slots, Duration::from_secs_f64(secs), &plan)
        });
        let p = settle(
            &mut ctx.report,
            &plan,
            &records,
            usage,
            &mut self.generations,
        );
        self.shift += records.len() as u64;
        let rps = p.all.len() as f64 / elapsed.as_secs_f64();
        (p, rps)
    }
}

fn record_traced(
    ctx: &mut Ctx,
    served: &Served,
    untraced: &Phase,
    traced: &Phase,
    sink: &MetricsSink,
) {
    let report = &mut ctx.report;
    let snap = sink.snapshot();
    for (metric, name) in [
        ("serve.requests", "requests"),
        ("serve.shed", "shed"),
        ("serve.timeouts", "timeouts"),
        ("serve.bad_requests", "bad_requests"),
    ] {
        report.set(metric, snap.count("serve", name).unwrap_or(0) as f64);
    }
    for (kind, p50, p99) in [
        (
            Kind::Predict,
            "serve.predict_p50_ms",
            "serve.predict_p99_ms",
        ),
        (Kind::Check, "serve.check_p50_ms", "serve.check_p99_ms"),
        (Kind::Impute, "serve.impute_p50_ms", "serve.impute_p99_ms"),
    ] {
        let v = traced.latency.get(kind.path()).cloned().unwrap_or_default();
        report.set_opt(p50, median(&v));
        report.set_opt(p99, tail_at_most(&v, 99.0).map(|t| t.value));
    }
    report.set("serve.samples", traced.all.len() as f64);
    report.set_opt(
        "serve.p99_ms",
        tail_at_most(&traced.all, 99.0).map(|t| t.value),
    );
    report.set_opt("serve.swap_ms", median(&traced.swap_ms));
    report.set("loadgen.sent", traced.usage.sent as f64);
    report.set("loadgen.connects", traced.usage.connects as f64);
    report.set_opt(
        "loadgen.late_ms_p99",
        tail_at_most(&traced.late, 99.0).map(|t| t.value),
    );
    let untraced_p50 = median(&untraced.all).expect("untraced nominal answered");
    let traced_p50 = median(&traced.all).expect("traced nominal answered");
    report.set("trace.untraced_ms", untraced_p50);
    report.set("trace.traced_ms", traced_p50);
    report.set(
        "trace.overhead_ratio",
        ratio(traced_p50, untraced_p50).value,
    );

    // The discovery layers, from one traced export of the served input.
    let snap = ctx.tracer.span("session.export", || {
        served.input.export(&MetricsSink::enabled()).0
    });
    record_discovery(&mut ctx.report, &[snap]);
    ctx.report.set_opt(
        "session.export_s",
        median(&ctx.tracer.durations_s("session.export")),
    );
    let mut rng = Rng::new(ctx.seed, 13);
    let sound = probe_layers(
        &mut ctx.report,
        &ctx.tracer,
        &served.artifacts[0],
        &served.input.table,
        &mut rng,
    );
    ctx.report.gate("probed artifact is sound", sound);
    // Predict latency minus the in-process index + predict of one batch.
    let in_process: Vec<f64> = (0..15)
        .map(|_| {
            timed_ms(|| {
                let index = RuleIndex::build(&served.artifacts[0].rules, &served.probe);
                let fast = index.compile(&served.probe);
                for r in 0..served.probe.num_rows() {
                    std::hint::black_box(fast.predict(r));
                }
            })
            .1
        })
        .collect();
    let in_process = median(&in_process).expect("fifteen samples");
    let predict = untraced
        .latency
        .get(Kind::Predict.path())
        .map_or(&[][..], Vec::as_slice);
    let predict_p50 = median(predict).expect("the untraced nominal rung answered predicts");
    ctx.report
        .set("serve.transport_ms", predict_p50 - in_process);
    ctx.report.note(format!(
        "serve.transport_ms: predict p50 {predict_p50:.4} ms minus in-process index+predict {in_process:.4} ms of one {BATCH_ROWS}-row batch"
    ));
}
