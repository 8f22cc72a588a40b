//! The repository's benchmark: one command, four seeded workloads run
//! against the public APIs of `crr-discovery`, `crr-serve` and
//! `crr-stream`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload discover-electricity --seed 1 --seconds 12 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with every
//! span and metrics sink off; with `--trace 1` it records spans around
//! each layer call, reads the program's own counters, and prints the
//! per-layer metrics. Every output is checked; the last line of standard
//! output is the JSON result. See `README.md` for the workloads and the
//! layer → metric → workload map.

mod discover;
mod gauge;
mod layers;
mod loadgen;
mod report;
mod serve;
mod stats;
mod stream;
mod trace;

use gauge::{Bracket, Gauge};
use report::{Report, END_TO_END, PER_LAYER};
use std::time::Duration;
use trace::Tracer;

/// The set-up is repeated at least `SETUP_MIN` times and until it has
/// taken `SETUP_SECONDS` in all, at most `SETUP_MAX` times; `setup_s` is
/// the median of the scaled set-up times (see [`gauge`]). Cheap set-ups
/// thus get many samples and a steady median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 400;
const SETUP_SECONDS: f64 = 2.5;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "discover-electricity",
    "discover-tax-sharded",
    "serve-mixed",
    "stream-drift",
];

/// One run's settings and recorders.
pub struct Ctx {
    /// Workload seed from the command line.
    pub seed: u64,
    /// How long the run measures.
    pub budget: Duration,
    /// Threads and connections the load may use.
    pub nproc: usize,
    /// Span recorder (records only in the traced run).
    pub tracer: Tracer,
    /// What the run measured and checked.
    pub report: Report,
    /// The host-speed gauge the timed end-to-end metrics are scaled by.
    pub gauge: Gauge,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }

    /// Runs the set-up repeatedly (see [`SETUP_MIN`]) between gauge
    /// readings, records `setup_s` as the median scaled time and keeps
    /// the last result.
    pub fn setup<T>(&mut self, mut f: impl FnMut(&mut Ctx) -> T) -> T {
        let mut wall_ms: Vec<f64> = Vec::new();
        let mut scaled_ms: Vec<f64> = Vec::new();
        let mut out = None;
        let mut gauge = std::mem::take(&mut self.gauge);
        let mut bracket = Bracket::open(&mut gauge);
        while wall_ms.len() < SETUP_MIN
            || (wall_ms.len() < SETUP_MAX && wall_ms.iter().sum::<f64>() < SETUP_SECONDS * 1e3)
        {
            drop(out.take());
            let (o, ms, s) = bracket.time(&mut gauge, || f(self));
            out = Some(o);
            wall_ms.push(ms);
            scaled_ms.push(s);
        }
        self.gauge = gauge;
        let scaled = stats::median(&scaled_ms).map(|ms| ms / 1e3);
        self.report.set_opt("setup_s", scaled);
        self.report.note(format!(
            "setup_s {:.6} s: median of {} scaled set-ups (wall median {:.6} s)",
            scaled.unwrap_or(f64::NAN),
            wall_ms.len(),
            stats::median(&wall_ms).unwrap_or(f64::NAN) / 1e3
        ));
        out.expect("SETUP_MIN > 0")
    }
}

/// A small seeded generator (SplitMix64): the benchmark's inputs depend
/// only on `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("expected one of {WORKLOADS:?}")));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("expected 1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checkout's git revision, when it is a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        nproc,
        tracer: Tracer::new(args.trace),
        report: Report::default(),
        gauge: Gauge::default(),
    };
    println!(
        "{{\"host\": {{\"available_parallelism\": {nproc}, \"profile\": \"{}\", \"git_revision\": \"{}\", \"os\": \"{}\"}}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_revision(),
        std::env::consts::OS,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    match args.workload.as_str() {
        "discover-electricity" => discover::run(&mut ctx, discover::Case::Electricity),
        "discover-tax-sharded" => discover::run(&mut ctx, discover::Case::TaxSharded),
        "serve-mixed" => serve::run(&mut ctx),
        "stream-drift" => stream::run(&mut ctx),
        _ => unreachable!("parse_args admits only listed workloads"),
    }
    let readings = &ctx.gauge.readings;
    ctx.report.note(format!(
        "gauge: {} readings, median {:.4} ms, range {:.4}-{:.4} ms; scaled times are on a host that reads {} ms",
        readings.len(),
        stats::median(readings).unwrap_or(f64::NAN),
        readings.iter().copied().fold(f64::INFINITY, f64::min),
        readings.iter().copied().fold(0.0, f64::max),
        gauge::REF_MS
    ));
    if args.trace {
        let wall = ctx.tracer.wall_s();
        let spans = ctx.tracer.outside_s();
        ctx.report.set("trace.wall_s", wall);
        ctx.report.set("trace.spans_s", spans);
        ctx.report.set("other_s", wall - spans);
    } else {
        ctx.report.set_opt("peak_rss_mb", stats::peak_rss_mb());
    }
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", ctx.report.render(registry, !args.trace));
}
