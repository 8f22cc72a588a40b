//! Tracked benchmark output: the `bench` experiment writes
//! `BENCH_discovery.json`, and CI (`scripts/ci.sh`, through `experiments
//! --check`) re-parses and validates it so a regressed or malformed
//! emitter fails the build.
//!
//! Reading, writing and the schema-tag dispatch go through
//! [`crate::artifact`]. The schema is documented field by field in
//! `EXPERIMENTS.md`, section "Benchmark artifact schemas".

use crate::artifact::{document, write, Fields, Node, Out};

/// Schema tag stamped into the file; bump when the layout changes.
/// v2 added the `sharded` section and the `sharded` engine label; v3 added
/// the `interpreted` engine label (moments engine under the interpreted
/// scan kernel, required at every (dataset, size) cell with results
/// byte-equal to the `moments` cell) and the per-kernel `kernels` array;
/// v4 added the `boundary` and `balance_permille` fields on sharded cells
/// (equal-width vs quantile shard planning, both required per dataset,
/// each with its plan's min/max shard-size balance).
pub const SCHEMA: &str = "crr-bench-discovery-v4";

/// Boundary labels a sharded cell may carry; every dataset must measure
/// both, so the adaptive (quantile) planner is always benchmarked against
/// the equal-width geometry it replaced as the default.
pub const BOUNDARY_CELLS: [&str; 2] = ["equal_width", "quantile"];

/// Kernel labels the `kernels` array may carry; all three must appear.
pub const KERNEL_CELLS: [&str; 3] = ["predicate_scan", "gram_accumulate", "end_to_end"];

/// One timed discovery run: a (dataset, size, engine) cell.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Dataset label (`electricity`, `tax`).
    pub dataset: String,
    /// Instance size |I| actually used.
    pub rows: usize,
    /// Fit engine label (`moments`, `rescan`), or `sharded` for the
    /// multi-shard cell (moments engine under a key-range shard plan).
    pub engine: String,
    /// Best-of-reps wall-clock discovery time, seconds.
    pub learn_secs: f64,
    /// Rules discovered.
    pub rules: usize,
    /// Models actually trained (rest were shared from the pool).
    pub trained: usize,
    /// RMSE of the discovered rule set over the instance.
    pub rmse: f64,
}

/// Moments-vs-rescan comparison at one (dataset, size) point.
#[derive(Debug, Clone)]
pub struct SpeedupEntry {
    /// Dataset label.
    pub dataset: String,
    /// Instance size.
    pub rows: usize,
    /// Sufficient-statistics engine time, seconds.
    pub moments_secs: f64,
    /// Row-rescan baseline time, seconds.
    pub rescan_secs: f64,
    /// `rescan_secs / moments_secs` — above 1.0 means moments is faster.
    pub ratio: f64,
}

/// Sharded-vs-single comparison at one (dataset, size) point: the same
/// instance discovered whole and under an N-way key-range shard plan.
#[derive(Debug, Clone)]
pub struct ShardedEntry {
    /// Dataset label.
    pub dataset: String,
    /// Instance size.
    pub rows: usize,
    /// Shard count of the sharded run (≥ 2).
    pub shards: usize,
    /// Boundary placement of the shard plan: `equal_width` or `quantile`.
    pub boundary: String,
    /// Shard balance of the plan's interval shards, min/max row count in
    /// permille (1000 = perfectly even). This is the geometry the
    /// boundary choice controls: on a single-core host the wall-clock
    /// ratio measures total work, so balance is where a quantile plan's
    /// advantage on a skewed key is visible and gated.
    pub balance_permille: u64,
    /// Single-shard (whole-instance) time, seconds.
    pub single_secs: f64,
    /// N-shard time including the Algorithm 2 merge, seconds.
    pub sharded_secs: f64,
    /// `single_secs / sharded_secs` — above 1.0 means sharding is faster.
    pub ratio: f64,
}

/// Interpreted-vs-compiled scan-kernel throughput at one dataset point.
#[derive(Debug, Clone)]
pub struct KernelEntry {
    /// Dataset label.
    pub dataset: String,
    /// Instance size the kernel was measured over.
    pub rows: usize,
    /// Which kernel: `predicate_scan` (rows filtered per second),
    /// `gram_accumulate` (rows accumulated per second) or `end_to_end`
    /// (whole discovery runs measured as rows per second).
    pub kernel: String,
    /// Interpreted (row-at-a-time) throughput, rows/second.
    pub interpreted_per_sec: f64,
    /// Compiled (columnar, cache-blocked) throughput, rows/second.
    pub compiled_per_sec: f64,
    /// `compiled_per_sec / interpreted_per_sec` — above 1.0 means the
    /// compiled kernel is faster.
    pub ratio: f64,
}

/// The full report the `bench` experiment emits.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Every timed cell.
    pub records: Vec<BenchRecord>,
    /// Engine comparisons, one per (dataset, size).
    pub speedup: Vec<SpeedupEntry>,
    /// Sharded-vs-single comparisons, one per dataset at its largest size.
    pub sharded: Vec<ShardedEntry>,
    /// Per-kernel interpreted-vs-compiled throughput cells.
    pub kernels: Vec<KernelEntry>,
}

/// Renders the report as pretty-printed JSON with a stable key order.
pub fn render(report: &BenchReport) -> String {
    let records = report.records.iter().map(|r| {
        Fields::new()
            .str("dataset", &r.dataset)
            .lit("rows", r.rows)
            .str("engine", &r.engine)
            .num("learn_secs", r.learn_secs)
            .lit("rules", r.rules)
            .lit("trained", r.trained)
            .num("rmse", r.rmse)
            .inline()
    });
    let speedup = report.speedup.iter().map(|s| {
        Fields::new()
            .str("dataset", &s.dataset)
            .lit("rows", s.rows)
            .num("moments_secs", s.moments_secs)
            .num("rescan_secs", s.rescan_secs)
            .num("ratio", s.ratio)
            .inline()
    });
    let sharded = report.sharded.iter().map(|s| {
        Fields::new()
            .str("dataset", &s.dataset)
            .lit("rows", s.rows)
            .lit("shards", s.shards)
            .str("boundary", &s.boundary)
            .lit("balance_permille", s.balance_permille)
            .num("single_secs", s.single_secs)
            .num("sharded_secs", s.sharded_secs)
            .num("ratio", s.ratio)
            .inline()
    });
    let kernels = report.kernels.iter().map(|k| {
        Fields::new()
            .str("dataset", &k.dataset)
            .lit("rows", k.rows)
            .str("kernel", &k.kernel)
            .num("interpreted_per_sec", k.interpreted_per_sec)
            .num("compiled_per_sec", k.compiled_per_sec)
            .num("ratio", k.ratio)
            .inline()
    });
    let body = Fields::new()
        .out("records", Out::List(records.collect()))
        .out("speedup", Out::List(speedup.collect()))
        .out("sharded", Out::List(sharded.collect()))
        .out("kernels", Out::List(kernels.collect()));
    write(SCHEMA, body)
}

/// A positive ratio or timing field.
fn positive(n: &Node, key: &str) -> Result<f64, String> {
    let x = n.num(key)?;
    if x <= 0.0 {
        return Err(format!("{}: non-positive {key} ({x})", n.path()));
    }
    Ok(x)
}

/// Validates a `BENCH_discovery.json` document. On success, returns a
/// one-line summary; on failure, a message naming the first violation.
///
/// Checks: the schema tag; a non-empty `records` array whose entries carry
/// every required key with finite numbers, integer counts and known engine
/// labels; each dataset measured at ≥ 2 sizes with the `moments`, `rescan`
/// *and* `interpreted` engines at each size; the `interpreted` cell
/// (moments engine, interpreted scan kernel) reporting *exactly* the same
/// rules, trained-model count and RMSE as the `moments` cell — the
/// compiled kernels must be a pure accelerator, never a semantic change; a
/// non-empty `speedup` array with finite, positive ratios; a non-empty
/// `sharded` array whose cells have ≥ 2 shards, positive timings and a
/// boundary label from [`BOUNDARY_CELLS`], with both boundaries measured
/// for every sharded dataset; and a non-empty `kernels` array covering
/// all of [`KERNEL_CELLS`] with positive throughputs.
pub fn validate(text: &str) -> Result<String, String> {
    let json = document(text, SCHEMA, "records")?;
    let doc = Node::root(&json);
    let records = doc.arr("records")?;
    // (dataset, rows) -> engines seen there, with the (rules, trained,
    // rmse) triple each one reported.
    type Outcome = (String, u64, u64, f64);
    let mut cells: Vec<(String, u64, Vec<Outcome>)> = Vec::new();
    for r in &records {
        let dataset = r.str("dataset")?.to_string();
        let engine = r.str("engine")?.to_string();
        if !["moments", "rescan", "sharded", "interpreted"].contains(&engine.as_str()) {
            return Err(format!("{}: unknown engine '{engine}'", r.path()));
        }
        let rows = r.uint("rows")?;
        if rows == 0 {
            return Err(format!("{}: 'rows' must be a positive integer", r.path()));
        }
        if r.num("learn_secs")? < 0.0 {
            return Err(format!("{}: negative learn_secs", r.path()));
        }
        let outcome = (engine, r.uint("rules")?, r.uint("trained")?, r.num("rmse")?);
        match cells
            .iter_mut()
            .find(|(d, n, _)| *d == dataset && *n == rows)
        {
            Some((_, _, engines)) => engines.push(outcome),
            None => cells.push((dataset, rows, vec![outcome])),
        }
    }
    let mut datasets: Vec<&str> = Vec::new();
    for (dataset, rows, engines) in &cells {
        for want in ["moments", "rescan", "interpreted"] {
            if !engines.iter().any(|(e, ..)| e == want) {
                return Err(format!("{dataset}@{rows}: engine '{want}' never measured"));
            }
        }
        // The interpreted cell is the oracle run of the same moments
        // configuration: any divergence means the compiled kernels changed
        // a search decision.
        let find = |name: &str| engines.iter().find(|(e, ..)| e == name);
        if let (Some(m), Some(i)) = (find("moments"), find("interpreted")) {
            if m.1 != i.1 || m.2 != i.2 || m.3 != i.3 {
                return Err(format!(
                    "{dataset}@{rows}: interpreted-kernel cell diverges from the moments cell \
                     (rules {} vs {}, trained {} vs {}, rmse {} vs {})",
                    m.1, i.1, m.2, i.2, m.3, i.3
                ));
            }
        }
        if !datasets.contains(&dataset.as_str()) {
            datasets.push(dataset);
        }
    }
    for d in &datasets {
        let sizes = cells.iter().filter(|(name, _, _)| name == d).count();
        if sizes < 2 {
            return Err(format!("dataset '{d}' measured at only {sizes} size(s)"));
        }
    }
    let nonempty = |key: &str| match doc.arr(key)? {
        items if items.is_empty() => Err(format!("'{key}' is empty")),
        items => Ok(items),
    };
    let speedup = nonempty("speedup")?;
    for s in &speedup {
        s.str("dataset")?;
        s.uint("rows")?;
        s.num("moments_secs")?;
        s.num("rescan_secs")?;
        positive(s, "ratio")?;
    }
    let sharded = nonempty("sharded")?;
    let mut sharded_cells: Vec<(&str, &str)> = Vec::new();
    for s in &sharded {
        let dataset = s.str("dataset")?;
        s.uint("rows")?;
        let k = s.uint("shards")?;
        if k < 2 {
            return Err(format!(
                "{}: 'shards' must be an integer >= 2 (got {k})",
                s.path()
            ));
        }
        let boundary = s.str("boundary")?;
        if !BOUNDARY_CELLS.contains(&boundary) {
            return Err(format!("{}: unknown boundary '{boundary}'", s.path()));
        }
        let balance = s.uint("balance_permille")?;
        if !(1..=1000).contains(&balance) {
            return Err(format!(
                "{}: 'balance_permille' must be an integer in 1..=1000 (got {balance})",
                s.path()
            ));
        }
        for key in ["single_secs", "sharded_secs", "ratio"] {
            positive(s, key)?;
        }
        if !sharded_cells.contains(&(dataset, boundary)) {
            sharded_cells.push((dataset, boundary));
        }
    }
    // Every sharded dataset must measure both boundary placements, so the
    // adaptive plan always has its equal-width baseline next to it.
    for (d, _) in &sharded_cells {
        for want in BOUNDARY_CELLS {
            if !sharded_cells.contains(&(*d, want)) {
                return Err(format!(
                    "sharded dataset '{d}': boundary '{want}' never measured"
                ));
            }
        }
    }
    let kernels = nonempty("kernels")?;
    let mut kinds: Vec<&str> = Vec::new();
    for k in &kernels {
        k.str("dataset")?;
        k.uint("rows")?;
        let kind = k.str("kernel")?;
        if !KERNEL_CELLS.contains(&kind) {
            return Err(format!("{}: unknown kernel '{kind}'", k.path()));
        }
        for key in ["interpreted_per_sec", "compiled_per_sec", "ratio"] {
            positive(k, key)?;
        }
        kinds.push(kind);
    }
    if let Some(want) = KERNEL_CELLS.iter().find(|want| !kinds.contains(want)) {
        return Err(format!("kernel cell '{want}' never measured"));
    }
    Ok(format!(
        "ok: {} records over {} dataset(s), {} speedup point(s), {} sharded cell(s), \
         {} kernel cell(s)",
        records.len(),
        datasets.len(),
        speedup.len(),
        sharded.len(),
        kernels.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut report = BenchReport::default();
        for dataset in ["electricity", "tax"] {
            for rows in [1000usize, 2000] {
                for engine in ["moments", "rescan", "interpreted"] {
                    report.records.push(BenchRecord {
                        dataset: dataset.into(),
                        rows,
                        engine: engine.into(),
                        learn_secs: 0.25,
                        rules: 12,
                        trained: 4,
                        rmse: 0.05,
                    });
                }
                report.speedup.push(SpeedupEntry {
                    dataset: dataset.into(),
                    rows,
                    moments_secs: 0.2,
                    rescan_secs: 0.3,
                    ratio: 1.5,
                });
            }
            for boundary in BOUNDARY_CELLS {
                report.sharded.push(ShardedEntry {
                    dataset: dataset.into(),
                    rows: 2000,
                    shards: 4,
                    boundary: boundary.into(),
                    balance_permille: if boundary == "quantile" { 980 } else { 410 },
                    single_secs: 0.4,
                    sharded_secs: 0.2,
                    ratio: 2.0,
                });
            }
            for kernel in KERNEL_CELLS {
                report.kernels.push(KernelEntry {
                    dataset: dataset.into(),
                    rows: 2000,
                    kernel: kernel.into(),
                    interpreted_per_sec: 1.0e7,
                    compiled_per_sec: 3.0e7,
                    ratio: 3.0,
                });
            }
        }
        report
    }

    #[test]
    fn render_round_trips_through_validate() {
        let text = render(&sample());
        let summary = validate(&text).expect("valid");
        assert!(summary.contains("12 records"), "{summary}");
        assert!(summary.contains("2 dataset"), "{summary}");
        assert!(summary.contains("6 kernel cell(s)"), "{summary}");
    }

    #[test]
    fn diverging_interpreted_cell_is_rejected() {
        let mut report = sample();
        let r = report
            .records
            .iter_mut()
            .find(|r| r.engine == "interpreted")
            .unwrap();
        r.rmse += 1e-9;
        let err = validate(&render(&report)).expect_err("must fail");
        assert!(err.contains("diverges"), "{err}");
    }

    #[test]
    fn missing_interpreted_cell_is_rejected() {
        let mut report = sample();
        report.records.retain(|r| r.engine != "interpreted");
        let err = validate(&render(&report)).expect_err("must fail");
        assert!(err.contains("interpreted"), "{err}");
    }

    #[test]
    fn kernel_cells_are_required_and_checked() {
        let mut report = sample();
        report.kernels.clear();
        let err = validate(&render(&report)).expect_err("empty kernels must fail");
        assert!(err.contains("kernels"), "{err}");

        let mut report = sample();
        report.kernels.retain(|k| k.kernel != "end_to_end");
        let err = validate(&render(&report)).expect_err("must fail");
        assert!(err.contains("end_to_end"), "{err}");

        let mut report = sample();
        report.kernels[0].kernel = "warp_scan".into();
        let err = validate(&render(&report)).expect_err("must fail");
        assert!(err.contains("warp_scan"), "{err}");

        let mut report = sample();
        report.kernels[0].compiled_per_sec = 0.0;
        let err = validate(&render(&report)).expect_err("must fail");
        assert!(err.contains("compiled_per_sec"), "{err}");
    }

    #[test]
    fn fractional_or_negative_counts_are_rejected() {
        // Every engine of every cell carries the same bad count, so only
        // the integer check can catch it.
        for (from, to) in [
            ("\"rules\": 12", "\"rules\": 12.5"),
            ("\"trained\": 4", "\"trained\": -4"),
        ] {
            let text = render(&sample()).replace(from, to);
            let err = validate(&text).expect_err(to);
            assert!(err.contains("not a non-negative integer"), "{err}");
        }
    }

    #[test]
    fn sharded_cells_are_required_and_checked() {
        let mut report = sample();
        report.sharded.clear();
        let err = validate(&render(&report)).expect_err("empty sharded must fail");
        assert!(err.contains("sharded"), "{err}");

        let mut report = sample();
        report.sharded[0].shards = 1;
        let err = validate(&render(&report)).expect_err("1 shard is not a sharded cell");
        assert!(err.contains("shards"), "{err}");
    }

    #[test]
    fn sharded_boundary_labels_are_required_and_checked() {
        let mut report = sample();
        report.sharded[0].boundary = "fibonacci".into();
        let err = validate(&render(&report)).expect_err("unknown boundary must fail");
        assert!(err.contains("fibonacci"), "{err}");

        let mut report = sample();
        report.sharded.retain(|s| s.boundary != "quantile");
        let err = validate(&render(&report)).expect_err("missing quantile cell must fail");
        assert!(err.contains("quantile"), "{err}");

        let mut report = sample();
        report.sharded.retain(|s| s.boundary != "equal_width");
        let err = validate(&render(&report)).expect_err("missing equal-width cell must fail");
        assert!(err.contains("equal_width"), "{err}");
    }

    #[test]
    fn sharded_balance_must_be_a_permille() {
        let mut report = sample();
        report.sharded[0].balance_permille = 0;
        let err = validate(&render(&report)).expect_err("zero balance must fail");
        assert!(err.contains("balance_permille"), "{err}");

        let mut report = sample();
        report.sharded[0].balance_permille = 1001;
        let err = validate(&render(&report)).expect_err("balance above 1000 must fail");
        assert!(err.contains("balance_permille"), "{err}");
    }

    #[test]
    fn sharded_engine_records_are_accepted() {
        let mut report = sample();
        report.records.push(BenchRecord {
            dataset: "electricity".into(),
            rows: 2000,
            engine: "sharded".into(),
            learn_secs: 0.2,
            rules: 12,
            trained: 3,
            rmse: 0.05,
        });
        validate(&render(&report)).expect("sharded engine label is valid");
    }

    #[test]
    fn single_engine_runs_are_rejected() {
        let mut report = sample();
        report.records.retain(|r| r.engine == "moments");
        let err = validate(&render(&report)).expect_err("one engine must fail");
        assert!(err.contains("rescan"), "{err}");
    }

    #[test]
    fn fixture_renders_byte_identical_to_the_golden_file() {
        assert_eq!(render(&sample()), include_str!("../golden/bench.json"));
    }
}
