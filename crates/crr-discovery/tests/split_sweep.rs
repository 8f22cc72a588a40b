//! Tie-aware equivalence of the sweep-and-verify split chooser with the
//! ordered scorer: on random tables the production chooser must return
//! the *same candidate index* as scoring every candidate in row order,
//! including when scores tie bitwise and the earlier candidate must win.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_core::{Op, Predicate};
use crr_data::{AttrType, RowSet, Schema, Table, Value};
use crr_discovery::split::SplitScorer;
use crr_discovery::{DiscoveryConfig, MetricsSink, PredicateSpace, SplitStrategy};
use proptest::prelude::*;

/// SplitMix64: a tiny deterministic generator, so one proptest seed
/// reproduces one whole fixture.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

/// A scored value under one magnitude regime.
fn value(rng: &mut Mix, regime: usize) -> f64 {
    match regime {
        // Plain residuals.
        0 => rng.unit() * 20.0 - 10.0,
        // Near-equal: a few ulps around one value, so many splits score
        // within rounding of each other.
        1 => 1.0 + rng.below(4) as f64 * f64::EPSILON,
        // Huge, but inside the sweep's error-bound range.
        2 => (rng.unit() - 0.5) * 1e95,
        // Beyond it: squares overflow, every candidate is scored exactly.
        3 => (rng.unit() - 0.5) * 1e200,
        // Small integers: exact sums, many bitwise-tied splits.
        _ => rng.below(3) as f64,
    }
}

/// A random table (Int, Float and Str condition columns with nulls and NaN
/// cells, a Float target), a predicate space mixing all six comparison ops
/// with duplicate constants, string and null-test predicates, plus a row
/// subset and residuals over a subset of it.
struct Fixture {
    table: Table,
    space: PredicateSpace,
    rows: RowSet,
    residuals: Vec<(usize, f64)>,
}

fn fixture(seed: u64, n: usize) -> Fixture {
    let mut rng = Mix(seed);
    let regime = rng.below(5);
    let schema = Schema::new(vec![
        ("a", AttrType::Int),
        ("b", AttrType::Float),
        ("s", AttrType::Str),
        ("y", AttrType::Float),
    ]);
    let mut table = Table::new(schema);
    let cats = ["p", "q", "r"];
    for _ in 0..n {
        let a = if rng.chance(8) {
            Value::Null
        } else {
            Value::Int(rng.below(10) as i64)
        };
        let b = match rng.below(10) {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            2 => Value::Float(-0.0),
            _ => Value::Float((rng.below(12) as f64 - 6.0) / 2.0),
        };
        let s = if rng.chance(8) {
            Value::Null
        } else {
            Value::str(cats[rng.below(cats.len())])
        };
        let y = if rng.chance(10) {
            Value::Null
        } else {
            Value::Float(value(&mut rng, regime))
        };
        table.push_row(vec![a, b, s, y]).unwrap();
    }
    let (a, b, s) = (
        table.attr("a").unwrap(),
        table.attr("b").unwrap(),
        table.attr("s").unwrap(),
    );
    let ops = [Op::Le, Op::Lt, Op::Gt, Op::Ge, Op::Eq, Op::Ne];
    let mut preds = Vec::new();
    for _ in 0..(4 + rng.below(40)) {
        let op = ops[rng.below(ops.len())];
        let p = match rng.below(8) {
            // Int column: int constants (duplicates likely) and fractional
            // float constants.
            0 | 1 => Predicate::new(a, op, Value::Int(rng.below(11) as i64 - 1)),
            2 => Predicate::new(a, op, Value::Float(rng.below(20) as f64 / 2.0 - 0.5)),
            // Float column: constants on the cell grid, ±0.0, ±∞ and NaN.
            3 | 4 => Predicate::new(b, op, Value::Float((rng.below(14) as f64 - 7.0) / 2.0)),
            5 => {
                let c = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.below(5)];
                Predicate::new(b, op, Value::Float(c))
            }
            // Strings, and the cross-typed constants that never hold.
            6 => Predicate::new(s, op, Value::str(["p", "q", "r", "zz"][rng.below(4)])),
            _ => match rng.below(3) {
                0 => Predicate::new(s, op, Value::Int(1)),
                1 => Predicate::new(a, op, Value::str("p")),
                _ => Predicate::new([a, b, s][rng.below(3)], Op::IsNull, Value::Null),
            },
        };
        preds.push(p);
    }
    let rows: Vec<u32> = (0..n as u32).filter(|_| !rng.chance(6)).collect();
    let mut residuals = Vec::new();
    for &r in &rows {
        if !rng.chance(5) {
            residuals.push((r as usize, value(&mut rng, regime)));
        }
    }
    Fixture {
        table,
        space: PredicateSpace::from_predicates(preds),
        rows: RowSet::from_sorted(rows),
        residuals,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The sweep chooser and the ordered scorer pick the same index under
    /// both scoring criteria, over unstrided and strided candidate lists.
    #[test]
    fn sweep_picks_the_ordered_index(seed in 0u64..u64::MAX, n in 2usize..120) {
        let fx = fixture(seed, n);
        let y = fx.table.attr("y").unwrap();
        let scorer = SplitScorer::new(&fx.table, &fx.space, y);
        let mut rng = Mix(seed ^ 0x5EED);
        // `avail` in discovery is an ascending subset of the space.
        let avail: Vec<u32> = (0..fx.space.len() as u32).filter(|_| !rng.chance(4)).collect();
        for split in [SplitStrategy::BestResidual, SplitStrategy::BestVariance] {
            let sink = MetricsSink::enabled();
            let mut cfg = DiscoveryConfig::new(vec![], y, 1.0).with_metrics(sink.clone());
            cfg.split = split;
            for stride in [1, 2 + rng.below(3)] {
                let picks: Vec<u32> = avail.iter().step_by(stride).copied().collect();
                let swept = scorer.choose(&fx.rows, &cfg, &picks, &fx.residuals);
                let ordered = scorer.choose_ordered(&fx.rows, &cfg, &picks, &fx.residuals);
                prop_assert_eq!(swept, ordered, "{:?} stride {}", split, stride);
            }
            let snap = sink.snapshot();
            let count = |name| snap.count("split", name).unwrap();
            prop_assert!(count("exact_rescores") <= count("candidates_swept"));
        }
    }
}

/// A planted bitwise tie: with no null cells, `x ≤ c` and `x > c` split the
/// rows into the same two sides (swapped), so their ordered scores are
/// bitwise equal and the earlier candidate in `avail` must win — whichever
/// of the pair comes first.
#[test]
fn planted_tie_goes_to_the_earlier_candidate() {
    let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
    let mut table = Table::new(schema);
    for i in 0..40 {
        let x = i as f64;
        let y = if x < 20.0 { 0.1 * x } else { 5.0 - 0.3 * x };
        table
            .push_row(vec![Value::Float(x), Value::Float(y)])
            .unwrap();
    }
    let (x, y) = (table.attr("x").unwrap(), table.attr("y").unwrap());
    let le = Predicate::le(x, Value::Float(19.5));
    let gt = Predicate::gt(x, Value::Float(19.5));
    // A worse cut after the tied pair, so the tie is for first place.
    let off = Predicate::le(x, Value::Float(7.5));
    let rows = table.all_rows();
    let residuals: Vec<(usize, f64)> = rows
        .iter()
        .map(|r| (r, table.value_f64(r, y).unwrap() - 1.0))
        .collect();
    for (preds, winner) in [
        (vec![le.clone(), gt.clone(), off.clone()], 0),
        (vec![gt.clone(), le.clone(), off.clone()], 0),
        (vec![off.clone(), gt.clone(), le.clone()], 1),
    ] {
        let space = PredicateSpace::from_predicates(preds);
        let scorer = SplitScorer::new(&table, &space, y);
        for split in [SplitStrategy::BestResidual, SplitStrategy::BestVariance] {
            let sink = MetricsSink::enabled();
            let mut cfg = DiscoveryConfig::new(vec![], y, 1.0).with_metrics(sink.clone());
            cfg.split = split;
            let picks = [0, 1, 2];
            assert_eq!(
                scorer.choose_ordered(&rows, &cfg, &picks, &residuals),
                Some(winner)
            );
            assert_eq!(scorer.choose(&rows, &cfg, &picks, &residuals), Some(winner));
            // Both halves of the tie had to be verified exactly.
            let snap = sink.snapshot();
            assert_eq!(snap.count("split", "candidates_swept"), Some(3));
            assert_eq!(snap.count("split", "exact_rescores"), Some(2));
        }
    }
}
