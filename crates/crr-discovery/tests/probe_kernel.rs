//! Bitwise equivalence of the one-pass range probe with the row-major
//! oracle: on random partitions, `share_fit_snapshot` (gather, range probe,
//! lane-split within count) must return the `(δ₀, max_dev, within
//! fraction)` of `share_fit_rows` bit for bit, and `scan_pool` must find the
//! oracle's first fit and maximum within count. The one freedom is the sign
//! of a zero `δ₀` (a `+0`/`−0` tie between residuals), which the probe's
//! callers cannot observe: `|r − (+0)| == |r − (−0)|` and a zero shift is
//! never written into a rule.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_data::{AttrType, NumericSnapshot, Schema, Table, Value};
use crr_discovery::probe::{scan_pool, GatheredPartition, LANES};
use crr_discovery::{share_fit_rows, share_fit_snapshot};
use crr_models::{LinearModel, MlpModel, Model};
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

    /// A small integer in `[-k, k]`, as a float (exact arithmetic).
    fn small(&mut self, k: usize) -> f64 {
        self.below(2 * k + 1) as f64 - k as f64
    }
}

/// How a fixture's cells, model and bound are drawn.
#[derive(Debug, Clone, Copy)]
enum Regime {
    /// Plain random reals.
    Reals,
    /// Small integers with exact predictions; every residual is `c` or
    /// `c + 2` (constant when only `c` is drawn) with `ρ = 1`, so
    /// deviations land exactly on `ρ`, and zero residuals come in both
    /// signs.
    Exact,
    /// Weights near `f64::MAX`: predictions overflow to `±∞`, and with two
    /// or more inputs `∞ − ∞` makes NaN residuals.
    Overflow,
    /// A small random MLP on real cells: the non-affine path, which
    /// predicts row by row.
    Mlp,
}

/// A partition over a snapshot with non-ready rows, the model to probe, a
/// bound, and the oracle's row-major view of the same rows.
struct Fixture {
    snap: NumericSnapshot,
    fit: Vec<u32>,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    rho: f64,
}

fn model(rng: &mut Mix, regime: Regime, d: usize) -> Model {
    let (w, b) = match regime {
        Regime::Mlp => {
            // `w1 ‖ b1 ‖ w2 ‖ [b2] ‖ x_mean ‖ x_std`, two hidden units.
            let hidden = 2;
            let mut params: Vec<f64> = (0..hidden * d + 2 * hidden + 1 + d)
                .map(|_| rng.unit() * 6.0 - 3.0)
                .collect();
            params.extend((0..d).map(|_| 0.5 + rng.unit() * 4.0));
            return Model::Mlp(MlpModel::from_flat(d, hidden, &params).unwrap());
        }
        Regime::Reals => (
            (0..d).map(|_| rng.unit() * 6.0 - 3.0).collect(),
            rng.unit() * 10.0 - 5.0,
        ),
        Regime::Exact => (
            (0..d).map(|_| rng.small(2)).collect(),
            [0.0, -0.0, 1.0, -3.0][rng.below(4)],
        ),
        Regime::Overflow => (
            (0..d)
                .map(|_| [1e300, -1e300, 1.0, f64::MAX][rng.below(4)])
                .collect(),
            rng.small(3),
        ),
    };
    Model::Linear(LinearModel::new(w, b))
}

/// Exact prediction of an integer-weight model on integer cells.
fn exact_pred(m: &Model, x: &[f64]) -> f64 {
    let (w, b) = m.as_affine().unwrap();
    b + w.iter().zip(x).map(|(w, x)| w * x).sum::<f64>()
}

fn fixture(rng: &mut Mix, regime: Regime, d: usize, n: usize, stride: usize, m: &Model) -> Fixture {
    let mut cols: Vec<(String, AttrType)> =
        (0..d).map(|j| (format!("x{j}"), AttrType::Float)).collect();
    cols.push(("y".to_string(), AttrType::Float));
    let names: Vec<(&str, AttrType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let mut table = Table::new(Schema::new(names));
    let offsets = [0.0, 2.0];
    let c = rng.small(2);
    let constant = rng.chance(2);
    let mut ready = 0;
    while ready < n * stride {
        let x: Vec<f64> = (0..d)
            .map(|_| match regime {
                Regime::Reals | Regime::Mlp => rng.unit() * 20.0 - 10.0,
                Regime::Exact => {
                    if rng.chance(6) {
                        -0.0
                    } else {
                        rng.small(3)
                    }
                }
                Regime::Overflow => [1e10, -1e10, 3.0, -0.0][rng.below(4)],
            })
            .collect();
        let y = match regime {
            Regime::Reals | Regime::Mlp => rng.unit() * 20.0 - 10.0,
            Regime::Exact => {
                let k = if constant { 0.0 } else { offsets[rng.below(2)] };
                let v = exact_pred(m, &x) + c + k;
                if v == 0.0 && rng.chance(2) {
                    -0.0
                } else {
                    v
                }
            }
            Regime::Overflow => rng.small(5),
        };
        // One row in five is not fit-ready: a null input or target.
        let hole = rng.chance(5).then(|| rng.below(d + 1));
        let mut row: Vec<Value> = x.iter().map(|&v| Value::Float(v)).collect();
        row.push(Value::Float(y));
        if let Some(h) = hole {
            row[h] = Value::Null;
        } else {
            ready += 1;
        }
        table.push_row(row).unwrap();
    }
    let inputs: Vec<_> = (0..d)
        .map(|j| table.attr(&format!("x{j}")).unwrap())
        .collect();
    let target = table.attr("y").unwrap();
    let all = table.all_rows();
    let snap = NumericSnapshot::build(&table, &inputs, target, &all).unwrap();
    let fit: Vec<u32> = snap
        .ready_rows(&all)
        .into_iter()
        .step_by(stride)
        .take(n)
        .collect();
    assert_eq!(fit.len(), n);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for &r in &fit {
        let mut x = vec![0.0; d];
        snap.gather_x(r as usize, &mut x);
        xs.push(x);
        ys.push(snap.target()[r as usize]);
    }
    let rho = match regime {
        Regime::Exact => 1.0,
        _ => rng.unit() * 8.0,
    };
    Fixture {
        snap,
        fit,
        xs,
        ys,
        rho,
    }
}

/// Bitwise equality, except that a zero may carry either sign.
fn same_shift(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
}

fn regime_of(pick: usize) -> Regime {
    [Regime::Reals, Regime::Exact, Regime::Overflow, Regime::Mlp][pick]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// One probe against the row oracle, over every lane remainder.
    #[test]
    fn probe_matches_the_row_oracle(
        seed in 0u64..u64::MAX,
        pick in 0usize..4,
        d_pick in 0usize..3,
        n in 1usize..=3 * LANES + 1,
    ) {
        let mut rng = Mix(seed);
        let regime = regime_of(pick);
        let d = [0, 1, 3][d_pick];
        let m = model(&mut rng, regime, d);
        let stride = 1 + rng.below(3);
        let fx = fixture(&mut rng, regime, d, n, stride, &m);
        let (d0r, devr, fr) = share_fit_rows(&m, &fx.xs, &fx.ys, fx.rho);
        let (d0s, devs, fs) = share_fit_snapshot(&m, &fx.snap, &fx.fit, fx.rho);
        prop_assert!(same_shift(d0r, d0s), "{:?} d={} n={}: δ₀ {} vs {}", regime, d, n, d0r, d0s);
        prop_assert_eq!(devr.to_bits(), devs.to_bits(), "{:?} d={} n={}: max_dev {} vs {}", regime, d, n, devr, devs);
        prop_assert_eq!(fr.to_bits(), fs.to_bits(), "{:?} d={} n={}: within {} vs {}", regime, d, n, fr, fs);
    }

    /// A whole pop's scan: the first fit and the best within count of the
    /// misses before it, with the count read and with it skipped.
    #[test]
    fn pool_scan_matches_the_row_oracle(
        seed in 0u64..u64::MAX,
        pick in 0usize..4,
        d_pick in 0usize..3,
        n in 1usize..=3 * LANES + 1,
    ) {
        let mut rng = Mix(seed);
        let regime = regime_of(pick);
        let d = [0, 1, 3][d_pick];
        let pool: Vec<Model> = (0..1 + rng.below(6)).map(|_| model(&mut rng, regime, d)).collect();
        let stride = 1 + rng.below(3);
        let fx = fixture(&mut rng, regime, d, n, stride, &pool[0]);
        let oracle: Vec<_> = pool.iter().map(|m| share_fit_rows(m, &fx.xs, &fx.ys, fx.rho)).collect();
        let first = oracle.iter().position(|o| o.1 <= fx.rho);
        let probed = first.map_or(pool.len(), |i| i + 1);
        let best = oracle[..probed]
            .iter()
            .filter(|o| o.1 > fx.rho)
            .map(|o| (o.2 * n as f64).round() as usize)
            .max()
            .unwrap_or(0);
        let mut rows = GatheredPartition::new();
        rows.gather(&fx.snap, &fx.fit);
        let mut resid = Vec::new();
        for reads_ind in [true, false] {
            let scan = scan_pool(&pool, &rows, &mut resid, fx.rho, reads_ind);
            prop_assert_eq!(scan.hit.map(|h| h.0), first);
            prop_assert_eq!(scan.probes, probed);
            if let Some((i, p)) = scan.hit {
                prop_assert!(same_shift(p.delta0, oracle[i].0));
                prop_assert_eq!(p.max_dev.to_bits(), oracle[i].1.to_bits());
            }
            prop_assert_eq!(scan.best_within, if reads_ind { best } else { 0 });
            let settled = if reads_ind { usize::from(first.is_some()) } else { probed };
            prop_assert_eq!(scan.settled_from_range, settled);
        }
    }
}

/// Hand-placed edge cases the random regimes reach only by chance.
#[test]
fn planted_edges_match_the_row_oracle() {
    let table_of = |ys: &[f64], xs: &[[f64; 2]]| {
        let mut t = Table::new(Schema::new(vec![
            ("a", AttrType::Float),
            ("b", AttrType::Float),
            ("y", AttrType::Float),
        ]));
        for (x, &y) in xs.iter().zip(ys) {
            t.push_row(vec![
                Value::Float(x[0]),
                Value::Float(x[1]),
                Value::Float(y),
            ])
            .unwrap();
        }
        t
    };
    // (targets, two-input cells, model, ρ)
    type Case = (Vec<f64>, Vec<[f64; 2]>, Model, f64);
    let cases: Vec<Case> = vec![
        // Residuals +0 and −0 only: a zero shift of either sign.
        (
            vec![0.0, -0.0, 0.0, -0.0, -0.0],
            vec![[0.0, 0.0]; 5],
            Model::Linear(LinearModel::new(vec![1.0, 1.0], 0.0)),
            0.0,
        ),
        // Deviations exactly ρ on both sides.
        (
            vec![1.0, 3.0, 3.0, 1.0, 2.0, 1.0],
            vec![[0.0, 0.0]; 6],
            Model::Linear(LinearModel::new(vec![1.0, 1.0], 0.0)),
            1.0,
        ),
        // ∞ − ∞: every residual NaN.
        (
            vec![1.0; 5],
            vec![[1e10, 1e10]; 5],
            Model::Linear(LinearModel::new(vec![f64::MAX, -f64::MAX], 0.0)),
            0.5,
        ),
        // One NaN, one −∞, finite rest: δ₀ = −∞ and an infinite max_dev.
        (
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![
                [1e10, 1e10],
                [1e10, 0.0],
                [0.0, 0.0],
                [0.0, 0.0],
                [0.0, 0.0],
            ],
            Model::Linear(LinearModel::new(vec![f64::MAX, -f64::MAX], 0.0)),
            0.5,
        ),
        // Both infinities: δ₀ is NaN and every deviation NaN.
        (
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            vec![
                [1e10, 0.0],
                [0.0, 1e10],
                [0.0, 0.0],
                [1.0, 1.0],
                [0.0, 0.0],
                [2.0, 0.0],
            ],
            Model::Linear(LinearModel::new(vec![f64::MAX, -f64::MAX], 0.0)),
            0.5,
        ),
    ];
    for (i, (ys, xs, m, rho)) in cases.into_iter().enumerate() {
        let t = table_of(&ys, &xs);
        let (a, b, y) = (
            t.attr("a").unwrap(),
            t.attr("b").unwrap(),
            t.attr("y").unwrap(),
        );
        let snap = NumericSnapshot::build(&t, &[a, b], y, &t.all_rows()).unwrap();
        let fit = snap.ready_rows(&t.all_rows());
        let rows: Vec<Vec<f64>> = xs.iter().map(|x| x.to_vec()).collect();
        let (d0r, devr, fr) = share_fit_rows(&m, &rows, &ys, rho);
        let (d0s, devs, fs) = share_fit_snapshot(&m, &snap, &fit, rho);
        assert!(same_shift(d0r, d0s), "case {i}: δ₀ {d0r} vs {d0s}");
        assert_eq!(devr.to_bits(), devs.to_bits(), "case {i}: max_dev");
        assert_eq!(fr.to_bits(), fs.to_bits(), "case {i}: within");
    }
}
