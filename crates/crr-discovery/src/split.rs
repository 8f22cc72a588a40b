//! Algorithm 1 line 19: choosing the split predicate.
//!
//! Only *separating* predicates qualify (both sides non-empty — this is
//! what bounds the search tree at one leaf per tuple). `BestResidual`
//! (default) scores each candidate by the weighted variance of the parent
//! model's residuals per side — the model-tree criterion that surfaces
//! regime attributes; `BestVariance` is the raw CART criterion \[9\] on the
//! target; `FirstApplicable` takes the first separating candidate.
//!
//! # Sweep and verify
//!
//! The *ordered scorer* is the reference: one pass over the partition per
//! candidate, accumulating `(n, Σv, Σv²)` per side in row order, then
//! `score = (n₁·var₁ + n₂·var₂) / (n₁ + n₂)`. The winner is the first
//! candidate (in `avail` order) whose score is strictly smaller than every
//! earlier one. That costs O(candidates × rows) per split.
//!
//! Threshold predicates `A ≤ c`, `A < c`, `A > c`, `A ≥ c` on one numeric
//! attribute are nested cuts: each selects a lower set `{x < b}` of the
//! attribute (with `b = c` for the strict forms and `b = next_up(c)` for
//! `≤`, so `≤ c` and `< next_up(c)` share a cut), or its complement among
//! the comparable cells. [`SplitScorer`] therefore scores all of one
//! attribute's threshold candidates in **one pass**: every scored row goes
//! to the bucket of the first cut whose lower set holds it (a
//! `partition_point` over the sorted distinct bounds), null and NaN cells
//! go to a "never satisfied" lane exactly as in `Predicate::eval`, and each
//! bucket accumulates `(n, Σv, Σv², Σ|v|)`. Prefix and suffix sums over the
//! buckets give both sides of every cut in O(rows·log cuts + cuts).
//!
//! The sweep adds in a different order than the ordered scorer, so its
//! score is an *estimate*. Any summation order of `m` terms lies within
//! `γ_m·Σ|v|` of the exact sum (`γ_m = m·u/(1 − m·u)`, `u = 2⁻⁵³`), so a
//! sweep sum and the ordered sum of the same side differ by at most
//! `2·γ_m·Σ|v|` (and `2·γ_m·Σv²` for the squares, whose terms are the same
//! rounded `v·v` on both paths). That bound is propagated through the
//! variance formula — `|Δ(n·var)| ≤ e_q + e_s·(2|s| + e_s)/n` — plus the
//! rounding of the formula itself on either path, and padded; the result
//! is an interval that provably contains the ordered scorer's bitwise
//! score.
//!
//! The *verify* step then re-scores, with the ordered scorer, every swept
//! candidate whose interval reaches the best upper bound over all
//! candidates. Every candidate attaining the minimum ordered score lies in
//! that set, so replaying the first-strictly-smaller rule over the exact
//! scores in `avail` order returns the ordered scorer's index — and the
//! rules and artifact bytes stay bitwise identical. Non-threshold
//! candidates (`=`, `≠`, strings, null tests) are scored by the ordered
//! scorer directly. The bound needs finite sums: when a scored value is
//! non-finite or larger than 1e100 in magnitude, every candidate is scored
//! by the ordered scorer, which then also reproduces its NaN behaviour.
//!
//! `ScanKernel::Interpreted` keeps the row-at-a-time ordered loop as the
//! oracle the compiled path is tested against.

use crate::{DiscoveryConfig, PredicateSpace, SplitStrategy};
use crr_core::{CompiledConjunction, Op, Predicate};
use crr_data::{AttrId, ColumnData, RowSet, Table, Value};
use crr_obs::Counter as Ctr;
use std::borrow::Cow;

/// Unit roundoff of f64 arithmetic.
const U: f64 = f64::EPSILON / 2.0;

/// Largest scored magnitude the sweep's error bound is applied to: below
/// it, squares and their sums over any realistic row count stay far from
/// overflow, so every ordered score is finite.
const SWEEP_MAGNITUDE: f64 = 1e100;

/// Relative padding on every slack, absorbing the rounding of the slack
/// computation itself.
const PAD: f64 = 1.0 + 1.0 / 1048576.0;

/// `γ_k = k·u / (1 − k·u)`: the forward-error factor of any `k`-term sum.
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * U;
    ku / (1.0 - ku)
}

/// One side of a candidate split: count, sum and sum of squares of the
/// scored values, accumulated in the ordered scorer's row order.
#[derive(Debug, Clone, Copy, Default)]
struct Side {
    n: usize,
    s: f64,
    q: f64,
}

impl Side {
    #[inline]
    fn add(&mut self, v: f64) {
        self.n += 1;
        self.s += v;
        self.q += v * v;
    }
}

/// The split criterion on two sides; `None` when the split does not
/// separate (a side is empty).
fn score(yes: Side, no: Side) -> Option<f64> {
    if yes.n == 0 || no.n == 0 {
        return None;
    }
    let var = |side: Side| {
        let n = side.n as f64;
        let m = side.s / n;
        (side.q / n - m * m).max(0.0)
    };
    Some((yes.n as f64 * var(yes) + no.n as f64 * var(no)) / (yes.n + no.n) as f64)
}

/// A sweep bucket: [`Side`] plus `Σ|v|`, which bounds the sum's error.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    side: Side,
    a: f64,
}

impl Bucket {
    #[inline]
    fn add(&mut self, v: f64) {
        self.side.add(v);
        self.a += v.abs();
    }

    fn plus(self, o: Bucket) -> Bucket {
        Bucket {
            side: Side {
                n: self.side.n + o.side.n,
                s: self.side.s + o.side.s,
                q: self.side.q + o.side.q,
            },
            a: self.a + o.a,
        }
    }

    /// Bound on `|n·var|`'s distance between this bucket's sums and the
    /// ordered scorer's sums of the same rows (`g = 2·γ_m`, padded), plus
    /// the formula's rounding on either path.
    fn deviation(self, g: f64) -> f64 {
        let Side { n, s, q } = self.side;
        let n = n as f64;
        let e_s = g * self.a;
        let e_q = g * q;
        let big_s = s.abs() + e_s;
        e_q + e_s * (2.0 * s.abs() + e_s) / n + 16.0 * U * ((q + e_q) + big_s * big_s / n)
    }
}

/// A threshold predicate as a cut of its attribute: the predicate holds on
/// the lower set `{x < bound}`, or on its complement among comparable
/// cells when `upper`.
#[derive(Debug, Clone, Copy)]
struct Cut {
    attr: usize,
    bound: f64,
    upper: bool,
}

impl Cut {
    /// The cut of `p`, when `p` is a finite-constant threshold on a
    /// numeric column (the sweepable case).
    fn of(p: &Predicate, table: &Table) -> Option<Cut> {
        let (strict, upper) = match p.op {
            Op::Lt => (true, false),
            Op::Le => (false, false),
            Op::Ge => (true, true),
            Op::Gt => (false, true),
            _ => return None,
        };
        // Int constants compare as f64, exactly like `Predicate::eval`.
        let c = match p.value {
            Value::Int(c) => c as f64,
            Value::Float(c) => c,
            _ => return None,
        };
        let numeric = matches!(
            table.column(p.attr).data(),
            ColumnData::Int(_) | ColumnData::Float(_)
        );
        (c.is_finite() && numeric).then(|| Cut {
            attr: p.attr.0,
            bound: if strict { c } else { c.next_up() },
            upper,
        })
    }
}

/// What is known about one candidate's ordered score.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// Not scored yet.
    Pending,
    /// The ordered score; `None` when the candidate does not separate.
    Exact(Option<f64>),
    /// The ordered score lies within `score ± slack`.
    Interval { score: f64, slack: f64 },
}

/// Per-run state of the compiled split chooser: every candidate predicate
/// compiled against the table exactly once, the target and every swept
/// attribute densified to flat f64 buffers (NaN marks a null cell — the
/// snapshot build already rejected non-finite target cells over the run's
/// rows, and a NaN condition cell satisfies no comparison, so the sentinel
/// is unambiguous), and each threshold predicate's cut.
///
/// [`SplitScorer::choose`] is the production sweep-and-verify chooser;
/// [`SplitScorer::choose_ordered`] scores every candidate with the ordered
/// scorer and is kept as a test and bench oracle.
pub struct SplitScorer<'t> {
    compiled: Vec<CompiledConjunction<'t>>,
    target: Vec<f64>,
    cuts: Vec<Option<Cut>>,
    /// Indexed by attribute; empty for attributes no cut mentions.
    columns: Vec<Vec<f64>>,
}

impl<'t> SplitScorer<'t> {
    /// Compiles `space` against `table` and densifies `target` plus every
    /// attribute a threshold predicate mentions.
    pub fn new(table: &'t Table, space: &PredicateSpace, target: AttrId) -> SplitScorer<'t> {
        let dense = |attr: AttrId| -> Vec<f64> {
            (0..table.num_rows())
                .map(|r| table.value_f64(r, attr).unwrap_or(f64::NAN))
                .collect()
        };
        let cuts: Vec<Option<Cut>> = space
            .predicates()
            .iter()
            .map(|p| Cut::of(p, table))
            .collect();
        let mut columns = vec![Vec::new(); table.schema().len()];
        for cut in cuts.iter().flatten() {
            if columns[cut.attr].is_empty() {
                columns[cut.attr] = dense(AttrId(cut.attr));
            }
        }
        SplitScorer {
            compiled: space
                .predicates()
                .iter()
                .map(|p| CompiledConjunction::from_preds(std::slice::from_ref(p), table))
                .collect(),
            target: dense(target),
            cuts,
            columns,
        }
    }

    /// The production chooser: sweep-and-verify over `picks` (the strided
    /// candidates, in `avail` order). `residuals` are the failed model's
    /// `(row, residual)` pairs over the partition's fit rows, ascending.
    /// Returns exactly what [`SplitScorer::choose_ordered`] returns.
    pub fn choose(
        &self,
        rows: &RowSet,
        cfg: &DiscoveryConfig,
        picks: &[u32],
        residuals: &[(usize, f64)],
    ) -> Option<u32> {
        self.pick(rows, cfg, picks, residuals, true)
    }

    /// The oracle: every candidate scored by the ordered scorer.
    pub fn choose_ordered(
        &self,
        rows: &RowSet,
        cfg: &DiscoveryConfig,
        picks: &[u32],
        residuals: &[(usize, f64)],
    ) -> Option<u32> {
        self.pick(rows, cfg, picks, residuals, false)
    }

    fn pick(
        &self,
        rows: &RowSet,
        cfg: &DiscoveryConfig,
        picks: &[u32],
        residuals: &[(usize, f64)],
        sweep: bool,
    ) -> Option<u32> {
        if matches!(cfg.split, SplitStrategy::FirstApplicable) {
            // Cheap separation check only.
            return picks.iter().copied().find(|&idx| {
                let yes = self.compiled[idx as usize].count(rows.as_slice());
                yes > 0 && yes < rows.len()
            });
        }
        // The `(row, value)` pairs the criterion scores, in row order.
        let values: Cow<'_, [(usize, f64)]> = match cfg.split {
            SplitStrategy::BestResidual => Cow::Borrowed(residuals),
            _ => Cow::Owned(
                rows.iter()
                    .map(|r| (r, self.target[r]))
                    .filter(|(_, v)| !v.is_nan())
                    .collect(),
            ),
        };
        let sweep = sweep
            && values
                .iter()
                .all(|&(_, v)| v.is_finite() && v.abs() <= SWEEP_MAGNITUDE);
        let mut verdicts = vec![Verdict::Pending; picks.len()];
        if sweep {
            let swept = self.sweep(picks, &values, &mut verdicts);
            cfg.metrics.add(Ctr::SplitCandidatesSwept, swept as u64);
        }

        let mut ordered = OrderedScorer::new(residuals);
        let mut upper = f64::INFINITY;
        for (v, &idx) in verdicts.iter_mut().zip(picks) {
            match *v {
                Verdict::Pending => {
                    let exact = ordered.score(self, idx, rows, cfg.split);
                    *v = Verdict::Exact(exact);
                    if let Some(s) = exact {
                        upper = upper.min(s);
                    }
                }
                Verdict::Interval { score, slack } => upper = upper.min(score + slack),
                Verdict::Exact(_) => {}
            }
        }
        // Verify: every interval reaching the best upper bound may hold the
        // minimum, so it is re-scored exactly.
        let mut rescored = 0u64;
        for (v, &idx) in verdicts.iter_mut().zip(picks) {
            if let Verdict::Interval { score, slack } = *v {
                if score - slack <= upper {
                    *v = Verdict::Exact(ordered.score(self, idx, rows, cfg.split));
                    rescored += 1;
                }
            }
        }
        cfg.metrics.add(Ctr::SplitExactRescores, rescored);

        // The ordered rule: first strictly smaller exact score wins.
        let mut best: Option<(f64, u32)> = None;
        for (v, &idx) in verdicts.iter().zip(picks) {
            if let Verdict::Exact(Some(score)) = *v {
                if best.is_none_or(|(b, _)| score < b) {
                    best = Some((score, idx));
                }
            }
        }
        best.map(|(_, idx)| idx)
    }

    /// Scores every threshold candidate among `picks` with one bucketed
    /// pass per attribute, writing an interval (or a not-separating
    /// verdict, which the exact counts decide) into `verdicts`. Returns
    /// the number of candidates swept.
    fn sweep(&self, picks: &[u32], values: &[(usize, f64)], verdicts: &mut [Verdict]) -> usize {
        let mut group: Vec<(usize, Cut)> = picks
            .iter()
            .enumerate()
            .filter_map(|(pos, &idx)| self.cuts[idx as usize].map(|cut| (pos, cut)))
            .collect();
        group.sort_by_key(|(_, cut)| cut.attr);
        let g = 2.0 * gamma(values.len() + 2) * PAD;
        for cuts in group.chunk_by(|a, b| a.1.attr == b.1.attr) {
            let mut bounds: Vec<f64> = cuts.iter().map(|(_, cut)| cut.bound).collect();
            bounds.sort_unstable_by(f64::total_cmp);
            bounds.dedup();
            let m = bounds.len();
            // Bucket j < m holds the rows whose first containing lower set
            // is cut j's, bucket m the comparable rows in none, and bucket
            // m + 1 the never-satisfied lane (null or NaN cell).
            let mut buckets = vec![Bucket::default(); m + 2];
            let col = &self.columns[cuts[0].1.attr];
            for &(r, v) in values {
                let x = col[r];
                let b = if x.is_nan() {
                    m + 1
                } else {
                    bounds.partition_point(|&c| x >= c)
                };
                buckets[b].add(v);
            }
            // below[j]: the rows in cut j's lower set; above[j]: the
            // comparable rows outside it.
            let mut below = Vec::with_capacity(m);
            let mut acc = Bucket::default();
            for b in &buckets[..m] {
                acc = acc.plus(*b);
                below.push(acc);
            }
            let mut above = vec![Bucket::default(); m];
            let mut acc = buckets[m];
            for j in (0..m).rev() {
                above[j] = acc;
                acc = acc.plus(buckets[j]);
            }
            let never = buckets[m + 1];
            for &(pos, cut) in cuts {
                let j = bounds.partition_point(|&c| c < cut.bound);
                let (yes, no) = if cut.upper {
                    (above[j], below[j].plus(never))
                } else {
                    (below[j], above[j].plus(never))
                };
                verdicts[pos] = match score(yes.side, no.side) {
                    None => Verdict::Exact(None),
                    Some(score) => {
                        let n = (yes.side.n + no.side.n) as f64;
                        let slack = ((yes.deviation(g) + no.deviation(g)) / n
                            + 8.0 * U * score.abs()
                            + 16.0 * f64::MIN_POSITIVE)
                            * PAD;
                        Verdict::Interval { score, slack }
                    }
                };
            }
        }
        group.len()
    }
}

/// The ordered scorer over the compiled kernels: a blocked columnar select
/// into a reused buffer, then a two-pointer merge of the (sorted) selection
/// against the partition feeding the *same* accumulators in the *same* row
/// order as the interpreted per-row branch, so scores are bitwise
/// identical to the oracle's.
struct OrderedScorer<'r> {
    residuals: &'r [(usize, f64)],
    /// Rows the BestResidual criterion scores (ascending, mirrors `fit`).
    resid_rows: Vec<u32>,
    sel: Vec<u32>,
}

impl<'r> OrderedScorer<'r> {
    fn new(residuals: &'r [(usize, f64)]) -> Self {
        OrderedScorer {
            residuals,
            resid_rows: residuals.iter().map(|&(r, _)| r as u32).collect(),
            sel: Vec::new(),
        }
    }

    fn score(
        &mut self,
        sc: &SplitScorer<'_>,
        idx: u32,
        rows: &RowSet,
        split: SplitStrategy,
    ) -> Option<f64> {
        let cp = &sc.compiled[idx as usize];
        let sel = &mut self.sel;
        let (mut yes, mut no) = (Side::default(), Side::default());
        if let SplitStrategy::BestResidual = split {
            cp.select_into(&self.resid_rows, sel);
            let mut j = 0;
            for &(r, resid) in self.residuals {
                if j < sel.len() && sel[j] == r as u32 {
                    j += 1;
                    yes.add(resid);
                } else {
                    no.add(resid);
                }
            }
        } else {
            cp.select_into(rows.as_slice(), sel);
            let mut j = 0;
            for r in rows.iter() {
                let hit = j < sel.len() && sel[j] == r as u32;
                if hit {
                    j += 1;
                }
                let v = sc.target[r];
                if v.is_nan() {
                    continue;
                }
                if hit {
                    yes.add(v);
                } else {
                    no.add(v);
                }
            }
        }
        score(yes, no)
    }
}

/// Line 19: pick the split predicate among the available ones, evaluating
/// at most `cfg.max_split_candidates` spread evenly over `avail`. Under the
/// compiled kernel `scorer` runs sweep-and-verify; without one (the
/// interpreted kernel) every candidate goes through the row-at-a-time
/// ordered loop. Both return the same index.
pub(crate) fn choose_split(
    table: &Table,
    rows: &RowSet,
    cfg: &DiscoveryConfig,
    space: &PredicateSpace,
    avail: &[u32],
    residuals: &[(usize, f64)],
    scorer: Option<&SplitScorer<'_>>,
) -> Option<u32> {
    let stride = (avail.len() / cfg.max_split_candidates.max(1)).max(1);
    let picks: Vec<u32> = avail.iter().step_by(stride).copied().collect();
    let chosen = match scorer {
        Some(sc) => sc.choose(rows, cfg, &picks, residuals),
        None => choose_interpreted(table, rows, cfg, space, &picks, residuals),
    };
    if chosen.is_none() && stride > 1 {
        // The strided sample missed every separating predicate (small
        // partitions need fine constants). Coverage quality beats split
        // cost here: the space's sorted-constant lookup finds one in
        // O(|rows| + log |P|). (Predicates consumed on this path never
        // separate their own descendants, so skipping the avail filter is
        // safe — a non-separating pick is simply rejected upstream.)
        return space.separating_candidate(table, rows);
    }
    chosen
}

/// The interpreted oracle: `Predicate::eval` per row, per candidate.
fn choose_interpreted(
    table: &Table,
    rows: &RowSet,
    cfg: &DiscoveryConfig,
    space: &PredicateSpace,
    picks: &[u32],
    residuals: &[(usize, f64)],
) -> Option<u32> {
    let mut best: Option<(f64, u32)> = None;
    for &idx in picks {
        let p = &space.predicates()[idx as usize];
        let (mut yes, mut no) = (Side::default(), Side::default());
        match cfg.split {
            SplitStrategy::FirstApplicable => {
                let n = rows.iter().filter(|&r| p.eval(table, r)).count();
                if n > 0 && n < rows.len() {
                    return Some(idx);
                }
                continue;
            }
            SplitStrategy::BestResidual => {
                for &(r, resid) in residuals {
                    if p.eval(table, r) {
                        yes.add(resid);
                    } else {
                        no.add(resid);
                    }
                }
            }
            SplitStrategy::BestVariance => {
                for r in rows.iter() {
                    let Some(v) = table.value_f64(r, cfg.target) else {
                        continue;
                    };
                    if p.eval(table, r) {
                        yes.add(v);
                    } else {
                        no.add(v);
                    }
                }
            }
        }
        if let Some(score) = score(yes, no) {
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, idx));
            }
        }
    }
    best.map(|(_, idx)| idx)
}
