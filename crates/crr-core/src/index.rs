//! Interval index for rule locating.
//!
//! Rule sets produced by discovery + compaction hold few rules but many
//! conjunctions (one per shared data part), and [`crate::RuleSet`]'s
//! locate is a linear scan over all of them. For the common case — most
//! conjunctions bound one numeric attribute (the time axis, salary, …) —
//! [`RuleIndex`] turns locating into a binary search:
//!
//! 1. pick the numeric attribute bounded by the most conjunctions;
//! 2. extract each conjunction's (conservative, closed) interval on it;
//! 3. flatten all interval endpoints into segments; each segment stores
//!    the conjunctions overlapping it, in `(rule, conjunction)` order.
//!
//! A lookup binary-searches the segment for the row's value and then
//! *fully evaluates* only the candidate conjunctions, so the result is
//! exactly what the linear [`crate::LocateStrategy::First`] scan returns —
//! the index is purely an accelerator, never a semantic change (asserted
//! by the equivalence tests below and the property tests in
//! `tests/proptest_index.rs`).

use crate::{CompiledConjunction, Conjunction, Crr, Op, RuleSet};
use crr_data::{AttrId, RowSet, Table};
use std::collections::HashMap;

/// One candidate: indices of a rule and one of its conjunctions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    rule: u32,
    conj: u32,
}

/// An interval-indexed view of a rule set (see module docs).
#[derive(Debug, Clone)]
pub struct RuleIndex<'a> {
    rules: &'a RuleSet,
    /// The indexed attribute, if one was worth indexing.
    attr: Option<AttrId>,
    /// Sorted segment boundaries over the indexed attribute.
    boundaries: Vec<f64>,
    /// `segments[i]` holds candidates overlapping
    /// `[boundaries[i], boundaries[i+1])`; `segments[boundaries.len()]`
    /// is the right-open tail. Entry 0 is the left-open head.
    segments: Vec<Vec<Candidate>>,
    /// Conjunctions with no usable bound on `attr` — checked on every
    /// lookup (merged in rule order).
    unbounded: Vec<Candidate>,
}

/// Conservative closed interval of a conjunction on one attribute:
/// `[lo, hi]` with ±∞ defaults. Equality pins both ends.
fn interval_on(conj: &Conjunction, attr: AttrId) -> (f64, f64) {
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for p in conj.preds() {
        if p.attr != attr || p.op.is_null_test() {
            continue;
        }
        let Some(c) = p.value.as_f64() else { continue };
        match p.op {
            Op::Eq => {
                lo = lo.max(c);
                hi = hi.min(c);
            }
            Op::Gt | Op::Ge => lo = lo.max(c),
            Op::Lt | Op::Le => hi = hi.min(c),
            Op::Ne | Op::IsNull | Op::NotNull => {}
        }
    }
    (lo, hi)
}

impl<'a> RuleIndex<'a> {
    /// Builds the index. Falls back to pure scanning (still correct) when
    /// no numeric attribute is bounded by at least half the conjunctions.
    pub fn build(rules: &'a RuleSet, table: &Table) -> RuleIndex<'a> {
        // Count bounded conjunctions per numeric attribute.
        let mut bound_counts: HashMap<AttrId, usize> = HashMap::new();
        let mut total_conjuncts = 0usize;
        for rule in rules.rules() {
            for conj in rule.condition().conjuncts() {
                total_conjuncts += 1;
                let mut seen: Vec<AttrId> = Vec::new();
                for p in conj.preds() {
                    if table.schema().attribute(p.attr).ty().is_numeric()
                        && !p.op.is_null_test()
                        && p.value.as_f64().is_some()
                        && !seen.contains(&p.attr)
                    {
                        seen.push(p.attr);
                        *bound_counts.entry(p.attr).or_default() += 1;
                    }
                }
            }
        }
        let attr = bound_counts
            .into_iter()
            .max_by_key(|&(a, n)| (n, std::cmp::Reverse(a.0)))
            .filter(|&(_, n)| 2 * n >= total_conjuncts && total_conjuncts > 4)
            .map(|(a, _)| a);
        let Some(attr) = attr else {
            return RuleIndex {
                rules,
                attr: None,
                boundaries: Vec::new(),
                segments: Vec::new(),
                unbounded: Vec::new(),
            };
        };

        // Collect intervals and boundaries.
        let mut entries: Vec<(Candidate, f64, f64)> = Vec::new();
        let mut unbounded: Vec<Candidate> = Vec::new();
        let mut boundaries: Vec<f64> = Vec::new();
        for (ri, rule) in rules.rules().iter().enumerate() {
            for (ci, conj) in rule.condition().conjuncts().iter().enumerate() {
                let cand = Candidate {
                    rule: ri as u32,
                    conj: ci as u32,
                };
                let (lo, hi) = interval_on(conj, attr);
                if lo.is_infinite() && hi.is_infinite() {
                    unbounded.push(cand);
                    continue;
                }
                if lo > hi {
                    continue; // provably empty on this attribute
                }
                if lo.is_finite() {
                    boundaries.push(lo);
                }
                if hi.is_finite() {
                    boundaries.push(hi);
                }
                entries.push((cand, lo, hi));
            }
        }
        boundaries.sort_unstable_by(f64::total_cmp);
        boundaries.dedup();
        // Segment i covers [boundaries[i-1], boundaries[i]) with segment 0
        // the open head (-inf, boundaries[0]) and a final open tail.
        let mut segments: Vec<Vec<Candidate>> = vec![Vec::new(); boundaries.len() + 1];
        for (cand, lo, hi) in entries {
            // Closed interval [lo, hi] overlaps segment [b_{i-1}, b_i) when
            // lo < b_i and hi >= b_{i-1}.
            let first = boundaries.partition_point(|&b| b <= lo); // first seg with b_i > lo
            let last = boundaries.partition_point(|&b| b <= hi); // hi's tail segment
            for seg in segments.iter_mut().take(last + 1).skip(first) {
                seg.push(cand);
            }
        }
        for seg in &mut segments {
            seg.sort_unstable();
        }
        unbounded.sort_unstable();
        RuleIndex {
            rules,
            attr: Some(attr),
            boundaries,
            segments,
            unbounded,
        }
    }

    /// The indexed attribute, if any.
    pub fn indexed_attr(&self) -> Option<AttrId> {
        self.attr
    }

    /// Locates the first (in rule-set order) rule + conjunction covering
    /// `row` — identical to the linear `First` scan.
    pub fn locate(&self, table: &Table, row: usize) -> Option<(&Crr, &Conjunction)> {
        let Some(attr) = self.attr else {
            return self.scan(table, row);
        };
        let Some(v) = table.value_f64(row, attr) else {
            // Null on the indexed attribute: no bounded conjunction can
            // match (predicates over null are false); check unbounded only.
            return self.check_candidates(table, row, &self.unbounded, &[]);
        };
        let seg = self.boundaries.partition_point(|&b| b <= v);
        self.check_candidates(table, row, &self.segments[seg], &self.unbounded)
    }

    /// Predicts for `row` using the located rule's conjunction built-ins.
    pub fn predict(&self, table: &Table, row: usize) -> Option<f64> {
        let (rule, conj) = self.locate(table, row)?;
        predict_at(rule, conj, table, row)
    }

    /// RMSE evaluation over `rows` via the index — the accelerated
    /// counterpart of [`RuleSet::evaluate`].
    pub fn evaluate(&self, table: &Table, rows: &RowSet) -> crate::ruleset::EvalReport {
        evaluate_with(self.rules, table, rows, |row| self.locate(table, row))
    }

    /// Evaluates two pre-sorted candidate lists in merged rule order.
    fn check_candidates(
        &self,
        table: &Table,
        row: usize,
        a: &[Candidate],
        b: &[Candidate],
    ) -> Option<(&Crr, &Conjunction)> {
        let c = merge_first(a, b, |c| self.conjunction(c).eval(table, row))?;
        Some(self.resolve(c))
    }

    /// Fallback linear scan (used when nothing was worth indexing).
    fn scan(&self, table: &Table, row: usize) -> Option<(&Crr, &Conjunction)> {
        for rule in self.rules.rules() {
            if let Some(conj) = rule.condition().matching_conjunct(table, row) {
                return Some((rule, conj));
            }
        }
        None
    }

    fn conjunction(&self, c: Candidate) -> &Conjunction {
        &self.rules.rules()[c.rule as usize].condition().conjuncts()[c.conj as usize]
    }

    fn resolve(&self, c: Candidate) -> (&'a Crr, &'a Conjunction) {
        let rule = &self.rules.rules()[c.rule as usize];
        (rule, &rule.condition().conjuncts()[c.conj as usize])
    }

    /// Compiles every conjunction against `table`'s columns once, yielding
    /// a locate/evaluate engine whose per-row predicate checks run on the
    /// [`crate::compiled`] kernels instead of the interpreter. The compiled
    /// kernels are byte-identical to `Conjunction::eval` (pinned by the
    /// equivalence tests in `crate::compiled` and below), so every
    /// `CompiledIndex` answer equals the interpreted [`RuleIndex`] answer.
    pub fn compile<'t>(&'a self, table: &'t Table) -> CompiledIndex<'a, 't> {
        let compiled = self
            .rules
            .rules()
            .iter()
            .map(|rule| {
                rule.condition()
                    .conjuncts()
                    .iter()
                    .map(|conj| CompiledConjunction::compile(conj, table))
                    .collect()
            })
            .collect();
        let scan_all = match self.attr {
            Some(_) => Vec::new(),
            None => (0..self.rules.len() as u32)
                .flat_map(|rule| {
                    let conjs = self.rules.rules()[rule as usize].condition().conjuncts();
                    (0..conjs.len() as u32).map(move |conj| Candidate { rule, conj })
                })
                .collect(),
        };
        CompiledIndex {
            index: self,
            table,
            compiled,
            scan_all,
        }
    }
}

/// First candidate from two pre-sorted lists (merged in `(rule, conj)`
/// order) whose conjunction satisfies `sat`.
fn merge_first(
    a: &[Candidate],
    b: &[Candidate],
    mut sat: impl FnMut(Candidate) -> bool,
) -> Option<Candidate> {
    let (mut i, mut j) = (0, 0);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => return None,
        };
        if sat(next) {
            return Some(next);
        }
    }
}

/// Visits every candidate of two pre-sorted lists in merged `(rule, conj)`
/// order, calling `hit` for each one whose conjunction satisfies `sat` —
/// the exhaustive sibling of [`merge_first`].
fn merge_all(
    a: &[Candidate],
    b: &[Candidate],
    mut sat: impl FnMut(Candidate) -> bool,
    mut hit: impl FnMut(Candidate),
) {
    let (mut i, mut j) = (0, 0);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => return,
        };
        if sat(next) {
            hit(next);
        }
    }
}

/// A [`RuleIndex`] with every conjunction pre-compiled against one table
/// (see [`RuleIndex::compile`]): attribute → column resolution and constant
/// typing happen once at build, so the per-row checks inside `locate`,
/// `predict`, `evaluate`, `covers` and `covering` are branch-light column
/// reads.
#[derive(Debug)]
pub struct CompiledIndex<'a, 't> {
    index: &'a RuleIndex<'a>,
    table: &'t Table,
    /// `compiled[rule][conj]`, parallel to the rule set's conjunctions.
    compiled: Vec<Vec<CompiledConjunction<'t>>>,
    /// Every conjunction in rule order when nothing was indexed (the scan
    /// fallback), empty otherwise.
    scan_all: Vec<Candidate>,
}

impl<'a> CompiledIndex<'a, '_> {
    /// Compiled counterpart of [`RuleIndex::locate`] — identical result.
    pub fn locate(&self, row: usize) -> Option<(&'a Crr, &'a Conjunction)> {
        let (a, b) = self.candidates(row);
        merge_first(a, b, |c| self.sat(c, row)).map(|c| self.index.resolve(c))
    }

    /// *All* `(rule, conjunction)` index pairs whose conjunction covers
    /// `row`, in ascending `(rule, conjunction)` order — the coverage query
    /// of stream maintenance and violation checking. Where
    /// [`Self::locate`] stops at the first match (serving semantics), a
    /// constraint check must charge a row to *every* rule whose condition
    /// claims it, because each such rule's bias bound is a separate
    /// obligation on that row.
    pub fn covering(&self, row: usize) -> Vec<(usize, usize)> {
        let (a, b) = self.candidates(row);
        let mut out = Vec::new();
        merge_all(
            a,
            b,
            |c| self.sat(c, row),
            |c| out.push((c.rule as usize, c.conj as usize)),
        );
        out
    }

    /// The two sorted candidate lists a lookup at `row` merges: every
    /// conjunction when nothing was indexed; otherwise the row's segment
    /// plus the unbounded conjunctions, or only the latter when the row is
    /// null on the indexed attribute (predicates over null are false).
    fn candidates(&self, row: usize) -> (&[Candidate], &[Candidate]) {
        let Some(attr) = self.index.attr else {
            return (&self.scan_all, &[]);
        };
        match self.table.value_f64(row, attr) {
            None => (&[], &self.index.unbounded),
            Some(v) => {
                let seg = self.index.boundaries.partition_point(|&b| b <= v);
                (&self.index.segments[seg], &self.index.unbounded)
            }
        }
    }

    fn sat(&self, c: Candidate, row: usize) -> bool {
        self.compiled[c.rule as usize][c.conj as usize].eval_row(row)
    }

    /// Compiled counterpart of [`RuleIndex::predict`].
    pub fn predict(&self, row: usize) -> Option<f64> {
        let (rule, conj) = self.locate(row)?;
        predict_at(rule, conj, self.table, row)
    }

    /// Whether any rule covers `row` (first-match semantics).
    pub fn covers(&self, row: usize) -> bool {
        self.locate(row).is_some()
    }

    /// Compiled counterpart of [`RuleIndex::evaluate`] — same accumulation
    /// order, so the report is bitwise identical.
    pub fn evaluate(&self, rows: &RowSet) -> crate::ruleset::EvalReport {
        evaluate_with(self.index.rules, self.table, rows, |row| self.locate(row))
    }
}

/// One rule's prediction at `row`, applying the conjunction's built-in
/// translation — shared by the interpreted and compiled locate paths.
fn predict_at(rule: &Crr, conj: &Conjunction, table: &Table, row: usize) -> Option<f64> {
    let x: Vec<f64> = rule
        .inputs()
        .iter()
        .map(|&a| table.value_f64(row, a))
        .collect::<Option<Vec<f64>>>()?;
    Some(match conj.builtin() {
        Some(t) => rule.model().predict_translated(&x, t),
        None => crr_models::Regressor::predict(rule.model().as_ref(), &x),
    })
}

/// RMSE/MAE accumulation over `rows` given a locate engine — the single
/// source of truth both `evaluate` paths share, so interpreted and
/// compiled reports can only differ if `locate` itself differs.
fn evaluate_with<'r>(
    rules: &'r RuleSet,
    table: &Table,
    rows: &RowSet,
    mut locate: impl FnMut(usize) -> Option<(&'r Crr, &'r Conjunction)>,
) -> crate::ruleset::EvalReport {
    let target = rules.rules().first().map(Crr::target);
    let mut sse = 0.0;
    let mut sae = 0.0;
    let mut covered = 0usize;
    let mut scored = 0usize;
    for row in rows.iter() {
        let Some((rule, conj)) = locate(row) else {
            continue;
        };
        covered += 1;
        let x: Option<Vec<f64>> = rule
            .inputs()
            .iter()
            .map(|&a| table.value_f64(row, a))
            .collect();
        let (Some(x), Some(actual)) = (x, target.and_then(|t| table.value_f64(row, t))) else {
            continue;
        };
        let pred = match conj.builtin() {
            Some(t) => rule.model().predict_translated(&x, t),
            None => crr_models::Regressor::predict(rule.model().as_ref(), &x),
        };
        scored += 1;
        let e = pred - actual;
        sse += e * e;
        sae += e.abs();
    }
    crate::ruleset::EvalReport {
        rmse: if scored > 0 {
            (sse / scored as f64).sqrt()
        } else {
            0.0
        },
        mae: if scored > 0 { sae / scored as f64 } else { 0.0 },
        covered,
        scored,
        total: rows.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dnf, LocateStrategy, Predicate};
    use crr_data::{AttrType, Schema, Value};
    use crr_models::{LinearModel, Model, Translation};
    use std::sync::Arc;

    fn x() -> AttrId {
        AttrId(0)
    }

    fn y() -> AttrId {
        AttrId(1)
    }

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(vec![Value::Float(i as f64), Value::Float(2.0 * i as f64)])
                .unwrap();
        }
        t
    }

    /// A rule set with many interval conjunctions on x.
    fn segmented_rules(n_segments: usize, width: f64) -> RuleSet {
        let model = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let conjuncts: Vec<Conjunction> = (0..n_segments)
            .map(|k| {
                let lo = k as f64 * width;
                Conjunction::with_builtin(
                    vec![
                        Predicate::ge(x(), Value::Float(lo)),
                        Predicate::lt(x(), Value::Float(lo + width)),
                    ],
                    Translation {
                        delta_x: vec![0.0],
                        delta_y: 0.0,
                    },
                )
            })
            .collect();
        RuleSet::from_rules(vec![Crr::new(
            vec![x()],
            y(),
            model,
            0.1,
            Dnf::of(conjuncts),
        )
        .unwrap()])
    }

    #[test]
    fn index_matches_linear_scan() {
        let t = table(200);
        let rules = segmented_rules(20, 10.0);
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(idx.indexed_attr(), Some(x()));
        for row in 0..t.num_rows() {
            let scan = rules.predict(&t, row, LocateStrategy::First);
            let fast = idx.predict(&t, row);
            assert_eq!(scan, fast, "row {row}");
        }
    }

    #[test]
    fn evaluate_matches_ruleset_evaluate() {
        let t = table(150);
        let rules = segmented_rules(15, 10.0);
        let idx = RuleIndex::build(&rules, &t);
        let a = rules.evaluate(&t, &t.all_rows(), LocateStrategy::First);
        let b = idx.evaluate(&t, &t.all_rows());
        assert_eq!(a, b);
    }

    #[test]
    fn unbounded_conjunctions_still_match() {
        let t = table(50);
        let model = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        // First rule bounded, second rule tautological.
        let bounded = Crr::new(
            vec![x()],
            y(),
            Arc::clone(&model),
            0.1,
            Dnf::single(Conjunction::of(vec![Predicate::lt(
                x(),
                Value::Float(10.0),
            )])),
        )
        .unwrap();
        let catch_all = Crr::new(vec![x()], y(), model, 0.5, Dnf::tautology()).unwrap();
        // Pad with bounded rules so the index activates (needs >4 conjuncts).
        let more: Vec<Crr> = (1..5)
            .map(|k| {
                let m = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
                Crr::new(
                    vec![x()],
                    y(),
                    m,
                    0.1,
                    Dnf::single(Conjunction::of(vec![
                        Predicate::ge(x(), Value::Float(10.0 * k as f64)),
                        Predicate::lt(x(), Value::Float(10.0 * (k + 1) as f64)),
                    ])),
                )
                .unwrap()
            })
            .collect();
        let mut all = vec![bounded];
        all.extend(more);
        all.push(catch_all);
        let rules = RuleSet::from_rules(all);
        let idx = RuleIndex::build(&rules, &t);
        for row in 0..t.num_rows() {
            assert_eq!(
                rules.predict(&t, row, LocateStrategy::First),
                idx.predict(&t, row),
                "row {row}"
            );
        }
    }

    #[test]
    fn small_or_unindexable_sets_fall_back_to_scan() {
        let t = table(20);
        let rules = segmented_rules(2, 10.0); // too few conjuncts to index
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(idx.indexed_attr(), None);
        for row in 0..t.num_rows() {
            assert_eq!(
                rules.predict(&t, row, LocateStrategy::First),
                idx.predict(&t, row)
            );
        }
    }

    #[test]
    fn null_on_indexed_attr_matches_scan() {
        let mut t = table(100);
        t.set_null(5, x());
        let rules = segmented_rules(10, 10.0);
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(rules.predict(&t, 5, LocateStrategy::First), None);
        assert_eq!(idx.predict(&t, 5), None);
    }

    #[test]
    fn compiled_index_matches_interpreted_on_every_row() {
        let mut t = table(200);
        t.set_null(7, x());
        t.set_null(42, x());
        let rules = segmented_rules(20, 10.0);
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(idx.indexed_attr(), Some(x()));
        let fast = idx.compile(&t);
        for row in 0..t.num_rows() {
            let a = idx.predict(&t, row);
            let b = fast.predict(row);
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "row {row}");
            assert_eq!(idx.locate(&t, row).is_some(), fast.covers(row), "row {row}");
        }
        let ea = idx.evaluate(&t, &t.all_rows());
        let eb = fast.evaluate(&t.all_rows());
        assert_eq!(ea, eb);
        assert_eq!(ea.rmse.to_bits(), eb.rmse.to_bits());
    }

    /// Brute-force oracle for `CompiledIndex::covering`: evaluate every
    /// conjunction through the interpreter.
    fn covering_scan(rules: &RuleSet, t: &Table, row: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ri, rule) in rules.rules().iter().enumerate() {
            for (ci, conj) in rule.condition().conjuncts().iter().enumerate() {
                if conj.eval(t, row) {
                    out.push((ri, ci));
                }
            }
        }
        out
    }

    #[test]
    fn covering_matches_exhaustive_scan() {
        let mut t = table(120);
        t.set_null(3, x());
        // Segmented rule + a tautological catch-all: every non-null row is
        // covered by exactly two conjunctions, null rows by one.
        let model = Arc::new(Model::Linear(LinearModel::new(vec![2.0], 0.0)));
        let mut rules = segmented_rules(12, 10.0);
        rules.push(Crr::new(vec![x()], y(), model, 0.5, Dnf::tautology()).unwrap());
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(idx.indexed_attr(), Some(x()));
        let fast = idx.compile(&t);
        for row in 0..t.num_rows() {
            assert_eq!(
                fast.covering(row),
                covering_scan(&rules, &t, row),
                "row {row}"
            );
        }
        assert_eq!(
            fast.covering(3),
            vec![(1, 0)],
            "null row hits only the catch-all"
        );
    }

    #[test]
    fn covering_matches_on_the_scan_fallback() {
        let t = table(20);
        let rules = segmented_rules(2, 10.0); // unindexable: linear scan
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(idx.indexed_attr(), None);
        let fast = idx.compile(&t);
        for row in 0..t.num_rows() {
            assert_eq!(
                fast.covering(row),
                covering_scan(&rules, &t, row),
                "row {row}"
            );
        }
    }

    #[test]
    fn compiled_index_matches_on_the_scan_fallback() {
        let t = table(20);
        let rules = segmented_rules(2, 10.0); // unindexable: linear scan
        let idx = RuleIndex::build(&rules, &t);
        assert_eq!(idx.indexed_attr(), None);
        let fast = idx.compile(&t);
        for row in 0..t.num_rows() {
            assert_eq!(idx.predict(&t, row), fast.predict(row), "row {row}");
        }
    }
}
