//! Shard planning: the typed [`ShardSpec`] builder and the planner that
//! cuts a `(table, rows)` pair into concrete [`Shard`]s.
//!
//! ```
//! use crr_data::ShardSpec;
//! # use crr_data::{AttrType, Schema, Table, Value};
//! # let schema = Schema::new(vec![("k", AttrType::Float)]);
//! # let mut t = Table::new(schema);
//! # for i in 0..32 { t.push_row(vec![Value::Float((i * i) as f64)]).unwrap(); }
//! # let key = t.attr("k").unwrap();
//! // Four equal-frequency shards on `key`:
//! let shards = ShardSpec::by_key(key).quantile().shards(4).plan(&t, &t.all_rows())?;
//! assert_eq!(shards.len(), 4);
//! # Ok::<(), crr_data::DataError>(())
//! ```
//!
//! A spec is either [`ShardSpec::single`] (one unguarded shard) or a
//! key-range spec with a caller-fixed shard count and one of two
//! boundary placements:
//!
//! * [`Boundary::Quantile`] picks equal-frequency cut points from the
//!   sorted key sample, snapped strictly between distinct values so
//!   repeated-value runs are never split — the data-dependent covering
//!   that keeps skewed keys balanced;
//! * [`Boundary::EqualWidth`] cuts the observed `[min, max]` key range
//!   into equal-width intervals.
//!
//! Both placements only produce ascending cut points; one cutting core
//! (`cut_into_shards`) turns them into shards, so the disjoint/covering/
//! dense-id guarantees and the non-finite-key rejection are shared.
//! Degenerate keys (null-only, constant, heavily repeated) collapse to
//! fewer shards, and null keys always land in their own trailing shard.

use crate::shard::{cut_into_shards, key_extent};
use crate::{AttrId, DataError, Result, RowSet, Shard, Table};

/// How interval boundaries are placed on the shard key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Equal-width geometry over the observed `[min, max]` range.
    EqualWidth,
    /// Equal-frequency (equi-depth) cut points from the sorted key sample,
    /// snapped strictly between distinct values.
    Quantile,
}

impl Boundary {
    /// Stable lowercase label used in artifacts and reports.
    pub fn label(self) -> &'static str {
        match self {
            Boundary::EqualWidth => "equal_width",
            Boundary::Quantile => "quantile",
        }
    }

    /// Parses [`Self::label`] back.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "equal_width" => Some(Boundary::EqualWidth),
            "quantile" => Some(Boundary::Quantile),
            _ => None,
        }
    }
}

/// A typed shard plan: what to cut on, how to place boundaries, and how
/// many shards to cut.
///
/// Construct with [`ShardSpec::single`] or [`ShardSpec::by_key`]; refine
/// key specs with the chainable [`quantile`](ShardSpec::quantile) /
/// [`equal_width`](ShardSpec::equal_width) and the required
/// [`shards`](ShardSpec::shards). Key specs default to quantile
/// boundaries; the modifiers have no effect on the single spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    key: Option<KeySpec>,
}

#[derive(Debug, Clone, PartialEq)]
struct KeySpec {
    attr: AttrId,
    boundary: Boundary,
    /// Requested interval count; 0 until `.shards(n)` sets it.
    shards: usize,
}

impl ShardSpec {
    /// The trivial one-shard spec.
    pub fn single() -> Self {
        ShardSpec { key: None }
    }

    /// Key-range spec over `attr` with quantile boundaries. Planning
    /// needs a shard count: finish with [`shards`](ShardSpec::shards).
    pub fn by_key(attr: AttrId) -> Self {
        ShardSpec {
            key: Some(KeySpec {
                attr,
                boundary: Boundary::Quantile,
                shards: 0,
            }),
        }
    }

    /// Use equal-frequency (quantile) boundaries.
    pub fn quantile(self) -> Self {
        self.with_key(|k| k.boundary = Boundary::Quantile)
    }

    /// Use equal-width boundaries.
    pub fn equal_width(self) -> Self {
        self.with_key(|k| k.boundary = Boundary::EqualWidth)
    }

    /// Cut exactly `n` intervals (before empty ones are dropped).
    pub fn shards(self, n: usize) -> Self {
        self.with_key(|k| k.shards = n)
    }

    fn with_key(mut self, f: impl FnOnce(&mut KeySpec)) -> Self {
        if let Some(k) = &mut self.key {
            f(k);
        }
        self
    }

    /// Boundary placement of a key spec; `None` for the single spec.
    pub fn boundary(&self) -> Option<Boundary> {
        self.key.as_ref().map(|k| k.boundary)
    }

    /// Resolves the spec against `(table, rows)` into concrete shards.
    ///
    /// Guarantees on success: shards are disjoint, their union is exactly
    /// `rows`, no shard is empty, ids are dense in emission order
    /// (intervals ascending, then the null-key shard), and every row with
    /// a null key lands in the trailing `null_keys` shard. The single spec
    /// yields one shard holding `rows` with no bounds.
    ///
    /// Errors: a key spec without `.shards(n)` or with `n == 0` is
    /// [`DataError::InvalidShardPlan`], a non-numeric key
    /// [`DataError::NotNumeric`], and a NaN/±Inf key
    /// [`DataError::NonFiniteCell`] (such a key would satisfy other
    /// shards' interval guards, so no shard could soundly own the row).
    pub fn plan(&self, table: &Table, rows: &RowSet) -> Result<Vec<Shard>> {
        let Some(KeySpec {
            attr,
            boundary,
            shards,
        }) = self.key
        else {
            return Ok(vec![Shard {
                id: 0,
                rows: rows.clone(),
                bounds: None,
            }]);
        };
        if shards == 0 {
            return Err(DataError::InvalidShardPlan(
                "key-range spec needs `.shards(n)` with n >= 1".to_string(),
            ));
        }
        let cuts = match boundary {
            Boundary::EqualWidth => equal_width_cuts(table, attr, rows, shards)?,
            Boundary::Quantile => quantile_cuts(table, attr, rows, shards)?,
        };
        Ok(cut_into_shards(table, attr, rows, &cuts))
    }
}

/// Equal-width cut points for `k` intervals over the observed `[min, max]`
/// of the finite keys of `attr`. A constant, all-null or one-interval key
/// yields no cuts. Errors as [`quantile_cuts`].
pub(crate) fn equal_width_cuts(
    table: &Table,
    attr: AttrId,
    rows: &RowSet,
    k: usize,
) -> Result<Vec<f64>> {
    match key_extent(table, attr, rows)? {
        (Some(lo), Some(hi)) if k > 1 && hi > lo => {
            let w = (hi - lo) / k as f64;
            Ok((1..k).map(|i| lo + w * i as f64).collect())
        }
        _ => Ok(Vec::new()),
    }
}

/// Equal-frequency cut points for `k` intervals over the finite keys of
/// `attr`, snapped strictly between distinct values.
///
/// For each target rank `⌈i·n/k⌉` the cut is the midpoint of the key at
/// that rank and the next *strictly greater* key; when the run of equal
/// keys extends to the end of the sample, the cut is skipped rather than
/// split a repeated-value run. Cuts are deduplicated, so heavily repeated
/// keys yield fewer (possibly zero) cuts — degeneracy collapses shards
/// instead of producing empty or overlapping ones. Null keys are skipped
/// here; `cut_into_shards` gives them the trailing shard. Errors:
/// non-numeric keys and non-finite keys are rejected.
pub(crate) fn quantile_cuts(
    table: &Table,
    attr: AttrId,
    rows: &RowSet,
    k: usize,
) -> Result<Vec<f64>> {
    // Validates the attribute and rejects NaN/±Inf up front (shared with
    // the equal-width path).
    let (lo, hi) = key_extent(table, attr, rows)?;
    if k <= 1 || lo.is_none() || lo == hi {
        return Ok(Vec::new());
    }
    let mut keys: Vec<f64> = Vec::new();
    for r in rows.iter() {
        if let Some(v) = table.value_f64(r, attr) {
            keys.push(v);
        }
    }
    keys.sort_unstable_by(f64::total_cmp);
    let n = keys.len();
    let mut cuts: Vec<f64> = Vec::new();
    for i in 1..k {
        // Rank of the first key the i-th interval should NOT contain.
        let rank = (i * n).div_ceil(k).clamp(1, n - 1);
        let below = keys[rank - 1];
        // The next strictly greater key; a run reaching the end of the
        // sample yields no cut (the run stays whole in the last interval).
        let Some(&above) = keys[rank..].iter().find(|&&v| v > below) else {
            continue;
        };
        // Snap strictly between the two distinct values. Midpoints of
        // adjacent floats can round onto an endpoint; `above` is still a
        // valid half-open cut (`c <= key` sends the upper run right).
        let mid = below + (above - below) / 2.0;
        let cut = if mid > below && mid <= above {
            mid
        } else {
            above
        };
        if cuts.last() != Some(&cut) {
            cuts.push(cut);
        }
    }
    Ok(cuts)
}

/// Row balance of a partition in permille: `min(rows)/max(rows) × 1000`,
/// ignoring the trailing null-key shard (its size is a property of the
/// data, not the boundary placement). `1000` means perfectly balanced;
/// degenerate partitions (≤ 1 interval shard) report `1000`.
pub fn balance_permille(shards: &[Shard]) -> u64 {
    let sizes: Vec<usize> = shards
        .iter()
        .filter(|s| !s.bounds.map(|b| b.null_keys).unwrap_or(false))
        .map(|s| s.rows.len())
        .collect();
    if sizes.len() <= 1 {
        return 1000;
    }
    let min = *sizes.iter().min().unwrap_or(&0) as u64;
    let max = *sizes.iter().max().unwrap_or(&1) as u64;
    if max == 0 {
        return 1000;
    }
    min * 1000 / max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Schema, Value};

    fn table_with_keys(keys: &[Option<f64>]) -> (Table, AttrId) {
        let schema = Schema::new(vec![("k", AttrType::Float), ("y", AttrType::Float)]);
        let mut t = Table::new(schema);
        for (i, k) in keys.iter().enumerate() {
            let kv = match k {
                Some(v) => Value::Float(*v),
                None => Value::Null,
            };
            t.push_row(vec![kv, Value::Float(i as f64)]).unwrap();
        }
        let attr = t.attr("k").unwrap();
        (t, attr)
    }

    fn assert_disjoint_cover(shards: &[Shard], rows: &RowSet) {
        let mut seen: Vec<u32> = Vec::new();
        for s in shards {
            assert!(!s.rows.is_empty(), "empty shard {} survived", s.id);
            seen.extend_from_slice(s.rows.as_slice());
        }
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "shards overlap");
        assert_eq!(seen, rows.as_slice(), "union is not the input rows");
    }

    #[test]
    fn quantile_balances_a_skewed_key() {
        // Quadratic skew: equal-width crams most rows into the first
        // interval; quantile splits them 25/25/25/25.
        let keys: Vec<Option<f64>> = (0..100).map(|i| Some((i * i) as f64)).collect();
        let (t, attr) = table_with_keys(&keys);
        let ew = ShardSpec::by_key(attr)
            .equal_width()
            .shards(4)
            .plan(&t, &t.all_rows())
            .unwrap();
        let q = ShardSpec::by_key(attr)
            .quantile()
            .shards(4)
            .plan(&t, &t.all_rows())
            .unwrap();
        assert_disjoint_cover(&q, &t.all_rows());
        assert_eq!(q.len(), 4);
        for s in &q {
            assert_eq!(s.rows.len(), 25, "shard {}: {:?}", s.id, s.bounds);
        }
        assert!(balance_permille(&q) > balance_permille(&ew));
    }

    #[test]
    fn quantile_keeps_repeated_value_runs_whole() {
        // 60 copies of 1.0 then 20 each of 2.0 and 3.0: no cut may land
        // inside the run of 1.0s, so the first shard holds all 60.
        let mut keys: Vec<Option<f64>> = vec![Some(1.0); 60];
        keys.extend(vec![Some(2.0); 20]);
        keys.extend(vec![Some(3.0); 20]);
        let (t, attr) = table_with_keys(&keys);
        let shards = ShardSpec::by_key(attr)
            .quantile()
            .shards(4)
            .plan(&t, &t.all_rows())
            .unwrap();
        assert_disjoint_cover(&shards, &t.all_rows());
        assert_eq!(shards[0].rows.len(), 60);
        for s in &shards {
            // Every shard's rows share no key with any other shard: cuts
            // were snapped strictly between distinct values.
            let mut vals: Vec<f64> = s.rows.iter().filter_map(|r| t.value_f64(r, attr)).collect();
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            assert!(!vals.is_empty());
        }
    }

    #[test]
    fn quantile_handles_nulls_and_constants() {
        let (t, attr) = table_with_keys(&[Some(5.0), None, Some(5.0), None, Some(5.0)]);
        let shards = ShardSpec::by_key(attr)
            .quantile()
            .shards(3)
            .plan(&t, &t.all_rows())
            .unwrap();
        assert_disjoint_cover(&shards, &t.all_rows());
        // Constant key collapses to one interval shard + the null shard.
        assert_eq!(shards.len(), 2);
        assert!(shards[1].bounds.unwrap().null_keys);
        assert_eq!(shards[1].rows.as_slice(), &[1, 3]);
    }

    #[test]
    fn quantile_all_null_column_is_one_null_shard() {
        let (t, attr) = table_with_keys(&[None, None, None]);
        let shards = ShardSpec::by_key(attr)
            .quantile()
            .shards(4)
            .plan(&t, &t.all_rows())
            .unwrap();
        assert_eq!(shards.len(), 1);
        assert!(shards[0].bounds.unwrap().null_keys);
        assert_eq!(shards[0].rows.len(), 3);
    }

    #[test]
    fn quantile_rejects_non_finite_keys() {
        let (t, attr) = table_with_keys(&[Some(0.0), Some(f64::NAN), Some(1.0)]);
        assert!(matches!(
            ShardSpec::by_key(attr)
                .quantile()
                .shards(2)
                .plan(&t, &t.all_rows()),
            Err(DataError::NonFiniteCell { row: 1, .. })
        ));
    }

    #[test]
    fn zero_fixed_shards_is_rejected() {
        let (t, attr) = table_with_keys(&[Some(1.0)]);
        for spec in [
            ShardSpec::by_key(attr).quantile().shards(0),
            ShardSpec::by_key(attr).equal_width().shards(0),
            // No `.shards(n)` at all: the count is the caller's decision.
            ShardSpec::by_key(attr),
            ShardSpec::by_key(attr).equal_width(),
        ] {
            assert!(matches!(
                spec.plan(&t, &t.all_rows()),
                Err(DataError::InvalidShardPlan(_))
            ));
        }
    }

    #[test]
    fn single_spec_is_one_unguarded_shard() {
        let (t, _) = table_with_keys(&[Some(1.0), Some(2.0)]);
        let shards = ShardSpec::single().plan(&t, &t.all_rows()).unwrap();
        assert_eq!(shards.len(), 1);
        assert!(shards[0].bounds.is_none());
        assert_eq!(ShardSpec::single().boundary(), None);
    }

    #[test]
    fn balance_permille_reads_interval_shards_only() {
        let keys: Vec<Option<f64>> = (0..40)
            .map(|i| if i < 4 { None } else { Some(i as f64) })
            .collect();
        let (t, attr) = table_with_keys(&keys);
        let shards = ShardSpec::by_key(attr)
            .quantile()
            .shards(4)
            .plan(&t, &t.all_rows())
            .unwrap();
        // 36 finite keys over 4 shards: 9 each → perfectly balanced even
        // though the null shard holds only 4 rows.
        assert_eq!(balance_permille(&shards), 1000);
        assert_eq!(balance_permille(&shards[..1]), 1000);
    }

    #[test]
    fn builder_modifiers_are_inert_on_the_single_spec() {
        let (t, _) = table_with_keys(&[Some(1.0), Some(9.0)]);
        let spec = ShardSpec::single().equal_width().shards(4);
        assert_eq!(spec, ShardSpec::single());
        let shards = spec.plan(&t, &t.all_rows()).unwrap();
        assert_eq!(shards.len(), 1);
        assert!(shards[0].bounds.is_none());
    }

    #[test]
    fn boundary_labels_round_trip() {
        for b in [Boundary::EqualWidth, Boundary::Quantile] {
            assert_eq!(Boundary::from_label(b.label()), Some(b));
        }
        assert_eq!(Boundary::from_label("nope"), None);
    }
}
