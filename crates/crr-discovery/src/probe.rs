//! Algorithm 1 lines 7–10: probing the shared model pool `ℱ`.
//!
//! A probe asks whether a pooled model `f`, shifted by Proposition 6's
//! midrange `δ₀ = (max r + min r)/2` of its residuals `r = y − f(x)`, fits
//! the popped partition within `ρ_M`; on a miss, the count of rows that
//! *do* land within `ρ_M` feeds the sharing index `ind(C)` (line 12).
//!
//! # One-pass range probe
//!
//! * **Gather once per pop.** [`GatheredPartition::gather`] copies the
//!   pop's fit rows out of the [`NumericSnapshot`] into dense per-input
//!   and target buffers, reused by every probe of that pop.
//! * **Residuals and range in one pass.** [`range_probe`] computes each
//!   residual with the per-row expression the row path uses
//!   (`acc = 0.0; acc += w_j·x_j` in `j` order; `r = y − (b + acc)`) and
//!   reduces `lo`/`hi` over [`LANES`] independent lanes, branch-free.
//! * **`max_dev` from the endpoints.** `max_dev = max(0, |lo − δ₀|,
//!   |hi − δ₀|)`. Rounding is monotone, so `fl(r − δ₀)` is monotone in `r`
//!   and every row's deviation lies between the endpoints' — the largest
//!   is attained at `lo` or `hi`, exactly.
//! * **Count `within` only when it is read.** [`count_within`] runs only
//!   for a miss under a queue order that reads `ind(C)`. A hit ends the pop
//!   (its `ind(C)` is never read), and [`QueueOrder::Random`] never reads
//!   it at all.
//!
//! # Why the answer is bitwise the row path's
//!
//! * Min and max round nothing, so any reduction order finds the same
//!   `lo` and `hi`. The only freedom is a tie between `+0` and `−0`, which
//!   can flip the sign of a zero `δ₀`. A zero `δ₀` is below the `1e-12`
//!   translation threshold, and `|r − (+0)| == |r − (−0)|` for every `r`,
//!   so neither `max_dev` nor `within` can tell.
//! * NaN residuals (`∞ − ∞` once residuals overflow) fail every `<`/`>`
//!   comparison, so the lanes skip them — as the row path's
//!   `f64::min`/`f64::max` fold does — and a NaN deviation is neither
//!   counted within nor taken as the maximum.
//! * `within` is an integer count, so lane order cannot change it. The
//!   scan keeps the maximum over the probes up to the first hit, which is
//!   what the row path's early-abort variants provably computed too.
//!
//! `tests/probe_kernel.rs` pins `(δ₀, max_dev, within)` against the
//! row-major [`share_fit_rows`] oracle on random partitions.
//!
//! [`QueueOrder::Random`]: crate::QueueOrder::Random

use crr_data::NumericSnapshot;
use crr_models::{Model, Regressor};

/// Independent accumulator lanes of the probe's range and count
/// reductions. Partitions whose length is not a multiple of it finish on a
/// scalar remainder path.
pub const LANES: usize = 8;

/// One partition's fit rows gathered out of a [`NumericSnapshot`] into
/// dense buffers: one per input column plus the target, all in `fit` order.
/// Reusable: [`GatheredPartition::gather`] keeps the buffers' capacity.
#[derive(Debug, Default, Clone)]
pub struct GatheredPartition {
    cols: Vec<Vec<f64>>,
    y: Vec<f64>,
}

impl GatheredPartition {
    /// An empty gather with no buffers allocated yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the contents with the snapshot cells of `fit` rows.
    pub fn gather(&mut self, snap: &NumericSnapshot, fit: &[u32]) {
        self.cols.resize_with(snap.num_inputs(), Vec::new);
        for (j, col) in self.cols.iter_mut().enumerate() {
            let src = snap.input(j);
            col.clear();
            col.extend(fit.iter().map(|&r| src[r as usize]));
        }
        let ty = snap.target();
        self.y.clear();
        self.y.extend(fit.iter().map(|&r| ty[r as usize]));
    }

    /// Number of gathered rows.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether no rows are gathered.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// One probe's answer: Proposition 6's midrange shift and the worst
/// deviation from it. The model fits when `max_dev <= ρ_M`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeProbe {
    /// `δ₀ = (lo + hi) / 2` over the non-NaN residuals.
    pub delta0: f64,
    /// `max |r − δ₀|` over the rows whose deviation is not NaN (`0` when
    /// none is).
    pub max_dev: f64,
}

/// Probes one pooled model over a gathered partition: writes every
/// residual `y − f(x)` into `resid` (left there for [`count_within`]) and
/// settles `(δ₀, max_dev)` from their range.
pub fn range_probe(f: &Model, rows: &GatheredPartition, resid: &mut Vec<f64>) -> RangeProbe {
    debug_assert!(!rows.is_empty());
    resid.clear();
    let (lo, hi) = match f.as_affine() {
        Some((w, b)) => {
            debug_assert_eq!(w.len(), rows.cols.len());
            // Column passes leave acc_i = ((0.0 + w₀x₀) + w₁x₁) + … in
            // resid, the same sequence per row as `crr_linalg::dot`.
            match w.split_first() {
                Some((&w0, _)) => resid.extend(rows.cols[0].iter().map(|x| 0.0 + w0 * x)),
                None => resid.resize(rows.len(), 0.0),
            }
            for (&wj, col) in w.iter().zip(&rows.cols).skip(1) {
                for (acc, x) in resid.iter_mut().zip(col) {
                    *acc += wj * x;
                }
            }
            settle_affine(resid, &rows.y, b)
        }
        None => {
            let mut x = vec![0.0; rows.cols.len()];
            for (i, &t) in rows.y.iter().enumerate() {
                for (xj, col) in x.iter_mut().zip(&rows.cols) {
                    *xj = col[i];
                }
                resid.push(t - f.predict(&x));
            }
            lane_range(resid)
        }
    };
    let delta0 = (lo + hi) / 2.0;
    RangeProbe {
        delta0,
        max_dev: 0.0f64.max((lo - delta0).abs()).max((hi - delta0).abs()),
    }
}

/// Turns the accumulated `acc` values in `resid` into residuals
/// `y − (b + acc)` in place and returns their `(lo, hi)` range.
fn settle_affine(resid: &mut [f64], y: &[f64], b: f64) -> (f64, f64) {
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut rc = resid.chunks_exact_mut(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (r, t) in (&mut rc).zip(&mut yc) {
        for k in 0..LANES {
            let v = t[k] - (b + r[k]);
            r[k] = v;
            lo[k] = if v < lo[k] { v } else { lo[k] };
            hi[k] = if v > hi[k] { v } else { hi[k] };
        }
    }
    for (r, &t) in rc.into_remainder().iter_mut().zip(yc.remainder()) {
        let v = t - (b + *r);
        *r = v;
        lo[0] = if v < lo[0] { v } else { lo[0] };
        hi[0] = if v > hi[0] { v } else { hi[0] };
    }
    fold_lanes(lo, hi)
}

/// `(lo, hi)` of the non-NaN values of `resid`.
fn lane_range(resid: &[f64]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut rc = resid.chunks_exact(LANES);
    for r in &mut rc {
        for k in 0..LANES {
            lo[k] = if r[k] < lo[k] { r[k] } else { lo[k] };
            hi[k] = if r[k] > hi[k] { r[k] } else { hi[k] };
        }
    }
    for &v in rc.remainder() {
        lo[0] = if v < lo[0] { v } else { lo[0] };
        hi[0] = if v > hi[0] { v } else { hi[0] };
    }
    fold_lanes(lo, hi)
}

fn fold_lanes(lo: [f64; LANES], hi: [f64; LANES]) -> (f64, f64) {
    let lo = lo
        .iter()
        .fold(f64::INFINITY, |m, &v| if v < m { v } else { m });
    let hi = hi
        .iter()
        .fold(f64::NEG_INFINITY, |m, &v| if v > m { v } else { m });
    (lo, hi)
}

/// Rows whose residual lies within `rho_max` of `delta0` — the `ind(C)`
/// numerator of the probe that left `resid` behind.
pub fn count_within(resid: &[f64], delta0: f64, rho_max: f64) -> usize {
    let mut lanes = [0usize; LANES];
    let mut rc = resid.chunks_exact(LANES);
    for r in &mut rc {
        for k in 0..LANES {
            lanes[k] += usize::from((r[k] - delta0).abs() <= rho_max);
        }
    }
    let tail = rc
        .remainder()
        .iter()
        .filter(|&&v| (v - delta0).abs() <= rho_max)
        .count();
    lanes.iter().sum::<usize>() + tail
}

/// What one pop's scan of a pool found.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolScan {
    /// The first model (by position) within `ρ_M`, with its probe.
    pub hit: Option<(usize, RangeProbe)>,
    /// The largest `within` count over the missed probes — `ind(C)`'s
    /// numerator. Zero when the scan was told the count is not read.
    pub best_within: usize,
    /// Probes run, up to and including the hit.
    pub probes: usize,
    /// Probes settled from the residual range alone: the hit, and every
    /// miss whose `within` count was not needed.
    pub settled_from_range: usize,
}

/// Probes `models` in order over one gathered partition, first fit wins.
/// `reads_ind` says whether the caller reads `ind(C)`; only then does a
/// miss pay for its `within` count.
pub fn scan_pool<'a>(
    models: impl IntoIterator<Item = &'a Model>,
    rows: &GatheredPartition,
    resid: &mut Vec<f64>,
    rho_max: f64,
    reads_ind: bool,
) -> PoolScan {
    let mut scan = PoolScan::default();
    for (i, f) in models.into_iter().enumerate() {
        let p = range_probe(f, rows, resid);
        scan.probes += 1;
        if p.max_dev <= rho_max {
            scan.hit = Some((i, p));
            scan.settled_from_range += 1;
            break;
        }
        if reads_ind {
            scan.best_within = scan.best_within.max(count_within(resid, p.delta0, rho_max));
        } else {
            scan.settled_from_range += 1;
        }
    }
    scan
}

/// Row-major variant of the shared-fit test: returns
/// `(δ₀, max |r − δ₀|, fraction of rows within ρ_M of f + δ₀)`.
///
/// This is the pre-snapshot formulation, kept public as the oracle the
/// probe kernel is pinned against and the benchmark baseline
/// [`share_fit_snapshot`] is measured against.
pub fn share_fit_rows(f: &Model, xs: &[Vec<f64>], y: &[f64], rho_max: f64) -> (f64, f64, f64) {
    debug_assert!(!xs.is_empty());
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut residuals = Vec::with_capacity(xs.len());
    for (x, &t) in xs.iter().zip(y) {
        let r = t - f.predict(x);
        lo = lo.min(r);
        hi = hi.max(r);
        residuals.push(r);
    }
    let delta0 = (lo + hi) / 2.0;
    let mut max_dev = 0.0f64;
    let mut within = 0usize;
    for r in &residuals {
        let dev = (r - delta0).abs();
        max_dev = max_dev.max(dev);
        if dev <= rho_max {
            within += 1;
        }
    }
    (delta0, max_dev, within as f64 / residuals.len() as f64)
}

/// Columnar variant of [`share_fit_rows`] over a snapshot — one gather,
/// one [`range_probe`] and one [`count_within`], the kernel the search
/// loop runs. Returns the same `(δ₀, max dev, fraction)` triple.
pub fn share_fit_snapshot(
    f: &Model,
    snap: &NumericSnapshot,
    fit: &[u32],
    rho_max: f64,
) -> (f64, f64, f64) {
    let mut rows = GatheredPartition::new();
    rows.gather(snap, fit);
    let mut resid = Vec::new();
    let p = range_probe(f, &rows, &mut resid);
    let within = count_within(&resid, p.delta0, rho_max);
    (p.delta0, p.max_dev, within as f64 / fit.len() as f64)
}
