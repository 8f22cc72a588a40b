//! The host-speed gauge: a fixed reference computation, timed between
//! measured operations, that the timed end-to-end metrics are scaled by.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! with its other tenants' load: the same discovery takes up to 1.7 times
//! as long in a slow spell, which lasts from a tenth of a second to
//! minutes. Wall time alone then measures the neighbours as much as the
//! program. The gauge is the benchmark's own code, untouched by any
//! change to the program, so its time measures only the host. An
//! operation's *scaled* time is its wall time divided by the mean of the
//! gauge readings just before and just after it, times [`REF_MS`]: the
//! time the operation takes on a host that runs the gauge in
//! [`REF_MS`] milliseconds. A change that speeds up the program lowers
//! the scaled time by the same factor as the wall time; a slow spell of
//! the host lowers both the gauge and the operation and cancels out.
//!
//! The reference mixes branchy sorting with floating-point multiply-add
//! over an L2-sized array: of the kernels tried (dependent integer
//! arithmetic, random memory reads, streaming sums, sorting,
//! multiply-add) these two followed the discovery time most closely
//! across slow and fast spells.

use std::hint::black_box;
use std::time::Instant;

/// Reference time of one gauge reading, ms: about what the gauge takes
/// on the development host (2-vCPU x86-64 VM) in a fast spell. It fixes
/// the scale of the scaled metrics; any constant would do, as long as it
/// never changes.
pub const REF_MS: f64 = 8.0;

/// Keys the reference sorts.
const SORT_KEYS: usize = 200_000;
/// `f64` values in the multiply-add array (256 KiB).
const FMA_LEN: usize = 32_768;
/// Passes over the multiply-add array.
const FMA_PASSES: usize = 300;

/// The gauge: its buffers and every reading taken.
pub struct Gauge {
    keys: Vec<u32>,
    fma: Vec<f64>,
    /// Every reading, ms, in order.
    pub readings: Vec<f64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            keys: Vec::with_capacity(SORT_KEYS),
            fma: (0..FMA_LEN).map(|i| (i as f64 * 0.37).sin()).collect(),
            readings: Vec::new(),
        }
    }
}

impl Gauge {
    /// Runs the reference once and returns (and keeps) its time, ms.
    pub fn read(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9u32;
        self.keys.clear();
        for _ in 0..SORT_KEYS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            self.keys.push(x);
        }
        self.keys.sort_unstable();
        black_box(&self.keys);
        let mut acc = [0.0f64; 8];
        for _ in 0..FMA_PASSES {
            for c in black_box(&self.fma).chunks_exact(8) {
                for k in 0..8 {
                    acc[k] += c[k] * c[(k + 3) & 7];
                }
            }
        }
        black_box(acc);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.readings.push(ms);
        ms
    }
}

/// Scales `ms` by the gauge readings taken just before and just after it.
pub fn scaled(ms: f64, before: f64, after: f64) -> f64 {
    ms / ((before + after) / 2.0) * REF_MS
}

/// Runs `op` between two gauge readings and returns its result, its wall
/// time and its scaled time, both ms. Consecutive operations share the
/// reading between them.
pub struct Bracket {
    last: f64,
}

impl Bracket {
    /// Takes the first reading.
    pub fn open(gauge: &mut Gauge) -> Self {
        Bracket { last: gauge.read() }
    }

    /// Times `op`, then takes the reading after it.
    pub fn time<T>(&mut self, gauge: &mut Gauge, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let t = Instant::now();
        let out = op();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let after = gauge.read();
        let s = scaled(ms, self.last, after);
        self.last = after;
        (out, ms, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        assert!((scaled(40.0, 10.0, 10.0) - 4.0 * REF_MS).abs() < 1e-12);
        assert!((scaled(80.0, 20.0, 20.0) - 4.0 * REF_MS).abs() < 1e-12);
        assert!((scaled(30.0, 10.0, 20.0) - 2.0 * REF_MS).abs() < 1e-12);
    }

    #[test]
    fn a_reading_is_positive_and_kept() {
        let mut g = Gauge::default();
        let a = g.read();
        let b = g.read();
        assert!(a > 0.0 && b > 0.0);
        assert_eq!(g.readings, vec![a, b]);
    }
}
