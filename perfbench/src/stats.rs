//! The benchmark's own statistics: medians, the tail-percentile rule,
//! due-time latency for the open-loop generator, ladder-rung verdicts,
//! ratios with their base, and the peak-RSS reader.

use std::time::Instant;

/// Median of `samples` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Percentiles the tail rule may report, highest first, in tenths of a
/// percent so that ranks are exact integers.
const TAIL_LADDER: [usize; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail reading: which percentile the sample supports, its value and
/// the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (one of 99.9, 99, 90, 50).
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, by nearest rank; `None` when even the median lacks them.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    tail_at_most(samples, 100.0)
}

/// The tail value capped at `max_percentile`: the highest percentile not
/// above the cap that the sample supports. Used where a limit is stated
/// on p99 and a short rung cannot support more.
pub fn tail_at_most(samples: &[f64], max_percentile: f64) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    TAIL_LADDER
        .iter()
        .filter(|&&p| p as f64 / 10.0 <= max_percentile)
        .find_map(|&p| {
            let rank = (p * n).div_ceil(1000);
            (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
                percentile: p as f64 / 10.0,
                value: s[rank - 1],
                samples: n,
            })
        })
}

/// A ratio together with the base it was taken over, so a reader can
/// tell 1 of 2 from 500 of 1000. A zero base gives a zero ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// `num / base`, or 0 when the base is 0.
    pub value: f64,
    /// The denominator.
    pub base: f64,
}

/// `num / base` with its base.
pub fn ratio(num: f64, base: f64) -> Ratio {
    Ratio {
        value: if base == 0.0 { 0.0 } else { num / base },
        base,
    }
}

/// One open-loop request: when it was due, when the generator actually
/// sent it and when its answer was complete.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Scheduled send time.
    pub due: Instant,
    /// Actual send time (never before `due`).
    pub sent: Instant,
    /// Response fully read.
    pub done: Instant,
}

impl Timing {
    /// Latency from the due time: a stall that delays later sends counts
    /// against every request it delayed.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Why a ladder rung failed, or that it passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Tail within the limit, nothing failed, backlog steady.
    Pass,
    /// At least one request failed (each failure misses the limit).
    Failures,
    /// The tail latency exceeded the limit, or the rung had too few
    /// samples to support any tail.
    OverLimit,
    /// Lateness kept growing: the generator fell behind the schedule.
    Backlog,
}

/// Judges one rung: `timings` in send order, `failed` requests that did
/// not produce a complete answer, the tail `limit_ms` on p99 (or the
/// highest percentile below it the rung supports).
pub fn judge_rung(timings: &[Timing], failed: usize, limit_ms: f64) -> Verdict {
    if failed > 0 {
        return Verdict::Failures;
    }
    let lat: Vec<f64> = timings.iter().map(Timing::latency_ms).collect();
    match tail_at_most(&lat, 99.0) {
        Some(t) if t.value <= limit_ms => {}
        _ => return Verdict::OverLimit,
    }
    if backlog_grows(timings, limit_ms) {
        return Verdict::Backlog;
    }
    Verdict::Pass
}

/// Whether the median lateness of the last quarter of sends exceeds that
/// of the first quarter by more than half the latency limit — a queue that
/// grows for the whole rung, rather than one stall.
pub fn backlog_grows(timings: &[Timing], limit_ms: f64) -> bool {
    let q = timings.len() / 4;
    if q == 0 {
        return false;
    }
    let late = |part: &[Timing]| -> f64 {
        let v: Vec<f64> = part.iter().map(Timing::late_ms).collect();
        median(&v).unwrap_or(0.0)
    };
    let first = late(&timings[..q]);
    let last = late(&timings[timings.len() - q..]);
    last - first > limit_ms / 2.0
}

/// Peak resident set size in MB (`VmHWM`) from a `/proc/<pid>/status`
/// text.
pub fn peak_rss_mb_from(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    let scale = match parts.next()? {
        "kB" => 1.0 / 1024.0,
        "mB" | "MB" => 1.0,
        "gB" | "GB" => 1024.0,
        _ => return None,
    };
    Some(value * scale)
}

/// This process's peak resident set size in MB.
pub fn peak_rss_mb() -> Option<f64> {
    peak_rss_mb_from(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));

        // 999 samples leave 9.99 beyond p99, so p90 is the highest.
        let t = tail(&s[..999]).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 900.0));

        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&s).unwrap().percentile, 99.9);

        // 20 samples support the median (10 beyond), 19 support nothing.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s).unwrap().percentile, 50.0);
        assert_eq!(tail(&s[..19]), None);
    }

    #[test]
    fn capped_tail_never_reports_above_the_cap() {
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail_at_most(&s, 99.0).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 9_900.0));
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = ratio(3.0, 4.0);
        assert_eq!((r.value, r.base), (0.75, 4.0));
        let r = ratio(0.0, 0.0);
        assert_eq!((r.value, r.base), (0.0, 0.0));
        // Same value, different evidence: the base tells them apart.
        assert_ne!(ratio(1.0, 2.0), ratio(500.0, 1000.0));
    }

    /// One connection, 1 ms schedule, and the server stalls 20 ms on the
    /// third request: every request due during the stall is sent late and
    /// its latency counts the wait from its due time.
    fn stalled_schedule(n: u64) -> Vec<Timing> {
        let t0 = Instant::now();
        let ms = |x: u64| t0 + Duration::from_millis(x);
        let mut out = Vec::new();
        let mut free_at = 0u64;
        for i in 0..n {
            let due = i;
            let sent = due.max(free_at);
            let service = if i == 2 { 20 } else { 0 };
            let done = sent + service;
            free_at = done;
            out.push(Timing {
                due: ms(due),
                sent: ms(sent),
                done: ms(done),
            });
        }
        out
    }

    #[test]
    fn due_time_latency_and_lateness_under_a_stall() {
        let t = stalled_schedule(10);
        // Before the stall: on time, no latency.
        assert_eq!((t[1].late_ms(), t[1].latency_ms()), (0.0, 0.0));
        // The stalled request itself: sent on time, 20 ms latency.
        assert_eq!((t[2].late_ms(), t[2].latency_ms()), (0.0, 20.0));
        // Due at 3 ms, sent at 22 ms: 19 ms late, and latency from due
        // time shows the 19 ms a send-time clock would hide.
        assert_eq!((t[3].late_ms(), t[3].latency_ms()), (19.0, 19.0));
        assert_eq!((t[9].late_ms(), t[9].latency_ms()), (13.0, 13.0));
    }

    fn steady(n: u64, late_step_us: u64) -> Vec<Timing> {
        let t0 = Instant::now();
        (0..n)
            .map(|i| {
                let due = t0 + Duration::from_millis(i);
                let sent = due + Duration::from_micros(i * late_step_us);
                Timing {
                    due,
                    sent,
                    done: sent + Duration::from_micros(500),
                }
            })
            .collect()
    }

    #[test]
    fn rung_passes_only_without_failures_tail_misses_or_backlog() {
        let ok = steady(400, 0);
        assert_eq!(judge_rung(&ok, 0, 10.0), Verdict::Pass);
        assert_eq!(judge_rung(&ok, 1, 10.0), Verdict::Failures);
        // A steadily growing lateness (0.1 ms more per request, 40 ms by
        // the end) is a backlog even though its tail meets a 50 ms limit.
        let growing = steady(400, 100);
        assert!(backlog_grows(&growing, 50.0));
        assert_eq!(judge_rung(&growing, 0, 50.0), Verdict::Backlog);
        // With a tight limit the same rung already misses on its tail.
        assert_eq!(judge_rung(&growing, 0, 10.0), Verdict::OverLimit);
        // A single stall the generator recovers from is not a backlog.
        assert!(!backlog_grows(&stalled_schedule(100), 10.0));
        // Too few samples support no tail: the limit cannot be shown met.
        assert_eq!(judge_rung(&ok[..15], 0, 10.0), Verdict::OverLimit);
    }

    #[test]
    fn peak_rss_parses_vmhwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n";
        assert_eq!(peak_rss_mb_from(status), Some(200.0));
        assert_eq!(peak_rss_mb_from("VmRSS:\t 1 kB\n"), None);
        assert_eq!(peak_rss_mb_from("VmHWM:\t lots kB\n"), None);
        let live = peak_rss_mb().expect("linux exposes VmHWM");
        assert!(live > 0.0);
    }
}
