//! The benchmark's measurement arithmetic, kept free of I/O so it can be
//! tested on synthetic input: percentile selection, watermark-to-latency
//! conversion, generator-lateness accounting and the cost-ledger remainder.

use std::time::Duration;

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`): the smallest value
/// such that at least `q` of the samples are at or below it. `None` when
/// there are no samples.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by the same nearest-rank rule (the lower middle for even counts,
/// so the reported value is always one that was measured).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Tail statistic that stays steady across runs: split `samples` (pairs of
/// due time and value) into consecutive windows of `width` by due time,
/// take percentile `q` inside each window holding at least `min_samples`,
/// and return the median of those per-window percentiles. A stall that
/// hits one window moves one window's value, not the whole run's tail; a
/// slowdown that persists moves every window. Falls back to the plain
/// percentile when no window is full enough.
pub fn windowed_percentile(
    samples: &[(Duration, f64)],
    width: Duration,
    q: f64,
    min_samples: usize,
) -> Option<f64> {
    let mut windows: std::collections::BTreeMap<u128, Vec<f64>> = Default::default();
    for &(at, v) in samples {
        windows
            .entry(at.as_nanos() / width.as_nanos().max(1))
            .or_default()
            .push(v);
    }
    let per_window: Vec<f64> = windows
        .values()
        .filter(|w| w.len() >= min_samples)
        .filter_map(|w| percentile(w, q))
        .collect();
    if per_window.is_empty() {
        let all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        return percentile(&all, q);
    }
    median(&per_window)
}

/// One poll of the sinks' record counts: `at` is the time since the run's
/// origin, `counts[s]` the `Dataset::len()` of sink `s` at that moment.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    pub at: Duration,
    pub counts: Vec<usize>,
}

/// Convert record-count watermarks into per-record visibility latencies.
///
/// Record `k` (0-based, in send order) counts as visible at the first
/// observation where *every* sink's count, minus that sink's `base`
/// (records present before the run), has reached `k + 1` — for a cascade
/// that is the slower sink. Its latency is that observation's time minus
/// `scheduled[k]`. Records never seen visible are returned as `None`.
/// Observations must be in time order; counts never shrink in a run.
pub fn visibility_latencies(
    scheduled: &[Duration],
    observations: &[Observation],
    base: &[usize],
) -> Vec<Option<Duration>> {
    let mut out = Vec::with_capacity(scheduled.len());
    let mut obs = observations.iter().peekable();
    let visible_through = |o: &Observation| -> usize {
        o.counts
            .iter()
            .zip(base)
            .map(|(&c, &b)| c.saturating_sub(b))
            .min()
            .unwrap_or(0)
    };
    for (k, &sched) in scheduled.iter().enumerate() {
        // advance to the first observation covering ordinal k + 1
        while let Some(o) = obs.peek() {
            if visible_through(o) > k {
                break;
            }
            obs.next();
        }
        out.push(obs.peek().map(|o| o.at.saturating_sub(sched)));
    }
    out
}

/// How late an open-loop generator ran: for every send, the time its call
/// started minus the time it was due (never negative).
#[derive(Debug, Default, Clone)]
pub struct Lateness {
    late_ms: Vec<f64>,
}

impl Lateness {
    /// Record one send that was due at `due` and started at `started`
    /// (both measured from the same origin).
    pub fn record(&mut self, due: Duration, started: Duration) {
        self.late_ms
            .push(started.saturating_sub(due).as_secs_f64() * 1e3);
    }

    /// Lateness at quantile `q`, milliseconds.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        percentile(&self.late_ms, q)
    }
}

/// One term of the cost ledger: an isolated per-operation cost and how many
/// such operations the run performed per ingested record.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerTerm {
    pub layer: &'static str,
    pub ns_per_op: f64,
    pub ops_per_record: f64,
}

/// CPU nanoseconds per record that no ledger term explains: the measured
/// process cost minus the sum of each layer's isolated self cost weighted
/// by how often the run invoked it. Negative when the isolated replays
/// over-explain the run (e.g. warmer caches in the replay).
pub fn unattributed_ns_per_rec(cpu_ns_per_rec: f64, terms: &[LedgerTerm]) -> f64 {
    cpu_ns_per_rec
        - terms
            .iter()
            .map(|t| t.ns_per_op * t.ops_per_record)
            .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // unsorted input and a single sample
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // even count: the lower middle, a value that was measured
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_tails() {
        // three 1 s windows of 100 samples; the middle one holds a stall
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..100u64 {
                let v = if w == 1 && i >= 90 { 1000.0 } else { i as f64 };
                samples.push((ms(w * 1000 + i), v));
            }
        }
        let whole = percentile(&samples.iter().map(|s| s.1).collect::<Vec<_>>(), 0.99);
        assert_eq!(whole, Some(1000.0));
        // per-window p99: 98, 1000, 98 -> median 98
        let w = windowed_percentile(&samples, Duration::from_secs(1), 0.99, 50);
        assert_eq!(w, Some(98.0));
        // windows too sparse: plain percentile
        let w = windowed_percentile(&samples, Duration::from_secs(1), 0.99, 500);
        assert_eq!(w, Some(1000.0));
        assert_eq!(
            windowed_percentile(&[], Duration::from_secs(1), 0.5, 1),
            None
        );
    }

    #[test]
    fn watermark_converts_to_latency_from_the_schedule() {
        let scheduled = [ms(0), ms(10), ms(20), ms(30)];
        let obs = vec![
            Observation {
                at: ms(5),
                counts: vec![100],
            },
            Observation {
                at: ms(15),
                counts: vec![102],
            },
            Observation {
                at: ms(40),
                counts: vec![104],
            },
        ];
        let lat = visibility_latencies(&scheduled, &obs, &[100]);
        // nothing new at 5 ms; two records by 15 ms; the rest by 40 ms
        assert_eq!(
            lat,
            vec![Some(ms(15)), Some(ms(5)), Some(ms(20)), Some(ms(10))]
        );
    }

    #[test]
    fn watermark_takes_the_slower_sink_and_reports_missing() {
        let scheduled = [ms(0), ms(0), ms(0)];
        let obs = vec![
            Observation {
                at: ms(10),
                counts: vec![3, 1],
            },
            Observation {
                at: ms(30),
                counts: vec![3, 2],
            },
        ];
        let lat = visibility_latencies(&scheduled, &obs, &[0, 0]);
        assert_eq!(lat, vec![Some(ms(10)), Some(ms(30)), None]);
    }

    #[test]
    fn lateness_counts_only_late_starts() {
        let mut l = Lateness::default();
        l.record(ms(10), ms(9)); // early: clamps to zero
        l.record(ms(20), ms(20));
        l.record(ms(30), ms(33));
        l.record(ms(40), ms(48));
        assert_eq!(l.quantile_ms(0.5), Some(0.0));
        assert_eq!(l.quantile_ms(0.75), Some(3.0));
        assert_eq!(l.quantile_ms(0.99), Some(8.0));
    }

    #[test]
    fn ledger_remainder_subtracts_weighted_terms() {
        let terms = [
            LedgerTerm {
                layer: "parse",
                ns_per_op: 2000.0,
                ops_per_record: 1.0,
            },
            LedgerTerm {
                layer: "store",
                ns_per_op: 900.0,
                ops_per_record: 2.0,
            },
            LedgerTerm {
                layer: "get",
                ns_per_op: 400.0,
                ops_per_record: 0.5,
            },
        ];
        assert_eq!(
            unattributed_ns_per_rec(10_000.0, &terms),
            10_000.0 - 2000.0 - 1800.0 - 200.0
        );
        assert_eq!(unattributed_ns_per_rec(1000.0, &[]), 1000.0);
        assert!(unattributed_ns_per_rec(1000.0, &terms) < 0.0);
    }
}
