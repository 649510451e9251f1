//! The benchmark's own arithmetic: percentiles, accuracy and calibration
//! scores against ground truth, failure accounting, and the matching of
//! chunk-completing pushes to first visibility. Kept free of timing and
//! threads so every rule can be tested on synthetic inputs.

/// Two-sided z of the central 90% interval of a Gaussian.
pub const Z90: f64 = 1.644_853_626_951_472_2;

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: f64 = 10.0;

/// Whether `n` samples support percentile `p` (0–100): at least
/// [`MIN_BEYOND`] samples must lie above it.
pub fn supports(n: usize, p: f64) -> bool {
    // Rounded so that e.g. 1000 samples support p99 exactly.
    (n as f64 * (100.0 - p) / 100.0 * 1e9).round() / 1e9 >= MIN_BEYOND
}

/// Nearest-rank percentile `p` (0–100) of `values` (sorted in place).
/// `None` when `values` is empty.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of `values` (sorted in place); `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// A latency histogram with 1 ns buckets up to [`NsHistogram::LIMIT`]
/// and an overflow list above it, so percentiles over tens of millions
/// of samples are exact without storing every sample.
pub struct NsHistogram {
    buckets: Vec<u64>,
    overflow: Vec<u64>,
    count: u64,
}

impl Default for NsHistogram {
    fn default() -> Self {
        NsHistogram {
            buckets: vec![0; Self::LIMIT as usize],
            overflow: Vec::new(),
            count: 0,
        }
    }
}

impl NsHistogram {
    /// Values below this are bucketed exactly.
    pub const LIMIT: u64 = 1 << 16;

    /// Records one value.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        match self.buckets.get_mut(ns as usize) {
            Some(b) => *b += 1,
            None => self.overflow.push(ns),
        }
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile `p` (0–100); `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (ns, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(ns as f64);
            }
        }
        self.overflow.sort_unstable();
        let idx = (rank - seen - 1) as usize;
        self.overflow.get(idx).map(|&v| v as f64)
    }
}

/// Per-event accumulator of the weighted relative error: Σ_w |mean −
/// truth| and Σ_w truth. Weighting by the truth sum keeps windows whose
/// true count is near zero from dominating, as a per-point |err|/truth
/// average would.
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrSum {
    abs_err: f64,
    truth: f64,
}

impl ErrSum {
    /// Adds one window.
    pub fn add(&mut self, mean: f64, truth: f64) {
        self.abs_err += (mean - truth).abs();
        self.truth += truth;
    }
}

/// `rel_err_pct`: per event 100·Σ|mean − truth| ÷ Σ truth, averaged over
/// events. `None` if there are no events or an event's truth sums to a
/// non-positive value (the ratio is undefined).
pub fn weighted_rel_err_pct(per_event: &[ErrSum]) -> Option<f64> {
    if per_event.is_empty() || per_event.iter().any(|e| e.truth <= 0.0) {
        return None;
    }
    let sum: f64 = per_event.iter().map(|e| 100.0 * e.abs_err / e.truth).sum();
    Some(sum / per_event.len() as f64)
}

/// Blocks a run's scored windows are split into for [`block_rel_err_pct`].
pub const ERR_BLOCKS: usize = 10;

/// A diagnostic beside `rel_err_pct`: each event's scored windows (in
/// time order, `(mean, truth)`) are split into `blocks` contiguous,
/// near-equal blocks; the event's error is the median over blocks of the
/// Σ-weighted error of [`weighted_rel_err_pct`], and the result is the
/// mean over events. A transient divergence confined to fewer than half
/// the blocks does not show here, so a gap between this and the
/// whole-run figure measures such episodes. `None` when an event has
/// fewer windows than blocks or a block's truth sums to zero.
pub fn block_rel_err_pct(per_event: &[Vec<(f64, f64)>], blocks: usize) -> Option<f64> {
    if per_event.is_empty() || blocks == 0 {
        return None;
    }
    let mut total = 0.0;
    for series in per_event {
        if series.len() < blocks {
            return None;
        }
        let mut errs = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let part = &series[b * series.len() / blocks..(b + 1) * series.len() / blocks];
            let mut sum = ErrSum::default();
            for &(mean, truth) in part {
                sum.add(mean, truth);
            }
            errs.push(weighted_rel_err_pct(&[sum])?);
        }
        total += median(&mut errs)?;
    }
    Some(total / per_event.len() as f64)
}

/// Counts (window, event) points whose truth lies inside the posterior's
/// central 90% interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    inside: u64,
    total: u64,
}

impl Coverage {
    /// Adds one point with posterior `mean`, variance `var`.
    pub fn add(&mut self, mean: f64, var: f64, truth: f64) {
        self.total += 1;
        if (truth - mean).abs() <= Z90 * var.sqrt() {
            self.inside += 1;
        }
    }

    /// `coverage90_gap`: |covered share − 0.90|; `None` with no points.
    pub fn gap(&self) -> Option<f64> {
        (self.total > 0).then(|| (self.inside as f64 / self.total as f64 - 0.90).abs())
    }
}

/// Operations attempted and failed, by kind, for `failed_frac`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Records one operation.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds failures found after the fact (e.g. samples a counter says
    /// were dropped inside the program), which were already attempted.
    pub fn fail_attempted(&mut self, n: u64) {
        self.failed += n;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Segments a run's timed phase is split into for [`segment_rate`].
pub const RATE_SEGMENTS: usize = 10;

/// Windows per second at which the reader saw windows become visible,
/// as the median over `segments` equal segments of `[start, stop)`.
/// `steps` are `(time ns, highest visible window)` in time order and
/// must begin at or before `start`; between steps the visible count is
/// interpolated linearly (windows become visible a chunk at a time). A
/// burst of contention confined to a few segments then cannot decide the
/// run by itself. `None` for an empty interval or too few steps.
pub fn segment_rate(steps: &[(u64, u32)], start: u64, stop: u64, segments: usize) -> Option<f64> {
    if stop <= start || segments == 0 || steps.first()?.0 > start {
        return None;
    }
    let at = |t: u64| -> f64 {
        let i = steps.partition_point(|&(ts, _)| ts <= t);
        let (t0, w0) = steps[i - 1];
        match steps.get(i) {
            Some(&(t1, w1)) => {
                f64::from(w0) + f64::from(w1 - w0) * (t - t0) as f64 / (t1 - t0) as f64
            }
            None => f64::from(w0),
        }
    };
    let span = (stop - start) as f64 / segments as f64;
    let mut rates: Vec<f64> = (0..segments)
        .map(|i| {
            let a = start + (span * i as f64) as u64;
            let b = start + (span * (i + 1) as f64) as u64;
            (at(b) - at(a)) / ((b - a) as f64 / 1e9)
        })
        .collect();
    median(&mut rates)
}

/// Per-chunk freshness: chunk `c` covers windows `k·c .. k·c + k − 1`;
/// it is completed by the push of window `k·c + k` (its first sample
/// closes window `k·c + k − 1`), and becomes visible at the first
/// observation whose stamp window reaches `k·c + k − 1`.
///
/// `due` maps a window to the due time of its push (`None` when that
/// window was not pushed on the timed schedule). `visible` is the
/// reader's observations `(time, stamp window)` in time order. Returns
/// `(chunk, freshness)` for every chunk whose completing push was timed
/// and that became visible; times are in any common unit.
pub fn match_freshness(
    k: u32,
    due: impl Fn(u32) -> Option<f64>,
    visible: &[(f64, u32)],
    chunks: std::ops::Range<u32>,
) -> Vec<(u32, f64)> {
    let mut out = Vec::new();
    let mut obs = visible.iter().peekable();
    for c in chunks {
        let last = k * c + k - 1;
        let Some(d) = due(last + 1) else { continue };
        while obs.peek().is_some_and(|&&(_, w)| w < last) {
            obs.next();
        }
        if let Some(&&(t, _)) = obs.peek() {
            out.push((c, t - d));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_support_needs_ten_beyond() {
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        // ~100 chunks support p90 but not p95; p50 needs 20 samples.
        assert!(!supports(105, 95.0));
        assert!(supports(200, 95.0));
        assert!(supports(10_000, 99.9));
        assert!(!supports(19, 50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 90.0), Some(90.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut [], 50.0), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn histogram_matches_sorted_percentiles() {
        let mut h = NsHistogram::default();
        let mut all = Vec::new();
        for i in 0..5000u64 {
            let v = (i * 7919) % 900 + if i % 250 == 0 { 100_000 + i } else { 0 };
            h.record(v);
            all.push(v as f64);
        }
        for p in [1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), percentile(&mut all, p), "p{p}");
        }
        assert_eq!(h.count(), 5000);
        assert_eq!(NsHistogram::default().percentile(50.0), None);
    }

    #[test]
    fn weighted_rel_err_is_not_dominated_by_near_zero_truth() {
        // Event A: truth 1000 for 9 windows estimated 10% high, plus one
        // window with truth 1e-9 estimated as 5: a per-point average
        // would explode; the weighted error stays 9·100+5 over 9000.
        let mut a = ErrSum::default();
        for _ in 0..9 {
            a.add(1100.0, 1000.0);
        }
        a.add(5.0, 1e-9);
        // Event B: exact.
        let mut b = ErrSum::default();
        b.add(42.0, 42.0);
        let err = weighted_rel_err_pct(&[a, b]).unwrap();
        let expect_a = 100.0 * (900.0 + 5.0 - 1e-9) / (9000.0 + 1e-9);
        assert!((err - expect_a / 2.0).abs() < 1e-9, "{err}");
        assert_eq!(weighted_rel_err_pct(&[]), None);
        assert_eq!(weighted_rel_err_pct(&[ErrSum::default()]), None);
    }

    #[test]
    fn block_error_is_not_decided_by_a_short_divergence() {
        // 100 windows at truth 100 estimated 20% high; a divergence in
        // windows 60..90 (three of ten blocks) estimates 100x the truth.
        let diverging: Vec<(f64, f64)> = (0..100)
            .map(|w| {
                (
                    if (60..90).contains(&w) {
                        10_000.0
                    } else {
                        120.0
                    },
                    100.0,
                )
            })
            .collect();
        let steady = vec![(90.0, 100.0); 100];
        let got = block_rel_err_pct(&[diverging.clone(), steady.clone()], 10).unwrap();
        assert!((got - (20.0 + 10.0) / 2.0).abs() < 1e-9, "{got}");
        // The whole-run weighted error is dominated by it.
        let mut whole = ErrSum::default();
        for &(m, t) in &diverging {
            whole.add(m, t);
        }
        assert!(weighted_rel_err_pct(&[whole]).unwrap() > 2900.0);
        // A divergence over most of the run does decide it.
        let long: Vec<(f64, f64)> = (0..100)
            .map(|w| (if w >= 30 { 10_000.0 } else { 120.0 }, 100.0))
            .collect();
        assert!(block_rel_err_pct(&[long], 10).unwrap() > 9000.0);
        // Too few windows, or a block with no true counts: undefined.
        assert_eq!(block_rel_err_pct(&[steady[..5].to_vec()], 10), None);
        assert_eq!(block_rel_err_pct(&[vec![(1.0, 0.0); 20]], 10), None);
    }

    #[test]
    fn segment_rate_is_the_median_of_interpolated_segments() {
        // A chunk of 6 windows every 20 ms (300 windows/s) for 2 s, but
        // stalled for 0.3 s in the middle: the stall hits two of ten
        // segments, the median does not see it.
        let mut steps = vec![(0u64, 5u32)];
        let (mut t, mut w) = (0u64, 5u32);
        while t < 2_000_000_000 {
            t += if (900_000_000..1_200_000_000).contains(&t) {
                300_000_000
            } else {
                20_000_000
            };
            w += 6;
            steps.push((t, w));
        }
        let rate = segment_rate(&steps, 0, 2_000_000_000, 10).unwrap();
        assert!((rate - 300.0).abs() < 1e-6, "{rate}");
        // Steps must cover the start; the interval must be non-empty.
        assert_eq!(segment_rate(&steps[1..], 0, 1_000_000, 10), None);
        assert_eq!(segment_rate(&steps, 5, 5, 10), None);
    }

    #[test]
    fn coverage_gap_counts_central_ninety() {
        let mut c = Coverage::default();
        // sd = 2: interval half-width 3.2897.
        c.add(0.0, 4.0, 3.2); // inside
        c.add(0.0, 4.0, -3.2); // inside
        c.add(0.0, 4.0, 3.3); // outside
        c.add(10.0, 4.0, 10.0); // inside
        assert!((c.gap().unwrap() - 0.15).abs() < 1e-12);
        // A perfectly calibrated share has gap 0.
        let mut d = Coverage::default();
        for i in 0..10 {
            d.add(0.0, 1.0, if i == 0 { 5.0 } else { 0.0 });
        }
        assert!(d.gap().unwrap().abs() < 1e-12);
        assert_eq!(Coverage::default().gap(), None);
    }

    #[test]
    fn failed_frac_accounting() {
        let mut ops = Ops::default();
        for i in 0..10 {
            ops.note(i != 3);
        }
        assert_eq!((ops.attempted, ops.failed), (10, 1));
        ops.fail_attempted(2);
        assert!((ops.failed_frac() - 0.3).abs() < 1e-12);
        assert_eq!(Ops::default().failed_frac(), 0.0);
    }

    #[test]
    fn freshness_matches_completing_push_to_first_visibility() {
        // k = 6; window w is due at 10·w. Chunk 1 (windows 6..11) is
        // completed by window 12, due at 120.
        let due = |w: u32| (w >= 7).then_some(10.0 * f64::from(w));
        let visible = [
            (60.0, 5),   // chunk 0 (setup; its completing push untimed)
            (150.0, 11), // chunk 1 visible at 150 → 30
            (175.0, 11), // repeated stamp: ignored
            (300.0, 23), // chunks 2 and 3 both first visible here
        ];
        let got = match_freshness(6, due, &visible, 0..5);
        assert_eq!(got, vec![(1, 30.0), (2, 120.0), (3, 60.0)]);
        // Chunk 4 (last window 29) never became visible: not reported.
    }
}
