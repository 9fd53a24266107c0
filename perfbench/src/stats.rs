//! The benchmark's metric math: medians, tail percentiles, the Fig. 9
//! ratio error, the decision-log window coverage and span self time.

use bsc_bench::experiments::{BenchmarkEfficiency, FIG9_PAPER};
use bsc_mac::MacKind;

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `values`, the
/// convention of `numpy.percentile`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Percentiles the benchmark reports, highest first, in tenths of a
/// percent (integers, so the count beyond each is exact).
pub const PERCENTILE_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported percentile for it to mean
/// anything.
pub const MIN_SAMPLES_BEYOND: u64 = 10;

/// The highest percentile of [`PERCENTILE_LADDER`] that keeps at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it, in percent; `None`
/// below 20 samples, where not even the median does.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .into_iter()
        .find(|tenths| n as u64 * (1000 - tenths) >= MIN_SAMPLES_BEYOND * 1000)
        .map(|tenths| tenths as f64 / 10.0)
}

/// Mean absolute relative error, in percent, of the simulated Fig. 9
/// BSC/LPC and BSC/HPS efficiency ratios against the paper's
/// ([`FIG9_PAPER`]): eight ratios, four networks by two baselines.
/// Absolute TOPS/W is deliberately not compared (the cell library is
/// literature-typical, not signed off).  `None` when a network or
/// design is missing from `rows`.
pub fn fig9_ratio_error_pct(rows: &[BenchmarkEfficiency]) -> Option<f64> {
    let eff = |net: &str, kind: MacKind| {
        rows.iter()
            .find(|r| r.network == net && r.kind == kind)
            .map(|r| r.tops_per_w)
    };
    let mut sum = 0.0;
    for &(net, _, paper_vs_lpc, paper_vs_hps) in &FIG9_PAPER {
        let bsc = eff(net, MacKind::Bsc)?;
        sum += (bsc / eff(net, MacKind::Lpc)? / paper_vs_lpc - 1.0).abs();
        sum += (bsc / eff(net, MacKind::Hps)? / paper_vs_hps - 1.0).abs();
    }
    Some(100.0 * sum / (2 * FIG9_PAPER.len()) as f64)
}

/// Windows the makespan is split into for [`window_coverage`].
pub const COVERAGE_WINDOWS: u64 = 100;

/// Share of the [`COVERAGE_WINDOWS`] equal windows of `[0, makespan]`
/// that hold at least one of `cycles`.  A cycle at or past the makespan
/// falls into the last window; an empty run covers nothing.
pub fn window_coverage(cycles: impl IntoIterator<Item = u64>, makespan: u64) -> f64 {
    if makespan == 0 {
        return 0.0;
    }
    let mut hit = [false; COVERAGE_WINDOWS as usize];
    for c in cycles {
        let w = (u128::from(c) * u128::from(COVERAGE_WINDOWS) / u128::from(makespan))
            .min(u128::from(COVERAGE_WINDOWS - 1));
        hit[w as usize] = true;
    }
    hit.iter().filter(|h| **h).count() as f64 / COVERAGE_WINDOWS as f64
}

/// Self time of a span: its duration minus its children's, floored at 0
/// (clock granularity can make children sum past the parent).
pub fn self_ns(total_ns: u64, children_ns: impl IntoIterator<Item = u64>) -> u64 {
    total_ns.saturating_sub(children_ns.into_iter().sum())
}

/// 64-bit FNV-1a digest of a byte stream: cheap identity checks of
/// multi-megabyte export documents without keeping them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.9), Some(99.9));
        assert_eq!(percentile(&v, 0.0), Some(0.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(39), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        for n in [20, 57, 100, 333, 5_000, 123_456] {
            let p = supported_percentile(n).unwrap();
            assert!(n as f64 * (1.0 - p / 100.0) >= 9.999, "n {n} p {p}");
        }
    }

    fn row(network: &str, kind: MacKind, tops_per_w: f64) -> BenchmarkEfficiency {
        BenchmarkEfficiency {
            network: network.into(),
            kind,
            tops_per_w,
            mapped_tops_per_w: 0.0,
            latency_ms: 0.0,
            utilization: 0.0,
        }
    }

    #[test]
    fn fig9_error_is_zero_on_the_papers_ratios_and_linear_in_ratio_drift() {
        let mut exact = Vec::new();
        let mut drifted = Vec::new();
        for &(net, bsc, vs_lpc, vs_hps) in &FIG9_PAPER {
            exact.push(row(net, MacKind::Bsc, bsc));
            exact.push(row(net, MacKind::Lpc, bsc / vs_lpc));
            exact.push(row(net, MacKind::Hps, bsc / vs_hps));
            // Absolute efficiency halved: ratios, hence the error, unchanged.
            drifted.push(row(net, MacKind::Bsc, bsc / 2.0));
            // BSC/LPC 10% high; BSC/HPS 30% low.
            drifted.push(row(net, MacKind::Lpc, bsc / 2.0 / (vs_lpc * 1.1)));
            drifted.push(row(net, MacKind::Hps, bsc / 2.0 / (vs_hps * 0.7)));
        }
        assert!(fig9_ratio_error_pct(&exact).unwrap() < 1e-9);
        let e = fig9_ratio_error_pct(&drifted).unwrap();
        assert!(
            (e - 20.0).abs() < 1e-9,
            "mean of 10% and 30% is 20%, got {e}"
        );
        assert_eq!(fig9_ratio_error_pct(&exact[1..]), None, "missing BSC row");
    }

    #[test]
    fn coverage_counts_distinct_equal_windows() {
        assert_eq!(window_coverage([], 1_000), 0.0);
        assert_eq!(window_coverage([5], 0), 0.0);
        // Every decision in the first 1% of the run: one window.
        assert_eq!(window_coverage(0..10_000, 1_000_000), 0.01);
        // Window edges: cycle 10 of 1000 starts the second window.
        assert_eq!(window_coverage([0, 9], 1_000), 0.01);
        assert_eq!(window_coverage([0, 10], 1_000), 0.02);
        // The makespan itself (and anything past it) is the last window.
        assert_eq!(window_coverage([999, 1_000, 5_000], 1_000), 0.01);
        // One decision per window covers the run; no overflow near u64::MAX.
        assert_eq!(window_coverage((0..100).map(|w| w * 10), 1_000), 1.0);
        assert_eq!(window_coverage([u64::MAX - 1], u64::MAX), 0.01);
    }

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        assert_eq!(self_ns(100, [30, 20]), 50);
        assert_eq!(self_ns(100, []), 100);
        assert_eq!(self_ns(100, [60, 50]), 0);
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.update(b"a");
        assert_eq!(d.0, 0xaf63_dc4c_8601_ec8c);
        let mut split = Digest::default();
        split.update(b"ab");
        let mut whole = Digest::default();
        whole.update(b"a");
        whole.update(b"b");
        assert_eq!(split, whole);
    }
}
