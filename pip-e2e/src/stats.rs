//! Percentile, window and quartile arithmetic shared by every phase.

/// Equal consecutive windows an open-loop phase is cut into for its median.
pub const WINDOWS: usize = 10;
/// Windows for a rate or a 90th percentile, which need more samples each.
pub const WIDE_WINDOWS: usize = 5;

/// Nearest-rank percentile (`p` in 0..=1) of a sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Median with the two middle values averaged for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-percentile of each of `windows` equal consecutive windows of
/// `in_order` (samples in due-time order, so equal counts are equal time
/// at a fixed rate). A trailing remainder shorter than a window is dropped.
pub fn window_percentiles(in_order: &[f64], p: f64, windows: usize) -> Vec<f64> {
    let per_window = in_order.len() / windows;
    assert!(per_window > 0, "fewer samples than windows");
    in_order
        .chunks_exact(per_window)
        .take(windows)
        .map(|w| percentile(w, p))
        .collect()
}

/// Operations per second in each of [`WIDE_WINDOWS`] equal consecutive
/// windows of a phase, given every operation's finish time in seconds since
/// the phase began, ascending. A trailing remainder shorter than a window is dropped.
pub fn window_rates(finished_s: &[f64]) -> Vec<f64> {
    let per_window = finished_s.len() / WIDE_WINDOWS;
    assert!(per_window > 0, "fewer operations than windows");
    let mut window_start = 0.0;
    finished_s
        .chunks_exact(per_window)
        .take(WIDE_WINDOWS)
        .map(|w| {
            let end = w[per_window - 1];
            let rate = per_window as f64 / (end - window_start);
            window_start = end;
            rate
        })
        .collect()
}

/// The mean of `values` with the highest ones left out: the lowest
/// `keep` share of them (at least one) is averaged.
pub fn lower_mean(values: &[f64], keep: f64) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = ((sorted.len() as f64 * keep) as usize).clamp(1, sorted.len());
    sorted[..kept].iter().sum::<f64>() / kept as f64
}

/// The second-lowest window value: the quietest window but one.
///
/// The box this runs on shares its host, and what the neighbours take only
/// ever adds time, in bursts of seconds and in spells of minutes. Measured
/// on the reference box during a spell with ~10 % steal time, the median
/// window moved by 29-36 % between runs of one binary (quartile spread)
/// and the low windows by 12-17 %; in calmer spells every choice moved by
/// 6-19 %, the second-lowest of ten least. So a quiet window speaks for
/// the phase, the one lucky window is passed over, and
/// `gen.window_spread` reports how far apart the windows were.
pub fn second_lowest(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[1.min(sorted.len() - 1)]
}

/// [`second_lowest`] for a rate, where the quiet windows are the high ones.
pub fn second_highest(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted[1.min(sorted.len() - 1)]
}

/// `(max - min) / median` of a set of window values.
pub fn relative_spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(3))
}

/// Root mean square.
pub fn rms(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_quiet_window() {
        // Five windows of four samples; the fourth window is a stall.
        let mut lat = vec![1.0; 20];
        for x in &mut lat[12..16] {
            *x = 50.0;
        }
        let p50 = window_percentiles(&lat, 0.5, 5);
        assert_eq!(p50, vec![1.0, 1.0, 1.0, 50.0, 1.0]);
        assert_eq!(second_lowest(&p50), 1.0);
        assert_eq!(relative_spread(&p50), 49.0);
    }

    #[test]
    fn window_rates_divide_each_window_by_its_own_time() {
        // Ten operations, two per window; the third window stalls.
        let finished = [0.5, 1.0, 1.5, 2.0, 6.0, 7.0, 7.5, 8.0, 8.5, 9.0];
        assert_eq!(window_rates(&finished), vec![2.0, 2.0, 0.4, 2.0, 2.0]);
    }

    #[test]
    fn the_lower_mean_leaves_the_slowest_out() {
        // Eight samples, three quarters kept: the two stalls do not count.
        let lat = [1.0, 90.0, 2.0, 3.0, 1.0, 2.0, 70.0, 3.0];
        assert_eq!(lower_mean(&lat, 0.75), 2.0);
        assert_eq!(lower_mean(&lat, 1.0), 21.5);
        assert_eq!(lower_mean(&[5.0], 0.75), 5.0);
    }

    #[test]
    fn the_second_lowest_passes_over_one_lucky_window() {
        assert_eq!(second_lowest(&[5.0, 0.1, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(second_lowest(&[7.0]), 7.0);
        assert_eq!(second_highest(&[5.0, 9.9, 4.0, 2.0, 3.0]), 5.0);
        assert_eq!(second_highest(&[7.0]), 7.0);
    }

    #[test]
    fn windows_drop_a_short_remainder() {
        let lat: Vec<f64> = (0..23).map(f64::from).collect();
        // 23 / 5 = 4 per window; samples 20..23 are left out.
        assert_eq!(
            window_percentiles(&lat, 1.0, 5),
            vec![3.0, 7.0, 11.0, 15.0, 19.0]
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn rms_of_errors() {
        assert_eq!(rms(&[3.0, 4.0, 3.0, 4.0]), (12.5f64).sqrt());
        assert_eq!(rms(&[]), 0.0);
    }
}
