//! Estimators: the quiet-window mean the standalone probes use, percentiles
//! with a sample-count rule, and the quartile spread `--repeat` reports.

/// Samples per quiet window: long enough to average out per-call jitter,
/// short enough that a probe holds several windows and some of them see
/// no interference.
pub const WINDOW: usize = 512;

/// Quiet-window mean of a stream of wall-clock durations.
///
/// Consecutive samples are grouped into windows of `window`; the estimate
/// is the *minimum* window mean. On a shared host interference (another
/// tenant, a timer tick, a migrated thread) only ever adds time, so the
/// quietest window is the best view of what the code itself costs. A
/// stream shorter than one window falls back to the plain mean.
///
/// Only the probes use it: they are short loops of one call, where an
/// undisturbed window is likely. Inside a workload run it is no steadier
/// than the mean (README, "Noise"), so a run reports means.
#[derive(Debug, Clone)]
pub struct Quiet {
    window: usize,
    cur_sum: u64,
    cur_n: usize,
    best: Option<f64>,
}

impl Default for Quiet {
    fn default() -> Self {
        Quiet::new(WINDOW)
    }
}

impl Quiet {
    pub fn new(window: usize) -> Self {
        assert!(window > 0);
        Quiet {
            window,
            cur_sum: 0,
            cur_n: 0,
            best: None,
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.cur_sum += ns;
        self.cur_n += 1;
        if self.cur_n == self.window {
            let mean = self.cur_sum as f64 / self.window as f64;
            if self.best.is_none_or(|b| mean < b) {
                self.best = Some(mean);
            }
            self.cur_sum = 0;
            self.cur_n = 0;
        }
    }

    /// Nanoseconds per sample; `None` for an empty stream.
    pub fn estimate(&self) -> Option<f64> {
        match self.best {
            Some(b) => Some(b),
            None => (self.cur_n > 0).then(|| self.cur_sum as f64 / self.cur_n as f64),
        }
    }
}

/// Quantile `q` of ascending `sorted`, reported only when at least ten
/// samples lie beyond it — p99 needs 1 000 samples, p50 needs 20.
pub fn percentile(sorted: &[u32], q: f64) -> Option<f64> {
    let n = sorted.len();
    if ((1.0 - q) * n as f64) < 10.0 {
        return None;
    }
    let rank = ((n - 1) as f64 * q).round() as usize;
    Some(f64::from(sorted[rank]))
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median; quartiles by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`), which the driver uses.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let med = median(&mut v);
    let n = v.len();
    let quart = |k: usize| -> f64 {
        // Exclusive method: position k(n+1)/4, 1-based, interpolated.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n.saturating_sub(1).max(1));
        let frac = pos - lo as f64;
        let a = v[lo - 1];
        let b = v[lo.min(n - 1)];
        a + (b - a) * frac
    };
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    (quart(3) - quart(1)).abs() / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_window_ignores_injected_slow_windows() {
        // 20 windows at 100 ns/op; every other window has a 50 µs stall
        // injected, and one window is entirely 3x slower.
        let mut q = Quiet::new(WINDOW);
        let mut total = 0;
        for w in 0..20 {
            for i in 0..WINDOW {
                let mut ns = 100;
                if w % 2 == 0 && i == 7 {
                    ns += 50_000;
                }
                if w == 5 {
                    ns = 300;
                }
                q.push(ns);
                total += ns;
            }
        }
        assert_eq!(q.estimate(), Some(100.0));
        let plain_mean = total as f64 / (20 * WINDOW) as f64;
        assert!(
            plain_mean > 150.0,
            "the plain mean is polluted: {plain_mean}"
        );
    }

    #[test]
    fn quiet_falls_back_to_mean_below_one_window() {
        let mut q = Quiet::new(WINDOW);
        assert_eq!(q.estimate(), None);
        q.push(10);
        q.push(30);
        assert_eq!(q.estimate(), Some(20.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<u32> = (0..999).collect();
        assert_eq!(percentile(&v, 0.99), None);
        assert!(percentile(&v, 0.50).is_some());
        let v: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(989.0));
        let v: Vec<u32> = (0..19).collect();
        assert_eq!(percentile(&v, 0.50), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = iqr_over_median(&v);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
    }
}
