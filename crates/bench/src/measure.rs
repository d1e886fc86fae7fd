//! Measurement statistics, table formatting and the result-file writer.

use std::time::Duration;

/// Summary statistics over a sample of durations or rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize a sample (empty samples yield all-zero summaries).
    pub fn of(sample: &[f64]) -> Summary {
        if sample.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                p25: 0.0,
                median: 0.0,
                p75: 0.0,
                max: 0.0,
            };
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            p25: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.5),
            p75: percentile(&sorted, 0.75),
            max: sorted[n - 1],
        }
    }

    /// Summarize durations in milliseconds.
    pub fn of_durations_ms(sample: &[Duration]) -> Summary {
        let ms: Vec<f64> = sample.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        Summary::of(&ms)
    }
}

/// Linear-interpolated percentile of a pre-sorted sample, `q` in [0, 1].
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// GiB/s from bytes moved in a duration.
pub fn gibps(bytes: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    bytes as f64 / (1024.0 * 1024.0 * 1024.0) / elapsed.as_secs_f64()
}

/// Render a fixed-width text table: a header row then data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: Vec<&str>, widths: &[usize]| {
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>w$}", w = w));
        }
        out.push('\n');
    };
    line(&mut out, header.to_vec(), &widths);
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row.iter().map(String::as_str).collect(), &widths);
    }
    out
}

/// Write a bin's result document to `target/bench/BENCH_<name>.json`,
/// relative to the cwd (as `e2e` writes `target/e2e/`). Only `cluster`
/// writes one: CI's cluster-smoke job uploads it, and A6's record at the
/// repo root is a `cp` from here.
pub fn write_result(name: &str, json: &str) {
    let dir = std::path::Path::new("target/bench");
    std::fs::create_dir_all(dir).expect("create target/bench");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p75, 4.0);
        assert!((s.std - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
    }

    #[test]
    fn gibps_computes() {
        let g = gibps(1 << 30, Duration::from_secs(1));
        assert!((g - 1.0).abs() < 1e-12);
        assert!(gibps(1, Duration::ZERO).is_infinite());
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.00"));
    }
}
