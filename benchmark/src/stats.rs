//! Order statistics over timing samples.

use std::time::Duration;

/// The `p`-th percentile (0..=100) of `xs` by nearest rank; `NaN` when
/// `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median, over consecutive chunks of at least `chunk` samples, of
/// each chunk's `p`-th percentile (one chunk when `xs` is shorter).
pub fn chunked_percentile(xs: &[f64], chunk: usize, p: f64) -> f64 {
    let n = (xs.len() / chunk).max(1);
    let per_chunk: Vec<f64> = (0..n)
        .map(|i| percentile(&xs[i * xs.len() / n..(i + 1) * xs.len() / n], p))
        .collect();
    median(&per_chunk)
}
