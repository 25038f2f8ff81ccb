//! Order statistics and registry scrapes.

use std::collections::HashMap;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// empty.
pub fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64
}

/// Median of floats (mean of the middle two for even counts).
pub fn median_f(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median over blocks of each block's median. Every list (one per
/// client, in the order its samples were taken) is cut into `blocks`
/// consecutive blocks, so a slowdown of the host over part of a run moves
/// only the blocks it covers and leaves this median alone while it
/// covers fewer than half of them.
pub fn block_median(lists: &[Vec<u64>], blocks: usize) -> f64 {
    let p50s: Vec<f64> = lists
        .iter()
        .filter(|l| !l.is_empty())
        .flat_map(|l| {
            l.chunks(l.len().div_ceil(blocks))
                .map(|b| percentile(b, 0.5))
        })
        .collect();
    median_f(&p50s)
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over an empty denominator, such
/// as "per commit" on a read-only workload).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One scrape of the Prometheus text a `Metrics` request returns:
/// counter values and histogram `_sum`/`_count` series by name.
#[derive(Default, Clone)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut m = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.contains('{') {
                continue;
            }
            let mut it = line.split_whitespace();
            if let (Some(name), Some(v)) = (it.next(), it.next()) {
                if let Ok(v) = v.parse::<f64>() {
                    m.insert(name.to_string(), v);
                }
            }
        }
        Scrape(m)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self - before` for one series.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }

    /// Mean of a histogram over the interval since `before`, in its own
    /// unit; 0 when nothing was observed.
    pub fn hist_mean(&self, before: &Scrape, name: &str) -> f64 {
        ratio(
            self.delta(before, &format!("{name}_sum")),
            self.delta(before, &format!("{name}_count")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(median_f(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn block_median_ignores_a_slow_minority_of_blocks() {
        // Ten blocks of 10 samples; three run 5x slower.
        let l: Vec<u64> = (0..100u64)
            .map(|i| if i < 30 { 500 + i % 10 } else { 100 + i % 10 })
            .collect();
        assert_eq!(block_median(&[l.clone()], 10), 104.0);
        assert_eq!(block_median(&[l, vec![]], 10), 104.0);
        assert_eq!(block_median(&[vec![7]], 10), 7.0);
    }

    #[test]
    fn scrape_reads_counters_and_histograms() {
        let text = "# TYPE a counter\na 5\nh_bucket{le=\"1\"} 2\nh_sum 30\nh_count 3\n";
        let before = Scrape::parse("a 1\nh_sum 10\nh_count 1\n");
        let after = Scrape::parse(text);
        assert_eq!(after.delta(&before, "a"), 4.0);
        assert_eq!(after.hist_mean(&before, "h"), 10.0);
    }
}
