//! Sample statistics, output checks and the benchmark's own seeded RNG.

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Linearly interpolated percentile `p` (0–100) of `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the spread of a metric
/// across runs is judged by. A single sample is its own quartiles.
fn quartiles(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Summary of one metric's samples within a run, recorded beside the
/// result so every median carries its spread and sample count.
pub struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Spread {
    pub fn of(samples: &[f64]) -> Spread {
        let (q1, q3) = quartiles(samples);
        Spread {
            median: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            num(self.median),
            num(self.q1),
            num(self.q3),
            self.n
        )
    }
}

/// A JSON number; non-finite values (never expected) are written as 0 so
/// the result line always parses.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Tally of operations and output checks. Every check counts as one
/// attempted operation; a failed check or operation is printed by name
/// on standard error and counts as failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; `detail` is only rendered when it fails.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {name}: {}", detail());
        }
        ok
    }

    /// Records an operation that failed before its checks could run.
    pub fn fail(&mut self, name: &str, reason: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: operation failed: {name}: {reason}");
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// SplitMix64: the benchmark's input generator (the program under test
/// never sees the seed, only the inputs drawn from it).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
