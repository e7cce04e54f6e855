//! Summary statistics over repeated samples, and the tally of output
//! checks.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so a quartile here reads the same as
/// one computed over the printed values. A single sample is its own
/// quartiles.
///
/// # Panics
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Running tally of output checks: each is attempted once and either
/// holds or is a failure with a description.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check of `got` against `want`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.attempted += 1;
        if got != want {
            self.failures
                .push(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// Failed checks.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed checks as a share of those attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn nearest_rank_percentile_is_an_observed_sample() {
        // The serve tail metrics use the library's nearest-rank rule:
        // p99 of 1..=1024 is the 1014th smallest (ceil(0.99 * 1024)).
        let xs: Vec<u64> = (1..=1024).collect();
        assert_eq!(tamsim_metrics::serve::percentile(&xs, 99, 100), 1014);
        assert_eq!(tamsim_metrics::serve::percentile(&xs, 50, 100), 512);
        assert_eq!(tamsim_metrics::serve::percentile(&[42], 99, 100), 42);
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        assert!(valid_name("net.serve.p99_cycles.am-en"));
        assert!(valid_name("wall_s"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
