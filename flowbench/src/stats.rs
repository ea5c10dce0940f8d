//! Order statistics for repeated timings.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so spreads printed here match the ones
//! computed from a list of runs with Python.

/// Sorted copy of `xs` (total order, so NaN sorts last instead of
/// panicking).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the exclusive method;
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// An effect estimated from paired samples: its median and the
/// interquartile range of the samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Effect {
    /// Median of the paired samples.
    pub value: f64,
    /// Distance between their first and third quartile (0 when only one
    /// pair was measured, which [`Effect::resolved`] treats as unresolved).
    pub spread: f64,
    /// Pairs measured.
    pub pairs: usize,
}

impl Effect {
    /// Median and quartile spread of `samples`; `None` when empty.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let value = median(samples)?;
        let spread = quartiles(samples).map_or(0.0, |(q1, _, q3)| q3 - q1);
        Some(Self {
            value,
            spread,
            pairs: samples.len(),
        })
    }

    /// `true` when the effect stands out of its own noise: at least two
    /// pairs, and a magnitude larger than the quartile spread. An
    /// unresolved effect is reported as such, never as a pass.
    pub fn resolved(&self) -> bool {
        self.pairs >= 2 && self.value.abs() > self.spread
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 2.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn effect_inside_its_spread_is_unresolved() {
        // Overheads of -5% .. +7%: the median sits inside the noise.
        let noisy = Effect::from_samples(&[-0.05, 0.01, 0.07, -0.02]).expect("samples");
        assert!(!noisy.resolved());
        // A steady +10% is resolved.
        let clear = Effect::from_samples(&[0.10, 0.11, 0.09, 0.10]).expect("samples");
        assert!(clear.resolved());
        // One pair has no spread to compare against.
        let single = Effect::from_samples(&[0.5]).expect("sample");
        assert!(!single.resolved());
        assert_eq!(Effect::from_samples(&[]), None);
    }
}
