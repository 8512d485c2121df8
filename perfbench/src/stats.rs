//! Percentiles under the benchmark's sample rule: a tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples a reported tail percentile needs beyond it.
pub const MIN_BEYOND: f64 = 10.0;

/// A percentile with the sample count it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The percentile's value.
    pub value: f64,
    /// Samples (total weight) it was taken over.
    pub samples: u64,
}

/// Weighted samples: each value stands for `weight` identical observations.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<(f64, u64)>,
    total: u64,
}

impl Samples {
    /// Adds `weight` observations of `value`.
    pub fn add(&mut self, value: f64, weight: u64) {
        if weight > 0 {
            self.values.push((value, weight));
            self.total += weight;
        }
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.total += other.total;
    }

    /// The same observations with every value multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Samples {
        Samples {
            values: self
                .values
                .iter()
                .map(|&(value, weight)| (value * factor, weight))
                .collect(),
            total: self.total,
        }
    }

    /// Number of observations.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether there are no observations.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The nearest-rank `p`-quantile (`0 < p < 1`), or an error naming the
    /// shortfall when fewer than [`MIN_BEYOND`] observations lie beyond it.
    pub fn quantile(&self, p: f64) -> Result<Quantile, String> {
        let beyond = self.total as f64 * (1.0 - p);
        if self.total == 0 || (p > 0.5 && beyond < MIN_BEYOND) {
            return Err(format!(
                "p{} needs {MIN_BEYOND} samples beyond it, have {beyond:.1} of {}",
                p * 100.0,
                self.total
            ));
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (value, weight) in sorted {
            seen += weight;
            if seen >= rank {
                return Ok(Quantile {
                    value,
                    samples: self.total,
                });
            }
        }
        unreachable!("rank never exceeds the total weight")
    }

    /// The interquartile mean: the mean of the middle half of the
    /// observations, a quarter trimmed at each end (an observation that
    /// straddles a cut counts with the part of its weight inside). Where
    /// observations of two kinds come in equal shares (rounds that
    /// alternate, requests that arrive in either round of a window), the
    /// median sits on the edge between them and jumps when a few change
    /// sides; this moves by their share only.
    pub fn iqm(&self) -> Result<Quantile, String> {
        if self.total == 0 {
            return Err("the interquartile mean needs a sample".into());
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = self.total as f64;
        let (low, high) = (total / 4.0, total * 3.0 / 4.0);
        let (mut seen, mut sum) = (0.0, 0.0);
        for (value, weight) in sorted {
            let next = seen + weight as f64;
            let inside = next.min(high) - seen.max(low);
            if inside > 0.0 {
                sum += value * inside;
            }
            seen = next;
        }
        Ok(Quantile {
            value: sum / (high - low),
            samples: self.total,
        })
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut samples = Samples::default();
        for value in iter {
            samples.add(value, 1);
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_over_weights() {
        let mut samples = Samples::default();
        samples.add(1.0, 50);
        samples.add(3.0, 30);
        samples.add(2.0, 20);
        assert_eq!(samples.quantile(0.5).unwrap().value, 1.0);
        assert_eq!(samples.quantile(0.6).unwrap().value, 2.0);
        assert_eq!(samples.quantile(0.71).unwrap().value, 3.0);
        assert_eq!(samples.quantile(0.5).unwrap().samples, 100);
    }

    #[test]
    fn interquartile_mean_trims_a_quarter_at_each_end() {
        let samples: Samples = (1..=8).map(f64::from).collect();
        assert_eq!(samples.iqm().unwrap().value, 4.5);
        assert_eq!(samples.scaled(2.0).iqm().unwrap().value, 9.0);
        assert_eq!(samples.scaled(2.0).len(), 8);
        let mut halves = Samples::default();
        halves.add(1.0, 50);
        halves.add(3.0, 50);
        assert_eq!(halves.iqm().unwrap().value, 2.0);
        // One observation changing modes moves the mean by its share only.
        halves.add(3.0, 2);
        let moved = halves.iqm().unwrap().value;
        assert!(moved > 2.0 && moved < 2.1, "{moved}");
        let one: Samples = [7.0].into_iter().collect();
        assert_eq!(one.iqm().unwrap().value, 7.0);
        assert!(Samples::default().iqm().is_err());
    }

    #[test]
    fn tails_without_ten_samples_beyond_are_refused() {
        let samples: Samples = (0..199).map(f64::from).collect();
        assert!(samples.quantile(0.95).is_err());
        let samples: Samples = (0..200).map(f64::from).collect();
        assert_eq!(samples.quantile(0.95).unwrap().value, 189.0);
        assert!(samples.quantile(0.99).is_err());
        assert!(Samples::default().quantile(0.5).is_err());
    }
}
