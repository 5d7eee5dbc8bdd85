//! Small shared pieces: the seeded generator, order statistics, input
//! digests, peak memory, and the metric map printed as JSON.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, well-mixed generator. Every input the benchmark
/// generates is drawn from one of these, seeded from `--seed`, so the
/// same seed always gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`salt`) under one workload seed, so
    /// independent choices do not shift each other when one changes.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// FNV-1a over everything fed to it: the input digest the seed tests
/// compare.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xFF])
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A smoothed `q`-quantile: the mean of the quantiles at evenly spaced
/// levels across `q - half_width ..= q + half_width`, which is the mean
/// of the order statistics in that band. A point quantile of a few
/// dozen jobs rests on one or two of them, so the noise of those jobs'
/// times passes straight through; the band averages it over every job
/// near the level.
pub fn band_quantile(values: &[f64], q: f64, half_width: f64) -> f64 {
    const STEPS: usize = 40;
    let (lo, hi) = ((q - half_width).max(0.0), (q + half_width).min(1.0));
    let sum: f64 = (0..=STEPS)
        .map(|i| quantile(values, lo + (hi - lo) * i as f64 / STEPS as f64))
        .sum();
    sum / (STEPS + 1) as f64
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its value and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kib / 1024.0)
}

/// Metric name → (value, unit), printed in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// The `metrics` object of the result line. Fails on a non-finite
    /// value, which JSON cannot carry and which means a broken measure.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push('}');
        Ok(out)
    }
}

/// Operations tried and operations that failed or gave a wrong output.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_band_quantile_averages_the_order_statistics_near_its_level() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(band_quantile(&values, 0.9, 0.0), quantile(&values, 0.9));
        assert!((band_quantile(&values, 0.9, 0.05) - 90.0).abs() < 1e-9);
        // The band is clipped at the ends of the sample.
        assert!((band_quantile(&values, 1.0, 0.1) - 95.0).abs() < 1e-9);
        assert_eq!(band_quantile(&[3.0; 7], 0.9, 0.05), 3.0);
        assert!(band_quantile(&[], 0.9, 0.05).is_nan());
    }
}
