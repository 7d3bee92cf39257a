//! Small measurement helpers: quantiles, an output digest, peak resident
//! memory, and the host-drift reference kernel.

use std::time::Instant;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between the
/// two nearest ranks. `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// FNV-1a, the same function the repository uses for its report digests.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a string and a separator.
    pub fn str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0]);
    }

    /// Folds a number.
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fixed register-only integer kernel, timed in milliseconds. It touches
/// no memory, so comparing it across runs separates host CPU drift from
/// changes in the measured program. Four independent chains keep several
/// execution ports busy, so it also slows when another thread shares the
/// physical core, as the measured code does.
pub fn reference_kernel_ms() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box([1u64, 2, 3, 4].map(|k| k * 0x9E37_79B9_7F4A_7C15));
    for i in 0..10_000_000u64 {
        for v in &mut x {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
            *v = v.wrapping_add(i);
        }
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
