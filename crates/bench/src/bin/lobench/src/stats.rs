//! The generator and the reductions: a self-contained splitmix64 (so the
//! op streams cannot drift when `pglo_bench::Rng` changes), quantiles as
//! Python's `statistics.quantiles` computes them, and the per-metric
//! summary every reported number carries.

/// splitmix64 (Steele, Lea & Flood): one add and three xor-shift-multiply
/// steps per draw; every seed gives a full-period stream.
#[derive(Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// One stream per `(seed, client, phase)` so that no two op streams
    /// of a run share draws.
    pub fn new(seed: u64, client: u64, stream: u64) -> Self {
        let mut mixer = Self(seed ^ 0x9E37_79B9_7F4A_7C15);
        let a = mixer.next_u64();
        let mut mixer = Self(a ^ client.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let b = mixer.next_u64();
        Self(b ^ stream.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` this benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Checksum of one frame: a multiply-xor fold over its 64-bit words,
/// cheap enough (well under a microsecond per 4 KiB) to run on every
/// byte read without becoming the thing measured.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    h ^ (h >> 32)
}

/// The `q`-quantile (`0 < q < 1`) of sorted data by the exclusive method,
/// which is what `statistics.quantiles(values, n=4)` uses: position
/// `q·(n+1)` counted from 1, interpolated, clamped to the data.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = (q * (n as f64 + 1.0) - 1.0).clamp(0.0, (n - 1) as f64);
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// What every reported metric carries beside its value.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// Coefficient of variation: standard deviation ÷ mean.
    pub cv: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n.max(1) as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n.max(1) as f64;
        Self {
            n,
            min: v.first().copied().unwrap_or(f64::NAN),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            max: v.last().copied().unwrap_or(f64::NAN),
            cv: if mean != 0.0 { var.sqrt() / mean } else { 0.0 },
        }
    }

    /// A metric that is one measurement, not a distribution.
    pub fn single(v: f64) -> Self {
        Self { n: 1, min: v, q1: v, median: v, q3: v, max: v, cv: 0.0 }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The interquartile mean: the mean of the middle half of the values by
/// rank. As deaf to a few wild rounds as the median, but it averages half
/// the rounds where the median reads one: in `frame_update`, whose rates
/// fall fivefold within a run, the median is the rate of the middle round
/// alone, and spread 10-12 % between runs where this spreads half that.
pub fn mid_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = &v[v.len() / 4..v.len() - v.len() / 4];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

/// The value below which `q` of the latency samples lie, in the samples'
/// own unit. Sorts in place.
pub fn percentile_ns(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable();
    let idx = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len()) - 1;
    samples[idx] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn mid_mean_drops_the_outer_quarters() {
        assert_eq!(mid_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(mid_mean(&[7.0]), 7.0);
        assert_eq!(mid_mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn streams_differ_by_client_and_phase() {
        let a = SplitMix64::new(7, 0, 0).next_u64();
        assert_ne!(a, SplitMix64::new(7, 1, 0).next_u64());
        assert_ne!(a, SplitMix64::new(7, 0, 1).next_u64());
        assert_ne!(a, SplitMix64::new(8, 0, 0).next_u64());
        assert_eq!(a, SplitMix64::new(7, 0, 0).next_u64());
    }
}
