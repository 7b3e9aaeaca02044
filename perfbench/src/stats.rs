//! The statistics every workload reports: medians, Python-compatible
//! quartiles, the tail percentile with at least ten samples beyond it,
//! ratios that keep their bases, and the open-loop arrival schedule.

use ocr_gen::Rng;

/// Samples a tail is taken from must leave at least this many beyond it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); `NaN` when
/// there are no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three cut points of `statistics.quantiles(values, n=4)` in
/// Python's default `exclusive` method, so a spread computed here equals
/// the one an external script computes from the same values. Needs at
/// least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

/// A tail statistic: the highest percentile that still has
/// [`TAIL_BEYOND`] samples above it, with the sample count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Its percentile, `100 · rank / n` for the 0-based rank.
    pub percentile: f64,
    /// Samples the tail was chosen from.
    pub n: usize,
}

/// The tail of `values`: the sample with exactly [`TAIL_BEYOND`] samples
/// above it. With too few samples for that, the minimum is the only
/// honest choice and its percentile (0) says so.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = n.saturating_sub(TAIL_BEYOND + 1);
    Some(Tail {
        value: v[rank],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    })
}

/// A derived ratio that keeps its numerator and denominator, so a report
/// can state the bases it was computed from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator.
    pub den: f64,
}

impl Ratio {
    /// `num / den`, or 0 for an empty base.
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// `value (num/den)`, the form every ratio is printed in.
    pub fn describe(self) -> String {
        format!("{:.6} ({}/{})", self.value(), self.num, self.den)
    }
}

/// Due times, in seconds from the start of the load, of an open loop
/// of `rate` arrivals per second over `seconds`: a Poisson process
/// conditioned on its count, so the count is exactly `rate · seconds`
/// (rounded) and the arrival times are sorted uniform draws. Fixing the
/// count keeps throughput comparable across seeds.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut rng = Rng::seed_from_u64(seed);
    let mut due: Vec<f64> = (0..n).map(|_| rng.gen_f64() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// Open-loop accounting for one request: every latency is measured from
/// when the request was *due*, so a stalled sender charges its stall to
/// every request queued behind it; `lag` is how late it was sent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DueTimes {
    /// When the request was due (seconds from the load start).
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its answer was seen.
    pub done: f64,
}

impl DueTimes {
    /// Seconds the generator ran late for this request (never negative).
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }

    /// Seconds from due to answer.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).expect("ten samples");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&v).expect("samples");
        assert_eq!(t.value, 89.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.percentile, 89.0);
        assert_eq!(t.n, 100);
        // Shuffled input picks the same rank.
        let mut w = v.clone();
        w.reverse();
        assert_eq!(tail(&w), Some(t));
        // Eleven samples: the minimum is the only one with ten beyond.
        let few: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(
            tail(&few).map(|t| (t.value, t.percentile)),
            Some((0.0, 0.0))
        );
        assert_eq!(tail(&[7.0]).map(|t| t.value), Some(7.0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn ratios_keep_their_bases() {
        let r = Ratio { num: 3.0, den: 4.0 };
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.describe(), "0.750000 (3/4)");
        assert_eq!(Ratio { num: 1.0, den: 0.0 }.value(), 0.0);
    }

    #[test]
    fn schedule_is_seeded_sorted_and_fixed_count() {
        let a = poisson_schedule(7, 10.0, 3.0);
        assert_eq!(a.len(), 30);
        assert_eq!(a, poisson_schedule(7, 10.0, 3.0));
        assert_ne!(a, poisson_schedule(8, 10.0, 3.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..3.0).contains(&t)));
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // The sender stalled 0.5 s on the first request; the second was
        // due at 0.1 s but could only go out at 0.5 s.
        let first = DueTimes {
            due: 0.0,
            sent: 0.0,
            done: 0.6,
        };
        let second = DueTimes {
            due: 0.1,
            sent: 0.5,
            done: 0.7,
        };
        assert_eq!(first.lag(), 0.0);
        assert!((second.lag() - 0.4).abs() < 1e-12);
        assert!((second.latency() - 0.6).abs() < 1e-12);
        // Sent early (never happens, but never negative either).
        let early = DueTimes {
            due: 1.0,
            sent: 0.9,
            done: 1.2,
        };
        assert_eq!(early.lag(), 0.0);
    }
}
