//! Host speed. A shared virtual machine's CPU speed drifts by tens of
//! percent over minutes, longer than one run, so two runs of the same
//! code read different wall times. The benchmark times a fixed probe,
//! written here and sharing no code with the router, between passes,
//! and scales its end-to-end times by how much slower or faster than the
//! reference host the probe ran during the run.
//!
//! The probe is an integer-mixing loop, run once on one thread and then
//! on two threads at once: the router runs partly on one thread and
//! partly on both of its `OCR_THREADS=2` workers, and of the probes
//! tried (a Lee search past L2, a pointer chase over 8 MB, this loop on
//! one thread, on two, and both) the pair tracked the drift of the
//! `suite` flow time best. It touches no memory, so it evicts none of
//! the router's state and adds nothing to the process's peak memory.
//! Each sample checks that every loop computed the same value.

use std::hint::black_box;
use std::time::Instant;

/// Loop iterations of one thread's share of a sample (~2 ms each).
const ROUNDS: u64 = 1_000_000;

/// Median seconds of one probe sample on the reference host (2-vCPU
/// Intel Xeon virtual machine, release build). A run's times are scaled
/// by `REFERENCE_S / its median sample`.
pub const REFERENCE_S: f64 = 0.0040;

/// The probe and the samples it has taken.
pub struct Probe {
    expected: u64,
    samples: Vec<f64>,
}

impl Probe {
    /// Runs the loop once to learn the value every run of it must give.
    pub fn new() -> Probe {
        Probe {
            expected: mix(ROUNDS),
            samples: Vec::new(),
        }
    }

    /// Times one sample (the loop on one thread, then on two at once)
    /// and keeps it. Returns its seconds.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let one = mix(black_box(ROUNDS));
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(|| mix(black_box(ROUNDS)));
            let mine = mix(black_box(ROUNDS));
            (mine, other.join().expect("the probe thread finishes"))
        });
        let secs = t0.elapsed().as_secs_f64();
        assert!(
            [one, a, b].iter().all(|&v| v == self.expected),
            "the probe's loop is deterministic"
        );
        self.samples.push(secs);
        secs
    }

    /// Every sample so far, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// How many times slower than the reference host a probe sample of
/// `secs` ran; wall times are divided by it.
pub fn slowdown(secs: f64) -> f64 {
    secs / REFERENCE_S
}

/// XOR of `rounds` outputs of SplitMix64 from a fixed seed.
fn mix(rounds: u64) -> u64 {
    let mut state = 0x0C5_CA1B_u64;
    let mut acc = 0;
    for _ in 0..rounds {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_fixed() {
        assert_eq!(Probe::new().expected, Probe::new().expected);
        assert_ne!(mix(ROUNDS), mix(ROUNDS - 1));
        let mut p = Probe::new();
        assert!(p.sample() > 0.0);
        assert_eq!(p.samples().len(), 1);
    }

    #[test]
    fn slowdown_is_relative_to_the_reference() {
        assert_eq!(slowdown(REFERENCE_S), 1.0);
        assert_eq!(slowdown(2.0 * REFERENCE_S), 2.0);
    }
}
