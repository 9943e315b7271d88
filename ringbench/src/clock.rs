//! Run time scaled to the reference box's quiet speed.
//!
//! The reference box is a shared VM whose speed drifts with its neighbours'
//! load, by half again over minutes, and nothing inside the VM shows it (no
//! steal time, no other process). So every run also times a fixed
//! reference kernel — this file's own code, which no change to the program
//! under test touches — every [`SAMPLE_EVERY_S`] between steps and set-up
//! builds, and divides each timed interval by the kernel's median over the
//! samples from [`WINDOW_S`] before the interval to [`WINDOW_S`] after it.
//! Multiplied by [`QUIET_MS`], the kernel's time on the quiet box, a scaled
//! time reads as wall time on the reference box when nothing else runs.
//!
//! The kernel sorts 2 MB of pseudo-random words and folds them into a hash:
//! branchy, L2/L3-bound work like the program's. Of the kernels tried, it
//! tracked the drift best: over ten runs of one seed per workload in a
//! noisy hour, the step timings spread 0.09–0.31 between quartiles raw and
//! 0.03–0.13 scaled (`BASELINE.md`).

use crate::sys;
use dde_stats::rng::splitmix64;
use std::hint::black_box;
use std::time::Instant;

/// Words the reference kernel sorts.
const KERNEL_WORDS: usize = 1 << 18;
/// Seconds between reference samples.
const SAMPLE_EVERY_S: f64 = 0.25;
/// Reach of the samples that scale an interval, before and after it.
const WINDOW_S: f64 = 1.0;
/// The kernel's time on the reference box when it is quiet, in ms.
pub const QUIET_MS: f64 = 7.0;

/// A run's clock: seconds since it started, and the reference kernel's
/// samples on the same time line.
pub struct Clock {
    origin: Instant,
    buf: Vec<u64>,
    /// `(seconds since the start, kernel ms)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl Clock {
    /// Starts the clock and takes the first sample.
    pub fn new() -> Self {
        let mut clock =
            Self { origin: sys::now(), buf: vec![0; KERNEL_WORDS], samples: Vec::new() };
        clock.sample();
        clock
    }

    /// Seconds since the clock started.
    pub fn now_s(&self) -> f64 {
        sys::secs_since(self.origin)
    }

    /// Samples the kernel if [`SAMPLE_EVERY_S`] has passed since the last
    /// sample. Call it only between timed intervals.
    pub fn tick(&mut self) {
        let last = self.samples.last().map_or(f64::NEG_INFINITY, |s| s.0);
        if self.now_s() - last >= SAMPLE_EVERY_S {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let at = self.now_s();
        let seed = self.samples.len() as u64;
        for (i, w) in self.buf.iter_mut().enumerate() {
            *w = splitmix64(seed ^ i as u64);
        }
        let t0 = sys::now();
        self.buf.sort_unstable();
        black_box(self.buf.iter().fold(0, |h, &w| splitmix64(h ^ w)));
        self.samples.push((at, sys::secs_since(t0) * 1e3));
    }

    /// The kernel's median time around `[start_s, end_s]`, in ms.
    pub fn reference_ms(&self, start_s: f64, end_s: f64) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < start_s - WINDOW_S);
        let hi = self.samples.partition_point(|s| s.0 <= end_s + WINDOW_S);
        let near: Vec<f64> = if lo < hi {
            self.samples[lo..hi].iter().map(|s| s.1).collect()
        } else {
            vec![self.samples[lo.min(self.samples.len() - 1)].1]
        };
        crate::summary::median(&near)
    }

    /// The interval `[start_s, end_s]` in seconds, scaled to the reference
    /// box's quiet speed.
    pub fn scaled_s(&self, start_s: f64, end_s: f64) -> f64 {
        (end_s - start_s) * QUIET_MS / self.reference_ms(start_s, end_s)
    }

    /// Every sample's kernel time, in ms.
    pub fn samples_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_scale_by_the_samples_around_them() {
        let mut c = Clock::new();
        c.samples = vec![(0.0, 7.0), (1.0, 14.0), (2.0, 14.0), (5.0, 3.5)];
        // [1.5, 1.6] reaches the samples at 1 and 2 s: the box ran at half
        // speed.
        assert_eq!(c.reference_ms(1.5, 1.6), 14.0);
        assert!((c.scaled_s(1.5, 1.6) - 0.05).abs() < 1e-12);
        // Only the sample at 5 s lies within a second of [4.5, 4.6].
        assert_eq!(c.reference_ms(4.5, 4.6), 3.5);
        // No sample within reach: the next one after, or the last.
        c.samples = vec![(0.0, 7.0), (9.0, 3.5)];
        assert_eq!(c.reference_ms(4.0, 4.1), 3.5);
        assert_eq!(c.reference_ms(20.0, 21.0), 3.5);
    }

    #[test]
    fn ticks_sample_at_most_every_interval() {
        let mut c = Clock::new();
        c.tick();
        assert_eq!(c.samples.len(), 1);
        assert!(c.samples[0].1 > 0.0);
    }
}
