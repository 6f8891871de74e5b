//! Host-speed normalization of timed samples.
//!
//! The shared host the benchmark was tuned on changes speed by up to
//! 1.7× for stretches of seconds to minutes, for reasons outside the
//! benchmark: identical one-shot repetitions took 0.87 s or 1.5 s within
//! one run, a fixed CPU loop swings with them, and no steal time is
//! recorded. Ten runs of the same code then spread by 20–50 % on the
//! one-shot and daemon start timings, however many samples a run takes.
//!
//! So a run times a fixed kernel, the *probe*, next to every timed
//! sample, and scales the sample by [`REFERENCE_PROBE_S`] ÷ the probe's
//! time near it. A timed metric is what the sample would have read with
//! the host at its reference speed. The probe is benchmark code: no
//! change to the program moves it. Raw figures go to stderr.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use crate::stats::median;

/// The probe's time on the 2-vCPU host the benchmark was tuned on, about
/// its median there. Normalized samples are expressed at this speed, so
/// on that host they read close to raw.
pub const REFERENCE_PROBE_S: f64 = 0.025;

/// How far (seconds) from a sample a probe may lie and still count
/// towards that sample's host speed.
const WINDOW_S: f64 = 0.5;

/// Entries the kernel sorts and hashes: 2 MiB of `u64` keys and a hash
/// map of about 100 000 entries. A working set this size is what makes
/// the probe slow down with the program: over twelve 20 s stretches of
/// one-shot repetitions, the median wall moved with the median probe
/// with elasticity 0.93, against 1.61 for a 256 KiB kernel that stays
/// in the core's own caches.
const KERNEL_N: usize = 1 << 18;

/// The probe's working memory, kept per thread so that it is allocated
/// and first touched once, outside any timed pass.
struct Scratch {
    keys: Vec<u64>,
    counts: HashMap<u64, usize>,
}

thread_local! {
    static SCRATCH: RefCell<Option<Scratch>> = const { RefCell::new(None) };
}

/// One pass of the fixed kernel: fills `keys` from a xorshift stream,
/// sorts them and counts them into a hash map. Sorting and hashing over
/// a few MiB is what the program's engine and renderer spend their time
/// on.
fn kernel(s: &mut Scratch) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for k in s.keys.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *k = x;
    }
    s.keys.sort_unstable();
    s.counts.clear();
    let buckets = (KERNEL_N as u64) * 2 / 5;
    for (i, k) in s.keys.iter().enumerate() {
        *s.counts.entry(k % buckets).or_insert(0) += i;
    }
    s.counts.len() as u64
}

/// Seconds one kernel pass takes now (14–30 ms on the tuning host). The
/// first probe on a thread runs one untimed pass first.
pub fn probe() -> f64 {
    SCRATCH.with(|cell| {
        let mut slot = cell.borrow_mut();
        let s = slot.get_or_insert_with(|| {
            let mut s = Scratch {
                keys: vec![0; KERNEL_N],
                counts: HashMap::with_capacity(KERNEL_N),
            };
            std::hint::black_box(kernel(&mut s));
            s
        });
        let start = Instant::now();
        std::hint::black_box(kernel(s));
        start.elapsed().as_secs_f64()
    })
}

/// `value` timed with the host at probe time `probe_s`, brought to the
/// reference speed.
pub fn normalize(value: f64, probe_s: f64) -> f64 {
    value * REFERENCE_PROBE_S / probe_s
}

/// Probes taken over a run, each at its time (seconds since the log
/// started), against which timed samples are normalized.
#[derive(Debug)]
pub struct Log {
    t0: Instant,
    probes: Vec<(f64, f64)>,
}

impl Default for Log {
    fn default() -> Self {
        Log {
            t0: Instant::now(),
            probes: Vec::new(),
        }
    }
}

impl Log {
    /// Seconds from the log's start to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    pub fn now(&self) -> f64 {
        self.at(Instant::now())
    }

    /// Takes one probe and records it at its midpoint.
    pub fn probe(&mut self) {
        let start = self.now();
        let s = probe();
        self.probes.push(((start + self.now()) / 2.0, s));
    }

    /// Every probe time recorded, seconds.
    pub fn probe_times(&self) -> Vec<f64> {
        self.probes.iter().map(|p| p.1).collect()
    }

    /// `value`, timed from `from` to `to` (log seconds), at the
    /// reference speed: scaled by the median of the probes within
    /// [`WINDOW_S`] of that span, or of the nearest probe on each side
    /// when none is that close. Unchanged if the log holds no probe.
    pub fn normalize(&self, value: f64, from: f64, to: f64) -> f64 {
        let near: Vec<f64> = self
            .probes
            .iter()
            .filter(|(t, _)| *t >= from - WINDOW_S && *t <= to + WINDOW_S)
            .map(|p| p.1)
            .collect();
        let near = if near.is_empty() {
            let before = self.probes.iter().rev().find(|(t, _)| *t < from);
            let after = self.probes.iter().find(|(t, _)| *t > to);
            before.into_iter().chain(after).map(|p| p.1).collect()
        } else {
            near
        };
        if near.is_empty() {
            value
        } else {
            normalize(value, median(&near))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_by_nearby_probes() {
        let r = REFERENCE_PROBE_S;
        let log = Log {
            t0: Instant::now(),
            probes: vec![(1.0, 2.0 * r), (10.0, r)],
        };
        // The host ran at half speed near t = 1: the sample halves.
        assert_eq!(log.normalize(8.0, 0.9, 1.2), 4.0);
        assert_eq!(log.normalize(8.0, 9.8, 9.9), 8.0);
        // No probe within the window: the nearest one on each side.
        let mid = log.normalize(8.0, 5.0, 5.1);
        assert!((mid - 8.0 / 1.5).abs() < 1e-12);
        assert_eq!(Log::default().normalize(3.0, 0.0, 1.0), 3.0);
    }

    #[test]
    fn probe_takes_time() {
        let p = probe();
        assert!(p > 0.0 && p < 1.0, "probe took {p} s");
    }
}
