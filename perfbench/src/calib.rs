//! A fixed reference computation that reads how fast the host runs.
//!
//! Other tenants of a shared host slow the benchmark in ways the CPU
//! clock cannot see. On the 2-vCPU reference host the dominant effect
//! is a busy sibling hyperthread: it flips on and off every few hundred
//! milliseconds and, while on, stretches the program's jobs by 1.3 to
//! 1.8 times. How much a piece of code feels it depends on how much of
//! the core it uses. A dependent chain (a toy interpreter loop, a
//! multiply chain) slows by under 10 %; code that keeps several
//! execution ports busy — hashing, table probes, sorting — slows about
//! as much as the program does.
//!
//! The calibrator is therefore such code, and code the program does not
//! own, so that no change to the program moves it: the standard
//! library's `HashMap` (SipHash-1-3 with fixed keys) filled and probed
//! with a fixed key sequence, then `sort_unstable` of a fixed block of
//! pseudo-random words. Every sample does exactly the same work. It is
//! timed between jobs; a job's time is divided by how much slower than
//! on the quiet reference host the calibrator ran around it.
//!
//! How it was chosen: runs of the program's job types interleaved with
//! candidate samples for 40 s each, per-3-s medians of job time over
//! the nearest samples. On 8-bit campaign jobs the raw medians ranged
//! 0.86–1.45 and the calibrated ones 0.96–1.06; divided by a toy
//! interpreter loop instead, they ranged 0.91–1.38.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use crate::clock;

/// Keys inserted per sample.
const INSERTS: usize = 4096;
/// Lookups per sample; half of them hit.
const LOOKUPS: usize = 8192;
/// Words sorted per sample.
const SORTED: usize = 4096;

/// The calibrator's CPU time per sample on the reference host (the
/// 2-vCPU Xeon of `README.md`, sibling hyperthread idle), in seconds.
/// Scaled times read in that host's seconds.
pub const REFERENCE_S: f64 = 0.000_21;

/// Samples either side of a timed span its slowdown is read from.
const WINDOW: usize = 2;

/// The reference computation's fixed inputs, its reused buffers, and
/// the samples it took.
pub struct Calibrator {
    keys: Vec<u64>,
    words: Vec<u32>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    scratch: Vec<u32>,
    /// CPU seconds of each sample, in order.
    samples: Vec<f64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    /// Build the inputs: the same keys and words on every run. Buffers
    /// are allocated here and reused, so a sample never allocates.
    pub fn new() -> Calibrator {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let keys = (0..LOOKUPS).map(|_| xorshift(&mut x)).collect();
        let words = (0..SORTED).map(|_| xorshift(&mut x) as u32).collect();
        let mut map = HashMap::with_capacity_and_hasher(INSERTS, BuildHasherDefault::default());
        map.reserve(INSERTS);
        Calibrator {
            keys,
            words,
            map,
            scratch: Vec::with_capacity(SORTED),
            samples: Vec::new(),
        }
    }

    /// Run the reference computation once and record its CPU time.
    pub fn sample(&mut self) {
        let start = clock::cpu_s();
        self.map.clear();
        for (i, &k) in self.keys[..INSERTS].iter().enumerate() {
            *self.map.entry(k).or_insert(0) += i as u64;
        }
        let mut hits = 0u64;
        // The first half of `keys` is in the map, the second is not.
        for (a, b) in self.keys[..LOOKUPS / 2]
            .iter()
            .zip(&self.keys[LOOKUPS / 2..])
        {
            hits += self.map.get(a).copied().unwrap_or(0);
            hits += self.map.get(b).copied().unwrap_or(1);
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.words);
        self.scratch.sort_unstable();
        black_box((hits, self.scratch[SORTED / 2]));
        self.samples.push(clock::cpu_s() - start);
    }

    /// Take the samples before the first timed span that its slowdown
    /// reads.
    pub fn begin(&mut self) {
        for _ in 0..=WINDOW {
            self.sample();
        }
    }

    /// Take the samples after the last timed span that its slowdown
    /// reads.
    pub fn finish(&mut self) {
        for _ in 0..WINDOW {
            self.sample();
        }
    }

    /// The 5th, 50th and 95th percentile of the samples, in ms.
    pub fn spread_ms(&self) -> [f64; 3] {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let at = |p: usize| {
            v.get((v.len().saturating_sub(1)) * p / 100)
                .map_or(0.0, |s| s * 1e3)
        };
        [at(5), at(50), at(95)]
    }

    /// Samples taken so far; a timed span records this before it
    /// starts.
    pub fn taken(&self) -> usize {
        self.samples.len()
    }

    /// How much slower than on the reference host the host ran around
    /// a span that started after `taken` samples: the median of the
    /// `WINDOW + 1` samples before it and the `WINDOW` after it, over
    /// `REFERENCE_S`. At least one sample must have been taken.
    pub fn slowdown(&self, taken: usize) -> f64 {
        let hi = (taken + WINDOW).min(self.samples.len());
        let lo = taken.saturating_sub(WINDOW + 1).min(hi - 1);
        let mut near: Vec<f64> = self.samples[lo..hi].to_vec();
        near.sort_by(f64::total_cmp);
        near[near.len() / 2] / REFERENCE_S
    }
}
