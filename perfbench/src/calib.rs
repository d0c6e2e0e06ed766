//! The reference loop that tracks the host's speed. The benchmark runs on
//! shared machines whose speed swings by a third over seconds to minutes
//! (other tenants on the same cores), which no run length averages out.
//! A fixed loop of the engine's kind of work (int8 multiply-accumulate
//! into wide accumulators, then a float requantizing epilogue over an
//! L2-sized buffer), timed alongside the workload, measures that speed;
//! offline host times are scaled by `NOMINAL / measured` so they read as
//! times on a host running the loop in [`NOMINAL`]. The loop is the
//! benchmark's own code, so no change to the program moves it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A round figure near the loop's median time on the reference host
/// (2 vCPU, 2.0 GHz Xeon); it only sets the scale calibrated times read in.
pub const NOMINAL: Duration = Duration::from_micros(200);

const LEN: usize = 16 * 1024;

/// The reference loop's buffers.
pub struct Reference {
    acc: Vec<i64>,
    weights: Vec<i8>,
    out: Vec<i8>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            acc: (0..LEN).map(|i| (i as i64 * 7919) % 2001 - 1000).collect(),
            weights: (0..LEN).map(|i| ((i * 31) % 255) as u8 as i8).collect(),
            out: vec![0; LEN],
        }
    }

    /// Runs the loop once and returns its host time.
    pub fn time(&mut self) -> Duration {
        let start = Instant::now();
        let (acc, weights, out) = (&mut self.acc, &self.weights, &mut self.out);
        for i in 0..LEN {
            acc[i] += black_box(weights[i]) as i64 * out[(i * 7) % LEN] as i64;
            let real = (acc[i] as f32 * 0.013 + 0.5).max(0.0);
            out[i] = (real / 0.07).round().clamp(-127.0, 127.0) as i8;
        }
        black_box(&out);
        let elapsed = start.elapsed();
        // Keep the accumulators bounded so every call does the same work.
        acc.iter_mut().for_each(|a| *a %= 4096);
        elapsed
    }
}

/// Scale factor for host times measured while the reference loop took
/// the times `probes` (their median counts; none means nominal speed).
pub fn factor(probes: &[Duration]) -> f64 {
    let mut sorted = probes.to_vec();
    sorted.sort();
    let measured = sorted.get(sorted.len() / 2).copied().unwrap_or(NOMINAL);
    NOMINAL.as_secs_f64() / measured.as_secs_f64().max(1e-9)
}
