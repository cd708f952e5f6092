//! Machine-speed calibration.
//!
//! The benchmark's host is a shared virtual machine whose speed drifts by
//! up to ±25% over seconds to minutes (other tenants' load), far more than
//! the changes the benchmark must resolve. A fixed reference kernel —
//! a dependent walk over an L2-sized table, hash-map inserts and lookups
//! and small-vector churn, all in the benchmark's own code and independent
//! of the measured crates — is timed just before and just after every
//! timed phase, on as many threads as the phase runs, and the phase's
//! times are scaled by `reference / kernel time`: each timing is reported
//! as the time the phase would take at the host's typical speed. The raw
//! wall times are printed next to the scaled ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the typical speed of the host the benchmark was
/// written on (2-vCPU Xeon), ns: on one thread, and on two threads at
/// once (the two vCPUs do not run two kernels in the time of one).
pub const REFERENCE_NS: [f64; 2] = [670_000.0, 960_000.0];

const TABLE: usize = 1 << 15;
const KEYS: u64 = 2_048;

/// One timing of the reference kernel run on `threads` threads at once,
/// ns: the wall time until the last one finished, median of three
/// timings. Several threads measure the machine the way a parallel phase
/// sees it, the second vCPU and the thread spawns included.
pub fn kernel_ns(threads: usize) -> f64 {
    let run = || black_box(kernel(black_box(0x9e37_79b9_7f4a_7c15)));
    let mut t = [0.0f64; 3];
    for slot in &mut t {
        let start = Instant::now();
        if threads <= 1 {
            run();
        } else {
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(run);
                }
            });
        }
        *slot = start.elapsed().as_nanos() as f64;
    }
    t.sort_by(f64::total_cmp);
    t[1]
}

fn kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let table: Vec<u32> = (0..TABLE).map(|_| (next() % TABLE as u64) as u32).collect();
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..TABLE {
        at = table[at] as usize;
        acc = acc.wrapping_add(at as u64);
    }
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(KEYS as usize);
    for k in 0..KEYS {
        map.insert(next() % (4 * KEYS), k);
    }
    for _ in 0..KEYS {
        acc = acc.wrapping_add(*map.get(&(next() % (4 * KEYS))).unwrap_or(&1));
    }
    // Allocation churn: grouped small vectors, cloned and sorted.
    let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
    for k in 0..2 * KEYS {
        groups.entry(next() % (KEYS / 2)).or_default().push(k);
    }
    for g in groups.values() {
        let mut v = g.clone();
        v.sort_unstable();
        acc = acc.wrapping_add(v[0]);
    }
    acc
}

/// Scales the times of one phase by the kernel timings around it.
pub struct Phase {
    threads: usize,
    before: f64,
}

impl Phase {
    /// Times the kernel before a phase that runs on the calling thread.
    pub fn start() -> Self {
        Self::start_on(1)
    }

    /// Times the kernel on `threads` (1 or 2) threads before a phase that
    /// runs on that many.
    pub fn start_on(threads: usize) -> Self {
        assert!(
            (1..=REFERENCE_NS.len()).contains(&threads),
            "calibrated for 1 or 2 threads"
        );
        Phase {
            threads,
            before: kernel_ns(threads),
        }
    }

    /// Times the kernel after the phase ended; returns the factor that
    /// turns the phase's wall times into reference-speed times.
    pub fn end(self) -> f64 {
        let after = kernel_ns(self.threads);
        2.0 * REFERENCE_NS[self.threads - 1] / (self.before + after)
    }
}
