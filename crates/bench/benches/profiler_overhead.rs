//! Continuous-profiler overhead on the tracker fast path,
//! `tracker_scale`-style: N threads hammering already-encoded call/return
//! pairs with the sampler (a) disabled (`profiler_stride = 0`, one branch
//! on a zero stride per call) and (b) enabled at the shipping defaults
//! (stride 509, budget-bounded rate controller), every fired sample
//! pushed into the lock-free profiler ring.
//!
//! The acceptance bar for the continuous profiler is that sampling-on
//! stays within 3% of sampling-off on this shape. Writes
//! `results/profiler_overhead.csv` so regressions are diffable in-repo.
//!
//! ```text
//! cargo bench -p dacce-bench --bench profiler_overhead
//! ```

use dacce::DacceConfig;
use dacce_bench::harness::{banner, eager_config, Chain, Plan, Table, CHAIN_ROUNDS};

fn main() {
    banner("continuous-profiler overhead on the encoded tracker fast path");
    let plan = Plan::new(CHAIN_ROUNDS);
    // Separate trackers: the stride is a construction-time config.
    let on_stride = DacceConfig::default().profiler_stride;
    let cases: Vec<(usize, &str, Chain)> = [1usize, 2, 4]
        .into_iter()
        .flat_map(|t| [(t, "off", 0), (t, "on", on_stride)])
        .map(|(t, variant, stride)| {
            let config = DacceConfig {
                profiler_stride: stride,
                ..eager_config()
            };
            (t, variant, Chain::new(t, config))
        })
        .collect();
    let ops: Vec<usize> = cases.iter().map(|(_, _, c)| c.ops(plan.work)).collect();
    let s = plan.measure_each(&ops, |i| cases[i].2.drive_guards(plan.work));
    let mut table = Table::new("profiler_overhead.csv", &["threads", "sampling"], &[]);
    for ((threads, variant, chain), s) in cases.iter().zip(s) {
        let stats = chain.tracker.stats();
        assert_eq!(stats.decode_errors, 0);
        // The enabled run must actually have sampled something.
        assert!(*variant == "off" || stats.profiler_samples > 0);
        table.row(&[&threads.to_string(), variant], s, &[]);
    }
    table.write();
}
