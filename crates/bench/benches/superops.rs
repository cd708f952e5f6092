//! Superop throughput: the batch drive of `tracker_scale` with the hot
//! round compiled into a single superop, off vs on at 1/2/4/8 threads.
//!
//! Same program shape as `tracker_scale`'s `batch` variant, so the `off`
//! rows are directly comparable to `results/tracker_scale.csv`. The `on`
//! rows install superops mined from the exact batch programs the threads
//! replay, so every round executes as one table probe plus a memoized net
//! effect instead of `2 * DEPTH` per-event iterations.
//!
//! Writes `results/superops.csv` with a trailing informational hit-rate
//! column; the CI perf-smoke job gates `on` against `off` with
//! `perf_gate.py --ratio` so path memoization may never regress the plain
//! batch drive by more than 3%.
//!
//! ```text
//! cargo bench -p dacce-bench --bench superops
//! ```

use dacce::DacceConfig;
use dacce_bench::harness::{banner, eager_config, Chain, Plan, Table, CHAIN_ROUNDS};
use dacce_workloads::mine_windows;

/// A warmed chain; with `superops` on, the hot rounds are mined from
/// the batch programs themselves and compiled into the published table.
fn chain(threads: usize, superops: bool) -> Chain {
    let config = DacceConfig {
        superops_enabled: superops,
        ..eager_config()
    };
    let (window, table_max) = (config.superop_max_window, config.superop_max_table);
    let chain = Chain::new(threads, config);
    if superops {
        let refs: Vec<_> = chain.batches.iter().map(Vec::as_slice).collect();
        let candidates = mine_windows(&refs, window, table_max, |_| 0);
        assert!(
            chain.tracker.install_superops(&candidates) > 0,
            "hot rounds must compile"
        );
    }
    chain
}

fn main() {
    banner("tracker batch drive per-op cost (superops off vs on)");
    let plan = Plan::new(CHAIN_ROUNDS);
    let cases: Vec<(usize, &str, Chain)> = [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|t| [(t, "off", chain(t, false)), (t, "on", chain(t, true))])
        .collect();
    let ops: Vec<usize> = cases.iter().map(|(_, _, c)| c.ops(plan.work)).collect();
    let s = plan.measure_each(&ops, |i| cases[i].2.drive_batches(plan.work));
    let mut table = Table::new("superops.csv", &["threads", "variant"], &["hit_rate"]);
    for ((threads, variant, chain), s) in cases.iter().zip(s) {
        let stats = chain.tracker.stats();
        assert_eq!(stats.decode_errors, 0);
        assert!(
            *variant == "off" || stats.superop_hits > 0,
            "measured loop must hit"
        );
        let probes = (stats.superop_hits + stats.superop_misses).max(1);
        let rate = stats.superop_hits as f64 / probes as f64;
        table.row(&[&threads.to_string(), variant], s, &[format!("{rate:.4}")]);
    }
    table.write();
}
