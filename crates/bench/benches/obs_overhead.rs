//! Journaling overhead on the tracker fast path, `tracker_scale`-style:
//! N threads hammering already-encoded call/return pairs with the event
//! journal (a) compiled in but disabled — the default shipping state, one
//! relaxed load on ccStack paths and nothing at all on encoded arithmetic
//! paths — and (b) enabled, every ccStack push/pop journaled.
//!
//! Writes `results/obs_overhead.csv` so regressions are diffable in-repo:
//!
//! ```text
//! cargo bench -p dacce-bench --bench obs_overhead
//! ```

use dacce::DacceConfig;
use dacce_bench::harness::{banner, eager_config, Chain, Plan, Table, CHAIN_ROUNDS};

fn main() {
    banner("journaling overhead on the encoded tracker fast path");
    let plan = Plan::new(CHAIN_ROUNDS);
    let threads = [1usize, 2, 4];
    let config = DacceConfig {
        // Big enough that an enabled journal never hits the overwrite path
        // mid-measurement (ring cost, not drop accounting).
        journal_ring_capacity: 1 << 16,
        ..eager_config()
    };
    let chains: Vec<Chain> = threads
        .iter()
        .map(|&t| Chain::new(t, config.clone()))
        .collect();
    // Case 2c drives chain c with the journal compiled in but disabled
    // (the shipping default), case 2c+1 with every ccStack push/pop
    // journaled.
    let ops: Vec<usize> = chains.iter().flat_map(|c| [c.ops(plan.work); 2]).collect();
    let s = plan.measure_each(&ops, |i| {
        let chain = &chains[i / 2];
        chain.tracker.observability().set_journaling(i % 2 == 1);
        chain.drive_guards(plan.work);
    });
    let mut table = Table::new("obs_overhead.csv", &["threads", "journal"], &[]);
    for (c, chain) in chains.iter().enumerate() {
        chain.tracker.observability().set_journaling(false);
        assert_eq!(chain.tracker.stats().decode_errors, 0);
        let t = threads[c].to_string();
        table.row(&[&t, "off"], s[2 * c], &[]);
        table.row(&[&t, "on"], s[2 * c + 1], &[]);
    }
    table.write();
}
