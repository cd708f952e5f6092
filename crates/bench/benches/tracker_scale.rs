//! Multithreaded tracker throughput: N OS threads hammering one `Tracker`
//! with call/return pairs over already-encoded edges, through both drive
//! APIs:
//!
//! * `guard` — one RAII [`dacce::tracker::CallGuard`] per call, the
//!   drop-in instrumentation shape. Every event pays the thread-slot
//!   lock, snapshot refresh and journal gate.
//! * `batch` — [`dacce::tracker::ThreadHandle::run_batch`] over pre-built
//!   programs. Slot lock, snapshot load and journal gate are hoisted out
//!   of the per-op loop, which is what the flat dispatch table was built
//!   for.
//!
//! One op is one call+return pair. Writes `results/tracker_scale.csv`;
//! compare against `results/tracker_scale_baseline.csv` (the hash-probed
//! pre-dispatch-table numbers).
//!
//! ```text
//! cargo bench -p dacce-bench --bench tracker_scale
//! ```

use dacce_bench::harness::{banner, eager_config, Chain, Plan, Table, CHAIN_ROUNDS};

fn main() {
    banner("tracker encoded call/return per-op cost (guard vs batch drive)");
    let plan = Plan::new(CHAIN_ROUNDS);
    let threads = [1usize, 2, 4, 8];
    let chains: Vec<Chain> = threads
        .iter()
        .map(|&t| Chain::new(t, eager_config()))
        .collect();
    // Case 2c drives chain c with guards, case 2c+1 with batches.
    let ops: Vec<usize> = chains.iter().flat_map(|c| [c.ops(plan.work); 2]).collect();
    let s = plan.measure_each(&ops, |i| match i % 2 {
        0 => chains[i / 2].drive_guards(plan.work),
        _ => chains[i / 2].drive_batches(plan.work),
    });
    let mut table = Table::new("tracker_scale.csv", &["threads", "variant"], &[]);
    for (c, chain) in chains.iter().enumerate() {
        assert_eq!(chain.tracker.stats().decode_errors, 0);
        let t = threads[c].to_string();
        table.row(&[&t, "guard"], s[2 * c], &[]);
        table.row(&[&t, "batch"], s[2 * c + 1], &[]);
    }
    table.write();
}
