//! Multi-tenant fleet cost: per-op overhead of running a tracker inside a
//! [`dacce_fleet::Fleet`] of N tenants sharing one content-addressed
//! encoding lineage, versus the same workload on a standalone tracker.
//!
//! Three things are measured/checked:
//!
//! * **Cold-start traps for the Nth tenant** — a tenant attaching to an
//!   existing lineage adopts the founder's warm encoding wholesale, so a
//!   full walk over the defined edges must trap zero times. Recorded as
//!   the `cold_traps` row (and asserted); the perf gate then pins it to
//!   zero (any baseline-zero variant that comes back non-zero fails).
//! * **Per-op cost at fleet scale** — batched encoded call/return pairs
//!   driven on the last-registered tenant while the whole fleet is
//!   resident. The acceptance bar is within 10% of the standalone twin
//!   (compare with the `batch` rows of `results/tracker_scale.csv`).
//! * **Shared-state footprint** — attached tenants hold `Arc`s to the
//!   lineage's dictionaries/graph/owner table rather than copies; the
//!   bench asserts the lineage count (always 1) as the witness.
//!
//! One op is one call+return pair. Writes `results/tracker_fleet.csv`.
//!
//! ```text
//! cargo bench -p dacce-bench --bench tracker_fleet
//! ```

use dacce::{DacceConfig, Tracker};
use dacce_bench::harness::{
    banner, chain_batch, eager_config, guard_round, Plan, Summary, Table, CHAIN_ROUNDS, DEPTH,
    ROUNDS_PER_BATCH,
};
use dacce_fleet::{DefEdge, Fleet, ProgramDef};

/// Tenant-count ladder.
const LADDER: [usize; 4] = [1, 8, 64, 1000];

/// The shared program: a `main -> level0 -> … -> level{DEPTH-1}` chain of
/// direct calls — the same shape `tracker_scale` drives, so the
/// standalone/fleet per-op numbers are directly comparable.
fn chain_def() -> ProgramDef {
    let mut functions = vec!["main".to_string()];
    functions.extend((0..DEPTH).map(|d| format!("level{d}")));
    let edges = (0..DEPTH)
        .map(|d| DefEdge {
            caller: d,
            callee: d + 1,
            site: d,
            indirect: false,
        })
        .collect();
    ProgramDef {
        functions,
        main: 0,
        call_sites: DEPTH,
        edges,
        tail_fns: vec![],
        extra_roots: vec![],
    }
}

/// The standalone twin: the same declaration and warm seed as a fleet
/// founder, with no lineage attached.
fn standalone(config: DacceConfig, def: &ProgramDef) -> Tracker {
    let tracker = Tracker::with_config(config);
    for name in &def.functions {
        let _ = tracker.define_function(name);
    }
    for _ in 0..def.call_sites {
        let _ = tracker.define_call_site();
    }
    let _ = tracker.warm_start(def.main_fn(), &def.seed());
    tracker
}

fn main() {
    banner("fleet tenant per-op cost (batched encoded call/return pairs)");
    let def = chain_def();
    let plan = Plan::new(CHAIN_ROUNDS);
    // Every fleet stays resident while any tenant is measured.
    let mut fleets = Vec::new();
    let mut scenarios = vec![("standalone".to_string(), standalone(eager_config(), &def))];
    for tenants in LADDER {
        let fleet = Fleet::with_config(eager_config());
        let last = (0..tenants)
            .map(|i| fleet.register(&format!("svc-{i}"), &def))
            .last()
            .expect("ladder counts are non-zero");
        let nth = fleet.tracker(last).expect("registered");
        let stats = fleet.fleet_stats();
        assert_eq!(
            (stats.lineages, stats.tenants),
            (1, tenants),
            "one lineage for all"
        );
        scenarios.push((format!("fleet-{tenants}"), nth));
        fleets.push(fleet);
    }

    // Cold-start check on the Nth tenant of every fleet: a full walk over
    // the defined chain must not trap — the adopted lineage encodes it.
    let sites: Vec<_> = (0..DEPTH).map(|d| def.site(d)).collect();
    let fns: Vec<_> = (1..=DEPTH).map(|d| def.function(d)).collect();
    for (name, tracker) in &scenarios[1..] {
        guard_round(&tracker.register_thread(def.main_fn()), &sites, &fns);
        let traps = tracker.stats().traps;
        assert_eq!(
            traps, 0,
            "{name}: a shared lineage attaches with zero cold-start traps"
        );
    }
    let (last, nth) = &scenarios[scenarios.len() - 1];
    let cold_traps = Summary::of(&[nth.stats().traps as f64]);

    let ops = chain_batch(&sites, &fns);
    let threads: Vec<_> = scenarios
        .iter()
        .map(|(_, t)| t.register_thread(def.main_fn()))
        .collect();
    let s = plan.measure_each(&vec![plan.work * DEPTH; threads.len()], |i| {
        for _ in 0..plan.work / ROUNDS_PER_BATCH {
            threads[i].run_batch(&ops).expect("balanced batch");
        }
    });
    let mut table = Table::new("tracker_fleet.csv", &["scenario", "variant"], &[]);
    for ((name, _), s) in scenarios.iter().zip(s) {
        table.row(&[name, "batch"], s, &[]);
    }
    table.row(&[last, "cold_traps"], cold_traps, &[]);
    table.write();
}
