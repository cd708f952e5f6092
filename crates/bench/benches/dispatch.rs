//! Per-op cost of the four site-dispatch outcomes on the tracker fast
//! path, single-threaded so nothing but the dispatch shape varies:
//!
//! * `mono` — direct site, one known target: the compiled record *is* the
//!   resolution (one bounds-checked array index, no compare).
//! * `poly_hit` — indirect site with two known targets, always called
//!   with the same one: after the first probe the per-thread inline cache
//!   answers every call.
//! * `poly_miss` — the same site called with alternating targets: the
//!   direct-mapped cache entry is thrashed every call, falling back to
//!   the compare chain and refilling.
//! * `trap` — first execution of a fresh site: full runtime-handler cost
//!   (graph insert, patch, dispatch-table sync, republish).
//!
//! One op is one call+return pair. Writes `results/dispatch.csv`.
//!
//! ```text
//! cargo bench -p dacce-bench --bench dispatch
//! ```

use dacce::tracker::ThreadHandle;
use dacce::{DacceConfig, Tracker};
use dacce_bench::harness::{banner, eager_config, Plan, Table};
use dacce_callgraph::{CallSiteId, FunctionId};

/// Calls per repetition on an already-resolved site.
const CALLS: usize = 200_000;
/// Fresh sites trapped per repetition.
const TRAPS: usize = 4_000;

/// A tracker with `main` registered and two callable targets.
fn register(tracker: &Tracker) -> (ThreadHandle, FunctionId, FunctionId) {
    let f_main = tracker.define_function("main");
    let a = tracker.define_function("target_a");
    let b = tracker.define_function("target_b");
    (tracker.register_thread(f_main), a, b)
}

/// One resolved site on an eager tracker: direct with one target, or
/// indirect with two (which makes it polymorphic).
struct Resolved {
    tracker: Tracker,
    th: ThreadHandle,
    site: CallSiteId,
    a: FunctionId,
    b: FunctionId,
}

impl Resolved {
    fn new(indirect: bool) -> Resolved {
        let tracker = Tracker::with_config(eager_config());
        let (th, a, b) = register(&tracker);
        let site = tracker.define_call_site();
        for _ in 0..4 {
            if indirect {
                drop(th.call_indirect(site, a));
                drop(th.call_indirect(site, b));
            } else {
                drop(th.call(site, a));
            }
        }
        Resolved {
            tracker,
            th,
            site,
            a,
            b,
        }
    }
}

fn main() {
    banner("site-dispatch per-op cost (call+return, single thread)");
    let plan = Plan::new(CALLS);
    let (mono, hit, miss) = (
        Resolved::new(false),
        Resolved::new(true),
        Resolved::new(true),
    );
    let s = plan.measure_each(&[plan.work; 3], |case| {
        for i in 0..plan.work {
            match case {
                0 => drop(mono.th.call(mono.site, mono.a)),
                1 => drop(hit.th.call_indirect(hit.site, hit.a)),
                // Alternating callees thrash the direct-mapped entry.
                _ => drop(
                    miss.th
                        .call_indirect(miss.site, if i % 2 == 1 { miss.b } else { miss.a }),
                ),
            }
        }
    });
    // The cache must actually behave as each scenario intends.
    let half = (plan.work / 2) as u64;
    assert!(
        hit.tracker.stats().icache_hits > half,
        "steady target must hit the inline cache"
    );
    assert!(
        miss.tracker.stats().icache_misses > half,
        "alternating targets must thrash"
    );

    // Each trapped call is the first execution of its site, so every
    // repetition gets a fresh tracker, built untimed. Default config: no
    // eager re-encode storm in the middle of the handler measurements.
    let traps = Plan::new(TRAPS);
    let trap = traps.measure_with(
        traps.work,
        || {
            let tracker = Tracker::with_config(DacceConfig::default());
            let (th, a, _) = register(&tracker);
            let sites: Vec<_> = (0..traps.work)
                .map(|_| tracker.define_call_site())
                .collect();
            (tracker, th, a, sites)
        },
        |(tracker, th, a, sites)| {
            for &site in &sites {
                drop(th.call(site, a));
            }
            (tracker, th)
        },
    );

    let mut table = Table::new("dispatch.csv", &["variant"], &[]);
    for (variant, s) in ["mono", "poly_hit", "poly_miss"].into_iter().zip(s) {
        table.row(&[variant], s, &[]);
    }
    table.row(&["trap"], trap, &[]);
    table.write();
}
