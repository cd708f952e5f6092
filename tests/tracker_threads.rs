//! Concurrency test: many real OS threads hammering one `Tracker`, each
//! validating its own decoded contexts while the shared engine re-encodes
//! underneath them.

use dacce::{DacceConfig, Tracker};
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::ThreadId;

#[test]
fn concurrent_threads_decode_their_own_contexts() {
    let tracker = Tracker::with_config(DacceConfig {
        edge_threshold: 3,
        min_events_between_reencodes: 16,
        reencode_backoff: 1.1,
        reencode_interval_cap: 512,
        ..DacceConfig::default()
    });

    let f_main = tracker.define_function("main");
    let f_worker = tracker.define_function("worker");
    let depth_fns: Vec<FunctionId> = (0..6)
        .map(|i| tracker.define_function(&format!("level{i}")))
        .collect();
    let spawn_site = tracker.define_call_site();
    // Each worker gets its own call sites (sites are static locations; in
    // this synthetic test every worker "runs its own copy of the code").
    let sites_per_worker: Vec<Vec<CallSiteId>> = (0..4)
        .map(|_| (0..6).map(|_| tracker.define_call_site()).collect())
        .collect();

    let main_th = tracker.register_thread(f_main);

    std::thread::scope(|scope| {
        for (w, sites) in sites_per_worker.iter().enumerate() {
            let tracker = &tracker;
            let main_th = &main_th;
            let depth_fns = &depth_fns;
            scope.spawn(move || {
                let th = tracker.register_spawned_thread(f_worker, main_th, spawn_site);
                for round in 0..200usize {
                    let depth = 1 + (round * 7 + w) % 6;
                    let mut guards = Vec::new();
                    for d in 0..depth {
                        guards.push(th.call(sites[d], depth_fns[d]));
                    }
                    let ctx = th.sample();
                    let path = tracker.decode(&ctx).expect("decodes under concurrency");
                    // main -> worker -> level0..level{depth-1}
                    assert_eq!(path.depth(), 2 + depth, "round {round} worker {w}");
                    assert_eq!(path.0[0].func, f_main);
                    assert_eq!(path.0[1].func, f_worker);
                    for (d, step) in path.0[2..].iter().enumerate() {
                        assert_eq!(step.func, depth_fns[d]);
                    }
                    // Guards must unwind innermost-first: a plain
                    // `drop(Vec)` drops front-to-back and would violate the
                    // stack discipline.
                    while let Some(g) = guards.pop() {
                        drop(g);
                    }
                    if round % 50 == 0 {
                        tracker.check_invariants().expect("invariants hold mid-run");
                    }
                }
            });
        }
    });

    tracker
        .check_invariants()
        .expect("invariants hold after all threads finish");
    let stats = tracker.stats();
    assert!(stats.calls >= 4 * 200);
    assert!(stats.reencodes > 0, "re-encoding must have happened");
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn thread_ids_are_distinct_and_stable() {
    let tracker = Tracker::new();
    let f_main = tracker.define_function("main");
    let f_w = tracker.define_function("w");
    let site = tracker.define_call_site();
    let main_th = tracker.register_thread(f_main);
    let a = tracker.register_spawned_thread(f_w, &main_th, site);
    let b = tracker.register_spawned_thread(f_w, &main_th, site);
    assert_ne!(a.id(), b.id());
    assert_ne!(a.id(), ThreadId::MAIN);
    assert_eq!(main_th.id(), ThreadId::new(0));
}
