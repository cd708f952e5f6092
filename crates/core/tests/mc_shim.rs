//! Smoke test for the `mc` instrumentation feature: with the feature on,
//! the tracker's protocol operations — epoch publishes, epoch checks,
//! lock acquisitions and releases — must all flow through the `dacce-sync`
//! hook, carrying their declared orderings.
//!
//! Runs only under `--features mc`; the default build compiles the shim
//! to direct std/parking_lot re-exports with nothing to observe.

#![cfg(feature = "mc")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;

use dacce::config::DacceConfig;
use dacce::sync::{clear_hook, set_hook, SyncEvent, SyncHook, SyncOp};
use dacce::tracker::{BatchOp, Tracker};

/// The sync hook is process-global: tests that install one run one at a
/// time.
static HOOK_SERIAL: Mutex<()> = Mutex::new(());

#[derive(Default)]
struct CountingHook {
    loads: AtomicU64,
    stores: AtomicU64,
    rmws: AtomicU64,
    lock_acquires: AtomicU64,
    lock_releases: AtomicU64,
    release_stores: AtomicU64,
    acquire_loads: AtomicU64,
}

impl SyncHook for CountingHook {
    fn on_sync(&self, event: &SyncEvent) {
        match event.op {
            SyncOp::Load => {
                self.loads.fetch_add(1, Ordering::Relaxed);
                if matches!(event.order, Ordering::Acquire) {
                    self.acquire_loads.fetch_add(1, Ordering::Relaxed);
                }
            }
            SyncOp::Store => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                if matches!(event.order, Ordering::Release) {
                    self.release_stores.fetch_add(1, Ordering::Relaxed);
                }
            }
            SyncOp::Rmw => {
                self.rmws.fetch_add(1, Ordering::Relaxed);
            }
            SyncOp::LockAcquire => {
                self.lock_acquires.fetch_add(1, Ordering::Relaxed);
            }
            SyncOp::LockRelease => {
                self.lock_releases.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

#[test]
fn tracker_protocol_operations_report_to_the_hook() {
    let _serial = HOOK_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let hook = Arc::new(CountingHook::default());
    set_hook(Arc::clone(&hook) as Arc<dyn SyncHook>);

    // Eager triggers so the run publishes at least one new epoch.
    let cfg = DacceConfig {
        edge_threshold: 1,
        min_events_between_reencodes: 1,
        reencode_backoff: 1.0,
        ..DacceConfig::default()
    };
    let tracker = Tracker::with_config(cfg);
    let main_fn = tracker.define_function("main");
    let th = tracker.register_thread(main_fn);
    for i in 0..8 {
        let f = tracker.define_function(&format!("f{i}"));
        let s = tracker.define_call_site();
        let _g = th.call(s, f);
        let _ = tracker.decode(&th.sample()).expect("sample decodes");
    }
    let stats = tracker.stats();
    clear_hook();

    assert!(stats.reencodes > 0, "workload must force a re-encode");
    let loads = hook.loads.load(Ordering::Relaxed);
    let stores = hook.stores.load(Ordering::Relaxed);
    let acquires = hook.lock_acquires.load(Ordering::Relaxed);
    let releases = hook.lock_releases.load(Ordering::Relaxed);
    assert!(loads > 0, "epoch checks must report loads");
    assert!(stores > 0, "epoch publishes must report stores");
    assert!(
        hook.rmws.load(Ordering::Relaxed) > 0,
        "counters must report RMWs"
    );
    assert!(acquires > 0, "slow path must report lock acquisitions");
    assert_eq!(acquires, releases, "every acquire pairs with a release");
    assert!(
        hook.release_stores.load(Ordering::Relaxed) > 0,
        "EPOCH_PUBLISH stores must carry Release"
    );
    assert!(
        hook.acquire_loads.load(Ordering::Relaxed) > 0,
        "EPOCH_CHECK loads must carry Acquire"
    );
}

/// Parks one chosen thread at its first atomic read-modify-write until the
/// test releases it. Uses std primitives only, so it never re-enters the
/// shim it observes.
#[derive(Default)]
struct PauseHook {
    /// The thread to park; taken (one-shot) by the first matching event.
    target: Mutex<Option<ThreadId>>,
    /// `(parked, released)`.
    phase: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl PauseHook {
    fn arm(&self) {
        *self.target.lock().unwrap() = Some(std::thread::current().id());
    }

    fn wait_parked(&self) {
        let mut phase = self.phase.lock().unwrap();
        while !phase.0 {
            phase = self.cv.wait(phase).unwrap();
        }
    }

    fn release(&self) {
        self.phase.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

impl SyncHook for PauseHook {
    fn on_sync(&self, event: &SyncEvent) {
        if event.op != SyncOp::Rmw {
            return;
        }
        let me = std::thread::current().id();
        {
            let mut target = self.target.lock().unwrap();
            if *target != Some(me) {
                return;
            }
            *target = None;
        }
        let mut phase = self.phase.lock().unwrap();
        phase.0 = true;
        self.cv.notify_all();
        while !phase.1 {
            phase = self.cv.wait(phase).unwrap();
        }
    }
}

/// A batched trigger flush that re-encodes must first bring its thread's
/// context to the shared generation. Thread A's context is encoded under
/// generation 0; while A sits between its batch and the flush, another
/// re-encoding publishes generation 1 and thread B arms trigger 1. A's
/// flush then re-encodes: decoding A's context under generation 1's
/// dictionary instead of its own fails, and the context would be stamped
/// with generation 2 without being migrated.
#[test]
fn trigger_flush_migrates_the_context_before_reencoding() {
    let _serial = HOOK_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = DacceConfig {
        edge_threshold: 1,
        min_events_between_reencodes: 50,
        reencode_backoff: 1.0,
        reencode_interval_cap: 50,
        ..DacceConfig::default()
    };
    let tracker = Tracker::with_config(cfg);
    let main_fn = tracker.define_function("main");
    let fa1 = tracker.define_function("fa1");
    let fa2 = tracker.define_function("fa2");
    let leaf = tracker.define_function("leaf");
    let late = tracker.define_function("late");
    let (s1, s2, s3, s4) = (
        tracker.define_call_site(),
        tracker.define_call_site(),
        tracker.define_call_site(),
        tracker.define_call_site(),
    );
    let s_leaf = tracker.define_call_site();
    let s_late = tracker.define_call_site();

    // Thread B discovers a diamond: main -> fa1 and fa1 -> fa2 through
    // two sites each, so the first re-encoding gives them distinct ids.
    let b = tracker.register_thread(main_fn);
    for outer in [s1, s2] {
        let _g = b.call(outer, fa1);
        for inner in [s3, s4] {
            let _h = b.call(inner, fa2);
        }
    }

    let hook = Arc::new(PauseHook::default());
    set_hook(Arc::clone(&hook) as Arc<dyn SyncHook>);
    let a_sample = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let a = tracker.register_thread(main_fn);
            let _g1 = a.call(s1, fa1);
            let _g2 = a.call(s3, fa2);
            let pair = [
                BatchOp::Call {
                    site: s_leaf,
                    target: leaf,
                },
                BatchOp::Ret,
            ];
            a.run_batch(&pair).expect("balanced batch");
            let ops: Vec<BatchOp> = pair.iter().copied().cycle().take(80).collect();
            hook.arm();
            a.run_batch(&ops).expect("balanced batch");
            a.context()
        });
        hook.wait_parked();
        // A is parked inside its batch, holding its own slot lock: touch
        // nothing that locks it (stats, check_invariants).
        assert!(tracker.request_reencode());
        let _late = b.call(s_late, late);
        hook.release();
        a.join().expect("thread A")
    });
    clear_hook();

    let path = tracker.decode(&a_sample).expect("A's context decodes");
    assert_eq!(tracker.format_path(&path), "main -> fa1 -> fa2");
    let sites: Vec<_> = path.0.iter().map(|step| step.site).collect();
    assert_eq!(sites, vec![None, Some(s1), Some(s3)]);
    let stats = tracker.stats();
    assert!(stats.reencodes >= 2, "the flush must have re-encoded");
    assert_eq!(stats.decode_errors, 0);
    tracker.check_invariants().expect("invariants hold");
}
