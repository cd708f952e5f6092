//! Differential test of the two front-ends over the one executor: the
//! single-threaded `DacceEngine` and the concurrent `Tracker` driven with
//! the same seeded random call/return sequences.
//!
//! * With re-encoding off both run the same instrumentation against the
//!   same dispatch state, so after every operation — through guards and
//!   through `run_batch` — the engine's snapshot must equal the tracker's
//!   context field by field, and the counters must agree after unwinding.
//! * With re-encoding on the two re-encode at different moments (the
//!   engine evaluates the triggers on every event, the tracker in batches),
//!   so their contexts differ; every sample from either must still decode
//!   to the true stack.
//!
//! The universe is small on purpose: direct and indirect sites (an
//! indirect site with more than `indirect_inline_max` targets converts to
//! a hash dispatch), a self-recursive site (compressed once re-encoding
//! classifies it as a back edge) and a second thread spawned from a
//! nested context.

use dacce::tracker::{BatchOp, CallGuard, ThreadHandle};
use dacce::{DacceConfig, DacceEngine, EncodedContext, Tracker};
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::runtime::CallDispatch;
use dacce_program::{ContextPath, CostModel, ThreadId};

const FUNCTIONS: u32 = 8;
const MAIN: u32 = 0;
const WORKER: u32 = 7;
const MAX_DEPTH: usize = 12;

/// xorshift64: a deterministic stream per seed, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// One static call site: its owner, and its target set (one target for a
/// direct site).
struct Site {
    id: CallSiteId,
    targets: Vec<FunctionId>,
}

impl Site {
    fn dispatch(&self) -> CallDispatch {
        if self.targets.len() > 1 {
            CallDispatch::Indirect
        } else {
            CallDispatch::Direct
        }
    }
}

/// The program: call sites per caller, plus the spawn site in `main`.
struct Universe {
    sites: Vec<Vec<Site>>,
    spawn_site: CallSiteId,
}

fn f(i: u32) -> FunctionId {
    FunctionId::new(i)
}

/// Builds the universe with the tracker's own id allocation, which hands
/// out the same dense ids the engine is driven with.
fn universe(tracker: &Tracker) -> Universe {
    for i in 0..FUNCTIONS {
        assert_eq!(tracker.define_function(&format!("f{i}")), f(i));
    }
    let mut sites = Vec::new();
    for caller in 0..FUNCTIONS {
        let mut own = Vec::new();
        let site = |targets: Vec<FunctionId>| Site {
            id: tracker.define_call_site(),
            targets,
        };
        // Two direct sites into the same callee (distinct ids once
        // encoded), one into another callee and one indirect site.
        let a = 1 + caller % 6;
        let b = 1 + (caller + 2) % 6;
        own.push(site(vec![f(a)]));
        own.push(site(vec![f(a)]));
        own.push(site(vec![f(b)]));
        own.push(site(vec![f(1), f(2), f(4), f(5)]));
        if caller == 3 {
            own.push(site(vec![f(3)]));
        }
        sites.push(own);
    }
    let spawn_site = tracker.define_call_site();
    Universe { sites, spawn_site }
}

/// One open frame: (site, caller, callee).
type Frame = (CallSiteId, FunctionId, FunctionId);

/// One thread's side of the differential run.
struct Lane<'t> {
    tid: ThreadId,
    handle: &'t ThreadHandle,
    guards: Vec<CallGuard<'t>>,
    frames: Vec<Frame>,
    /// The true context up to and including this thread's root: the
    /// parent's context at the spawn plus the spawn step, for a spawned
    /// thread.
    prefix: Vec<(Option<CallSiteId>, FunctionId)>,
    root: FunctionId,
}

impl Lane<'_> {
    fn current(&self) -> FunctionId {
        self.frames.last().map_or(self.root, |fr| fr.2)
    }

    fn truth(&self) -> Vec<(Option<CallSiteId>, FunctionId)> {
        let mut t = self.prefix.clone();
        for &(site, _, callee) in &self.frames {
            t.push((Some(site), callee));
        }
        t
    }
}

fn steps(path: &ContextPath) -> Vec<(Option<CallSiteId>, FunctionId)> {
    path.0.iter().map(|s| (s.site, s.func)).collect()
}

/// A random call from the lane's current function.
fn pick_call(
    u: &Universe,
    lane: &Lane<'_>,
    rng: &mut Rng,
) -> (CallSiteId, FunctionId, CallDispatch) {
    let own = &u.sites[lane.current().index()];
    let site = &own[rng.below(own.len())];
    let callee = site.targets[rng.below(site.targets.len())];
    (site.id, callee, site.dispatch())
}

struct Run<'t> {
    engine: DacceEngine,
    tracker: &'t Tracker,
    u: Universe,
    rng: Rng,
    /// Contexts must match exactly (re-encoding off).
    exact: bool,
    samples: usize,
}

impl Run<'_> {
    fn check(&mut self, lane: &Lane<'_>) {
        let from_engine = self.engine.snapshot(lane.tid);
        let from_tracker = lane.handle.context();
        if self.exact {
            assert_eq!(from_engine, from_tracker, "{:?}", lane.tid);
        }
        self.decodes_to_truth(lane, &from_engine, &from_tracker);
    }

    fn decodes_to_truth(&self, lane: &Lane<'_>, e: &EncodedContext, t: &EncodedContext) {
        let truth = lane.truth();
        let e = self.engine.decode(e).expect("engine context decodes");
        let t = self.tracker.decode(t).expect("tracker context decodes");
        assert_eq!(steps(&e), truth, "engine");
        assert_eq!(steps(&t), truth, "tracker");
    }

    fn call(&mut self, lane: &mut Lane<'_>, site: CallSiteId, callee: FunctionId, d: CallDispatch) {
        let caller = lane.current();
        self.engine.call(lane.tid, site, caller, callee, d, false);
        lane.guards.push(match d {
            CallDispatch::Indirect => lane.handle.call_indirect(site, callee),
            _ => lane.handle.call(site, callee),
        });
        lane.frames.push((site, caller, callee));
    }

    fn ret(&mut self, lane: &mut Lane<'_>) {
        let (site, caller, callee) = lane.frames.pop().expect("open frame");
        self.engine.ret(lane.tid, site, caller, callee);
        drop(lane.guards.pop());
    }

    /// A balanced random batch on top of the lane's open guards, run by
    /// the engine op by op and by the tracker in one `run_batch`.
    fn batch(&mut self, lane: &mut Lane<'_>) {
        let base = lane.frames.len();
        let mut ops = Vec::new();
        for _ in 0..=self.rng.below(24) {
            let depth = lane.frames.len();
            if depth > base && (depth >= MAX_DEPTH || self.rng.below(2) == 0) {
                let (site, caller, callee) = lane.frames.pop().expect("open frame");
                self.engine.ret(lane.tid, site, caller, callee);
                ops.push(BatchOp::Ret);
            } else if depth < MAX_DEPTH {
                let (site, callee, d) = pick_call(&self.u, lane, &mut self.rng);
                let caller = lane.current();
                self.engine.call(lane.tid, site, caller, callee, d, false);
                lane.frames.push((site, caller, callee));
                ops.push(match d {
                    CallDispatch::Indirect => BatchOp::CallIndirect {
                        site,
                        target: callee,
                    },
                    _ => BatchOp::Call {
                        site,
                        target: callee,
                    },
                });
            }
        }
        while lane.frames.len() > base {
            let (site, caller, callee) = lane.frames.pop().expect("open frame");
            self.engine.ret(lane.tid, site, caller, callee);
            ops.push(BatchOp::Ret);
        }
        assert_eq!(lane.handle.run_batch(&ops), Ok(ops.len()));
    }

    /// One random operation on `lane`, then the agreement check.
    fn step(&mut self, lane: &mut Lane<'_>) {
        match self.rng.below(12) {
            0..=5 if lane.frames.len() < MAX_DEPTH => {
                let (site, callee, d) = pick_call(&self.u, lane, &mut self.rng);
                self.call(lane, site, callee, d);
            }
            0..=8 if !lane.frames.is_empty() => self.ret(lane),
            9 => self.batch(lane),
            10 => {
                let (e, _) = self.engine.sample(lane.tid);
                let t = lane.handle.sample();
                if self.exact {
                    assert_eq!(e, t);
                }
                self.decodes_to_truth(lane, &e, &t);
                self.samples += 1;
            }
            _ => {}
        }
        self.check(lane);
    }

    fn unwind(&mut self, lane: &mut Lane<'_>) {
        while !lane.frames.is_empty() {
            self.ret(lane);
        }
    }
}

/// Drives `ops` random operations through both front-ends — main thread
/// only until a second thread is spawned from main's then-current context
/// — then unwinds both threads and hands the run to `check`.
fn drive(config: &DacceConfig, seed: u64, ops: usize, check: impl FnOnce(&mut Run<'_>)) {
    let tracker = Tracker::with_config(config.clone());
    let u = universe(&tracker);
    let mut engine = DacceEngine::new(config.clone(), CostModel::default());
    engine.attach_main(f(MAIN));
    engine.thread_start(ThreadId::MAIN, f(MAIN), None);
    let main = tracker.register_thread(f(MAIN));
    let mut run = Run {
        engine,
        tracker: &tracker,
        u,
        rng: Rng::new(seed),
        exact: !config.reencode_enabled,
        samples: 0,
    };
    let mut lane0 = Lane {
        tid: ThreadId::MAIN,
        handle: &main,
        guards: Vec::new(),
        frames: Vec::new(),
        prefix: vec![(None, f(MAIN))],
        root: f(MAIN),
    };
    let spawn_at = ops / 3;
    for _ in 0..spawn_at {
        run.step(&mut lane0);
    }
    let spawn_site = run.u.spawn_site;
    let worker = tracker.register_spawned_thread(f(WORKER), &main, spawn_site);
    assert_eq!(worker.id(), ThreadId::new(1));
    run.engine
        .thread_start(worker.id(), f(WORKER), Some((ThreadId::MAIN, spawn_site)));
    let mut prefix = lane0.truth();
    prefix.push((Some(spawn_site), f(WORKER)));
    let mut lane1 = Lane {
        tid: worker.id(),
        handle: &worker,
        guards: Vec::new(),
        frames: Vec::new(),
        prefix,
        root: f(WORKER),
    };
    for _ in spawn_at..ops {
        if run.rng.below(2) == 0 {
            run.step(&mut lane0);
        } else {
            run.step(&mut lane1);
        }
    }
    run.unwind(&mut lane1);
    run.unwind(&mut lane0);
    check(&mut run);
}

#[test]
fn contexts_and_counters_agree_without_reencoding() {
    let config = DacceConfig {
        indirect_inline_max: 2,
        ..DacceConfig::no_reencoding()
    };
    for seed in 1..=20 {
        drive(&config, seed, 3_000, |run| {
            let e = run.engine.stats();
            let t = run.tracker.stats();
            assert!(run.samples > 0);
            assert!(
                e.hash_conversions > 0,
                "seed {seed}: an indirect site converts"
            );
            assert_eq!(e.calls, t.calls, "seed {seed}: calls");
            assert_eq!(e.traps, t.traps, "seed {seed}: traps");
            assert_eq!(e.hash_conversions, t.hash_conversions, "seed {seed}");
            assert_eq!(e.compress_hits, t.compress_hits, "seed {seed}");
            assert_eq!(e.ccstack_ops, t.ccstack_ops, "seed {seed}: ccstack_ops");
            assert_eq!(e.samples, t.samples, "seed {seed}: samples");
        });
    }
}

#[test]
fn samples_decode_to_the_true_stack_with_reencoding() {
    let config = DacceConfig {
        indirect_inline_max: 2,
        edge_threshold: 3,
        min_events_between_reencodes: 16,
        reencode_backoff: 1.1,
        reencode_interval_cap: 256,
        compression_min_heat: 1,
        profiler_stride: 7,
        ..DacceConfig::default()
    };
    for seed in 1..=10 {
        drive(&config, seed, 2_000, |run| {
            let _ = run.tracker.profiler_profile();
            let _ = run.engine.profiler_profile();
            let e = run.engine.stats();
            let t = run.tracker.stats();
            assert!(
                e.reencodes > 0 && t.reencodes > 0,
                "seed {seed}: re-encodes"
            );
            assert!(e.compress_hits > 0, "seed {seed}: recursion compresses");
            assert_eq!(e.decode_errors, 0, "seed {seed}: engine decode errors");
            assert_eq!(t.decode_errors, 0, "seed {seed}: tracker decode errors");
            run.engine.check_invariants().expect("engine invariants");
            run.tracker.check_invariants().expect("tracker invariants");
        });
    }
}
