//! Concurrent differential test: reader threads sample and decode their
//! calling contexts while a writer thread keeps trapping new edges and
//! forcing re-encodes. Every decoded path must match the oracle (the call
//! chain the reader actually performed), across every encoding generation
//! it happens to land in, and no decode may error.
//!
//! This exercises the snapshot-publication machinery end to end: epoch
//! revalidation, lazy cross-generation migration (decode under the old
//! dictionary, replay under the new patches), trap re-checks under the
//! shared lock, and versioned decoding of samples stamped with older
//! timestamps.

use dacce::config::DacceConfig;
use dacce::tracker::Tracker;
use dacce_callgraph::{CallSiteId, FunctionId};

/// One call-chain step a reader replays: `(site, callee, callee name)`.
type ChainStep = (CallSiteId, FunctionId, String);
/// A reader's private workload: `(worker fn, spawn site, call chain)`.
type ReaderChain = (FunctionId, CallSiteId, Vec<ChainStep>);

/// Tiny deterministic PRNG (xorshift64*) so the interleaving pressure is
/// reproducible modulo scheduling.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

const READERS: usize = 4;
const ROUNDS: usize = 1500;
const DEPTH: usize = 6;
const WRITER_TRAPS: usize = 120;

#[test]
fn decode_stays_correct_during_concurrent_reencodes() {
    // Eager triggers with no back-off: every writer trap can fire a
    // re-encoding, so readers constantly cross encoding generations.
    let cfg = DacceConfig {
        edge_threshold: 1,
        min_events_between_reencodes: 1,
        reencode_backoff: 1.0,
        ..DacceConfig::default()
    };
    let tracker = Tracker::with_config(cfg);
    let main_fn = tracker.define_function("main");
    let main_th = tracker.register_thread(main_fn);

    // Per-reader function/site chains (sites are unique per static call
    // location, so every reader owns its own).
    let mut chains: Vec<ReaderChain> = Vec::new();
    for r in 0..READERS {
        let worker = tracker.define_function(&format!("reader{r}"));
        let spawn_site = tracker.define_call_site();
        let mut chain = Vec::with_capacity(DEPTH);
        for d in 0..DEPTH {
            let name = format!("r{r}_f{d}");
            let f = tracker.define_function(&name);
            let s = tracker.define_call_site();
            chain.push((s, f, name));
        }
        chains.push((worker, spawn_site, chain));
    }
    let writer_fn = tracker.define_function("writer");
    let writer_spawn = tracker.define_call_site();

    std::thread::scope(|scope| {
        let tracker = &tracker;
        let main_th = &main_th;
        // Readers: walk their chain to a random depth, decode at the
        // deepest point and after each unwind step, and compare with the
        // path they actually took.
        for (r, (worker, spawn_site, chain)) in chains.iter().enumerate() {
            scope.spawn(move || {
                let th = tracker.register_spawned_thread(*worker, main_th, *spawn_site);
                let mut rng = Rng(0x9e37_79b9 + r as u64);
                let prefix = format!("main -> reader{r}");
                for _ in 0..ROUNDS {
                    let depth = 1 + (rng.next() as usize) % DEPTH;
                    let mut guards = Vec::with_capacity(depth);
                    let mut expected = prefix.clone();
                    for (s, f, name) in &chain[..depth] {
                        guards.push(th.call(*s, *f));
                        expected.push_str(" -> ");
                        expected.push_str(name);
                    }
                    let path = tracker.decode(&th.sample()).expect("sample decodes");
                    assert_eq!(tracker.format_path(&path), expected);
                    // Unwind, checking one intermediate level as we go.
                    while let Some(g) = guards.pop() {
                        drop(g);
                    }
                    let path = tracker
                        .decode(&th.sample())
                        .expect("unwound sample decodes");
                    assert_eq!(tracker.format_path(&path), prefix);
                }
            });
        }
        // Writer: keeps discovering new edges, each trap re-evaluating the
        // triggers under the shared lock and republishing the encoding.
        scope.spawn(move || {
            let th = tracker.register_spawned_thread(writer_fn, main_th, writer_spawn);
            for i in 0..WRITER_TRAPS {
                let f = tracker.define_function(&format!("hot{i}"));
                let s = tracker.define_call_site();
                let _g = th.call(s, f);
                let path = tracker.decode(&th.sample()).expect("writer sample decodes");
                assert_eq!(
                    tracker.format_path(&path),
                    format!("main -> writer -> hot{i}")
                );
            }
        });
    });

    let stats = tracker.stats();
    assert_eq!(stats.decode_errors, 0, "no decode may ever fail");
    assert!(
        stats.reencodes >= 20,
        "writer must have forced many re-encodes, got {}",
        stats.reencodes
    );
    assert!(
        stats.calls as usize >= READERS * ROUNDS + WRITER_TRAPS,
        "all calls accounted for"
    );
}

/// One level of a reader's indirect chain. A call site is one static
/// location in one function, so the site used at level `d` depends on
/// which of the two level-`d-1` functions is executing: `sites[p]` is the
/// indirect site inside parent-pick `p`, and either one may invoke either
/// of `fns` — every site ends up with two known targets.
struct PolyLevel {
    sites: [CallSiteId; 2],
    fns: [FunctionId; 2],
    names: [String; 2],
}

/// Stale-cache window: readers drive *indirect* sites — whose resolutions
/// land in the per-thread inline cache — with alternating targets, partly
/// through RAII guards and partly through `run_batch`, while a writer
/// forces re-encode after re-encode. Every republish changes the snapshot
/// epoch, so each cached entry filled before it becomes stale; a probe
/// that ever honoured one would add a stale delta and derail every decode
/// that follows. The oracle is the call chain the reader actually
/// performed.
#[test]
fn inline_cache_stays_generation_safe_during_reencodes() {
    use dacce::BatchOp;

    let cfg = DacceConfig {
        edge_threshold: 1,
        min_events_between_reencodes: 1,
        reencode_backoff: 1.0,
        ..DacceConfig::default()
    };
    let tracker = Tracker::with_config(cfg);
    let main_fn = tracker.define_function("main");
    let main_th = tracker.register_thread(main_fn);

    let mut chains: Vec<(FunctionId, CallSiteId, Vec<PolyLevel>)> = Vec::new();
    for r in 0..READERS {
        let worker = tracker.define_function(&format!("reader{r}"));
        let spawn_site = tracker.define_call_site();
        let mut chain = Vec::with_capacity(DEPTH);
        for d in 0..DEPTH {
            let names = [format!("r{r}_f{d}_a"), format!("r{r}_f{d}_b")];
            chain.push(PolyLevel {
                sites: [tracker.define_call_site(), tracker.define_call_site()],
                fns: [
                    tracker.define_function(&names[0]),
                    tracker.define_function(&names[1]),
                ],
                names,
            });
        }
        chains.push((worker, spawn_site, chain));
    }
    let writer_fn = tracker.define_function("writer");
    let writer_spawn = tracker.define_call_site();

    std::thread::scope(|scope| {
        let tracker = &tracker;
        let main_th = &main_th;
        for (r, (worker, spawn_site, chain)) in chains.iter().enumerate() {
            scope.spawn(move || {
                let th = tracker.register_spawned_thread(*worker, main_th, *spawn_site);
                let mut rng = Rng(0xdead_beef + r as u64);
                let prefix = format!("main -> reader{r}");
                for round in 0..ROUNDS {
                    let bits = rng.next();
                    if round % 4 == 3 {
                        // Batched drive: one balanced batch walking the
                        // full chain down and back up.
                        let mut ops = Vec::with_capacity(2 * DEPTH);
                        let mut prev = 0usize;
                        for (d, level) in chain.iter().enumerate() {
                            let pick = (bits >> d) as usize & 1;
                            ops.push(BatchOp::CallIndirect {
                                site: level.sites[prev],
                                target: level.fns[pick],
                            });
                            prev = pick;
                        }
                        for _ in 0..DEPTH {
                            ops.push(BatchOp::Ret);
                        }
                        th.run_batch(&ops).expect("balanced batch");
                        let path = tracker.decode(&th.sample()).expect("post-batch decodes");
                        assert_eq!(tracker.format_path(&path), prefix);
                    } else {
                        // Guard drive to a random depth with per-level
                        // target selection, decoding at the deepest point.
                        let depth = 1 + (rng.next() as usize) % DEPTH;
                        let mut guards = Vec::with_capacity(depth);
                        let mut expected = prefix.clone();
                        let mut prev = 0usize;
                        for (d, level) in chain[..depth].iter().enumerate() {
                            let pick = (bits >> d) as usize & 1;
                            guards.push(th.call_indirect(level.sites[prev], level.fns[pick]));
                            expected.push_str(" -> ");
                            expected.push_str(&level.names[pick]);
                            prev = pick;
                        }
                        let path = tracker.decode(&th.sample()).expect("sample decodes");
                        assert_eq!(tracker.format_path(&path), expected);
                        while let Some(g) = guards.pop() {
                            drop(g);
                        }
                    }
                }
            });
        }
        scope.spawn(move || {
            let th = tracker.register_spawned_thread(writer_fn, main_th, writer_spawn);
            for i in 0..WRITER_TRAPS {
                let f = tracker.define_function(&format!("hot{i}"));
                let s = tracker.define_call_site();
                let _g = th.call(s, f);
                let path = tracker.decode(&th.sample()).expect("writer sample decodes");
                assert_eq!(
                    tracker.format_path(&path),
                    format!("main -> writer -> hot{i}")
                );
            }
        });
    });

    tracker
        .check_invariants()
        .expect("invariants hold after the storm");
    let stats = tracker.stats();
    assert_eq!(stats.decode_errors, 0, "no decode may ever fail");
    assert!(
        stats.reencodes >= 20,
        "writer must have forced many re-encodes, got {}",
        stats.reencodes
    );
    assert!(
        stats.icache_hits > 0,
        "indirect fast path must have produced cache hits"
    );
    assert!(
        stats.icache_misses > 0,
        "re-encodes and target flips must have produced cache misses"
    );
}
