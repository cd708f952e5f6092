//! Microbenchmarks of the DACCE engine's hot paths: the per-call
//! instrumentation work a real deployment would inline. One op is one
//! call+return pair (one snapshot for `sample_snapshot`). Prints only.
//!
//! ```text
//! cargo bench -p dacce-bench --bench engine
//! ```

use dacce::{DacceConfig, DacceEngine};
use dacce_bench::harness::{banner, report, Plan};
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::runtime::CallDispatch;
use dacce_program::{CostModel, ThreadId};

/// Ops per repetition.
const OPS: usize = 200_000;

use CallDispatch::{Direct, Indirect};

/// Engine with `main` attached and its thread started.
fn engine(cfg: DacceConfig) -> DacceEngine {
    let mut e = DacceEngine::new(cfg, CostModel::default());
    e.attach_main(FunctionId::new(0));
    e.thread_start(ThreadId::MAIN, FunctionId::new(0), None);
    e
}

/// One call edge on the main thread: `(site, caller, callee, dispatch)`.
type Edge = (u32, u32, u32, CallDispatch);

/// Enters the edge's callee.
fn call(e: &mut DacceEngine, (site, caller, callee, dispatch): Edge) {
    let (s, f, g) = (
        CallSiteId::new(site),
        FunctionId::new(caller),
        FunctionId::new(callee),
    );
    e.call(ThreadId::MAIN, s, f, g, dispatch, false);
}

/// Leaves the frame [`call`] entered.
fn ret(e: &mut DacceEngine, (site, caller, callee, _): Edge) {
    let (s, f, g) = (
        CallSiteId::new(site),
        FunctionId::new(caller),
        FunctionId::new(callee),
    );
    e.ret(ThreadId::MAIN, s, f, g);
}

/// Engine with a small encoded graph: discovering the second edge
/// triggers a re-encode, after which both are encoded.
fn encoded_engine() -> DacceEngine {
    let mut e = engine(DacceConfig {
        edge_threshold: 2,
        min_events_between_reencodes: 1,
        ..DacceConfig::default()
    });
    let (outer, inner) = ((0, 0, 1, Direct), (1, 1, 2, Direct));
    call(&mut e, outer);
    call(&mut e, inner);
    ret(&mut e, inner);
    ret(&mut e, outer);
    e
}

/// Times `OPS` call+return pairs over `edge`.
fn roundtrip(name: &str, plan: Plan, e: &mut DacceEngine, edge: Edge) {
    let s = plan.measure(plan.work, || {
        for _ in 0..plan.work {
            call(e, edge);
            ret(e, edge);
        }
    });
    report(name, s);
}

fn main() {
    banner("DACCE engine hot paths (ns per call+return pair)");
    let plan = Plan::new(OPS);
    roundtrip(
        "encoded_call_return",
        plan,
        &mut encoded_engine(),
        (0, 0, 1, Direct),
    );

    let mut e = engine(DacceConfig {
        edge_threshold: 2,
        min_events_between_reencodes: 1,
        compression_min_heat: 1,
        ..DacceConfig::default()
    });
    call(&mut e, (0, 0, 1, Direct));
    // Make the self edge hot enough to be compressed after re-encoding.
    let recursion = (1, 1, 1, Direct);
    for _ in 0..128 {
        call(&mut e, recursion);
        ret(&mut e, recursion);
    }
    roundtrip("compressed_recursion_call_return", plan, &mut e, recursion);

    let mut e = engine(DacceConfig {
        indirect_inline_max: 2,
        ..DacceConfig::default()
    });
    for t in 1..=8 {
        call(&mut e, (0, 0, t, Indirect));
        ret(&mut e, (0, 0, t, Indirect));
    }
    roundtrip("indirect_hash_dispatch", plan, &mut e, (0, 0, 5, Indirect));

    let mut e = encoded_engine();
    call(&mut e, (0, 0, 1, Direct));
    call(&mut e, (1, 1, 2, Direct));
    let s = plan.measure(plan.work, || {
        for _ in 0..plan.work {
            std::hint::black_box(e.sample(ThreadId::MAIN));
        }
    });
    report("sample_snapshot", s);
}
