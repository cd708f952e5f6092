//! Benchmarks of Algorithm 1: decoding encoded contexts of varying shapes
//! back into calling contexts. One op is one whole-context decode.
//! Prints only.
//!
//! ```text
//! cargo bench -p dacce-bench --bench decode
//! ```

use dacce::{DacceConfig, DacceEngine, EncodedContext};
use dacce_bench::harness::{banner, report, Plan};
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::runtime::CallDispatch;
use dacce_program::{CostModel, ThreadId};

/// Decodes per repetition.
const DECODES: usize = 500;

/// Runs `calls` (site, caller, callee) direct calls on a fresh engine
/// and returns it with the snapshot of the resulting live context.
fn live_context(cfg: DacceConfig, calls: &[(u32, u32, u32)]) -> (DacceEngine, EncodedContext) {
    let mut e = DacceEngine::new(cfg, CostModel::default());
    e.attach_main(FunctionId::new(0));
    e.thread_start(ThreadId::MAIN, FunctionId::new(0), None);
    for &(site, caller, callee) in calls {
        let (s, f, g) = (
            CallSiteId::new(site),
            FunctionId::new(caller),
            FunctionId::new(callee),
        );
        e.call(ThreadId::MAIN, s, f, g, CallDispatch::Direct, false);
    }
    let snap = e.snapshot(ThreadId::MAIN);
    (e, snap)
}

fn bench(name: String, plan: Plan, (e, snap): (DacceEngine, EncodedContext)) {
    let s = plan.measure(plan.work, || {
        for _ in 0..plan.work {
            std::hint::black_box(e.decode(&snap).expect("decodes"));
        }
    });
    report(&name, s);
}

fn main() {
    banner("Algorithm 1 decode (ns per decoded context)");
    let plan = Plan::new(DECODES);
    // A live chain context, all encoded (one re-encode).
    let chain = DacceConfig {
        edge_threshold: 4,
        min_events_between_reencodes: 1,
        ..DacceConfig::default()
    };
    for depth in [8u32, 64, 512] {
        let calls: Vec<_> = (0..depth).map(|i| (i, i, i + 1)).collect();
        bench(
            format!("encoded_chain/{depth}"),
            plan,
            live_context(chain.clone(), &calls),
        );
    }
    // Deep self-recursion with compression: constant-size ccStack no
    // matter the logical depth.
    let compressed = DacceConfig {
        edge_threshold: 2,
        min_events_between_reencodes: 1,
        compression_min_heat: 1,
        ..DacceConfig::default()
    };
    for depth in [64usize, 1024, 8192] {
        let mut calls = vec![(1, 1, 1); depth + 1];
        calls[0] = (0, 0, 1);
        let name = format!("compressed_recursion/{depth}");
        bench(name, plan, live_context(compressed.clone(), &calls));
    }
}
