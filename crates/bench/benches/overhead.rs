//! End-to-end wall-clock benchmark: the interpreter running one workload
//! under the null runtime, DACCE and PCCE. This is the real-time
//! counterpart of the cost-model overheads in `figure8` — the *relative*
//! times here cross-check the model's orderings. One op is one
//! interpreted call. Prints only.
//!
//! ```text
//! cargo bench -p dacce-bench --bench overhead
//! ```

use dacce::DacceRuntime;
use dacce_bench::harness::{banner, report, Plan};
use dacce_pcce::{PcceRuntime, ProfilingRuntime};
use dacce_program::runtime::NullRuntime;
use dacce_program::{CostModel, Interpreter};
use dacce_workloads::{driver, BenchSpec, DriverConfig};

fn main() {
    banner("interpreter end to end: null vs DACCE vs PCCE (ns per call)");
    let spec = BenchSpec {
        budget_calls: 30_000,
        ..BenchSpec::tiny("bench-overhead", 77)
    };
    let program = driver::program_of(&spec);
    let cfg = driver::interp_config(&spec, &DriverConfig::default());
    // One interpreted run per repetition.
    let plan = Plan::new(1);
    let interp = || Interpreter::new(&program, cfg.clone());
    let calls = interp().run(&mut NullRuntime::default()).calls as usize;

    report(
        "null",
        plan.measure(calls, || interp().run(&mut NullRuntime::default())),
    );
    report(
        "dacce",
        plan.measure(calls, || interp().run(&mut DacceRuntime::with_defaults())),
    );
    let mut profiler = ProfilingRuntime::new();
    let _ = interp().run(&mut profiler);
    let profile = profiler.into_data();
    let s = plan.measure(calls, || {
        interp().run(&mut PcceRuntime::new(profile.clone(), CostModel::default()))
    });
    report("pcce", s);
}
