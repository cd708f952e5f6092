//! The four workloads: how each one's trace is generated from the seed
//! and how its tracker is set up before the measured drive.
//!
//! Why each workload exists is recorded in `perfbench/README.md`.

use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::runtime::{CallDispatch, CallEvent, ContextRuntime, ReturnEvent, SampleResult};
use dacce_program::{Interpreter, OracleStack, Program, ThreadId};
use dacce_workloads::batch::{ThreadStart, TraceOp, WorkloadTrace};
use dacce_workloads::{family_trace, generate_program, interp_config, spec2006_benchmarks};
use dacce_workloads::{BenchSpec, DriverConfig};

/// How the tracker is prepared before the first measured op.
pub enum Setup {
    /// A fresh tracker: every edge traps on first use.
    Cold,
    /// Warm-started from the static call graph of `program`
    /// (`dacce_analyze::warm_seed` + `Tracker::warm_start`).
    Warm(Box<Program>),
    /// Warmed by one pass over the whole trace, then superops mined from
    /// its streams and installed: the measured pass replays a trace the
    /// tracker has already seen.
    Superops,
}

/// One workload, generated from its name and the seed.
pub struct Workload {
    /// The workload name as given on the command line.
    pub name: &'static str,
    /// Tracker preparation before the measured drive.
    pub setup: Setup,
    /// The inputs of one run: several traces, each with the seed it was
    /// generated from.
    pub traces: Vec<(u64, WorkloadTrace)>,
    /// Functions to define: every id a trace (or the program) uses is below.
    pub functions: u32,
    /// Call sites to define: every id a trace (or the program) uses is below.
    pub sites: u32,
}

/// The workload names, in the order the documentation lists them.
pub const NAMES: [&str; 4] = [
    "server-steady",
    "dyndispatch-cold",
    "gcc-warm",
    "thread-churn",
];

/// Traces replayed by one run of a family workload, in rotation. How many
/// re-encodings a trace triggers — and with them the export's size and the
/// drive's slow-path share — depends on its seed, so a run covers many
/// seeds rather than one.
const FAMILY_INPUTS: u64 = 32;
/// Traces replayed by one run of `gcc-warm`: fewer and longer, since its
/// repetitions take seconds (the invariant audit of the seeded graph
/// alone ≈1.3 s) and every trace runs at least once.
const GCC_INPUTS: u64 = 4;
/// Input seeds of run seed `s` are `s * SEED_STRIDE ..`, so runs of
/// different seeds share no trace.
const SEED_STRIDE: u64 = 64;

/// Family scale of `server-steady`: 400 requests per worker.
const SERVER_SCALE: f64 = 1.0;
/// Family scale of `dyndispatch-cold`: 1200 dispatch iterations per thread.
const DYNDISPATCH_SCALE: f64 = 1.0;
/// Family scale of `thread-churn`: 1000 spawned threads plus main.
const CHURN_SCALE: f64 = 1.0;
/// Share of the 403.gcc analog's 1.5M-call budget replayed by `gcc-warm`.
const GCC_SCALE: f64 = 0.4;

impl Workload {
    /// Generates the named workload's inputs from `seed`: the traces of
    /// seeds `seed * 64 ..`, 32 for a family workload, 4 for `gcc-warm`.
    /// `None` for an unknown name.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let count = if name == "gcc-warm" {
            GCC_INPUTS
        } else {
            FAMILY_INPUTS
        };
        let seeds = (0..count).map(|i| seed.wrapping_mul(SEED_STRIDE).wrapping_add(i));
        let family = |family: &str| -> Vec<(u64, WorkloadTrace)> {
            let scale = match family {
                "server-rr" => SERVER_SCALE,
                "dyndispatch" => DYNDISPATCH_SCALE,
                _ => CHURN_SCALE,
            };
            seeds
                .clone()
                .map(|s| (s, family_trace(family, s, scale).expect("a known family")))
                .collect()
        };
        let (name, setup, traces) = match name {
            "server-steady" => (NAMES[0], Setup::Superops, family("server-rr")),
            "dyndispatch-cold" => (NAMES[1], Setup::Cold, family("dyndispatch")),
            "gcc-warm" => {
                // The program is the suite's fixed 403.gcc analog (tail-free:
                // the tracker front-end has no tail-call entry point); the
                // seed drives only the interpreter's walk over it, so every
                // seed warm-starts from the same static seed.
                let mut spec: BenchSpec = spec2006_benchmarks()
                    .into_iter()
                    .find(|s| s.name == "403.gcc")
                    .expect("the suite has a 403.gcc analog");
                spec.tail_fraction = 0.0;
                let program = generate_program(&spec);
                let cfg = DriverConfig {
                    scale: GCC_SCALE,
                    ..DriverConfig::default()
                };
                let traces = seeds
                    .map(|s| {
                        let mut icfg = interp_config(&spec, &cfg);
                        icfg.seed = s;
                        icfg.sample_every = 0;
                        icfg.validate = false;
                        let mut rec = Recorder::default();
                        let _ = Interpreter::new(&program, icfg).run(&mut rec);
                        (s, rec.trace)
                    })
                    .collect();
                (NAMES[2], Setup::Warm(Box::new(program)), traces)
            }
            "thread-churn" => (NAMES[3], Setup::Cold, family("thread-churn")),
            _ => return None,
        };
        let (mut functions, mut sites) = (0u32, 0u32);
        let mut see = |f: FunctionId, s: Option<CallSiteId>| {
            functions = functions.max(f.raw() + 1);
            if let Some(s) = s {
                sites = sites.max(s.raw() + 1);
            }
        };
        for (_, trace) in &traces {
            for start in &trace.threads {
                see(start.root, start.parent.map(|(_, s)| s));
            }
            for ops in trace.traces.values() {
                for op in ops {
                    if let TraceOp::Call { site, target, .. } = *op {
                        see(target, Some(site));
                    }
                }
            }
        }
        if let Setup::Warm(program) = &setup {
            functions = functions.max(program.functions.len() as u32);
            sites = sites.max(program.site_count);
        }
        Some(Workload {
            name,
            setup,
            traces,
            functions,
            sites,
        })
    }
}

/// Records the interpreter's call/return events of a tail-free program as
/// a [`WorkloadTrace`].
#[derive(Default)]
struct Recorder {
    trace: WorkloadTrace,
}

impl ContextRuntime for Recorder {
    fn name(&self) -> &'static str {
        "perfbench-recorder"
    }

    fn attach(&mut self, _program: &Program) {}

    fn on_thread_start(
        &mut self,
        tid: ThreadId,
        root: FunctionId,
        parent: Option<(ThreadId, CallSiteId)>,
    ) {
        self.trace.threads.push(ThreadStart { tid, root, parent });
        self.trace.traces.entry(tid).or_default();
    }

    fn on_call(&mut self, ev: &CallEvent, _stack: &OracleStack) -> u64 {
        assert!(!ev.tail, "the program is generated tail-free");
        self.trace
            .traces
            .entry(ev.tid)
            .or_default()
            .push(TraceOp::Call {
                site: ev.site,
                target: ev.callee,
                indirect: matches!(ev.dispatch, CallDispatch::Indirect),
            });
        0
    }

    fn on_return(&mut self, ev: &ReturnEvent, _stack: &OracleStack) -> u64 {
        self.trace
            .traces
            .entry(ev.tid)
            .or_default()
            .push(TraceOp::Ret);
        0
    }

    fn sample(&mut self, _tid: ThreadId, _events: u64) -> (SampleResult, u64) {
        (SampleResult::Unsupported, 0)
    }
}
