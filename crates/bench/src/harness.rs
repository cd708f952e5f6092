//! The one timing harness every bench under `crates/bench/benches` runs on.
//!
//! * **Plan** — discarded warm-up repetitions, then N measured ones,
//!   summarised as a median and an interquartile range. `DACCE_BENCH_QUICK`
//!   (read here and nowhere else) lowers N and nothing else: the work of
//!   one repetition is fixed by the bench, so quick and full runs time the
//!   same thing and a quick run can be gated against a full baseline.
//!   The cases of one bench run interleaved, one repetition each per round.
//! * **Table** — one CSV per gated bench in the workspace `results/`, with
//!   the columns `<key columns…>,median_ns,iqr_ns[,extras]`.
//! * **Chain** — a tracker with one pre-warmed depth-[`DEPTH`] call chain
//!   per thread, driven by guards or batches on scoped threads.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dacce::tracker::{BatchOp, ThreadHandle};
use dacce::{DacceConfig, Tracker};
use dacce_callgraph::{CallSiteId, FunctionId};

use crate::Options;

/// Warm-up repetitions run and discarded before measuring.
const WARMUP: usize = 3;
/// Measured repetitions in a full run.
const FULL_REPS: usize = 31;
/// Measured repetitions in a quick run (`DACCE_BENCH_QUICK=1`).
const QUICK_REPS: usize = 9;
/// An IQR above this share of the median marks a row as noisy.
const NOISY_IQR: f64 = 0.10;

/// Whether `DACCE_BENCH_QUICK` asks for a quick run (set and not `0`).
fn quick() -> bool {
    std::env::var("DACCE_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Median and interquartile range of one measured series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Third minus first quartile (linear interpolation between ranks).
    pub iqr: f64,
}

impl Summary {
    /// Summarises a non-empty sample set.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let pos = p * (sorted.len() - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        };
        Summary {
            median: q(0.5),
            iqr: q(0.75) - q(0.25),
        }
    }

    /// Multiplies both figures by `k` (a modeled row derived from a
    /// measured one).
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            median: self.median * k,
            iqr: self.iqr * k,
        }
    }
}

/// How many repetitions to run, and how much work one repetition does.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    warmup: usize,
    reps: usize,
    /// Units of work per repetition (rounds, calls, ...), as the bench
    /// defines them; identical in quick and full mode.
    pub work: usize,
}

impl Plan {
    /// The plan for the mode `DACCE_BENCH_QUICK` selects.
    pub fn new(work: usize) -> Plan {
        Plan::for_mode(quick(), work)
    }

    /// The plan for an explicit mode; only the repetition count differs.
    fn for_mode(quick: bool, work: usize) -> Plan {
        Plan {
            warmup: WARMUP,
            reps: if quick { QUICK_REPS } else { FULL_REPS },
            work,
        }
    }

    /// Times `rep`, which performs `ops` operations, and returns the
    /// per-op nanoseconds. What `rep` returns is dropped after the clock
    /// stops.
    pub fn measure<R>(&self, ops: usize, mut rep: impl FnMut() -> R) -> Summary {
        self.run(&[ops], |_| (), |_, ()| rep())[0]
    }

    /// Times several cases in round-robin order: case `i` is `rep(i)`,
    /// performing `ops[i]` operations. Each round runs one repetition of
    /// every case, so a slow phase of a shared machine hits all cases
    /// alike and their ratios stay fair.
    pub fn measure_each<R>(&self, ops: &[usize], mut rep: impl FnMut(usize) -> R) -> Vec<Summary> {
        self.run(ops, |_| (), |i, ()| rep(i))
    }

    /// Like [`Plan::measure`], with an untimed `setup` before every
    /// repetition whose output `rep` consumes.
    pub fn measure_with<S, R>(
        &self,
        ops: usize,
        mut setup: impl FnMut() -> S,
        mut rep: impl FnMut(S) -> R,
    ) -> Summary {
        self.run(&[ops], |_| setup(), |_, input| rep(input))[0]
    }

    /// The one timing loop: warm-up rounds, then measured rounds, each
    /// running every case once with its untimed setup first.
    fn run<S, R>(
        &self,
        ops: &[usize],
        mut setup: impl FnMut(usize) -> S,
        mut rep: impl FnMut(usize, S) -> R,
    ) -> Vec<Summary> {
        let mut samples = vec![Vec::with_capacity(self.reps); ops.len()];
        for round in 0..self.warmup + self.reps {
            for (i, &n) in ops.iter().enumerate() {
                let input = setup(i);
                let t0 = Instant::now();
                let out = rep(i, input);
                let ns = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;
                drop(out);
                if round >= self.warmup {
                    samples[i].push(ns);
                }
            }
        }
        samples.iter().map(|s| Summary::of(s)).collect()
    }
}

/// Prints the bench title and the machine line: cores and CPU model.
pub fn banner(title: &str) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mode = if quick() { "quick" } else { "full" };
    println!("{title}");
    println!("machine: {cores} cores, {cpu} ({mode} mode)");
}

/// Prints one measured row: median, IQR and a `noisy` flag past 10%.
pub fn report(name: &str, s: Summary) {
    let spread = s.iqr / s.median.max(f64::MIN_POSITIVE);
    let flag = if spread > NOISY_IQR { "  noisy" } else { "" };
    println!(
        "  {name:<34} {:>12.2} ns  iqr {:>9.2} ({:>5.1}%){flag}",
        s.median,
        s.iqr,
        spread * 100.0
    );
}

/// The workspace `results/` directory (benches run with the package
/// directory as their working directory).
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A results CSV: `<key columns…>,median_ns,iqr_ns[,extras]`.
pub struct Table {
    name: &'static str,
    csv: String,
}

impl Table {
    /// Starts `results/<name>` with the given key and extra columns.
    pub fn new(name: &'static str, keys: &[&str], extras: &[&str]) -> Table {
        let mut cols = keys.to_vec();
        cols.extend(["median_ns", "iqr_ns"]);
        cols.extend(extras);
        Table {
            name,
            csv: cols.join(",") + "\n",
        }
    }

    /// Adds and prints one row.
    pub fn row(&mut self, keys: &[&str], s: Summary, extras: &[String]) {
        report(&keys.join("/"), s);
        let mut line = keys.join(",");
        let _ = write!(line, ",{:.2},{:.2}", s.median, s.iqr);
        for e in extras {
            let _ = write!(line, ",{e}");
        }
        self.csv += &line;
        self.csv.push('\n');
    }

    /// Writes the CSV under [`results_dir`].
    pub fn write(self) {
        let opts = Options {
            out: results_dir(),
            ..Options::default()
        };
        opts.write_csv(self.name, &self.csv);
        println!("wrote results/{}", self.name);
    }
}

/// Nesting depth of a [`Chain`] round (frames entered then unwound).
pub const DEPTH: usize = 4;
/// Rounds folded into one `run_batch` call (`2 * DEPTH` ops each).
pub const ROUNDS_PER_BATCH: usize = 16;
/// Rounds each thread runs per repetition: a whole number of batches,
/// and enough work that thread spawn/join and scheduler time slices on
/// an oversubscribed machine average out.
pub const CHAIN_ROUNDS: usize = ROUNDS_PER_BATCH * 4_000;

/// A config that re-encodes eagerly, so warmed edges are encoded.
pub fn eager_config() -> DacceConfig {
    DacceConfig {
        edge_threshold: 1,
        min_events_between_reencodes: 1,
        ..DacceConfig::default()
    }
}

/// One batch program: `ROUNDS_PER_BATCH` rounds of `DEPTH` calls through
/// `sites` to `fns`, then `DEPTH` returns.
pub fn chain_batch(sites: &[CallSiteId], fns: &[FunctionId]) -> Vec<BatchOp> {
    let round = sites
        .iter()
        .zip(fns)
        .map(|(&site, &target)| BatchOp::Call { site, target })
        .chain(sites.iter().map(|_| BatchOp::Ret));
    round
        .cycle()
        .take(ROUNDS_PER_BATCH * 2 * sites.len())
        .collect()
}

/// A tracker with one spawned thread per worker, each owning a distinct
/// depth-[`DEPTH`] chain of call sites that is already encoded, so driving
/// it exercises only the encoded fast path.
pub struct Chain {
    /// The tracker under test.
    pub tracker: Tracker,
    handles: Vec<ThreadHandle>,
    sites: Vec<Vec<CallSiteId>>,
    depth_fns: Vec<FunctionId>,
    /// Per-thread batch program (see [`chain_batch`]).
    pub batches: Vec<Vec<BatchOp>>,
}

impl Chain {
    /// Builds the tracker under `config` and warms every chain edge.
    pub fn new(threads: usize, config: DacceConfig) -> Chain {
        let tracker = Tracker::with_config(config);
        let f_main = tracker.define_function("main");
        let roots: Vec<FunctionId> = (0..threads)
            .map(|w| tracker.define_function(&format!("worker{w}")))
            .collect();
        let depth_fns: Vec<FunctionId> = (0..DEPTH)
            .map(|d| tracker.define_function(&format!("level{d}")))
            .collect();
        let spawn_site = tracker.define_call_site();
        let sites: Vec<Vec<CallSiteId>> = (0..threads)
            .map(|_| (0..DEPTH).map(|_| tracker.define_call_site()).collect())
            .collect();
        let main_th = tracker.register_thread(f_main);
        let handles: Vec<ThreadHandle> = roots
            .iter()
            .map(|&root| tracker.register_spawned_thread(root, &main_th, spawn_site))
            .collect();
        for (th, sites) in handles.iter().zip(&sites) {
            for _ in 0..4 {
                guard_round(th, sites, &depth_fns);
            }
        }
        Chain {
            batches: sites.iter().map(|s| chain_batch(s, &depth_fns)).collect(),
            tracker,
            handles,
            sites,
            depth_fns,
        }
    }

    /// Call/return pairs that `rounds` rounds on every thread execute.
    pub fn ops(&self, rounds: usize) -> usize {
        self.handles.len() * rounds * DEPTH
    }

    /// Every thread runs `rounds` rounds with one RAII guard per call.
    pub fn drive_guards(&self, rounds: usize) {
        std::thread::scope(|scope| {
            for (th, sites) in self.handles.iter().zip(&self.sites) {
                scope.spawn(move || {
                    for _ in 0..rounds {
                        guard_round(th, sites, &self.depth_fns);
                    }
                });
            }
        });
    }

    /// Every thread runs `rounds` rounds (a multiple of
    /// [`ROUNDS_PER_BATCH`]) as `run_batch` calls.
    pub fn drive_batches(&self, rounds: usize) {
        std::thread::scope(|scope| {
            for (th, ops) in self.handles.iter().zip(&self.batches) {
                scope.spawn(move || {
                    for _ in 0..rounds / ROUNDS_PER_BATCH {
                        th.run_batch(ops).expect("balanced batch");
                    }
                });
            }
        });
    }
}

/// One round on `th`: enter the chain, then unwind it innermost first.
pub fn guard_round(th: &ThreadHandle, sites: &[CallSiteId], fns: &[FunctionId]) {
    let mut guards: Vec<_> = sites
        .iter()
        .zip(fns)
        .map(|(&s, &f)| th.call(s, f))
        .collect();
    while let Some(g) = guards.pop() {
        drop(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_iqr_of_an_odd_count() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.iqr, 2.0);
    }

    #[test]
    fn median_and_iqr_of_an_even_count() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.iqr, 1.5);
    }

    #[test]
    fn a_single_sample_is_its_own_median_with_no_spread() {
        let s = Summary::of(&[7.5]);
        assert_eq!(
            s,
            Summary {
                median: 7.5,
                iqr: 0.0
            }
        );
    }

    #[test]
    fn quick_and_full_plans_share_the_work_per_repetition() {
        let (q, f) = (Plan::for_mode(true, 2_000), Plan::for_mode(false, 2_000));
        assert_eq!(q.work, f.work);
        assert_eq!(q.warmup, f.warmup);
        assert!(0 < q.reps && q.reps < f.reps);
    }

    #[test]
    fn measure_discards_warmup_repetitions() {
        let plan = Plan::for_mode(true, 1);
        let mut calls = 0;
        let _ = plan.measure(1, || calls += 1);
        assert_eq!(calls, plan.warmup + plan.reps);
    }

    #[test]
    fn table_columns_put_median_and_iqr_after_the_keys() {
        let mut t = Table::new("t.csv", &["threads", "variant"], &["hit_rate"]);
        let s = Summary {
            median: 8.1,
            iqr: 0.5,
        };
        t.row(&["1", "on"], s, &["1.0000".into()]);
        assert_eq!(
            t.csv,
            "threads,variant,median_ns,iqr_ns,hit_rate\n1,on,8.10,0.50,1.0000\n"
        );
    }

    #[test]
    fn chain_batch_is_balanced_rounds_of_calls_then_returns() {
        let sites: Vec<_> = (0..DEPTH as u32).map(CallSiteId::new).collect();
        let fns: Vec<_> = (1..=DEPTH as u32).map(FunctionId::new).collect();
        let ops = chain_batch(&sites, &fns);
        assert_eq!(ops.len(), ROUNDS_PER_BATCH * 2 * DEPTH);
        assert!(ops[..DEPTH]
            .iter()
            .all(|o| matches!(o, BatchOp::Call { .. })));
        assert!(ops[DEPTH..2 * DEPTH]
            .iter()
            .all(|o| matches!(o, BatchOp::Ret)));
        let round = |r: usize| format!("{:?}", &ops[r * 2 * DEPTH..(r + 1) * 2 * DEPTH]);
        assert_eq!(round(0), round(ROUNDS_PER_BATCH - 1));
    }

    #[test]
    fn chain_drives_stay_on_the_encoded_path() {
        let chain = Chain::new(2, eager_config());
        let traps = chain.tracker.stats().traps;
        chain.drive_guards(ROUNDS_PER_BATCH);
        chain.drive_batches(ROUNDS_PER_BATCH);
        let stats = chain.tracker.stats();
        assert_eq!(stats.traps, traps, "warmed chains never trap");
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(chain.ops(ROUNDS_PER_BATCH), 2 * ROUNDS_PER_BATCH * DEPTH);
    }
}
