//! One repetition of the whole public pipeline over one input, and the
//! checks of its outputs against the trace oracle.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dacce::{
    decode_parallel, decode_serial, export_tracker_state, import, BatchOp, DacceConfig, DacceStats,
    DecodeError, DecodedStream, EncodedContext, FragmentError, ParallelDecodeReport, Tracker,
};
use dacce_program::ContextPath;
use dacce_workloads::batch::{TraceOp, WorkloadTrace};
use dacce_workloads::journal::{DEFAULT_SEAM_EVERY, JOURNAL_SAMPLE_EVERY};
use dacce_workloads::{leaf_weights, mine_windows, record_journal};

use crate::calib;
use crate::oracle::{Renaming, TraceOracle};
use crate::plan::{self, Step, ThreadPlan, BATCH_WINDOW};
use crate::spans::{Layer, Off, Tracer};
use crate::workload::{Setup, Workload};

/// Worker threads of the parallel offline decode (sized for 2 CPUs).
pub const DECODE_WORKERS: usize = 2;

/// Drive ops per timed chunk: a chunk closes at the first step boundary
/// at or after this many ops.
const CHUNK_OPS: usize = 256;

fn config() -> DacceConfig {
    DacceConfig::default()
}

/// One trace and everything derived from it before any timing.
pub struct Input {
    /// The seed the trace was generated from.
    pub seed: u64,
    trace: WorkloadTrace,
    plans: Vec<ThreadPlan>,
    /// Per decode point of the drive, in plan order: the oracle's context.
    expected: Vec<ContextPath>,
    /// Per journal decode point, thread-major: thread id and the oracle's
    /// context.
    journal_expected: Vec<(u64, ContextPath)>,
    /// For a superop set-up, the op streams the miner reads.
    warm_streams: Vec<Vec<BatchOp>>,
    /// Threads of the trace.
    pub threads: usize,
    /// Ops of the trace.
    pub trace_ops: usize,
    /// Ops the drive replays through `run_batch`.
    pub batched_ops: usize,
    /// Guard calls and drops of the drive, including exit unwinds.
    pub guard_ops: usize,
    /// Decode points of the drive.
    pub decode_points: usize,
    /// Decode points of the journal.
    pub journal_points: usize,
}

impl Input {
    /// Plans the drive of `trace` and derives every expected context.
    pub fn new(seed: u64, trace: WorkloadTrace, setup: &Setup) -> Self {
        let plans = plan::plan(&trace);
        let oracle = TraceOracle::new(&trace);
        let expected: Vec<ContextPath> = plans
            .iter()
            .flat_map(|p| oracle.paths_at(p.tid, &p.sample_at))
            .collect();
        // `record_journal` takes a decode point every JOURNAL_SAMPLE_EVERY
        // ops of a thread and one at its exit.
        let journal_expected: Vec<(u64, ContextPath)> = trace
            .threads
            .iter()
            .flat_map(|t| {
                let n = trace.traces[&t.tid].len();
                let every = JOURNAL_SAMPLE_EVERY as usize;
                let mut at: Vec<usize> = (1..=n / every).map(|k| k * every).collect();
                if n > 0 {
                    at.push(n);
                }
                let tid = u64::from(t.tid.raw());
                oracle
                    .paths_at(t.tid, &at)
                    .into_iter()
                    .map(move |p| (tid, p))
            })
            .collect();
        let warm_streams = if matches!(setup, Setup::Superops) {
            trace
                .threads
                .iter()
                .map(|t| trace.traces[&t.tid].iter().map(batch_op).collect())
                .collect()
        } else {
            Vec::new()
        };
        Input {
            seed,
            threads: plans.len(),
            trace_ops: trace.traces.values().map(Vec::len).sum(),
            batched_ops: plans.iter().map(|p| p.batched_ops).sum(),
            guard_ops: plans.iter().map(|p| p.guard_ops).sum(),
            decode_points: expected.len(),
            journal_points: journal_expected.len(),
            trace,
            plans,
            expected,
            journal_expected,
            warm_streams,
        }
    }

    /// Every op the drive replays.
    pub fn drive_ops(&self) -> usize {
        self.batched_ops + self.guard_ops
    }
}

fn batch_op(op: &TraceOp) -> BatchOp {
    match *op {
        TraceOp::Call {
            site,
            target,
            indirect: true,
        } => BatchOp::CallIndirect { site, target },
        TraceOp::Call { site, target, .. } => BatchOp::Call { site, target },
        TraceOp::Ret => BatchOp::Ret,
    }
}

/// What one drive did; times are wall times.
#[derive(Default)]
pub struct DriveOut {
    /// Wall time of the drive minus its decode points, ns.
    pub ns: f64,
    /// Wall time of each chunk of about [`CHUNK_OPS`] ops, decode points
    /// excluded, µs.
    pub chunk_us: Vec<f64>,
    /// `sample` + `decode` + `format_path` per decode point, µs.
    pub sample_decode_us: Vec<f64>,
}

/// What the decode points of one drive captured and decoded.
#[derive(Default)]
struct Samples {
    ctxs: Vec<EncodedContext>,
    paths: Vec<Result<ContextPath, DecodeError>>,
}

/// Replays `plans` onto `tracker`; decode points are taken only when
/// `decode` is set.
fn drive<T: Tracer>(
    tracker: &Tracker,
    plans: &[ThreadPlan],
    tr: &mut T,
    decode: bool,
) -> (DriveOut, Samples) {
    let mut out = DriveOut::default();
    let mut samples = Samples::default();
    let mut handles = Vec::with_capacity(plans.len());
    let start = Instant::now();
    let mut chunk_start = start;
    let mut chunk_ops = 0usize;
    let mut chunk_paused = Duration::ZERO;
    let mut paused = Duration::ZERO;
    for p in plans {
        let th = tr.drive_call(Layer::Register, tracker, || match p.parent {
            None => tracker.register_thread(p.root),
            Some((parent, site)) => tracker.register_spawned_thread(p.root, &handles[parent], site),
        });
        handles.push(th);
        let th = handles.last().expect("just registered");
        let mut guards = Vec::new();
        for step in &p.steps {
            match *step {
                Step::Batch { start, end } => {
                    tr.drive_call(Layer::RunBatch, tracker, || {
                        th.run_batch(&p.batch[start..end])
                    })
                    .expect("planned windows are balanced");
                    chunk_ops += end - start;
                }
                Step::Call {
                    site,
                    target,
                    indirect,
                } => {
                    guards.push(tr.drive_call(Layer::Guard, tracker, || {
                        if indirect {
                            th.call_indirect(site, target)
                        } else {
                            th.call(site, target)
                        }
                    }));
                    chunk_ops += 1;
                }
                Step::Ret => {
                    let g = guards.pop().expect("a guard is open");
                    tr.drive_call(Layer::Guard, tracker, move || drop(g));
                    chunk_ops += 1;
                }
                Step::Sample if decode => {
                    let t0 = Instant::now();
                    let ctx = tr.call(Layer::Sample, || th.sample());
                    let path = tr.call(Layer::Decode, || {
                        let path = tracker.decode(&ctx);
                        if let Ok(p) = &path {
                            black_box(tracker.format_path(p));
                        }
                        path
                    });
                    let dt = t0.elapsed();
                    chunk_paused += dt;
                    out.sample_decode_us.push(dt.as_secs_f64() * 1e6);
                    samples.ctxs.push(ctx);
                    samples.paths.push(path);
                }
                Step::Sample => {}
            }
            if chunk_ops >= CHUNK_OPS {
                let now = Instant::now();
                out.chunk_us
                    .push((now - chunk_start - chunk_paused).as_secs_f64() * 1e6);
                paused += chunk_paused;
                chunk_start = now;
                chunk_paused = Duration::ZERO;
                chunk_ops = 0;
            }
        }
    }
    paused += chunk_paused;
    out.ns = (start.elapsed() - paused).as_nanos() as f64;
    (out, samples)
}

/// Per timed phase, the factor that turns its wall times into
/// reference-machine times ([`calib`]).
#[derive(Clone, Copy, Default)]
pub struct Calibration {
    pub setup: f64,
    pub drive: f64,
    pub verify: f64,
    pub export_import: f64,
    pub record: f64,
    pub serial: f64,
    pub parallel: f64,
}

impl Calibration {
    /// All factors 1: wall times as measured.
    pub const WALL: Calibration = Calibration {
        setup: 1.0,
        drive: 1.0,
        verify: 1.0,
        export_import: 1.0,
        record: 1.0,
        serial: 1.0,
        parallel: 1.0,
    };
}

/// Measurements and counts of one repetition; times are wall times.
#[derive(Default)]
pub struct Rep {
    /// Index of the input replayed.
    pub input: usize,
    pub cal: Calibration,
    pub setup_s: f64,
    pub drive: DriveOut,
    pub verify_ms: f64,
    pub export_ms: f64,
    pub import_ms: f64,
    pub export_bytes: usize,
    pub record_ns: f64,
    pub serial_ns: f64,
    pub parallel_ns: f64,
    pub journal_ops: usize,
    pub journal_bytes: usize,
    pub resyncs: u64,
    pub seams: usize,
    pub fragments: usize,
    pub seams_verified: usize,
    pub fallback_fragments: usize,
    pub journal_threads: usize,
    pub superops_compiled: usize,
    pub seeded_edges: usize,
    pub pruned_edges: usize,
    /// Tracker counters advanced by the measured drive.
    pub stats: DacceStats,
    pub slow_path_locks: u64,
    pub check: Check,
}

/// Outputs checked and outputs wrong, with the first few failures.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Check {
    /// Counts one check; records a failure when `failure` is given.
    fn expect(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(what) = failure {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(what);
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One repetition of the whole pipeline over `inputs[index]`.
pub fn rep<T: Tracer>(wl: &Workload, inputs: &[Input], index: usize, tr: &mut T) -> Rep {
    let p = &inputs[index];
    let mut r = Rep {
        input: index,
        ..Rep::default()
    };
    let rep_span = tr.open(Layer::Rep);

    // Set-up: from `Tracker::with_config` to the first measured op.
    let c = calib::Phase::start();
    let t = Instant::now();
    let setup_span = tr.open(Layer::Setup);
    let tracker = tr.call(Layer::Define, || {
        let tracker = Tracker::with_config(config());
        for f in 0..wl.functions {
            let id = tracker.define_function(&format!("fn{f}"));
            debug_assert_eq!(id.raw(), f, "trace ids are tracker ids");
        }
        for s in 0..wl.sites {
            let id = tracker.define_call_site();
            debug_assert_eq!(id.raw(), s, "trace ids are tracker ids");
        }
        tracker
    });
    match &wl.setup {
        Setup::Cold => {}
        Setup::Warm(program) => {
            let seed = tr.call(Layer::WarmSeed, || dacce_analyze::warm_seed(program));
            let report = tr.call(Layer::WarmStart, || tracker.warm_start(program.main, &seed));
            r.seeded_edges = report.seeded_edges;
            r.pruned_edges = report.pruned_edges;
        }
        Setup::Superops => {
            tr.call(Layer::SuperopWarmDrive, || {
                drive(&tracker, &p.plans, &mut Off, false)
            });
            let cfg = config();
            let candidates = tr.call(Layer::SuperopMine, || {
                let hot = leaf_weights(&tracker.profiler_profile());
                let refs: Vec<&[BatchOp]> = p.warm_streams.iter().map(Vec::as_slice).collect();
                let max_window = cfg.superop_max_window.min(BATCH_WINDOW);
                mine_windows(&refs, max_window, cfg.superop_max_table, |f| {
                    hot.get(&f).copied().unwrap_or(0)
                })
            });
            r.superops_compiled = tr.call(Layer::SuperopInstall, || {
                tracker.install_superops(&candidates)
            });
        }
    }
    tr.close(setup_span);
    r.setup_s = t.elapsed().as_secs_f64();
    r.cal.setup = c.end();

    let before = tracker.stats();
    let locks_before = tracker.slow_path_locks();
    let c = calib::Phase::start();
    let drive_span = tr.open(Layer::Drive);
    let (out, samples) = drive(&tracker, &p.plans, tr, true);
    r.drive = out;
    tr.close(drive_span);
    r.cal.drive = c.end();
    r.slow_path_locks = tracker.slow_path_locks() - locks_before;
    r.stats = stats_delta(&tracker.stats(), &before);

    for (k, (got, want)) in samples.paths.iter().zip(&p.expected).enumerate() {
        r.check.expect(match got {
            Ok(path) if path == want => None,
            Ok(path) => Some(format!(
                "online decode point {k}: got {path:?}, want {want:?}"
            )),
            Err(e) => Some(format!("online decode point {k}: {e}")),
        });
    }
    if samples.paths.len() != p.expected.len() {
        r.check.expect(Some(format!(
            "{} online decode points, the oracle has {}",
            samples.paths.len(),
            p.expected.len()
        )));
    }

    let c = calib::Phase::start();
    let t = Instant::now();
    let verdict = tr.call(Layer::Verify, || tracker.check_invariants());
    r.verify_ms = ms(t.elapsed());
    r.cal.verify = c.end();
    r.check
        .expect(verdict.err().map(|e| format!("check_invariants: {e}")));

    // Export and import of the driven tracker's offline dictionaries; the
    // imported decoder must decode every online sample to the oracle's
    // context too.
    let c = calib::Phase::start();
    let t = Instant::now();
    let text = tr.call(Layer::Export, || export_tracker_state(&tracker));
    r.export_ms = ms(t.elapsed());
    let t = Instant::now();
    let offline = tr.call(Layer::Import, || import(&text));
    r.import_ms = ms(t.elapsed());
    r.cal.export_import = c.end();
    r.export_bytes = text.len();
    match offline {
        Ok(dec) => {
            for (k, (ctx, want)) in samples.ctxs.iter().zip(&p.expected).enumerate() {
                r.check.expect(match dec.decode(ctx) {
                    Ok(path) if path == *want => None,
                    Ok(path) => Some(format!("offline decode point {k}: got {path:?}")),
                    Err(e) => Some(format!("offline decode point {k}: {e}")),
                });
            }
        }
        Err(e) => r
            .check
            .expect(Some(format!("import of the driven tracker's export: {e}"))),
    }
    drop(tracker);

    let c = calib::Phase::start();
    let t = Instant::now();
    let rec = tr.call(Layer::Record, || {
        record_journal(&p.trace, config(), DEFAULT_SEAM_EVERY)
    });
    r.record_ns = t.elapsed().as_nanos() as f64;
    r.cal.record = c.end();
    r.resyncs = rec.resyncs;
    r.seams = rec.journal.seams();
    r.journal_ops = rec.journal.ops();
    r.journal_threads = rec.journal.threads.len();
    r.journal_bytes = rec.export.len();
    let dec = match tr.call(Layer::ImportJournal, || import(&rec.export)) {
        Ok(dec) => dec,
        Err(e) => {
            r.check
                .expect(Some(format!("import of the recording's export: {e}")));
            tr.close(rep_span);
            return r;
        }
    };
    let c = calib::Phase::start();
    let t = Instant::now();
    let serial = tr.call(Layer::DecodeSerial, || decode_serial(&rec.journal, &dec));
    r.serial_ns = t.elapsed().as_nanos() as f64;
    r.cal.serial = c.end();
    let c = calib::Phase::start_on(DECODE_WORKERS);
    let t = Instant::now();
    let parallel = tr.call(Layer::DecodeParallel, || {
        decode_parallel(&rec.journal, &dec, DECODE_WORKERS)
    });
    r.parallel_ns = t.elapsed().as_nanos() as f64;
    r.cal.parallel = c.end();
    check_journal(&mut r, p, serial, parallel);
    tr.close(rep_span);
    r
}

/// Checks the serial decode against the oracle and the parallel decode
/// against the serial one, line by line.
fn check_journal(
    r: &mut Rep,
    p: &Input,
    serial: Result<DecodedStream, FragmentError>,
    parallel: Result<(DecodedStream, ParallelDecodeReport), FragmentError>,
) {
    let serial = match serial {
        Ok(s) => s,
        Err(e) => {
            for _ in &p.journal_expected {
                r.check.expect(Some(format!("decode_serial: {e}")));
            }
            return;
        }
    };
    let mut renaming = Renaming::default();
    let mut k_of: BTreeMap<u64, usize> = BTreeMap::new();
    let n = serial.lines.len().max(p.journal_expected.len());
    for i in 0..n {
        let (Some(line), Some((tid, want))) = (serial.lines.get(i), p.journal_expected.get(i))
        else {
            r.check.expect(Some(format!(
                "journal decode point {i} missing on one side"
            )));
            continue;
        };
        let k = k_of.entry(*tid).or_insert(0);
        let prefix = format!("{tid}#{k}: ");
        *k += 1;
        let ok = line
            .strip_prefix(&prefix)
            .is_some_and(|rendered| renaming.matches(rendered, want));
        r.check
            .expect((!ok).then(|| format!("journal line {i} `{line}` is not {prefix}{want:?}")));
    }
    match parallel {
        Ok((par, report)) => {
            r.fragments = report.fragments;
            r.seams_verified = report.seams_verified;
            r.fallback_fragments = report.fallback_fragments;
            let n = serial.lines.len().max(par.lines.len());
            for i in 0..n {
                r.check.expect(
                    (serial.lines.get(i) != par.lines.get(i))
                        .then(|| format!("parallel line {i} differs from serial")),
                );
            }
        }
        Err(e) => r.check.expect(Some(format!("decode_parallel: {e}"))),
    }
}

/// The counters the measured drive advanced (everything set-up did is
/// subtracted).
fn stats_delta(after: &DacceStats, before: &DacceStats) -> DacceStats {
    DacceStats {
        calls: after.calls - before.calls,
        traps: after.traps - before.traps,
        reencodes: after.reencodes - before.reencodes,
        hash_conversions: after.hash_conversions - before.hash_conversions,
        superop_hits: after.superop_hits - before.superop_hits,
        superop_misses: after.superop_misses - before.superop_misses,
        superop_invalidations: after.superop_invalidations - before.superop_invalidations,
        ..DacceStats::default()
    }
}
