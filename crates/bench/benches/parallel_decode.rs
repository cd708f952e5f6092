//! Fragment-parallel offline decode throughput: record the `server-rr`
//! production workload into a decode journal, then time the serial
//! decoder against [`dacce::decode_parallel`] at 1/2/4 workers.
//!
//! One repetition decodes the whole journal; one op is one journal op.
//! Writes `results/parallel_decode.csv`
//! (`bench,variant,median_ns,iqr_ns,mode`), the input for the CI speedup
//! gate `ci/perf_gate.py --ratio --on-tag workers4 --off-tag serial`.
//!
//! On machines with fewer cores than a variant's worker count the wall
//! clock cannot show a speedup, so the variant is *modeled* instead of
//! measured: the fragment schedule is placed LPT (longest processing
//! time first) onto the workers and the makespan is costed at the
//! measured serial per-op rate. The modeled figure gates fragment
//! balance — with enough well-cut seams the makespan at 4 workers must
//! be under half the total — and the measured figure replaces it
//! wherever the cores exist. The trailing `mode` column says which each
//! row is; byte-identical output vs the serial decoder is asserted for
//! every variant either way.
//!
//! Also writes the recorded journal to `target/parallel_decode.journal`
//! (a `dacce-journal v1` document) so CI can audit the seam chain with
//! `dacce-lint --fragments`.
//!
//! ```text
//! cargo bench -p dacce-bench --bench parallel_decode
//! ```

use dacce::{decode_parallel, decode_serial, import, DacceConfig};
use dacce_bench::harness::{banner, Plan, Table};
use dacce_workloads::families::server_trace;
use dacce_workloads::journal::record_journal;

/// Budget multiplier of the recorded `server-rr` trace.
const TRACE_SCALE: f64 = 1.5;

/// LPT makespan of the fragment sizes on `workers` workers, in ops.
fn lpt_makespan(sizes: &[usize], workers: usize) -> usize {
    let mut sorted = sizes.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0usize; workers.max(1)];
    for s in sorted {
        let min = loads
            .iter_mut()
            .min_by_key(|l| **l)
            .expect("at least one worker");
        *min += s;
    }
    loads.into_iter().max().unwrap_or(0)
}

fn main() {
    banner("fragment-parallel decode throughput (server-rr journal)");
    let trace = server_trace(7, TRACE_SCALE);
    let config = DacceConfig {
        edge_threshold: 4,
        min_events_between_reencodes: 256,
        ..DacceConfig::default()
    };
    let run = record_journal(&trace, config, 512);
    let ops = run.journal.ops();
    let dec = import(&run.export).expect("journal export parses");

    // Per-thread fragment sizes, exactly as decode_parallel cuts them.
    let sizes: Vec<usize> = run
        .journal
        .threads
        .iter()
        .flat_map(|t| {
            let mut bounds = vec![0usize];
            bounds.extend(t.seams.iter().map(|s| s.at.min(t.ops.len())));
            bounds.push(t.ops.len());
            bounds.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>()
        })
        .filter(|&s| s > 0)
        .collect();
    println!(
        "{ops} ops, {} decode points, {} fragments",
        run.journal.samples(),
        sizes.len()
    );

    // One whole-journal decode per repetition.
    let plan = Plan::new(1);
    let serial_out = decode_serial(&run.journal, &dec).expect("journal replays");
    let serial = plan.measure(ops, || decode_serial(&run.journal, &dec));
    let mut table = Table::new("parallel_decode.csv", &["bench", "variant"], &["mode"]);
    table.row(&["server-rr", "serial"], serial, &["measured".into()]);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for workers in [1usize, 2, 4] {
        let (out, report) = decode_parallel(&run.journal, &dec, workers).expect("journal replays");
        assert_eq!(
            out, serial_out,
            "parallel decode diverged at {workers} workers"
        );
        assert_eq!(report.seam_failures, 0, "all seams must prove");
        let (s, mode) = if cores >= workers {
            let s = plan.measure(ops, || decode_parallel(&run.journal, &dec, workers));
            (s, "measured")
        } else {
            // Not enough cores to show wall-clock parallelism: cost the
            // LPT schedule's makespan at the measured serial rate.
            let makespan = lpt_makespan(&sizes, workers);
            (serial.scaled(makespan as f64 / ops as f64), "modeled")
        };
        table.row(
            &["server-rr", &format!("workers{workers}")],
            s,
            &[mode.into()],
        );
    }
    table.write();

    let target = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    std::fs::create_dir_all(&target).expect("create target dir");
    std::fs::write(
        target.join("parallel_decode.journal"),
        run.journal.to_text(),
    )
    .expect("write parallel_decode.journal");
    println!(
        "wrote target/parallel_decode.journal ({} resyncs while recording)",
        run.resyncs
    );
}
