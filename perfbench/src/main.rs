//! End-to-end benchmark of the DACCE pipeline.
//!
//! ```text
//! dacce-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! One run generates the named workload's traces from the seed, then
//! repeats the whole public pipeline on one OS thread, rotating over the
//! traces, until `--seconds` have passed: tracker set-up, the trace-driven
//! drive (`run_batch` windows plus the guard spine, decoding at fixed
//! trace positions), `check_invariants`, export and import of the driven
//! tracker, `record_journal`, and serial and 2-worker parallel offline
//! decode. Every decoded context is checked against the oracle derived
//! from the trace ([`oracle`]). The last line of standard output is one
//! JSON object with the run's verdict and metrics: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the span-traced run with
//! `--trace 1`. `README.md` in this directory records the workloads and
//! the metric map.

mod calib;
mod machine;
mod oracle;
mod pipeline;
mod plan;
mod report;
mod spans;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use pipeline::{rep, Input, Rep, DECODE_WORKERS};
use spans::{Off, On};
use workload::Workload;

/// A traced run traces no further repetition once this many spans are
/// held in memory; the rest of the run is untraced.
const SPAN_CAP: usize = 2_000_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_dir: "perfbench/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("duration"))?;
                if !(args.seconds > 0.0 && args.seconds < 3600.0) {
                    return Err(bad("duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--spans-dir" => args.spans_dir = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let names = workload::NAMES.join("|");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dacce-perfbench: {e}");
            eprintln!(
                "usage: dacce-perfbench --workload <{names}> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(mut wl) = Workload::generate(&args.workload, args.seed) else {
        eprintln!(
            "dacce-perfbench: unknown workload `{}` (one of {names})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let machine = machine::record(wl.name, args.seed);
    println!("machine {machine}");
    let inputs: Vec<Input> = std::mem::take(&mut wl.traces)
        .into_iter()
        .map(|(seed, trace)| Input::new(seed, trace, &wl.setup))
        .collect();
    println!(
        "workload {}: closed loop, one driving thread, {DECODE_WORKERS} decode workers; inputs rotate per repetition",
        wl.name
    );
    for i in &inputs {
        println!(
            "  input seed {}: {} threads, {} trace ops, {} drive ops ({} batched, {} guard), {} online and {} journal decode points",
            i.seed,
            i.threads,
            i.trace_ops,
            i.drive_ops(),
            i.batched_ops,
            i.guard_ops,
            i.decode_points,
            i.journal_points
        );
    }

    // An untraced run replays every input at least once. A traced run
    // alternates untraced and traced repetitions, so the tracing overhead
    // is measured under the same conditions, and stops at the budget once
    // it has one of each.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut on = On::new();
    for n in 0.. {
        let (input, traced_turn) = if args.trace {
            (
                (n / 2) % inputs.len(),
                n % 2 == 1 && on.spans.len() < SPAN_CAP,
            )
        } else {
            (n % inputs.len(), false)
        };
        if traced_turn {
            traced.push(rep(&wl, &inputs, input, &mut on));
        } else {
            untraced.push(rep(&wl, &inputs, input, &mut Off));
        }
        let covered = if args.trace {
            !traced.is_empty()
        } else {
            untraced.len() >= inputs.len()
        };
        if covered && start.elapsed() >= budget {
            break;
        }
    }

    let all = || untraced.iter().chain(&traced);
    let attempted: u64 = all().map(|r| r.check.attempted).sum();
    let failed: u64 = all().map(|r| r.check.failed).sum();
    for f in all().flat_map(|r| &r.check.failures).take(10) {
        println!("FAILED {f}");
    }
    println!(
        "repetitions: {} untraced, {} traced; fail_frac {failed}/{attempted} = {}",
        untraced.len(),
        traced.len(),
        failed as f64 / attempted.max(1) as f64
    );
    let metrics = if args.trace {
        print!("{}", report::self_time_table(&inputs, &traced, &on.spans));
        let path = format!("{}/spans-{}-seed{}.tsv", args.spans_dir, wl.name, args.seed);
        let body = format!("# machine {machine}\n{}", spans::to_tsv(&on.spans, wl.name));
        match std::fs::create_dir_all(&args.spans_dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("spans: {} written to {path}", on.spans.len()),
            Err(e) => println!("spans: not written to {path}: {e}"),
        }
        report::per_layer(&inputs, &traced, &untraced, &on.spans)
    } else {
        let chunks: usize = untraced.iter().map(|r| r.drive.chunk_us.len()).sum();
        let points: usize = untraced
            .iter()
            .map(|r| r.drive.sample_decode_us.len())
            .sum();
        let factors: Vec<f64> = untraced.iter().map(|r| r.cal.drive).collect();
        println!("samples: {chunks} drive chunks, {points} online decode points");
        println!(
            "calibration: median drive factor {:.4} (reference kernel {:.0} ns here, {:.0} ns at the reference speed)",
            report::median(&factors),
            calib::REFERENCE_NS[0] / report::median(&factors),
            calib::REFERENCE_NS[0],
        );
        println!(
            "wall {}",
            report::end_to_end(&inputs, &untraced, false).json()
        );
        report::end_to_end(&inputs, &untraced, true)
    };
    for (name, value, unit, listed) in &metrics.0 {
        let note = if *listed { "" } else { "  (printed only)" };
        println!("{name:<36} {value:>16.4} {unit}{note}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
    ExitCode::SUCCESS
}
