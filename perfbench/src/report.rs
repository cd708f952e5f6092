//! Metrics over the repetitions of a run, and the per-layer report of a
//! traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::machine;
use crate::pipeline::{Calibration, Input, Rep};
use crate::spans::{self, Layer, LayerTotals, Span};

/// The `q` quantile by linear interpolation between order statistics;
/// 0 for no values.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median; 0 for no values.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Per input, the median of `f` over its repetitions; then the
/// interquartile mean over the inputs. The median drops repetitions a burst
/// of host noise slowed; the interquartile mean drops the inputs farthest
/// out (one slow repetition is all some inputs have) and weighs the rest
/// alike.
fn across(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let mut by_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for r in reps {
        by_input.entry(r.input).or_default().push(f(r));
    }
    let medians: Vec<f64> = by_input.values().map(|v| median(v)).collect();
    interquartile_mean(&medians)
}

/// The mean of the values left after dropping the lowest and the highest
/// quarter; 0 for no values.
fn interquartile_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

fn per_op(ns: f64, ops: usize) -> f64 {
    ns / ops.max(1) as f64
}

/// Named metrics with units, in print order. Each is either listed (in
/// the JSON result and `BENCHMARK.json`) or printed only.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str, bool)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, true);
    }

    /// A metric printed in the text output but left out of the JSON
    /// result: a layer time that some workloads never exercise (exactly 0
    /// there).
    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, false);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, listed: bool) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit, listed));
    }

    /// The listed metrics as one JSON object of `{"value", "unit"}`
    /// objects.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (name, value, unit, _) in self.0.iter().filter(|m| m.3) {
            if out.len() > 1 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The end-to-end metrics over the repetitions of an untraced run, with
/// every time scaled to the reference machine (`calibrated`) or as
/// measured.
pub fn end_to_end(inputs: &[Input], reps: &[Rep], calibrated: bool) -> Metrics {
    let cal = |r: &Rep| if calibrated { r.cal } else { Calibration::WALL };
    // Latency percentiles pool every chunk or decode point of the run,
    // each scaled by its repetition's factor: thousands of samples, so the
    // tail estimate is steady.
    let tail = |f: &dyn Fn(&Rep) -> &[f64], q: f64| {
        let pooled: Vec<f64> = reps
            .iter()
            .flat_map(|r| f(r).iter().map(move |t| t * cal(r).drive))
            .collect();
        percentile(&pooled, q)
    };
    let input = |r: &Rep| &inputs[r.input];
    let mut m = Metrics::default();
    m.put("setup_s", across(reps, |r| r.setup_s * cal(r).setup), "s");
    m.put(
        "drive_ns_per_op",
        across(reps, |r| {
            per_op(r.drive.ns * cal(r).drive, input(r).drive_ops())
        }),
        "ns",
    );
    m.put(
        "drive_chunk_us_p99",
        tail(&|r| &r.drive.chunk_us, 0.99),
        "us",
    );
    m.put(
        "sample_decode_us_p50",
        tail(&|r| &r.drive.sample_decode_us, 0.5),
        "us",
    );
    m.put(
        "sample_decode_us_p99",
        tail(&|r| &r.drive.sample_decode_us, 0.99),
        "us",
    );
    m.put(
        "record_ns_per_op",
        across(reps, |r| {
            per_op(r.record_ns * cal(r).record, input(r).trace_ops)
        }),
        "ns",
    );
    m.put(
        "export_import_ms",
        across(reps, |r| (r.export_ms + r.import_ms) * cal(r).export_import),
        "ms",
    );
    m.put(
        "decode_serial_ns_per_op",
        across(reps, |r| per_op(r.serial_ns * cal(r).serial, r.journal_ops)),
        "ns",
    );
    m.put(
        "decode_parallel_ns_per_op",
        across(reps, |r| {
            per_op(r.parallel_ns * cal(r).parallel, r.journal_ops)
        }),
        "ns",
    );
    m.put(
        "verify_ms",
        across(reps, |r| r.verify_ms * cal(r).verify),
        "ms",
    );
    m.put("peak_rss_mb", machine::peak_rss_mb(), "MiB");
    m
}

/// The per-layer metrics of a traced run: spans and counters of the traced
/// repetitions, and the drive cost of the interleaved untraced ones for
/// the tracing overhead. Span times are wall times.
pub fn per_layer(inputs: &[Input], traced: &[Rep], untraced: &[Rep], spans: &[Span]) -> Metrics {
    let t = spans::totals(spans);
    let get = |l: Layer| t.get(&l).cloned().unwrap_or_default();
    let reps = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Input) -> usize| -> f64 {
        traced.iter().map(|r| f(&inputs[r.input]) as f64).sum()
    };
    let count = |f: &dyn Fn(&Rep) -> f64| across(traced, f);
    let mean_ns = |x: &LayerTotals| x.total_ns as f64 / x.count.max(1) as f64;
    let per_rep_ms = |x: &LayerTotals| x.total_ns as f64 / 1e6 / reps;
    let per = |x: &LayerTotals, ops: f64| x.total_ns as f64 / ops.max(1.0);
    let drive_ns = |r: &Rep| per_op(r.drive.ns * r.cal.drive, inputs[r.input].drive_ops());
    let slow: Vec<f64> = spans
        .iter()
        .filter(|s| s.slow)
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect();
    let (drive, run_batch, guard) = (get(Layer::Drive), get(Layer::RunBatch), get(Layer::Guard));
    let register = get(Layer::Register);

    let mut m = Metrics::default();
    m.put(
        "tracker.run_batch.calls",
        run_batch.count as f64 / reps,
        "count",
    );
    m.put(
        "tracker.run_batch.ops",
        sum(&|i| i.batched_ops) / reps,
        "count",
    );
    m.put(
        "tracker.run_batch.ns_per_op",
        per(&run_batch, sum(&|i| i.batched_ops)),
        "ns",
    );
    m.put(
        "tracker.run_batch.drive_share",
        run_batch.total_ns as f64 / drive.total_ns.max(1) as f64,
        "ratio",
    );
    m.put("tracker.guard.ops", sum(&|i| i.guard_ops) / reps, "count");
    m.note(
        "tracker.guard.ns_per_op",
        per(&guard, sum(&|i| i.guard_ops)),
        "ns",
    );
    m.put(
        "tracker.register.count",
        register.count as f64 / reps,
        "count",
    );
    m.put("tracker.register.us_each", mean_ns(&register) / 1e3, "us");
    m.put(
        "reencode.slow_path.calls",
        slow.len() as f64 / reps,
        "count",
    );
    m.put(
        "reencode.slow_path.total_us",
        slow.iter().sum::<f64>() / reps,
        "us",
    );
    m.put("reencode.slow_path.p99_us", percentile(&slow, 0.99), "us");
    m.put("reencode.traps", count(&|r| r.stats.traps as f64), "count");
    m.put(
        "reencode.reencodes",
        count(&|r| r.stats.reencodes as f64),
        "count",
    );
    m.put(
        "reencode.slow_path_locks",
        count(&|r| r.slow_path_locks as f64),
        "count",
    );
    m.put(
        "reencode.hash_conversions",
        count(&|r| r.stats.hash_conversions as f64),
        "count",
    );
    m.put(
        "reencode.traps_per_kop",
        count(&|r| r.stats.traps as f64 * 1e3 / inputs[r.input].drive_ops() as f64),
        "1/kop",
    );
    m.note(
        "superop.install_ms",
        per_rep_ms(&get(Layer::SuperopInstall)),
        "ms",
    );
    m.put(
        "superop.compiled",
        count(&|r| r.superops_compiled as f64),
        "count",
    );
    m.put(
        "superop.hit_rate",
        count(&|r| {
            let probes = r.stats.superop_hits + r.stats.superop_misses;
            r.stats.superop_hits as f64 / probes.max(1) as f64
        }),
        "ratio",
    );
    m.put(
        "superop.invalidations",
        count(&|r| r.stats.superop_invalidations as f64),
        "count",
    );
    m.note("warm.seed_ms", per_rep_ms(&get(Layer::WarmSeed)), "ms");
    m.note("warm.start_ms", per_rep_ms(&get(Layer::WarmStart)), "ms");
    m.put(
        "warm.seeded_edges",
        count(&|r| r.seeded_edges as f64),
        "count",
    );
    m.put(
        "warm.pruned_edges",
        count(&|r| r.pruned_edges as f64),
        "count",
    );
    m.put(
        "decode.online.sample_ns",
        mean_ns(&get(Layer::Sample)),
        "ns",
    );
    m.put(
        "decode.online.decode_format_ns",
        mean_ns(&get(Layer::Decode)),
        "ns",
    );
    m.put(
        "fragment.record.ns_per_op",
        per(&get(Layer::Record), sum(&|i| i.trace_ops)),
        "ns",
    );
    m.put(
        "fragment.record.resyncs",
        count(&|r| r.resyncs as f64),
        "count",
    );
    m.put("fragment.record.seams", count(&|r| r.seams as f64), "count");
    m.put("export.ms", per_rep_ms(&get(Layer::Export)), "ms");
    m.put("export.bytes", count(&|r| r.export_bytes as f64), "bytes");
    m.put("import.ms", per_rep_ms(&get(Layer::Import)), "ms");
    m.put(
        "import.journal_ms",
        per_rep_ms(&get(Layer::ImportJournal)),
        "ms",
    );
    m.put(
        "import.journal_bytes",
        count(&|r| r.journal_bytes as f64),
        "bytes",
    );
    let journal_ops: f64 = traced.iter().map(|r| r.journal_ops as f64).sum();
    m.put(
        "fragment.decode.serial_ns_per_op",
        per(&get(Layer::DecodeSerial), journal_ops),
        "ns",
    );
    m.put(
        "fragment.decode.parallel_ns_per_op",
        per(&get(Layer::DecodeParallel), journal_ops),
        "ns",
    );
    m.put(
        "fragment.decode.fragments",
        count(&|r| r.fragments as f64),
        "count",
    );
    m.put(
        "fragment.decode.seam_proof_rate",
        count(&|r| {
            let seams = r.fragments.saturating_sub(r.journal_threads);
            r.seams_verified as f64 / seams.max(1) as f64
        }),
        "ratio",
    );
    m.put(
        "fragment.decode.fallback_fragments",
        count(&|r| r.fallback_fragments as f64),
        "count",
    );
    m.put("verify.ms", per_rep_ms(&get(Layer::Verify)), "ms");
    let traced_drive = across(traced, drive_ns);
    let untraced_drive = across(untraced, drive_ns);
    m.put("trace.drive_ns_per_op", traced_drive, "ns");
    m.put("trace.untraced_drive_ns_per_op", untraced_drive, "ns");
    m.put(
        "trace.overhead_ns_per_op",
        traced_drive - untraced_drive,
        "ns",
    );
    m.put("trace.spans_per_rep", spans.len() as f64 / reps, "count");
    m
}

/// The self-time table of a traced run, one row per layer, and the
/// layer ratios with their bases.
pub fn self_time_table(inputs: &[Input], traced: &[Rep], spans: &[Span]) -> String {
    let t = spans::totals(spans);
    let rep_total = t.get(&Layer::Rep).map_or(1, |x| x.total_ns.max(1)) as f64;
    let reps = traced.len().max(1) as f64;
    let mut out = format!(
        "{:<26} {:>10} {:>13} {:>12} {:>8}\n",
        "layer", "calls/rep", "total ms/rep", "self ms/rep", "self %"
    );
    for (layer, x) in &t {
        let _ = writeln!(
            out,
            "{:<26} {:>10.1} {:>13.3} {:>12.3} {:>7.2}%",
            layer.name(),
            x.count as f64 / reps,
            x.total_ns as f64 / 1e6 / reps,
            x.self_ns as f64 / 1e6 / reps,
            x.self_ns as f64 * 100.0 / rep_total,
        );
    }
    let get = |l: Layer| t.get(&l).cloned().unwrap_or_default();
    let sum = |f: &dyn Fn(&Rep) -> u64| -> u64 { traced.iter().map(f).sum() };
    let (batch, drive) = (get(Layer::RunBatch), get(Layer::Drive));
    let hits = sum(&|r| r.stats.superop_hits);
    let probes = hits + sum(&|r| r.stats.superop_misses);
    let verified = sum(&|r| r.seams_verified as u64);
    let seams = sum(&|r| r.fragments.saturating_sub(r.journal_threads) as u64);
    let traps = sum(&|r| r.stats.traps);
    let ops: u64 = traced
        .iter()
        .map(|r| inputs[r.input].drive_ops() as u64)
        .sum();
    let _ = writeln!(
        out,
        "ratios over {} traced repetitions:\n  batched share of drive time {:.4} ({:.3} of {:.3} ms)\n  superop hit rate {:.4} ({hits} hits of {probes} probes)\n  seam proof rate {:.4} ({verified} of {seams} seams)\n  traps per 1k drive ops {:.4} ({traps} traps in {ops} ops)",
        traced.len(),
        batch.total_ns as f64 / drive.total_ns.max(1) as f64,
        batch.total_ns as f64 / 1e6,
        drive.total_ns as f64 / 1e6,
        hits as f64 / probes.max(1) as f64,
        verified as f64 / seams.max(1) as f64,
        traps as f64 * 1e3 / ops.max(1) as f64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[2.0, 4.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }
}
