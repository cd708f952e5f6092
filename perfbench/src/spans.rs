//! Spans around the benchmark's calls into each layer's public functions.
//!
//! The drive is generic over [`Tracer`]: [`Off`] compiles every span away
//! (the end-to-end runs), [`On`] keeps one span per timed call in memory —
//! layer, start, end and the enclosing span — and derives each layer's
//! self time from them at the end of the run. Nothing inside the measured
//! crates is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use dacce::Tracker;

/// A timed layer boundary: the module of the public function called, or a
/// benchmark phase that encloses such calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One repetition of the whole pipeline.
    Rep,
    /// Tracker creation and preparation up to the first measured op.
    Setup,
    /// `Tracker::with_config` plus function/site definition.
    Define,
    /// `dacce_analyze::warm_seed`.
    WarmSeed,
    /// `Tracker::warm_start`.
    WarmStart,
    /// The warm pass over the trace before superops are mined.
    SuperopWarmDrive,
    /// `profiler_profile` + `leaf_weights` + `mine_windows`.
    SuperopMine,
    /// `Tracker::install_superops`.
    SuperopInstall,
    /// The measured drive.
    Drive,
    /// `register_thread` / `register_spawned_thread`.
    Register,
    /// `ThreadHandle::run_batch`.
    RunBatch,
    /// `call` / `call_indirect` and the guard drop.
    Guard,
    /// `ThreadHandle::sample`.
    Sample,
    /// `Tracker::decode` + `Tracker::format_path`.
    Decode,
    /// `Tracker::check_invariants`.
    Verify,
    /// `export_tracker_state` of the driven tracker.
    Export,
    /// `import` of that export.
    Import,
    /// `record_journal` (its own tracker, drive and export).
    Record,
    /// `import` of the recording's export.
    ImportJournal,
    /// `decode_serial`.
    DecodeSerial,
    /// `decode_parallel` at the benchmark's worker count.
    DecodeParallel,
}

impl Layer {
    /// The layer's name in reports: `module.function` of the timed call.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rep => "rep",
            Layer::Setup => "setup",
            Layer::Define => "tracker.define",
            Layer::WarmSeed => "warm.seed",
            Layer::WarmStart => "warm.start",
            Layer::SuperopWarmDrive => "superop.warm_drive",
            Layer::SuperopMine => "superop.mine",
            Layer::SuperopInstall => "superop.install",
            Layer::Drive => "drive",
            Layer::Register => "tracker.register",
            Layer::RunBatch => "tracker.run_batch",
            Layer::Guard => "tracker.guard",
            Layer::Sample => "decode.online.sample",
            Layer::Decode => "decode.online.decode",
            Layer::Verify => "verify",
            Layer::Export => "export",
            Layer::Import => "import",
            Layer::Record => "fragment.record",
            Layer::ImportJournal => "import.journal",
            Layer::DecodeSerial => "fragment.decode.serial",
            Layer::DecodeParallel => "fragment.decode.parallel",
        }
    }
}

/// Span recording, or its absence.
pub trait Tracer {
    /// Opens a span; returns the handle [`Tracer::close`] takes.
    fn open(&mut self, layer: Layer) -> usize;
    /// Closes the span `open` returned.
    fn close(&mut self, span: usize);
    /// Runs `f` inside a span of `layer`.
    #[inline(always)]
    fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let s = self.open(layer);
        let r = f();
        self.close(s);
        r
    }
    /// Runs one drive call `f` inside a span of `layer`, marking the span
    /// as a slow-path call when the tracker's shared lock was taken during
    /// it (`Tracker::slow_path_locks` advanced: a site trap or a
    /// re-encoding trigger evaluation).
    #[inline(always)]
    fn drive_call<R>(&mut self, layer: Layer, _tracker: &Tracker, f: impl FnOnce() -> R) -> R {
        self.call(layer, f)
    }
}

/// No spans: every method is empty and inlines away.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn open(&mut self, _layer: Layer) -> usize {
        0
    }
    #[inline(always)]
    fn close(&mut self, _span: usize) {}
}

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer timed.
    pub layer: Layer,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Whether the call took the tracker's slow path.
    pub slow: bool,
}

/// Records every span in memory.
pub struct On {
    epoch: Instant,
    open: Vec<u32>,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl On {
    /// An empty recorder; its epoch is now.
    pub fn new() -> Self {
        On {
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Tracer for On {
    fn open(&mut self, layer: Layer) -> usize {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            parent,
            start: self.now(),
            end: 0,
            slow: false,
        });
        self.open.push(idx as u32);
        idx
    }

    fn close(&mut self, span: usize) {
        let end = self.now();
        self.spans[span].end = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span as u32), "spans close innermost first");
    }

    fn drive_call<R>(&mut self, layer: Layer, tracker: &Tracker, f: impl FnOnce() -> R) -> R {
        let before = tracker.slow_path_locks();
        let s = self.open(layer);
        let r = f();
        self.close(s);
        if tracker.slow_path_locks() != before {
            self.spans[s].slow = true;
        }
        r
    }
}

/// Per-layer totals derived from spans.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Spans of the layer.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus the child spans), ns.
    pub self_ns: u64,
}

/// Aggregates `spans` by layer.
pub fn totals(spans: &[Span]) -> BTreeMap<Layer, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != u32::MAX {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<Layer, LayerTotals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let t = out.entry(s.layer).or_default();
        t.count += 1;
        t.total_ns += s.end - s.start;
        t.self_ns += (s.end - s.start).saturating_sub(child);
    }
    out
}

/// Renders `spans` as tab-separated lines: index, parent (`-` for a root),
/// layer, start ns, end ns, slow flag, workload.
pub fn to_tsv(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("idx\tparent\tlayer\tstart_ns\tend_ns\tslow\tworkload\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == u32::MAX {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{workload}",
            s.layer.name(),
            s.start,
            s.end,
            u8::from(s.slow)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                layer: Layer::Drive,
                parent: u32::MAX,
                start: 0,
                end: 100,
                slow: false,
            },
            Span {
                layer: Layer::RunBatch,
                parent: 0,
                start: 10,
                end: 40,
                slow: false,
            },
            Span {
                layer: Layer::RunBatch,
                parent: 0,
                start: 50,
                end: 60,
                slow: true,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t[&Layer::Drive].total_ns, 100);
        assert_eq!(t[&Layer::Drive].self_ns, 60);
        assert_eq!(t[&Layer::RunBatch].count, 2);
        assert_eq!(t[&Layer::RunBatch].self_ns, 40);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut on = On::new();
        let outer = on.open(Layer::Rep);
        on.call(Layer::Verify, || ());
        on.close(outer);
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, 0);
        assert!(on.spans[0].end >= on.spans[1].end);
    }
}
