//! Fuzz target for every text format the runtime renders: the three
//! codec formats (`dacce-export v1`, `dacce-journal v1`,
//! `# dacce-postmortem v1`) and the three outside grammars (flame folds,
//! event JSON lines, Prometheus text).
//!
//! The documents come from real runs: a small `Tracker` run (export with
//! samples, forced postmortem, flame, events, Prometheus) and
//! `record_journal` over a small two-thread trace (journal, and an export
//! under the maxID-exhaustion fault so degraded records appear). Two
//! properties:
//!
//! - **Round trip.** Where the parsed value has a renderer (journal,
//!   postmortem, flame, events), render → parse → render is the identity.
//!   The export and Prometheus parsers have no renderer over their
//!   output, so there the parse must recover the rendered values.
//! - **No panics.** 2,000 seeded multi-token mutations (drop, duplicate,
//!   or replace from a hostile alphabet) per format anywhere in the
//!   documents, plus every single-token mutation of the first record of
//!   each kind in the codec formats, give `Ok` or `Err` from all six
//!   parsers — never a panic.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;

use dacce::postmortem::parse_postmortem;
use dacce::{
    export_samples, export_tracker_state, import, BatchOp, DacceConfig, DecodeJournal,
    EncodedContext, FaultPlan, Tracker, WindowOp,
};
use dacce_analyze::PromDoc;
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_obs::{events_from_json, events_to_json, FlameGraph};
use dacce_program::{ContextPath, ThreadId};
use dacce_workloads::batch::{ThreadStart, TraceOp};
use dacce_workloads::{record_journal, WorkloadTrace};

/// Replacement tokens: multi-byte text, `u32::MAX + 1`, `u64::MAX + 1`,
/// and the separators and keywords the grammars branch on.
const ALPHABET: [&str; 20] = [
    "é",
    "4294967296",
    "18446744073709551616",
    "0",
    "1",
    "3",
    "-",
    "|",
    ":",
    ",",
    "=",
    " ",
    "\n",
    "r",
    "a",
    "c",
    "[",
    "}",
    "\"",
    "end",
];

/// Record kinds per document whose first line gets every single-token
/// mutation (a kind is a line's first two words with digits removed).
const EXHAUSTIVE_KINDS: usize = 16;

/// Seeded multi-token mutation cases; each case mutates every document.
const RANDOM_CASES: u32 = 2_000;

#[derive(Clone, Copy, Debug)]
enum Format {
    Export,
    Journal,
    Postmortem,
    Flame,
    Events,
    Prometheus,
}

const FORMATS: [Format; 6] = [
    Format::Export,
    Format::Journal,
    Format::Postmortem,
    Format::Flame,
    Format::Events,
    Format::Prometheus,
];

/// Runs the format's parser on `text`, failing the test if it panics.
fn parse_without_panic(format: Format, text: &str) {
    let run = || match format {
        Format::Export => import(text).is_ok(),
        Format::Journal => DecodeJournal::parse(text).is_ok(),
        Format::Postmortem => parse_postmortem(text).is_ok(),
        Format::Flame => FlameGraph::parse(text).is_ok(),
        Format::Events => events_from_json(text).is_ok(),
        Format::Prometheus => PromDoc::parse(text).is_ok(),
    };
    assert!(
        catch_unwind(AssertUnwindSafe(run)).is_ok(),
        "{format:?} parser panicked on:\n{text}"
    );
}

struct Docs {
    /// Tracker export with sample lines (a spawned context included).
    export: String,
    /// The samples in `export` and the tracker's decode of each.
    samples: Vec<(EncodedContext, ContextPath)>,
    /// Export of a maxID-exhausted recording run.
    degraded_export: String,
    journal: String,
    postmortem: String,
    flame: String,
    events: String,
    prometheus: String,
    /// `dacce_traps_total` at the time `prometheus` was rendered.
    traps: u64,
}

impl Docs {
    fn of(&self, format: Format) -> Vec<&str> {
        match format {
            Format::Export => vec![&self.export, &self.degraded_export],
            Format::Journal => vec![&self.journal],
            Format::Postmortem => vec![&self.postmortem],
            Format::Flame => vec![&self.flame],
            Format::Events => vec![&self.events],
            Format::Prometheus => vec![&self.prometheus],
        }
    }
}

/// Main thread: six rounds of a direct call, an indirect call over three
/// targets that all call one function (so it has three contexts), a
/// recursion and a new edge; one spawned thread with a short chain.
fn small_trace() -> WorkloadTrace {
    let call = |site, target, indirect| TraceOp::Call {
        site: CallSiteId::new(site),
        target: FunctionId::new(target),
        indirect,
    };
    let mut main = Vec::new();
    for round in 0..6 {
        let t = 2 + round % 3;
        main.extend([call(0, 1, false), call(1, t, true)]);
        main.extend([call(2 + t, 5, false), call(8, 5, false)]);
        main.extend([TraceOp::Ret; 4]);
        // A fresh edge every round, so some arrive after maxID exhaustion.
        main.extend([call(10 + round, 20 + round, false), TraceOp::Ret]);
    }
    let child = vec![
        call(9, 1, false),
        call(7, 5, false),
        TraceOp::Ret,
        TraceOp::Ret,
    ];
    WorkloadTrace {
        threads: vec![
            ThreadStart {
                tid: ThreadId::MAIN,
                root: FunctionId::new(0),
                parent: None,
            },
            ThreadStart {
                tid: ThreadId::new(1),
                root: FunctionId::new(30),
                parent: Some((ThreadId::MAIN, CallSiteId::new(31))),
            },
        ],
        traces: HashMap::from([(ThreadId::MAIN, main), (ThreadId::new(1), child)]),
    }
}

fn docs() -> &'static Docs {
    static DOCS: OnceLock<Docs> = OnceLock::new();
    DOCS.get_or_init(|| {
        let config = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            profiler_stride: 3,
            journal_ring_capacity: 8,
            ..DacceConfig::default()
        };
        let tracker = Tracker::with_config(config.clone());
        tracker.observability().set_journaling(true);
        let main = tracker.define_function("main");
        let f: Vec<_> = (0..6)
            .map(|i| tracker.define_function(&format!("f{i}")))
            .collect();
        let s: Vec<_> = (0..10).map(|_| tracker.define_call_site()).collect();
        let th = tracker.register_thread(main);
        let mut samples = Vec::new();
        for round in 0..12 {
            let k = round % 3;
            let _a = th.call(s[0], f[0]);
            let _b = th.call_indirect(s[1], f[1 + k]);
            let _c = th.call(s[2 + k], f[4]);
            let _d = th.call(s[5], f[4]);
            if round % 4 == 0 {
                samples.push(th.sample());
            }
        }
        let window = [
            BatchOp::Call {
                site: s[6],
                target: f[5],
            },
            BatchOp::Ret,
        ];
        th.run_batch(&window).expect("warm batch runs");
        let superop = vec![
            WindowOp::Call {
                site: s[6],
                target: f[5],
            },
            WindowOp::Ret,
        ];
        assert_eq!(tracker.install_superops(&[superop]), 1);
        th.run_batch(&window).expect("superop batch runs");
        {
            let _g = th.call(s[7], f[3]);
            let child = tracker.register_spawned_thread(f[5], &th, s[8]);
            let _h = child.call(s[9], f[0]);
            samples.push(child.sample());
        }
        assert!(tracker.force_postmortem("fuzz-target"));

        let mut flame = FlameGraph::new(0x00c0_ffee);
        let profile = tracker.profiler_profile();
        for (path, weight) in profile.top(profile.distinct()) {
            let frames: Vec<String> = path
                .0
                .iter()
                .map(|st| tracker.function_name(st.func).unwrap_or_default())
                .collect();
            flame.add(&frames, weight);
        }
        let obs = tracker.observability();
        let snapshot = obs.snapshot();

        let degraded = DacceConfig {
            fault: FaultPlan {
                max_id_cap: Some(0),
                ..FaultPlan::default()
            },
            ..config.clone()
        };
        let trace = small_trace();
        Docs {
            export: export_tracker_state(&tracker) + &export_samples(&samples),
            samples: samples
                .into_iter()
                .map(|ctx| {
                    let path = tracker.decode(&ctx).expect("tracker decodes its sample");
                    (ctx, path)
                })
                .collect(),
            degraded_export: record_journal(&trace, degraded, 4).export,
            journal: record_journal(&trace, config, 4).journal.to_text(),
            postmortem: tracker.postmortem().expect("forced dump"),
            flame: flame.to_collapsed(),
            events: events_to_json(&obs.drain_journal().events),
            prometheus: snapshot.to_prometheus(),
            traps: snapshot.traps,
        }
    })
}

#[test]
fn documents_cover_every_record_kind() {
    let d = docs();
    let export_records = [
        "\ndict ",
        "\nnode ",
        "\nedge ",
        "\nowner ",
        " mono ",
        " poly ",
        "\nsuperop ",
        "\nsample ",
        " | ",
    ];
    let journal_records = [
        "\nthread ",
        "\nseam ",
        "\nop c ",
        "\nop r ",
        "\nop s\n",
        "\nop g ",
        "\nend\n",
    ];
    for (doc, records) in [
        (&d.export, &export_records[..]),
        (&d.degraded_export, &["\ndegraded ", "\ndegradednode "][..]),
        (&d.journal, &journal_records[..]),
        (&d.postmortem, &["\"event\""][..]),
    ] {
        for r in records {
            assert!(doc.contains(r), "no {r:?} record in:\n{doc}");
        }
    }
    // Exhaustive mutations reach the first dictionary and the first call.
    assert!(kind_leaders(&d.export)
        .iter()
        .any(|l| l.starts_with("dict 0 ")));
    assert!(kind_leaders(&d.journal)
        .iter()
        .any(|l| l.starts_with("op c ")));
    let postmortem = parse_postmortem(&d.postmortem).expect("postmortem parses");
    assert!(!postmortem.generations.is_empty() && !postmortem.spans.is_empty());
    assert!(d.flame.lines().count() > 1, "empty flame:\n{}", d.flame);
    assert!(d.events.lines().count() > 2, "no events");
}

#[test]
fn render_parse_render_is_the_identity() {
    let d = docs();
    let journal = DecodeJournal::parse(&d.journal).expect("journal parses");
    assert_eq!(journal.to_text(), d.journal);
    let postmortem = parse_postmortem(&d.postmortem).expect("postmortem parses");
    assert_eq!(postmortem.to_string(), d.postmortem);
    let flame = FlameGraph::parse(&d.flame).expect("flame parses");
    assert_eq!(flame.to_collapsed(), d.flame);
    let events = events_from_json(&d.events).expect("events parse");
    assert_eq!(events_to_json(&events), d.events);

    let offline = import(&d.export).expect("export imports");
    let samples: Vec<EncodedContext> = d.samples.iter().map(|(ctx, _)| ctx.clone()).collect();
    assert_eq!(offline.samples(), &samples[..]);
    for (ctx, path) in &d.samples {
        assert_eq!(&offline.decode(ctx).expect("offline decodes"), path);
    }
    assert_eq!(offline.superops().len(), 1);
    let degraded = import(&d.degraded_export).expect("degraded export imports");
    assert!(degraded.degraded().active);

    let prom = PromDoc::parse(&d.prometheus).expect("metrics parse");
    let rendered = d
        .prometheus
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .count();
    assert_eq!(prom.samples().len(), rendered);
    assert_eq!(prom.get("dacce_traps_total"), Some(d.traps));
}

/// Splits `text` into maximal runs of ASCII alphanumerics and single
/// other characters; the tokens concatenate back to `text`.
fn tokens(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut run = None;
    for (i, c) in text.char_indices() {
        if c.is_ascii_alphanumeric() {
            run.get_or_insert(i);
            continue;
        }
        if let Some(start) = run.take() {
            out.push(&text[start..i]);
        }
        out.push(&text[i..i + c.len_utf8()]);
    }
    if let Some(start) = run {
        out.push(&text[start..]);
    }
    out
}

/// Applies one mutation: `op` 0 drops token `at`, 1 duplicates it, 2
/// replaces it with `ALPHABET[with]`.
fn mutate(toks: &mut Vec<&str>, op: u8, at: usize, with: usize) {
    match op {
        0 => {
            toks.remove(at);
        }
        1 => toks.insert(at, toks[at]),
        _ => toks[at] = ALPHABET[with],
    }
}

/// The first line of each record kind, for the first
/// [`EXHAUSTIVE_KINDS`] kinds in document order (lines keep their `\n`).
fn kind_leaders(doc: &str) -> Vec<&str> {
    let mut seen = Vec::new();
    let mut leaders = Vec::new();
    for line in doc.split_inclusive('\n') {
        let kind: Vec<String> = line
            .split_whitespace()
            .take(2)
            .map(|w| w.replace(|c: char| c.is_ascii_digit(), ""))
            .collect();
        if leaders.len() < EXHAUSTIVE_KINDS && !seen.contains(&kind) {
            seen.push(kind);
            leaders.push(line);
        }
    }
    leaders
}

/// The codec formats' grammars are DACCE's own, so their records get
/// exhaustive mutations; the outside grammars get the random ones only.
#[test]
fn single_token_mutations_of_each_codec_record_kind_never_panic() {
    let d = docs();
    let ops = [(0, 0), (1, 0)]
        .into_iter()
        .chain((0..ALPHABET.len()).map(|with| (2, with)));
    for format in [Format::Export, Format::Journal, Format::Postmortem] {
        for doc in d.of(format) {
            for leader in kind_leaders(doc) {
                let offset = leader.as_ptr() as usize - doc.as_ptr() as usize;
                let (before, after) = (&doc[..offset], &doc[offset + leader.len()..]);
                let toks = tokens(leader);
                for at in 0..toks.len() {
                    for (op, with) in ops.clone() {
                        let mut m = toks.clone();
                        mutate(&mut m, op, at, with);
                        parse_without_panic(format, &(before.to_string() + &m.concat() + after));
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: RANDOM_CASES, ..ProptestConfig::default() })]

    #[test]
    fn random_mutations_never_panic(
        muts in prop::collection::vec((0u8..3, 0u64..u64::MAX, 0usize..ALPHABET.len()), 1..4),
    ) {
        for (format, doc) in tokenized() {
            let mut toks = doc.clone();
            for &(op, at, with) in &muts {
                if !toks.is_empty() {
                    let at = (at % toks.len() as u64) as usize;
                    mutate(&mut toks, op, at, with);
                }
            }
            parse_without_panic(*format, &toks.concat());
        }
    }
}

/// Every document, split into tokens once.
fn tokenized() -> &'static [(Format, Vec<&'static str>)] {
    static TOKENS: OnceLock<Vec<(Format, Vec<&'static str>)>> = OnceLock::new();
    TOKENS.get_or_init(|| {
        let d = docs();
        FORMATS
            .iter()
            .flat_map(|&format| {
                d.of(format)
                    .into_iter()
                    .map(move |doc| (format, tokens(doc)))
            })
            .collect()
    })
}
