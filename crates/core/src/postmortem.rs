//! The flight-recorder postmortem format (`# dacce-postmortem v1`).
//!
//! The runtime dumps a postmortem when it first enters degraded mode,
//! exhausts its re-encode retries, or is asked to via `force_postmortem`:
//!
//! ```text
//! # dacce-postmortem v1
//! reason=<why>            then generation, max_id, spans, events, dropped
//! [degraded]
//! active=<0|1>            then the other DegradedState counters
//! [generations]
//! generation,nodes,edges,max_id,cost
//! <one CSV row per encoding generation>
//! [spans]
//! tid,from,to,applied,cost,begin_seq,end_seq,pause_ns
//! <one CSV row per re-encode span, the last 32 at most>
//! [events]
//! <the peeked journal as a JSON array, one event per line>
//! ```
//!
//! The key lists and the row types (whose field names are the CSV
//! columns) below are the one definition both [`Postmortem`]'s renderer
//! (its `Display`) and [`parse_postmortem`] use; line and field rules come
//! from the shared line-record codec. Semantic checks (span bounds,
//! cross-section totals) live in `dacce-lint --postmortem`, not here.

use std::fmt;

use dacce_obs::{
    events_from_json, events_to_json, EventRecord, GenerationInfo, JournalBatch, SpanTimeline,
};

use crate::codec::{at_end, records, Fields, ImportError, Parts};
use crate::stats::DegradedState;

/// Header line of the postmortem format.
pub const HEADER: &str = "# dacce-postmortem v1";
/// Re-encode spans a postmortem retains: the last 32.
pub const MAX_SPANS: usize = 32;
/// Key of the first line, whose value is free text.
pub const REASON_KEY: &str = "reason";
/// Keys of the numeric `key=value` lines after the reason, in order.
pub const HEADER_KEYS: [&str; 5] = ["generation", "max_id", "spans", "events", "dropped"];
/// Keys of the `[degraded]` block, in order.
pub const DEGRADED_KEYS: [&str; 9] = [
    "active",
    "trap_nodes",
    "degraded_traps",
    "reencode_retries",
    "cc_spill_events",
    "cc_spilled_peak",
    "lock_poisonings",
    "slot_failures",
    "batch_errors",
];

/// A CSV table row of `u64` cells.
trait Row: Sized {
    /// The column header: the field names, comma-joined.
    fn header() -> String;
    fn cells(&self) -> Vec<u64>;
    fn read(f: &mut Parts<'_>) -> Result<Self, ImportError>;
}

/// Declares a row type whose field names are its columns, in order.
macro_rules! row {
    ($(#[$doc:meta])* $name:ident { $($(#[$fdoc:meta])* $field:ident,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct $name { $($(#[$fdoc])* pub $field: u64,)* }

        impl Row for $name {
            fn header() -> String {
                [$(stringify!($field)),*].join(",")
            }
            fn cells(&self) -> Vec<u64> {
                vec![$(self.$field),*]
            }
            fn read(f: &mut Parts<'_>) -> Result<Self, ImportError> {
                Ok($name { $($field: f.num(stringify!($field))?,)* })
            }
        }
    };
}

row! {
    /// One row of the postmortem's generation table.
    GenerationRow {
        /// Encoding generation (the dictionary's `gTimeStamp`).
        generation,
        /// Nodes in that generation's encoded graph.
        nodes,
        /// Encoded edges in that generation.
        edges,
        /// The generation's `maxID`.
        max_id,
        /// Cost charged for producing the generation.
        cost,
    }
}

row! {
    /// One row of the postmortem's re-encode span table.
    SpanRow {
        /// Thread that ran the re-encode.
        tid,
        /// Generation the span started from.
        from,
        /// Generation the span ended at.
        to,
        /// 1 when the re-encode applied, 0 when it aborted.
        applied,
        /// Cost charged for the span.
        cost,
        /// Journal sequence number of the begin event.
        begin_seq,
        /// Journal sequence number of the end event.
        end_seq,
        /// Wall-clock pause attributed to the span, in nanoseconds.
        pause_ns,
    }
}

/// A `dacce-postmortem v1` document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Postmortem {
    /// Why the dump was captured (e.g. `degraded-entry`).
    pub reason: String,
    /// Encoding generation at capture time.
    pub generation: u64,
    /// `maxID` at capture time.
    pub max_id: u64,
    /// Declared number of span rows.
    pub spans_declared: u64,
    /// Declared number of journal events.
    pub events_declared: u64,
    /// Events the journal had dropped by capture time.
    pub dropped: u64,
    /// The `[degraded]` counters, in [`DEGRADED_KEYS`] order.
    pub degraded: [u64; 9],
    /// The `[generations]` table rows.
    pub generations: Vec<GenerationRow>,
    /// The `[spans]` table rows.
    pub spans: Vec<SpanRow>,
    /// The `[events]` journal records.
    pub events: Vec<EventRecord>,
}

impl Postmortem {
    /// Assembles the document the runtime dumps from the peeked journal
    /// `batch`: its last [`MAX_SPANS`] stitched re-encode spans and all
    /// its events.
    pub(crate) fn capture(
        reason: &str,
        generation: u32,
        max_id: u64,
        d: &DegradedState,
        generations: &[GenerationInfo],
        batch: JournalBatch,
    ) -> Postmortem {
        let timeline = SpanTimeline::stitch(&batch.events);
        let spans = timeline.last(MAX_SPANS);
        Postmortem {
            reason: reason.to_string(),
            generation: generation.into(),
            max_id,
            spans_declared: spans.len() as u64,
            events_declared: batch.events.len() as u64,
            dropped: batch.dropped,
            degraded: [
                u64::from(d.active),
                d.trap_nodes.len() as u64,
                d.degraded_traps,
                d.reencode_retries,
                d.cc_spill_events,
                d.cc_spilled_peak,
                d.lock_poisonings,
                d.slot_failures,
                d.batch_errors,
            ],
            generations: generations
                .iter()
                .map(|g| GenerationRow {
                    generation: g.generation.into(),
                    nodes: g.nodes.into(),
                    edges: g.edges.into(),
                    max_id: g.max_id,
                    cost: g.cost,
                })
                .collect(),
            spans: spans
                .iter()
                .map(|s| SpanRow {
                    tid: s.tid.into(),
                    from: s.from_generation.into(),
                    to: s.to_generation.into(),
                    applied: s.applied.into(),
                    cost: s.cost,
                    begin_seq: s.begin_seq,
                    end_seq: s.end_seq,
                    pause_ns: s.pause_ns(),
                })
                .collect(),
            events: batch.events,
        }
    }

    /// The value of one `[degraded]` counter, if `key` is one.
    #[must_use]
    pub fn degraded_counter(&self, key: &str) -> Option<u64> {
        let i = DEGRADED_KEYS.iter().position(|k| *k == key)?;
        Some(self.degraded[i])
    }
}

fn write_table<R: Row>(f: &mut fmt::Formatter<'_>, section: &str, rows: &[R]) -> fmt::Result {
    writeln!(f, "{section}\n{}", R::header())?;
    for row in rows {
        let cells: Vec<String> = row.cells().iter().map(u64::to_string).collect();
        writeln!(f, "{}", cells.join(","))?;
    }
    Ok(())
}

impl fmt::Display for Postmortem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{HEADER}\n{REASON_KEY}={}", self.reason)?;
        let header = [
            self.generation,
            self.max_id,
            self.spans_declared,
            self.events_declared,
            self.dropped,
        ];
        for (key, value) in HEADER_KEYS.iter().zip(header) {
            writeln!(f, "{key}={value}")?;
        }
        writeln!(f, "[degraded]")?;
        for (key, value) in DEGRADED_KEYS.iter().zip(self.degraded) {
            writeln!(f, "{key}={value}")?;
        }
        write_table(f, "[generations]", &self.generations)?;
        write_table(f, "[spans]", &self.spans)?;
        writeln!(f, "[events]\n{}", events_to_json(&self.events))
    }
}

/// Yields the next record, or an error naming what is missing.
type Next<'a, 'n> = dyn FnMut(&str) -> Result<(usize, &'a str), ImportError> + 'n;

/// The next line, which must be `want`.
fn expect_line(next: &mut Next<'_, '_>, want: &str) -> Result<(), ImportError> {
    match next(want)? {
        (_, line) if line == want => Ok(()),
        (n, line) => Err(ImportError::BadLine(
            n,
            format!("expected {want:?}, found {line:?}"),
        )),
    }
}

/// The next lines as `key=<u64>`, one per key.
fn key_values<const N: usize>(
    next: &mut Next<'_, '_>,
    keys: &[&str; N],
) -> Result<[u64; N], ImportError> {
    let mut values = [0; N];
    for (value, key) in values.iter_mut().zip(keys) {
        let (n, line) = next(key)?;
        let mut f = Fields::split(n, line, '=');
        if f.word(key)? != *key {
            return Err(f.err(format!("expected `{key}=...`, found {line:?}")));
        }
        *value = f.num(key)?;
        f.end()?;
    }
    Ok(values)
}

/// A CSV table: its column header, then rows up to the line `until`.
fn table<R: Row>(next: &mut Next<'_, '_>, until: &str) -> Result<Vec<R>, ImportError> {
    expect_line(next, &R::header())?;
    let mut rows = Vec::new();
    loop {
        match next(until)? {
            (_, line) if line == until => return Ok(rows),
            (n, line) => {
                let mut f = Fields::split(n, line, ',');
                rows.push(R::read(&mut f)?);
                f.end()?;
            }
        }
    }
}

/// Parses a `dacce-postmortem v1` document. This only enforces structure;
/// `dacce-lint --postmortem` checks the document's arithmetic.
///
/// # Errors
///
/// Returns [`ImportError`] on malformed input.
pub fn parse_postmortem(text: &str) -> Result<Postmortem, ImportError> {
    let mut lines = records(text, HEADER)?;
    let mut next = |what: &str| {
        lines
            .next()
            .ok_or_else(|| at_end(text, format!("missing {what}")))
    };
    let (n, line) = next(REASON_KEY)?;
    let reason = line
        .strip_prefix(REASON_KEY)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| ImportError::BadLine(n, format!("expected `reason=...`, found {line:?}")))?;
    let [generation, max_id, spans_declared, events_declared, dropped] =
        key_values(&mut next, &HEADER_KEYS)?;
    expect_line(&mut next, "[degraded]")?;
    let degraded = key_values(&mut next, &DEGRADED_KEYS)?;
    expect_line(&mut next, "[generations]")?;
    let generations = table(&mut next, "[spans]")?;
    let spans = table(&mut next, "[events]")?;
    // The rest is the events JSON array; errors point at its first line.
    let (numbers, events): (Vec<usize>, Vec<&str>) = lines.unzip();
    let events = events_from_json(&events.join("\n")).map_err(|e| match numbers.first() {
        Some(&n) => ImportError::BadLine(n, e),
        None => at_end(text, e),
    })?;
    Ok(Postmortem {
        reason: reason.to_string(),
        generation,
        max_id,
        spans_declared,
        events_declared,
        dropped,
        degraded,
        generations,
        spans,
        events,
    })
}
