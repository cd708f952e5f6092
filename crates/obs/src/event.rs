//! Typed lifecycle events and their fixed-width / JSON codecs.
//!
//! Every event the runtime can emit is a variant of [`EventKind`]; a
//! [`EventRecord`] wraps the kind with a global sequence number, a
//! monotonic timestamp (nanoseconds since the journal epoch) and the
//! emitting thread. Records serialise two ways:
//!
//! - a fixed array of `u64` words (`WORDS` per record) so the lock-free
//!   ring buffer can store them in plain atomics, and
//! - one flat JSON object per event for export / replay.
//!
//! Both codecs are derived from the one table in the `event_kinds!`
//! invocation below: each kind's name, and each field's name (in JSON
//! order), type and width in ring bits.

/// Number of `u64` words a serialised [`EventRecord`] occupies in a ring
/// slot: tag+tid packed, seq, nanos, and the payload words.
pub(crate) const WORDS: usize = 3 + PAYLOAD_WORDS;

/// Ring words that carry an event's fields.
const PAYLOAD_WORDS: usize = 4;

/// Most fields any kind has.
const MAX_FIELDS: usize = 8;

/// An [`EventKind`] field type: widened to `u64` for both codecs and
/// narrowed back on decode.
trait Field: Sized {
    fn widen(self) -> u64;
    fn narrow(v: u64) -> Option<Self>;
}

impl Field for u32 {
    fn widen(self) -> u64 {
        u64::from(self)
    }
    fn narrow(v: u64) -> Option<u32> {
        u32::try_from(v).ok()
    }
}

impl Field for u64 {
    fn widen(self) -> u64 {
        self
    }
    fn narrow(v: u64) -> Option<u64> {
        Some(v)
    }
}

impl Field for bool {
    fn widen(self) -> u64 {
        u64::from(self)
    }
    fn narrow(v: u64) -> Option<bool> {
        Some(v != 0)
    }
}

fn narrow<T: Field>(key: &str, v: u64) -> Result<T, String> {
    T::narrow(v).ok_or_else(|| format!("field `{key}` overflows {}", std::any::type_name::<T>()))
}

/// Declares [`EventKind`] together with `NAMES` (each kind's name),
/// `FIELDS` (each kind's `(field, ring bits)` list, in JSON order), and the
/// conversions between a kind and its index plus field values. A field
/// narrower in the ring than its type saturates there.
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $kind:ident = $name:literal {
            $( $(#[$fdoc:meta])* $field:ident: $ty:ty = $bits:literal, )*
        }
    )*) => {
        /// A typed runtime lifecycle event.
        ///
        /// Variants mirror the DACCE state machine: cold-start traps,
        /// call-site patching, edge discovery, adaptive re-encoding under
        /// `gTimeStamp`, ccStack traffic, lazy cross-generation migration,
        /// warm-start seeding and profiler samples.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$doc])* $kind { $( $(#[$fdoc])* $field: $ty, )* }, )*
        }

        /// Kind indices, in declaration order.
        enum Tag { $( $kind, )* }

        const NAMES: &[&str] = &[ $( $name, )* ];

        const FIELDS: &[&[(&str, u32)]] = &[ $( &[ $( (stringify!($field), $bits), )* ], )* ];

        impl EventKind {
            /// The kind's index and its field values, widened.
            fn values(&self) -> (usize, [u64; MAX_FIELDS]) {
                let mut out = [0; MAX_FIELDS];
                let tag = match *self {
                    $( EventKind::$kind { $( $field, )* } => {
                        for (slot, v) in out.iter_mut().zip([$( Field::widen($field), )*]) {
                            *slot = v;
                        }
                        Tag::$kind
                    } )*
                };
                (tag as usize, out)
            }

            /// Builds kind `index` from its field values, in field order.
            fn from_values(index: usize, values: &[u64]) -> Result<EventKind, String> {
                let mut next = values.iter().copied();
                $( if index == Tag::$kind as usize {
                    return Ok(EventKind::$kind { $(
                        $field: narrow(stringify!($field), next.next().unwrap_or(0))?,
                    )* });
                } )*
                Err(format!("unknown event index {index}"))
            }
        }
    };
}

event_kinds! {
    /// A call site trapped into the runtime handler (first execution of
    /// an edge, or an unpatched indirect target).
    Trap = "trap" {
        /// Call-site identifier.
        site: u32 = 32,
        /// Caller function id.
        caller: u32 = 32,
        /// Callee function id.
        callee: u32 = 32,
    }
    /// A call site was (re)patched; `targets` is the number of callee
    /// targets the site dispatches to after patching.
    SitePatched = "site_patched" {
        /// Call-site identifier.
        site: u32 = 32,
        /// Number of distinct targets the patched site now covers.
        targets: u32 = 32,
    }
    /// A never-before-seen call edge was added to the dynamic call graph.
    EdgeDiscovered = "edge_discovered" {
        /// Call-site identifier through which the edge was observed.
        site: u32 = 32,
        /// Caller function id.
        caller: u32 = 32,
        /// Callee function id.
        callee: u32 = 32,
    }
    /// An adaptive re-encode started; `generation` is the `gTimeStamp`
    /// in force while the new encoding is computed.
    ReencodeBegin = "reencode_begin" {
        /// Generation (timestamp) being superseded.
        generation: u32 = 32,
    }
    /// A re-encode finished. `applied` is false when the attempt was
    /// aborted (e.g. encoding overflow) and the old generation stays
    /// live.
    ReencodeEnd = "reencode_end" {
        /// Generation in force after the attempt (new one when applied,
        /// the old one when aborted).
        generation: u32 = 32,
        /// Whether the new encoding was published.
        applied: bool = 1,
        /// Abstract cost charged for the attempt.
        cost: u64 = 64,
        /// Nodes in the encoded graph.
        nodes: u32 = 32,
        /// Edges in the encoded graph.
        edges: u32 = 32,
        /// Maximum context id of the new encoding (0 when aborted).
        max_id: u64 = 64,
    }
    /// A value was pushed on a thread's ccStack; `depth` is the stack
    /// depth after the push.
    CcPush = "cc_push" {
        /// ccStack depth after the push.
        depth: u32 = 32,
    }
    /// A value was popped from a thread's ccStack; `depth` is the stack
    /// depth after the pop.
    CcPop = "cc_pop" {
        /// ccStack depth after the pop.
        depth: u32 = 32,
    }
    /// A thread's ccStack reached a new high-water depth at or above the
    /// overflow watermark.
    CcOverflow = "cc_overflow" {
        /// The record depth that crossed the watermark.
        depth: u32 = 32,
    }
    /// A thread lazily migrated its context from one encoding generation
    /// to a newer one.
    Migration = "migration" {
        /// Generation the thread was encoded under.
        from: u32 = 32,
        /// Generation the thread re-encoded into.
        to: u32 = 32,
    }
    /// A warm-start seed was applied before execution began.
    WarmSeed = "warm_seed" {
        /// Edges seeded into the call graph.
        seeded: u32 = 32,
        /// Seed edges pruned to stay within the id budget.
        pruned: u32 = 32,
        /// Maximum context id after seeding.
        max_id: u64 = 64,
    }
    /// The continuous profiler captured one encoded-context sample.
    ///
    /// Carries everything an *offline* decode needs when the ccStack was
    /// empty at capture time (`depth == 0`): the generation selects the
    /// dictionary, and `leaf`/`root` bound Algorithm 1's walk. Deeper
    /// captures still journal the fingerprint for correlation, but only
    /// the in-process profile (which holds the full ccStack) decodes
    /// them exactly.
    Sample = "sample" {
        /// Encoding generation (`gTimeStamp`) at capture time.
        generation: u32 = 32,
        /// The encoded context identifier.
        id: u64 = 64,
        /// Call-site identifier of the sampled call (the sample trigger).
        site: u32 = 32,
        /// Function executing at capture time.
        leaf: u32 = 32,
        /// The thread's root function.
        root: u32 = 32,
        /// FNV-style fingerprint of the ccStack content.
        fingerprint: u32 = 32,
        /// Cost units the sample represents (events skipped since the
        /// previous sample, i.e. the effective stride). Saturates at
        /// `u16::MAX` in the wire encoding.
        weight: u32 = 16,
        /// ccStack depth at capture time. Saturates at `u16::MAX`.
        depth: u32 = 16,
    }
}

/// Where each field sits in the payload words, `(word, shift)`: every
/// field goes into the first word with room left, in field order.
const LAYOUT: [[(usize, u32); MAX_FIELDS]; NAMES.len()] = layout();

const fn layout() -> [[(usize, u32); MAX_FIELDS]; NAMES.len()] {
    let mut out = [[(0, 0); MAX_FIELDS]; NAMES.len()];
    let mut k = 0;
    while k < FIELDS.len() {
        let fields = FIELDS[k];
        assert!(fields.len() <= MAX_FIELDS, "raise MAX_FIELDS");
        let mut used = [0u32; PAYLOAD_WORDS];
        let mut f = 0;
        while f < fields.len() {
            let bits = fields[f].1;
            let mut w = 0;
            while used[w] + bits > 64 {
                w += 1;
                assert!(w < PAYLOAD_WORDS, "fields overflow the payload words");
            }
            out[k][f] = (w, used[w]);
            used[w] += bits;
            f += 1;
        }
        k += 1;
    }
    out
}

/// The largest value a `bits`-wide ring field holds.
const fn mask(bits: u32) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    }
}

impl EventKind {
    /// Stable lowercase name used in JSON exports and rate tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        NAMES[self.values().0]
    }

    /// All event names, in tag order; used for by-kind tables.
    #[must_use]
    pub fn all_names() -> &'static [&'static str] {
        NAMES
    }
}

/// One journal entry: an [`EventKind`] plus ordering metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Global sequence number; a strict total order across all threads.
    pub seq: u64,
    /// Nanoseconds since the journal epoch (monotonic clock).
    pub nanos: u64,
    /// Emitting thread id (`ThreadId::raw`).
    pub tid: u32,
    /// The event itself.
    pub kind: EventKind,
}

impl EventRecord {
    pub(crate) fn to_words(self) -> [u64; WORDS] {
        let (k, values) = self.kind.values();
        let mut w = [0; WORDS];
        // Tags start at 1 so an all-zero slot never decodes.
        w[0] = (k as u64 + 1) | (u64::from(self.tid) << 32);
        w[1] = self.seq;
        w[2] = self.nanos;
        for (&(_, bits), (&(word, shift), v)) in FIELDS[k].iter().zip(LAYOUT[k].iter().zip(values))
        {
            w[3 + word] |= v.min(mask(bits)) << shift;
        }
        w
    }

    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn from_words(w: [u64; WORDS]) -> Option<EventRecord> {
        let k = ((w[0] & 0xffff_ffff) as usize).checked_sub(1)?;
        let fields = FIELDS.get(k)?;
        let mut values = [0; MAX_FIELDS];
        for ((&(_, bits), &(word, shift)), v) in fields.iter().zip(&LAYOUT[k]).zip(&mut values) {
            *v = (w[3 + word] >> shift) & mask(bits);
        }
        Some(EventRecord {
            seq: w[1],
            nanos: w[2],
            tid: (w[0] >> 32) as u32,
            kind: EventKind::from_values(k, &values[..fields.len()]).ok()?,
        })
    }

    /// Renders this record as one flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let (k, values) = self.kind.values();
        let mut s = format!(
            "{{\"seq\":{},\"nanos\":{},\"tid\":{},\"event\":\"{}\"",
            self.seq, self.nanos, self.tid, NAMES[k]
        );
        for (&(key, _), value) in FIELDS[k].iter().zip(values) {
            let _ = write!(s, ",\"{key}\":{value}");
        }
        s.push('}');
        s
    }

    /// Parses a record from the flat JSON object produced by
    /// [`EventRecord::to_json`].
    ///
    /// # Errors
    /// Returns a description of the first malformed construct.
    pub fn from_json(line: &str) -> Result<EventRecord, String> {
        let pairs = parse_flat_object(line)?;
        let value = |key: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("missing field `{key}` in event: {line}"))
        };
        let num = |key: &str| -> Result<u64, String> {
            value(key)?
                .parse::<u64>()
                .map_err(|_| format!("field `{key}` is not an integer in event: {line}"))
        };
        let name = value("event")?;
        let k = NAMES
            .iter()
            .position(|n| *n == name)
            .ok_or_else(|| format!("unknown event kind `{name}`"))?;
        let values = FIELDS[k]
            .iter()
            .map(|&(key, _)| num(key))
            .collect::<Result<Vec<u64>, String>>()?;
        let kind = EventKind::from_values(k, &values)?;
        Ok(EventRecord {
            seq: num("seq")?,
            nanos: num("nanos")?,
            tid: narrow("tid", num("tid")?)?,
            kind,
        })
    }
}

/// Renders a slice of records as a JSON array, one object per line.
#[must_use]
pub fn events_to_json(events: &[EventRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str(&ev.to_json());
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Parses the JSON array produced by [`events_to_json`].
///
/// # Errors
/// Returns a description of the first malformed line.
pub fn events_from_json(text: &str) -> Result<Vec<EventRecord>, String> {
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        out.push(EventRecord::from_json(line)?);
    }
    Ok(out)
}

/// Splits a one-line flat JSON object into `(key, value)` string pairs.
/// Values keep their literal text except string values, which are
/// unquoted. Nested objects/arrays are rejected.
fn parse_flat_object(line: &str) -> Result<Vec<(String, String)>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line}"))?;
    let mut pairs = Vec::new();
    for part in split_top_level(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part
            .split_once(':')
            .ok_or_else(|| format!("malformed pair `{part}`"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim();
        if value.starts_with('{') || value.starts_with('[') {
            return Err(format!("nested value for `{key}` not supported"));
        }
        let value = match value {
            "true" => "1".to_string(),
            "false" => "0".to_string(),
            other => other.trim_matches('"').to_string(),
        };
        pairs.push((key, value));
    }
    Ok(pairs)
}

/// Splits on commas that are not inside a quoted string.
fn split_top_level(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for ch in body.chars() {
        match ch {
            '"' => {
                in_string = !in_string;
                current.push(ch);
            }
            ',' if !in_string => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(ch),
        }
    }
    parts.push(current);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kinds() -> Vec<EventKind> {
        vec![
            EventKind::Trap {
                site: 7,
                caller: 1,
                callee: 2,
            },
            EventKind::SitePatched {
                site: 7,
                targets: 3,
            },
            EventKind::EdgeDiscovered {
                site: 7,
                caller: 1,
                callee: 2,
            },
            EventKind::ReencodeBegin { generation: 4 },
            EventKind::ReencodeEnd {
                generation: 5,
                applied: true,
                cost: 1234,
                nodes: 10,
                edges: 22,
                max_id: 99,
            },
            EventKind::ReencodeEnd {
                generation: 5,
                applied: false,
                cost: 50,
                nodes: 0,
                edges: 0,
                max_id: 0,
            },
            EventKind::CcPush { depth: 3 },
            EventKind::CcPop { depth: 2 },
            EventKind::CcOverflow { depth: 64 },
            EventKind::Migration { from: 2, to: 5 },
            EventKind::WarmSeed {
                seeded: 40,
                pruned: 2,
                max_id: 500,
            },
            EventKind::Sample {
                generation: 3,
                id: 0xdead_beef_cafe,
                site: 12,
                leaf: 4,
                root: 0,
                fingerprint: 0x9e37_79b9,
                weight: 509,
                depth: 17,
            },
        ]
    }

    #[test]
    fn words_roundtrip_every_kind() {
        for (i, kind) in sample_kinds().into_iter().enumerate() {
            let rec = EventRecord {
                seq: i as u64 * 3 + 1,
                nanos: 1_000_000 + i as u64,
                tid: u32::try_from(i).unwrap(),
                kind,
            };
            let back = EventRecord::from_words(rec.to_words()).expect("decodable");
            assert_eq!(rec, back);
        }
    }

    #[test]
    fn json_roundtrip_every_kind() {
        let records: Vec<EventRecord> = sample_kinds()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| EventRecord {
                seq: i as u64,
                nanos: 42 + i as u64,
                tid: 1,
                kind,
            })
            .collect();
        let text = events_to_json(&records);
        let back = events_from_json(&text).expect("parse");
        assert_eq!(records, back);
    }

    #[test]
    fn sample_wire_encoding_saturates_weight_and_depth() {
        let rec = EventRecord {
            seq: 1,
            nanos: 2,
            tid: 3,
            kind: EventKind::Sample {
                generation: 9,
                id: u64::MAX,
                site: 1,
                leaf: 2,
                root: 0,
                fingerprint: u32::MAX,
                weight: 1 << 20,
                depth: 1 << 20,
            },
        };
        let back = EventRecord::from_words(rec.to_words()).expect("decodable");
        match back.kind {
            EventKind::Sample {
                id, weight, depth, ..
            } => {
                assert_eq!(id, u64::MAX);
                assert_eq!(weight, 0xffff);
                assert_eq!(depth, 0xffff);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    /// Pins the JSON export format byte for byte: one record of every
    /// kind, plus a `Sample` whose weight and depth saturated in the ring.
    #[test]
    fn json_format_is_stable() {
        let mut kinds = sample_kinds();
        let wide = EventRecord {
            seq: 0,
            nanos: 0,
            tid: 0,
            kind: EventKind::Sample {
                generation: 2,
                id: 77,
                site: 5,
                leaf: 6,
                root: 1,
                fingerprint: 0xabcd,
                weight: 70_000,
                depth: 1 << 20,
            },
        };
        kinds.push(
            EventRecord::from_words(wide.to_words())
                .expect("decodable")
                .kind,
        );
        let records: Vec<EventRecord> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| EventRecord {
                seq: i as u64,
                nanos: 100 * i as u64,
                tid: if i % 2 == 0 { u32::MAX } else { 3 },
                kind,
            })
            .collect();
        let golden = r#"[
{"seq":0,"nanos":0,"tid":4294967295,"event":"trap","site":7,"caller":1,"callee":2},
{"seq":1,"nanos":100,"tid":3,"event":"site_patched","site":7,"targets":3},
{"seq":2,"nanos":200,"tid":4294967295,"event":"edge_discovered","site":7,"caller":1,"callee":2},
{"seq":3,"nanos":300,"tid":3,"event":"reencode_begin","generation":4},
{"seq":4,"nanos":400,"tid":4294967295,"event":"reencode_end","generation":5,"applied":1,"cost":1234,"nodes":10,"edges":22,"max_id":99},
{"seq":5,"nanos":500,"tid":3,"event":"reencode_end","generation":5,"applied":0,"cost":50,"nodes":0,"edges":0,"max_id":0},
{"seq":6,"nanos":600,"tid":4294967295,"event":"cc_push","depth":3},
{"seq":7,"nanos":700,"tid":3,"event":"cc_pop","depth":2},
{"seq":8,"nanos":800,"tid":4294967295,"event":"cc_overflow","depth":64},
{"seq":9,"nanos":900,"tid":3,"event":"migration","from":2,"to":5},
{"seq":10,"nanos":1000,"tid":4294967295,"event":"warm_seed","seeded":40,"pruned":2,"max_id":500},
{"seq":11,"nanos":1100,"tid":3,"event":"sample","generation":3,"id":244837814094590,"site":12,"leaf":4,"root":0,"fingerprint":2654435769,"weight":509,"depth":17},
{"seq":12,"nanos":1200,"tid":4294967295,"event":"sample","generation":2,"id":77,"site":5,"leaf":6,"root":1,"fingerprint":43981,"weight":65535,"depth":65535}
]"#;
        assert_eq!(events_to_json(&records), golden);
    }

    #[test]
    fn bad_words_rejected() {
        assert!(EventRecord::from_words([999, 0, 0, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn bad_json_rejected() {
        assert!(EventRecord::from_json("{\"seq\":1}").is_err());
        assert!(EventRecord::from_json("not json").is_err());
        assert!(
            EventRecord::from_json("{\"seq\":1,\"nanos\":2,\"tid\":0,\"event\":\"mystery\"}")
                .is_err()
        );
    }
}
