//! Offline export of decode state and collected contexts.
//!
//! The deployment story of the paper is *record online, decode offline*:
//! the instrumented process only appends tiny encoded contexts to its log;
//! the decode dictionaries are dumped once (plus once per re-encoding) and
//! the expensive reconstruction happens in a separate analysis process.
//! This module provides that boundary as a plain-text, line-oriented
//! format (no external dependencies, stable across versions of this
//! crate):
//!
//! ```text
//! dacce-export v1
//! dict <ts> <maxID>
//! node <func> <numCC>
//! edge <caller> <callee> <site> <encoding> <back> <dispatch>
//! enddict
//! owner <site> <func>
//! dispatch <site> <slot> <kind> <target|-> <action|-> <tcwrap>
//! degraded <active> <traps> <retries> <spills> <spilledpeak> <poisonings> <slotfail> <batcherr>
//! degradednode <func>
//! superop <calls> <ccops> <compresshits> <ccpeak> <c:site:target|r ...>
//! sample <ts> <id> <leaf> <root> <cc-entries> | <spawn-site> <parent...>
//! ```
//!
//! `dispatch` lines dump the compiled dispatch table of the *current*
//! generation (one line per known target for polymorphic sites; `kind` is
//! `trap`, `mono` or `poly`; `action` is `enc:<delta>`, `cc` or `ccc`).
//! They let an offline verifier check the flat table edge-for-edge against
//! the latest dictionary (`dacce-lint --dispatch`).
//!
//! `superop` lines dump the compiled superop table of the current
//! generation: the call/return window (`c:<site>:<target>` and `r`
//! tokens) followed by the memoized net effect the runtime applies on a
//! hit. `dacce-lint --superops` re-folds each window event-by-event
//! through the exported dispatch records and rejects a net effect that
//! does not match.
//!
//! [`export_state`] dumps an engine's dictionaries and site-owner table;
//! [`export_samples`] appends contexts; [`import`] parses everything back
//! into an [`OfflineDecoder`] that can decode without the engine. The
//! header, line and field rules (and the `sample` context grammar, shared
//! with `dacce-journal v1`) live in the crate's line-record codec: any
//! input imports or fails with a line-numbered [`ImportError`], never a
//! panic. A `dict` line's `ts` must equal the number of dictionaries
//! before it.

use std::collections::HashMap;
use std::fmt::Write as _;

use dacce_callgraph::encode::Encoding;
use dacce_callgraph::{
    CallGraph, CallSiteId, DecodeDict, DictStore, Dispatch, FunctionId, TimeStamp,
};
use dacce_program::ContextPath;

pub use crate::codec::ImportError;
use crate::codec::{parse_ctx, records, write_ctx, Fields};
use crate::context::EncodedContext;
use crate::decode::{decode_full, DecodeError};
use crate::dispatch::CompiledDispatch;
use crate::engine::DacceEngine;
use crate::patch::EdgeAction;
use crate::stats::DegradedState;
use crate::superop::WindowOp;

/// Header line of the export format.
pub const HEADER: &str = "dacce-export v1";

fn dispatch_tag(d: Dispatch) -> &'static str {
    match d {
        Dispatch::Direct => "direct",
        Dispatch::Indirect => "indirect",
        Dispatch::Plt => "plt",
        Dispatch::Spawn => "spawn",
    }
}

fn action_tag(a: EdgeAction) -> String {
    match a {
        EdgeAction::Encoded { delta } => format!("enc:{delta}"),
        EdgeAction::Unencoded => "cc".into(),
        EdgeAction::UnencodedCompressed => "ccc".into(),
    }
}

/// Serialises the engine's decode dictionaries and site owners.
pub fn export_state(engine: &DacceEngine) -> String {
    export_shared(&engine.shared, &engine.stats().degraded)
}

/// Serialises a [`crate::Tracker`]'s shared encoding state in the same
/// `dacce-export v1` format as [`export_state`]. Pending per-thread
/// deltas are absorbed first, so the dump reflects everything the tracker
/// has observed. Used by fleet tooling to compare a shared-lineage
/// tenant's decode state against a standalone twin.
pub fn export_tracker_state(tracker: &crate::Tracker) -> String {
    let degraded = tracker.stats().degraded;
    tracker.with_shared(|sh| export_shared(sh, &degraded))
}

/// The format body, over the shared state both fronts wrap.
pub(crate) fn export_shared(
    shared: &crate::shared::SharedState,
    degraded: &DegradedState,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    for ts_idx in 0..shared.dicts.len() {
        let ts = TimeStamp::new(ts_idx as u32);
        let dict = shared.dicts.get(ts).expect("indexed in range");
        let _ = writeln!(out, "dict {} {}", ts.raw(), dict.max_id());
        // Nodes: numCC for every function the dictionary's edges touch,
        // then the isolated ones (e.g. `main` before any edge) in graph
        // order.
        let mut nodes: Vec<FunctionId> = dict
            .edges()
            .iter()
            .flat_map(|e| [e.caller, e.callee])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let isolated = shared
            .graph
            .nodes()
            .iter()
            .filter(|f| nodes.binary_search(f).is_err());
        for f in nodes.iter().chain(isolated) {
            if let Some(cc) = dict.num_cc(*f) {
                let _ = writeln!(out, "node {} {}", f.raw(), cc);
            }
        }
        for e in dict.edges() {
            let _ = writeln!(
                out,
                "edge {} {} {} {} {} {}",
                e.caller.raw(),
                e.callee.raw(),
                e.site.raw(),
                e.encoding,
                u8::from(e.back),
                dispatch_tag(e.dispatch),
            );
        }
        let _ = writeln!(out, "enddict");
    }
    let mut owners: Vec<(&CallSiteId, &FunctionId)> = shared.site_owner.iter().collect();
    owners.sort_by_key(|(s, _)| s.raw());
    for (site, func) in owners {
        let _ = writeln!(out, "owner {} {}", site.raw(), func.raw());
    }
    // The compiled dispatch table of the current generation, one line per
    // resolvable target (polymorphic targets sorted for stable output).
    for (site, slot, cs) in shared.dispatch.iter_compiled() {
        match cs.dispatch {
            CompiledDispatch::Trap => {
                let _ = writeln!(
                    out,
                    "dispatch {} {slot} trap - - {}",
                    site.raw(),
                    u8::from(cs.tc_wrap)
                );
            }
            CompiledDispatch::Mono { target, action } => {
                let _ = writeln!(
                    out,
                    "dispatch {} {slot} mono {} {} {}",
                    site.raw(),
                    target.raw(),
                    action_tag(action),
                    u8::from(cs.tc_wrap)
                );
            }
            CompiledDispatch::Poly { index } => {
                let mut targets: Vec<(FunctionId, EdgeAction)> =
                    shared.dispatch.poly_patch(index).targets().collect();
                targets.sort_by_key(|(t, _)| t.raw());
                for (target, action) in targets {
                    let _ = writeln!(
                        out,
                        "dispatch {} {slot} poly {} {} {}",
                        site.raw(),
                        target.raw(),
                        action_tag(action),
                        u8::from(cs.tc_wrap)
                    );
                }
            }
        }
    }
    // The compiled superop table of the current generation: window trace
    // plus memoized net effect, one line per superop.
    for so in shared.superops.iter() {
        let _ = write!(
            out,
            "superop {} {} {} {}",
            so.calls, so.cc_ops, so.compress_hits, so.cc_peak
        );
        for op in &so.window {
            match *op {
                WindowOp::Call { site, target } => {
                    let _ = write!(out, " c:{}:{}", site.raw(), target.raw());
                }
                WindowOp::Ret => out.push_str(" r"),
            }
        }
        out.push('\n');
    }
    // Degraded-state record: lets offline tools audit a run that survived
    // injected faults (one `degradednode` line per demoted function).
    let d = degraded;
    if d.any() {
        let _ = writeln!(
            out,
            "degraded {} {} {} {} {} {} {} {}",
            u8::from(d.active),
            d.degraded_traps,
            d.reencode_retries,
            d.cc_spill_events,
            d.cc_spilled_peak,
            d.lock_poisonings,
            d.slot_failures,
            d.batch_errors,
        );
        for n in &d.trap_nodes {
            let _ = writeln!(out, "degradednode {n}");
        }
    }
    out
}

/// Serialises collected contexts, one `sample` line each.
pub fn export_samples<'a>(samples: impl IntoIterator<Item = &'a EncodedContext>) -> String {
    let mut out = String::new();
    for ctx in samples {
        out.push_str("sample ");
        write_ctx(&mut out, ctx);
        out.push('\n');
    }
    out
}

/// Kind of a [`DispatchRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchKind {
    /// The site still traps into the runtime handler.
    Trap,
    /// Monomorphic: exactly one known target.
    Mono,
    /// Polymorphic: one record line per known target.
    Poly,
}

/// One line of the export's compiled dispatch table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchRecord {
    /// The call site the record compiles.
    pub site: CallSiteId,
    /// The dense slot assigned to the site.
    pub slot: u32,
    /// Record kind.
    pub kind: DispatchKind,
    /// The resolved target (`None` for trap records).
    pub target: Option<FunctionId>,
    /// The action compiled for `target` (`None` for trap records).
    pub action: Option<EdgeAction>,
    /// §5.2 TcStack wrap flag of the site.
    pub tc_wrap: bool,
}

/// One line of the export's compiled superop table: the call/return
/// window plus the memoized net effect the runtime applies on a hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuperOpRecord {
    /// The window trace the superop matches.
    pub window: Vec<WindowOp>,
    /// Call events the window covers.
    pub calls: u64,
    /// ccStack operations (pushes + pops) the window performs.
    pub cc_ops: u64,
    /// Compressed-recursion hits inside the window.
    pub compress_hits: u64,
    /// Peak ccStack depth inside the window, relative to entry.
    pub cc_peak: usize,
}

/// Offline decoding state reassembled from an export.
#[derive(Debug, Default)]
pub struct OfflineDecoder {
    dicts: DictStore,
    owners: HashMap<CallSiteId, FunctionId>,
    samples: Vec<EncodedContext>,
    dispatch: Vec<DispatchRecord>,
    superops: Vec<SuperOpRecord>,
    degraded: DegradedState,
}

impl OfflineDecoder {
    /// The imported dictionaries.
    pub fn dicts(&self) -> &DictStore {
        &self.dicts
    }

    /// The imported samples, in input order.
    pub fn samples(&self) -> &[EncodedContext] {
        &self.samples
    }

    /// The imported call-site owner table.
    pub fn owners(&self) -> &HashMap<CallSiteId, FunctionId> {
        &self.owners
    }

    /// The imported compiled dispatch table, in input order.
    pub fn dispatch(&self) -> &[DispatchRecord] {
        &self.dispatch
    }

    /// The imported compiled superop table, in input order.
    pub fn superops(&self) -> &[SuperOpRecord] {
        &self.superops
    }

    /// The imported degraded-state record (all-zero when the export
    /// carried none — the run saw no faults).
    pub fn degraded(&self) -> &DegradedState {
        &self.degraded
    }

    /// Decodes one context against the imported dictionaries.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for contexts inconsistent with the import.
    pub fn decode(&self, ctx: &EncodedContext) -> Result<ContextPath, DecodeError> {
        decode_full(ctx, &self.dicts, &self.owners)
    }
}

/// Parses an export (state and/or samples, in any order after the header).
///
/// # Errors
///
/// Returns [`ImportError`] on malformed input.
pub fn import(text: &str) -> Result<OfflineDecoder, ImportError> {
    let mut out = OfflineDecoder::default();
    // The dictionary being assembled between `dict` and `enddict`.
    let mut open: Option<(TimeStamp, CallGraph, Encoding)> = None;
    for (n, line) in records(text, HEADER)? {
        let mut f = Fields::new(n, line);
        match (f.word("record")?, open.as_mut()) {
            ("dict", _) => {
                let ts: u32 = f.num("dict ts")?;
                if ts as usize != out.dicts.len() {
                    return Err(f.err(format!("dict ts {ts} out of order")));
                }
                let max_id = f.num("dict maxID")?;
                let enc = Encoding {
                    max_id,
                    ..Encoding::default()
                };
                open = Some((TimeStamp::new(ts), CallGraph::new(), enc));
            }
            ("node", Some((_, graph, enc))) => {
                let func = FunctionId::new(f.num("node")?);
                graph.ensure_node(func);
                enc.num_cc.insert(func, f.num("numCC")?);
            }
            ("edge", Some((_, graph, enc))) => {
                let caller = FunctionId::new(f.num("caller")?);
                let callee = FunctionId::new(f.num("callee")?);
                let site = CallSiteId::new(f.num("site")?);
                let encoding: u64 = f.num("encoding")?;
                let back = f.flag("back")?;
                let dispatch = match f.word("dispatch")? {
                    "direct" => Dispatch::Direct,
                    "indirect" => Dispatch::Indirect,
                    "plt" => Dispatch::Plt,
                    "spawn" => Dispatch::Spawn,
                    other => return Err(f.err(format!("bad dispatch {other:?}"))),
                };
                let (eid, new) = graph.add_edge(caller, callee, site, dispatch);
                if !new {
                    return Err(f.err("duplicate edge"));
                }
                graph.edge_mut(eid).back = back;
                if !back {
                    enc.edge_encoding.insert(eid, encoding.into());
                }
            }
            ("enddict", Some((ts, graph, enc))) => {
                let dict = DecodeDict::from_encoding(graph, enc, *ts);
                out.dicts.push(dict.map_err(|e| f.err(e.to_string()))?);
                open = None;
            }
            (kind @ ("node" | "edge" | "enddict"), None) => {
                return Err(f.err(format!("{kind} outside dict")));
            }
            ("owner", _) => {
                let site = CallSiteId::new(f.num("owner site")?);
                out.owners
                    .insert(site, FunctionId::new(f.num("owner func")?));
            }
            ("dispatch", _) => {
                let site = CallSiteId::new(f.num("dispatch site")?);
                let slot = f.num("dispatch slot")?;
                let kind = match f.word("dispatch kind")? {
                    "trap" => DispatchKind::Trap,
                    "mono" => DispatchKind::Mono,
                    "poly" => DispatchKind::Poly,
                    other => return Err(f.err(format!("bad dispatch kind {other:?}"))),
                };
                let target = f.opt("dispatch target")?.map(FunctionId::new);
                let action = match f.word("dispatch action")? {
                    "-" => None,
                    "cc" => Some(EdgeAction::Unencoded),
                    "ccc" => Some(EdgeAction::UnencodedCompressed),
                    a => match a.strip_prefix("enc:") {
                        Some(delta) => Some(EdgeAction::Encoded {
                            delta: f.parse(delta, "dispatch delta")?,
                        }),
                        None => return Err(f.err(format!("bad dispatch action {a:?}"))),
                    },
                };
                let want_payload = kind != DispatchKind::Trap;
                if target.is_some() != want_payload || action.is_some() != want_payload {
                    return Err(f.err("dispatch target/action must be '-' iff kind is trap"));
                }
                let tc_wrap = f.flag("dispatch tcwrap")?;
                out.dispatch.push(DispatchRecord {
                    site,
                    slot,
                    kind,
                    target,
                    action,
                    tc_wrap,
                });
            }
            ("superop", _) => {
                let mut rec = SuperOpRecord {
                    calls: f.num("superop calls")?,
                    cc_ops: f.num("superop ccops")?,
                    compress_hits: f.num("superop compresshits")?,
                    cc_peak: f.num("superop ccpeak")?,
                    window: Vec::new(),
                };
                for tok in f.by_ref() {
                    let mut c = Fields::split(n, tok, ':');
                    rec.window.push(match c.word("superop op")? {
                        "r" => WindowOp::Ret,
                        "c" => WindowOp::Call {
                            site: CallSiteId::new(c.num("superop site")?),
                            target: FunctionId::new(c.num("superop target")?),
                        },
                        _ => return Err(c.err(format!("bad superop token {tok:?}"))),
                    });
                    c.end()?;
                }
                if rec.window.is_empty() {
                    return Err(f.err("superop needs a window"));
                }
                out.superops.push(rec);
            }
            ("degraded", _) => {
                let d = &mut out.degraded;
                d.active = f.flag("degraded active")?;
                for counter in [
                    &mut d.degraded_traps,
                    &mut d.reencode_retries,
                    &mut d.cc_spill_events,
                    &mut d.cc_spilled_peak,
                    &mut d.lock_poisonings,
                    &mut d.slot_failures,
                    &mut d.batch_errors,
                ] {
                    *counter = f.num("degraded counter")?;
                }
            }
            ("degradednode", _) => out.degraded.note_trap_node(f.num("degraded node")?),
            ("sample", _) => out.samples.push(parse_ctx(&mut f)?),
            (other, _) => return Err(f.err(format!("unknown record {other}"))),
        }
        f.end()?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::MAX_SPAWN_DEPTH;
    use crate::config::DacceConfig;
    use dacce_program::runtime::CallDispatch;
    use dacce_program::{CostModel, ThreadId};

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    fn engine_with_history() -> DacceEngine {
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            keep_sample_log: true,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        let _ = e.sample(ThreadId::MAIN);
        let _ = e.call(
            ThreadId::MAIN,
            s(1),
            f(1),
            f(2),
            CallDispatch::Direct,
            false,
        );
        let _ = e.sample(ThreadId::MAIN);
        let _ = e.call(
            ThreadId::MAIN,
            s(2),
            f(2),
            f(2),
            CallDispatch::Direct,
            false,
        );
        let _ = e.sample(ThreadId::MAIN);
        e
    }

    #[test]
    fn export_import_roundtrip_decodes_identically() {
        let e = engine_with_history();
        let text = format!(
            "{}{}",
            export_state(&e),
            export_samples(e.sample_log().iter())
        );
        let offline = import(&text).expect("imports");
        assert_eq!(offline.dicts().len(), e.dicts().len());
        assert_eq!(offline.samples().len(), e.sample_log().len());
        for (orig, imported) in e.sample_log().iter().zip(offline.samples()) {
            assert_eq!(orig, imported, "sample round-trips structurally");
            let a = e.decode(orig).expect("engine decodes");
            let b = offline.decode(imported).expect("offline decodes");
            assert_eq!(a, b, "offline decode matches engine decode");
        }
    }

    #[test]
    fn dispatch_records_roundtrip() {
        let mut e = engine_with_history();
        // Add an indirect site with two targets so a poly record appears.
        let _ = e.call(
            ThreadId::MAIN,
            s(9),
            f(2),
            f(3),
            CallDispatch::Indirect,
            false,
        );
        let _ = e.ret(ThreadId::MAIN, s(9), f(2), f(3));
        let _ = e.call(
            ThreadId::MAIN,
            s(9),
            f(2),
            f(4),
            CallDispatch::Indirect,
            false,
        );
        let text = export_state(&e);
        let offline = import(&text).expect("imports");
        let records = offline.dispatch();
        assert!(!records.is_empty(), "export carries dispatch records");
        // One record per (site, target) pair for non-trap sites; the poly
        // site contributes one line per known target.
        let poly: Vec<_> = records
            .iter()
            .filter(|r| r.kind == DispatchKind::Poly)
            .collect();
        assert_eq!(poly.len(), 2, "both indirect targets exported");
        assert!(poly.iter().all(|r| r.site == s(9)));
        assert!(poly
            .iter()
            .all(|r| r.target.is_some() && r.action.is_some()));
        // Slots are stable per site: all lines of one site share a slot and
        // no two sites share one.
        let mut slot_of: HashMap<CallSiteId, u32> = HashMap::new();
        for r in records {
            match slot_of.get(&r.site) {
                Some(&slot) => assert_eq!(slot, r.slot, "slot consistent within site"),
                None => {
                    assert!(
                        slot_of.values().all(|&used| used != r.slot),
                        "slot unique across sites"
                    );
                    slot_of.insert(r.site, r.slot);
                }
            }
        }
        // Every record's action must agree with the engine's live resolution.
        for r in records.iter().filter(|r| r.kind != DispatchKind::Trap) {
            let resolved = e
                .shared
                .lookup_action(r.site, r.target.unwrap())
                .expect("record target resolves live");
            assert_eq!(resolved.action, r.action.unwrap());
            assert_eq!(resolved.tc_wrap, r.tc_wrap);
        }
    }

    #[test]
    fn malformed_dispatch_lines_are_rejected() {
        for bad in [
            "dacce-export v1\ndispatch 0 0 mono 1 enc:3\n", // 5 fields
            "dacce-export v1\ndispatch 0 0 wat 1 enc:3 0\n", // bad kind
            "dacce-export v1\ndispatch 0 0 mono - enc:3 0\n", // mono needs target
            "dacce-export v1\ndispatch 0 0 trap 1 enc:3 0\n", // trap forbids target
            "dacce-export v1\ndispatch 0 0 mono 1 huh 0\n", // bad action
            "dacce-export v1\ndispatch x 0 mono 1 enc:3 0\n", // bad site
        ] {
            assert!(import(bad).is_err(), "must reject: {bad:?}");
        }
    }

    #[test]
    fn spawned_contexts_roundtrip() {
        let mut e = engine_with_history();
        e.thread_start(ThreadId::new(7), f(9), Some((ThreadId::MAIN, s(5))));
        let _ = e.call(
            ThreadId::new(7),
            s(6),
            f(9),
            f(1),
            CallDispatch::Direct,
            false,
        );
        let (snap, _) = e.sample(ThreadId::new(7));
        assert!(snap.spawn.is_some());
        let text = format!("{}{}", export_state(&e), export_samples([&snap]));
        let offline = import(&text).expect("imports");
        let a = e.decode(&snap).expect("engine decodes");
        let b = offline
            .decode(&offline.samples()[0])
            .expect("offline decodes");
        assert_eq!(a, b);
    }

    #[test]
    fn degraded_state_roundtrips() {
        use crate::fault::FaultPlan;
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            fault: FaultPlan {
                max_id_cap: Some(0),
                ..FaultPlan::default()
            },
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        // Build a diamond (f0->f1->f3 and f0->f2->f3) so f3 has two
        // calling contexts and the encoding needs ids past the cap.
        let walk = [
            (s(0), f(0), f(1)),
            (s(1), f(1), f(3)),
            (s(2), f(0), f(2)),
            (s(3), f(2), f(3)),
        ];
        for chunk in walk.chunks(2) {
            for &(site, caller, callee) in chunk {
                let _ = e.call(
                    ThreadId::MAIN,
                    site,
                    caller,
                    callee,
                    CallDispatch::Direct,
                    false,
                );
            }
            for &(site, caller, callee) in chunk.iter().rev() {
                let _ = e.ret(ThreadId::MAIN, site, caller, callee);
            }
        }
        // Past exhaustion: new edges stay unencoded and are recorded as
        // degraded traps.
        let _ = e.call(
            ThreadId::MAIN,
            s(4),
            f(0),
            f(4),
            CallDispatch::Direct,
            false,
        );
        let _ = e.call(
            ThreadId::MAIN,
            s(5),
            f(4),
            f(5),
            CallDispatch::Direct,
            false,
        );
        let d = e.stats().degraded;
        assert!(d.active, "maxID cap 0 must force degraded mode");
        assert!(d.degraded_traps > 0, "post-exhaustion edges trap degraded");
        assert!(!d.trap_nodes.is_empty());
        let offline = import(&export_state(&e)).expect("imports");
        assert_eq!(offline.degraded(), &d, "degraded record round-trips");
    }

    #[test]
    fn superop_records_roundtrip() {
        let tracker = crate::Tracker::new();
        let main_fn = tracker.define_function("main");
        let callee = tracker.define_function("callee");
        let site = tracker.define_call_site();
        let th = tracker.register_thread(main_fn);
        // Warm the site so the window resolves and compiles.
        th.run_batch(&[
            crate::BatchOp::Call {
                site,
                target: callee,
            },
            crate::BatchOp::Ret,
        ])
        .expect("warm batch runs");
        let window = vec![
            WindowOp::Call {
                site,
                target: callee,
            },
            WindowOp::Ret,
        ];
        assert_eq!(tracker.install_superops(std::slice::from_ref(&window)), 1);
        let offline = import(&export_tracker_state(&tracker)).expect("imports");
        assert_eq!(offline.superops().len(), 1, "superop line round-trips");
        let rec = &offline.superops()[0];
        assert_eq!(rec.window, window);
        assert_eq!(rec.calls, 1);
    }

    #[test]
    fn malformed_superop_lines_are_rejected() {
        for bad in [
            "dacce-export v1\nsuperop 1 2 3\n",         // missing ccpeak
            "dacce-export v1\nsuperop 1 2 3 4\n",       // empty window
            "dacce-export v1\nsuperop 1 2 3 4 x\n",     // bad token
            "dacce-export v1\nsuperop 1 2 3 4 c:1\n",   // token missing target
            "dacce-export v1\nsuperop 1 2 3 4 c:a:b\n", // non-numeric
        ] {
            assert!(import(bad).is_err(), "must reject: {bad:?}");
        }
    }

    #[test]
    fn malformed_degraded_lines_are_rejected() {
        for bad in [
            "dacce-export v1\ndegraded 1 2 3 4 5 6 7\n",   // 7 fields
            "dacce-export v1\ndegraded 1 2 3 4 5 6 7 x\n", // bad counter
            "dacce-export v1\ndegradednode nope\n",        // bad node id
        ] {
            assert!(import(bad).is_err(), "must reject: {bad:?}");
        }
    }

    #[test]
    fn import_rejects_bad_header() {
        assert_eq!(import("nope\n").unwrap_err(), ImportError::BadHeader);
        assert_eq!(import("").unwrap_err(), ImportError::BadHeader);
    }

    #[test]
    fn import_reports_line_numbers() {
        let text = format!("{HEADER}\nbogus record\n");
        let err = import(&text).unwrap_err();
        if let ImportError::BadLine(n, what) = err {
            assert_eq!(n, 2);
            assert!(what.contains("bogus"));
        } else {
            panic!("unexpected {err:?}");
        }
        // A timestamp past u32 is an error, not a silent wrap to 0.
        let text = format!("{HEADER}\n\nsample 4294967296 0 0 0\n");
        let err = import(&text).unwrap_err();
        assert!(
            matches!(&err, ImportError::BadLine(3, what) if what.contains("ts")),
            "{err:?}"
        );
        // Spawn chains nest up to the cap and no deeper.
        let deep =
            |links: usize| format!("{HEADER}\nsample 0 0 0 0{}\n", " | 0 0 0 0 0".repeat(links));
        assert_eq!(
            import(&deep(MAX_SPAWN_DEPTH))
                .expect("at the cap")
                .samples()
                .len(),
            1
        );
        assert!(matches!(
            import(&deep(MAX_SPAWN_DEPTH + 1)),
            Err(ImportError::BadLine(2, _))
        ));
    }

    #[test]
    fn import_rejects_records_outside_dict() {
        let text = format!("{HEADER}\nnode 1 1\n");
        assert!(matches!(
            import(&text).unwrap_err(),
            ImportError::BadLine(2, _)
        ));
        // A first dictionary stamped 3 would break the store's
        // timestamp == position invariant.
        let text = format!("{HEADER}\ndict 3 0\nnode 0 1\nenddict\n");
        assert!(matches!(
            import(&text).unwrap_err(),
            ImportError::BadLine(2, _)
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ImportError::BadLine(3, "bad callee".into());
        assert!(e.to_string().contains("line 3"));
        assert!(ImportError::BadHeader.to_string().contains("header"));
    }
}
