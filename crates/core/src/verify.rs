//! Engine self-checks.
//!
//! [`DacceEngine::check_invariants`] audits the internal consistency of the
//! engine at a safe point (between events). It is exhaustive yet linear:
//! the shared-state checks cost O(G + S + E + T) — G graph edges, S patched
//! sites, E learned `(site, target)` pairs, T demoted nodes — plus one pass
//! over the dispatch slot vector, and each live thread costs one decode of
//! its context. That is cheap enough for tests, debugging sessions and the
//! randomized differential harness at full workload scale, but it is not
//! meant for the hot path. The concurrent
//! [`crate::Tracker`] reuses the same checks over its shared state and
//! every live thread slot via `Tracker::check_invariants`.

use std::collections::{HashMap, HashSet};

use dacce_callgraph::{CallSiteId, DecodeDict, FunctionId};

use crate::decode::decode_thread;
use crate::dispatch::CompiledDispatch;
use crate::engine::DacceEngine;
use crate::patch::SitePatch;
use crate::shared::{lookup_in, SharedState};
use crate::thread::ThreadCtx;

/// Shared-state invariants: dictionaries in lock step with `gTimeStamp`,
/// `maxID` agreement, every graph edge patched with a consistent owner,
/// the compiled dispatch table agreeing with the logical patch table for
/// every `(site, callee)` pair, and consistent degraded-state bookkeeping.
pub(crate) fn check_shared(sh: &SharedState) -> Result<(), String> {
    // 1 & 2: dictionaries.
    if sh.dicts.len() != sh.ts.index() + 1 {
        return Err(format!(
            "dictionary count {} out of step with timestamp {}",
            sh.dicts.len(),
            sh.ts
        ));
    }
    let latest = sh
        .dicts
        .latest()
        .ok_or_else(|| "no dictionary recorded".to_string())?;
    if latest.max_id() != sh.max_id {
        return Err(format!(
            "latest dictionary maxID {} != live maxID {}",
            latest.max_id(),
            sh.max_id
        ));
    }

    // 3: graph edges vs patch states and owners.
    for (_, e) in sh.graph.edges() {
        let state = sh
            .patches
            .get(e.site)
            .ok_or_else(|| format!("edge {e:?} has no site state"))?;
        if matches!(state.patch, SitePatch::Trap) {
            return Err(format!("executed site {} still patched as trap", e.site));
        }
        match sh.site_owner.get(&e.site) {
            Some(&owner) if owner == e.caller => {}
            Some(&owner) => {
                return Err(format!(
                    "site {} owner {owner} disagrees with edge caller {}",
                    e.site, e.caller
                ))
            }
            None => return Err(format!("site {} has no recorded owner", e.site)),
        }
    }

    // 4: the compiled dispatch table is the flattening of the patch table.
    check_dispatch(sh)?;

    // 5: degraded-state bookkeeping is arithmetically consistent.
    check_degraded(sh)
}

/// Cross-checks the flat dispatch table against the logical patch table:
/// every patched site must have a compiled record whose `resolve` agrees
/// with [`lookup_in`] for every callee, compiled slots must be unique, and
/// no record may exist for an unpatched site.
///
/// Per site the callees resolved are the logical patch's targets, the
/// compiled record's targets and one unknown-callee probe. That covers
/// every `FunctionId`: both resolvers return `None` for a callee outside
/// their own target set, so they can only disagree on the union of the two
/// sets. The check is therefore O(S + E) in patched sites S and learned
/// `(site, target)` pairs E, plus one pass over the slot vector.
///
/// Degraded encodings are accepted: with an injected dispatch-slot cap a
/// patched site may legitimately have *no* compiled record (it was starved
/// and traps on every call). Such sites are exempt from the per-callee
/// equivalence check — trapping is always sound — but must be fully
/// accounted for by the table's refusal counter.
fn check_dispatch(sh: &SharedState) -> Result<(), String> {
    let mut compiled = 0usize;
    let mut seen_slots = HashSet::new();
    for (site, slot, _) in sh.dispatch.iter_compiled() {
        if sh.patches.get(site).is_none() {
            return Err(format!(
                "dispatch table has a record for unpatched site {site}"
            ));
        }
        if !seen_slots.insert(slot) {
            return Err(format!("dispatch slot {slot} assigned to {site} twice"));
        }
        compiled += 1;
    }
    let mut starved = 0usize;
    let mut callees: Vec<FunctionId> = Vec::new();
    for (&site, state) in sh.patches.iter() {
        let Some((_, record)) = sh.dispatch.entry(site) else {
            if sh.dispatch.slot_failures() == 0 {
                return Err(format!("patched site {site} has no compiled record"));
            }
            // Starved by the injected slot cap: permanently traps.
            starved += 1;
            continue;
        };
        callees.clear();
        match &state.patch {
            SitePatch::Trap => {}
            SitePatch::Direct(target, _) => callees.push(*target),
            SitePatch::Indirect(p) => callees.extend(p.targets().map(|(t, _)| t)),
        }
        match record.dispatch {
            CompiledDispatch::Trap => {}
            CompiledDispatch::Mono { target, .. } => callees.push(target),
            CompiledDispatch::Poly { index } => {
                callees.extend(sh.dispatch.poly_patch(index).targets().map(|(t, _)| t));
            }
        }
        // Probe an id the graph has never seen so unknown-callee traps are
        // covered even when both target sets are empty.
        callees.push(FunctionId::new(u32::MAX - 1));
        for &callee in &callees {
            let flat = sh.dispatch.resolve(site, callee, &sh.cost);
            let logical = lookup_in(&sh.patches, &sh.cost, site, callee);
            if flat != logical {
                return Err(format!(
                    "dispatch disagreement at ({site}, {callee}): \
                     flat {flat:?} != logical {logical:?}"
                ));
            }
        }
    }
    if compiled + starved != sh.patches.len() {
        return Err(format!(
            "{compiled} compiled + {starved} starved records != {} patched sites",
            sh.patches.len()
        ));
    }
    if starved > 0 && sh.dispatch.slot_failures() < starved as u64 {
        return Err(format!(
            "{starved} starved sites but only {} recorded slot refusals",
            sh.dispatch.slot_failures()
        ));
    }
    Ok(())
}

/// Degraded-state arithmetic: demoted nodes must exist in the call graph,
/// and the counters must be mutually consistent (a node can only be
/// demoted by a trap, and degradation is monotone with the overflow
/// switch).
pub(crate) fn check_degraded(sh: &SharedState) -> Result<(), String> {
    let d = &sh.stats.degraded;
    if d.active && !sh.reencode_overflowed {
        return Err("degraded mode active but re-encoding still enabled".to_string());
    }
    for &raw in &d.trap_nodes {
        if !sh.graph.contains_node(FunctionId::new(raw)) {
            return Err(format!("degraded node {raw} is not in the call graph"));
        }
    }
    if d.degraded_traps < d.trap_nodes.len() as u64 {
        return Err(format!(
            "{} degraded traps cannot have demoted {} nodes",
            d.degraded_traps,
            d.trap_nodes.len()
        ));
    }
    if (!d.trap_nodes.is_empty() || d.degraded_traps > 0) && !d.active {
        return Err("degraded traps recorded without degraded mode".to_string());
    }
    if d.slot_failures < sh.dispatch.slot_failures() {
        return Err(format!(
            "stats record {} slot failures but the table refused {}",
            d.slot_failures,
            sh.dispatch.slot_failures()
        ));
    }
    Ok(())
}

/// Per-thread invariants against the dictionary the thread's context is
/// stamped with: shadow-stack monotonicity, id within the encodable budget
/// `[0, 2*maxID + 1]`, and the live context decoding to a root-to-current
/// path. `label` names the thread in error messages.
pub(crate) fn check_thread(
    dict: &DecodeDict,
    owners: &HashMap<CallSiteId, FunctionId>,
    max_id: u64,
    label: &str,
    ctx: &ThreadCtx,
) -> Result<(), String> {
    let budget = 2u128 * u128::from(max_id) + 1;
    if u128::from(ctx.id) > budget {
        return Err(format!(
            "{label}: id {} outside encodable range [0, {budget}]",
            ctx.id
        ));
    }
    let mut prev = 0usize;
    for frame in &ctx.shadow {
        if frame.saved_cc_len > ctx.cc.depth() {
            return Err(format!(
                "{label}: shadow frame saved ccStack length {} exceeds depth {}",
                frame.saved_cc_len,
                ctx.cc.depth()
            ));
        }
        if frame.saved_cc_len < prev {
            return Err(format!(
                "{label}: shadow saved ccStack lengths not monotone"
            ));
        }
        prev = frame.saved_cc_len;
    }
    let path = decode_thread(
        dict,
        ctx.id,
        ctx.current,
        ctx.root,
        ctx.cc.entries(),
        owners,
    )
    .map_err(|e| format!("{label}: live context does not decode: {e}"))?;
    match (path.0.first(), path.0.last()) {
        (Some(first), Some(last)) => {
            if first.func != ctx.root {
                return Err(format!(
                    "{label}: decoded root {} != thread root {}",
                    first.func, ctx.root
                ));
            }
            if last.func != ctx.current {
                return Err(format!(
                    "{label}: decoded leaf {} != current {}",
                    last.func, ctx.current
                ));
            }
        }
        _ => return Err(format!("{label}: decoded empty path")),
    }
    Ok(())
}

impl DacceEngine {
    /// Checks every internal invariant; returns a description of the first
    /// violation.
    ///
    /// Invariants checked:
    ///
    /// 1. one decode dictionary per timestamp, in lock step with
    ///    `gTimeStamp`;
    /// 2. the latest dictionary's `maxID` equals the live `maxID`;
    /// 3. every graph edge's site has a patch state and a recorded owner
    ///    function equal to the edge's caller;
    /// 4. the compiled dispatch table resolves every `(site, callee)` pair
    ///    exactly like the logical patch table, with unique slots, no
    ///    record for an unpatched site, and every patched site without a
    ///    record accounted for by a slot refusal;
    /// 5. the degraded-state bookkeeping is consistent: demoted nodes are
    ///    graph nodes, no more nodes are demoted than degraded traps
    ///    fired, degraded mode is on whenever either happened and only
    ///    once re-encoding is off, and the stats count at least the
    ///    table's slot refusals;
    /// 6. per thread: the shadow stack is monotone (saved ccStack lengths
    ///    never exceed the current depth and never decrease upward), and
    ///    the thread's current context decodes to a path rooted at the
    ///    thread root and ending at its current function;
    /// 7. the id of every thread is within the encodable range
    ///    `[0, 2*maxID + 1]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        check_shared(&self.shared)?;
        let latest = self
            .dicts()
            .latest()
            .ok_or_else(|| "no dictionary recorded".to_string())?;
        for (tid, exec) in &self.threads {
            check_thread(
                latest,
                &self.shared.site_owner,
                self.max_id(),
                &tid.to_string(),
                &exec.ctx,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DacceConfig;
    use crate::dispatch::DispatchTable;
    use crate::patch::{EdgeAction, SiteState};
    use dacce_program::runtime::CallDispatch;
    use dacce_program::{CostModel, ThreadId};

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    #[test]
    fn fresh_engine_passes() {
        let mut e = DacceEngine::new(DacceConfig::default(), CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        e.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_across_calls_and_reencodes() {
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        for round in 0..5u32 {
            for i in 0..4u32 {
                let caller = if i == 0 { f(0) } else { f(i) };
                let _ = e.call(
                    ThreadId::MAIN,
                    s(round * 4 + i),
                    caller,
                    f(i + 1),
                    CallDispatch::Direct,
                    false,
                );
                e.check_invariants().unwrap();
            }
            for i in (0..4u32).rev() {
                let caller = if i == 0 { f(0) } else { f(i) };
                let _ = e.ret(ThreadId::MAIN, s(round * 4 + i), caller, f(i + 1));
                e.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn corrupted_id_is_detected() {
        let mut e = DacceEngine::new(DacceConfig::default(), CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        // Reach in and corrupt the thread id beyond the encodable range.
        e.threads.get_mut(&ThreadId::MAIN).unwrap().ctx.id = u64::MAX;
        let err = e.check_invariants().unwrap_err();
        assert!(err.contains("outside encodable range"), "{err}");
    }

    #[test]
    fn corrupted_current_function_is_detected() {
        let mut e = DacceEngine::new(DacceConfig::default(), CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        e.threads.get_mut(&ThreadId::MAIN).unwrap().ctx.current = f(7);
        let err = e.check_invariants().unwrap_err();
        assert!(
            err.contains("does not decode") || err.contains("decoded"),
            "{err}"
        );
    }

    /// Reference oracle for [`check_dispatch`]: the same checks, but every
    /// patched site is resolved against every node of the call graph plus
    /// the unknown-callee probe, and each site's record is found by a scan
    /// of the whole table. O(S² + S·N), so test-only.
    fn check_dispatch_all_nodes(sh: &SharedState) -> Result<(), String> {
        let mut nodes: Vec<FunctionId> = sh.graph.nodes().to_vec();
        // Probe an id the graph has never seen so unknown-callee traps are
        // covered too.
        nodes.push(FunctionId::new(u32::MAX - 1));
        let mut compiled = 0usize;
        let mut seen_slots = HashSet::new();
        for (site, slot, _) in sh.dispatch.iter_compiled() {
            if sh.patches.get(site).is_none() {
                return Err(format!(
                    "dispatch table has a record for unpatched site {site}"
                ));
            }
            if !seen_slots.insert(slot) {
                return Err(format!("dispatch slot {slot} assigned to {site} twice"));
            }
            compiled += 1;
        }
        let mut starved = 0usize;
        for (&site, _) in sh.patches.iter() {
            if !sh.dispatch.iter_compiled().any(|(s, _, _)| s == site) {
                if sh.dispatch.slot_failures() == 0 {
                    return Err(format!("patched site {site} has no compiled record"));
                }
                // Starved by the injected slot cap: permanently traps.
                starved += 1;
                continue;
            }
            for &callee in &nodes {
                let flat = sh.dispatch.resolve(site, callee, &sh.cost);
                let logical = lookup_in(&sh.patches, &sh.cost, site, callee);
                if flat != logical {
                    return Err(format!(
                        "dispatch disagreement at ({site}, {callee}): \
                         flat {flat:?} != logical {logical:?}"
                    ));
                }
            }
        }
        if compiled + starved != sh.patches.len() {
            return Err(format!(
                "{compiled} compiled + {starved} starved records != {} patched sites",
                sh.patches.len()
            ));
        }
        if starved > 0 && sh.dispatch.slot_failures() < starved as u64 {
            return Err(format!(
                "{starved} starved sites but only {} recorded slot refusals",
                sh.dispatch.slot_failures()
            ));
        }
        Ok(())
    }

    /// An engine past at least one re-encoding, with encoded direct sites,
    /// an indirect site on its inline compare chain (site 10) and one
    /// converted to a hash table (site 11).
    fn reencoded_engine() -> DacceEngine {
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            ..DacceConfig::default()
        };
        let inline_max = cfg.indirect_inline_max as u32;
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        for _ in 0..3 {
            for i in 0..3u32 {
                e.call(
                    ThreadId::MAIN,
                    s(i),
                    f(i),
                    f(i + 1),
                    CallDispatch::Direct,
                    false,
                );
            }
            for i in (0..3u32).rev() {
                e.ret(ThreadId::MAIN, s(i), f(i), f(i + 1));
            }
            for (site, targets) in [(s(10), 2), (s(11), inline_max + 2)] {
                for t in 0..targets {
                    let callee = f(10 + t);
                    e.call(
                        ThreadId::MAIN,
                        site,
                        f(0),
                        callee,
                        CallDispatch::Indirect,
                        false,
                    );
                    e.ret(ThreadId::MAIN, site, f(0), callee);
                }
            }
        }
        assert!(e.stats().reencodes >= 1, "the engine must have re-encoded");
        e
    }

    /// The clean table of `sh` with one site re-synced from a corrupted
    /// copy of its logical state.
    fn desynced(
        sh: &SharedState,
        site: CallSiteId,
        corrupt: impl FnOnce(&mut SiteState),
    ) -> DispatchTable {
        let mut state = sh.patches.get(site).expect("patched site").clone();
        corrupt(&mut state);
        let mut table = sh.dispatch.clone();
        assert!(table.sync_site(site, &state));
        table
    }

    #[test]
    fn dispatch_desyncs_are_detected_like_the_all_nodes_oracle() {
        let mut e = reencoded_engine();
        // A patched site that still traps, so a record that learned a
        // target the logical table never did is a case of its own.
        let trapping = s(98);
        *e.shared.patches.site_mut(trapping) = SiteState::trap();
        assert!(e.shared.dispatch.sync_site(trapping, &SiteState::trap()));
        e.check_invariants().unwrap();
        check_dispatch_all_nodes(&e.shared).unwrap();

        let sh = &e.shared;
        let (direct, _) = sh
            .patches
            .iter()
            .find(|(_, st)| matches!(st.patch, SitePatch::Direct(_, EdgeAction::Encoded { .. })))
            .expect("re-encoding encodes a direct site");
        let direct = *direct;
        // The root is a graph node no site targets, so the all-nodes
        // oracle can see the extra-target corruption too.
        let stranger = f(0);
        assert!(sh.graph.contains_node(stranger));
        let inline_max = sh.config.indirect_inline_max;
        let mut cases: Vec<(String, DispatchTable)> = vec![
            (
                "wrong Mono target".into(),
                desynced(sh, direct, |st| {
                    if let SitePatch::Direct(target, _) = &mut st.patch {
                        *target = stranger;
                    }
                }),
            ),
            (
                "wrong Encoded delta".into(),
                desynced(sh, direct, |st| {
                    if let SitePatch::Direct(_, EdgeAction::Encoded { delta }) = &mut st.patch {
                        *delta += 1;
                    }
                }),
            ),
            (
                "flipped tc_wrap".into(),
                desynced(sh, direct, |st| st.tc_wrap = !st.tc_wrap),
            ),
            (
                "Trap record at a direct site".into(),
                desynced(sh, direct, |st| st.patch = SitePatch::Trap),
            ),
            (
                "Mono record at a trapping site".into(),
                desynced(sh, trapping, |st| {
                    st.patch = SitePatch::Direct(stranger, EdgeAction::Unencoded);
                }),
            ),
        ];
        for site in [s(10), s(11)] {
            let SitePatch::Indirect(p) = &sh.patches.get(site).expect("patched").patch else {
                panic!("site {site} is not indirect");
            };
            assert_eq!(
                p.hashed.is_some(),
                site == s(11),
                "site {site} dispatch shape"
            );
            cases.push((
                format!("Poly record of {site} with an extra target"),
                desynced(sh, site, |st| {
                    if let SitePatch::Indirect(p) = &mut st.patch {
                        p.add_target(stranger, EdgeAction::Unencoded, inline_max);
                    }
                }),
            ));
            cases.push((
                format!("Poly record of {site} missing a target"),
                desynced(sh, site, |st| {
                    if let SitePatch::Indirect(p) = &mut st.patch {
                        let (victim, _) = p.targets().next().expect("a learned target");
                        p.inline.retain(|&(t, _)| t != victim);
                        if let Some(h) = &mut p.hashed {
                            h.remove(&victim);
                        }
                    }
                }),
            ));
        }
        let mut unrecorded = DispatchTable::new();
        for (&site, state) in sh.patches.iter() {
            if site != direct {
                assert!(unrecorded.sync_site(site, state));
            }
        }
        cases.push(("patched site with no record".into(), unrecorded));
        let mut unpatched = sh.dispatch.clone();
        assert!(unpatched.sync_site(s(99), &SiteState::trap()));
        cases.push(("record for an unpatched site".into(), unpatched));

        let clean = e.shared.dispatch.clone();
        for (name, table) in cases {
            e.shared.dispatch = table;
            assert_eq!(e.shared.dispatch.slot_failures(), 0, "{name}");
            let err = e.check_invariants().expect_err(&name);
            let linear = check_dispatch(&e.shared);
            let oracle = check_dispatch_all_nodes(&e.shared);
            assert!(
                linear.is_err(),
                "{name}: check_invariants failed elsewhere: {err}"
            );
            assert!(oracle.is_err(), "{name}: the all-nodes oracle accepts it");
        }
        e.shared.dispatch = clean;
        e.check_invariants().unwrap();
    }
}
