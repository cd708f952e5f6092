//! The per-thread executor: the one call, return, migrate and sample path
//! both front-ends run.
//!
//! [`ThreadExec`] is one thread's half of the instrumentation state: its
//! [`ThreadCtx`] (id, ccStack, shadow frames), a [`StatsShard`], the
//! continuous-profiler [`Sampler`] and the sample backlogs awaiting the
//! shared rings. Its steps run against a read-only [`EncodingView`] and
//! never touch shared mutable state:
//!
//! * **call** ([`ThreadExec::call`]) — the before-call instrumentation of a
//!   resolved site, the compress counter, and the ccStack push and
//!   overflow journal hooks; **tick** ([`ThreadExec::tick`]) — the profiler;
//! * **ret** ([`ThreadExec::ret`]) — the after-call instrumentation and the
//!   pop hook, re-resolving the site when the generation moved;
//! * **migrate** ([`ThreadExec::migrate`]) — decode under the context's own
//!   old dictionary, replay under the view's patches, report it;
//! * **sample**, **snapshot** and **fold into [`DacceStats`]**.
//!
//! The one step that needs the shared state mutably is the trap
//! ([`resolve_or_trap`], the §3 runtime handler). The front-ends differ only
//! in policy: [`crate::engine::DacceEngine`] views the live [`SharedState`]
//! and migrates all threads eagerly; [`crate::tracker::Tracker`] views a
//! published [`EncodingSnapshot`] and migrates each thread lazily.

use dacce_callgraph::{CallSiteId, DecodeDict, FunctionId, TimeStamp};
use dacce_obs::{EventKind, JournalWriter, Sampler};
use dacce_program::runtime::CallDispatch;
use dacce_program::{ContextPath, CostModel, ThreadId};

use crate::config::{JOURNAL_OVERFLOW_WATERMARK, PROFILER_BUDGET, PROFILER_SEED};
use crate::context::{EncodedContext, SpawnLink};
use crate::decode::decode_thread;
use crate::observe::Observability;
use crate::patch::EdgeAction;
use crate::shared::{context_fingerprint, EncodingSnapshot, ResolvedSite, SharedState};
use crate::stats::{DacceStats, StatsShard};
use crate::thread::{ShadowFrame, ThreadCtx};

/// Per-thread sample backlog capacity (circular; drained into the shared
/// rings by [`ThreadExec::flush_pending`]).
const SAMPLE_BACKLOG: usize = 64;

/// Read-only encoding state a thread needs to execute instrumentation.
pub(crate) trait EncodingView {
    /// Resolves `(site, callee)` in one patch-table probe: action,
    /// dispatch cost and TcStack wrapping. `None` traps.
    fn resolve(&self, site: CallSiteId, callee: FunctionId) -> Option<ResolvedSite>;
    /// `gTimeStamp` of the encoding.
    fn ts(&self) -> TimeStamp;
    /// `maxID` of the current encoding.
    fn max_id(&self) -> u64;
    /// The cost model instrumentation is charged under.
    fn cost(&self) -> &CostModel;
    /// Whether tail-call handling is enabled.
    fn handle_tail_calls(&self) -> bool;
    /// The call-site owner table, for decoding.
    fn site_owner(&self) -> &std::collections::HashMap<CallSiteId, FunctionId>;
}

impl EncodingView for SharedState {
    fn resolve(&self, site: CallSiteId, callee: FunctionId) -> Option<ResolvedSite> {
        self.lookup_action(site, callee)
    }
    fn ts(&self) -> TimeStamp {
        self.ts
    }
    fn max_id(&self) -> u64 {
        self.max_id
    }
    fn cost(&self) -> &CostModel {
        &self.cost
    }
    fn handle_tail_calls(&self) -> bool {
        self.config.handle_tail_calls
    }
    fn site_owner(&self) -> &std::collections::HashMap<CallSiteId, FunctionId> {
        &self.site_owner
    }
}

impl EncodingView for EncodingSnapshot {
    fn resolve(&self, site: CallSiteId, callee: FunctionId) -> Option<ResolvedSite> {
        EncodingSnapshot::resolve(self, site, callee)
    }
    fn ts(&self) -> TimeStamp {
        self.ts
    }
    fn max_id(&self) -> u64 {
        self.max_id
    }
    fn cost(&self) -> &CostModel {
        &self.cost
    }
    fn handle_tail_calls(&self) -> bool {
        self.handle_tail_calls
    }
    fn site_owner(&self) -> &std::collections::HashMap<CallSiteId, FunctionId> {
        &self.site_owner
    }
}

/// Executes the before-call instrumentation of `site` on `ctx` for an
/// already-resolved `action` (`site_wraps` is the site's TcStack flag from
/// the same probe). Returns the cost units spent and whether a compressed
/// push hit the top entry. No `#[inline]` here or on [`exec_ret`]: with it
/// the steps grow past what gets inlined into the tracker's hot loops.
fn exec_call(
    view: &impl EncodingView,
    ctx: &mut ThreadCtx,
    site: CallSiteId,
    callee: FunctionId,
    action: EdgeAction,
    site_wraps: bool,
    tail: bool,
) -> (u64, bool) {
    let mut cost = 0u64;
    let mut compress_hit = false;
    let wrapped = !tail && view.handle_tail_calls() && site_wraps;

    let saved_id = ctx.id;
    let saved_cc_len = ctx.cc.depth();
    let saved_top_count = ctx.cc.top().map_or(0, |e| e.count);
    if wrapped {
        ctx.tc_ops += 1;
        cost += view.cost().tcstack_op;
    }

    match action {
        EdgeAction::Encoded { delta } => {
            if delta != 0 {
                ctx.id = ctx.id.wrapping_add(delta);
                cost += view.cost().id_arith;
            }
        }
        EdgeAction::Unencoded => {
            ctx.cc.push(ctx.id, site, callee);
            ctx.id = view.max_id() + 1;
            cost += view.cost().ccstack_op + view.cost().id_arith;
        }
        EdgeAction::UnencodedCompressed => {
            compress_hit = ctx.cc.push_compressed(ctx.id, site, callee);
            ctx.id = view.max_id() + 1;
            cost += view.cost().compare + view.cost().ccstack_op + view.cost().id_arith;
        }
    }

    if !tail {
        ctx.shadow.push(ShadowFrame {
            site,
            callee,
            saved_id,
            saved_cc_len,
            saved_top_count,
            wrapped,
        });
    }
    ctx.current = callee;

    (cost, compress_hit)
}

/// Executes the after-call instrumentation when control returns to the
/// frame that called through `site`, for an already-resolved `action`
/// (callers resolve it — or reuse the one cached at call time when the
/// encoding generation has not moved). Returns the cost units spent.
fn exec_ret(
    view: &impl EncodingView,
    ctx: &mut ThreadCtx,
    site: CallSiteId,
    caller: FunctionId,
    action: EdgeAction,
) -> u64 {
    let mut cost = 0u64;

    let frame = ctx.shadow.pop().expect("balanced call/return events");
    debug_assert_eq!(frame.site, site, "return does not match shadow frame");

    if frame.wrapped {
        // §5.2: absolute restore via TcStack — immune to tail calls in
        // the callee. Restores the length *and* the top entry's
        // repetition count (a compressed push that hit changed only
        // the count).
        ctx.id = frame.saved_id;
        ctx.cc.truncate(frame.saved_cc_len);
        ctx.cc.restore_top_count(frame.saved_top_count);
        ctx.tc_ops += 1;
        cost += view.cost().tcstack_op;
    } else {
        match action {
            EdgeAction::Encoded { delta } => {
                if delta != 0 {
                    ctx.id = ctx.id.wrapping_sub(delta);
                    cost += view.cost().id_arith;
                }
            }
            EdgeAction::Unencoded => {
                ctx.id = ctx.cc.pop();
                cost += view.cost().ccstack_op;
            }
            EdgeAction::UnencodedCompressed => {
                ctx.id = ctx.cc.pop_compressed();
                cost += view.cost().ccstack_op;
            }
        }
    }
    ctx.current = caller;
    cost
}

/// Rebuilds one thread's encoding state by replaying its decoded path
/// under `view`'s patch states. Physical frames are recognised by matching
/// the old shadow stack (tail steps are never physical; a call site is
/// statically either a tail call or not, so the match is unambiguous).
fn replay(view: &impl EncodingView, ctx: &mut ThreadCtx, path: &ContextPath) {
    let old_shadow: Vec<ShadowFrame> = std::mem::take(&mut ctx.shadow);
    ctx.id = 0;
    ctx.cc.clear();

    let mut k = 0usize;
    for step in path.0.iter().skip(1) {
        let site = step.site.expect("non-root steps carry their site");
        let func = step.func;
        let physical =
            k < old_shadow.len() && old_shadow[k].site == site && old_shadow[k].callee == func;
        let saved_id = ctx.id;
        let saved_cc_len = ctx.cc.depth();
        let saved_top_count = ctx.cc.top().map_or(0, |e| e.count);
        let resolved = view.resolve(site, func);
        let action = resolved.map_or(EdgeAction::Unencoded, |r| r.action);
        match action {
            EdgeAction::Encoded { delta } => ctx.id = ctx.id.wrapping_add(delta),
            EdgeAction::Unencoded => {
                ctx.cc.push(ctx.id, site, func);
                ctx.id = view.max_id() + 1;
            }
            EdgeAction::UnencodedCompressed => {
                ctx.cc.push_compressed(ctx.id, site, func);
                ctx.id = view.max_id() + 1;
            }
        }
        if physical {
            let wrapped = view.handle_tail_calls() && resolved.is_some_and(|r| r.tc_wrap);
            ctx.shadow.push(ShadowFrame {
                site,
                callee: func,
                saved_id,
                saved_cc_len,
                saved_top_count,
                wrapped,
            });
            k += 1;
        }
        ctx.current = func;
    }
    debug_assert!(
        k == old_shadow.len() || !view.handle_tail_calls(),
        "replay must reconstruct every physical frame"
    );
    // With a corrupted encoding (broken-tail-call ablation) the decoded
    // path can disagree with the physical frames; keep the unmatched
    // frames so call/return bookkeeping stays balanced — the contexts
    // are wrong either way, which is what the ablation demonstrates.
    ctx.shadow.extend(old_shadow.into_iter().skip(k));
}

/// The trap step (§3): re-probes the live table — under the tracker a
/// racing thread may have patched the site — and otherwise runs the
/// runtime handler. Returns the site's resolution (a trap costs the
/// handler) and any newly revealed tail-calling function, whose active
/// frames the caller must retrofit.
pub(crate) fn resolve_or_trap(
    sh: &mut SharedState,
    tid: ThreadId,
    site: CallSiteId,
    caller: FunctionId,
    callee: FunctionId,
    dispatch: CallDispatch,
    tail: bool,
) -> (ResolvedSite, Option<FunctionId>) {
    if let Some(r) = sh.lookup_action(site, callee) {
        return (r, None);
    }
    let (action, newly_tail) = sh.handle_trap(tid.raw(), site, caller, callee, dispatch, tail);
    let tc_wrap = sh.patches.get(site).is_some_and(|s| s.tc_wrap);
    let r = ResolvedSite {
        action,
        dispatch_cost: sh.cost.handler_trap,
        tc_wrap,
    };
    (r, newly_tail)
}

/// A bounded overwrite-oldest backlog.
#[derive(Debug)]
struct Backlog<T> {
    items: Vec<T>,
    pos: usize,
}

impl<T> Backlog<T> {
    fn new() -> Self {
        Backlog {
            items: Vec::new(),
            pos: 0,
        }
    }

    fn push(&mut self, item: T) {
        if self.items.len() < SAMPLE_BACKLOG {
            self.items.push(item);
        } else {
            self.items[self.pos % SAMPLE_BACKLOG] = item;
        }
        self.pos += 1;
    }

    fn drain(&mut self) -> std::vec::Drain<'_, T> {
        self.pos = 0;
        self.items.drain(..)
    }
}

/// One thread's executor state; see the module docs. Journal events go to
/// the writer each step is handed: the tracker gives every thread its own,
/// the engine runs all its threads through the shared one.
#[derive(Debug)]
pub(crate) struct ThreadExec {
    pub(crate) tid: ThreadId,
    pub(crate) ctx: ThreadCtx,
    /// Locally accumulated statistics (see [`Self::fold_into`]).
    pub(crate) shard: StatsShard,
    /// This thread's continuous-profiler sampler: the configured stride
    /// with a per-thread jitter phase, so threads never sample in lockstep.
    pub(crate) sampler: Sampler,
    obs: Observability,
    /// `ctx.cc.spill_events()` already folded into the shared
    /// degraded-state counters.
    flushed_spills: u64,
    /// Samples awaiting the shared heat ring.
    samples: Backlog<EncodedContext>,
    /// Weighted profiler samples awaiting the shared profiler ring.
    profiled: Backlog<(EncodedContext, u64)>,
}

impl ThreadExec {
    /// A fresh executor for thread `tid` rooted at `root`, configured from
    /// `sh`.
    pub(crate) fn new(
        tid: ThreadId,
        root: FunctionId,
        spawn: Option<SpawnLink>,
        sh: &SharedState,
    ) -> Self {
        let mut ctx = ThreadCtx::new(root, spawn);
        ctx.cc.set_spill_limit(sh.config.fault.cc_spill_limit);
        let c = &sh.config;
        ThreadExec {
            tid,
            ctx,
            shard: StatsShard::default(),
            sampler: Sampler::new(
                c.profiler_stride,
                PROFILER_SEED ^ u64::from(tid.raw()),
                PROFILER_BUDGET,
            ),
            obs: sh.obs.clone(),
            flushed_spills: 0,
            samples: Backlog::new(),
            profiled: Backlog::new(),
        }
    }

    /// The call step: the before-call instrumentation of `site` for `r`,
    /// the compress counter and the ccStack push and overflow journal hooks.
    /// Returns the cost units (dispatch and trap excluded).
    #[inline]
    pub(crate) fn call(
        &mut self,
        view: &impl EncodingView,
        writer: &JournalWriter,
        site: CallSiteId,
        callee: FunctionId,
        r: ResolvedSite,
        tail: bool,
    ) -> u64 {
        let prev_max = self.ctx.cc.max_depth();
        let (cost, compress_hit) =
            exec_call(view, &mut self.ctx, site, callee, r.action, r.tc_wrap, tail);
        if compress_hit {
            self.shard.compress_hits += 1;
        }
        if r.action.uses_ccstack() {
            let depth = self.ctx.cc.depth() as u32;
            writer.emit_for(self.tid.raw(), EventKind::CcPush { depth });
            if depth as usize > prev_max && depth >= JOURNAL_OVERFLOW_WATERMARK {
                self.obs.metrics().cc_overflows.inc();
                writer.emit_for(self.tid.raw(), EventKind::CcOverflow { depth });
            }
        }
        cost
    }

    /// The profiler step for one call through `site`, the context encoded
    /// under generation `ts`. A batch that provably cannot reach the next
    /// sample skips it and advances the sampler once at the end.
    #[inline]
    pub(crate) fn tick(&mut self, ts: TimeStamp, site: CallSiteId, writer: &JournalWriter) {
        if let Some(weight) = self.sampler.tick() {
            self.profile(ts, site, weight, writer);
        }
    }

    /// The return step: reverses the call through `site` with `cached`,
    /// the action resolved at call time, or — when a publication
    /// intervened and the context was migrated — with the action `view`
    /// resolves now, then journals the ccStack pop. Returns the cost units
    /// spent.
    #[inline]
    pub(crate) fn ret(
        &mut self,
        view: &impl EncodingView,
        writer: &JournalWriter,
        site: CallSiteId,
        caller: FunctionId,
        callee: FunctionId,
        cached: Option<EdgeAction>,
    ) -> u64 {
        let action = cached.unwrap_or_else(|| {
            view.resolve(site, callee)
                .map_or(EdgeAction::Unencoded, |r| r.action)
        });
        let cost = exec_ret(view, &mut self.ctx, site, caller, action);
        if action.uses_ccstack() {
            let depth = self.ctx.cc.depth() as u32;
            writer.emit_for(self.tid.raw(), EventKind::CcPop { depth });
        }
        cost
    }

    /// The migrate step: decodes the context under `old`, the dictionary
    /// of the generation it was built under, replays it under `view`'s
    /// patches and reports the migration. A decode failure (an engine bug)
    /// leaves the context untouched and is counted.
    pub(crate) fn migrate(
        &mut self,
        view: &impl EncodingView,
        writer: &JournalWriter,
        old: &DecodeDict,
    ) {
        let (c, owner) = (&self.ctx, view.site_owner());
        match decode_thread(old, c.id, c.current, c.root, c.cc.entries(), owner) {
            Ok(path) => replay(view, &mut self.ctx, &path),
            Err(_) => self.shard.decode_errors += 1,
        }
        self.obs.metrics().migrations.inc();
        let (from, to) = (old.timestamp().raw(), view.ts().raw());
        writer.emit_for(self.tid.raw(), EventKind::Migration { from, to });
    }

    /// The thread's current encoded context, stamped with `ts` — the
    /// generation the context is encoded under.
    pub(crate) fn snapshot(&self, ts: TimeStamp) -> EncodedContext {
        EncodedContext {
            ts,
            id: self.ctx.id,
            leaf: self.ctx.current,
            root: self.ctx.root,
            cc: self.ctx.cc.entries().to_vec(),
            spawn: self.ctx.spawn.clone(),
        }
    }

    /// Records a sample of the current context: counts it and queues it
    /// for the shared heat ring.
    pub(crate) fn sample(&mut self, ts: TimeStamp) -> EncodedContext {
        let snap = self.snapshot(ts);
        let depth = snap.cc_depth() as u32;
        self.shard.samples += 1;
        self.shard.cc_depths.push(depth);
        self.obs.on_sample(depth, snap.id);
        self.samples.push(snap.clone());
        snap
    }

    /// A continuous-profiler sample fired: counts it (weighted by the call
    /// events since the previous one), journals a `Sample` event and queues
    /// it for the shared profiler ring.
    fn profile(&mut self, ts: TimeStamp, site: CallSiteId, weight: u64, writer: &JournalWriter) {
        let snap = self.snapshot(ts);
        self.shard.profiler_samples += 1;
        self.shard.profiler_sample_weight += weight;
        self.obs
            .on_profiler_sample(snap.cc_depth() as u32, snap.id, weight);
        if writer.enabled() {
            let sample = EventKind::Sample {
                generation: snap.ts.raw(),
                id: snap.id,
                site: site.raw(),
                leaf: snap.leaf.raw(),
                root: snap.root.raw(),
                fingerprint: context_fingerprint(&snap),
                weight: u32::try_from(weight).unwrap_or(u32::MAX),
                depth: snap.cc_depth() as u32,
            };
            writer.emit_for(self.tid.raw(), sample);
        }
        self.profiled.push((snap, weight));
    }

    /// Whether samples wait for [`Self::flush_pending`].
    pub(crate) fn has_pending(&self) -> bool {
        !self.samples.items.is_empty() || !self.profiled.items.is_empty()
    }

    /// Drains the sample backlogs into the shared heat and profiler rings.
    pub(crate) fn flush_pending(&mut self, sh: &mut SharedState) {
        for s in self.samples.drain() {
            sh.push_ring(&s);
        }
        for (s, w) in self.profiled.drain() {
            sh.push_profiler_ring(&s, w);
        }
    }

    /// Moves ccStack spill activity since the last flush into the shared
    /// degraded-state counters and metrics.
    pub(crate) fn flush_spills(&mut self, sh: &mut SharedState) {
        let spills = self.ctx.cc.spill_events();
        let delta = spills - self.flushed_spills;
        if delta > 0 {
            let degraded = &mut sh.stats.degraded;
            degraded.cc_spill_events += delta;
            degraded.cc_spilled_peak = degraded
                .cc_spilled_peak
                .max(self.ctx.cc.spilled_peak() as u64);
            sh.obs.metrics().cc_spills.add(delta);
            self.flushed_spills = spills;
        }
    }

    /// Adds this thread's counters to `out`: the shard, the live
    /// ccStack/TcStack operation counts and the spill activity not yet
    /// flushed.
    pub(crate) fn fold_into(&self, out: &mut DacceStats) {
        out.absorb_shard(&self.shard);
        out.ccstack_ops += self.ctx.cc.ops();
        out.tcstack_ops += self.ctx.tc_ops;
        let degraded = &mut out.degraded;
        degraded.cc_spill_events += self.ctx.cc.spill_events() - self.flushed_spills;
        degraded.cc_spilled_peak = degraded
            .cc_spilled_peak
            .max(self.ctx.cc.spilled_peak() as u64);
    }
}
