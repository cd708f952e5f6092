//! Observability glue: the engine's handle on `dacce-obs`.
//!
//! [`Observability`] bundles an event [`Journal`] and a [`MetricsRegistry`]
//! behind `Arc`s. The journal is always compiled in and starts disabled;
//! it is switched at runtime, and every emission checks its enable flag
//! (one relaxed load) before building anything. Metrics are always
//! collected (slow-path or sample-rate only).
//!
//! Emission sites in `shared.rs` (traps, re-encodes, warm starts),
//! `fastpath.rs` (the executor's ccStack, migration and sample events) and
//! `tracker.rs` hold a [`dacce_obs::JournalWriter`] and emit
//! [`dacce_obs::EventKind`] values directly; a single metric update goes
//! straight to [`Observability::metrics`]. The hooks below are the runtime
//! events that update several metrics at once.

use std::sync::Arc;

use dacce_obs::{Journal, JournalBatch, JournalConfig, MetricsRegistry, MetricsSnapshot};

use crate::postmortem::Postmortem;
use crate::stats::DegradedState;

/// Thread id stamped on events emitted by the shared slow path when no
/// specific thread is acting (re-encode cores, warm starts).
pub const RUNTIME_TID: u32 = u32::MAX;

/// Shared observability handle: the event journal plus the metrics
/// registry. Cloning shares both (the clones observe the same run).
#[derive(Clone, Debug)]
pub struct Observability {
    journal: Arc<Journal>,
    metrics: Arc<MetricsRegistry>,
}

impl Default for Observability {
    fn default() -> Self {
        Self::with_config(JournalConfig::default())
    }
}

impl Observability {
    /// Creates a handle with explicit journal parameters. Journaling
    /// starts disabled; metrics are always collected (slow-path only).
    #[must_use]
    pub fn with_config(config: JournalConfig) -> Self {
        Observability {
            journal: Arc::new(Journal::new(config)),
            metrics: Arc::new(MetricsRegistry::default()),
        }
    }

    /// The event journal.
    #[must_use]
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Turns event journaling on or off at runtime.
    pub fn set_journaling(&self, on: bool) {
        self.journal.set_enabled(on);
    }

    /// Whether event journaling is currently on.
    #[must_use]
    pub fn journaling(&self) -> bool {
        self.journal.enabled()
    }

    /// Drains the journal: all events published since the last drain,
    /// merged across threads in global sequence order.
    #[must_use]
    pub fn drain_journal(&self) -> JournalBatch {
        self.journal.drain()
    }

    /// A point-in-time copy of every metric, with the journal's drop
    /// counter folded in.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.journal_dropped = self.journal.dropped_total();
        snap
    }

    pub(crate) fn on_trap(&self, ns: u64) {
        self.metrics.traps.inc();
        self.metrics.trap_ns.observe(ns);
    }

    pub(crate) fn on_reencode(&self, applied: bool, cost: u64) {
        self.metrics.reencodes.inc();
        self.metrics.reencode_cost.observe(cost);
        if !applied {
            self.metrics.reencode_aborts.inc();
        }
    }

    pub(crate) fn on_sample(&self, cc_depth: u32, id: u64) {
        self.metrics.samples.inc();
        self.metrics.cc_depth.observe(u64::from(cc_depth));
        self.metrics.sampled_ids.observe(id);
    }

    pub(crate) fn on_profiler_sample(&self, cc_depth: u32, id: u64, weight: u64) {
        self.metrics.profiler_samples.inc();
        self.metrics.profiler_sample_weight.add(weight);
        self.metrics.cc_depth.observe(u64::from(cc_depth));
        self.metrics.sampled_ids.observe(id);
    }

    pub(crate) fn on_warm_start(&self, seeded: u64, pruned: u64) {
        self.metrics.warm_seeded_edges.add(seeded);
        self.metrics.warm_pruned_edges.add(pruned);
    }

    /// Folds a batch of per-thread inline-cache probe outcomes in.
    pub(crate) fn on_icache(&self, hits: u64, misses: u64) {
        if hits != 0 {
            self.metrics.icache_hits.add(hits);
        }
        if misses != 0 {
            self.metrics.icache_misses.add(misses);
        }
    }

    /// Folds a batch of per-thread superop probe outcomes in.
    pub(crate) fn on_superops(&self, hits: u64, misses: u64) {
        if hits != 0 {
            self.metrics.superop_hits.add(hits);
        }
        if misses != 0 {
            self.metrics.superop_misses.add(misses);
        }
    }

    /// Renders the flight-recorder postmortem document: ring contents
    /// (peeked, not drained — the live journal consumer keeps every
    /// record), the generation table, the degraded state, and the last
    /// re-encode spans, in the versioned text format
    /// `dacce-lint --postmortem` validates.
    pub(crate) fn render_postmortem(
        &self,
        reason: &str,
        generation: u32,
        max_id: u64,
        degraded: &DegradedState,
    ) -> String {
        let generations = self.metrics.snapshot().generations;
        let batch = self.journal.peek();
        Postmortem::capture(reason, generation, max_id, degraded, &generations, batch).to_string()
    }
}
