//! The engine's usage counters, declared once.
//!
//! Every counter is one row of the table at the bottom of this module:
//! its [`Counter`] variant, its [`EngineStats`] field and type, its
//! Prometheus kind, and its `GET /metrics` help text. The atomic
//! storage, [`EngineStats`], [`Engine::stats`](crate::Engine::stats),
//! the `GET /stats` JSON ([`EngineStats::to_json`]) and the row iterator
//! ([`EngineStats::iter`]) that the server's `GET /metrics` and
//! `triq-cli --stats` loop over are all generated from that listing, so
//! adding a counter is adding a row.

use std::sync::atomic::{AtomicU64, Ordering};
use triq_common::json::Json;
use triq_datalog::{ChaseStats, DeltaSummary};

/// Whether a counter only grows or reports a current level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterKind {
    /// Monotonic: moved by [`Engine::add`](crate::Engine::add).
    Counter,
    /// A level: overwritten by [`Engine::set`](crate::Engine::set).
    Gauge,
}

macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident => $field:ident: $ty:ident, $kind:ident, $help:literal;
    )*) => {
        /// Number of engine counters.
        const COUNT: usize = [$(stringify!($variant)),*].len();

        /// One engine counter: a row of the counter table.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in table order (the order of `GET /stats`).
            pub const ALL: [Counter; COUNT] = [$(Counter::$variant),*];

            /// The counter's name: its [`EngineStats`] field, its
            /// `GET /stats` member, and the `triq_engine_<name>`
            /// `GET /metrics` family.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($field),)*
                }
            }

            /// The `# HELP` text of the counter's `GET /metrics` family.
            pub fn help(self) -> &'static str {
                match self {
                    $(Counter::$variant => $help,)*
                }
            }

            /// Whether the counter is monotonic or a gauge.
            pub fn kind(self) -> CounterKind {
                match self {
                    $(Counter::$variant => CounterKind::$kind,)*
                }
            }
        }

        /// Usage counters of an [`Engine`](crate::Engine) (a
        /// point-in-time snapshot).
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[doc = $doc])* pub $field: $ty,)*
        }

        impl EngineStats {
            /// The value of one counter.
            pub fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $(Counter::$variant => self.$field as u64,)*
                }
            }
        }

        impl Counters {
            /// A consistent-enough snapshot (each counter is loaded on
            /// its own; counters are independent tallies).
            pub(crate) fn snapshot(&self) -> EngineStats {
                EngineStats {
                    $($field: self.get(Counter::$variant) as $ty,)*
                }
            }
        }
    };
}

/// The atomic storage behind an engine's counters, one cell per
/// [`Counter`].
#[derive(Debug)]
pub(crate) struct Counters([AtomicU64; COUNT]);

impl Default for Counters {
    fn default() -> Counters {
        Counters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl Counters {
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn set(&self, counter: Counter, value: u64) {
        self.0[counter as usize].store(value, Ordering::Relaxed);
    }

    fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize].load(Ordering::Relaxed)
    }

    /// Folds one incremental delta application into the counters.
    pub(crate) fn absorb_delta(&self, summary: &DeltaSummary) {
        self.add(Counter::DeltasApplied, 1);
        self.add(Counter::AtomsOverdeleted, summary.overdeleted as u64);
        self.add(Counter::AtomsRederived, summary.rederived as u64);
        self.add(Counter::AtomsDerived, summary.inserted as u64);
        self.add(Counter::PlansCompiled, summary.plans_compiled as u64);
        self.add(Counter::Replans, summary.replans as u64);
        self.add(Counter::IndexBuilds, summary.index_builds as u64);
        self.add(Counter::IndexProbes, summary.index_probes);
        self.add(Counter::MorselBatches, summary.morsel_batches);
        self.add(Counter::KernelFilterRows, summary.kernel_filter_rows);
        if summary.full_rebuild {
            // Null-entangled deletion: the delta was answered by the
            // automatic full re-chase fallback.
            self.add(Counter::ChaseRuns, 1);
        }
    }

    /// Folds one from-scratch chase (a view's first build) into the
    /// counters.
    pub(crate) fn absorb_built(&self, stats: &ChaseStats) {
        self.add(Counter::ChaseRuns, 1);
        self.add(Counter::AtomsDerived, stats.derived as u64);
        self.add(Counter::JoinProbes, stats.probes);
        self.add(Counter::ParallelStrata, stats.parallel_strata as u64);
        self.add(Counter::PlansCompiled, stats.plans_compiled as u64);
        self.add(Counter::Replans, stats.replans as u64);
        self.add(Counter::IndexBuilds, stats.index_builds as u64);
        self.add(Counter::IndexProbes, stats.index_probes);
        self.add(Counter::MorselBatches, stats.morsel_batches);
        self.add(Counter::KernelFilterRows, stats.kernel_filter_rows);
    }
}

impl EngineStats {
    /// Every counter as `(name, help, kind, value)`, in table order —
    /// what `GET /metrics` and `triq-cli --stats` render.
    pub fn iter(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, CounterKind, u64)> + '_ {
        Counter::ALL
            .iter()
            .map(move |&c| (c.name(), c.help(), c.kind(), self.get(c)))
    }

    /// The counters as a JSON object (the `engine` member of the server's
    /// `GET /stats` payload — see `docs/PROTOCOL.md`). Member names match
    /// the field names, in table order.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.iter()
                .map(|(name, _, _, value)| (name, Json::U64(value))),
        )
    }
}

counters! {
    /// Queries prepared (each pays translation + stratification once).
    PreparedQueries => prepared_queries: usize, Counter, "Queries prepared";
    /// Prepared-query executions (including cache hits).
    Executions => executions: usize, Counter, "Prepared-query executions";
    /// Chase runs actually performed.
    ChaseRuns => chase_runs: usize, Counter, "Chase runs performed";
    /// Executions answered from a session's chase-state cache.
    CacheHits => cache_hits: usize, Counter, "Executions served from cache";
    /// Atoms derived across all chase runs (beyond the database seeds).
    AtomsDerived => atoms_derived: u64, Counter, "Atoms derived by the chase";
    /// Candidate tuples examined by the chase join loops.
    JoinProbes => join_probes: u64, Counter, "Join candidate probes";
    /// Strata evaluated with parallel per-rule match collection.
    ParallelStrata => parallel_strata: usize, Counter,
        "Strata run with parallel match collection";
    /// Session mutations absorbed incrementally (delta-chase inserts +
    /// DRed deletes) instead of discarding the materialization.
    DeltasApplied => deltas_applied: usize, Counter, "Session deltas absorbed incrementally";
    /// Atoms over-deleted by DRed maintenance (support cones and
    /// negation victims) across all sessions.
    AtomsOverdeleted => atoms_overdeleted: u64, Counter, "Atoms over-deleted by DRed";
    /// Over-deleted atoms that rederivation restored.
    AtomsRederived => atoms_rederived: u64, Counter, "Over-deleted atoms rederived";
    /// Join plans compiled from live statistics by the chase's
    /// cost-based planner (first stats-driven planning of a rule within
    /// a run).
    PlansCompiled => plans_compiled: u64, Counter, "Cost-based join plans compiled";
    /// Plans recomputed at stratum entry after cardinality drift.
    Replans => replans: u64, Counter, "Plans recomputed after cardinality drift";
    /// On-demand joint hash indexes built on relations (rebuilds after
    /// tombstone/compaction invalidation count again).
    IndexBuilds => index_builds: u64, Counter, "Joint hash indexes built";
    /// Join probes served by hash indexes (whole-tuple probes at
    /// fully-bound plan positions plus joint-index lookups).
    IndexProbes => index_probes: u64, Counter, "Probes served by hash indexes";
    /// Morsel match batches collected by the parallel chase (each is one
    /// fixed-size slice of a rule's semi-naive pivot window matched on a
    /// worker thread).
    MorselBatches => morsel_batches: u64, Counter, "Morsel match batches collected";
    /// Rows screened by the vectorized column kernels (leading-scan
    /// constant and repeated-variable filters).
    KernelFilterRows => kernel_filter_rows: u64, Counter, "Rows screened by column kernels";
    /// Write-ahead-log records appended by the durability layer (one per
    /// acknowledged update batch when persistence is enabled).
    WalRecords => wal_records: u64, Counter, "WAL records appended";
    /// Total bytes appended to the write-ahead log.
    WalBytes => wal_bytes: u64, Counter, "Bytes appended to the WAL";
    /// Snapshot checkpoints written by the durability layer.
    SnapshotsWritten => snapshots_written: u64, Counter, "Checkpoint snapshots written";
    /// Op-log version of the most recent checkpoint (0 before the first).
    LastCheckpointVersion => last_checkpoint_version: u64, Gauge,
        "Op-log version of the most recent checkpoint";
    /// Operations replayed from the WAL tail during startup recovery.
    RecoveryReplayedOps => recovery_replayed_ops: u64, Counter,
        "WAL records replayed at recovery";
    /// Checkpoint attempts that failed (the WAL keeps covering the
    /// state; the durability layer backs off before retrying). A
    /// non-zero value that keeps growing means the data directory's
    /// disk needs attention.
    CheckpointFailures => checkpoint_failures: u64, Counter, "Failed checkpoint attempts";
    /// Successful magic-set rewrites: prepared queries that carry a
    /// demand plan (`triq_datalog::demand`) and can answer from the
    /// demanded cone instead of the full fixpoint.
    DemandRewrites => demand_rewrites: u64, Counter,
        "Plans prepared with a magic-set demand rewrite";
    /// Rewrite attempts that declined (unbound query, demanded ∃-rule,
    /// lost stratification, program shape) plus demand chases that fell
    /// back to a full build at execution time.
    DemandFallbacks => demand_fallbacks: u64, Counter,
        "Demand rewrites declined or abandoned for the full chase";
    /// Atoms the demand evaluations did *not* derive, summed over demand
    /// view builds whose full-fixpoint baseline is known (the same plan
    /// was also chased in full at some point — e.g. under
    /// [`DemandMode::Off`](triq_datalog::DemandMode::Off) in an A/B
    /// run). Purely informational: `0` when no baseline was ever
    /// observed.
    DemandAtomsSaved => demand_atoms_saved: u64, Counter,
        "Atoms a demand-driven chase avoided deriving versus the full-chase baseline";
    /// Read requests rejected up front by the serving layer's concurrency
    /// gate (`max_concurrent_reads`) — each was answered `503 E-RESOURCE`
    /// without touching the chase.
    RequestsRejected => requests_rejected: u64, Counter,
        "Read requests rejected by the concurrency gate";
    /// Read requests aborted mid-evaluation because their wall-clock
    /// deadline (`read_deadline_ms`) passed — each was answered
    /// `503 E-RESOURCE`; completed answers are never affected.
    DeadlineExceeded => deadline_exceeded: u64, Counter,
        "Read requests aborted past their evaluation deadline";
}
