//! The unified `Engine` / `Session` / `PreparedQuery` facade.
//!
//! The paper gives four ways to ask a question — SPARQL patterns under
//! three semantics (§3.1, §5.2, §5.3), TriQ 1.0 programs (Def. 4.2),
//! TriQ-Lite 1.0 programs (Def. 6.1) and raw Datalog∃,¬s,⊥ queries
//! (§3.2) — and the seed exposed one ad-hoc entry point per way, each
//! re-parsing, re-translating, re-classifying, re-stratifying and
//! re-compiling on every call. This module replaces them with one
//! prepare-once / execute-many lifecycle:
//!
//! * [`Engine`] (built via [`EngineBuilder`]) holds policy: chase
//!   configuration, default [`Semantics`], rule libraries (§2), and
//!   usage [statistics](Engine::stats);
//! * [`Engine::prepare`] accepts *any* query form through [`IntoQuery`]
//!   and pays translation (§5), classification (Def. 4.2 / 6.1),
//!   stratification (§3.2) and rule compilation exactly **once**,
//!   yielding a [`PreparedQuery`];
//! * [`Session`] holds loaded data — an RDF [`Graph`] bridged through
//!   `τ_db` (§5.1) and/or a raw [`Database`] — plus **maintained** chase
//!   state: re-executing a prepared query against unchanged data is a
//!   lookup, and mutations ([`Session::insert_triple`],
//!   [`Session::remove_fact`], …) are absorbed incrementally
//!   (delta-chase inserts, DRed deletes — see
//!   `triq_datalog::incremental`) instead of discarding the
//!   materialization;
//! * a [`PreparedQuery`] executes against any number of sessions, either
//!   materialized ([`PreparedQuery::execute`]) or streaming
//!   ([`PreparedQuery::execute_iter`]).
//!
//! ```
//! use triq::prelude::*;
//!
//! let engine = Engine::new();
//! let authors = engine.prepare(Sparql(
//!     "SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }",
//! ))?;
//!
//! let session = engine.load_turtle(
//!     "dbUllman is_author_of \"The Complete Book\" .\n\
//!      dbUllman name \"Jeffrey Ullman\" .",
//! )?;
//! assert_eq!(authors.bindings_of(&session, "X")?[0].as_str(), "Jeffrey Ullman");
//! # Ok::<(), TriqError>(())
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use triq_common::{Delta, Fact, Result, Symbol, TriqError, VarId};
use triq_datalog::{
    classify_program, demand, AnswerIter, Answers, ChaseConfig, ChaseOutcome, ChaseRunner,
    Database, DemandMode, ExistentialStrategy, MaterializedView, Program, ProgramClassification,
};
use triq_obs::{Phase, Recorder, Timer};
use triq_owl2ql::tau_db;
use triq_rdf::{Graph, Triple};
use triq_sparql::{GraphPattern, MappingSet, SelectQuery};
use triq_translate::{
    decode_tuple_vars, regime_chase_config, translate_pattern, translate_pattern_all,
    translate_pattern_u, RegimeAnswers,
};

use crate::counters::Counters;
pub use crate::counters::{Counter, CounterKind, EngineStats};
use crate::{TriqLiteQuery, TriqQuery};

/// The evaluation semantics for SPARQL patterns (§3.1, §5.2, §5.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Semantics {
    /// Plain SPARQL over the graph as-is (Theorem 5.2).
    #[default]
    Plain,
    /// The OWL 2 QL core direct-semantics entailment regime J·K^U, with
    /// the active-domain restriction (Theorem 5.3).
    RegimeU,
    /// J·K^All (§5.3): the regime without the active-domain restriction
    /// on blank nodes.
    RegimeAll,
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Builder for [`Engine`]: chase policy, default semantics and rule
/// libraries.
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    plain_config: ChaseConfig,
    regime_config: ChaseConfig,
    default_semantics: Semantics,
    libraries: Vec<Program>,
    recorder: Arc<dyn Recorder>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            plain_config: ChaseConfig::default(),
            regime_config: regime_chase_config(),
            default_semantics: Semantics::Plain,
            libraries: Vec::new(),
            recorder: Arc::new(triq_obs::Noop),
        }
    }
}

impl EngineBuilder {
    /// A builder with the default policy: skolem chase for plain /
    /// datalog queries, restricted chase for the entailment regimes
    /// (see [`regime_chase_config`]), plain semantics, no libraries.
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Replaces the chase configuration for **all** query kinds.
    pub fn chase_config(mut self, config: ChaseConfig) -> EngineBuilder {
        self.plain_config = config;
        self.regime_config = config;
        self
    }

    /// Sets the existential strategy for all query kinds.
    pub fn existential_strategy(mut self, strategy: ExistentialStrategy) -> EngineBuilder {
        self.plain_config.strategy = strategy;
        self.regime_config.strategy = strategy;
        self
    }

    /// Sets the null invention-depth bound for all query kinds.
    pub fn max_null_depth(mut self, depth: u32) -> EngineBuilder {
        self.plain_config.max_null_depth = depth;
        self.regime_config.max_null_depth = depth;
        self
    }

    /// Sets the atom budget for all query kinds.
    pub fn max_atoms(mut self, atoms: usize) -> EngineBuilder {
        self.plain_config.max_atoms = atoms;
        self.regime_config.max_atoms = atoms;
        self
    }

    /// Sets the morsel worker count for all query kinds (`0` = one
    /// worker per hardware thread, the default).
    pub fn chase_threads(mut self, threads: usize) -> EngineBuilder {
        self.plain_config.chase_threads = threads;
        self.regime_config.chase_threads = threads;
        self
    }

    /// Sets the demand-evaluation mode for all query kinds: whether
    /// point queries may be answered by chasing the magic-set rewrite of
    /// the program (`triq_datalog::demand`) instead of materializing the
    /// full fixpoint. The default is [`DemandMode::Auto`].
    pub fn demand(mut self, mode: DemandMode) -> EngineBuilder {
        self.plain_config.demand = mode;
        self.regime_config.demand = mode;
        self
    }

    /// Sets the semantics used when a SPARQL query is prepared without an
    /// explicit one.
    pub fn default_semantics(mut self, semantics: Semantics) -> EngineBuilder {
        self.default_semantics = semantics;
        self
    }

    /// Adds a rule library (a fixed set of rules in the sense of §2, e.g.
    /// the `owl:sameAs` closure) that is unioned into every prepared
    /// program. Libraries must not redefine `triple` recursively in a way
    /// that breaks stratification.
    pub fn library(mut self, library: Program) -> EngineBuilder {
        self.libraries.push(library);
        self
    }

    /// Installs a telemetry recorder (e.g. [`triq_obs::Telemetry`]):
    /// prepare/execute/apply spans and every chase phase timing of
    /// queries prepared by this engine report through it. The default
    /// is the zero-cost no-op recorder; chase outcomes are byte-
    /// identical either way.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> EngineBuilder {
        self.recorder = recorder;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                plain_config: self.plain_config,
                regime_config: self.regime_config,
                default_semantics: self.default_semantics,
                libraries: self.libraries,
                stats: Counters::default(),
                recorder: self.recorder,
            }),
        }
    }
}

#[derive(Debug)]
struct EngineInner {
    plain_config: ChaseConfig,
    regime_config: ChaseConfig,
    default_semantics: Semantics,
    libraries: Vec<Program>,
    stats: Counters,
    /// Telemetry hook shared by everything this engine prepares (and by
    /// the persistence layer through [`Engine::recorder`]).
    recorder: Arc<dyn Recorder>,
}

/// The top-level handle: policy + prepared-query factory.
///
/// Cloning an `Engine` is cheap (an [`Arc`] bump) and clones share
/// statistics; sessions and prepared queries keep their engine alive.
#[derive(Clone, Debug)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Self {
        EngineBuilder::new().build()
    }
}

/// Global source of prepared-query identities (used as session cache
/// keys).
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(1);

impl Engine {
    /// An engine with the default policy.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The semantics used when none is given at prepare time.
    pub fn default_semantics(&self) -> Semantics {
        self.inner.default_semantics
    }

    /// A snapshot of the usage counters.
    pub fn stats(&self) -> EngineStats {
        self.inner.stats.snapshot()
    }

    /// The engine's telemetry recorder (the zero-cost no-op unless
    /// [`EngineBuilder::recorder`] installed one). The persistence and
    /// server layers report through this same hook so one `/metrics`
    /// scrape covers the whole stack.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.inner.recorder
    }

    /// Adds `n` to a monotonic counter. The engine ticks its own
    /// counters; the durability and serving layers report through this
    /// (WAL appends, checkpoints, recovery, rejected and timed-out
    /// reads), so one [`Engine::stats`] snapshot covers the whole stack.
    pub fn add(&self, counter: Counter, n: u64) {
        debug_assert_eq!(
            counter.kind(),
            CounterKind::Counter,
            "{counter:?} is a gauge"
        );
        self.inner.stats.add(counter, n);
    }

    /// Sets a gauge such as [`Counter::LastCheckpointVersion`].
    pub fn set(&self, counter: Counter, value: u64) {
        debug_assert_eq!(
            counter.kind(),
            CounterKind::Gauge,
            "{counter:?} is a counter"
        );
        self.inner.stats.set(counter, value);
    }

    /// An empty session.
    pub fn session(&self) -> Session {
        Session {
            engine: self.clone(),
            graph: None,
            db: Database::new(),
            ops: OpLog::default(),
            views: Mutex::new(HashMap::new()),
            restored: Mutex::new(HashMap::new()),
        }
    }

    /// A session over an RDF graph, bridged through `τ_db` (§5.1) once.
    pub fn load_graph(&self, graph: Graph) -> Session {
        Session {
            engine: self.clone(),
            db: tau_db(&graph),
            graph: Some(graph),
            ops: OpLog::default(),
            views: Mutex::new(HashMap::new()),
            restored: Mutex::new(HashMap::new()),
        }
    }

    /// A session over a graph given in Turtle-lite text.
    pub fn load_turtle(&self, turtle: &str) -> Result<Session> {
        Ok(self.load_graph(triq_rdf::parse_turtle(turtle)?))
    }

    /// A session over a raw Datalog database.
    pub fn load_database(&self, db: Database) -> Session {
        Session {
            engine: self.clone(),
            graph: None,
            db,
            ops: OpLog::default(),
            views: Mutex::new(HashMap::new()),
            restored: Mutex::new(HashMap::new()),
        }
    }

    /// Prepares a query: parsing, translation (§5), classification
    /// (Def. 4.2 / 6.1), stratification and rule compilation happen here,
    /// exactly once; the result executes against any number of sessions.
    pub fn prepare<Q: IntoQuery>(&self, query: Q) -> Result<PreparedQuery> {
        let spec = query.into_query()?;
        self.prepare_spec(spec)
    }

    fn prepare_spec(&self, spec: QuerySpec) -> Result<PreparedQuery> {
        let rec = &*self.inner.recorder;
        let _span = triq_obs::span(rec, "prepare", 0);
        let _t = Timer::start(rec, Phase::Prepare);
        let (program, output, decode) = match spec {
            QuerySpec::Sparql { pattern, semantics } => {
                let semantics = semantics.unwrap_or(self.inner.default_semantics);
                let translated = match semantics {
                    Semantics::Plain => translate_pattern(&pattern)?,
                    Semantics::RegimeU => translate_pattern_u(&pattern)?,
                    Semantics::RegimeAll => translate_pattern_all(&pattern)?,
                };
                let decode = SparqlDecode {
                    vars: translated.vars,
                    semantics,
                };
                (translated.program, translated.answer_pred, Some(decode))
            }
            QuerySpec::Datalog { program, output } => (program, output, None),
        };
        // Union the engine's rule libraries into the prepared program.
        let mut program = program;
        for lib in &self.inner.libraries {
            program = lib.union(&program);
        }
        // §3.2: the output predicate must not occur in any rule body.
        if program.occurs_in_body(output) {
            return Err(TriqError::OutputInBody(format!(
                "output predicate {output} occurs in a rule body (§3.2 \
                 forbids this)"
            )));
        }
        let classification = classify_program(&program);
        let config = match &decode {
            Some(d) if d.semantics != Semantics::Plain => self.inner.regime_config,
            _ => self.inner.plain_config,
        };
        let mut runner = ChaseRunner::new(program, config)?;
        runner.set_recorder(self.inner.recorder.clone());
        self.add(Counter::PreparedQueries, 1);
        let fingerprint =
            triq_datalog::persist::plan_fingerprint(runner.program(), &runner.config());
        let demand = self.attach_demand(&runner, output);
        Ok(PreparedQuery {
            engine: self.clone(),
            plan_id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
            fingerprint,
            runner,
            output,
            classification,
            decode,
            demand,
            full_derived: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Attempts the magic-set rewrite for a freshly compiled plan.
    /// `None` means "evaluate the original program" — either demand is
    /// off for this plan or the rewrite reported a fallback (counted in
    /// [`Counter::DemandFallbacks`]).
    fn attach_demand(&self, runner: &ChaseRunner, output: Symbol) -> Option<Arc<DemandPlan>> {
        let config = runner.config();
        if config.demand == DemandMode::Off {
            return None;
        }
        let rewritten = match demand::rewrite(runner.program(), output) {
            Ok(r) => r,
            Err(_fallback) => {
                self.add(Counter::DemandFallbacks, 1);
                return None;
            }
        };
        // The rewrite is validated and stratified, so compilation only
        // fails on resource-class issues; treat any failure as one more
        // fallback rather than failing the prepare.
        match ChaseRunner::new(rewritten.program, config) {
            Ok(mut drunner) => {
                drunner.set_recorder(self.inner.recorder.clone());
                let fingerprint =
                    triq_datalog::persist::plan_fingerprint(drunner.program(), &config);
                self.add(Counter::DemandRewrites, 1);
                Some(Arc::new(DemandPlan {
                    runner: drunner,
                    seed: rewritten.seed,
                    fingerprint,
                }))
            }
            Err(_) => {
                self.add(Counter::DemandFallbacks, 1);
                None
            }
        }
    }
}

/// The compiled magic-set rewrite of a prepared query: a runner over the
/// rewritten program, the extensional seed fact its demand propagation
/// fires from, and the rewrite's own durable fingerprint. Two queries
/// that differ only in their bound constants compile to different
/// rewritten program texts (the constants appear in the seed rules), so
/// their fingerprints — and therefore their persisted views — never
/// collide.
#[derive(Debug)]
struct DemandPlan {
    runner: ChaseRunner,
    seed: Fact,
    fingerprint: u64,
}

// ---------------------------------------------------------------------------
// IntoQuery
// ---------------------------------------------------------------------------

/// A query in some source language, normalized for [`Engine::prepare`].
#[derive(Clone, Debug)]
pub enum QuerySpec {
    /// A SPARQL graph pattern, optionally pinned to a semantics (else the
    /// engine default applies).
    Sparql {
        /// The pattern.
        pattern: GraphPattern,
        /// `None` = use [`Engine::default_semantics`].
        semantics: Option<Semantics>,
    },
    /// A Datalog∃,¬s,⊥ query `(Π, p)`.
    Datalog {
        /// The program Π.
        program: Program,
        /// The output predicate `p`.
        output: Symbol,
    },
}

/// Conversion into a [`QuerySpec`] — the single doorway every query
/// language enters the engine through. Implemented for SPARQL patterns
/// and `SELECT` queries (optionally paired with a [`Semantics`]), for
/// validated [`TriqQuery`] / [`TriqLiteQuery`] programs, for raw
/// [`triq_datalog::Query`] values and `(Program, output)` pairs, and for
/// source text via the [`Sparql`] and [`Datalog`] wrappers.
pub trait IntoQuery {
    /// Normalizes `self`.
    fn into_query(self) -> Result<QuerySpec>;
}

/// SPARQL `SELECT` source text, e.g. `Sparql("SELECT ?X WHERE { ?X p ?Y }")`.
#[derive(Clone, Copy, Debug)]
pub struct Sparql<'a>(pub &'a str);

/// Datalog∃,¬s,⊥ source text plus output predicate, e.g.
/// `Datalog("triple(?X, p, ?Y) -> out(?X).", "out")`.
#[derive(Clone, Copy, Debug)]
pub struct Datalog<'a>(pub &'a str, pub &'a str);

impl IntoQuery for QuerySpec {
    fn into_query(self) -> Result<QuerySpec> {
        Ok(self)
    }
}

impl IntoQuery for Sparql<'_> {
    fn into_query(self) -> Result<QuerySpec> {
        triq_sparql::parse_select(self.0)?.into_query()
    }
}

impl IntoQuery for Datalog<'_> {
    fn into_query(self) -> Result<QuerySpec> {
        let program = triq_datalog::parse_program(self.0)?;
        Ok(QuerySpec::Datalog {
            program,
            output: triq_common::intern(self.1),
        })
    }
}

impl IntoQuery for GraphPattern {
    fn into_query(self) -> Result<QuerySpec> {
        self.validate()?;
        Ok(QuerySpec::Sparql {
            pattern: self,
            semantics: None,
        })
    }
}

impl IntoQuery for (GraphPattern, Semantics) {
    fn into_query(self) -> Result<QuerySpec> {
        self.0.validate()?;
        Ok(QuerySpec::Sparql {
            pattern: self.0,
            semantics: Some(self.1),
        })
    }
}

impl IntoQuery for &GraphPattern {
    fn into_query(self) -> Result<QuerySpec> {
        self.clone().into_query()
    }
}

impl IntoQuery for (&GraphPattern, Semantics) {
    fn into_query(self) -> Result<QuerySpec> {
        (self.0.clone(), self.1).into_query()
    }
}

impl IntoQuery for SelectQuery {
    fn into_query(self) -> Result<QuerySpec> {
        let pattern = GraphPattern::Select(self.vars, Box::new(self.pattern));
        pattern.into_query()
    }
}

impl IntoQuery for (SelectQuery, Semantics) {
    fn into_query(self) -> Result<QuerySpec> {
        let QuerySpec::Sparql { pattern, .. } = self.0.into_query()? else {
            unreachable!("SelectQuery normalizes to a SPARQL spec");
        };
        Ok(QuerySpec::Sparql {
            pattern,
            semantics: Some(self.1),
        })
    }
}

impl IntoQuery for triq_datalog::Query {
    fn into_query(self) -> Result<QuerySpec> {
        Ok(QuerySpec::Datalog {
            program: self.program,
            output: self.output,
        })
    }
}

impl IntoQuery for (Program, &str) {
    fn into_query(self) -> Result<QuerySpec> {
        Ok(QuerySpec::Datalog {
            program: self.0,
            output: triq_common::intern(self.1),
        })
    }
}

impl IntoQuery for TriqQuery {
    fn into_query(self) -> Result<QuerySpec> {
        self.query().clone().into_query()
    }
}

impl IntoQuery for TriqLiteQuery {
    fn into_query(self) -> Result<QuerySpec> {
        self.query().clone().into_query()
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Upper bound on maintained views per session. A view holds the whole
/// materialized instance (plus maintenance state), so the cache is kept
/// small; when full it is cleared wholesale (coarse, but bounded —
/// recomputation is always correct).
const MAX_CACHED_OUTCOMES: usize = 32;

/// Upper bound on unabsorbed ops in a session's mutation log. When it is
/// exceeded, views too far behind are evicted (they rebuild on their next
/// execution) so the absorbed prefix can be pruned.
const MAX_PENDING_OPS: usize = 4096;

/// The extensional mutation log of a session: every
/// `insert_*`/`remove_*`/`add_fact` call appends one operation here
/// (`true` = insert). Each maintained view remembers the log *version*
/// it is synced to; executing a prepared query replays only the suffix
/// the view has not seen, as one netted [`Delta`]. The log prefix every
/// view has absorbed is pruned on the next mutation.
#[derive(Debug, Default)]
pub(crate) struct OpLog {
    /// Version of the first entry in `ops`.
    pub(crate) base: u64,
    pub(crate) ops: Vec<(bool, Fact)>,
}

impl OpLog {
    pub(crate) fn version(&self) -> u64 {
        self.base + self.ops.len() as u64
    }

    /// The net delta from log version `from` to the head: per fact, the
    /// **last** operation wins (insert-then-delete nets to a delete, and
    /// vice versa — presence is set semantics).
    pub(crate) fn delta_since(&self, from: u64) -> Delta {
        let start = (from.saturating_sub(self.base)) as usize;
        let mut last: HashMap<&Fact, bool> = HashMap::new();
        for (insert, fact) in &self.ops[start..] {
            last.insert(fact, *insert);
        }
        let mut delta = Delta::new();
        for (fact, insert) in last {
            if insert {
                delta.add_insert(fact.clone());
            } else {
                delta.add_delete(fact.clone());
            }
        }
        delta
    }
}

/// A maintained view plus the op-log version it reflects. `view` is
/// `None` before the first successful build and after an apply error
/// (the next execution rebuilds from the session database).
#[derive(Debug)]
pub(crate) struct ViewEntry {
    pub(crate) view: Option<MaterializedView>,
    pub(crate) synced: u64,
}

/// One lock per plan: the outer map mutex is held only for the lookup /
/// insert, so a long chase or delta application on one prepared query
/// never blocks executions of other queries against the same session.
pub(crate) type ViewCell = Arc<Mutex<ViewEntry>>;

/// Loaded data plus maintained chase state.
///
/// A session belongs to the [`Engine`] that created it. For every
/// prepared query executed against it, the session keeps a
/// [`MaterializedView`] — the chase fixpoint plus the state needed to
/// update it in place. Re-executing an unchanged session is a lookup;
/// executing after mutations replays only the pending operations as an
/// incremental delta (semi-naive insert frontiers, DRed deletes) instead
/// of re-running the chase. [`Session::invalidate`] remains the explicit
/// full-rebuild escape hatch, and null-entangled deletions take it
/// automatically.
#[derive(Debug)]
pub struct Session {
    pub(crate) engine: Engine,
    pub(crate) graph: Option<Graph>,
    pub(crate) db: Database,
    pub(crate) ops: OpLog,
    pub(crate) views: Mutex<HashMap<u64, ViewCell>>,
    /// Views recovered from a persistence snapshot, keyed by durable
    /// plan fingerprint (`triq_datalog::persist::plan_fingerprint`) —
    /// in-process plan ids do not survive a restart, so recovered views
    /// wait here until an execution of a matching prepared query
    /// *adopts* one into `views` (no chase). They are kept synced with
    /// the op log like live views and participate in log pruning.
    pub(crate) restored: Mutex<HashMap<u64, RestoredView>>,
}

/// A recovered [`MaterializedView`] awaiting adoption, plus the op-log
/// version it reflects.
#[derive(Debug)]
pub(crate) struct RestoredView {
    pub(crate) view: MaterializedView,
    pub(crate) synced: u64,
}

impl Session {
    /// The engine this session belongs to.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The loaded RDF graph, if the session was created from one.
    pub fn graph(&self) -> Option<&Graph> {
        self.graph.as_ref()
    }

    /// The underlying Datalog database (`τ_db(G)` for graph sessions).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Adds an RDF triple (both to the graph, if any, and to the `τ_db`
    /// bridge). Maintained chase state absorbs the change incrementally
    /// at the next execution.
    pub fn insert_triple(&mut self, s: &str, p: &str, o: &str) {
        if let Some(g) = &mut self.graph {
            g.insert_strs(s, p, o);
        }
        self.db.add_fact("triple", &[s, p, o]);
        self.record(true, Fact::from_strs("triple", &[s, p, o]));
    }

    /// Removes an RDF triple (graph and `τ_db` bridge). Returns `true`
    /// if it was present; maintained chase state absorbs the deletion
    /// incrementally (delete-and-rederive) at the next execution.
    pub fn remove_triple(&mut self, s: &str, p: &str, o: &str) -> bool {
        if let Some(g) = &mut self.graph {
            g.remove_strs(s, p, o);
        }
        let present = self.db.remove_fact("triple", &[s, p, o]);
        if present {
            self.record(false, Fact::from_strs("triple", &[s, p, o]));
        }
        present
    }

    /// Adds a raw Datalog fact; maintained chase state absorbs it
    /// incrementally at the next execution.
    pub fn add_fact(&mut self, pred: &str, constants: &[&str]) {
        self.db.add_fact(pred, constants);
        self.record(true, Fact::from_strs(pred, constants));
    }

    /// Removes a raw Datalog fact; returns `true` if it was present.
    pub fn remove_fact(&mut self, pred: &str, constants: &[&str]) -> bool {
        let present = self.db.remove_fact(pred, constants);
        if present {
            self.record(false, Fact::from_strs(pred, constants));
        }
        present
    }

    /// Appends to the op log and prunes the prefix every live view has
    /// already absorbed. Runs under `&mut self`, so no execution (and no
    /// entry lock) can be active concurrently.
    fn record(&mut self, insert: bool, fact: Fact) {
        self.ops.ops.push((insert, fact));
        let version = self.ops.version();
        let views = self.views.get_mut().expect("session views poisoned");
        let restored = self.restored.get_mut().expect("restored views poisoned");
        // A view that has sat out thousands of mutations is cheaper to
        // rebuild than to keep the log suffix alive for: evict far-behind
        // views so the log stays bounded even when a prepared query goes
        // idle on a long-lived session. Restored (not-yet-adopted) views
        // are held to the same bound.
        if self.ops.ops.len() > MAX_PENDING_OPS {
            views.retain(|_, cell| {
                let entry = cell.lock().expect("session view poisoned");
                entry.view.is_some()
                    && version.saturating_sub(entry.synced) <= (MAX_PENDING_OPS / 2) as u64
            });
            restored
                .retain(|_, rv| version.saturating_sub(rv.synced) <= (MAX_PENDING_OPS / 2) as u64);
        }
        let min_synced = views
            .values()
            .map(|cell| {
                let entry = cell.lock().expect("session view poisoned");
                // An entry without a view rebuilds from the database and
                // needs no log suffix.
                if entry.view.is_some() {
                    entry.synced
                } else {
                    version
                }
            })
            .chain(restored.values().map(|rv| rv.synced))
            .min()
            .unwrap_or(version);
        let drop = min_synced.saturating_sub(self.ops.base) as usize;
        if drop > 0 {
            self.ops.ops.drain(..drop);
            self.ops.base = min_synced;
        }
    }

    /// Applies a whole [`Delta`] to the session's extensional data:
    /// deletes first, then inserts (the [`Delta`] contract), with
    /// `triple/3` facts mirrored into the RDF graph (graph deletions are
    /// batched into a single reindex pass via [`Graph::remove_all`]).
    /// Returns `(inserted, deleted)` — the counts of facts that actually
    /// changed (redundant operations are no-ops). Maintained views absorb
    /// the change incrementally, exactly as for the single-fact mutators.
    pub fn apply_delta(&mut self, delta: &Delta) -> (usize, usize) {
        let triple = triq_common::intern("triple");
        let as_triple = |f: &Fact| {
            (f.pred == triple && f.args.len() == 3)
                .then(|| Triple::new(f.args[0], f.args[1], f.args[2]))
        };
        let mut graph_dels: Vec<Triple> = Vec::new();
        let mut deleted = 0usize;
        for f in &delta.deletes {
            if self.db.remove_row(f.pred, &f.args) {
                deleted += 1;
                graph_dels.extend(as_triple(f));
                self.record(false, f.clone());
            }
        }
        if !graph_dels.is_empty() {
            if let Some(g) = &mut self.graph {
                g.remove_all(graph_dels);
            }
        }
        let mut inserted = 0usize;
        for f in &delta.inserts {
            if self.db.add_row(f.pred, &f.args) {
                inserted += 1;
                if let (Some(t), Some(g)) = (as_triple(f), self.graph.as_mut()) {
                    g.insert(t);
                }
                self.record(true, f.clone());
            }
        }
        (inserted, deleted)
    }

    /// Brings every maintained view up to the head of the op log and
    /// returns a snapshot handle per plan — the publication step of the
    /// [`SharedSession`] writer. Views whose delta application fails are
    /// discarded (they rebuild on their next execution) rather than
    /// poisoning the whole session; entries without a built view are
    /// dropped likewise.
    fn sync_all_views(&mut self) -> HashMap<u64, Arc<ChaseOutcome>> {
        let version = self.ops.version();
        let ops = &self.ops;
        let stats = &self.engine.inner.stats;
        let views = self.views.get_mut().expect("session views poisoned");
        let mut outcomes = HashMap::new();
        views.retain(|&plan_id, cell| {
            let mut entry = cell.lock().expect("session view poisoned");
            let synced = entry.synced;
            let Some(view) = entry.view.as_mut() else {
                return false;
            };
            if synced != version {
                let delta = ops.delta_since(synced);
                match view.apply(&delta) {
                    Ok(summary) => stats.absorb_delta(&summary),
                    Err(_) => return false,
                }
            }
            outcomes.insert(plan_id, view.snapshot());
            entry.synced = version;
            true
        });
        // Recovered views awaiting adoption ride along: keeping them at
        // the head means a checkpoint taken now can persist them and the
        // op-log prefix stays prunable. One that cannot absorb its suffix
        // is dropped (the matching query will simply chase from scratch).
        let restored = self.restored.get_mut().expect("restored views poisoned");
        restored.retain(|_, rv| {
            if rv.synced == version {
                return true;
            }
            let delta = ops.delta_since(rv.synced);
            match rv.view.apply(&delta) {
                Ok(summary) => {
                    stats.absorb_delta(&summary);
                    rv.synced = version;
                    true
                }
                Err(_) => false,
            }
        });
        outcomes
    }

    /// Converts this session into a [`SharedSession`] — the concurrent,
    /// snapshot-isolated form served by `triq-server`. Existing
    /// maintained views carry over and appear in the first published
    /// snapshot.
    pub fn into_shared(self) -> SharedSession {
        SharedSession::new(self)
    }

    /// Drops all maintained chase state: the next execution of any
    /// prepared query re-chases from scratch. This is the explicit
    /// full-rebuild escape hatch; plain mutations no longer need it.
    pub fn invalidate(&mut self) {
        self.views
            .get_mut()
            .expect("session views poisoned")
            .clear();
        self.restored
            .get_mut()
            .expect("restored views poisoned")
            .clear();
        self.ops.base = self.ops.version();
        self.ops.ops.clear();
    }

    /// The current op-log version: the number of effective extensional
    /// operations this session has absorbed over its lifetime (the
    /// version readers of a [`SharedSession`] observe, and the version
    /// the durability layer stamps WAL records and snapshots with).
    pub fn version(&self) -> u64 {
        self.ops.version()
    }

    /// Convenience mirror of [`PreparedQuery::execute`].
    pub fn execute(&self, query: &PreparedQuery) -> Result<Answers> {
        query.execute(self)
    }

    /// The maintained outcome for `query`, building or delta-syncing its
    /// view as needed. The session-wide map lock is held only for the
    /// lookup; the (possibly long) chase or delta application runs under
    /// the plan's own entry lock.
    ///
    /// When the query carries a magic-set rewrite ([`DemandPlan`]) and no
    /// live view exists yet, the first build chases the rewritten program
    /// over the database extended with the demand seed fact instead of
    /// chasing the full program — later mutations delta-sync that view
    /// exactly like any other. Under [`DemandMode::Force`] a demand-build
    /// failure is the caller's error; under [`DemandMode::Auto`] it falls
    /// back to the full chase (counted in [`Counter::DemandFallbacks`]).
    fn outcome_for(&self, query: &PreparedQuery) -> Result<(Arc<ChaseOutcome>, SyncKind)> {
        let plan_id = query.plan_id;
        // `&self` executions can race each other, but mutations take
        // `&mut self`, so the log version is stable for this call.
        let version = self.ops.version();
        let cell: ViewCell = {
            let mut views = self.views.lock().expect("session views poisoned");
            if let Some(cell) = views.get(&plan_id) {
                cell.clone()
            } else {
                if views.len() >= MAX_CACHED_OUTCOMES {
                    views.clear();
                }
                let cell = Arc::new(Mutex::new(ViewEntry {
                    view: None,
                    synced: version,
                }));
                views.insert(plan_id, cell.clone());
                cell
            }
        };
        let mut entry = cell.lock().expect("session view poisoned");
        let synced = entry.synced;
        if let Some(view) = entry.view.as_mut() {
            if synced == version {
                return Ok((view.outcome().clone(), SyncKind::Hit));
            }
            let delta = self.ops.delta_since(synced);
            match view.apply(&delta) {
                Ok(summary) => {
                    let outcome = view.outcome().clone();
                    entry.synced = version;
                    return Ok((outcome, SyncKind::Delta(summary)));
                }
                Err(e) => {
                    // The view could not reach the target state (see
                    // `MaterializedView::apply`): discard it so the next
                    // execution rebuilds from the database instead of
                    // silently serving a stale or empty materialization.
                    entry.view = None;
                    return Err(e);
                }
            }
        }
        // No live view: before chasing from scratch, try to adopt a view
        // recovered from a persistence snapshot. Lock order is views-map →
        // entry → restored, matching every other path. A demand-built
        // view persists under the *rewritten* program's fingerprint, so
        // both plan identities are adoption candidates; `force` skips the
        // full-plan candidate because it must not serve a full-chase view.
        let mode = query.runner.config().demand;
        let plan = if mode == DemandMode::Off {
            None
        } else {
            query.demand.as_deref()
        };
        let force = mode == DemandMode::Force && plan.is_some();
        let mut candidates = Vec::new();
        if !force {
            candidates.push(query.fingerprint);
        }
        if let Some(plan) = plan {
            candidates.push(plan.fingerprint);
        }
        for fp in candidates {
            let Some(mut rv) = self
                .restored
                .lock()
                .expect("restored views poisoned")
                .remove(&fp)
            else {
                continue;
            };
            if rv.synced == version {
                let outcome = rv.view.outcome().clone();
                entry.view = Some(rv.view);
                entry.synced = version;
                return Ok((outcome, SyncKind::Hit));
            }
            if rv.synced >= self.ops.base {
                if let Ok(summary) = rv.view.apply(&self.ops.delta_since(rv.synced)) {
                    let outcome = rv.view.outcome().clone();
                    entry.view = Some(rv.view);
                    entry.synced = version;
                    return Ok((outcome, SyncKind::Delta(summary)));
                }
            }
            // The suffix it needs was pruned, or the apply failed: the
            // recovered view is discarded and the next candidate (or a
            // fresh build) takes over.
        }
        if let Some(plan) = plan {
            let mut db = self.db.clone();
            db.add_row(plan.seed.pred, &plan.seed.args);
            match MaterializedView::new(plan.runner.clone(), db) {
                Ok(view) => {
                    let outcome = view.outcome().clone();
                    let derived = outcome.stats.derived as u64;
                    let baseline = query.full_derived.load(Ordering::Relaxed);
                    if baseline > derived {
                        self.engine
                            .add(Counter::DemandAtomsSaved, baseline - derived);
                    }
                    entry.view = Some(view);
                    entry.synced = version;
                    return Ok((outcome, SyncKind::Built));
                }
                Err(e) if force => return Err(e),
                Err(_) => {
                    // Budget exhausted or the rewritten chase failed at
                    // runtime: count the fallback and serve the full plan.
                    self.engine.add(Counter::DemandFallbacks, 1);
                }
            }
        }
        let view = MaterializedView::new(query.runner.clone(), self.db.clone())?;
        let outcome = view.outcome().clone();
        query
            .full_derived
            .store(outcome.stats.derived as u64, Ordering::Relaxed);
        entry.view = Some(view);
        entry.synced = version;
        Ok((outcome, SyncKind::Built))
    }
}

/// How a session answered an execution, for the engine counters.
enum SyncKind {
    /// Unchanged data: the maintained outcome was returned as-is.
    Hit,
    /// Pending mutations were absorbed incrementally.
    Delta(triq_datalog::DeltaSummary),
    /// No view existed yet: a full chase ran.
    Built,
}

// ---------------------------------------------------------------------------
// SharedSession — concurrent snapshot-isolated reads over live views
// ---------------------------------------------------------------------------

/// An immutable, cross-plan-consistent picture of a [`SharedSession`] at
/// one op-log version.
///
/// A snapshot holds one [`ChaseOutcome`] handle per materialized plan,
/// all taken at the **same** version: executing several prepared queries
/// against one snapshot observes a single database state, even while the
/// writer keeps applying deltas behind it. Snapshots are cheap to obtain
/// (one `Arc` clone under a briefly-held read lock) and keep answering
/// for as long as they are held.
#[derive(Debug)]
pub struct SessionSnapshot {
    version: u64,
    outcomes: HashMap<u64, Arc<ChaseOutcome>>,
}

impl SessionSnapshot {
    /// The op-log version this snapshot reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of plans materialized in this snapshot.
    pub fn plans(&self) -> usize {
        self.outcomes.len()
    }

    /// Executes a prepared query against this snapshot, lock-free.
    /// Returns `None` when the plan is not materialized here — use
    /// [`SharedSession::execute`] to build it (that takes the writer
    /// lock once; every later snapshot then contains the plan).
    pub fn try_execute(&self, query: &PreparedQuery) -> Option<Answers> {
        self.outcomes
            .get(&query.plan_id)
            .map(|o| Answers::from_chase(o, query.output))
    }

    /// Like [`SessionSnapshot::try_execute`], but decoding into SPARQL
    /// mappings (`Err` for Datalog-origin plans, which have no variable
    /// decoding; `None` when the plan is not materialized here).
    pub fn try_mappings(&self, query: &PreparedQuery) -> Option<Result<RegimeAnswers>> {
        self.outcomes
            .get(&query.plan_id)
            .map(|o| query.mappings_from_outcome(o.clone()))
    }
}

/// What [`SharedSession::apply`] did: the published version and how many
/// facts actually changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppliedDelta {
    /// The op-log version readers observe from now on.
    pub version: u64,
    /// Facts inserted (redundant inserts excluded).
    pub inserted: usize,
    /// Facts deleted (absent deletes excluded).
    pub deleted: usize,
}

#[derive(Debug)]
struct SharedInner {
    engine: Engine,
    /// The single-writer lock: mutations and first-time plan
    /// materializations serialize here. Readers never take it.
    writer: Mutex<Session>,
    /// The published snapshot. The write guard is held only for the
    /// pointer swap (and read guards only for an `Arc` clone), so no
    /// reader is ever blocked for the duration of a chase or delta
    /// application.
    published: RwLock<Arc<SessionSnapshot>>,
}

/// A [`Session`] shared between N concurrent readers and one logical
/// writer, with **snapshot isolation**: readers execute against
/// immutable, atomically-published fixpoint snapshots and are never
/// blocked by an in-flight mutation.
///
/// The concurrency contract:
///
/// * **Readers** ([`SharedSession::execute`], [`SharedSession::snapshot`])
///   clone the current [`SessionSnapshot`] handle — a read lock held for
///   one `Arc` clone — and answer from it without further coordination.
///   A plan's first execution is the one read that takes the writer lock
///   (the fixpoint must be chased once before it can be snapshotted).
/// * **The writer** ([`SharedSession::apply`]) takes the writer lock,
///   folds the delta into the base data, brings every maintained view to
///   the new fixpoint incrementally (delta-chase inserts, DRed deletes —
///   the `triq_datalog::incremental` machinery), and only then swaps the
///   new snapshot in. Readers racing the apply keep the old snapshot;
///   readers arriving after the swap see the new one; nobody observes a
///   half-applied delta.
/// * Snapshots are **cross-plan consistent**: all outcomes in one
///   snapshot reflect the same op-log version.
///
/// Cloning a `SharedSession` is an `Arc` bump; clones share everything.
/// This type is the in-process core of `triq-server`'s query service —
/// see the "Serving layer" section of `docs/ARCHITECTURE.md`.
///
/// ```
/// use std::sync::Arc;
/// use triq::prelude::*;
///
/// let engine = Engine::new();
/// let q = engine.prepare(Datalog(
///     "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
///      t(?X, ?Y) -> out(?X, ?Y).",
///     "out",
/// ))?;
/// let mut session = engine.session();
/// session.add_fact("e", &["a", "b"]);
/// let shared = session.into_shared();
///
/// // Reader threads execute lock-free against published snapshots…
/// assert_eq!(shared.execute(&q)?.len(), 1);
/// // …while the writer applies deltas and republishes atomically.
/// shared.apply(&Delta::new().insert("e", &["b", "c"]));
/// assert!(shared.execute(&q)?.contains(&["a", "c"]));
/// # Ok::<(), TriqError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SharedSession {
    inner: Arc<SharedInner>,
}

impl SharedSession {
    /// Wraps a session for concurrent use. Views the session already
    /// maintains are synced and appear in the first published snapshot.
    pub fn new(mut session: Session) -> SharedSession {
        let outcomes = session.sync_all_views();
        let version = session.ops.version();
        SharedSession {
            inner: Arc::new(SharedInner {
                engine: session.engine.clone(),
                published: RwLock::new(Arc::new(SessionSnapshot { version, outcomes })),
                writer: Mutex::new(session),
            }),
        }
    }

    /// The engine this shared session belongs to.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The currently published snapshot (cheap: one `Arc` clone under a
    /// momentary read lock). Hold it to run several queries against one
    /// consistent database state.
    pub fn snapshot(&self) -> Arc<SessionSnapshot> {
        self.inner
            .published
            .read()
            .expect("published snapshot poisoned")
            .clone()
    }

    /// The op-log version readers currently observe.
    pub fn version(&self) -> u64 {
        self.snapshot().version
    }

    /// Executes a prepared query: lock-free against the published
    /// snapshot when the plan is already materialized, else the plan is
    /// chased once under the writer lock and published for every later
    /// reader.
    pub fn execute(&self, query: &PreparedQuery) -> Result<Answers> {
        self.execute_versioned(query).map(|(a, _)| a)
    }

    /// Like [`SharedSession::execute`], also returning the op-log
    /// version the answers reflect — the version and the rows come from
    /// the **same** snapshot, so callers (e.g. the server's JSON answer
    /// writer) can expose them together without racing a concurrent
    /// apply.
    pub fn execute_versioned(&self, query: &PreparedQuery) -> Result<(Answers, u64)> {
        let (outcome, version) = self.outcome(query)?;
        Ok((Answers::from_chase(&outcome, query.output), version))
    }

    /// Executes and decodes into SPARQL mappings (`Err` with `E-OTHER`
    /// for Datalog-origin plans). Same locking profile as
    /// [`SharedSession::execute`].
    pub fn mappings(&self, query: &PreparedQuery) -> Result<RegimeAnswers> {
        self.mappings_versioned(query).map(|(m, _)| m)
    }

    /// Like [`SharedSession::mappings`], also returning the op-log
    /// version the mappings reflect (see
    /// [`SharedSession::execute_versioned`]).
    pub fn mappings_versioned(&self, query: &PreparedQuery) -> Result<(RegimeAnswers, u64)> {
        let (outcome, version) = self.outcome(query)?;
        Ok((query.mappings_from_outcome(outcome)?, version))
    }

    /// The snapshot outcome for `query` (with the version it belongs
    /// to), materializing it on first use.
    fn outcome(&self, query: &PreparedQuery) -> Result<(Arc<ChaseOutcome>, u64)> {
        let snap = self.snapshot();
        if let Some(outcome) = snap.outcomes.get(&query.plan_id) {
            self.inner.engine.add(Counter::Executions, 1);
            self.inner.engine.add(Counter::CacheHits, 1);
            return Ok((outcome.clone(), snap.version));
        }
        self.materialize(query)
    }

    /// Slow path: chase the plan under the writer lock, then republish
    /// the snapshot map extended with it (same version — the data did
    /// not change). Publications all happen under the writer lock, so
    /// concurrent first-executions of different plans cannot lose each
    /// other's entries.
    fn materialize(&self, query: &PreparedQuery) -> Result<(Arc<ChaseOutcome>, u64)> {
        let session = self.inner.writer.lock().expect("writer session poisoned");
        let current = self.snapshot();
        // Double-check: the plan may have been published while this
        // thread waited on the writer lock.
        if let Some(outcome) = current.outcomes.get(&query.plan_id) {
            return Ok((outcome.clone(), current.version));
        }
        let outcome = query.outcome(&session)?;
        let mut outcomes = current.outcomes.clone();
        outcomes.insert(query.plan_id, outcome.clone());
        let next = Arc::new(SessionSnapshot {
            version: current.version,
            outcomes,
        });
        *self
            .inner
            .published
            .write()
            .expect("published snapshot poisoned") = next;
        Ok((outcome, current.version))
    }

    /// Runs `f` against the writer session under the writer lock — the
    /// persistence layer uses this to encode a checkpoint of the exact
    /// current state. While `f` runs the write path is stalled (readers
    /// are unaffected: they answer from the published snapshot). Do not
    /// call while already holding the lock.
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut Session) -> R) -> R {
        let mut session = self.inner.writer.lock().expect("writer session poisoned");
        f(&mut session)
    }

    /// Applies a mutation batch: folds the delta into the base data,
    /// brings every maintained view to the new fixpoint incrementally,
    /// and atomically publishes the new snapshot. Readers are never
    /// blocked while this runs — they keep the previous snapshot until
    /// the final pointer swap.
    ///
    /// A view whose incremental application fails (resource budget) is
    /// dropped from the snapshot and rebuilt on its next execution; the
    /// apply itself does not fail for it.
    pub fn apply(&self, delta: &Delta) -> AppliedDelta {
        let mut session = self.inner.writer.lock().expect("writer session poisoned");
        let rec = session.engine.inner.recorder.clone();
        let _span = triq_obs::span(
            &*rec,
            "apply_delta",
            (delta.inserts.len() + delta.deletes.len()) as u64,
        );
        let _t = Timer::start(&*rec, Phase::ApplyDelta);
        let (inserted, deleted) = session.apply_delta(delta);
        let outcomes = session.sync_all_views();
        let version = session.ops.version();
        *self
            .inner
            .published
            .write()
            .expect("published snapshot poisoned") =
            Arc::new(SessionSnapshot { version, outcomes });
        AppliedDelta {
            version,
            inserted,
            deleted,
        }
    }
}

// ---------------------------------------------------------------------------
// PreparedQuery
// ---------------------------------------------------------------------------

/// Decoding info for SPARQL-origin queries: the answer-tuple argument
/// order and the semantics the pattern was compiled for.
#[derive(Clone, Debug)]
struct SparqlDecode {
    vars: Vec<VarId>,
    semantics: Semantics,
}

/// A query that has been parsed, translated, classified, stratified and
/// rule-compiled once, ready to execute against any [`Session`].
///
/// Cloning copies the compiled plan without re-preparing it; the clone
/// keeps the same cache identity until [`PreparedQuery::with_config`]
/// assigns a new one.
#[derive(Clone)]
pub struct PreparedQuery {
    engine: Engine,
    plan_id: u64,
    /// Durable plan identity (program text + chase config), stable
    /// across restarts — see `triq_datalog::persist::plan_fingerprint`.
    fingerprint: u64,
    runner: ChaseRunner,
    output: Symbol,
    classification: ProgramClassification,
    decode: Option<SparqlDecode>,
    /// The magic-set rewrite, when one exists for this plan (see
    /// [`Engine::attach_demand`]); `None` means executions always chase
    /// the original program.
    demand: Option<Arc<DemandPlan>>,
    /// Atoms the most recent *full* chase of this plan derived — the
    /// baseline for [`Counter::DemandAtomsSaved`]. Shared by clones;
    /// reset by [`PreparedQuery::with_config`] (a config change can
    /// change the count). `0` = no baseline yet.
    full_derived: Arc<AtomicU64>,
}

impl PreparedQuery {
    /// The compiled program (libraries included).
    pub fn program(&self) -> &Program {
        self.runner.program()
    }

    /// The output predicate.
    pub fn output(&self) -> Symbol {
        self.output
    }

    /// The language-classification report computed at prepare time.
    pub fn classification(&self) -> &ProgramClassification {
        &self.classification
    }

    /// The semantics this query was compiled for (`None` for raw Datalog
    /// queries, which have no SPARQL decoding).
    pub fn semantics(&self) -> Option<Semantics> {
        self.decode.as_ref().map(|d| d.semantics)
    }

    /// The chase configuration executions use.
    pub fn config(&self) -> ChaseConfig {
        self.runner.config()
    }

    /// Returns a variant with a different chase configuration. The
    /// compiled rules and stratification are reused; a new cache identity
    /// is assigned only when the configuration actually changes (a config
    /// change can change results).
    pub fn with_config(mut self, config: ChaseConfig) -> PreparedQuery {
        if self.runner.config() != config {
            self.runner.set_config(config);
            self.plan_id = NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed);
            self.fingerprint = triq_datalog::persist::plan_fingerprint(
                self.runner.program(),
                &self.runner.config(),
            );
            // The demand rewrite depends on the config (mode, budgets),
            // and the saved-atoms baseline on the full chase it ran
            // under — recompute both for the new identity.
            self.demand = self.engine.attach_demand(&self.runner, self.output);
            self.full_derived = Arc::new(AtomicU64::new(0));
        }
        self
    }

    /// The durable plan fingerprint: a hash of the compiled program's
    /// canonical text and the chase configuration. Unlike the in-process
    /// cache identity, it is stable across restarts — persistence
    /// snapshots use it to match recovered views to re-prepared queries.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether a magic-set rewrite is attached: executions without a
    /// usable cached view will chase the demand-rewritten program instead
    /// of the full one (unless the mode is [`DemandMode::Off`]).
    pub fn uses_demand(&self) -> bool {
        self.runner.config().demand != DemandMode::Off && self.demand.is_some()
    }

    /// The durable fingerprint of the demand-rewritten plan, when one is
    /// attached. Distinct queries over the same rules but different bound
    /// constants get distinct fingerprints (the constants appear in the
    /// rewritten program's seed rules), so persisted demand views can
    /// never be adopted by the wrong query.
    pub fn demand_fingerprint(&self) -> Option<u64> {
        self.demand.as_ref().map(|p| p.fingerprint)
    }

    /// The chase outcome for this query over `session` — served from
    /// the session's maintained view: a lookup when nothing changed, an
    /// incremental delta application when mutations are pending, and a
    /// full chase only the first time (or after `invalidate()`).
    fn outcome(&self, session: &Session) -> Result<Arc<ChaseOutcome>> {
        let stats = &self.engine.inner.stats;
        stats.add(Counter::Executions, 1);
        let rec = &*self.engine.inner.recorder;
        let _span = triq_obs::span(rec, "execute", self.plan_id);
        let _t = Timer::start(rec, Phase::Execute);
        let (outcome, sync) = session.outcome_for(self)?;
        match sync {
            SyncKind::Hit => {
                stats.add(Counter::CacheHits, 1);
            }
            SyncKind::Delta(summary) => stats.absorb_delta(&summary),
            SyncKind::Built => stats.absorb_built(&outcome.stats),
        }
        Ok(outcome)
    }

    /// Executes, materializing the answers (§3.2's `Q(D)`).
    pub fn execute(&self, session: &Session) -> Result<Answers> {
        let outcome = self.outcome(session)?;
        Ok(Answers::from_chase(&outcome, self.output))
    }

    /// Executes, streaming the answer tuples without materializing a set.
    /// Check [`AnswerIter::is_top`] before interpreting emptiness.
    pub fn execute_iter(&self, session: &Session) -> Result<AnswerIter> {
        let outcome = self.outcome(session)?;
        Ok(AnswerIter::new(outcome, self.output))
    }

    /// The SPARQL variable names answers decode into, in answer-tuple
    /// argument order (`None` for Datalog-origin plans, which have no
    /// variable decoding). The server's JSON answer writer uses this as
    /// the `vars` header.
    pub fn var_names(&self) -> Option<Vec<&'static str>> {
        self.decode
            .as_ref()
            .map(|d| d.vars.iter().map(|v| v.name()).collect())
    }

    /// The decoded variables themselves, in the same order as
    /// [`PreparedQuery::var_names`] (`None` for Datalog-origin plans).
    pub fn vars(&self) -> Option<&[VarId]> {
        self.decode.as_ref().map(|d| d.vars.as_slice())
    }

    /// Executes and decodes into SPARQL mappings (`µ_{t,P}` of §5.1).
    /// Errors with `E-OTHER` for raw Datalog queries, which have no
    /// variable decoding.
    pub fn mappings(&self, session: &Session) -> Result<RegimeAnswers> {
        let outcome = self.outcome(session)?;
        self.mappings_from_outcome(outcome)
    }

    /// Decodes a chase outcome (a session- or snapshot-served fixpoint)
    /// into SPARQL mappings.
    fn mappings_from_outcome(&self, outcome: Arc<ChaseOutcome>) -> Result<RegimeAnswers> {
        let decode = self.decode.as_ref().ok_or_else(|| {
            TriqError::Other(
                "prepared query has no SPARQL variable decoding (it was built \
                 from a Datalog program); use execute() instead"
                    .into(),
            )
        })?;
        let mut iter = AnswerIter::new(outcome, self.output);
        if iter.is_top() {
            return Ok(RegimeAnswers::Top);
        }
        let mut out = MappingSet::new();
        for tuple in &mut iter {
            out.insert(decode_tuple_vars(&tuple, &decode.vars));
        }
        Ok(RegimeAnswers::Mappings(out))
    }

    /// Convenience: the sorted, deduplicated bindings of one variable
    /// (SPARQL-origin queries only).
    ///
    /// When the session data is inconsistent with the ontology semantics
    /// (`Q(D) = ⊤`, where *every* mapping is an answer), this returns an
    /// error rather than an empty list — a flat binding list cannot
    /// represent ⊤. Use [`PreparedQuery::mappings`] to handle ⊤
    /// explicitly.
    pub fn bindings_of(&self, session: &Session, var: &str) -> Result<Vec<Symbol>> {
        let v = VarId::new(var);
        match self.mappings(session)? {
            RegimeAnswers::Top => Err(TriqError::Other(
                "the session data is inconsistent with the ontology \
                 semantics (Q(D) = ⊤): every binding is an answer; use \
                 mappings() to handle ⊤"
                    .into(),
            )),
            RegimeAnswers::Mappings(ms) => {
                let mut out: Vec<Symbol> = ms.iter().filter_map(|m| m.get(v)).collect();
                out.sort();
                out.dedup();
                Ok(out)
            }
        }
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("plan_id", &self.plan_id)
            .field("output", &self.output)
            .field("rules", &self.runner.program().rules.len())
            .field("semantics", &self.semantics())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triq_rdf::parse_turtle;
    use triq_sparql::parse_pattern;

    fn g2() -> Graph {
        parse_turtle(
            "dbUllman is_author_of \"The Complete Book\" .\n\
             dbUllman name \"Jeffrey Ullman\" .\n\
             dbAho is_coauthor_of dbUllman .\n\
             dbAho name \"Alfred Aho\" .",
        )
        .unwrap()
    }

    #[test]
    fn sparql_text_roundtrip() {
        let engine = Engine::new();
        let q = engine
            .prepare(Sparql(
                "SELECT ?X WHERE { ?Y is_author_of ?Z . ?Y name ?X }",
            ))
            .unwrap();
        let session = engine.load_graph(g2());
        let names = q.bindings_of(&session, "X").unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), "Jeffrey Ullman");
    }

    #[test]
    fn one_prepared_query_many_sessions() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("triple(?Y, name, ?X) -> query(?X).", "query"))
            .unwrap();
        let s1 = engine.load_graph(g2());
        let s2 = engine
            .load_turtle("someone name \"Somebody Else\" .")
            .unwrap();
        let s3 = engine.session();
        assert_eq!(q.execute(&s1).unwrap().len(), 2);
        assert!(q.execute(&s2).unwrap().contains(&["Somebody Else"]));
        assert!(q.execute(&s3).unwrap().is_empty());
    }

    #[test]
    fn session_cache_hits_and_incremental_mutation() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("triple(?Y, name, ?X) -> q(?X).", "q"))
            .unwrap();
        let mut session = engine.load_graph(g2());
        assert_eq!(q.execute(&session).unwrap().len(), 2);
        let after_first = engine.stats();
        assert_eq!(q.execute(&session).unwrap().len(), 2);
        let after_second = engine.stats();
        assert_eq!(after_second.chase_runs, after_first.chase_runs);
        assert_eq!(after_second.cache_hits, after_first.cache_hits + 1);
        // Mutations are absorbed incrementally — no full re-chase.
        session.insert_triple("x", "name", "X New");
        assert_eq!(q.execute(&session).unwrap().len(), 3);
        let after_third = engine.stats();
        assert_eq!(after_third.chase_runs, after_first.chase_runs);
        assert_eq!(after_third.deltas_applied, after_first.deltas_applied + 1);
        // Removal too (DRed): the derived answer disappears.
        assert!(session.remove_triple("x", "name", "X New"));
        assert_eq!(q.execute(&session).unwrap().len(), 2);
        assert_eq!(engine.stats().chase_runs, after_first.chase_runs);
        // invalidate() stays the explicit full-rebuild escape hatch.
        session.invalidate();
        assert_eq!(q.execute(&session).unwrap().len(), 2);
        assert_eq!(engine.stats().chase_runs, after_first.chase_runs + 1);
    }

    #[test]
    fn batched_mutations_net_into_one_delta() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("p(?X, ?Y) -> out(?X).", "out"))
            .unwrap();
        let mut session = engine.session();
        session.add_fact("p", &["a", "b"]);
        assert_eq!(q.execute(&session).unwrap().len(), 1);
        let runs = engine.stats().chase_runs;
        // Insert-then-remove between executions nets to nothing…
        session.add_fact("p", &["c", "d"]);
        assert!(session.remove_fact("p", &["c", "d"]));
        // …and several surviving ops arrive as one delta.
        session.add_fact("p", &["e", "f"]);
        session.add_fact("p", &["g", "h"]);
        let answers = q.execute(&session).unwrap();
        assert_eq!(answers.len(), 3);
        assert!(!answers.contains(&["c"]));
        let stats = engine.stats();
        assert_eq!(stats.chase_runs, runs, "no full re-chase");
        assert_eq!(stats.deltas_applied, 1, "one netted delta");
        // Removing a never-present fact is a no-op.
        assert!(!session.remove_fact("p", &["zz", "zz"]));
    }

    #[test]
    fn idle_views_are_evicted_to_bound_the_op_log() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog("p(?X) -> out(?X).", "out")).unwrap();
        let mut session = engine.session();
        session.add_fact("p", &["seed"]);
        assert_eq!(q.execute(&session).unwrap().len(), 1);
        let runs = engine.stats().chase_runs;
        // Thousands of mutations with the view idle: the log must stay
        // bounded (the far-behind view is evicted, not fed forever).
        for i in 0..5000 {
            session.add_fact("p", &[&format!("x{i}")]);
        }
        assert!(
            session.ops.ops.len() <= MAX_PENDING_OPS,
            "op log must stay bounded, got {}",
            session.ops.ops.len()
        );
        // The evicted view rebuilds on its next execution, correctly.
        assert_eq!(q.execute(&session).unwrap().len(), 5001);
        assert_eq!(engine.stats().chase_runs, runs + 1);
    }

    #[test]
    fn prepared_queries_follow_the_maintained_view() {
        // Recursive rules + negation through the facade, mutated live.
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog(
                "e(?X, ?Y) -> t(?X, ?Y).\n\
                 e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                 t(?X, ?Y) -> out(?X, ?Y).",
                "out",
            ))
            .unwrap();
        let mut session = engine.session();
        session.add_fact("e", &["a", "b"]);
        session.add_fact("e", &["b", "c"]);
        assert_eq!(q.execute(&session).unwrap().len(), 3);
        session.add_fact("e", &["c", "d"]);
        let answers = q.execute(&session).unwrap();
        assert_eq!(answers.len(), 6);
        assert!(answers.contains(&["a", "d"]));
        session.remove_fact("e", &["b", "c"]);
        let answers = q.execute(&session).unwrap();
        assert_eq!(answers.len(), 2);
        assert!(!answers.contains(&["a", "d"]));
        // The maintained view must agree with a fresh session.
        let fresh = engine.load_database(session.database().clone());
        assert_eq!(q.execute(&fresh).unwrap(), q.execute(&session).unwrap());
    }

    #[test]
    fn streaming_matches_materialized() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("triple(?X, ?P, ?Y) -> pair(?X, ?Y).", "pair"))
            .unwrap();
        let session = engine.load_graph(g2());
        let materialized = q.execute(&session).unwrap();
        let mut streamed: Vec<Vec<Symbol>> = q.execute_iter(&session).unwrap().collect();
        streamed.sort();
        let expected: Vec<Vec<Symbol>> = materialized.tuples().iter().cloned().collect();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn semantics_selection_and_default() {
        let engine = Engine::builder()
            .default_semantics(Semantics::RegimeAll)
            .build();
        let pattern = parse_pattern("{ ?X eats _:B }").unwrap();
        let q_default = engine.prepare(&pattern).unwrap();
        assert_eq!(q_default.semantics(), Some(Semantics::RegimeAll));
        let q_pinned = engine.prepare((&pattern, Semantics::Plain)).unwrap();
        assert_eq!(q_pinned.semantics(), Some(Semantics::Plain));
    }

    #[test]
    fn output_in_body_is_rejected_with_code() {
        let engine = Engine::new();
        let err = engine.prepare(Datalog("q(?X) -> r(?X).", "q")).unwrap_err();
        assert_eq!(err.code(), "E-OUTPUT-IN-BODY");
    }

    #[test]
    fn bindings_of_errors_on_inconsistent_graph() {
        let engine = Engine::new();
        let session = engine
            .load_turtle(
                "cat owl:disjointWith dog .\n\
                 cat rdf:type owl:Class .\n\
                 dog rdf:type owl:Class .\n\
                 felix rdf:type cat .\n\
                 felix rdf:type dog .",
            )
            .unwrap();
        let q = engine
            .prepare((
                parse_pattern("{ ?X rdf:type cat }").unwrap(),
                Semantics::RegimeU,
            ))
            .unwrap();
        // mappings() reports ⊤ explicitly…
        assert!(q.mappings(&session).unwrap().is_top());
        // …while the flat binding list refuses to flatten it away.
        assert!(q.bindings_of(&session, "X").is_err());
    }

    #[test]
    fn with_config_keeps_identity_when_unchanged() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("triple(?X, ?P, ?Y) -> out(?X).", "out"))
            .unwrap();
        let session = engine.load_turtle("a p b .").unwrap();
        let same = q.clone().with_config(q.config());
        q.execute(&session).unwrap();
        let runs_before = engine.stats().chase_runs;
        // Same config → same cache identity → cache hit, no extra chase.
        same.execute(&session).unwrap();
        assert_eq!(engine.stats().chase_runs, runs_before);
        // A different config is a different plan and re-runs the chase.
        let deeper = q.clone().with_config(ChaseConfig {
            max_null_depth: 9,
            ..q.config()
        });
        deeper.execute(&session).unwrap();
        assert_eq!(engine.stats().chase_runs, runs_before + 1);
    }

    #[test]
    fn mappings_on_datalog_query_errors() {
        let engine = Engine::new();
        let q = engine
            .prepare(Datalog("triple(?X, ?P, ?Y) -> out(?X).", "out"))
            .unwrap();
        let session = engine.session();
        assert!(q.mappings(&session).is_err());
    }

    #[test]
    fn libraries_are_unioned_at_prepare_time() {
        let engine = Engine::builder()
            .library(crate::same_as_regime_library())
            .build();
        let pattern = parse_pattern("{ ?Y is_author_of ?Z . ?Y name ?X }").unwrap();
        let q = engine.prepare((pattern, Semantics::RegimeU)).unwrap();
        let session = engine
            .load_turtle(
                "dbUllman is_author_of \"The Complete Book\" .\n\
             dbUllman owl:sameAs yagoUllman .\n\
             yagoUllman name \"Jeffrey Ullman\" .",
            )
            .unwrap();
        let names = q.bindings_of(&session, "X").unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), "Jeffrey Ullman");
    }
}
