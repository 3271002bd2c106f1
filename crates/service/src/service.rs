//! The multi-circuit batch front-end.
//!
//! [`SerService`] is the ROADMAP's "heavy traffic" loop made concrete:
//! compiled [`AnalysisSession`]s are kept warm in a bounded LRU keyed
//! by [`Circuit::structural_hash`], and every request — sweep, site,
//! multi-cycle, Monte-Carlo — is a job of [`SerService::submit_batch`].
//! A batch's jobs run through one cursor over scoped workers, and
//! every computing thread of the daemon holds one permit of a single
//! counting gate sized by [`SerServiceConfig::threads`]. A sweep runs
//! on `ser-epp`'s own scheduler, with the permits that are free as
//! extra workers.
//!
//! The service exists because the session layer became *owned*: an
//! `Arc<AnalysisSession>` is `Send + Sync + 'static`, so it can sit in
//! a cache and be handed to any number of concurrent requests — none
//! of which the old `AnalysisSession<'circuit>` could do.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ser_epp::{
    multi_cycle_monte_carlo, multi_cycle_monte_carlo_sequential_cancellable, AnalysisSession, Edit,
    MultiCycleMcAbort, MultiCycleMcEstimate, PolarityMode, SweepResults, WhatIfAbort,
    WhatIfOutcome, WhatIfSession, SINGLE_THREAD_SWEEP_THRESHOLD,
};
use ser_netlist::{CancelToken, Circuit, NodeId, PlanCache};
use ser_sim::{MonteCarlo, SequentialMonteCarlo};
use ser_sp::{InputProbs, SpVector};

use crate::request::{
    MultiCycleRequest, Request, Response, ResponseMeta, ResponsePayload, ServiceError, SiteRequest,
};
use crate::sync::{lock_clean, InflightGate};

/// Tuning knobs of a [`SerService`].
#[derive(Debug, Clone)]
pub struct SerServiceConfig {
    /// Warm sessions kept in the LRU; the least-recently-used session
    /// is evicted when a new circuit arrives at capacity. Must be ≥ 1.
    pub max_sessions: usize,
    /// Compute threads, daemon-wide: across every caller of
    /// [`SerService::submit_batch`], at most this many threads compute
    /// at once. A job waits for one permit; a sweep then takes the
    /// permits that are free as extra workers. Must be ≥ 1.
    pub threads: usize,
    /// Whole-circuit sweep responses kept in the cross-request cache
    /// (LRU, keyed by `(netlist hash, inputs revision, polarity)`).
    /// `0` disables response caching.
    pub max_sweep_responses: usize,
    /// Directory of the persistent compile-artifact cache
    /// ([`PlanCache`]). When set, session compilation first tries the
    /// cached cone plans for the circuit's structural hash (skipping
    /// plan compilation entirely on a hit) and persists freshly built
    /// plans on a miss — so a restarted or newly spawned replica pays
    /// cold plan compile at most once per circuit, ever. `None`
    /// disables persistence.
    pub plan_cache_dir: Option<PathBuf>,
    /// Byte budget for the persistent plan cache directory. When set,
    /// every store evicts least-recently-used `.serplan` entries
    /// (oldest mtime first; loads re-date their entry) until the
    /// directory fits — so a long-lived fleet's cache disk stays
    /// bounded. `None` (the default) leaves the directory unbounded.
    /// Ignored when `plan_cache_dir` is `None`.
    pub plan_cache_max_bytes: Option<u64>,
    /// Largest Monte-Carlo vector count one request may ask for
    /// (fixed-count or sequential-rule cap alike). Requests over the
    /// ceiling are rejected with [`ServiceError::CapExceeded`] *before*
    /// the request computes anything, so one greedy client cannot pin a
    /// thread for hours. Must be ≥ 1.
    pub max_vectors: u64,
    /// Largest multi-cycle frame-expansion depth one request may ask
    /// for. Same up-front rejection discipline. Must be ≥ 1.
    pub max_cycles: usize,
    /// Largest multi-cycle simulation run count one request may ask
    /// for. Same up-front rejection discipline. Must be ≥ 1.
    pub max_runs: u64,
    /// What-if sessions kept warm, one per base netlist (LRU, keyed by
    /// [`Circuit::structural_hash`]). Each holds the edit stack and the
    /// dense base sweep that make incremental re-analysis cheap. Must
    /// be ≥ 1.
    pub max_whatif_sessions: usize,
}

impl Default for SerServiceConfig {
    fn default() -> Self {
        SerServiceConfig {
            max_sessions: 8,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            max_sweep_responses: 32,
            plan_cache_dir: None,
            plan_cache_max_bytes: None,
            // Permissive but finite: far above anything the benches or
            // the paper's experiments ask for, low enough that a typo'd
            // `1e18` cannot wedge a worker.
            max_vectors: 1_000_000_000,
            max_cycles: 4_096,
            max_runs: 1_000_000_000,
            max_whatif_sessions: 4,
        }
    }
}

/// Counters the service keeps (monotonic over its lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests that found a warm session in the cache.
    pub session_hits: u64,
    /// Requests that had to compile a session.
    pub session_misses: u64,
    /// Sessions evicted to make room.
    pub evictions: u64,
    /// Sessions currently cached.
    pub sessions_cached: usize,
    /// Whole-circuit sweep requests served straight from the
    /// cross-request response cache (no kernel run at all).
    pub sweep_cache_hits: u64,
    /// Cacheable sweep requests that had to run (and then populated
    /// the cache).
    pub sweep_cache_misses: u64,
    /// Sweep responses currently cached.
    pub sweep_responses_cached: usize,
    /// `site` requests answered from a current cached whole-circuit
    /// sweep (no kernel run). These lookups never count
    /// as sweep-cache hits or misses.
    pub site_cache_hits: u64,
    /// Session compiles whose cone plans were loaded from the
    /// persistent artifact cache (plan compilation skipped).
    pub plan_cache_hits: u64,
    /// Session compiles that built plans fresh while a persistent
    /// cache was configured (the entry was absent, stale or invalid;
    /// the built plans were persisted for next time).
    pub plan_cache_misses: u64,
    /// Persistent-cache entries evicted by the byte cap
    /// ([`SerServiceConfig::plan_cache_max_bytes`]) across every store
    /// this service performed. Always 0 on an unbounded cache.
    pub plan_cache_evictions: u64,
    /// What-if sessions currently warm (one per base netlist).
    pub whatif_sessions_cached: usize,
    /// Requests aborted at a cooperative checkpoint — an explicit
    /// cancel or an expired deadline. Partial work was dropped; no
    /// cache was populated from a cancelled request.
    pub requests_cancelled: u64,
    /// Connections the TCP front door reaped for idling past the
    /// configured idle timeout (see
    /// [`TcpTransport::with_idle_timeout`](crate::TcpTransport::with_idle_timeout)).
    pub idle_reaped: u64,
}

struct CacheEntry {
    session: Arc<AnalysisSession>,
    last_used: u64,
}

struct SessionCache {
    entries: HashMap<u64, CacheEntry>,
    /// Logical clock for LRU recency.
    tick: u64,
}

/// Cross-request sweep-response cache key: `(netlist hash, polarity)`.
/// The *inputs* dimension is not part of the key — every entry pins
/// the exact `Arc<SpVector>` its sweep was computed under, and lookups
/// require pointer identity with the resolved session's current SP
/// vector. That is what makes invalidation airtight: session revision
/// numbers are per-clone counters that diverged clones (or an
/// evict-recompile cycle) can collide on, but an SP *allocation* is
/// unique per distribution for as long as anything references it —
/// and the entry itself keeps it alive, so pointer reuse is
/// impossible. [`SerService::set_inputs`] additionally purges the
/// hash's entries so stale arenas don't linger until overwritten.
type SweepKey = (u64, PolarityMode);

struct SweepCacheEntry {
    /// The SP vector the cached sweep was computed under (identity is
    /// the validity check — see [`SweepKey`]).
    sp: Arc<SpVector>,
    results: Arc<SweepResults>,
    last_used: u64,
}

/// Evicts the least-recently-used entry when `entries` sits at
/// `capacity` and does not already contain `key`. Shared by the
/// session cache, the sweep-response cache, `set_inputs` and the
/// protocol engine's netlist cache — one eviction policy, written
/// once. Returns whether an entry was evicted.
pub(crate) fn evict_lru_at_capacity<K: std::hash::Hash + Eq + Clone, V>(
    entries: &mut HashMap<K, V>,
    key: &K,
    capacity: usize,
    last_used: impl Fn(&V) -> u64,
) -> bool {
    if entries.contains_key(key) || entries.len() < capacity {
        return false;
    }
    let lru = entries
        .iter()
        .min_by_key(|(_, e)| last_used(e))
        .map(|(k, _)| k.clone());
    match lru {
        Some(lru) => {
            entries.remove(&lru);
            true
        }
        // Capacity 0 with an empty map: there is nothing to evict and
        // nothing to make room for — inserting is the caller's call.
        None => false,
    }
}

struct SweepCache {
    entries: HashMap<SweepKey, SweepCacheEntry>,
    tick: u64,
}

/// One warm what-if session per base netlist. The entry is an
/// `Arc<Mutex<…>>` so the edit/revert critical section is **per
/// netlist**: a long re-sweep of one circuit's what-if stack never
/// blocks edits against another circuit (the outer map lock is held
/// only for the lookup).
struct WhatIfEntry {
    /// The *base* (unedited) circuit the stack grew from — the
    /// collision guard, exactly like the session cache's `same_circuit`
    /// check: a hash-colliding different netlist must never be handed
    /// another circuit's edit stack.
    base: Arc<Circuit>,
    session: Arc<Mutex<WhatIfSession>>,
    last_used: u64,
}

struct WhatIfCache {
    entries: HashMap<u64, WhatIfEntry>,
    tick: u64,
}

impl std::fmt::Debug for WhatIfCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WhatIfCache")
            .field("sessions", &self.entries.len())
            .finish()
    }
}

/// The multi-circuit SER service: warm sessions in a bounded LRU, and
/// every request computed under one daemon-wide thread bound.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ser_netlist::parse_bench;
/// use ser_service::{Request, SerService, SweepRequest};
///
/// let c: Arc<_> = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?.into();
/// let service = SerService::with_defaults();
/// let response = service.submit(&c, Request::Sweep(SweepRequest::default()))?;
/// let sweep = response.as_sweep().unwrap();
/// assert_eq!(sweep.len(), c.len());
/// assert!(!response.meta.warm_session, "first request compiles");
/// // Same netlist again: served from the warm cache.
/// let again = service.submit(&c, Request::Sweep(SweepRequest::default()))?;
/// assert!(again.meta.warm_session);
/// assert_eq!(again.as_sweep().unwrap(), sweep);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SerService {
    config: SerServiceConfig,
    /// One permit per computing thread ([`SerServiceConfig::threads`]).
    permits: InflightGate,
    cache: Mutex<SessionCache>,
    sweep_cache: Mutex<SweepCache>,
    /// Last `set_inputs` distribution per netlist hash — consulted when
    /// a session is (re)compiled, so eviction cannot silently revert a
    /// circuit to default inputs.
    inputs_overrides: Mutex<HashMap<u64, InputProbs>>,
    /// Persistent compile-artifact cache (`None` when not configured).
    plan_cache: Option<PlanCache>,
    /// Warm what-if sessions, one per base netlist hash.
    whatif: Mutex<WhatIfCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    sweep_hits: AtomicU64,
    sweep_misses: AtomicU64,
    site_hits: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_evictions: AtomicU64,
    cancelled: AtomicU64,
    /// Shared with the TCP transport's per-connection line streams —
    /// they bump it when an idle connection is reaped, the service
    /// only reads it for [`stats`](Self::stats).
    idle_reaped: Arc<AtomicU64>,
}

impl std::fmt::Debug for SessionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCache")
            .field("sessions", &self.entries.len())
            .finish()
    }
}

impl std::fmt::Debug for SweepCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepCache")
            .field("responses", &self.entries.len())
            .finish()
    }
}

/// A progress event emitted while a streaming-capable request runs —
/// the service-level signal the wire protocol turns into `progress`
/// frames. Events are advisory: they never change what the final
/// [`Response`] contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// A sweep's batches completing; `sites_done` is cumulative.
    Sweep {
        /// Sites evaluated so far.
        sites_done: usize,
        /// Sites the sweep will evaluate in total.
        sites_total: usize,
    },
    /// A sequential (Mendo-rule) Monte-Carlo run's trial counters, at
    /// doubling vector thresholds starting at
    /// [`MC_PROGRESS_FIRST_AT`](SerService::MC_PROGRESS_FIRST_AT).
    MonteCarlo {
        /// Vectors simulated so far.
        vectors: u64,
        /// Sensitized observations so far.
        sensitized: u64,
    },
}

/// A progress callback. Invoked from whichever thread computes the job,
/// and for a sweep from whichever of its workers finished a batch (one
/// call at a time), so it must be `Send + Sync`; keep it cheap — it
/// runs on the request's hot path. A panicking sink fails only its own
/// job, with [`ServiceError::Internal`].
pub type ProgressFn = Arc<dyn Fn(Progress) + Send + Sync>;

/// One job of a [`SerService::submit_batch`]: the circuit, the typed
/// request, and the job's own optional progress sink and cooperative
/// [`CancelToken`].
///
/// With a sink, the job streams [`Progress`] while it runs: the sweep's
/// batch completions as cumulative site counts, and — for sequential
/// Monte-Carlo legs — interim trial counters at doubling vector
/// thresholds (first at
/// [`MC_PROGRESS_FIRST_AT`](SerService::MC_PROGRESS_FIRST_AT)).
/// Progress observes the run, it never reshapes it; requests served
/// from the response cache complete without events.
///
/// With a token, the job polls it before it starts computing, before
/// each sweep batch is claimed, between Monte-Carlo observation blocks,
/// at the multi-cycle simulation's block boundaries and inside a cold
/// session's plan compile. A trip fails the job with
/// [`ServiceError::Cancelled`], drops its partial results and populates
/// **no** cache.
pub struct Job {
    /// The circuit the request runs against.
    pub circuit: Arc<Circuit>,
    /// The typed request.
    pub request: Request,
    /// Where progress events go (`None`: the job runs silently).
    pub progress: Option<ProgressFn>,
    /// The job's cancel token (`None`: the job cannot be cancelled).
    pub cancel: Option<CancelToken>,
}

impl Job {
    /// A job with no progress sink and no cancel token.
    #[must_use]
    pub fn new(circuit: Arc<Circuit>, request: Request) -> Self {
        Job {
            circuit,
            request,
            progress: None,
            cancel: None,
        }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("circuit", &self.circuit.name())
            .field("request", &self.request)
            .field("progress", &self.progress.is_some())
            .field("cancel", &self.cancel)
            .finish()
    }
}

/// A validated job: its resolved session, and its outcome once it has
/// one (set while preparing when a cache answers it, otherwise by the
/// worker that computed it).
struct Prepared {
    session: Arc<AnalysisSession>,
    warm: bool,
    started: Instant,
    request: Request,
    /// When set, the computed sweep response populates the cache under
    /// this key, pinned to this SP vector.
    cache_key: Option<(SweepKey, Arc<SpVector>)>,
    progress: Option<ProgressFn>,
    cancel: Option<CancelToken>,
    /// The payload (or error) and when it was ready.
    done: OnceLock<(Result<ResponsePayload, ServiceError>, Instant)>,
}

impl SerService {
    /// Most edits one what-if stack holds
    /// ([`whatif_apply`](Self::whatif_apply)): every level keeps a full
    /// sweep arena, so an unbounded stack is unbounded memory.
    pub const MAX_WHATIF_DEPTH: usize = 64;

    /// Creates a service with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if any configuration field is 0.
    #[must_use]
    pub fn new(config: SerServiceConfig) -> Self {
        assert!(config.max_sessions > 0, "cache at least one session");
        assert!(config.threads > 0, "at least one compute thread");
        assert!(config.max_vectors > 0, "allow at least one vector");
        assert!(config.max_cycles > 0, "allow at least one cycle");
        assert!(config.max_runs > 0, "allow at least one run");
        assert!(
            config.max_whatif_sessions > 0,
            "cache at least one what-if session"
        );
        SerService {
            permits: InflightGate::new(config.threads),
            plan_cache: config
                .plan_cache_dir
                .clone()
                .map(|dir| PlanCache::new(dir).with_max_bytes(config.plan_cache_max_bytes)),
            config,
            cache: Mutex::new(SessionCache {
                entries: HashMap::new(),
                tick: 0,
            }),
            sweep_cache: Mutex::new(SweepCache {
                entries: HashMap::new(),
                tick: 0,
            }),
            whatif: Mutex::new(WhatIfCache {
                entries: HashMap::new(),
                tick: 0,
            }),
            inputs_overrides: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            sweep_hits: AtomicU64::new(0),
            sweep_misses: AtomicU64::new(0),
            site_hits: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plan_evictions: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            idle_reaped: Arc::default(),
        }
    }

    /// Creates a service with [`SerServiceConfig::default`].
    #[must_use]
    pub fn with_defaults() -> Self {
        SerService::new(SerServiceConfig::default())
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SerServiceConfig {
        &self.config
    }

    /// Current cache/request counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            session_hits: self.hits.load(Ordering::Relaxed),
            session_misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            sessions_cached: lock_clean(&self.cache).entries.len(),
            sweep_cache_hits: self.sweep_hits.load(Ordering::Relaxed),
            sweep_cache_misses: self.sweep_misses.load(Ordering::Relaxed),
            sweep_responses_cached: lock_clean(&self.sweep_cache).entries.len(),
            site_cache_hits: self.site_hits.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_misses.load(Ordering::Relaxed),
            plan_cache_evictions: self.plan_evictions.load(Ordering::Relaxed),
            whatif_sessions_cached: lock_clean(&self.whatif).entries.len(),
            requests_cancelled: self.cancelled.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
        }
    }

    /// The shared idle-reap counter the TCP transport bumps when it
    /// reaps an idle connection; surfaced as
    /// [`ServiceStats::idle_reaped`].
    #[must_use]
    pub fn idle_reap_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.idle_reaped)
    }

    /// Looks up a cached whole-circuit sweep response, refreshing its
    /// LRU recency on hit. `sp` must be the resolved session's current
    /// SP vector: an entry computed under any other vector — stale
    /// inputs, a diverged clone, even a hash-colliding circuit — fails
    /// the pointer-identity check and reads as a miss.
    fn sweep_cache_get(&self, key: &SweepKey, sp: &Arc<SpVector>) -> Option<Arc<SweepResults>> {
        let mut cache = lock_clean(&self.sweep_cache);
        cache.tick += 1;
        let tick = cache.tick;
        let entry = cache.entries.get_mut(key)?;
        if !Arc::ptr_eq(&entry.sp, sp) {
            return None;
        }
        entry.last_used = tick;
        Some(Arc::clone(&entry.results))
    }

    /// Inserts a whole-circuit sweep response pinned to the SP vector
    /// it was computed under, evicting the least-recently-used entry
    /// at capacity.
    fn sweep_cache_put(&self, key: SweepKey, sp: Arc<SpVector>, results: Arc<SweepResults>) {
        if self.config.max_sweep_responses == 0 {
            return;
        }
        let mut cache = lock_clean(&self.sweep_cache);
        cache.tick += 1;
        let tick = cache.tick;
        let SweepCache { entries, .. } = &mut *cache;
        evict_lru_at_capacity(entries, &key, self.config.max_sweep_responses, |e| {
            e.last_used
        });
        entries.insert(
            key,
            SweepCacheEntry {
                sp,
                results,
                last_used: tick,
            },
        );
    }

    /// Re-derives the signal probabilities of `circuit`'s warm session
    /// under a new input distribution — the service-level
    /// `set_inputs`: the session keeps its structural artifacts, cone
    /// plans, compiled simulator and scratch pool, its revision is
    /// bumped, and every cached sweep response for this netlist is
    /// dropped. The distribution is also **recorded per netlist hash**,
    /// so if the session is later LRU-evicted, its recompilation
    /// restores the same inputs instead of silently reverting to the
    /// defaults. Returns the new session revision (informational —
    /// response-cache validity is keyed by SP-vector identity, not by
    /// this number).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Compile`] when the session cannot be
    /// compiled or the new probabilities do not converge; the warm
    /// session, the response cache and the recorded inputs are left
    /// untouched in that case.
    pub fn set_inputs(
        &self,
        circuit: &Arc<Circuit>,
        inputs: InputProbs,
    ) -> Result<u64, ServiceError> {
        let (session, _) = self.session(circuit)?;
        let mut updated = (*session).clone();
        updated.set_inputs(inputs.clone())?;
        let revision = updated.revision();
        let key = circuit.structural_hash();

        // Record the distribution so eviction + recompile restores it…
        lock_clean(&self.inputs_overrides).insert(key, inputs);

        // …purge this netlist's cached sweep responses…
        lock_clean(&self.sweep_cache)
            .entries
            .retain(|&(hash, _), _| hash != key);

        // …then swap the updated session in (same eviction discipline
        // as `session`, in case the entry vanished between the locks).
        let mut cache = lock_clean(&self.cache);
        cache.tick += 1;
        let tick = cache.tick;
        let SessionCache { entries, .. } = &mut *cache;
        if evict_lru_at_capacity(entries, &key, self.config.max_sessions, |e| e.last_used) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        entries.insert(
            key,
            CacheEntry {
                session: Arc::new(updated),
                last_used: tick,
            },
        );
        Ok(revision)
    }

    /// The warm what-if session for `circuit`: the per-netlist edit
    /// stack behind [`whatif_apply`](Self::whatif_apply) /
    /// [`whatif_revert`](Self::whatif_revert). Created on first use by
    /// cloning the warm [`AnalysisSession`] (so the what-if loop never
    /// pays a cold compile while the analysis session is cached) and
    /// seeding the dense base sweep from the cross-request response
    /// cache when its arena is still valid for the session's current SP
    /// vector — a client that swept first starts editing without
    /// re-sweeping at all.
    fn whatif_session(
        &self,
        circuit: &Arc<Circuit>,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<Mutex<WhatIfSession>>, ServiceError> {
        let key = circuit.structural_hash();
        {
            let mut cache = lock_clean(&self.whatif);
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(entry) = cache.entries.get_mut(&key) {
                if same_circuit(&entry.base, circuit) {
                    entry.last_used = tick;
                    return Ok(Arc::clone(&entry.session));
                }
                // Hash collision between different netlists: the slot
                // is contended, never shared (see the session cache).
                cache.entries.remove(&key);
            }
        }

        // Build outside the lock — the base sweep can be expensive.
        let (session, _) = self.session_cancellable(circuit, cancel)?;
        let sp = Arc::clone(session.signal_probabilities_arc());
        let wf = match self.sweep_cache_get(&(key, PolarityMode::Tracked), &sp) {
            Some(results) => {
                WhatIfSession::with_base_results((*session).clone(), results, self.config.threads)
            }
            None => WhatIfSession::new((*session).clone(), self.config.threads),
        };
        let wf = Arc::new(Mutex::new(wf));

        let mut cache = lock_clean(&self.whatif);
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(entry) = cache.entries.get_mut(&key) {
            if same_circuit(&entry.base, circuit) {
                // Lost a build race; adopt the winner (its stack may
                // already hold edits this caller wants to extend).
                entry.last_used = tick;
                return Ok(Arc::clone(&entry.session));
            }
            cache.entries.remove(&key);
        }
        let WhatIfCache { entries, .. } = &mut *cache;
        evict_lru_at_capacity(entries, &key, self.config.max_whatif_sessions, |e| {
            e.last_used
        });
        entries.insert(
            key,
            WhatIfEntry {
                base: Arc::clone(circuit),
                session: Arc::clone(&wf),
                last_used: tick,
            },
        );
        Ok(wf)
    }

    /// Applies one incremental edit to `circuit`'s what-if stack and
    /// returns the engine's outcome: new total SER, per-site deltas
    /// over the dirty region, and how many dirty sites re-swept on
    /// plans and on the reference kernel. The first
    /// call against a netlist creates the stack by cloning the warm
    /// [`AnalysisSession`], seeded from a cached whole-circuit sweep when
    /// one is current; later calls pay only the dirty-region re-analysis.
    ///
    /// `edit` is a *resolver*, not an [`Edit`]: it receives the stack's
    /// **current** (possibly already-edited) circuit, because that is
    /// the circuit names must resolve against — after a TMR edit the
    /// interesting nodes (`u__r0`, voter internals) do not exist in the
    /// base netlist the caller loaded.
    ///
    /// An optional cooperative [`CancelToken`] is polled at the session
    /// compile's plan-build checkpoints and at the what-if engine's
    /// checkpoints (after the SP recompute, inside the edited circuit's
    /// plan compile, before the splice). A trip leaves the edit stack
    /// exactly as it was — the partially re-analyzed state is dropped,
    /// never pushed.
    ///
    /// A stack holds at most [`MAX_WHATIF_DEPTH`](Self::MAX_WHATIF_DEPTH)
    /// edits.
    ///
    /// # Errors
    ///
    /// Whatever `edit` returns, [`ServiceError::CapExceeded`] (`what`
    /// `"whatif_depth"`) when the stack is full, [`ServiceError::Compile`]
    /// when the edited circuit's signal probabilities cannot be computed,
    /// or [`ServiceError::Cancelled`] when the token trips. On every
    /// error the stack is left untouched.
    pub fn whatif_apply(
        &self,
        circuit: &Arc<Circuit>,
        edit: impl FnOnce(&Circuit) -> Result<Edit, ServiceError>,
        cancel: Option<&CancelToken>,
    ) -> Result<WhatIfOutcome, ServiceError> {
        let wf = self.whatif_session(circuit, cancel)?;
        let mut wf = lock_clean(&wf);
        if wf.depth() >= Self::MAX_WHATIF_DEPTH {
            return Err(ServiceError::CapExceeded {
                what: "whatif_depth",
                requested: wf.depth() as u64 + 1,
                cap: Self::MAX_WHATIF_DEPTH as u64,
            });
        }
        let edit = edit(wf.circuit())?;
        wf.apply_cancellable(edit, cancel).map_err(|e| match e {
            WhatIfAbort::Compile(e) => ServiceError::Compile(e),
            WhatIfAbort::Cancelled(cause) => {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                ServiceError::Cancelled(cause)
            }
        })
    }

    /// Pops the most recent what-if edit of `circuit`'s stack and
    /// returns `(remaining depth, restored total SER)`. Reverting never
    /// recomputes anything — the previous state was kept verbatim.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] when the netlist has no what-if
    /// stack or the stack is already at its base state.
    pub fn whatif_revert(&self, circuit: &Arc<Circuit>) -> Result<(usize, f64), ServiceError> {
        let key = circuit.structural_hash();
        let wf = {
            let mut cache = lock_clean(&self.whatif);
            cache.tick += 1;
            let tick = cache.tick;
            match cache.entries.get_mut(&key) {
                Some(entry) if same_circuit(&entry.base, circuit) => {
                    entry.last_used = tick;
                    Arc::clone(&entry.session)
                }
                _ => {
                    return Err(ServiceError::InvalidRequest(
                        "no what-if session for this netlist — apply an edit first".into(),
                    ))
                }
            }
        };
        let mut wf = lock_clean(&wf);
        match wf.revert() {
            Some(total) => Ok((wf.depth(), total)),
            None => Err(ServiceError::InvalidRequest(
                "what-if stack is at the base state — nothing to revert".into(),
            )),
        }
    }

    /// The warm session for `circuit`: cached if its netlist hash is
    /// known, compiled (session + cone plans) and cached otherwise.
    /// Returns the session and whether it was warm.
    ///
    /// Compilation happens outside the cache lock, so a slow compile
    /// never blocks requests against other circuits; if two threads
    /// race to compile the same netlist, the first insert wins and the
    /// loser adopts it.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Compile`] when the circuit cannot be
    /// compiled (cyclic, SP divergence).
    pub fn session(
        &self,
        circuit: &Arc<Circuit>,
    ) -> Result<(Arc<AnalysisSession>, bool), ServiceError> {
        self.session_cancellable(circuit, None)
    }

    /// [`session`](Self::session) with a cooperative [`CancelToken`]:
    /// on a cache miss the cone-plan compile polls the token at its
    /// merge/anchor checkpoints and a trip aborts the compile with
    /// [`ServiceError::Cancelled`]. The session cache is left without
    /// an entry (nothing partial is inserted) and the session's plan
    /// slot stays cold, so the next — uncancelled — request compiles
    /// from scratch and gets bit-identical plans.
    ///
    /// # Errors
    ///
    /// Everything [`session`](Self::session) returns, plus
    /// [`ServiceError::Cancelled`] when the token trips mid-compile.
    fn session_cancellable(
        &self,
        circuit: &Arc<Circuit>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Arc<AnalysisSession>, bool), ServiceError> {
        let key = circuit.structural_hash();
        {
            let mut cache = lock_clean(&self.cache);
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(entry) = cache.entries.get_mut(&key) {
                if same_circuit(entry.session.circuit_arc(), circuit) {
                    entry.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::clone(&entry.session), true));
                }
                // A 64-bit hash collision between two *different*
                // netlists: never serve the wrong session. The colliding
                // circuits contend for one slot (correct, just not warm
                // for both); fall through and recompile.
                cache.entries.remove(&key);
            }
        }

        // Miss: compile outside the lock, under the last distribution
        // `set_inputs` recorded for this netlist (if any) so an LRU
        // eviction never silently reverts a circuit to default inputs.
        // Cone plans are forced here so a "warm" session really is
        // warm — the first sweep against it pays no plan build.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let override_inputs = lock_clean(&self.inputs_overrides).get(&key).cloned();
        let session = Arc::new(match override_inputs {
            Some(inputs) => AnalysisSession::with_inputs(Arc::clone(circuit), inputs)?,
            None => AnalysisSession::new(Arc::clone(circuit))?,
        });
        // Try the persistent artifact cache first: a valid entry primes
        // the session's plan slot and the force below returns it without
        // compiling. Absent/corrupt/stale entries read as a miss; the
        // freshly built plans are then persisted (best-effort) so the
        // next cold process skips the compile.
        let primed = match &self.plan_cache {
            Some(cache) => match cache.load(key) {
                // `load` verified version, key and checksum; the length
                // check below guards the residual 64-bit fingerprint
                // collision (a different circuit of identical size would
                // produce wrong plans undetected, but so would any other
                // fingerprint consumer — the session cache's equality
                // check already gates reuse of *sessions* across
                // colliding netlists).
                Some(plans) if plans.len() == circuit.len() => {
                    self.plan_hits.fetch_add(1, Ordering::Relaxed);
                    session.epp().artifacts().prime_cone_plans(Arc::new(plans))
                }
                _ => {
                    self.plan_misses.fetch_add(1, Ordering::Relaxed);
                    false
                }
            },
            None => false,
        };
        {
            let epp = session.epp();
            let built = epp
                .artifacts()
                .cone_plans_cancellable(circuit, cancel)
                .map_err(ServiceError::Cancelled)?;
            if !primed {
                if let (Some(cache), Some(plans)) = (&self.plan_cache, built) {
                    // Best-effort persist; the eviction count is the
                    // only part of a failed store worth surfacing.
                    if let Ok(outcome) = cache.store(key, plans) {
                        self.plan_evictions
                            .fetch_add(outcome.evicted as u64, Ordering::Relaxed);
                    }
                }
            }
        }

        let mut cache = lock_clean(&self.cache);
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(entry) = cache.entries.get_mut(&key) {
            if same_circuit(entry.session.circuit_arc(), circuit) {
                // Lost a compile race; adopt the winner.
                entry.last_used = tick;
                return Ok((Arc::clone(&entry.session), true));
            }
            cache.entries.remove(&key);
        }
        let SessionCache { entries, .. } = &mut *cache;
        if evict_lru_at_capacity(entries, &key, self.config.max_sessions, |e| e.last_used) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        entries.insert(
            key,
            CacheEntry {
                session: Arc::clone(&session),
                last_used: tick,
            },
        );
        Ok((session, false))
    }

    /// Serves one request: a one-job [`submit_batch`](Self::submit_batch)
    /// with no progress sink and no cancel token. A sweep still fans out
    /// onto the free compute permits.
    ///
    /// # Errors
    ///
    /// See [`ServiceError`].
    pub fn submit(
        &self,
        circuit: &Arc<Circuit>,
        request: Request,
    ) -> Result<Response, ServiceError> {
        self.submit_batch(vec![Job::new(Arc::clone(circuit), request)])
            .pop()
            .unwrap_or_else(|| {
                Err(ServiceError::Internal(
                    "batch returned no response for its one job".into(),
                ))
            })
    }

    /// Serves a batch of jobs, possibly against different circuits;
    /// the responses come back in submission order.
    ///
    /// Sessions are resolved and the caches consulted on the calling
    /// thread, in submission order. The jobs left over run through one
    /// cursor over `min(threads, jobs)` workers, the calling thread
    /// among them. Each job waits for one compute permit; a sweep then
    /// takes every permit that is free as an extra worker of its own
    /// cost-balanced batches. No thread waits for a permit while it
    /// holds one.
    ///
    /// Results are **bit-identical** to running each request directly
    /// on its session, whatever the thread count. Jobs are independent:
    /// a failed, cancelled or panicking job never disturbs its
    /// neighbours — a panic answers its own job with
    /// [`ServiceError::Internal`], and the other responses stay
    /// bit-identical to a solo run.
    #[must_use]
    pub fn submit_batch(&self, jobs: Vec<Job>) -> Vec<Result<Response, ServiceError>> {
        let prepared: Vec<Result<Prepared, ServiceError>> =
            jobs.into_iter().map(|job| self.prepare(job)).collect();
        let pending: Vec<&Prepared> = prepared
            .iter()
            .flatten()
            .filter(|prep| prep.done.get().is_none())
            .collect();
        let cursor = AtomicUsize::new(0);
        let work = || {
            while let Some(prep) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let outcome = self.run(prep);
                let _ = prep.done.set((outcome, Instant::now()));
            }
        };
        std::thread::scope(|scope| {
            // A refused spawn only means fewer workers: the calling
            // thread drains the cursor regardless.
            for _ in 1..self.config.threads.min(pending.len()) {
                let _ = std::thread::Builder::new()
                    .name("ser-service-worker".into())
                    .spawn_scoped(scope, work);
            }
            work();
        });

        let responses: Vec<Result<Response, ServiceError>> = prepared
            .into_iter()
            .map(|prep| {
                let prep = prep?;
                let Some((payload, done_at)) = prep.done.into_inner() else {
                    return Err(ServiceError::Internal(
                        "a job finished without an outcome".into(),
                    ));
                };
                let payload = payload?;
                if let (Some((key, sp)), ResponsePayload::Sweep(results)) =
                    (prep.cache_key, &payload)
                {
                    self.sweep_cache_put(key, sp, Arc::clone(results));
                }
                Ok(Response {
                    meta: ResponseMeta {
                        circuit: prep.session.circuit().name().to_owned(),
                        netlist_hash: prep.session.circuit().structural_hash(),
                        warm_session: prep.warm,
                        wall: done_at.saturating_duration_since(prep.started),
                    },
                    payload,
                })
            })
            .collect();
        for response in &responses {
            if matches!(response, Err(ServiceError::Cancelled(_))) {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
            }
        }
        responses
    }

    /// First vector threshold at which a streaming sequential
    /// Monte-Carlo run reports [`Progress::MonteCarlo`]; later reports
    /// come at each doubling (512, 1024, …), so a run of `n` vectors
    /// emits ⌈log₂(n / 256)⌉ + 1 events — enough cadence for a client
    /// progress bar, bounded even for million-vector runs.
    pub const MC_PROGRESS_FIRST_AT: u64 = 256;

    /// Validates one request, resolves its session and answers it from
    /// the response cache when it can.
    fn prepare(&self, job: Job) -> Result<Prepared, ServiceError> {
        let started = Instant::now();
        let Job {
            circuit,
            request,
            progress,
            cancel,
        } = job;
        check(cancel.as_ref())?;
        validate(&circuit, &request, &self.config)?;
        let (session, warm) = self.session_cancellable(&circuit, cancel.as_ref())?;

        // Whole-circuit sweeps are a pure function of the netlist, the
        // SP vector and the polarity — serve repeats (and the sites they
        // cover) straight from the response cache.
        let mut cache_key = None;
        let hit = match &request {
            Request::Sweep(req) if req.sites.is_none() && self.config.max_sweep_responses > 0 => {
                let key = (circuit.structural_hash(), req.polarity);
                let sp = Arc::clone(session.signal_probabilities_arc());
                let results = self.sweep_cache_get(&key, &sp);
                if results.is_some() {
                    self.sweep_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.sweep_misses.fetch_add(1, Ordering::Relaxed);
                    cache_key = Some((key, sp));
                }
                results.map(ResponsePayload::Sweep)
            }
            // A site's EPP is the same bits in the plan sweep as in the
            // per-site kernel, so a current tracked-polarity sweep
            // answers it: no kernel run.
            Request::Site(SiteRequest { site }) if self.config.max_sweep_responses > 0 => {
                let key = (circuit.structural_hash(), PolarityMode::Tracked);
                let epp = self
                    .sweep_cache_get(&key, session.signal_probabilities_arc())
                    .and_then(|results| results.try_site(*site).map(|r| r.to_site_epp()));
                if epp.is_some() {
                    self.site_hits.fetch_add(1, Ordering::Relaxed);
                }
                epp.map(ResponsePayload::Site)
            }
            _ => None,
        };
        let done = OnceLock::new();
        if let Some(payload) = hit {
            let _ = done.set((Ok(payload), Instant::now()));
        }
        Ok(Prepared {
            session,
            warm,
            started,
            request,
            cache_key,
            progress,
            cancel,
            done,
        })
    }

    /// Computes one prepared job: waits for a compute permit, then runs
    /// the job behind a panic fence, so a panic fails this job alone.
    fn run(&self, prep: &Prepared) -> Result<ResponsePayload, ServiceError> {
        let _permit = self.permits.acquire();
        catch_unwind(AssertUnwindSafe(|| self.compute(prep))).unwrap_or_else(|panic| {
            let what = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            Err(ServiceError::Internal(format!("the job panicked: {what}")))
        })
    }

    fn compute(&self, prep: &Prepared) -> Result<ResponsePayload, ServiceError> {
        let (session, cancel) = (&prep.session, prep.cancel.as_ref());
        check(cancel)?;
        match &prep.request {
            Request::Sweep(req) => {
                let all: Vec<NodeId>;
                let sites = match &req.sites {
                    Some(sites) => sites,
                    None => {
                        all = session.circuit().node_ids().collect();
                        &all
                    }
                };
                // Free permits join as extra workers; none is waited for.
                let wanted = if sites.len() >= SINGLE_THREAD_SWEEP_THRESHOLD {
                    self.config.threads - 1
                } else {
                    0
                };
                let extra = self.permits.try_acquire(wanted);
                let sites_total = sites.len();
                let observer = prep.progress.as_ref().map(|sink| {
                    move |sites_done| {
                        sink(Progress::Sweep {
                            sites_done,
                            sites_total,
                        });
                    }
                });
                let results = session
                    .epp()
                    .sweep_sites_cancellable(
                        sites,
                        req.polarity,
                        1 + extra.count(),
                        session.workspace_pool(),
                        cancel,
                        observer.as_ref().map(|f| f as &(dyn Fn(usize) + Sync)),
                    )
                    .map_err(ServiceError::Cancelled)?;
                Ok(ResponsePayload::Sweep(Arc::new(results)))
            }
            Request::Site(SiteRequest { site }) => Ok(ResponsePayload::Site(session.site(*site))),
            Request::MultiCycle(req) => multi_cycle(session, req, prep.progress.as_ref(), cancel),
            Request::MonteCarlo(req) => {
                let estimate = match req.target_error {
                    Some(eps) => {
                        let rule = SequentialMonteCarlo::new(eps)
                            .with_seed(req.seed)
                            .with_max_vectors(req.vectors);
                        // The trial counters are reported at doubling
                        // vector thresholds when streaming; the observer
                        // cannot perturb the run (bit-identical), and the
                        // token is polled at the same block cadence.
                        let mut next = SerService::MC_PROGRESS_FIRST_AT;
                        rule.estimate_site_cancellable(
                            session.bit_sim(),
                            req.site,
                            cancel,
                            |vectors, sensitized| {
                                if let Some(sink) = &prep.progress {
                                    if vectors >= next {
                                        while next <= vectors {
                                            next = next.saturating_mul(2);
                                        }
                                        sink(Progress::MonteCarlo {
                                            vectors,
                                            sensitized,
                                        });
                                    }
                                }
                            },
                        )
                        .map_err(ServiceError::Cancelled)?
                    }
                    None => MonteCarlo::new(req.vectors)
                        .with_seed(req.seed)
                        .estimate_site(session.bit_sim(), req.site),
                };
                Ok(ResponsePayload::MonteCarlo(estimate))
            }
        }
    }
}

/// A cooperative token poll: `Ok` with no token or a live one,
/// [`ServiceError::Cancelled`] once the token trips.
fn check(cancel: Option<&CancelToken>) -> Result<(), ServiceError> {
    match cancel {
        Some(token) => token.check().map_err(ServiceError::Cancelled),
        None => Ok(()),
    }
}

/// `true` when a cached session's circuit really is the submitted one.
/// The pointer check covers callers that resubmit the same `Arc`; the
/// structural comparison (O(n), still far cheaper than a recompile)
/// guards against 64-bit hash collisions serving the wrong circuit.
fn same_circuit(cached: &Arc<Circuit>, submitted: &Arc<Circuit>) -> bool {
    Arc::ptr_eq(cached, submitted) || cached == submitted
}

/// The multi-cycle leg runs analytic + optional simulation in one job
/// (both are single-site and cheap relative to a sweep). With a
/// progress sink, the sequential (Mendo-rule) simulation reports its
/// run counters at the same doubling thresholds as the single-cycle
/// Monte-Carlo leg — same observer, same cadence, bit-identical result.
fn multi_cycle(
    session: &AnalysisSession,
    req: &MultiCycleRequest,
    progress: Option<&ProgressFn>,
    cancel: Option<&CancelToken>,
) -> Result<ResponsePayload, ServiceError> {
    // The frame-expansion tables are compiled once per session per SP
    // revision (`multi_cycle_cached`), so repeated multi-cycle requests
    // against a warm session skip the per-flip-flop sweep entirely.
    let analytic = session.multi_cycle_cached().site(req.site, req.cycles);
    let monte_carlo = match req.monte_carlo {
        None => None,
        Some(mc) => Some(match mc.target_error {
            Some(eps) => {
                let mut next = SerService::MC_PROGRESS_FIRST_AT;
                multi_cycle_monte_carlo_sequential_cancellable(
                    Arc::clone(session.circuit_arc()),
                    req.site,
                    req.cycles,
                    eps,
                    mc.runs,
                    mc.seed,
                    &mut |runs, successes| {
                        if let Some(sink) = progress {
                            if runs >= next {
                                while next <= runs {
                                    next = next.saturating_mul(2);
                                }
                                sink(Progress::MonteCarlo {
                                    vectors: runs,
                                    sensitized: successes,
                                });
                            }
                        }
                    },
                    cancel,
                )
                .map_err(|e| match e {
                    MultiCycleMcAbort::Simulation(e) => ServiceError::Simulation(e),
                    MultiCycleMcAbort::Cancelled(cause) => ServiceError::Cancelled(cause),
                })?
            }
            None => {
                let cumulative = multi_cycle_monte_carlo(
                    Arc::clone(session.circuit_arc()),
                    req.site,
                    req.cycles,
                    mc.runs,
                    mc.seed,
                )
                .map_err(ServiceError::Simulation)?;
                MultiCycleMcEstimate {
                    cumulative,
                    runs: mc.runs,
                    stopped_by_rule: false,
                }
            }
        }),
    };
    Ok(ResponsePayload::MultiCycle {
        analytic,
        monte_carlo,
    })
}

/// Rejects malformed requests before any job computes, so a job's
/// kernels never see an out-of-range site — and enforces the operator-configured work
/// ceilings (`max_vectors` / `max_cycles` / `max_runs`) at the same
/// chokepoint, so an over-cap request is refused before it costs
/// anything.
fn validate(
    circuit: &Circuit,
    request: &Request,
    config: &SerServiceConfig,
) -> Result<(), ServiceError> {
    let len = circuit.len();
    let check_site = |site: NodeId| {
        if site.index() < len {
            Ok(())
        } else {
            Err(ServiceError::SiteOutOfRange { site, len })
        }
    };
    let check_eps = |eps: Option<f64>| match eps {
        Some(e) if !(e.is_finite() && e > 0.0 && e < 1.0) => Err(ServiceError::InvalidRequest(
            format!("target_error {e} outside (0, 1)"),
        )),
        _ => Ok(()),
    };
    let check_cap = |what: &'static str, requested: u64, cap: u64| {
        if requested > cap {
            Err(ServiceError::CapExceeded {
                what,
                requested,
                cap,
            })
        } else {
            Ok(())
        }
    };
    match request {
        Request::Sweep(req) => {
            for &site in req.sites.iter().flatten() {
                check_site(site)?;
            }
            Ok(())
        }
        Request::Site(req) => check_site(req.site),
        Request::MultiCycle(req) => {
            check_site(req.site)?;
            if req.cycles == 0 {
                return Err(ServiceError::InvalidRequest("cycles must be ≥ 1".into()));
            }
            check_cap("cycles", req.cycles as u64, config.max_cycles as u64)?;
            if let Some(mc) = req.monte_carlo {
                if mc.runs == 0 {
                    return Err(ServiceError::InvalidRequest("runs must be ≥ 1".into()));
                }
                check_cap("runs", mc.runs, config.max_runs)?;
                check_eps(mc.target_error)?;
            }
            Ok(())
        }
        Request::MonteCarlo(req) => {
            check_site(req.site)?;
            if req.vectors == 0 {
                return Err(ServiceError::InvalidRequest("vectors must be ≥ 1".into()));
            }
            check_cap("vectors", req.vectors, config.max_vectors)?;
            check_eps(req.target_error)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: with `capacity == 0` and an empty map there is
    /// nothing to evict — this used to `.expect("non-empty cache")`
    /// on the empty LRU scan and panic the request thread.
    #[test]
    fn evict_at_zero_capacity_on_empty_map_does_not_panic() {
        let mut entries: HashMap<String, u64> = HashMap::new();
        assert!(!evict_lru_at_capacity(
            &mut entries,
            &"fresh".to_owned(),
            0,
            |&t| t
        ));
        assert!(entries.is_empty());
    }

    /// The normal path still evicts the least-recently-used entry
    /// when the map is at capacity and the key is new.
    #[test]
    fn evict_drops_lru_at_capacity() {
        let mut entries: HashMap<String, u64> = HashMap::new();
        entries.insert("old".into(), 1);
        entries.insert("new".into(), 2);
        assert!(evict_lru_at_capacity(
            &mut entries,
            &"fresh".to_owned(),
            2,
            |&t| t
        ));
        assert!(!entries.contains_key("old"));
        assert!(entries.contains_key("new"));
        // Present keys never evict, regardless of capacity pressure.
        assert!(!evict_lru_at_capacity(
            &mut entries,
            &"new".to_owned(),
            1,
            |&t| t
        ));
    }
}
