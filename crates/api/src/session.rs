//! The [`Session`]: one configured service instance.
//!
//! A session owns the fabric dimensions, physical parameters and estimator
//! options (set once through [`SessionBuilder`]) and a program cache:
//! every loaded program is keyed by a content hash of its canonical
//! circuit text, and its [`ProfileData`] — the expensive program-dependent
//! half of Algorithm 1 — is computed exactly once no matter how many
//! requests name it, through whichever [`ProgramSpec`] source. In front
//! of that cache sits a bench-name index: a benchmark name is resolved
//! (generated, written canonically, hashed) once per session, and later
//! requests naming it go straight to the cached program.
//!
//! # Concurrency model
//!
//! `Session` is `Send + Sync` and every endpoint takes `&self`, so one
//! session can be shared across threads (`Arc<Session>` or a plain
//! borrow) and hammered concurrently. The program cache is sharded: 16
//! independent `RwLock`-protected maps selected by the FNV content hash,
//! so concurrent loads of *different* programs never contend on one lock
//! and repeat loads of the *same* program take only a shard read lock
//! (the index read lock, for a benchmark name seen before).
//! Cache counters ([`CacheStats`]) are atomics with the invariant
//! `cache_hits + cache_misses == loads`; profiles stay exactly-once via
//! `OnceLock` no matter how many threads race on a program.
//!
//! Each request runs on its calling thread; a service gets its
//! concurrency from serving connections side by side. The
//! [`batch`](Session::batch) endpoint is a loop over
//! [`execute`](Session::execute), so a batch slot is byte for byte what
//! the same request answers alone at that point in the sequence.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use leqa::report::zone_report_from_iig;
use leqa::sweep::sweep_profile_squares;
use leqa::{Estimator, EstimatorOptions, ProfileData, ProgramProfile, StreamingProfileBuilder};
use leqa_circuit::{decompose::lower_to_ft, parser, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use leqa_workloads::shor::ShorStream;
use qspr::{Mapper, MapperConfig};

use crate::dto::{
    CompareRequest, CompareResponse, EstimateRequest, EstimateResponse, FabricSpec, MapRequest,
    MapResponse, ProgramSpec, ProgramSummary, Request, Response, SweepPointDto, SweepRequest,
    SweepResponse, ZoneRowDto, ZonesRequest, ZonesResponse,
};
use crate::error::{ErrorKind, LeqaError};
use crate::store::ProfileStore;
use crate::wire::wire_object;
use crate::BatchResponse;

/// The cached, spec-independent part of a loaded program: canonical
/// source and its content key, the lowered op list (as the [`Qodg`] view
/// over it, 12 bytes per op), and the lazily-computed [`ProfileData`].
/// Shared (via `Arc`) by every request whose content hashes to it.
#[derive(Debug)]
struct ProgramData {
    source: String,
    /// `fnv1a(source)`: the cache key, which also names the snapshot file.
    key: u64,
    qodg: Qodg,
    /// Computed on first use by an endpoint that needs it (estimate,
    /// sweep, zones, compare, `dot --graph iig`) — `map` and `gen` never
    /// pay the IIG/zone passes. `OnceLock` guarantees exactly one
    /// initialization even when threads race on the same program.
    profile: OnceLock<ProfileData>,
}

/// A generator-backed program on the streaming path: the session never
/// materializes its op list or QODG. Cached by canonical stream name; the
/// profile is computed once per session (or loaded from the snapshot
/// store under a `stream:`-prefixed pseudo-source), exactly like
/// materialized programs.
#[derive(Debug)]
struct StreamedProgram {
    stream: ShorStream,
    profile: OnceLock<ProfileData>,
}

/// A loaded program as one request sees it: the label the *request's*
/// spec implies plus the shared, content-addressed program data (source,
/// QODG, lazy profile). Cheap to move around (a string and two `Arc`s).
#[derive(Debug)]
pub struct ProgramHandle {
    label: String,
    shared: Arc<ProgramData>,
    counters: Arc<Counters>,
    store: Option<Arc<ProfileStore>>,
}

impl ProgramHandle {
    /// Display label (benchmark name, `.name` header, or file path) —
    /// derived from the spec *this* load used, not from whichever spec
    /// first populated the cache.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Canonical circuit text (the content that was hashed).
    #[must_use]
    pub fn source(&self) -> &str {
        &self.shared.source
    }

    /// The lowered program.
    #[must_use]
    pub fn qodg(&self) -> &Qodg {
        &self.shared.qodg
    }

    /// The program profile data, computed on first use and cached for
    /// every later request naming the same content.
    ///
    /// When the session has a snapshot store ([`SessionBuilder::cache_dir`])
    /// the first use consults it before computing: a verified snapshot
    /// skips the profile passes entirely (`store_hits`), while a missing,
    /// corrupt or stale snapshot is silently recomputed and re-saved
    /// (`store_misses`) — never a crash, never wrong bytes.
    #[must_use]
    pub fn profile_data(&self) -> &ProfileData {
        self.shared.profile.get_or_init(|| {
            if let Some(store) = &self.store {
                match store.load_keyed(self.shared.key, &self.shared.source) {
                    Ok(data) => {
                        self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
                        return data;
                    }
                    Err(_) => {
                        // Missing, corrupt or stale: recompute below and
                        // overwrite the snapshot.
                        self.counters.store_misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            self.counters.profile_builds.fetch_add(1, Ordering::Relaxed);
            let data = ProfileData::new(&self.shared.qodg);
            if let Some(store) = &self.store {
                // Best-effort: a failed save costs the next restart a
                // rebuild, never this request.
                let _ = store.save_keyed(self.shared.key, &self.shared.source, &data);
            }
            data
        })
    }

    /// The identity echoed in responses.
    #[must_use]
    pub fn summary(&self) -> ProgramSummary {
        ProgramSummary {
            label: self.label.clone(),
            qubits: u64::from(self.shared.qodg.num_qubits()),
            ops: self.shared.qodg.op_count() as u64,
        }
    }
}

/// Cache counters, exposed for observability and asserted by the
/// profile-reuse and concurrency tests. At quiescence
/// `cache_hits + cache_misses == loads`; a snapshot racing in-flight
/// loads may transiently *under*-count `cache_hits + cache_misses`
/// relative to `loads` (never the reverse — see
/// [`Session::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Programs whose [`ProfileData`] was computed (one per distinct
    /// content hash).
    pub profile_builds: u64,
    /// Loads served from the cache without re-lowering.
    pub cache_hits: u64,
    /// Loads that lowered and inserted a program (one per distinct
    /// content hash, plus hash-collision rebuilds).
    pub cache_misses: u64,
    /// Successful program loads (`cache_hits + cache_misses`).
    pub loads: u64,
}

wire_object!(CacheStats, "cache stats", { profile_builds, cache_hits, cache_misses, loads });

/// Snapshot-store counters, exposed for observability and asserted by
/// the warm-restart tests: `store_hits` counts profiles served from a
/// verified on-disk snapshot (skipping the profile passes entirely),
/// `store_misses` counts first-use profiles the store could *not* serve
/// — missing, corrupt or stale snapshots alike — which were recomputed
/// and re-saved. Both stay zero on sessions without a
/// [`SessionBuilder::cache_dir`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreStats {
    /// Profiles loaded from a verified snapshot.
    pub store_hits: u64,
    /// Profiles the store could not serve (recomputed and re-saved).
    pub store_misses: u64,
}

/// The session's atomic counters, shared with every [`ProgramHandle`] so
/// lazy profile computation counts no matter which handle forces it.
#[derive(Debug, Default)]
struct Counters {
    profile_builds: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    loads: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
}

impl Counters {
    // `loads` is bumped (release) before the hit/miss half, and
    // `Session::cache_stats` reads the halves (acquire) before `loads`:
    // any half increment a snapshot observes carries its `loads`
    // increment with it, so a racing snapshot can only ever see
    // `hits + misses <= loads`, never a sum exceeding the loads it was
    // read against.

    fn record_hit(&self) {
        self.loads.fetch_add(1, Ordering::Release);
        self.hits.fetch_add(1, Ordering::Release);
    }

    fn record_miss(&self) {
        self.loads.fetch_add(1, Ordering::Release);
        self.misses.fetch_add(1, Ordering::Release);
    }
}

/// Number of shards in the program cache. 16 keeps the footprint trivial
/// while making same-shard contention between distinct hot programs
/// unlikely at service concurrency levels.
const SHARD_COUNT: usize = 16;

/// The sharded program cache: `SHARD_COUNT` independent `RwLock`-guarded
/// maps, selected by the FNV-1a content hash, so concurrent loads only
/// contend when they actually touch the same shard.
#[derive(Debug, Default)]
struct ShardedCache {
    shards: [RwLock<HashMap<u64, Arc<ProgramData>>>; SHARD_COUNT],
}

impl ShardedCache {
    fn shard(&self, key: u64) -> &RwLock<HashMap<u64, Arc<ProgramData>>> {
        &self.shards[(key % SHARD_COUNT as u64) as usize]
    }

    /// Fetches the entry for `key` if present *and* its source matches
    /// (a 64-bit collision must repeat work, not hand a request some
    /// other program's profile).
    fn lookup(&self, key: u64, source: &str) -> Option<Arc<ProgramData>> {
        let shard = self.shard(key).read().expect("no poisoning");
        shard
            .get(&key)
            .filter(|shared| shared.source == source)
            .map(Arc::clone)
    }

    /// Inserts `candidate` under `key`, unless a matching entry appeared
    /// in the meantime (another thread won the race) — then the existing
    /// entry is adopted. Returns the canonical `Arc` and whether the
    /// candidate was freshly inserted.
    fn insert(&self, key: u64, candidate: Arc<ProgramData>) -> (Arc<ProgramData>, bool) {
        let mut shard = self.shard(key).write().expect("no poisoning");
        match shard.entry(key) {
            Entry::Occupied(mut existing) => {
                if existing.get().source == candidate.source {
                    (Arc::clone(existing.get()), false)
                } else {
                    // Hash collision: the newcomer takes the slot (the
                    // verify-on-hit lookup keeps either resident correct,
                    // a collision only ever costs rebuilds).
                    existing.insert(Arc::clone(&candidate));
                    (candidate, true)
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(Arc::clone(&candidate));
                (candidate, true)
            }
        }
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("no poisoning").clear();
        }
    }
}

/// Builds a [`Session`].
///
/// Defaults mirror the paper: 60×60 fabric, Table 1 ion-trap/\[\[7,1,3\]\]
/// parameters, 20 `E[S_q]` terms with ceiling zone rounding.
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until `build()` is called"]
pub struct SessionBuilder {
    fabric: Option<FabricDims>,
    params: Option<PhysicalParams>,
    options: Option<EstimatorOptions>,
    cache_dir: Option<std::path::PathBuf>,
    streaming_threshold: Option<u64>,
}

/// Default op-count threshold above which [`Session::estimate`] switches
/// generator-backed workloads to the streaming pipeline: one million
/// lowered ops is roughly where holding the op list starts to dominate
/// a request's memory footprint while the streamed answer stays
/// bit-identical.
pub const DEFAULT_STREAMING_THRESHOLD: u64 = 1_000_000;

impl SessionBuilder {
    /// Sets the session fabric (default: the paper's 60×60).
    pub fn fabric(mut self, dims: FabricDims) -> Self {
        self.fabric = Some(dims);
        self
    }

    /// Sets the physical parameters (default: Table 1's).
    pub fn params(mut self, params: PhysicalParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Sets the estimator options (default: the paper's).
    pub fn options(mut self, options: EstimatorOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Enables the disk-backed profile snapshot store rooted at `dir`
    /// (created if absent): first-use profiles are loaded from verified
    /// snapshots when possible and persisted otherwise, so a restarted
    /// process comes up warm. See [`crate::store`] for the codec and
    /// the corruption discipline.
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Sets the op-count threshold at which [`Session::estimate`] routes
    /// generator-backed workloads (currently the `shor_N` family) through
    /// the memory-bounded streaming pipeline instead of materializing
    /// them (default: [`DEFAULT_STREAMING_THRESHOLD`]). Streamed
    /// estimates are bit-identical to materialized ones; only the memory
    /// profile changes. `0` streams every streamable workload,
    /// `u64::MAX` effectively disables streaming.
    pub fn streaming_threshold(mut self, ops: u64) -> Self {
        self.streaming_threshold = Some(ops);
        self
    }

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Invalid`] when the estimator options are out
    /// of range (currently: zero `E[S_q]` terms), or [`ErrorKind::Io`]
    /// when a [`cache_dir`](Self::cache_dir) cannot be created.
    pub fn build(self) -> Result<Session, LeqaError> {
        let options = self.options.unwrap_or_default();
        if options.max_esq_terms == 0 {
            return Err(LeqaError::new(
                ErrorKind::Invalid,
                "estimator option `max_esq_terms` must be positive",
            ));
        }
        let store = match self.cache_dir {
            None => None,
            Some(dir) => Some(Arc::new(
                ProfileStore::open(dir)
                    .map_err(LeqaError::from)
                    .map_err(|e| e.context("opening the profile snapshot store"))?,
            )),
        };
        Ok(Session {
            fabric: self.fabric.unwrap_or_else(FabricDims::dac13),
            params: self.params.unwrap_or_else(PhysicalParams::dac13),
            options,
            cache: ShardedCache::default(),
            benches: RwLock::new(HashMap::new()),
            streams: RwLock::new(HashMap::new()),
            streaming_threshold: self
                .streaming_threshold
                .unwrap_or(DEFAULT_STREAMING_THRESHOLD),
            counters: Arc::new(Counters::default()),
            store,
        })
    }
}

/// One configured LEQA service instance: the single supported entry point
/// for applications (see the crate docs for an example).
///
/// `Session` is `Send + Sync` with every endpoint on `&self` — share one
/// instance across however many threads the service runs (see the module
/// docs for the concurrency model).
#[derive(Debug)]
pub struct Session {
    fabric: FabricDims,
    params: PhysicalParams,
    options: EstimatorOptions,
    cache: ShardedCache,
    /// Bench names already resolved, mapped to the content-cache entry
    /// their load produced. Generators are pure functions of the name,
    /// so a later request naming it skips regeneration, the canonical
    /// write and the content hash. Only successful loads are indexed. A
    /// load racing `clear_cache` may index its program after the clear:
    /// the entry is still the right program, so the race can cost at
    /// most a second profile for the same content, never a wrong answer.
    benches: RwLock<HashMap<String, Arc<ProgramData>>>,
    /// Streamed programs, keyed by canonical stream name. A single map
    /// (not sharded): entries are a handful of generator descriptors, and
    /// the hot path is a read lock.
    streams: RwLock<HashMap<String, Arc<StreamedProgram>>>,
    streaming_threshold: u64,
    counters: Arc<Counters>,
    store: Option<Arc<ProfileStore>>,
}

/// The `Send + Sync` contract is part of the public API (concurrent
/// services depend on it); this fails to compile if an unsound field
/// sneaks in.
#[allow(dead_code)]
fn _assert_session_is_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<Session>();
    assert::<ProgramHandle>();
    assert::<CacheStats>();
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The session fabric.
    #[must_use]
    pub fn fabric(&self) -> FabricDims {
        self.fabric
    }

    /// The physical parameters.
    #[must_use]
    pub fn params(&self) -> &PhysicalParams {
        &self.params
    }

    /// The estimator options.
    #[must_use]
    pub fn options(&self) -> &EstimatorOptions {
        &self.options
    }

    /// The op-count threshold at which [`estimate`](Self::estimate)
    /// streams generator-backed workloads (see
    /// [`SessionBuilder::streaming_threshold`]).
    #[must_use]
    pub fn streaming_threshold(&self) -> u64 {
        self.streaming_threshold
    }

    /// The cache counters (atomic snapshots; under concurrent load each
    /// counter is exact and monotone). At quiescence
    /// `cache_hits + cache_misses == loads`; a snapshot taken while
    /// loads are in flight may observe `cache_hits + cache_misses <
    /// loads` (each load bumps `loads` first), never the reverse.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        // Read the halves before `loads` (see `Counters` for the
        // release/acquire pairing that makes the inequality hold).
        let cache_hits = self.counters.hits.load(Ordering::Acquire);
        let cache_misses = self.counters.misses.load(Ordering::Acquire);
        CacheStats {
            profile_builds: self.counters.profile_builds.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            loads: self.counters.loads.load(Ordering::Acquire),
        }
    }

    /// The snapshot-store counters (zero on sessions without a
    /// [`SessionBuilder::cache_dir`]).
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        StoreStats {
            store_hits: self.counters.store_hits.load(Ordering::Relaxed),
            store_misses: self.counters.store_misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached program and the bench-name index (in-memory
    /// only; disk snapshots, if configured, survive and re-warm the next
    /// loads).
    pub fn clear_cache(&self) {
        self.benches.write().expect("no poisoning").clear();
        self.cache.clear();
        self.streams.write().expect("no poisoning").clear();
    }

    /// Loads (or fetches from cache) the program a spec names.
    ///
    /// The cache key is a content hash of the canonical circuit text, so
    /// the same program reached through different specs — a benchmark
    /// name, a file, inline source — shares one profile. A benchmark
    /// name is resolved once per session: later loads naming it go
    /// straight to the cached program (a cache hit) without
    /// regenerating or re-hashing the circuit.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Usage`] for unknown benchmark names, [`ErrorKind::Io`]
    /// for unreadable files, [`ErrorKind::Parse`]/[`ErrorKind::Invalid`]
    /// for bad circuit text.
    pub fn load(&self, spec: &ProgramSpec) -> Result<ProgramHandle, LeqaError> {
        self.load_tracking(spec).map(|(handle, _)| handle)
    }

    fn handle(&self, label: String, shared: Arc<ProgramData>) -> ProgramHandle {
        ProgramHandle {
            label,
            shared,
            counters: Arc::clone(&self.counters),
            store: self.store.clone(),
        }
    }

    /// Like [`load`](Self::load), also reporting whether the program came
    /// from the cache.
    fn load_tracking(&self, spec: &ProgramSpec) -> Result<(ProgramHandle, bool), LeqaError> {
        if let ProgramSpec::Bench { name } = spec {
            let indexed = self
                .benches
                .read()
                .expect("no poisoning")
                .get(name)
                .map(Arc::clone);
            if let Some(shared) = indexed {
                self.counters.record_hit();
                return Ok((self.handle(name.clone(), shared), true));
            }
        }
        let (label, circuit) = match spec {
            ProgramSpec::Bench { name } => {
                let circuit = leqa_workloads::circuit_by_name(name).ok_or_else(|| {
                    match leqa_workloads::check_workload_name(name) {
                        // A recognized parametric family with out-of-range
                        // parameters (`shor_0`, an overflowing width…) is a
                        // *invalid* request, not an unknown name.
                        Err(leqa_workloads::WorkloadNameError::Invalid { reason }) => {
                            LeqaError::new(ErrorKind::Invalid, reason)
                        }
                        _ => LeqaError::usage(format!(
                            "unknown benchmark `{name}`; names follow Table 3 (e.g. gf2^16mult) \
                             or the parametric forms (e.g. qft_64)"
                        )),
                    }
                })?;
                (name.clone(), circuit)
            }
            ProgramSpec::Path { path } => {
                let text = std::fs::read_to_string(path)
                    .map_err(LeqaError::from)
                    .map_err(|e| e.context(format!("reading `{path}`")))?;
                let circuit = parser::parse(&text)?;
                let label = circuit.name().unwrap_or(path.as_str()).to_string();
                (label, circuit)
            }
            ProgramSpec::Source { text } => {
                let circuit = parser::parse(text)?;
                let label = circuit.name().unwrap_or("<inline>").to_string();
                (label, circuit)
            }
        };
        let source = parser::write(&circuit);
        let key = fnv1a(source.as_bytes());
        let (shared, cached) = match self.cache.lookup(key, &source) {
            Some(shared) => {
                self.counters.record_hit();
                (shared, true)
            }
            None => {
                // Miss: lower outside any lock (the expensive part), then
                // insert-or-adopt under the shard write lock. A concurrent
                // load of the same program may win the race; the loser
                // adopts the winner's entry so profiles stay exactly-once.
                let ft = lower_to_ft(&circuit)
                    .map_err(LeqaError::from)
                    .map_err(|e| e.context(format!("lowering `{label}`")))?;
                let candidate = Arc::new(ProgramData {
                    source,
                    key,
                    qodg: Qodg::from(ft),
                    profile: OnceLock::new(),
                });
                let (shared, fresh) = self.cache.insert(key, candidate);
                if fresh {
                    self.counters.record_miss();
                } else {
                    self.counters.record_hit();
                }
                (shared, !fresh)
            }
        };
        if let ProgramSpec::Bench { name } = spec {
            // Racing first loads adopted one content-cache entry, so
            // whichever inserts first indexes the same program the others
            // hold.
            self.benches
                .write()
                .expect("no poisoning")
                .entry(name.clone())
                .or_insert_with(|| Arc::clone(&shared));
        }
        Ok((self.handle(label, shared), cached))
    }

    /// Resolves a per-request fabric override against the session fabric.
    fn resolve_fabric(&self, spec: Option<FabricSpec>) -> Result<FabricDims, LeqaError> {
        match spec {
            None => Ok(self.fabric),
            Some(f) => FabricDims::new(f.width, f.height).map_err(LeqaError::from),
        }
    }

    // ── Endpoints ────────────────────────────────────────────────────────

    /// Runs Algorithm 1 on one program.
    ///
    /// # Errors
    ///
    /// Any load error (see [`load`](Self::load)), or
    /// [`ErrorKind::Estimate`] when the program does not fit the fabric.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn estimate(&self, req: &EstimateRequest) -> Result<EstimateResponse, LeqaError> {
        // Size axis: a generator-backed workload at or above the
        // streaming threshold never materializes — its profile and
        // critical path are computed from the gate stream in bounded
        // memory, bit-identical to the materialized pipeline.
        if let ProgramSpec::Bench { name } = &req.program {
            if let Some(stream) = leqa_workloads::stream_by_name(name) {
                if stream.ft_op_count() >= self.streaming_threshold {
                    return self.run_estimate_streamed(req, name, stream);
                }
            }
        }
        let (handle, cached) = self.load_tracking(&req.program)?;
        self.run_estimate(req, &handle, cached)
    }

    /// Estimates one program across candidate square fabrics, through the
    /// amortised sweep engine (bit-identical to independent estimates).
    ///
    /// # Errors
    ///
    /// Any load error, or [`ErrorKind::Invalid`] for a malformed size.
    /// Candidates too small for the program yield unfit points, not
    /// errors.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn sweep(&self, req: &SweepRequest) -> Result<SweepResponse, LeqaError> {
        let (handle, _) = self.load_tracking(&req.program)?;
        self.run_sweep(req, &handle)
    }

    /// Computes the per-qubit presence-zone report.
    ///
    /// # Errors
    ///
    /// Any load error.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn zones(&self, req: &ZonesRequest) -> Result<ZonesResponse, LeqaError> {
        let (handle, _) = self.load_tracking(&req.program)?;
        self.run_zones(req, &handle)
    }

    /// Runs the Table 2 experiment: detailed QSPR mapping next to the
    /// LEQA estimate.
    ///
    /// # Errors
    ///
    /// Any load error, [`ErrorKind::Map`] or [`ErrorKind::Estimate`] when
    /// the program does not fit.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn compare(&self, req: &CompareRequest) -> Result<CompareResponse, LeqaError> {
        let (handle, _) = self.load_tracking(&req.program)?;
        self.run_compare(req, &handle)
    }

    /// Runs the detailed QSPR mapper.
    ///
    /// # Errors
    ///
    /// Any load error, or [`ErrorKind::Map`] when the program does not
    /// fit.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn map(&self, req: &MapRequest) -> Result<MapResponse, LeqaError> {
        let (handle, _) = self.load_tracking(&req.program)?;
        self.run_map(req, &handle)
    }

    /// Executes one request of any kind.
    ///
    /// # Errors
    ///
    /// The named endpoint's errors.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn execute(&self, req: &Request) -> Result<Response, LeqaError> {
        match req {
            Request::Estimate(r) => self.estimate(r).map(Response::Estimate),
            Request::Sweep(r) => self.sweep(r).map(Response::Sweep),
            Request::Zones(r) => self.zones(r).map(Response::Zones),
            Request::Compare(r) => self.compare(r).map(Response::Compare),
            Request::Map(r) => self.map(r).map(Response::Map),
        }
    }

    /// Executes a batch of requests in order, one result slot per
    /// request: each slot is what [`execute`](Self::execute) answers for
    /// its request at that point in the sequence, `profile_cached` flags
    /// and [`CacheStats`] included. A failing request fails only its own
    /// slot, with `batch request {i}` added to its error's context.
    #[must_use = "the batch response carries every per-request outcome"]
    pub fn batch(&self, requests: &[Request]) -> BatchResponse {
        let results = requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                self.execute(req)
                    .map_err(|e| e.context(format!("batch request {i}")))
            })
            .collect();
        BatchResponse { results }
    }

    /// The streaming counterpart of [`run_estimate`](Self::run_estimate):
    /// profile from the [`StreamingProfileBuilder`], critical path from a
    /// second pass over the stream, QODG never built. Cache accounting
    /// mirrors the materialized path — a session-resident stream entry is
    /// a hit, the snapshot store is consulted under a `stream:`-prefixed
    /// pseudo-source, and `profile_builds` counts streaming builds too.
    fn run_estimate_streamed(
        &self,
        req: &EstimateRequest,
        label: &str,
        stream: ShorStream,
    ) -> Result<EstimateResponse, LeqaError> {
        let dims = self.resolve_fabric(req.fabric)?;
        let key = stream.name();
        let (entry, cached) = {
            let resident = self
                .streams
                .read()
                .expect("no poisoning")
                .get(&key)
                .map(Arc::clone);
            match resident {
                Some(entry) => {
                    self.counters.record_hit();
                    (entry, true)
                }
                None => match self.streams.write().expect("no poisoning").entry(key) {
                    Entry::Occupied(existing) => {
                        // Another thread won the race; adopt its entry so
                        // the profile stays exactly-once.
                        self.counters.record_hit();
                        (Arc::clone(existing.get()), true)
                    }
                    Entry::Vacant(slot) => {
                        let entry = Arc::new(StreamedProgram {
                            stream,
                            profile: OnceLock::new(),
                        });
                        slot.insert(Arc::clone(&entry));
                        self.counters.record_miss();
                        (entry, false)
                    }
                },
            }
        };

        let source = format!("stream:{}", entry.stream.name());
        let data = entry.profile.get_or_init(|| {
            let source_key = fnv1a(source.as_bytes());
            if let Some(store) = &self.store {
                match store.load_keyed(source_key, &source) {
                    Ok(data) => {
                        self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
                        return data;
                    }
                    Err(_) => {
                        self.counters.store_misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            self.counters.profile_builds.fetch_add(1, Ordering::Relaxed);
            let mut builder = StreamingProfileBuilder::new(entry.stream.num_qubits());
            for op in entry.stream.ops() {
                builder.push(op);
            }
            let data = builder
                .finish()
                .expect("generated shor streams are well-formed");
            if let Some(store) = &self.store {
                let _ = store.save_keyed(source_key, &source, &data);
            }
            data
        });

        let estimator = Estimator::with_options(dims, self.params.clone(), self.options);
        let estimate = estimator.estimate_stream_with_data(
            entry.stream.num_qubits(),
            data,
            entry.stream.ops(),
        )?;
        Ok(EstimateResponse {
            program: ProgramSummary {
                label: label.to_string(),
                qubits: u64::from(entry.stream.num_qubits()),
                ops: entry.stream.ft_op_count(),
            },
            fabric: FabricSpec::new(dims.width(), dims.height()),
            latency_us: estimate.latency.as_f64(),
            l_cnot_avg_us: estimate.l_cnot_avg.as_f64(),
            l_one_qubit_avg_us: estimate.l_one_qubit_avg.as_f64(),
            d_uncong_us: estimate.d_uncong.as_f64(),
            avg_zone_area: estimate.avg_zone_area,
            zone_side: estimate.zone_side,
            esq: estimate.esq,
            critical_cnots: estimate.critical.cnot_count,
            critical_one_qubit: estimate.critical.one_qubit_counts.iter().sum(),
            profile_cached: cached,
        })
    }

    fn run_estimate(
        &self,
        req: &EstimateRequest,
        handle: &ProgramHandle,
        cached: bool,
    ) -> Result<EstimateResponse, LeqaError> {
        let dims = self.resolve_fabric(req.fabric)?;
        let estimator = Estimator::with_options(dims, self.params.clone(), self.options);
        let profile = ProgramProfile::from_data(handle.qodg(), handle.profile_data());
        let estimate = estimator.estimate_with_profile(&profile)?;
        Ok(EstimateResponse {
            program: handle.summary(),
            fabric: FabricSpec::new(dims.width(), dims.height()),
            latency_us: estimate.latency.as_f64(),
            l_cnot_avg_us: estimate.l_cnot_avg.as_f64(),
            l_one_qubit_avg_us: estimate.l_one_qubit_avg.as_f64(),
            d_uncong_us: estimate.d_uncong.as_f64(),
            avg_zone_area: estimate.avg_zone_area,
            zone_side: estimate.zone_side,
            esq: estimate.esq,
            critical_cnots: estimate.critical.cnot_count,
            critical_one_qubit: estimate.critical.one_qubit_counts.iter().sum(),
            profile_cached: cached,
        })
    }

    fn run_sweep(
        &self,
        req: &SweepRequest,
        handle: &ProgramHandle,
    ) -> Result<SweepResponse, LeqaError> {
        let profile = ProgramProfile::from_data(handle.qodg(), handle.profile_data());
        let points = sweep_profile_squares(
            &profile,
            &self.params,
            self.options,
            req.sizes.iter().copied(),
        )
        .map_err(LeqaError::from)?;

        let mut optimal: Option<(u32, f64)> = None;
        let points: Vec<SweepPointDto> = points
            .into_iter()
            .map(|point| {
                let side = point.dims.width();
                match point.estimate {
                    None => SweepPointDto {
                        side,
                        l_cnot_avg_us: None,
                        latency_us: None,
                    },
                    Some(e) => {
                        let latency = e.latency.as_f64();
                        if optimal.is_none_or(|(_, best)| latency < best) {
                            optimal = Some((side, latency));
                        }
                        SweepPointDto {
                            side,
                            l_cnot_avg_us: Some(e.l_cnot_avg.as_f64()),
                            latency_us: Some(latency),
                        }
                    }
                }
            })
            .collect();

        Ok(SweepResponse {
            program: handle.summary(),
            points,
            optimal_side: optimal.map(|(side, _)| side),
        })
    }

    fn run_zones(
        &self,
        req: &ZonesRequest,
        handle: &ProgramHandle,
    ) -> Result<ZonesResponse, LeqaError> {
        let report = zone_report_from_iig(handle.profile_data().iig(), self.params.qubit_speed());
        let total_rows = report.len() as u64;
        let mut rows: Vec<&leqa::report::QubitZone> = report.iter().collect();
        rows.sort_by_key(|z| std::cmp::Reverse(z.strength));
        let limit = match req.limit {
            None | Some(0) => rows.len(),
            Some(n) => usize::try_from(n).unwrap_or(usize::MAX).min(rows.len()),
        };
        Ok(ZonesResponse {
            program: handle.summary(),
            fabric: FabricSpec::new(self.fabric.width(), self.fabric.height()),
            rows: rows
                .into_iter()
                .take(limit)
                .map(|z| ZoneRowDto {
                    qubit: z.qubit.0,
                    degree: z.degree,
                    strength: z.strength,
                    zone_area: z.zone_area,
                    expected_path: z.expected_path,
                    uncongested_delay_us: z.uncongested_delay.as_f64(),
                })
                .collect(),
            total_rows,
        })
    }

    fn run_compare(
        &self,
        req: &CompareRequest,
        handle: &ProgramHandle,
    ) -> Result<CompareResponse, LeqaError> {
        let dims = self.resolve_fabric(req.fabric)?;
        // The estimate needs the profile anyway; the mapper places from
        // its IIG instead of counting the program's again.
        let data = handle.profile_data();
        let actual =
            Mapper::new(dims, self.params.clone()).map_with_iig(handle.qodg(), data.iig())?;
        let profile = ProgramProfile::from_data(handle.qodg(), data);
        let estimate = Estimator::with_options(dims, self.params.clone(), self.options)
            .estimate_with_profile(&profile)?;

        let actual_us = actual.latency.as_f64();
        let estimated_us = estimate.latency.as_f64();
        Ok(CompareResponse {
            program: handle.summary(),
            fabric: FabricSpec::new(dims.width(), dims.height()),
            actual_us,
            estimated_us,
            error_pct: (actual_us > 0.0)
                .then(|| 100.0 * (estimated_us - actual_us).abs() / actual_us),
        })
    }

    fn run_map(&self, req: &MapRequest, handle: &ProgramHandle) -> Result<MapResponse, LeqaError> {
        let dims = self.resolve_fabric(req.fabric)?;
        let mapper = Mapper::with_config(MapperConfig {
            dims,
            params: self.params.clone(),
            placement: req.placement,
            router: req.router,
            movement: req.movement,
            seed: 0,
        });
        let (result, trace) = if req.trace_limit > 0 {
            let (r, t) = mapper.map_with_trace(handle.qodg())?;
            let rows = usize::try_from(req.trace_limit).unwrap_or(usize::MAX);
            (r, Some(t.summary(rows)))
        } else {
            (mapper.map(handle.qodg())?, None)
        };
        Ok(MapResponse {
            program: handle.summary(),
            fabric: FabricSpec::new(dims.width(), dims.height()),
            latency_us: result.latency.as_f64(),
            cnot_ops: result.stats.cnot_ops,
            avg_cnot_distance: result.stats.avg_cnot_distance(),
            congestion_wait_us: result.stats.congestion_wait.as_f64(),
            max_channel_load: result.stats.max_channel_load,
            trace,
        })
    }
}

/// FNV-1a over the canonical circuit bytes: stable, dependency-free, and
/// plenty for a cache key (lookups verify the source on hit, so a
/// collision costs a rebuild, never a wrong answer). The same hash picks
/// the cache shard (`key mod 16`).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_and_repeats() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }

    #[test]
    fn shards_spread_keys() {
        let cache = ShardedCache::default();
        // Distinct keys land on distinct shards at least sometimes.
        let shards: std::collections::HashSet<usize> = (0u64..64)
            .map(|k| {
                let shard = cache.shard(fnv1a(&k.to_le_bytes()));
                cache
                    .shards
                    .iter()
                    .position(|s| std::ptr::eq(s, shard))
                    .expect("shard belongs to the cache")
            })
            .collect();
        assert!(shards.len() > 4, "FNV should spread across shards");
    }
}
