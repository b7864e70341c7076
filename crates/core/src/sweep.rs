//! Parallel parameter-sweep engine with deterministic replay.
//!
//! The paper's experiments (Fig. 6a–c, Table III) are all sweeps: the
//! same traced run simulated across a grid of platforms and chunk
//! policies. This module turns that pattern into a first-class
//! subsystem:
//!
//! * [`SweepGrid`] — the cartesian product of traced apps ×
//!   [`Platform`]s × [`ChunkPolicy`]s;
//! * [`sweep()`] — evaluates every grid point on a
//!   [`scheduler`] worker pool (`--jobs N`), with results slotted by
//!   point index so **output is bit-identical for any worker count**;
//! * [`SweepCache`] — a content-hash cache keyed by
//!   `(trace fingerprint, platform fingerprint, policy fingerprint)`:
//!   re-sweeping an unchanged point is a lookup, not a simulation;
//! * graceful failure — a panicking or erroring point yields a
//!   [`PointError`] in its slot ([`PointOutcome`]); the sweep always
//!   completes.
//!
//! Determinism rests on three facts: the replay engine is a pure
//! function of `(trace, platform)`; the scheduler assigns results by
//! input index; and fingerprints/hashes are computed with FNV-1a over
//! canonical byte encodings (`f64::to_bits`, sorted access-log keys;
//! access stamps through a word-wise digest folded into that chain),
//! never over pointer identity or iteration order of hash maps.

pub mod chaos;
pub mod guard;
pub mod scheduler;
pub mod store;

use crate::chunk::ChunkPolicy;
use crate::experiments::speedup::{recorded, recorders, run_variants_on, Variants};
use crate::pipeline::{build_variants, VariantBundle};
use ovlp_instr::TraceRun;
use ovlp_machine::{CritPath, Metrics, Platform, Replayer, SimError, Time};
use ovlp_trace::record::SendMode;
use ovlp_trace::{text, Stamp, Trace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------
// FNV-1a hashing over canonical encodings
// ---------------------------------------------------------------------

/// Incremental 64-bit FNV-1a hasher over explicit byte encodings.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn new() -> Fnv {
        Fnv::default()
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u32(self, v: u32) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// Canonical f64 encoding: the IEEE-754 bit pattern. Distinguishes
    /// `-0.0` from `0.0` and hashes infinities/NaNs stably, which is
    /// exactly right for "same platform ⇒ same key".
    pub fn f64(self, v: f64) -> Fnv {
        self.u64(v.to_bits())
    }

    pub fn str(self, s: &str) -> Fnv {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------
// Fingerprints and cache keys
// ---------------------------------------------------------------------

/// Generation of [`trace_fingerprint`]'s definition, hashed first. A
/// new definition takes a new tag, so its keys are visibly apart from
/// every earlier one; stores written under an older generation miss
/// once per point and are re-filled.
const TRACE_FINGERPRINT_GEN: &str = "ovlp.trace-fingerprint.2";

/// Content fingerprint of one traced run: an FNV-1a chain over the
/// generation tag, the rank count and the canonical text emission of
/// the trace, then every access log in sorted-transfer order (the
/// access DB is hash-map backed, so its iteration order must not leak
/// into the fingerprint): its header fields and the `stamp_digest` of
/// its packed [`Stamp`] words. Scatter events are not hashed, so a lean
/// trace and a scatter-capturing one share a fingerprint.
pub fn trace_fingerprint(run: &TraceRun) -> u64 {
    // The rank count is hashed explicitly (it is also inside the text
    // emission, but the weak-scaling axis makes it a first-class sweep
    // dimension: two rank counts of the same app must never share a
    // store entry, regardless of how the text format evolves).
    let mut h = Fnv::new()
        .str(TRACE_FINGERPRINT_GEN)
        .u64(run.trace.nranks() as u64)
        .str(&text::emit(&run.trace));
    for (r, rank) in run.access.ranks.iter().enumerate() {
        h = h.u64(r as u64);
        let mut prods: Vec<_> = rank.productions.values().collect();
        prods.sort_by_key(|p| (p.transfer.rank.0, p.transfer.seq));
        for p in prods {
            h = h
                .u32(p.transfer.rank.0)
                .u32(p.transfer.seq)
                .u32(p.elems)
                .u64(p.interval_start.0)
                .u64(p.interval_end.0)
                .u64(stamp_digest(p.last_store()));
        }
        let mut cons: Vec<_> = rank.consumptions.values().collect();
        cons.sort_by_key(|c| (c.transfer.rank.0, c.transfer.seq));
        for c in cons {
            h = h
                .u32(c.transfer.rank.0)
                .u32(c.transfer.seq)
                .u32(c.elems)
                .u64(c.interval_start.0)
                .u64(c.interval_end.0)
                .u64(stamp_digest(c.first_load()));
        }
    }
    h.finish()
}

/// Odd multipliers of the [`stamp_digest`] lanes.
const LANE_MUL: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xd6e8_feb8_6659_fd93,
];

/// Digest of one log's packed stamps: word `i` enters lane `i % 4` as
/// `lane = rotl((lane ^ word) * LANE_MUL[lane], 29)`, then the lanes and
/// the slice length are merged and finalized. Each step is a bijection
/// of the lane, so changing any one word always changes the digest;
/// the four independent chains keep the multiplier pipeline full where
/// one FNV-1a chain waits on every byte.
fn stamp_digest(stamps: &[Stamp]) -> u64 {
    #[inline(always)]
    fn step(lane: u64, word: u64, mul: u64) -> u64 {
        (lane ^ word).wrapping_mul(mul).rotate_left(29)
    }
    let mut lanes = LANE_MUL;
    let mut quads = stamps.chunks_exact(4);
    for q in &mut quads {
        for j in 0..4 {
            lanes[j] = step(lanes[j], q[j].bits(), LANE_MUL[j]);
        }
    }
    for (j, s) in quads.remainder().iter().enumerate() {
        lanes[j] = step(lanes[j], s.bits(), LANE_MUL[j]);
    }
    let mut h = stamps.len() as u64;
    for lane in lanes {
        h = step(h, lane, LANE_MUL[0]);
    }
    // murmur3's 64-bit finalizer: every lane bit reaches every output bit
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Fingerprint of every field that influences simulated time.
pub fn platform_fingerprint(p: &Platform) -> u64 {
    let mut h = Fnv::new()
        .f64(p.mips)
        .f64(p.bandwidth_mbs)
        .f64(p.latency_us)
        .u32(p.buses)
        .u32(p.input_ports)
        .u32(p.output_ports)
        .str(p.collective.name())
        .u32(p.ranks_per_node)
        .f64(p.intra_bandwidth_mbs)
        .f64(p.intra_latency_us)
        .u64(match p.eager_threshold_bytes {
            Some(b) => b + 1,
            None => 0,
        })
        .u32(p.nodes_per_machine)
        .f64(p.wan_bandwidth_mbs)
        .f64(p.wan_latency_us)
        .u32(p.wan_links)
        // canonical topology spec: "bus", "crossbar", "fat-tree:8:2", …
        .str(&p.contention.to_string())
        // canonical fault schedule: "" when empty, else
        // "kill@0.001s:h0->e0;restore@0.002s:h0->e0"-style — Display is
        // injective over validated schedules, so distinct schedules
        // always get distinct cache keys
        .str(&p.faults.to_string());
    h = h.u64(p.cpu_ratios.len() as u64);
    for &r in &p.cpu_ratios {
        h = h.f64(r);
    }
    h.finish()
}

/// Fingerprint of a chunking policy.
pub fn policy_fingerprint(p: &ChunkPolicy) -> u64 {
    Fnv::new()
        .u32(p.chunks)
        .u32(p.min_chunk_elems)
        .str(match p.mode {
            SendMode::Eager => "eager",
            SendMode::Rendezvous => "rendezvous",
        })
        .finish()
}

/// Cache key of one sweep point: what was simulated, not where it sat
/// in the grid. Two grids containing the same (trace, platform, policy)
/// triple share cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointKey(pub u64);

pub fn point_key(trace_fp: u64, platform: &Platform, policy: &ChunkPolicy) -> PointKey {
    PointKey(
        Fnv::new()
            .u64(trace_fp)
            .u64(platform_fingerprint(platform))
            .u64(policy_fingerprint(policy))
            .finish(),
    )
}

// ---------------------------------------------------------------------
// Grid
// ---------------------------------------------------------------------

/// One traced application entering a sweep. The trace fingerprint is
/// known at construction (one pass over the access stamps) and shared
/// by every grid point of this app.
///
/// An app is either *eager* ([`SweepApp::new`]: the run is held from
/// the start) or *deferred* ([`SweepApp::deferred`]: only the
/// fingerprint is known, and the run is re-traced the first time a
/// point misses the cache). Point keys need only the fingerprint, so a
/// sweep whose every point hits never traces a deferred app.
#[derive(Debug, Clone)]
pub struct SweepApp {
    pub name: String,
    /// The traced run; derefs to the [`TraceRun`], materializing a
    /// deferred app on first access.
    pub run: Arc<AppRun>,
    fingerprint: u64,
}

impl SweepApp {
    pub fn new(name: impl Into<String>, run: TraceRun) -> SweepApp {
        let fingerprint = trace_fingerprint(&run);
        SweepApp {
            name: name.into(),
            run: Arc::new(AppRun {
                run: OnceLock::from(Ok(run)),
                retrace: None,
            }),
            fingerprint,
        }
    }

    /// An app whose trace fingerprint is already known. `retrace`
    /// reproduces the run; it is called at most once, and only when a
    /// point needs a replay. Its output must fingerprint to
    /// `fingerprint`, or every point that needs it fails with a
    /// [`FailKind::Transform`] error (so a result is never stored
    /// under a key that does not hash the trace it came from).
    pub fn deferred(
        name: impl Into<String>,
        fingerprint: u64,
        retrace: impl Fn() -> Result<TraceRun, String> + Send + Sync + 'static,
    ) -> SweepApp {
        SweepApp {
            name: name.into(),
            run: Arc::new(AppRun {
                run: OnceLock::new(),
                retrace: Some((fingerprint, Box::new(retrace))),
            }),
            fingerprint,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

type Retrace = Box<dyn Fn() -> Result<TraceRun, String> + Send + Sync>;

/// The run behind a [`SweepApp`]: held from construction, or re-traced
/// once on first use and checked against the expected fingerprint.
pub struct AppRun {
    run: OnceLock<Result<TraceRun, String>>,
    /// Deferred apps only: the fingerprint the re-trace must reproduce,
    /// and how to re-trace.
    retrace: Option<(u64, Retrace)>,
}

impl AppRun {
    /// The materialized run. A deferred run is re-traced on the first
    /// call (concurrent callers wait for it) and never again; a failed
    /// or mismatching re-trace is remembered as the error.
    pub(crate) fn get(&self) -> Result<&TraceRun, &str> {
        self.run
            .get_or_init(|| {
                let (expected, retrace) = self
                    .retrace
                    .as_ref()
                    .expect("an eager run is set at construction");
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(retrace))
                    .map_err(|p| format!("re-trace panicked: {}", panic_message(p)))??;
                let got = trace_fingerprint(&run);
                if got != *expected {
                    return Err(format!(
                        "trace fingerprint mismatch: expected {expected:016x}, re-trace gave {got:016x}"
                    ));
                }
                Ok(run)
            })
            .as_ref()
            .map_err(String::as_str)
    }

    /// For a deferred run whose re-trace was attempted, its outcome;
    /// `None` for an eager run or one never needed.
    pub fn retraced(&self) -> Option<Result<(), &str>> {
        self.retrace.as_ref()?;
        let outcome = self.run.get()?;
        Some(outcome.as_ref().map(|_| ()).map_err(String::as_str))
    }
}

impl std::ops::Deref for AppRun {
    type Target = TraceRun;

    fn deref(&self) -> &TraceRun {
        self.get()
            .unwrap_or_else(|e| panic!("deferred trace unavailable: {e}"))
    }
}

impl std::fmt::Debug for AppRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppRun")
            .field("deferred", &self.retrace.is_some())
            .field("materialized", &self.run.get().map(Result::is_ok))
            .finish()
    }
}

/// The full cartesian sweep specification.
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    pub apps: Vec<SweepApp>,
    pub platforms: Vec<Platform>,
    pub policies: Vec<ChunkPolicy>,
}

/// Indices of one grid point, `(app, platform, policy)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepPoint {
    pub app: usize,
    pub platform: usize,
    pub policy: usize,
}

impl SweepGrid {
    pub fn len(&self) -> usize {
        self.apps.len() * self.platforms.len() * self.policies.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grid points in canonical order: app-major, then platform, then
    /// policy. This order defines point indices and therefore report
    /// order, regardless of execution interleaving.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut pts = Vec::with_capacity(self.len());
        for app in 0..self.apps.len() {
            for platform in 0..self.platforms.len() {
                for policy in 0..self.policies.len() {
                    pts.push(SweepPoint {
                        app,
                        platform,
                        policy,
                    });
                }
            }
        }
        pts
    }
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// Simulated outcome of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    pub point: SweepPoint,
    pub key: PointKey,
    pub app: String,
    /// Simulated runtime of the original (non-overlapped) trace, s.
    pub t_original: f64,
    /// Simulated runtime of the overlapped trace (measured patterns), s.
    pub t_overlapped: f64,
    /// Simulated runtime of the overlapped-ideal trace, s.
    pub t_ideal: f64,
    /// Windowed metrics of the three variants, recorded only when the
    /// sweep ran with [`SweepConfig::probe_window_us`]. Deliberately
    /// excluded from [`PointResult::result_hash`], so replay
    /// fingerprints are identical with probes on or off.
    pub metrics: Option<Arc<Variants<Metrics>>>,
    /// Critical paths of the three variants, recorded only when the
    /// sweep ran with [`SweepConfig::critpath`]. Excluded from
    /// [`PointResult::result_hash`] and never persisted, exactly like
    /// `metrics`, so attribution never changes a replay fingerprint.
    pub critpaths: Option<Arc<Variants<CritPath>>>,
}

impl PointResult {
    pub fn speedup_real(&self) -> f64 {
        self.t_original / self.t_overlapped
    }

    pub fn speedup_ideal(&self) -> f64 {
        self.t_original / self.t_ideal
    }

    /// Content hash of the numeric result — exact bit patterns, so two
    /// runs agree on this hash iff they agree on every output bit.
    pub fn result_hash(&self) -> u64 {
        Fnv::new()
            .str(&self.app)
            .u64(self.key.0)
            .f64(self.t_original)
            .f64(self.t_overlapped)
            .f64(self.t_ideal)
            .finish()
    }
}

/// A failed grid point: simulation error, invalid platform, or a panic
/// inside the worker. The sweep reports it and carries on.
#[derive(Debug, Clone, PartialEq)]
pub struct PointError {
    pub point: SweepPoint,
    /// Failure classification; wire-stable names via [`FailKind::name`].
    pub kind: FailKind,
    pub message: String,
}

/// Why a grid point failed. The classification decides retryability
/// (only transient failures — panics and timeouts — are worth another
/// attempt; deterministic failures would fail identically) and is
/// carried on the wire so clients can tell a poisoned spec from an
/// unlucky worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// `Platform::check` rejected the platform.
    Platform,
    /// Building the variant bundle failed.
    Transform,
    /// The replay itself reported an error.
    Sim,
    /// The point computation panicked.
    Panic,
    /// The attempt exceeded its wall-clock deadline.
    Timeout,
    /// The point was quarantined after repeated transient failures.
    Quarantined,
    /// The owning job was cancelled before this point ran.
    Cancelled,
}

impl FailKind {
    pub fn name(self) -> &'static str {
        match self {
            FailKind::Platform => "platform",
            FailKind::Transform => "transform",
            FailKind::Sim => "sim",
            FailKind::Panic => "panic",
            FailKind::Timeout => "timeout",
            FailKind::Quarantined => "quarantined",
            FailKind::Cancelled => "cancelled",
        }
    }

    /// Only transient failures are retried under a
    /// [`guard::PointGuard`]; everything else is deterministic.
    pub fn retryable(self) -> bool {
        matches!(self, FailKind::Panic | FailKind::Timeout)
    }
}

/// What one grid point produced.
pub type PointOutcome = Result<PointResult, PointError>;

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

/// Content-addressed result store shared across sweeps (and, when
/// opened with [`SweepCache::persistent`], across processes). Because
/// keys are content fingerprints, a hit is guaranteed to be the result
/// the simulation would have produced — replay is a pure function of
/// the keyed inputs.
///
/// Three tiers, consulted in order by [`SweepCache::claim`]:
///
/// 1. **memory** — a plain map of results seen by this process;
/// 2. **disk** — the optional [`store::DiskStore`], hash-verified on
///    read and written atomically, shared by every process pointed at
///    the same directory;
/// 3. **in-flight** — points currently being simulated by *some*
///    thread. A second claimant of the same key blocks until the first
///    finishes instead of duplicating the work (counted in
///    [`SweepCache::coalesced`]). If the computing thread fails or
///    panics, its claim is released and one waiter takes over.
#[derive(Debug, Default)]
pub struct SweepCache {
    map: Mutex<HashMap<PointKey, PointResult>>,
    inflight: Mutex<HashMap<PointKey, Arc<Inflight>>>,
    disk: Option<store::DiskStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

#[derive(Debug, Default)]
struct Inflight {
    state: Mutex<InflightState>,
    done: std::sync::Condvar,
}

#[derive(Debug, Default, Clone)]
enum InflightState {
    #[default]
    Pending,
    Done(PointResult),
    /// The computing thread gave up (error or panic); waiters re-claim.
    Abandoned,
}

/// Outcome of [`SweepCache::claim`].
pub enum Claim<'a> {
    /// The result existed (memory, disk, or a just-finished in-flight
    /// computation); nothing to simulate.
    Hit(PointResult),
    /// The caller owns this key: simulate it, then
    /// [`ComputeClaim::fulfill`]. Dropping the claim unfulfilled
    /// (error, panic) releases the key and wakes any waiters.
    Compute(ComputeClaim<'a>),
}

/// RAII ownership of an in-flight point. Exactly one claimant per key
/// holds this at a time.
pub struct ComputeClaim<'a> {
    cache: &'a SweepCache,
    key: PointKey,
    entry: Arc<Inflight>,
    fulfilled: bool,
}

impl ComputeClaim<'_> {
    /// Publish the computed result to every tier and wake waiters.
    pub fn fulfill(mut self, result: &PointResult) {
        self.fulfilled = true;
        self.cache.insert(result.clone());
        self.settle(InflightState::Done(result.clone()));
    }

    fn settle(&self, state: InflightState) {
        *lock_ok(&self.entry.state) = state;
        self.entry.done.notify_all();
        lock_ok(&self.cache.inflight).remove(&self.key);
    }
}

impl Drop for ComputeClaim<'_> {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.settle(InflightState::Abandoned);
        }
    }
}

impl SweepCache {
    pub fn new() -> SweepCache {
        SweepCache::default()
    }

    /// A cache backed by the persistent store at `dir`: hits survive
    /// the process, and every process (or daemon) opened on the same
    /// directory shares results.
    pub fn persistent(dir: impl Into<std::path::PathBuf>) -> std::io::Result<SweepCache> {
        Ok(SweepCache {
            disk: Some(store::DiskStore::open(dir)?),
            ..SweepCache::default()
        })
    }

    /// The disk tier, when this cache is persistent.
    pub fn disk(&self) -> Option<&store::DiskStore> {
        self.disk.as_ref()
    }

    /// Resolve `key`: a result from memory or (verified) disk, a
    /// coalesced join on another thread's in-flight computation, or a
    /// [`ComputeClaim`] making the caller responsible for simulating
    /// the point. Blocks only in the coalescing case, and only until
    /// the computing thread settles.
    pub fn claim(&self, key: PointKey) -> Claim<'_> {
        loop {
            if let Some(found) = lock_ok(&self.map).get(&key).cloned() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Claim::Hit(found);
            }
            // Not in memory: either join an in-flight computation or
            // register our own. One lock guards the whole decision so
            // two threads can never both claim the same key.
            let claimed = {
                let mut inflight = lock_ok(&self.inflight);
                match inflight.get(&key) {
                    Some(e) => Err(Arc::clone(e)),
                    None => {
                        let e = Arc::new(Inflight::default());
                        inflight.insert(key, Arc::clone(&e));
                        Ok(e)
                    }
                }
            };
            match claimed {
                Ok(entry) => {
                    // We own the key. Consult the disk tier before
                    // simulating; waiters that pile up meanwhile are
                    // resolved either way.
                    if let Some(stored) = self.disk.as_ref().and_then(|d| d.get(key)) {
                        let result = PointResult {
                            point: SweepPoint {
                                app: 0,
                                platform: 0,
                                policy: 0,
                            },
                            key,
                            app: String::new(),
                            t_original: stored.t_original,
                            t_overlapped: stored.t_overlapped,
                            t_ideal: stored.t_ideal,
                            metrics: None,
                            critpaths: None,
                        };
                        lock_ok(&self.map).insert(key, result.clone());
                        *lock_ok(&entry.state) = InflightState::Done(result.clone());
                        entry.done.notify_all();
                        lock_ok(&self.inflight).remove(&key);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Claim::Hit(result);
                    }
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Claim::Compute(ComputeClaim {
                        cache: self,
                        key,
                        entry,
                        fulfilled: false,
                    });
                }
                Err(entry) => {
                    let mut state = lock_ok(&entry.state);
                    loop {
                        match &*state {
                            InflightState::Pending => {
                                state = entry.done.wait(state).unwrap_or_else(|e| e.into_inner());
                            }
                            InflightState::Done(result) => {
                                self.coalesced.fetch_add(1, Ordering::Relaxed);
                                return Claim::Hit(result.clone());
                            }
                            InflightState::Abandoned => break,
                        }
                    }
                    // Computer failed; loop back and contend for the
                    // key again (we may become the new computer).
                }
            }
        }
    }

    fn insert(&self, result: PointResult) {
        if let Some(disk) = &self.disk {
            // Best-effort persistence: an unwritable store degrades to
            // the in-memory tier rather than failing the sweep.
            let _ = disk.put(
                result.key,
                &store::StoredPoint {
                    t_original: result.t_original,
                    t_overlapped: result.t_overlapped,
                    t_ideal: result.t_ideal,
                },
            );
        }
        lock_ok(&self.map).insert(result.key, result);
    }

    pub fn len(&self) -> usize {
        lock_ok(&self.map).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since construction. Hits cover the memory and
    /// disk tiers; coalesced joins are counted separately.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Claims that joined another thread's in-flight computation
    /// instead of simulating or hitting a stored result.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
}

fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Sweep execution
// ---------------------------------------------------------------------

/// Execution knobs. `jobs == 1` runs inline on the calling thread.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker threads for grid evaluation.
    pub jobs: usize,
    /// When set, every point is replayed with a
    /// [`WindowedRecorder`](ovlp_machine::WindowedRecorder) of this
    /// width (microseconds) and its result carries
    /// [`PointResult::metrics`]. Probed points bypass the cache both
    /// ways (cached results carry no metrics, and metric-bearing
    /// results are not stored), so the cache never changes what a
    /// probed sweep observes.
    pub probe_window_us: Option<f64>,
    /// When set, every point is replayed with a
    /// [`CritPathRecorder`](ovlp_machine::CritPathRecorder) and its
    /// result carries [`PointResult::critpaths`] (per-point blame
    /// attribution in the report). Critpath points bypass the cache
    /// like probed ones — the recorder must observe its own replay.
    pub critpath: bool,
    /// Failure isolation: retry/backoff, per-attempt deadline, and
    /// quarantine (see [`guard::PointGuard`]). `None` — the batch-CLI
    /// default — evaluates each point exactly once with no watchdog.
    /// Never changes a successful point's bytes.
    pub guard: Option<Arc<guard::PointGuard>>,
    /// Cooperative cancellation: once this flag is set, points that
    /// have not started yet short-circuit to
    /// [`FailKind::Cancelled`] errors instead of simulating (points
    /// already in flight finish normally). The sweep still returns a
    /// full report covering every slot.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig::with_jobs(1)
    }
}

impl SweepConfig {
    pub fn with_jobs(jobs: usize) -> SweepConfig {
        SweepConfig {
            jobs: jobs.max(1),
            probe_window_us: None,
            critpath: false,
            guard: None,
            cancel: None,
        }
    }
}

/// Outcome of a whole sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// One outcome per grid point, in [`SweepGrid::points`] order.
    pub outcomes: Vec<PointOutcome>,
    /// Cache hits observed during this sweep.
    pub cache_hits: u64,
    /// Cache misses (points actually simulated) during this sweep.
    pub cache_misses: u64,
    /// Variant bundles built during this sweep: at most one per
    /// `(app, policy)` combination, none for a combination whose every
    /// point hit the cache.
    pub bundles_built: u64,
    /// Engine replays actually run during this sweep. A plain point
    /// replays only the variants no earlier point of the sweep replayed
    /// on the same platform, so this is at most three per simulated
    /// point; probed and critpath points replay all three.
    pub replays: u64,
    /// Wall-clock duration of the grid evaluation.
    pub elapsed: Duration,
}

impl SweepReport {
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    pub fn err_count(&self) -> usize {
        self.outcomes.len() - self.ok_count()
    }

    /// Per-point result hashes (0 for failed points) — the quantity the
    /// determinism tests compare across worker counts.
    pub fn result_hashes(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .map(|o| o.as_ref().map(|r| r.result_hash()).unwrap_or(0))
            .collect()
    }

    /// Combined hash over all points.
    pub fn grid_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for v in self.result_hashes() {
            h = h.u64(v);
        }
        h.finish()
    }

    /// Deterministic human-readable rendering: depends only on the grid
    /// and the simulated numbers, never on timing, worker count, or
    /// cache state.
    pub fn render(&self, grid: &SweepGrid) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sweep: {} apps x {} platforms x {} policies = {} points ({} ok, {} failed)\n",
            grid.apps.len(),
            grid.platforms.len(),
            grid.policies.len(),
            self.outcomes.len(),
            self.ok_count(),
            self.err_count(),
        ));
        out.push_str(
            "app          platform                               policy            t_orig[ms]  t_ovlp[ms] t_ideal[ms]  real  ideal  hash\n",
        );
        for outcome in &self.outcomes {
            match outcome {
                Ok(r) => {
                    let p = &grid.platforms[r.point.platform];
                    let pol = &grid.policies[r.point.policy];
                    out.push_str(&format!(
                        "{:<12} bw={:<7} buses={:<4} net={:<13} faults={:<9} chunks={:<2} {:<10} {:>11.6} {:>11.6} {:>11.6} {:>5.3} {:>6.3}  {:016x}\n",
                        r.app,
                        fmt_bw(p.bandwidth_mbs),
                        fmt_buses(p.buses),
                        p.contention.to_string(),
                        fmt_faults(p),
                        pol.chunks,
                        match pol.mode {
                            SendMode::Eager => "eager",
                            SendMode::Rendezvous => "rendezvous",
                        },
                        r.t_original * 1e3,
                        r.t_overlapped * 1e3,
                        r.t_ideal * 1e3,
                        r.speedup_real(),
                        r.speedup_ideal(),
                        r.result_hash(),
                    ));
                }
                Err(e) => {
                    out.push_str(&format!(
                        "point (app {}, platform {}, policy {}): FAILED: {}\n",
                        e.point.app, e.point.platform, e.point.policy, e.message
                    ));
                }
            }
        }
        out
    }

    /// The complete textual report: the main table, then (when the
    /// grid carried fault scenarios) a blank line and the retention
    /// section. This is byte-for-byte what `ovlp sweep` prints to
    /// stdout and what the daemon's report endpoint returns — the
    /// differential tests compare the two.
    pub fn render_full(&self, grid: &SweepGrid) -> String {
        let mut out = self.render(grid);
        let retention = self.render_retention(grid);
        if !retention.is_empty() {
            out.push('\n');
            out.push_str(&retention);
        }
        let blame = self.render_critpath(grid);
        if !blame.is_empty() {
            out.push('\n');
            out.push_str(&blame);
        }
        out
    }

    /// Blame-attribution section: for every point carrying critical
    /// paths ([`SweepConfig::critpath`]), where the overlap gain comes
    /// from — seconds of critical path per blame class in the original
    /// vs the overlapped variant, with the removed share. Empty string
    /// (and therefore byte-identical default output) when the sweep ran
    /// without critpath recording; deterministic like
    /// [`SweepReport::render`].
    pub fn render_critpath(&self, grid: &SweepGrid) -> String {
        use ovlp_machine::critpath::Blame;
        let mut rows = String::new();
        for r in self.outcomes.iter().flatten() {
            let Some(cp) = &r.critpaths else { continue };
            let p = &grid.platforms[r.point.platform];
            let pol = &grid.policies[r.point.policy];
            let mut parts = Vec::new();
            for b in Blame::ALL {
                let orig = cp.original.total(b);
                let ovlp = cp.overlapped.total(b);
                if orig == 0.0 && ovlp == 0.0 {
                    continue;
                }
                let mut part = format!("{} {:.6}->{:.6}", b.name(), orig, ovlp);
                if orig > 0.0 && ovlp < orig {
                    let pct = 100.0 * (orig - ovlp) / orig;
                    if pct >= 0.5 {
                        part.push_str(&format!(" (-{pct:.0}%)"));
                    }
                }
                parts.push(part);
            }
            rows.push_str(&format!(
                "{:<12} bw={:<7} buses={:<4} chunks={:<2} {:<10} {}\n",
                r.app,
                fmt_bw(p.bandwidth_mbs),
                fmt_buses(p.buses),
                pol.chunks,
                match pol.mode {
                    SendMode::Eager => "eager",
                    SendMode::Rendezvous => "rendezvous",
                },
                parts.join(", "),
            ));
        }
        if rows.is_empty() {
            return rows;
        }
        format!("critical-path blame attribution (seconds per cause, original->overlapped)\n{rows}")
    }

    /// Resilience section: for every point simulated under a fault
    /// schedule, how much of the fault-free overlap gain survives —
    /// `retention = speedup_real(faulted) / speedup_real(baseline)`,
    /// where the baseline is the same (app, policy, platform) point
    /// with an empty fault schedule. Empty string when the grid carried
    /// no fault scenarios; deterministic like [`SweepReport::render`].
    pub fn render_retention(&self, grid: &SweepGrid) -> String {
        use ovlp_machine::FaultSchedule;
        // fault-free baselines keyed by (app, policy, clean-platform fp)
        let mut base: HashMap<(usize, usize, u64), f64> = HashMap::new();
        for r in self.outcomes.iter().flatten() {
            let p = &grid.platforms[r.point.platform];
            if p.faults.is_empty() {
                let fp = platform_fingerprint(p);
                base.insert((r.point.app, r.point.policy, fp), r.speedup_real());
            }
        }
        let mut rows = String::new();
        for r in self.outcomes.iter().flatten() {
            let p = &grid.platforms[r.point.platform];
            if p.faults.is_empty() {
                continue;
            }
            let pol = &grid.policies[r.point.policy];
            let clean = platform_fingerprint(&p.with_faults(FaultSchedule::default()));
            let faulted = r.speedup_real();
            match base.get(&(r.point.app, r.point.policy, clean)) {
                Some(&b) if b > 0.0 => rows.push_str(&format!(
                    "{:<12} chunks={:<2} {:<32} {:>6.3} {:>6.3} {:>9.1}%\n",
                    r.app,
                    pol.chunks,
                    p.faults.to_string(),
                    faulted,
                    b,
                    100.0 * faulted / b,
                )),
                _ => rows.push_str(&format!(
                    "{:<12} chunks={:<2} {:<32} {:>6.3}   (no fault-free baseline in grid)\n",
                    r.app,
                    pol.chunks,
                    p.faults.to_string(),
                    faulted,
                )),
            }
        }
        if rows.is_empty() {
            return rows;
        }
        let mut out = String::from(
            "overlap-gain retention under faults (vs fault-free baseline)\n\
             app          policy    faults                             real   base  retention\n",
        );
        out.push_str(&rows);
        out
    }
}

fn fmt_faults(p: &Platform) -> String {
    if p.faults.is_empty() {
        "none".to_string()
    } else {
        p.faults.to_string()
    }
}

fn fmt_bw(bw: f64) -> String {
    if bw.is_infinite() {
        "inf".to_string()
    } else {
        format!("{bw}")
    }
}

fn fmt_buses(buses: u32) -> String {
    if buses == 0 {
        "inf".to_string()
    } else {
        buses.to_string()
    }
}

/// Evaluate every grid point on the [`scheduler`] pool, honouring
/// `cache` (hit ⇒ no simulation).
///
/// The [`VariantBundle`] of each `(app, policy)` combination is built
/// once, by the first point of that combination that misses the cache
/// (platform sweeps share it), and a deferred [`SweepApp`] is re-traced
/// only then. A sweep whose every point hits builds no bundle and
/// traces nothing. A plain point (no probe window, no critpath) replays
/// only the variants whose record streams no earlier point of this
/// sweep replayed on the same platform, and keeps only their runtimes:
/// the original trace is shared by every chunk policy, and a transform
/// that changed nothing is the original again.
///
/// Failures (platform validation, transform failures, simulation
/// errors, worker panics) are per-point [`PointError`]s; the report
/// always covers the whole grid.
pub fn sweep(grid: &SweepGrid, config: &SweepConfig, cache: &SweepCache) -> SweepReport {
    sweep_observed(grid, config, cache, &|_, _| {})
}

/// [`sweep`] with a progress observer: `observe(index, outcome)` is
/// called exactly once per grid point, from whichever worker thread
/// finishes it (so call order follows completion, not grid order — the
/// index identifies the point). This is how the `ovlp serve` daemon
/// streams partial results while a sweep is still running.
pub fn sweep_observed(
    grid: &SweepGrid,
    config: &SweepConfig,
    cache: &SweepCache,
    observe: &(dyn Fn(usize, &PointOutcome) + Sync),
) -> SweepReport {
    let started = std::time::Instant::now();
    let (hits0, misses0) = cache.stats();
    let bundles = LazyBundles::new(grid);
    let memo = Arc::new(ReplayMemo::default());

    let points = grid.points();
    let outcomes: Vec<PointOutcome> =
        scheduler::run_indexed(points.clone(), config.jobs, |i, point| {
            let cancelled = config
                .cancel
                .as_ref()
                .is_some_and(|c| c.load(Ordering::SeqCst));
            let outcome = if cancelled {
                Err(PointError {
                    point,
                    kind: FailKind::Cancelled,
                    message: "job cancelled before this point ran".to_string(),
                })
            } else {
                evaluate_point(grid, &point, i, &bundles, &memo, cache, config)
            };
            observe(i, &outcome);
            outcome
        })
        .into_iter()
        .zip(&points)
        .enumerate()
        .map(|(i, (slot, &point))| match slot {
            Ok(outcome) => outcome,
            // A panic that escaped evaluate_point (possible only outside
            // the per-attempt and per-bundle catch_unwind, e.g. in cache
            // claiming): report it on the point. The observer never heard
            // about this point from a worker, so tell it here.
            Err(message) => {
                let outcome = Err(PointError {
                    point,
                    kind: FailKind::Panic,
                    message,
                });
                observe(i, &outcome);
                outcome
            }
        })
        .collect();

    let (hits1, misses1) = cache.stats();
    SweepReport {
        outcomes,
        cache_hits: hits1 - hits0,
        cache_misses: misses1 - misses0,
        bundles_built: bundles.built.into_inner(),
        replays: memo.replays.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
    }
}

/// The variant bundles of one sweep, one slot per `(app, policy)`
/// combination, each filled by the first point of its combination that
/// needs a replay. Concurrent points of the same combination wait for
/// that one build instead of repeating it.
///
/// A built bundle's three traces are interned per app by content: a
/// variant whose record streams equal an earlier variant's (the original
/// under every policy, or a transform that changed nothing) gets that
/// variant's id, so the [`ReplayMemo`] replays it once per platform.
/// Only [`Trace::ranks`] is compared; the replay never reads `meta`.
struct LazyBundles<'g> {
    grid: &'g SweepGrid,
    slots: Vec<OnceLock<Result<Combo, String>>>,
    /// Per app, one reference per distinct variant trace; a variant's
    /// id is its position here.
    distinct: Vec<Mutex<Vec<VariantRef>>>,
    built: AtomicU64,
}

/// A variant trace: its bundle and its index in [`variant_traces`].
type VariantRef = (Arc<VariantBundle>, usize);

/// One `(app, policy)` combination's bundle with the per-app ids of its
/// original, overlapped and ideal variants.
#[derive(Clone)]
struct Combo {
    bundle: Arc<VariantBundle>,
    ids: [usize; 3],
}

/// The original, overlapped and ideal traces, in [`Combo::ids`] order.
fn variant_traces(bundle: &VariantBundle) -> [&Trace; 3] {
    [&bundle.original, &bundle.overlapped, &bundle.ideal]
}

impl<'g> LazyBundles<'g> {
    fn new(grid: &'g SweepGrid) -> LazyBundles<'g> {
        LazyBundles {
            grid,
            slots: (0..grid.apps.len() * grid.policies.len())
                .map(|_| OnceLock::new())
                .collect(),
            distinct: (0..grid.apps.len()).map(|_| Mutex::default()).collect(),
            built: AtomicU64::new(0),
        }
    }

    /// The bundle for `point`'s combination, building it (and
    /// re-tracing a deferred app) on first use. A panic in either is
    /// caught here and fails only this combination's points.
    fn get(&self, point: &SweepPoint) -> Result<&Combo, &str> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        self.slots[point.app * self.grid.policies.len() + point.policy]
            .get_or_init(|| {
                let run = self.grid.apps[point.app].run.get()?;
                let policy = &self.grid.policies[point.policy];
                let bundle =
                    catch_unwind(AssertUnwindSafe(|| Arc::new(build_variants(run, policy))))
                        .map_err(|p| format!("transform panicked: {}", panic_message(p)))?;
                self.built.fetch_add(1, Ordering::Relaxed);
                let mut distinct = lock_ok(&self.distinct[point.app]);
                let ids = std::array::from_fn(|v| {
                    let ranks = &variant_traces(&bundle)[v].ranks;
                    match distinct
                        .iter()
                        .position(|(b, w)| variant_traces(b)[*w].ranks == *ranks)
                    {
                        Some(id) => id,
                        None => {
                            distinct.push((Arc::clone(&bundle), v));
                            distinct.len() - 1
                        }
                    }
                });
                Ok(Combo { bundle, ids })
            })
            .as_ref()
            .map_err(String::as_str)
    }
}

/// Runtimes of the variants one sweep has replayed, keyed by `(app,
/// variant id, platform index)`. Plain points read and fill it. Two
/// points that miss the same key concurrently both replay it (the bits
/// are identical, and the first insert wins), so no point ever waits on
/// another and deadlines, chaos actions and retries keep their
/// per-attempt meaning. A failed or panicking replay inserts nothing.
///
/// It also pools the sweep's [`Replayer`]s: each attempt checks one out
/// and replays on it, and only an attempt that returned normally checks
/// it back in. A panicked attempt drops its replayer, and one abandoned
/// at its deadline keeps it, so a replayer in the pool never carries
/// the state of an unfinished replay.
#[derive(Default)]
struct ReplayMemo {
    runtimes: Mutex<HashMap<(usize, usize, usize), f64>>,
    /// Engine replays started, memoized or not ([`SweepReport::replays`]).
    replays: AtomicU64,
    replayers: Mutex<Vec<Replayer>>,
}

impl ReplayMemo {
    /// A replayer for one attempt: a pooled one, or a fresh one.
    fn checkout(&self) -> Replayer {
        lock_ok(&self.replayers).pop().unwrap_or_default()
    }

    /// Return an attempt's replayer to the pool.
    fn checkin(&self, rp: Replayer) {
        lock_ok(&self.replayers).push(rp);
    }

    /// Count one replay about to start, passing through its input (the
    /// trace or the recorder).
    fn counted<T>(&self, input: T) -> T {
        self.replays.fetch_add(1, Ordering::Relaxed);
        input
    }

    /// The runtime of `trace` on `platform`, replayed with the
    /// totals-only recorder unless `key` is already known.
    fn runtime(
        &self,
        rp: &mut Replayer,
        key: (usize, usize, usize),
        trace: &Trace,
        platform: &Platform,
    ) -> Result<f64, SimError> {
        if let Some(&t) = lock_ok(&self.runtimes).get(&key) {
            return Ok(t);
        }
        let t = rp
            .replay_scale(self.counted(trace), platform)?
            .runtime
            .as_secs();
        lock_ok(&self.runtimes).entry(key).or_insert(t);
        Ok(t)
    }
}

fn evaluate_point(
    grid: &SweepGrid,
    point: &SweepPoint,
    index: usize,
    bundles: &LazyBundles,
    memo: &Arc<ReplayMemo>,
    cache: &SweepCache,
    config: &SweepConfig,
) -> PointOutcome {
    let app = &grid.apps[point.app];
    let platform = &grid.platforms[point.platform];
    let policy = &grid.policies[point.policy];
    let fail = |kind: FailKind, message: String| PointError {
        point: *point,
        kind,
        message,
    };

    let key = point_key(app.fingerprint(), platform, policy);
    if let Some(guard) = config.guard.as_deref() {
        if guard.is_quarantined(key) {
            guard.note_rejection();
            return Err(fail(
                FailKind::Quarantined,
                "quarantined after repeated failures".to_string(),
            ));
        }
    }
    // Probed and critpath points bypass the store both ways (stored
    // results carry no metrics or paths, observing results are not
    // stored) and never join an in-flight computation — the probe must
    // observe its own replay.
    let mut claim = if config.probe_window_us.is_none() && !config.critpath {
        match cache.claim(key) {
            Claim::Hit(mut hit) => {
                // The store keeps content-keyed results; re-stamp the
                // grid position so the report refers to *this* sweep's
                // indices.
                hit.point = *point;
                hit.app.clone_from(&app.name);
                return Ok(hit);
            }
            Claim::Compute(c) => Some(c),
        }
    } else {
        None
    };

    platform
        .check()
        .map_err(|e| fail(FailKind::Platform, format!("invalid platform: {e}")))?;
    // Built outside the attempt loop, so neither the transform nor a
    // deferred re-trace counts against the per-attempt deadline.
    let combo = bundles
        .get(point)
        .map_err(|e| fail(FailKind::Transform, format!("transform failed: {e}")))?;
    let replay = PointReplay {
        combo: combo.clone(),
        point: *point,
        platform: platform.clone(),
        probe_window_us: config.probe_window_us,
        critpath: config.critpath,
        memo: Arc::clone(memo),
    };

    let (max_attempts, deadline) = match config.guard.as_deref() {
        Some(g) => (g.policy().max_attempts.max(1), g.policy().deadline),
        None => (1, None),
    };
    let mut attempt: u32 = 1;
    loop {
        let action = config
            .guard
            .as_deref()
            .and_then(|g| g.chaos())
            .and_then(|c| c.point_action(index, attempt));
        match run_attempt(replay.clone(), action, deadline) {
            Ok(sim) => {
                let result = PointResult {
                    point: *point,
                    key,
                    app: app.name.clone(),
                    t_original: sim.t_original,
                    t_overlapped: sim.t_overlapped,
                    t_ideal: sim.t_ideal,
                    metrics: sim.metrics,
                    critpaths: sim.critpaths,
                };
                if let Some(claim) = claim.take() {
                    claim.fulfill(&result);
                }
                return Ok(result);
            }
            Err((kind, message)) => {
                let Some(guard) = config.guard.as_deref() else {
                    return Err(fail(kind, message));
                };
                match kind {
                    FailKind::Panic => guard.note_panic(),
                    FailKind::Timeout => guard.note_timeout(),
                    _ => {}
                }
                if !kind.retryable() {
                    return Err(fail(kind, message));
                }
                if attempt < max_attempts {
                    guard.note_retry();
                    std::thread::sleep(guard.policy().backoff(attempt));
                    attempt += 1;
                    continue;
                }
                guard.quarantine(key);
                return Err(fail(
                    FailKind::Quarantined,
                    format!("quarantined after {attempt} attempts: {message}"),
                ));
            }
        }
    }
    // The claim, if still held here, is dropped unfulfilled on every
    // error return above, which abandons the in-flight entry and lets
    // a waiter re-claim the key.
}

/// The pure numeric outcome of one simulated point — everything a
/// [`PointResult`] carries beyond its grid position.
struct SimNumbers {
    t_original: f64,
    t_overlapped: f64,
    t_ideal: f64,
    metrics: Option<Arc<Variants<Metrics>>>,
    critpaths: Option<Arc<Variants<CritPath>>>,
}

/// What one attempt at a point replays. Owned, so an attempt can run on
/// a detached watchdog thread; no cache, claim or grid bookkeeping.
#[derive(Clone)]
struct PointReplay {
    combo: Combo,
    point: SweepPoint,
    platform: Platform,
    probe_window_us: Option<f64>,
    critpath: bool,
    memo: Arc<ReplayMemo>,
}

impl PointReplay {
    /// The three-variant replay. A plain point needs only the runtimes,
    /// so it takes them from the sweep's [`ReplayMemo`]; a probed or
    /// critpath point replays all three variants itself, because each
    /// recorder must observe its own replay. Every replay runs on `rp`.
    fn simulate(&self, rp: &mut Replayer) -> Result<SimNumbers, String> {
        let window = self.probe_window_us.map(Time::micros);
        if window.is_none() && !self.critpath {
            return self.runtimes(rp).map_err(|e| e.to_string());
        }
        let sink = || self.memo.counted(recorders(window, self.critpath));
        let (sim, recorded) = run_variants_on(rp, &self.combo.bundle, &self.platform, sink, |r| {
            Ok(recorded(r)?)
        })
        .map_err(|e| e.to_string())?;
        let (metrics, critpaths) = recorded.unzip();
        Ok(SimNumbers {
            t_original: sim.original.runtime(),
            t_overlapped: sim.overlapped.runtime(),
            t_ideal: sim.ideal.runtime(),
            metrics: metrics.transpose().map(Arc::new),
            critpaths: critpaths.transpose().map(Arc::new),
        })
    }

    /// The runtimes of the three variants, each replayed at most once
    /// per sweep and platform.
    fn runtimes(&self, rp: &mut Replayer) -> Result<SimNumbers, SimError> {
        let mut t = [0.0; 3];
        let traces = variant_traces(&self.combo.bundle);
        for ((slot, trace), id) in t.iter_mut().zip(traces).zip(self.combo.ids) {
            let key = (self.point.app, id, self.point.platform);
            *slot = self.memo.runtime(rp, key, trace, &self.platform)?;
        }
        let [t_original, t_overlapped, t_ideal] = t;
        Ok(SimNumbers {
            t_original,
            t_overlapped,
            t_ideal,
            metrics: None,
            critpaths: None,
        })
    }
}

/// One isolated attempt at a point: chaos action (if armed), then the
/// replay on a replayer from the sweep's pool, under `catch_unwind` and
/// — when `deadline` is set — a wall-clock watchdog on a detached
/// thread. The watchdog cannot kill a runaway computation, only stop
/// waiting for it: an overrunning attempt is abandoned and its eventual
/// result, replayer included, sent into a closed channel. Only an
/// attempt that returned (with a result or a simulation error) checks
/// its replayer back in.
fn run_attempt(
    replay: PointReplay,
    action: Option<chaos::ChaosAction>,
    deadline: Option<Duration>,
) -> Result<SimNumbers, (FailKind, String)> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let memo = Arc::clone(&replay.memo);
    let work = move || {
        match action {
            Some(chaos::ChaosAction::Panic) => panic!("chaos: injected point panic"),
            Some(chaos::ChaosAction::Stall(pause)) => std::thread::sleep(pause),
            None => {}
        }
        let mut rp = replay.memo.checkout();
        let outcome = replay.simulate(&mut rp);
        (outcome, rp)
    };
    type Attempt = Result<(Result<SimNumbers, String>, Replayer), String>;
    let settle = |attempt: Attempt| match attempt {
        Ok((outcome, rp)) => {
            memo.checkin(rp);
            outcome.map_err(|e| (FailKind::Sim, format!("simulation failed: {e}")))
        }
        Err(msg) => Err((FailKind::Panic, format!("point panicked: {msg}"))),
    };
    match deadline {
        None => settle(catch_unwind(AssertUnwindSafe(work)).map_err(panic_message)),
        Some(limit) => {
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            std::thread::Builder::new()
                .name("ovlp-point-attempt".to_string())
                .spawn(move || {
                    let _ = tx.send(catch_unwind(AssertUnwindSafe(work)).map_err(panic_message));
                })
                .expect("spawn point-attempt thread");
            match rx.recv_timeout(limit) {
                Ok(outcome) => settle(outcome),
                Err(_) => Err((
                    FailKind::Timeout,
                    format!(
                        "point exceeded the {}ms per-attempt deadline",
                        limit.as_millis()
                    ),
                )),
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_apps::synthetic::{Consumption, PatternApp, Production};
    use ovlp_instr::trace_app;

    fn pattern(iters: u32) -> PatternApp {
        PatternApp {
            elems: 200,
            iters,
            phase_instr: 50_000,
            production: Production::Linear,
            consumption: Consumption::Linear,
        }
    }

    fn tiny_app() -> SweepApp {
        SweepApp::new("pattern-linear", trace_app(&pattern(2), 4).unwrap())
    }

    /// `tiny_app` deferred: same fingerprint, re-traced by `retrace`.
    fn deferred_tiny(
        retrace: impl Fn() -> Result<TraceRun, String> + Send + Sync + 'static,
    ) -> SweepApp {
        SweepApp::deferred("pattern-linear", tiny_app().fingerprint(), retrace)
    }

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            apps: vec![tiny_app()],
            platforms: vec![Platform::marenostrum(0), Platform::marenostrum(2)],
            policies: vec![ChunkPolicy::paper_default(), ChunkPolicy::with_chunks(8)],
        }
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let app = tiny_app();
        let again = tiny_app();
        assert_eq!(
            app.fingerprint(),
            again.fingerprint(),
            "same run, same fingerprint"
        );

        let p = Platform::marenostrum(4);
        assert_eq!(platform_fingerprint(&p), platform_fingerprint(&p.clone()));
        assert_ne!(
            platform_fingerprint(&p),
            platform_fingerprint(&p.with_bandwidth(100.0))
        );
        assert_ne!(
            policy_fingerprint(&ChunkPolicy::with_chunks(2)),
            policy_fingerprint(&ChunkPolicy::with_chunks(4))
        );
    }

    #[test]
    fn stamp_digest_sees_each_word_its_position_and_the_length() {
        let stamps: Vec<Stamp> = (0..11).map(|t| Stamp::at(t * 7)).collect();
        let base = stamp_digest(&stamps);
        for i in 0..stamps.len() {
            let mut flipped = stamps.clone();
            flipped[i] = Stamp::NEVER;
            assert_ne!(stamp_digest(&flipped), base, "word {i} cleared");
            if i + 1 < stamps.len() {
                let mut swapped = stamps.clone();
                swapped.swap(i, i + 1);
                assert_ne!(stamp_digest(&swapped), base, "words {i}, {} swapped", i + 1);
            }
            // every proper prefix and suffix digests apart from the whole
            assert_ne!(stamp_digest(&stamps[..i]), base);
            assert_ne!(stamp_digest(&stamps[i + 1..]), base);
        }
        assert_ne!(stamp_digest(&[]), stamp_digest(&[Stamp::NEVER]));
        assert_ne!(
            stamp_digest(&[Stamp::NEVER; 4]),
            stamp_digest(&[Stamp::NEVER; 5])
        );
    }

    #[test]
    fn rank_count_discriminates_point_keys() {
        // the weak-scaling axis: the same app at two rank counts must
        // hit different content-addressed store entries
        let app = PatternApp {
            elems: 200,
            iters: 2,
            phase_instr: 50_000,
            production: Production::Linear,
            consumption: Consumption::Linear,
        };
        let at4 = SweepApp::new("pattern-linear", trace_app(&app, 4).unwrap());
        let at8 = SweepApp::new("pattern-linear", trace_app(&app, 8).unwrap());
        assert_ne!(at4.fingerprint(), at8.fingerprint());
        let p = Platform::marenostrum(4);
        let policy = ChunkPolicy::paper_default();
        assert_ne!(
            point_key(at4.fingerprint(), &p, &policy),
            point_key(at8.fingerprint(), &p, &policy)
        );
    }

    #[test]
    fn fault_scenarios_get_distinct_fingerprints() {
        let base = Platform::marenostrum(0).with_topology(ovlp_machine::Topology::Crossbar);
        let faulted = base.with_faults("degrade=0.5@1ms:n0->sw".parse().unwrap());
        assert_ne!(platform_fingerprint(&base), platform_fingerprint(&faulted));
        let moved = base.with_faults("degrade=0.5@2ms:n0->sw".parse().unwrap());
        assert_ne!(platform_fingerprint(&faulted), platform_fingerprint(&moved));
        assert_eq!(
            platform_fingerprint(&faulted),
            platform_fingerprint(&faulted.clone()),
            "same schedule, same key"
        );
    }

    #[test]
    fn retention_section_compares_against_fault_free_baseline() {
        let base = Platform::marenostrum(0).with_topology(ovlp_machine::Topology::Crossbar);
        let faulted = base.with_faults("degrade=0.1@0.1ms:n0->sw".parse().unwrap());
        let grid = SweepGrid {
            apps: vec![tiny_app()],
            platforms: vec![base.clone(), faulted],
            policies: vec![ChunkPolicy::paper_default()],
        };
        let r = sweep(&grid, &SweepConfig::with_jobs(2), &SweepCache::new());
        assert_eq!(r.err_count(), 0, "{:?}", r.outcomes);
        let text = r.render_retention(&grid);
        assert!(text.contains("retention"), "{text}");
        assert!(text.contains("degrade=0.1@0.0001s:n0->sw"), "{text}");
        assert!(!text.contains("no fault-free baseline"), "{text}");
        // the main table marks the faulted platform too
        assert!(
            r.render(&grid).contains("faults=degrade"),
            "{}",
            r.render(&grid)
        );

        // a grid without fault scenarios renders no retention section
        let clean = SweepGrid {
            apps: vec![tiny_app()],
            platforms: vec![base],
            policies: vec![ChunkPolicy::paper_default()],
        };
        let rc = sweep(&clean, &SweepConfig::default(), &SweepCache::new());
        assert!(rc.render_retention(&clean).is_empty());
    }

    #[test]
    fn grid_points_are_canonically_ordered() {
        let grid = tiny_grid();
        let pts = grid.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(
            pts[0],
            SweepPoint {
                app: 0,
                platform: 0,
                policy: 0
            }
        );
        assert_eq!(
            pts[1],
            SweepPoint {
                app: 0,
                platform: 0,
                policy: 1
            }
        );
        assert_eq!(
            pts[3],
            SweepPoint {
                app: 0,
                platform: 1,
                policy: 1
            }
        );
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let grid = tiny_grid();
        let base = sweep(&grid, &SweepConfig::with_jobs(1), &SweepCache::new());
        assert_eq!(base.err_count(), 0, "{:?}", base.outcomes);
        for jobs in [2, 4] {
            let r = sweep(&grid, &SweepConfig::with_jobs(jobs), &SweepCache::new());
            assert_eq!(r.result_hashes(), base.result_hashes(), "jobs={jobs}");
            assert_eq!(r.render(&grid), base.render(&grid), "jobs={jobs}");
        }
    }

    #[test]
    fn cache_serves_repeat_sweeps() {
        let grid = tiny_grid();
        let cache = SweepCache::new();
        let first = sweep(&grid, &SweepConfig::with_jobs(2), &cache);
        assert_eq!(first.cache_hits, 0);
        assert_eq!(first.cache_misses, grid.len() as u64);
        let second = sweep(&grid, &SweepConfig::with_jobs(2), &cache);
        assert_eq!(second.cache_hits, grid.len() as u64);
        assert_eq!(second.cache_misses, 0);
        assert_eq!(second.result_hashes(), first.result_hashes());
        assert_eq!(second.render(&grid), first.render(&grid));
    }

    #[test]
    fn invalid_platform_is_a_point_error_not_a_crash() {
        let mut grid = tiny_grid();
        grid.platforms.push(Platform {
            mips: -1.0,
            ..Platform::default()
        });
        let r = sweep(&grid, &SweepConfig::with_jobs(2), &SweepCache::new());
        assert_eq!(r.outcomes.len(), 6);
        assert_eq!(r.err_count(), 2, "both policies on the bad platform fail");
        for o in &r.outcomes {
            if let Err(e) = o {
                assert_eq!(e.point.platform, 2);
                assert!(e.message.contains("invalid platform"), "{}", e.message);
            }
        }
    }

    fn dummy_result(key: PointKey) -> PointResult {
        PointResult {
            point: SweepPoint {
                app: 0,
                platform: 0,
                policy: 0,
            },
            key,
            app: "dummy".into(),
            t_original: 2.0,
            t_overlapped: 1.0,
            t_ideal: 0.5,
            metrics: None,
            critpaths: None,
        }
    }

    #[test]
    fn inflight_claims_coalesce_exactly_once_per_waiter() {
        let cache = SweepCache::new();
        let key = PointKey(99);
        let Claim::Compute(claim) = cache.claim(key) else {
            panic!("first claim must be a compute claim");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.claim(key) {
                Claim::Hit(r) => r.t_original,
                Claim::Compute(_) => panic!("waiter must join, not recompute"),
            });
            // Wait (deterministically) until the waiter has cloned the
            // in-flight entry — i.e. committed to the coalescing path —
            // before publishing: map + our claim hold two refs, the
            // waiter is the third.
            while Arc::strong_count(&claim.entry) < 3 {
                std::thread::yield_now();
            }
            claim.fulfill(&dummy_result(key));
            assert_eq!(waiter.join().unwrap(), 2.0);
        });
        assert_eq!(cache.coalesced(), 1, "waiter joined the in-flight point");
        assert_eq!(
            cache.stats(),
            (0, 1),
            "one miss (the computer), no tier hits"
        );
        // a later claim is a plain memory hit, not a coalesce
        assert!(matches!(cache.claim(key), Claim::Hit(_)));
        assert_eq!(cache.stats().0, 1);
        assert_eq!(cache.coalesced(), 1);
    }

    #[test]
    fn abandoned_claim_hands_the_key_to_a_waiter() {
        let cache = SweepCache::new();
        let key = PointKey(7);
        let claim = match cache.claim(key) {
            Claim::Compute(c) => c,
            Claim::Hit(_) => panic!("empty cache cannot hit"),
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                match cache.claim(key) {
                    // Either ordering is legal: the waiter may observe
                    // the abandonment (and become the computer) or may
                    // claim after the entry is already gone.
                    Claim::Compute(c) => c.fulfill(&dummy_result(key)),
                    Claim::Hit(_) => panic!("nothing was ever fulfilled"),
                }
            });
            std::thread::sleep(Duration::from_millis(10));
            drop(claim); // simulate a failed computation
            waiter.join().unwrap();
        });
        assert!(matches!(cache.claim(key), Claim::Hit(_)));
    }

    #[test]
    fn persistent_cache_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("ovlp-sweep-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = tiny_grid();

        let cold = SweepCache::persistent(&dir).unwrap();
        let first = sweep(&grid, &SweepConfig::with_jobs(2), &cold);
        assert_eq!(first.cache_misses, grid.len() as u64);
        assert_eq!(cold.disk().unwrap().entries(), grid.len() as u64);

        // A fresh cache on the same directory — as a new process would
        // open — serves every point from disk, bit-identically.
        let warm = SweepCache::persistent(&dir).unwrap();
        let second = sweep(&grid, &SweepConfig::with_jobs(2), &warm);
        assert_eq!(second.cache_hits, grid.len() as u64);
        assert_eq!(second.cache_misses, 0);
        assert_eq!(second.result_hashes(), first.result_hashes());
        assert_eq!(second.render(&grid), first.render(&grid));
        let stats = warm.disk().unwrap().stats();
        assert_eq!(stats.hits, grid.len() as u64);
        assert_eq!(stats.corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_entry_is_recomputed_and_replaced() {
        let dir = std::env::temp_dir().join(format!("ovlp-sweep-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = tiny_grid();
        let cache = SweepCache::persistent(&dir).unwrap();
        let first = sweep(&grid, &SweepConfig::with_jobs(1), &cache);

        // Flip one bit in one stored entry.
        let key = first.outcomes[0].as_ref().unwrap().key;
        let path = cache.disk().unwrap().entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let reopened = SweepCache::persistent(&dir).unwrap();
        let second = sweep(&grid, &SweepConfig::with_jobs(1), &reopened);
        assert_eq!(second.result_hashes(), first.result_hashes());
        let stats = reopened.disk().unwrap().stats();
        assert_eq!(stats.corrupt, 1, "the flipped entry was detected");
        assert_eq!(second.cache_misses, 1, "only the corrupt point re-ran");
        // and the corrupt file was replaced by a valid entry
        let healed = SweepCache::persistent(&dir).unwrap();
        let third = sweep(&grid, &SweepConfig::with_jobs(1), &healed);
        assert_eq!(third.cache_hits, grid.len() as u64);
        assert_eq!(healed.disk().unwrap().stats().corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_cache_serves_a_deferred_app_without_tracing() {
        let grid = tiny_grid();
        let cache = SweepCache::new();
        let cold = sweep(&grid, &SweepConfig::with_jobs(2), &cache);
        assert_eq!(cold.err_count(), 0, "{:?}", cold.outcomes);
        assert_eq!(cold.bundles_built, grid.policies.len() as u64);

        let deferred = SweepGrid {
            apps: vec![deferred_tiny(|| {
                panic!("an all-hit sweep must not re-trace")
            })],
            ..grid.clone()
        };
        let warm = sweep(&deferred, &SweepConfig::with_jobs(2), &cache);
        assert_eq!(warm.outcomes, cold.outcomes);
        assert_eq!(warm.cache_hits, grid.len() as u64);
        assert_eq!(warm.bundles_built, 0);
        assert!(deferred.apps[0].run.retraced().is_none(), "maker never ran");
    }

    #[test]
    fn cold_deferred_app_is_traced_once_and_each_bundle_built_once() {
        let calls = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&calls);
        let grid = SweepGrid {
            apps: vec![deferred_tiny(move || {
                counted.fetch_add(1, Ordering::SeqCst);
                trace_app(&pattern(2), 4).map_err(|e| e.to_string())
            })],
            platforms: vec![
                Platform::marenostrum(0),
                Platform::marenostrum(2),
                Platform::marenostrum(4),
                Platform::marenostrum(8),
            ],
            ..tiny_grid()
        };
        let r = sweep(&grid, &SweepConfig::with_jobs(4), &SweepCache::new());
        assert_eq!(r.err_count(), 0, "{:?}", r.outcomes);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(r.bundles_built, grid.policies.len() as u64);
        assert_eq!(grid.apps[0].run.retraced(), Some(Ok(())));

        // bit-identical to the same grid with the eager app
        let eager = SweepGrid {
            apps: vec![tiny_app()],
            ..grid.clone()
        };
        let base = sweep(&eager, &SweepConfig::with_jobs(1), &SweepCache::new());
        assert_eq!(r.outcomes, base.outcomes);
        assert_eq!(r.render(&grid), base.render(&eager));
    }

    #[test]
    fn mismatching_retrace_fails_miss_points_and_stores_nothing() {
        let grid = SweepGrid {
            apps: vec![deferred_tiny(|| {
                trace_app(&pattern(3), 4).map_err(|e| e.to_string())
            })],
            ..tiny_grid()
        };
        let cache = SweepCache::new();
        let r = sweep(&grid, &SweepConfig::with_jobs(2), &cache);
        assert_eq!(r.err_count(), grid.len());
        for o in &r.outcomes {
            let e = o.as_ref().unwrap_err();
            assert_eq!(e.kind, FailKind::Transform);
            assert!(e.message.contains("fingerprint mismatch"), "{}", e.message);
        }
        assert!(cache.is_empty(), "no result stored under a wrong key");
        assert_eq!(r.bundles_built, 0);
        assert!(matches!(
            grid.apps[0].run.retraced(),
            Some(Err(m)) if m.contains("fingerprint mismatch")
        ));
    }

    #[test]
    fn transform_panic_fails_only_its_own_combinations() {
        // An access log whose production intervals start after the
        // sends makes the measured-pattern transform panic.
        let mut run = trace_app(&pattern(2), 4).unwrap();
        for rank in &mut run.access.ranks {
            for p in rank.productions.values_mut() {
                p.interval_start = ovlp_trace::Instructions(u64::MAX);
            }
        }
        let grid = SweepGrid {
            apps: vec![SweepApp::new("broken", run), tiny_app()],
            ..tiny_grid()
        };
        let r = sweep(&grid, &SweepConfig::with_jobs(2), &SweepCache::new());
        let good = sweep(&tiny_grid(), &SweepConfig::with_jobs(1), &SweepCache::new());
        for (i, o) in r.outcomes.iter().enumerate() {
            match o {
                Err(e) => {
                    assert_eq!(e.point.app, 0, "{e:?}");
                    assert_eq!(e.kind, FailKind::Transform);
                    assert!(e.message.contains("transform panicked"), "{}", e.message);
                }
                Ok(p) => {
                    assert_eq!(p.point.app, 1);
                    let base = good.outcomes[i - grid.len() / 2].as_ref().unwrap();
                    assert_eq!(p.result_hash(), base.result_hash());
                }
            }
        }
        assert_eq!(r.err_count(), grid.len() / 2);
        assert_eq!(r.bundles_built, grid.policies.len() as u64);
    }

    #[test]
    fn cancelled_and_quarantined_points_build_nothing() {
        let never = || deferred_tiny(|| panic!("no point may re-trace"));
        let grid = SweepGrid {
            apps: vec![never()],
            ..tiny_grid()
        };
        let mut config = SweepConfig::with_jobs(2);
        config.cancel = Some(Arc::new(AtomicBool::new(true)));
        let r = sweep(&grid, &config, &SweepCache::new());
        assert!(r
            .outcomes
            .iter()
            .all(|o| o.as_ref().unwrap_err().kind == FailKind::Cancelled));
        assert_eq!(r.bundles_built, 0);

        let guard = Arc::new(guard::PointGuard::default());
        for point in grid.points() {
            let key = point_key(
                grid.apps[0].fingerprint(),
                &grid.platforms[point.platform],
                &grid.policies[point.policy],
            );
            guard.quarantine(key);
        }
        let mut config = SweepConfig::with_jobs(2);
        config.guard = Some(guard);
        let r = sweep(&grid, &config, &SweepCache::new());
        assert!(r
            .outcomes
            .iter()
            .all(|o| o.as_ref().unwrap_err().kind == FailKind::Quarantined));
        assert_eq!(r.bundles_built, 0);
        assert!(grid.apps[0].run.retraced().is_none());
    }

    /// `tiny_grid` with a flow fabric added to its two buses.
    fn mixed_grid() -> SweepGrid {
        let mut grid = tiny_grid();
        grid.platforms
            .push(Platform::marenostrum(0).with_topology(ovlp_machine::Topology::Crossbar));
        grid
    }

    /// Distinct variant record streams of every `(app, policy)` bundle,
    /// counted independently of the sweep's interning.
    fn distinct_variants(grid: &SweepGrid) -> usize {
        let mut distinct: Vec<(usize, Trace)> = Vec::new();
        for (a, app) in grid.apps.iter().enumerate() {
            for policy in &grid.policies {
                let bundle = build_variants(&app.run, policy);
                for trace in [bundle.original, bundle.overlapped, bundle.ideal] {
                    if !distinct
                        .iter()
                        .any(|(b, t)| *b == a && t.ranks == trace.ranks)
                    {
                        distinct.push((a, trace));
                    }
                }
            }
        }
        distinct.len()
    }

    #[test]
    fn plain_sweep_replays_each_distinct_variant_once_per_platform() {
        let grid = mixed_grid();
        let r = sweep(&grid, &SweepConfig::with_jobs(1), &SweepCache::new());
        assert_eq!(r.err_count(), 0, "{:?}", r.outcomes);
        let distinct = distinct_variants(&grid);
        // the original is shared by both policies
        assert!(distinct < 3 * grid.policies.len(), "{distinct}");
        assert_eq!(r.replays, (grid.platforms.len() * distinct) as u64);
        // an all-hit repeat replays nothing
        let cache = SweepCache::new();
        sweep(&grid, &SweepConfig::with_jobs(1), &cache);
        assert_eq!(sweep(&grid, &SweepConfig::with_jobs(2), &cache).replays, 0);
    }

    #[test]
    fn unchanged_transform_replays_once_per_platform() {
        // alya's transforms leave its trace as traced: all variants of
        // every policy are one record stream
        let alya = ovlp_apps::paper_pool()
            .into_iter()
            .find(|e| e.name == "alya")
            .unwrap();
        let grid = SweepGrid {
            apps: vec![SweepApp::new("alya", alya.trace_run(4).unwrap())],
            ..mixed_grid()
        };
        assert_eq!(distinct_variants(&grid), 1);
        let r = sweep(&grid, &SweepConfig::with_jobs(1), &SweepCache::new());
        assert_eq!(r.err_count(), 0, "{:?}", r.outcomes);
        assert_eq!(r.replays, grid.platforms.len() as u64);
        for o in r.outcomes.iter().flatten() {
            assert_eq!(o.t_original.to_bits(), o.t_overlapped.to_bits());
            assert_eq!(o.t_original.to_bits(), o.t_ideal.to_bits());
        }
    }

    #[test]
    fn memoized_hashes_match_full_per_point_replays() {
        use crate::experiments::speedup::run_variants;
        use ovlp_machine::NoopSink;
        let grid = mixed_grid();
        let r = sweep(&grid, &SweepConfig::with_jobs(2), &SweepCache::new());
        for (point, outcome) in grid.points().into_iter().zip(&r.outcomes) {
            let app = &grid.apps[point.app];
            let policy = &grid.policies[point.policy];
            let platform = &grid.platforms[point.platform];
            let bundle = build_variants(&app.run, policy);
            let (sim, _) = run_variants(&bundle, platform, || NoopSink, |_| Ok(())).unwrap();
            let full = PointResult {
                point,
                key: point_key(app.fingerprint(), platform, policy),
                app: app.name.clone(),
                t_original: sim.original.runtime(),
                t_overlapped: sim.overlapped.runtime(),
                t_ideal: sim.ideal.runtime(),
                metrics: None,
                critpaths: None,
            };
            assert_eq!(outcome.as_ref().unwrap().result_hash(), full.result_hash());
        }
    }

    #[test]
    fn probed_and_critpath_points_replay_every_variant() {
        let grid = mixed_grid();
        let plain = sweep(&grid, &SweepConfig::with_jobs(1), &SweepCache::new());
        for (window, critpath) in [(Some(50.0), false), (None, true), (Some(50.0), true)] {
            let mut config = SweepConfig::with_jobs(2);
            config.probe_window_us = window;
            config.critpath = critpath;
            let r = sweep(&grid, &config, &SweepCache::new());
            assert_eq!(r.err_count(), 0, "{:?}", r.outcomes);
            assert_eq!(r.replays, 3 * grid.len() as u64, "{window:?} {critpath}");
            assert_eq!(r.result_hashes(), plain.result_hashes());
        }
    }

    #[test]
    fn chaos_panic_retry_gives_the_same_bytes() {
        let grid = mixed_grid();
        let clean = sweep(&grid, &SweepConfig::with_jobs(1), &SweepCache::new());
        for spec in ["panic@0", "panic@1:2"] {
            let guard = guard::PointGuard::new(guard::RetryPolicy {
                backoff_base: Duration::from_millis(1),
                ..guard::RetryPolicy::default()
            })
            .with_chaos(Arc::new(spec.parse().unwrap()));
            let guard = Arc::new(guard);
            let mut config = SweepConfig::with_jobs(1);
            config.guard = Some(Arc::clone(&guard));
            let r = sweep(&grid, &config, &SweepCache::new());
            assert!(guard.stats().retries > 0, "{spec}");
            assert_eq!(r.render(&grid), clean.render(&grid), "{spec}");
            assert_eq!(r.replays, clean.replays, "{spec}");
        }
    }

    #[test]
    fn report_render_lists_every_point() {
        let grid = tiny_grid();
        let r = sweep(&grid, &SweepConfig::default(), &SweepCache::new());
        let text = r.render(&grid);
        assert_eq!(text.lines().count(), 2 + grid.len());
        assert!(text.contains("pattern-linear"));
        assert!(text.contains("4 points (4 ok, 0 failed)"));
    }
}
