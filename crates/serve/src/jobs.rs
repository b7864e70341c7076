//! Job registry and execution for the sweep daemon.
//!
//! A job is one submitted [`SweepSpec`]: its grid is evaluated once on
//! a dedicated runner thread (admission-gated, so at most
//! `max_running` sweeps execute concurrently; later submissions queue)
//! and every per-point outcome is recorded as it completes, waking any
//! streaming readers. Readers emit points in **canonical grid order**
//! — a point is streamed once all earlier points are done — so the
//! NDJSON stream for a given job is byte-deterministic even though
//! workers finish out of order.
//!
//! Cross-job dedup happens one layer down, in the shared
//! [`SweepCache`]: completed points are served from the store forever,
//! and identical points of *concurrently running* jobs coalesce onto a
//! single in-flight computation.
//!
//! The registry also remembers each trace's fingerprint: the first job
//! for an `(app, ranks)` pair traces at submission, and later jobs for
//! it get a deferred app ([`SweepSpec::build_deferred`]) that is
//! re-traced inside the gated runner only if one of its points misses
//! the cache. A job whose every point is stored therefore costs no
//! trace and no transform.

use crate::journal::{JobEnd, Journal};
use crate::json::{Obj, Value};
use crate::spec::{SpecError, SweepSpec, TraceKey};
use ovlp_core::sweep::guard::PointGuard;
use ovlp_core::sweep::{sweep_observed, PointOutcome, SweepCache, SweepConfig, SweepGrid};
use ovlp_machine::Blame;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Wire schema of one streamed point line.
pub const POINT_SCHEMA: &str = "ovlp.sweep-point.v1";
/// Wire schema of the stream-terminating line.
pub const DONE_SCHEMA: &str = "ovlp.sweep-done.v1";
/// Wire schema of the job summary document.
pub const SUMMARY_SCHEMA: &str = "ovlp.sweep-summary.v1";

/// Counting gate bounding concurrent sweep executions.
#[derive(Debug)]
struct Gate {
    slots: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(slots: usize) -> Gate {
        Gate {
            slots: Mutex::new(slots.max(1)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut slots = lock_ok(&self.slots);
        while *slots == 0 {
            slots = self.freed.wait(slots).unwrap_or_else(|e| e.into_inner());
        }
        *slots -= 1;
    }

    fn release(&self) {
        *lock_ok(&self.slots) += 1;
        self.freed.notify_one();
    }
}

#[derive(Debug, Default)]
struct JobState {
    /// One slot per grid point, filled as workers finish.
    outcomes: Vec<Option<PointOutcome>>,
    completed: usize,
    /// The full textual report, present once the sweep finished —
    /// byte-identical to what `ovlp sweep` prints.
    report: Option<String>,
    /// `(store_hits, store_misses, coalesced)` deltas over this job's
    /// execution. Exact when no other job ran concurrently; otherwise
    /// attribution between overlapping jobs is approximate (the global
    /// `/v1/store/stats` counters are always exact).
    cache_delta: Option<(u64, u64, u64)>,
    elapsed: Option<Duration>,
}

/// One submitted sweep job.
#[derive(Debug)]
pub struct Job {
    pub id: String,
    pub spec: SweepSpec,
    points: usize,
    state: Mutex<JobState>,
    progress: Condvar,
    /// Shared with the sweep via [`SweepConfig::cancel`]: once set,
    /// uncomputed points short-circuit to `FailKind::Cancelled` and the
    /// job drains its slot quickly.
    cancel: Arc<AtomicBool>,
    /// Streaming readers currently attached to this job.
    readers: AtomicUsize,
}

impl Job {
    pub fn points(&self) -> usize {
        self.points
    }

    /// Ask the running sweep to stop computing points it has not
    /// started. Already-computed points stay recorded (and stored).
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    pub fn reader_attached(&self) {
        self.readers.fetch_add(1, Ordering::SeqCst);
    }

    /// Detach one streaming reader; returns how many remain.
    pub fn reader_detached(&self) -> usize {
        self.readers.fetch_sub(1, Ordering::SeqCst) - 1
    }

    fn record(&self, index: usize, outcome: &PointOutcome) {
        let mut state = lock_ok(&self.state);
        if state.outcomes[index].is_none() {
            state.outcomes[index] = Some(outcome.clone());
            state.completed += 1;
        }
        self.progress.notify_all();
    }

    /// Block until point `index` has an outcome, then return it.
    pub fn wait_point(&self, index: usize) -> PointOutcome {
        let mut state = lock_ok(&self.state);
        loop {
            if let Some(outcome) = &state.outcomes[index] {
                return outcome.clone();
            }
            state = self.progress.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Block until the sweep finished, then return the full report.
    pub fn wait_report(&self) -> String {
        let mut state = lock_ok(&self.state);
        loop {
            if let Some(report) = &state.report {
                return report.clone();
            }
            state = self.progress.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub fn is_done(&self) -> bool {
        lock_ok(&self.state).report.is_some()
    }

    /// Counts of (ok, failed) among completed points so far.
    fn counts(&self) -> (usize, usize) {
        let state = lock_ok(&self.state);
        let ok = state
            .outcomes
            .iter()
            .flatten()
            .filter(|o| o.is_ok())
            .count();
        (ok, state.completed - ok)
    }

    /// The `ovlp.sweep-summary.v1` document for this job.
    pub fn summary(&self) -> String {
        let (ok, failed) = self.counts();
        let state = lock_ok(&self.state);
        let mut o = Obj::new();
        o.set("schema", Value::str(SUMMARY_SCHEMA));
        o.set("job", Value::str(&self.id));
        o.set("points", Value::Num(self.points as f64));
        o.set("completed", Value::Num(state.completed as f64));
        o.set("ok", Value::Num(ok as f64));
        o.set("failed", Value::Num(failed as f64));
        o.set("done", Value::Bool(state.report.is_some()));
        o.set("cancelled", Value::Bool(self.cancelled()));
        if let Some((hits, misses, coalesced)) = state.cache_delta {
            o.set("store_hits", Value::Num(hits as f64));
            o.set("store_misses", Value::Num(misses as f64));
            o.set("coalesced", Value::Num(coalesced as f64));
        }
        if let Some(elapsed) = state.elapsed {
            o.set("elapsed_ms", Value::Num(elapsed.as_secs_f64() * 1e3));
        }
        Value::Obj(o).to_string()
    }
}

/// NDJSON line for one completed point, in wire schema
/// `ovlp.sweep-point.v1`. Deterministic: exact bit patterns of the
/// runtimes are carried alongside the decimal rendering.
pub fn point_line(index: usize, outcome: &PointOutcome) -> String {
    let mut o = Obj::new();
    o.set("schema", Value::str(POINT_SCHEMA));
    o.set("index", Value::Num(index as f64));
    match outcome {
        Ok(r) => {
            o.set("app", Value::str(&r.app));
            o.set("platform", Value::Num(r.point.platform as f64));
            o.set("policy", Value::Num(r.point.policy as f64));
            o.set("key", Value::str(format!("{:016x}", r.key.0)));
            o.set("t_original", Value::Num(r.t_original));
            o.set("t_overlapped", Value::Num(r.t_overlapped));
            o.set("t_ideal", Value::Num(r.t_ideal));
            o.set(
                "bits",
                Value::str(format!(
                    "{:016x}:{:016x}:{:016x}",
                    r.t_original.to_bits(),
                    r.t_overlapped.to_bits(),
                    r.t_ideal.to_bits()
                )),
            );
            o.set("hash", Value::str(format!("{:016x}", r.result_hash())));
            if let Some(cp) = &r.critpaths {
                // Compact per-variant blame attribution, present only
                // when the job's spec asked for `critpath`. Totals come
                // from exact expansion sums, so the values (and the
                // line bytes) are jobs-invariant.
                let mut c = Obj::new();
                for (label, path) in cp.labelled() {
                    let mut v = Obj::new();
                    v.set("runtime_s", Value::Num(path.runtime.as_secs()));
                    v.set("exact", Value::Bool(path.exact));
                    for b in Blame::ALL {
                        let t = path.total(b);
                        if t != 0.0 {
                            v.set(b.name(), Value::Num(t));
                        }
                    }
                    c.set(label, Value::Obj(v));
                }
                o.set("critpath", Value::Obj(c));
            }
        }
        Err(e) => {
            o.set("platform", Value::Num(e.point.platform as f64));
            o.set("policy", Value::Num(e.point.policy as f64));
            o.set("kind", Value::str(e.kind.name()));
            o.set("error", Value::str(&e.message));
        }
    }
    Value::Obj(o).to_string()
}

/// Stream-terminating NDJSON line (`ovlp.sweep-done.v1`). Carries only
/// deterministic counts, so two streams of the same job are
/// byte-identical end to end, whether their points were computed,
/// store-served, or coalesced.
pub fn done_line(points: usize, ok: usize, failed: usize) -> String {
    let mut o = Obj::new();
    o.set("schema", Value::str(DONE_SCHEMA));
    o.set("points", Value::Num(points as f64));
    o.set("ok", Value::Num(ok as f64));
    o.set("failed", Value::Num(failed as f64));
    Value::Obj(o).to_string()
}

/// Daemon-lifetime counters behind `GET /metrics`. All monotonic
/// except `jobs_running`, which is the live gauge of sweeps currently
/// holding an execution slot.
#[derive(Debug, Default)]
pub struct DaemonMetrics {
    pub jobs_submitted: AtomicU64,
    pub jobs_running: AtomicU64,
    pub jobs_completed: AtomicU64,
    pub points_completed: AtomicU64,
    pub connections_admitted: AtomicU64,
    pub connections_rejected: AtomicU64,
    /// Live gauge of connections currently holding a handler thread.
    pub connections_active: AtomicU64,
    pub jobs_cancelled: AtomicU64,
    pub jobs_resumed: AtomicU64,
    pub journal_points_replayed: AtomicU64,
    pub client_disconnects: AtomicU64,
    pub jobs_rejected_draining: AtomicU64,
    /// Trace supplies (instrumented runs or generator
    /// materializations), at submission or deferred into a runner.
    pub traces: AtomicU64,
    /// Submissions that reused a memoized trace fingerprint instead of
    /// tracing.
    pub trace_memo_hits: AtomicU64,
    /// Variant bundles built by job sweeps.
    pub variant_bundles_built: AtomicU64,
    /// Engine replays run by job sweeps.
    pub replays: AtomicU64,
}

/// Trace fingerprints of every `(app, ranks)` pair this daemon traced
/// successfully. One `u64` per validated pair, so the memo is bounded
/// by the app pool times the rank caps (`TRACED_RANK_CAP`,
/// `GENERATED_MATERIALIZE_CAP`) and needs no eviction. Traces
/// themselves are never kept: they are tens of MB at 32 ranks.
type TraceMemo = Mutex<HashMap<TraceKey, u64>>;

/// The daemon's job table: submission, lookup, bounded execution.
pub struct Registry {
    cache: Arc<SweepCache>,
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    order: Mutex<Vec<String>>,
    next_id: AtomicU64,
    gate: Arc<Gate>,
    metrics: Arc<DaemonMetrics>,
    guard: Arc<PointGuard>,
    journal: Option<Arc<Journal>>,
    draining: AtomicBool,
    trace_memo: Arc<TraceMemo>,
}

impl Registry {
    /// `max_running` bounds concurrently *executing* sweeps; further
    /// submissions are accepted and queue for a slot.
    pub fn new(cache: Arc<SweepCache>, max_running: usize) -> Registry {
        Registry {
            cache,
            jobs: Mutex::new(HashMap::new()),
            order: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            gate: Arc::new(Gate::new(max_running)),
            metrics: Arc::new(DaemonMetrics::default()),
            guard: Arc::new(PointGuard::default()),
            journal: None,
            draining: AtomicBool::new(false),
            trace_memo: Arc::default(),
        }
    }

    /// Replace the default point guard (retry/deadline/quarantine
    /// policy, optionally chaos-armed).
    pub fn with_guard(mut self, guard: Arc<PointGuard>) -> Registry {
        self.guard = guard;
        self
    }

    /// Attach a write-ahead journal; submissions and per-point progress
    /// are recorded, enabling [`Registry::recover`] after a restart.
    pub fn with_journal(mut self, journal: Journal) -> Registry {
        self.journal = Some(Arc::new(journal));
        self
    }

    pub fn cache(&self) -> &Arc<SweepCache> {
        &self.cache
    }

    pub fn metrics(&self) -> &Arc<DaemonMetrics> {
        &self.metrics
    }

    pub fn guard(&self) -> &Arc<PointGuard> {
        &self.guard
    }

    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Stop admitting jobs; existing jobs keep running to completion.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Jobs that have not finished their grid yet.
    pub fn unfinished(&self) -> usize {
        lock_ok(&self.jobs)
            .values()
            .filter(|j| !j.is_done())
            .count()
    }

    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        lock_ok(&self.jobs).get(id).cloned()
    }

    /// Job ids in submission order (for the index endpoint).
    pub fn ids(&self) -> Vec<String> {
        lock_ok(&self.order).clone()
    }

    /// Validate, register, and start (or queue) a job. Returns the job
    /// immediately — results stream as they complete.
    pub fn submit(&self, spec: SweepSpec) -> Result<Arc<Job>, SpecError> {
        self.register(spec, None)
    }

    /// Re-register journaled jobs that never ended. Completed points
    /// replay from the store (byte-identical by the determinism
    /// contract), so a resumed job only computes what the crashed run
    /// missed. Ended jobs are left at rest: their results remain
    /// store-served, but the job objects are not re-materialized.
    /// Returns `(jobs resumed, journaled points replayed)`.
    pub fn recover(&self) -> (u64, u64) {
        let Some(journal) = &self.journal else {
            return (0, 0);
        };
        let journaled = journal.scan().unwrap_or_default();
        // Never reissue an id that a journaled job already owns.
        let max_id = journaled
            .iter()
            .filter_map(|j| j.id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()))
            .max()
            .unwrap_or(0);
        self.next_id.fetch_max(max_id + 1, Ordering::Relaxed);
        let (mut resumed, mut replayed) = (0u64, 0u64);
        for job in journaled {
            if job.end.is_some() {
                continue;
            }
            replayed += job.done.len() as u64;
            if self.register(job.spec, Some(job.id)).is_ok() {
                resumed += 1;
            }
        }
        self.metrics
            .jobs_resumed
            .fetch_add(resumed, Ordering::Relaxed);
        self.metrics
            .journal_points_replayed
            .fetch_add(replayed, Ordering::Relaxed);
        (resumed, replayed)
    }

    /// Validate `spec` and build its grid. A spec whose trace key is
    /// memoized gets a deferred app and is not traced here; otherwise
    /// the app is traced now (a failure is the caller's HTTP 500) and
    /// its fingerprint memoized.
    fn build(&self, spec: &SweepSpec) -> Result<(SweepGrid, SweepConfig), SpecError> {
        let key = spec.trace_key();
        let memoized = key.and_then(|k| lock_ok(&self.trace_memo).get(&k).copied());
        if let Some(fingerprint) = memoized {
            let built = spec.build_deferred(fingerprint)?;
            self.metrics.trace_memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(built);
        }
        let built = spec.build();
        if matches!(built, Ok(_) | Err(SpecError::Trace(_))) {
            self.metrics.traces.fetch_add(1, Ordering::Relaxed);
        }
        let (grid, config) = built?;
        if let Some(key) = key {
            lock_ok(&self.trace_memo).insert(key, grid.apps[0].fingerprint());
        }
        Ok((grid, config))
    }

    fn register(&self, spec: SweepSpec, resume_id: Option<String>) -> Result<Arc<Job>, SpecError> {
        // Validate (and, without a memoized fingerprint, trace) before
        // the 202, so malformed jobs are rejected at submission (HTTP
        // 400) instead of surfacing asynchronously.
        let (grid, mut config) = self.build(&spec)?;
        let cancel = Arc::new(AtomicBool::new(false));
        config.guard = Some(Arc::clone(&self.guard));
        config.cancel = Some(Arc::clone(&cancel));
        let id = resume_id
            .unwrap_or_else(|| format!("j{}", self.next_id.fetch_add(1, Ordering::Relaxed)));
        let job = Arc::new(Job {
            id: id.clone(),
            spec,
            points: grid.len(),
            state: Mutex::new(JobState {
                outcomes: vec![None; grid.len()],
                ..JobState::default()
            }),
            progress: Condvar::new(),
            cancel,
            readers: AtomicUsize::new(0),
        });
        if let Some(journal) = &self.journal {
            // Best-effort: a journal write failure degrades crash
            // recovery, never the job itself.
            let _ = journal.record_submit(&id, &job.spec, job.points);
        }
        lock_ok(&self.jobs).insert(id.clone(), Arc::clone(&job));
        lock_ok(&self.order).push(id);
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);

        let runner = Runner {
            cache: Arc::clone(&self.cache),
            gate: Arc::clone(&self.gate),
            metrics: Arc::clone(&self.metrics),
            journal: self.journal.clone(),
            memo: Arc::clone(&self.trace_memo),
        };
        let running = Arc::clone(&job);
        std::thread::spawn(move || run_job(running, grid, config, runner));
        Ok(job)
    }
}

/// What a job's runner thread shares with the registry.
struct Runner {
    cache: Arc<SweepCache>,
    gate: Arc<Gate>,
    metrics: Arc<DaemonMetrics>,
    journal: Option<Arc<Journal>>,
    memo: Arc<TraceMemo>,
}

fn run_job(job: Arc<Job>, grid: SweepGrid, config: SweepConfig, runner: Runner) {
    let Runner {
        cache,
        gate,
        metrics,
        journal,
        memo,
    } = runner;
    gate.acquire();
    metrics.jobs_running.fetch_add(1, Ordering::Relaxed);
    let (hits0, misses0) = cache.stats();
    let coalesced0 = cache.coalesced();
    let report = sweep_observed(&grid, &config, &cache, &|i, outcome| {
        job.record(i, outcome);
        metrics.points_completed.fetch_add(1, Ordering::Relaxed);
        if outcome.is_ok() {
            // Journal *after* the store write (inside the sweep), so a
            // journaled point is always durable.
            if let Some(journal) = &journal {
                let _ = journal.record_point(&job.id, i);
            }
        }
    });
    let (hits1, misses1) = cache.stats();
    let coalesced1 = cache.coalesced();
    metrics
        .variant_bundles_built
        .fetch_add(report.bundles_built, Ordering::Relaxed);
    metrics.replays.fetch_add(report.replays, Ordering::Relaxed);
    for app in &grid.apps {
        let Some(retraced) = app.run.retraced() else {
            continue;
        };
        metrics.traces.fetch_add(1, Ordering::Relaxed);
        if retraced.is_err() {
            // The re-trace failed or no longer matches the memoized
            // fingerprint (its points failed, nothing was stored):
            // forget it, so the next submission traces afresh.
            if let Some(key) = job.spec.trace_key() {
                let mut memo = lock_ok(&memo);
                if memo.get(&key) == Some(&app.fingerprint()) {
                    memo.remove(&key);
                }
            }
        }
    }
    let rendered = report.render_full(&grid);
    // Seal the journal and counters *before* publishing the report:
    // anyone woken by `done` (summaries, drains, tests) then sees the
    // final state, and a crash after this line resumes as a no-op.
    let end = if job.cancelled() {
        metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        JobEnd::Cancelled
    } else {
        JobEnd::Complete
    };
    if let Some(journal) = &journal {
        let _ = journal.record_end(&job.id, end);
    }
    metrics.jobs_running.fetch_sub(1, Ordering::Relaxed);
    metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
    {
        let mut state = lock_ok(&job.state);
        state.cache_delta = Some((hits1 - hits0, misses1 - misses0, coalesced1 - coalesced0));
        state.elapsed = Some(report.elapsed);
        state.report = Some(rendered);
    }
    job.progress.notify_all();
    gate.release();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("nas-cg", 4);
        spec.chunks = vec![1, 4];
        spec.jobs = 2;
        spec
    }

    #[test]
    fn submitted_jobs_run_and_stream_in_order() {
        let registry = Registry::new(Arc::new(SweepCache::new()), 2);
        let job = registry.submit(quick_spec()).unwrap();
        assert_eq!(job.points(), 2);
        // points arrive in canonical order via wait_point
        for i in 0..job.points() {
            let outcome = job.wait_point(i);
            assert!(outcome.is_ok(), "{outcome:?}");
        }
        let report = job.wait_report();
        assert!(report.contains("2 points (2 ok, 0 failed)"), "{report}");
        assert!(job.is_done());
        let summary = job.summary();
        assert!(summary.contains("\"done\":true"), "{summary}");
        assert!(summary.contains("\"store_misses\":2"), "{summary}");
        assert_eq!(registry.ids(), vec![job.id.clone()]);
        assert!(registry.get(&job.id).is_some());
        assert!(registry.get("j999").is_none());
    }

    #[test]
    fn resubmission_is_all_store_hits() {
        let registry = Registry::new(Arc::new(SweepCache::new()), 2);
        let first = registry.submit(quick_spec()).unwrap();
        let report1 = first.wait_report();
        let second = registry.submit(quick_spec()).unwrap();
        let report2 = second.wait_report();
        assert_eq!(report1, report2, "byte-identical reports");
        assert!(
            second.summary().contains("\"store_hits\":2"),
            "{}",
            second.summary()
        );
        assert!(
            second.summary().contains("\"store_misses\":0"),
            "{}",
            second.summary()
        );
        // identical NDJSON streams, line by line
        for i in 0..first.points() {
            assert_eq!(
                point_line(i, &first.wait_point(i)),
                point_line(i, &second.wait_point(i))
            );
        }
    }

    #[test]
    fn memoized_fingerprint_skips_the_trace_until_a_point_misses() {
        let registry = Registry::new(Arc::new(SweepCache::new()), 2);
        let m = Arc::clone(registry.metrics());
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let first = registry.submit(quick_spec()).unwrap();
        let report1 = first.wait_report();
        assert_eq!(load(&m.traces), 1);
        assert_eq!(load(&m.trace_memo_hits), 0);
        assert_eq!(load(&m.variant_bundles_built), 2);

        // all hits: no trace, no bundle
        let second = registry.submit(quick_spec()).unwrap();
        assert_eq!(second.wait_report(), report1);
        assert_eq!(load(&m.traces), 1);
        assert_eq!(load(&m.trace_memo_hits), 1);
        assert_eq!(load(&m.variant_bundles_built), 2);

        // a new policy misses: the deferred trace runs in the runner
        let mut wider = quick_spec();
        wider.chunks = vec![1, 2, 4];
        let third = registry.submit(wider).unwrap();
        assert!(third.wait_report().contains("3 points (3 ok, 0 failed)"));
        assert_eq!(load(&m.traces), 2);
        assert_eq!(load(&m.trace_memo_hits), 2);
        assert_eq!(load(&m.variant_bundles_built), 3);
    }

    #[test]
    fn mismatching_memo_entry_fails_its_misses_and_is_dropped() {
        let registry = Registry::new(Arc::new(SweepCache::new()), 2);
        let key = quick_spec().trace_key().unwrap();
        lock_ok(&registry.trace_memo).insert(key, 0xdead_beef);
        let job = registry.submit(quick_spec()).unwrap();
        for i in 0..job.points() {
            let e = job.wait_point(i).unwrap_err();
            assert_eq!(e.kind, ovlp_core::sweep::FailKind::Transform);
            assert!(e.message.contains("fingerprint mismatch"), "{}", e.message);
        }
        job.wait_report();
        assert!(registry.cache().is_empty(), "nothing stored");
        assert!(!lock_ok(&registry.trace_memo).contains_key(&key));

        // the next submission traces afresh and succeeds
        let again = registry.submit(quick_spec()).unwrap();
        assert!(again.wait_report().contains("2 points (2 ok, 0 failed)"));
        assert_eq!(registry.metrics().traces.load(Ordering::Relaxed), 2);
        assert_ne!(lock_ok(&registry.trace_memo).get(&key), Some(&0xdead_beef));
    }

    #[test]
    fn malformed_jobs_are_rejected_at_submission() {
        let registry = Registry::new(Arc::new(SweepCache::new()), 2);
        let err = registry
            .submit(SweepSpec::new("no-such-app", 4))
            .unwrap_err();
        assert!(matches!(err, SpecError::Usage(_)));
        assert!(registry.ids().is_empty());
    }
}
