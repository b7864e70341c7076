//! The `ovlp serve` daemon: sweep-as-a-service over HTTP/1.1.
//!
//! Endpoints (all `Connection: close`, see `docs/serving.md`):
//!
//! | method | path                   | body / response                               |
//! |--------|------------------------|-----------------------------------------------|
//! | POST   | `/v1/sweeps`           | `ovlp.sweep-job.v1` → 202 `ovlp.sweep-accepted.v1` |
//! | GET    | `/v1/sweeps`           | job index                                     |
//! | GET    | `/v1/sweeps/<id>`      | NDJSON stream of `ovlp.sweep-point.v1` lines, chunked, as points complete; terminated by `ovlp.sweep-done.v1` |
//! | GET    | `/v1/sweeps/<id>/summary` | `ovlp.sweep-summary.v1` (add `?wait=1` to block until done) |
//! | GET    | `/v1/sweeps/<id>/report`  | text report, byte-identical to `ovlp sweep` stdout (blocks until done) |
//! | GET    | `/v1/store/stats`      | `ovlp.store-stats.v1` counters                |
//! | GET    | `/metrics`             | Prometheus text exposition of daemon counters |
//! | GET    | `/healthz`             | liveness probe                                |
//!
//! Concurrency limits: at most `max_running` sweeps execute at once
//! (later jobs queue), and at most `max_connections` HTTP connections
//! are served at once (excess connections get an immediate 503 rather
//! than an unbounded thread pile-up).

use crate::http::{read_request, respond, respond_with, BadRequest, ChunkedWriter, Request};
use crate::jobs::{done_line, point_line, DaemonMetrics, Registry};
use crate::journal::Journal;
use crate::json::{Obj, Value};
use crate::spec::{SpecError, SweepSpec};
use ovlp_core::sweep::chaos::ChaosPolicy;
use ovlp_core::sweep::guard::{PointGuard, RetryPolicy};
use ovlp_core::sweep::SweepCache;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire schema of the submission response.
pub const ACCEPTED_SCHEMA: &str = "ovlp.sweep-accepted.v1";
/// Wire schema of the store stats document.
pub const STORE_STATS_SCHEMA: &str = "ovlp.store-stats.v1";
/// Wire schema of the health document.
pub const HEALTH_SCHEMA: &str = "ovlp.health.v1";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7411`. Port 0 picks a free port
    /// (the bound address is available via [`Server::local_addr`]).
    pub addr: String,
    /// Persistent store directory; `None` keeps results in memory only
    /// (still deduplicated and coalesced, just not across restarts).
    pub store_dir: Option<PathBuf>,
    /// Concurrent sweep executions (further jobs queue).
    pub max_running: usize,
    /// Concurrent HTTP connections (excess gets 503).
    pub max_connections: usize,
    /// Wall-clock budget per point attempt; `None` disables the
    /// watchdog.
    pub point_deadline: Option<Duration>,
    /// Attempts per point (>= 1) before quarantine.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff.
    pub backoff_ms: u64,
    /// How long a drain may take before the daemon exits anyway.
    pub drain_grace: Duration,
    /// Fault-injection spec (see [`ChaosPolicy`]); parsed at bind.
    /// Test-only — the CLI populates it from `OVLP_CHAOS`.
    pub chaos: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7411".to_string(),
            store_dir: None,
            max_running: 2,
            max_connections: 32,
            point_deadline: Some(Duration::from_secs(30)),
            max_attempts: 3,
            backoff_ms: 25,
            drain_grace: Duration::from_secs(20),
            chaos: None,
        }
    }
}

/// A bound (not yet running) daemon.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
}

/// Cloneable handle that can stop (or drain) a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Registry>,
}

impl ServerHandle {
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Nudge the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Graceful drain: stop admitting jobs (POST gets 503 +
    /// `Retry-After`), wait — up to `grace` — for running sweeps to
    /// finish and streaming clients to detach, then stop the accept
    /// loop. In-flight points persist to the store and journal as they
    /// complete, so anything the grace period cuts off resumes on the
    /// next start.
    pub fn drain(&self, grace: Duration) {
        self.registry.begin_drain();
        let deadline = Instant::now() + grace;
        let metrics = self.registry.metrics();
        while Instant::now() < deadline
            && (self.registry.unfinished() > 0
                || metrics.connections_active.load(Ordering::SeqCst) > 0)
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shutdown();
    }
}

impl Server {
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let chaos = match &config.chaos {
            Some(spec) => Some(Arc::new(spec.parse::<ChaosPolicy>().map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidInput, format!("bad chaos spec: {e}"))
            })?)),
            None => None,
        };
        let cache = match &config.store_dir {
            Some(dir) => SweepCache::persistent(dir)?,
            None => SweepCache::new(),
        };
        if let (Some(chaos), Some(disk)) = (&chaos, cache.disk()) {
            disk.set_chaos(Arc::clone(chaos));
        }
        let mut guard = PointGuard::new(RetryPolicy {
            max_attempts: config.max_attempts.max(1),
            backoff_base: Duration::from_millis(config.backoff_ms),
            deadline: config.point_deadline,
        });
        if let Some(chaos) = &chaos {
            guard = guard.with_chaos(Arc::clone(chaos));
        }
        let mut registry =
            Registry::new(Arc::new(cache), config.max_running).with_guard(Arc::new(guard));
        if let Some(dir) = &config.store_dir {
            registry = registry.with_journal(Journal::open(dir.join("journal"))?);
        }
        let registry = Arc::new(registry);
        registry.recover();
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            registry,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
            registry: Arc::clone(&self.registry),
        })
    }

    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Accept loop; returns after [`ServerHandle::shutdown`]. Each
    /// connection is one request on its own thread, admission-limited
    /// by `max_connections`.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let metrics = self.registry.metrics();
            if metrics.connections_active.load(Ordering::SeqCst)
                >= self.config.max_connections as u64
            {
                metrics.connections_rejected.fetch_add(1, Ordering::Relaxed);
                let _ = respond(
                    &mut stream,
                    503,
                    "application/json",
                    &error_body("connection limit reached, retry"),
                );
                continue;
            }
            metrics.connections_active.fetch_add(1, Ordering::SeqCst);
            metrics.connections_admitted.fetch_add(1, Ordering::Relaxed);
            let registry = Arc::clone(&self.registry);
            std::thread::spawn(move || {
                let _ = handle_connection(&mut stream, &registry);
                registry
                    .metrics()
                    .connections_active
                    .fetch_sub(1, Ordering::SeqCst);
            });
        }
        Ok(())
    }
}

fn error_body(message: &str) -> String {
    let mut o = Obj::new();
    o.set("error", Value::str(message));
    Value::Obj(o).to_string()
}

/// How long a client may stay silent while sending its request line,
/// headers and body. A client that stalls mid-request gets a 400 and
/// frees its connection slot. Fixed rather than configurable: a
/// sweep-job document is a few hundred bytes. Response writes (the
/// NDJSON stream) have no timeout.
pub const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(5);

fn handle_connection(stream: &mut TcpStream, registry: &Registry) -> io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT))?;
    let request = match read_request(stream) {
        Ok(r) => r,
        Err(BadRequest(msg)) => {
            return respond(stream, 400, "application/json", &error_body(&msg));
        }
    };
    route(stream, registry, &request)
}

fn route(stream: &mut TcpStream, registry: &Registry, req: &Request) -> io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => respond(stream, 200, "text/plain", "ok\n"),
        ("GET", ["v1", "health"]) => respond(stream, 200, "application/json", &health(registry)),
        ("POST", ["v1", "sweeps"]) => {
            if registry.is_draining() {
                registry
                    .metrics()
                    .jobs_rejected_draining
                    .fetch_add(1, Ordering::Relaxed);
                return respond_with(
                    stream,
                    503,
                    "application/json",
                    &[("Retry-After", "5")],
                    &error_body("daemon is draining; resubmit to the next instance"),
                );
            }
            submit(stream, registry, &req.body)
        }
        ("GET", ["v1", "sweeps"]) => {
            let mut o = Obj::new();
            o.set(
                "jobs",
                Value::Arr(registry.ids().into_iter().map(Value::Str).collect()),
            );
            respond(stream, 200, "application/json", &Value::Obj(o).to_string())
        }
        ("GET", ["v1", "sweeps", id]) => stream_job(stream, registry, id),
        ("GET", ["v1", "sweeps", id, "summary"]) => {
            let Some(job) = registry.get(id) else {
                return respond(stream, 404, "application/json", &error_body("no such job"));
            };
            if req.query.as_deref().is_some_and(|q| q.contains("wait")) {
                job.wait_report();
            }
            respond(stream, 200, "application/json", &job.summary())
        }
        ("GET", ["v1", "sweeps", id, "report"]) => {
            let Some(job) = registry.get(id) else {
                return respond(stream, 404, "application/json", &error_body("no such job"));
            };
            respond(stream, 200, "text/plain", &job.wait_report())
        }
        ("GET", ["v1", "store", "stats"]) => respond(
            stream,
            200,
            "application/json",
            &store_stats(registry.cache()),
        ),
        ("GET", ["metrics"]) => respond(
            stream,
            200,
            "text/plain; version=0.0.4",
            &prometheus_metrics(registry),
        ),
        ("POST" | "GET", _) => respond(
            stream,
            404,
            "application/json",
            &error_body("no such endpoint"),
        ),
        _ => respond(
            stream,
            405,
            "application/json",
            &error_body("method not allowed"),
        ),
    }
}

fn submit(stream: &mut TcpStream, registry: &Registry, body: &str) -> io::Result<()> {
    let spec = match SweepSpec::from_json(body) {
        Ok(s) => s,
        Err(e) => return respond(stream, 400, "application/json", &error_body(&e.to_string())),
    };
    match registry.submit(spec) {
        Ok(job) => {
            let mut o = Obj::new();
            o.set("schema", Value::str(ACCEPTED_SCHEMA));
            o.set("job", Value::str(&job.id));
            o.set("points", Value::Num(job.points() as f64));
            o.set("stream", Value::str(format!("/v1/sweeps/{}", job.id)));
            o.set(
                "report",
                Value::str(format!("/v1/sweeps/{}/report", job.id)),
            );
            respond(stream, 202, "application/json", &Value::Obj(o).to_string())
        }
        Err(SpecError::Usage(msg)) => respond(stream, 400, "application/json", &error_body(&msg)),
        Err(SpecError::Trace(msg)) => respond(stream, 500, "application/json", &error_body(&msg)),
    }
}

/// The `ovlp.health.v1` document: live / ready / draining.
fn health(registry: &Registry) -> String {
    let draining = registry.is_draining();
    let mut o = Obj::new();
    o.set("schema", Value::str(HEALTH_SCHEMA));
    o.set("live", Value::Bool(true));
    o.set("ready", Value::Bool(!draining));
    o.set("draining", Value::Bool(draining));
    o.set("jobs", Value::Num(registry.ids().len() as f64));
    o.set("unfinished", Value::Num(registry.unfinished() as f64));
    Value::Obj(o).to_string()
}

/// Stream a job's per-point results as NDJSON, chunked, in canonical
/// grid order, blocking on points that have not completed yet. A write
/// error means the client went away: if it was the job's last reader
/// and the job is still running, its remaining points are cancelled so
/// the execution slot frees up instead of computing for nobody.
fn stream_job(stream: &mut TcpStream, registry: &Registry, id: &str) -> io::Result<()> {
    let Some(job) = registry.get(id) else {
        return respond(stream, 404, "application/json", &error_body("no such job"));
    };
    job.reader_attached();
    let outcome = (|| {
        let mut writer = ChunkedWriter::start(stream, 200, "application/x-ndjson")?;
        let (mut ok, mut failed) = (0usize, 0usize);
        for index in 0..job.points() {
            let outcome = job.wait_point(index);
            match &outcome {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
            writer.chunk(&format!("{}\n", point_line(index, &outcome)))?;
        }
        writer.chunk(&format!("{}\n", done_line(job.points(), ok, failed)))?;
        writer.finish()
    })();
    let remaining = job.reader_detached();
    if outcome.is_err() {
        registry
            .metrics()
            .client_disconnects
            .fetch_add(1, Ordering::Relaxed);
        if remaining == 0 && !job.is_done() {
            job.request_cancel();
        }
    }
    outcome
}

/// The `GET /metrics` body: Prometheus text exposition (format 0.0.4)
/// of the daemon counters plus the shared cache/store statistics.
/// Families appear in a fixed order so successive scrapes differ only
/// in sample values. Store-level series are emitted (as zeros) even
/// without a persistent store, keeping the scrape schema stable across
/// daemon configurations.
pub fn prometheus_metrics(registry: &Registry) -> String {
    use std::fmt::Write as _;
    let m: &DaemonMetrics = registry.metrics();
    let cache = registry.cache();
    let (hits, misses) = cache.stats();
    let disk = cache.disk().map(|d| (d.entries(), d.stats()));
    let (disk_entries, disk_stats) = match disk {
        Some((entries, stats)) => (entries, stats),
        None => (0, Default::default()),
    };
    let guard_stats = registry.guard().stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let samples: &[(&str, &str, &str, u64)] = &[
        (
            "ovlp_jobs_submitted_total",
            "counter",
            "Sweep jobs accepted via POST /v1/sweeps.",
            load(&m.jobs_submitted),
        ),
        (
            "ovlp_jobs_running",
            "gauge",
            "Sweep jobs currently holding an execution slot.",
            load(&m.jobs_running),
        ),
        (
            "ovlp_jobs_completed_total",
            "counter",
            "Sweep jobs that finished evaluating their grid.",
            load(&m.jobs_completed),
        ),
        (
            "ovlp_points_completed_total",
            "counter",
            "Grid points computed or served across all jobs.",
            load(&m.points_completed),
        ),
        (
            "ovlp_connections_admitted_total",
            "counter",
            "HTTP connections admitted to a handler thread.",
            load(&m.connections_admitted),
        ),
        (
            "ovlp_connections_rejected_total",
            "counter",
            "HTTP connections refused with 503 at the admission limit.",
            load(&m.connections_rejected),
        ),
        (
            "ovlp_cache_memory_entries",
            "gauge",
            "Completed points resident in the in-memory result cache.",
            cache.len() as u64,
        ),
        (
            "ovlp_cache_memory_hits_total",
            "counter",
            "Point lookups answered from the in-memory cache.",
            hits,
        ),
        (
            "ovlp_cache_memory_misses_total",
            "counter",
            "Point lookups that fell through the in-memory cache.",
            misses,
        ),
        (
            "ovlp_cache_coalesced_total",
            "counter",
            "Duplicate in-flight points coalesced onto one computation.",
            cache.coalesced(),
        ),
        (
            "ovlp_store_entries",
            "gauge",
            "Results resident in the persistent store (0 without --store).",
            disk_entries,
        ),
        (
            "ovlp_store_hits_total",
            "counter",
            "Point lookups answered from the persistent store.",
            disk_stats.hits,
        ),
        (
            "ovlp_store_misses_total",
            "counter",
            "Point lookups that missed the persistent store.",
            disk_stats.misses,
        ),
        (
            "ovlp_store_corruption_heals_total",
            "counter",
            "Corrupt store entries detected, discarded, and recomputed.",
            disk_stats.corrupt,
        ),
        (
            "ovlp_store_bytes_read_total",
            "counter",
            "Bytes read back from the persistent store.",
            disk_stats.bytes_read,
        ),
        (
            "ovlp_store_bytes_written_total",
            "counter",
            "Bytes written to the persistent store.",
            disk_stats.bytes_written,
        ),
        (
            "ovlp_store_orphans_removed_total",
            "counter",
            "Orphaned temp files swept when the store was opened.",
            disk_stats.orphans_removed,
        ),
        (
            "ovlp_connections_active",
            "gauge",
            "HTTP connections currently holding a handler thread.",
            load(&m.connections_active),
        ),
        (
            "ovlp_draining",
            "gauge",
            "1 while the daemon drains (no new jobs admitted).",
            registry.is_draining() as u64,
        ),
        (
            "ovlp_jobs_rejected_draining_total",
            "counter",
            "Job submissions refused with 503 during a drain.",
            load(&m.jobs_rejected_draining),
        ),
        (
            "ovlp_jobs_cancelled_total",
            "counter",
            "Jobs whose remaining points were cancelled.",
            load(&m.jobs_cancelled),
        ),
        (
            "ovlp_client_disconnects_total",
            "counter",
            "Streaming clients that went away mid-stream.",
            load(&m.client_disconnects),
        ),
        (
            "ovlp_jobs_resumed_total",
            "counter",
            "Journaled jobs resumed after a daemon restart.",
            load(&m.jobs_resumed),
        ),
        (
            "ovlp_journal_points_replayed_total",
            "counter",
            "Journaled point completions replayed during recovery.",
            load(&m.journal_points_replayed),
        ),
        (
            "ovlp_traces_total",
            "counter",
            "Trace supplies (instrumented runs or generator materializations), at submission or deferred.",
            load(&m.traces),
        ),
        (
            "ovlp_trace_memo_hits_total",
            "counter",
            "Submissions that reused a memoized trace fingerprint instead of tracing.",
            load(&m.trace_memo_hits),
        ),
        (
            "ovlp_variant_bundles_built_total",
            "counter",
            "Variant bundles (overlap transforms) built by job sweeps.",
            load(&m.variant_bundles_built),
        ),
        (
            "ovlp_replays_total",
            "counter",
            "Engine replays run by job sweeps (memoized runtimes are not replayed again).",
            load(&m.replays),
        ),
        (
            "ovlp_points_retried_total",
            "counter",
            "Point attempts re-run after a transient failure.",
            guard_stats.retries,
        ),
        (
            "ovlp_point_panics_total",
            "counter",
            "Panics caught inside point computations.",
            guard_stats.panics,
        ),
        (
            "ovlp_point_timeouts_total",
            "counter",
            "Point attempts abandoned at the per-attempt deadline.",
            guard_stats.timeouts,
        ),
        (
            "ovlp_points_quarantined_total",
            "counter",
            "Distinct points quarantined after exhausting retries.",
            guard_stats.quarantined,
        ),
        (
            "ovlp_quarantine_rejections_total",
            "counter",
            "Point evaluations rejected because the key was quarantined.",
            guard_stats.quarantine_rejections,
        ),
    ];
    let mut out = String::new();
    for (name, kind, help, value) in samples {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    }
    out
}

/// The `ovlp.store-stats.v1` document for the shared cache.
pub fn store_stats(cache: &SweepCache) -> String {
    let (hits, misses) = cache.stats();
    let mut o = Obj::new();
    o.set("schema", Value::str(STORE_STATS_SCHEMA));
    o.set("memory_entries", Value::Num(cache.len() as f64));
    o.set("hits", Value::Num(hits as f64));
    o.set("misses", Value::Num(misses as f64));
    o.set("coalesced", Value::Num(cache.coalesced() as f64));
    match cache.disk() {
        Some(disk) => {
            let s = disk.stats();
            let mut d = Obj::new();
            d.set("entries", Value::Num(disk.entries() as f64));
            d.set("hits", Value::Num(s.hits as f64));
            d.set("misses", Value::Num(s.misses as f64));
            d.set("corrupt", Value::Num(s.corrupt as f64));
            d.set("bytes_read", Value::Num(s.bytes_read as f64));
            d.set("bytes_written", Value::Num(s.bytes_written as f64));
            d.set("orphans_removed", Value::Num(s.orphans_removed as f64));
            o.set("disk", Value::Obj(d));
        }
        None => {
            o.set("disk", Value::Null);
        }
    }
    Value::Obj(o).to_string()
}

/// Set on SIGTERM/SIGINT once [`install_termination_handler`] ran.
static TERM_SIGNAL: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::TERM_SIGNAL;
    use std::sync::atomic::Ordering;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_terminate(_signum: i32) {
        // Only an atomic store: async-signal-safe. The CLI's watcher
        // thread polls the flag and runs the actual drain.
        TERM_SIGNAL.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_terminate);
            signal(SIGTERM, on_terminate);
        }
    }
}

/// Install SIGTERM/SIGINT handlers that set (and return) a flag
/// instead of killing the process, so the caller can poll it and drain
/// gracefully. On non-Unix platforms this is a no-op flag that never
/// fires.
pub fn install_termination_handler() -> &'static AtomicBool {
    #[cfg(unix)]
    sig::install();
    &TERM_SIGNAL
}
