//! Daemon-vs-CLI differential tests for `ovlp serve`.
//!
//! The sweep daemon must be an *exact* front end swap: the same grid,
//! in the same canonical order, with byte-identical results — plus the
//! persistent-store guarantees (resubmission is served entirely from
//! the store; concurrent identical submissions compute each point
//! exactly once).

use overlap_sim::serve::{ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;

/// The pinned 64-point job: 4 chunk counts x 4 bandwidths x 2 bus
/// counts x 2 topologies.
const JOB: &str = r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"jobs":2,"chunks":[1,2,4,8],"bw":[100,175,250,325],"buses":[4,6],"topology":["bus","crossbar"]}"#;
const JOB_POINTS: u64 = 64;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ovlp-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(store: Option<PathBuf>, max_running: usize) -> (SocketAddr, ServerHandle) {
    start_with(ServeConfig {
        store_dir: store,
        max_running,
        ..test_config()
    })
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_connections: 64,
        ..ServeConfig::default()
    }
}

fn start_with(config: ServeConfig) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

/// Minimal HTTP/1.1 client: one request per connection (the daemon is
/// `Connection: close`), de-chunking the body when needed.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let (head, payload) = text.split_once("\r\n\r\n").unwrap();
    let status: u16 = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let chunked = head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked");
    let body = if chunked {
        dechunk(payload)
    } else {
        payload.to_string()
    };
    (status, body)
}

fn dechunk(payload: &str) -> String {
    let mut out = String::new();
    let mut rest = payload;
    loop {
        let (size_line, tail) = rest.split_once("\r\n").unwrap();
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
        if size == 0 {
            break;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..];
    }
    out
}

/// Pull `"field":<number>` out of a JSON document (the daemon emits
/// canonical JSON with no whitespace, so this is exact).
fn json_u64(doc: &str, field: &str) -> u64 {
    let pat = format!("\"{field}\":");
    let tail = &doc[doc
        .find(&pat)
        .unwrap_or_else(|| panic!("no {field} in {doc}"))
        + pat.len()..];
    tail.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

fn submit(addr: SocketAddr) -> String {
    let (status, body) = http(addr, "POST", "/v1/sweeps", JOB);
    assert_eq!(status, 202, "{body}");
    assert_eq!(json_u64(&body, "points"), JOB_POINTS);
    let pat = "\"job\":\"";
    let tail = &body[body.find(pat).unwrap() + pat.len()..];
    tail[..tail.find('"').unwrap()].to_string()
}

fn wait_summary(addr: SocketAddr, job: &str) -> String {
    let (status, body) = http(addr, "GET", &format!("/v1/sweeps/{job}/summary?wait=1"), "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"done\":true"), "{body}");
    body
}

#[test]
fn daemon_report_is_byte_identical_to_the_cli() {
    let store = temp_dir("differential");
    let (addr, handle) = start(Some(store.clone()), 2);

    let job = submit(addr);
    let (status, daemon_report) = http(addr, "GET", &format!("/v1/sweeps/{job}/report"), "");
    assert_eq!(status, 200);

    let cli = Command::new(env!("CARGO_BIN_EXE_ovlp"))
        .args([
            "sweep",
            "nas-cg",
            "4",
            "--jobs",
            "2",
            "--chunks",
            "1,2,4,8",
            "--bw",
            "100,175,250,325",
            "--buses",
            "4,6",
            "--topology",
            "bus,crossbar",
        ])
        .output()
        .unwrap();
    assert!(cli.status.success(), "{:?}", cli);
    let cli_report = String::from_utf8(cli.stdout).unwrap();
    assert_eq!(
        daemon_report, cli_report,
        "daemon report and `ovlp sweep` stdout must match byte for byte"
    );

    // The NDJSON stream covers the same 64 points in canonical order.
    let (status, stream) = http(addr, "GET", &format!("/v1/sweeps/{job}"), "");
    assert_eq!(status, 200);
    let lines: Vec<&str> = stream.lines().collect();
    assert_eq!(lines.len() as u64, JOB_POINTS + 1);
    for (i, line) in lines[..JOB_POINTS as usize].iter().enumerate() {
        assert!(
            line.contains("\"schema\":\"ovlp.sweep-point.v1\""),
            "{line}"
        );
        assert!(line.contains(&format!("\"index\":{i},")), "{line}");
    }
    assert!(
        lines[JOB_POINTS as usize].contains("\"schema\":\"ovlp.sweep-done.v1\""),
        "{stream}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn resubmission_is_served_entirely_from_the_store() {
    let store = temp_dir("resubmit");
    let (addr, handle) = start(Some(store.clone()), 2);

    let first = submit(addr);
    let summary = wait_summary(addr, &first);
    assert_eq!(json_u64(&summary, "store_misses"), JOB_POINTS);
    assert_eq!(json_u64(&summary, "store_hits"), 0);
    let (_, first_stream) = http(addr, "GET", &format!("/v1/sweeps/{first}"), "");

    // Same daemon, same job: zero replays, identical bytes.
    let second = submit(addr);
    let summary = wait_summary(addr, &second);
    assert_eq!(json_u64(&summary, "store_hits"), JOB_POINTS);
    assert_eq!(json_u64(&summary, "store_misses"), 0);
    let (_, second_stream) = http(addr, "GET", &format!("/v1/sweeps/{second}"), "");
    assert_eq!(first_stream, second_stream);
    handle.shutdown();

    // A restarted daemon on the same store directory: the points come
    // back from disk (cross-process persistence), still byte-identical,
    // and so does the trace fingerprint, so nothing is traced.
    let (addr, handle) = start(Some(store.clone()), 2);
    let third = submit(addr);
    let summary = wait_summary(addr, &third);
    assert_eq!(json_u64(&summary, "store_hits"), JOB_POINTS);
    assert_eq!(json_u64(&summary, "store_misses"), 0);
    let (_, third_stream) = http(addr, "GET", &format!("/v1/sweeps/{third}"), "");
    assert_eq!(first_stream, third_stream);
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "ovlp_traces_total"), 0, "{metrics}");
    assert_eq!(metric(&metrics, "ovlp_trace_memo_hits_total"), 1);
    assert_eq!(metric(&metrics, "ovlp_variant_bundles_built_total"), 0);
    let (_, stats) = http(addr, "GET", "/v1/store/stats", "");
    assert!(
        stats.contains("\"schema\":\"ovlp.store-stats.v1\""),
        "{stats}"
    );
    assert_eq!(json_u64(&stats, "entries"), JOB_POINTS);
    assert_eq!(json_u64(&stats, "corrupt"), 0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn concurrent_identical_submissions_compute_each_point_exactly_once() {
    // Four identical jobs racing on a fresh daemon: every point is
    // simulated exactly once (64 misses); the other three observers of
    // each point are either in-flight coalescings or cache hits.
    let store = temp_dir("coalesce");
    let (addr, handle) = start(Some(store.clone()), 4);

    let jobs: Vec<String> = {
        let submits: Vec<std::thread::JoinHandle<String>> = (0..4)
            .map(|_| std::thread::spawn(move || submit(addr)))
            .collect();
        submits.into_iter().map(|t| t.join().unwrap()).collect()
    };
    let mut streams = Vec::new();
    for job in &jobs {
        wait_summary(addr, job);
        let (status, stream) = http(addr, "GET", &format!("/v1/sweeps/{job}"), "");
        assert_eq!(status, 200);
        streams.push(stream);
    }
    for s in &streams[1..] {
        assert_eq!(&streams[0], s, "racing jobs must stream identical bytes");
    }

    let (_, stats) = http(addr, "GET", "/v1/store/stats", "");
    let misses = json_u64(&stats, "misses");
    let hits = json_u64(&stats, "hits");
    let coalesced = json_u64(&stats, "coalesced");
    assert_eq!(
        misses, JOB_POINTS,
        "each point computed exactly once: {stats}"
    );
    assert_eq!(
        hits + coalesced,
        3 * JOB_POINTS,
        "the other three claims per point hit or coalesced: {stats}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

/// Value of one un-labelled sample in a Prometheus text exposition.
fn metric(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("no sample {name} in:\n{body}"))
        .parse()
        .unwrap()
}

#[test]
fn metrics_endpoint_exposes_daemon_counters() {
    let (addr, handle) = start(None, 2);

    // Fresh daemon: families are present with zeroed job counters.
    let (status, before) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        before.contains("# HELP ovlp_jobs_submitted_total"),
        "{before}"
    );
    assert!(before.contains("# TYPE ovlp_jobs_submitted_total counter"));
    assert!(before.contains("# TYPE ovlp_jobs_running gauge"));
    assert_eq!(metric(&before, "ovlp_jobs_submitted_total"), 0);
    assert_eq!(metric(&before, "ovlp_points_completed_total"), 0);
    // No persistent store, but the store series still scrape (as 0).
    assert_eq!(metric(&before, "ovlp_store_corruption_heals_total"), 0);

    let job = submit(addr);
    wait_summary(addr, &job);
    let (_, after) = http(addr, "GET", "/metrics", "");
    assert_eq!(metric(&after, "ovlp_jobs_submitted_total"), 1);
    assert_eq!(metric(&after, "ovlp_jobs_completed_total"), 1);
    assert_eq!(metric(&after, "ovlp_jobs_running"), 0);
    assert_eq!(metric(&after, "ovlp_points_completed_total"), JOB_POINTS);
    assert_eq!(metric(&after, "ovlp_cache_memory_misses_total"), JOB_POINTS);
    assert!(
        metric(&after, "ovlp_connections_admitted_total") >= 3,
        "{after}"
    );
    assert_eq!(metric(&after, "ovlp_connections_rejected_total"), 0);

    handle.shutdown();
}

#[test]
fn resubmission_reuses_the_trace_fingerprint_and_builds_nothing() {
    // The first job traces at submission and builds one variant bundle
    // per chunk policy; the identical second job is all cache hits, so
    // it neither traces nor transforms, and streams the same bytes.
    let (addr, handle) = start(None, 2);
    let scrape = || http(addr, "GET", "/metrics", "").1;
    let counts = |body: &str| {
        [
            "ovlp_traces_total",
            "ovlp_trace_memo_hits_total",
            "ovlp_variant_bundles_built_total",
        ]
        .map(|name| metric(body, name))
    };
    assert_eq!(counts(&scrape()), [0, 0, 0]);

    let first = submit(addr);
    wait_summary(addr, &first);
    let (_, first_stream) = http(addr, "GET", &format!("/v1/sweeps/{first}"), "");
    let after_first = scrape();
    assert_eq!(counts(&after_first), [1, 0, 4]);
    // The four policies share the original variant, so the job replays
    // fewer than three variants per point (concurrent misses of one
    // variant may both replay it, so the count is only bounded).
    let replays = metric(&after_first, "ovlp_replays_total");
    assert!(replays > 0 && replays < 3 * JOB_POINTS, "{replays}");

    let second = submit(addr);
    let summary = wait_summary(addr, &second);
    assert_eq!(json_u64(&summary, "store_hits"), JOB_POINTS);
    let (_, second_stream) = http(addr, "GET", &format!("/v1/sweeps/{second}"), "");
    assert_eq!(
        counts(&scrape()),
        [1, 1, 4],
        "0 traces, 1 memo hit, 0 bundles"
    );
    assert_eq!(
        metric(&scrape(), "ovlp_replays_total"),
        replays,
        "an all-hit job replays nothing"
    );
    assert_eq!(first_stream, second_stream);

    handle.shutdown();
}

#[test]
fn critpath_jobs_stream_deterministic_blame_attribution() {
    let (addr, handle) = start(None, 2);
    let job_doc = r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"jobs":2,"chunks":[1,4],"critpath":true}"#;

    let submit_critpath = || {
        let (status, body) = http(addr, "POST", "/v1/sweeps", job_doc);
        assert_eq!(status, 202, "{body}");
        let pat = "\"job\":\"";
        let tail = &body[body.find(pat).unwrap() + pat.len()..];
        tail[..tail.find('"').unwrap()].to_string()
    };

    let first = submit_critpath();
    wait_summary(addr, &first);
    let (status, stream1) = http(addr, "GET", &format!("/v1/sweeps/{first}"), "");
    assert_eq!(status, 200);
    let points: Vec<&str> = stream1
        .lines()
        .filter(|l| l.contains("\"schema\":\"ovlp.sweep-point.v1\""))
        .collect();
    assert_eq!(points.len(), 2);
    for line in &points {
        assert!(line.contains("\"critpath\":{\"original\":{"), "{line}");
        assert!(line.contains("\"overlapped\":"), "{line}");
        assert!(line.contains("\"ideal\":"), "{line}");
        // every variant's blame partition is certified exact
        assert_eq!(line.matches("\"exact\":true").count(), 3, "{line}");
        assert!(line.contains("\"compute\":"), "{line}");
    }

    // Critpath points bypass the result cache, so a resubmission
    // recomputes — and must still stream byte-identical lines.
    let second = submit_critpath();
    wait_summary(addr, &second);
    let (_, stream2) = http(addr, "GET", &format!("/v1/sweeps/{second}"), "");
    assert_eq!(stream1, stream2);

    handle.shutdown();
}

#[test]
fn malformed_and_unknown_requests_are_rejected() {
    let (addr, handle) = start(None, 1);

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    for (body, needle) in [
        ("not json", "bad JSON"),
        ("{}", "schema"),
        (
            r#"{"schema":"ovlp.sweep-job.v1","app":"nope","ranks":4}"#,
            "unknown app",
        ),
        (
            r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"zap":1}"#,
            "unknown field",
        ),
        (
            r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"bw":[1e-300]}"#,
            "accepted range",
        ),
        // fabrics far beyond what the ranks need are refused before
        // any topology is compiled, so the answer comes at once
        (
            r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":8,"topology":["fat-tree:2000"]}"#,
            "over the limit of",
        ),
        (
            r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":8,"topology":["fat-tree:64"]}"#,
            "per node",
        ),
    ] {
        let sent = std::time::Instant::now();
        let (status, reply) = http(addr, "POST", "/v1/sweeps", body);
        assert_eq!(status, 400, "{body} -> {reply}");
        assert!(reply.contains(needle), "{body} -> {reply}");
        assert!(
            sent.elapsed() < std::time::Duration::from_secs(5),
            "{body} took {:?}",
            sent.elapsed()
        );
    }

    let (status, _) = http(addr, "GET", "/v1/sweeps/j999", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "DELETE", "/v1/sweeps", "");
    assert_eq!(status, 405);

    handle.shutdown();
}

/// Like [`http`] but also returns the raw response head, for header
/// assertions.
fn http_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let (head, payload) = text.split_once("\r\n\r\n").unwrap();
    let status: u16 = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    (status, head.to_string(), payload.to_string())
}

#[test]
fn health_endpoint_reports_live_and_ready() {
    let (addr, handle) = start(None, 2);
    let (status, body) = http(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"schema\":\"ovlp.health.v1\""), "{body}");
    assert!(body.contains("\"live\":true"), "{body}");
    assert!(body.contains("\"ready\":true"), "{body}");
    assert!(body.contains("\"draining\":false"), "{body}");
    assert_eq!(json_u64(&body, "jobs"), 0);
    assert_eq!(json_u64(&body, "unfinished"), 0);
    handle.shutdown();
}

#[test]
fn fresh_daemon_scrapes_robustness_families_as_zeros() {
    let (addr, handle) = start(None, 2);
    let (_, body) = http(addr, "GET", "/metrics", "");
    for family in [
        "ovlp_draining",
        "ovlp_jobs_rejected_draining_total",
        "ovlp_jobs_cancelled_total",
        "ovlp_client_disconnects_total",
        "ovlp_jobs_resumed_total",
        "ovlp_journal_points_replayed_total",
        "ovlp_points_retried_total",
        "ovlp_point_panics_total",
        "ovlp_point_timeouts_total",
        "ovlp_points_quarantined_total",
        "ovlp_quarantine_rejections_total",
        "ovlp_store_orphans_removed_total",
        "ovlp_replays_total",
    ] {
        assert_eq!(metric(&body, family), 0, "{family}");
    }
    handle.shutdown();
}

#[test]
fn drain_rejects_new_jobs_and_finishes_running_ones() {
    use std::time::{Duration, Instant};
    // Point 0 stalls so the job is reliably still running when the
    // drain begins (the per-attempt deadline is far above the stall).
    let (addr, handle) = start_with(ServeConfig {
        max_running: 1,
        chaos: Some("stall=1500@0:1".to_string()),
        ..test_config()
    });
    let small =
        r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"jobs":1,"chunks":[1,4]}"#;
    let (status, body) = http(addr, "POST", "/v1/sweeps", small);
    assert_eq!(status, 202, "{body}");

    let drainer = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.drain(Duration::from_secs(60)))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, health) = http(addr, "GET", "/v1/health", "");
        if health.contains("\"draining\":true") {
            assert!(health.contains("\"ready\":false"), "{health}");
            break;
        }
        assert!(Instant::now() < deadline, "daemon never started draining");
        std::thread::sleep(Duration::from_millis(10));
    }

    // While draining: submissions bounce with 503 + Retry-After, and
    // the drain state is visible to scrapes.
    let (status, head, body) = http_full(addr, "POST", "/v1/sweeps", small);
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(body.contains("draining"), "{body}");
    let (_, metrics_body) = http(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics_body, "ovlp_draining"), 1);
    assert_eq!(
        metric(&metrics_body, "ovlp_jobs_rejected_draining_total"),
        1
    );

    // The in-flight job still runs to completion under the drain.
    let summary = wait_summary(addr, "j1");
    assert!(summary.contains("\"cancelled\":false"), "{summary}");
    drainer.join().unwrap();
}

#[test]
fn client_disconnect_cancels_the_job_and_frees_its_slot() {
    // Every point after the first stalls, pinning the timeline: the
    // client vanishes during point 1, the daemon notices on a chunk
    // write well before the grid would finish.
    let (addr, handle) = start_with(ServeConfig {
        max_running: 1,
        chaos: Some("stall=400@1:1;stall=400@2:1;stall=400@3:1".to_string()),
        ..test_config()
    });
    let small =
        r#"{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"jobs":1,"chunks":[1,2,4,8]}"#;
    let (status, body) = http(addr, "POST", "/v1/sweeps", small);
    assert_eq!(status, 202, "{body}");

    // Stream, read one line, hang up mid-job.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /v1/sweeps/j1 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut one = [0u8; 512];
        let n = std::io::Read::read(&mut stream, &mut one).unwrap();
        assert!(n > 0, "got the response head");
    } // dropped: the daemon's next writes hit a closed socket

    // The job drains quickly (cancelled points short-circuit) and the
    // disconnect is visible in summary and metrics.
    let summary = wait_summary(addr, "j1");
    assert!(summary.contains("\"cancelled\":true"), "{summary}");
    let (_, metrics_body) = http(addr, "GET", "/metrics", "");
    assert!(
        metric(&metrics_body, "ovlp_client_disconnects_total") >= 1,
        "{metrics_body}"
    );
    assert_eq!(metric(&metrics_body, "ovlp_jobs_cancelled_total"), 1);

    // The execution slot is free again: a second job completes even
    // with max_running = 1.
    let (status, body) = http(addr, "POST", "/v1/sweeps", small);
    assert_eq!(status, 202, "{body}");
    // Its first point was stored by job 1 before the cancel, but the
    // stalled/cancelled tail recomputes; just require completion.
    let summary = wait_summary(addr, "j2");
    assert!(summary.contains("\"done\":true"), "{summary}");
    handle.shutdown();
}

#[test]
fn silent_client_times_out_and_frees_its_slot() {
    use overlap_sim::serve::server::REQUEST_READ_TIMEOUT;
    use std::time::{Duration, Instant};
    let (addr, handle) = start_with(ServeConfig {
        max_connections: 1,
        ..test_config()
    });

    // Half a request: the head promises a body that never comes.
    let mut stalled = TcpStream::connect(addr).unwrap();
    write!(
        stalled,
        "POST /v1/sweeps HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n{{\"sch"
    )
    .unwrap();
    let sent = Instant::now();

    // It holds the only connection slot meanwhile. (The probe sends
    // nothing: the daemon answers 503 without reading, and unread
    // request bytes would turn its close into a reset.)
    let mut probe = TcpStream::connect(addr).unwrap();
    let mut refused = String::new();
    probe.read_to_string(&mut refused).unwrap();
    assert!(refused.starts_with("HTTP/1.1 503 "), "{refused}");

    // The daemon gives up on it after the read timeout ...
    stalled
        .set_read_timeout(Some(4 * REQUEST_READ_TIMEOUT))
        .unwrap();
    let mut raw = String::new();
    stalled.read_to_string(&mut raw).unwrap();
    let waited = sent.elapsed();
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("request read timed out"), "{raw}");
    assert!(
        waited >= REQUEST_READ_TIMEOUT / 2 && waited < 4 * REQUEST_READ_TIMEOUT,
        "answered after {waited:?}"
    );

    // ... and the slot is free again.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http(addr, "GET", "/healthz", "");
        if status == 200 {
            assert_eq!(body, "ok\n");
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed: {status}");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}
