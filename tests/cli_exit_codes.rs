//! Pins the `ovlp` exit-code convention: 0 on success, 1 when
//! well-formed inputs fail at runtime (I/O, tracing, simulation), 2
//! for usage and parse errors — with the message on stderr and nothing
//! on stdout.

use std::process::{Command, Output, Stdio};

fn ovlp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ovlp"))
        .args(args)
        .output()
        .unwrap()
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = ovlp(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2: {out:?}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} should not write results to stdout"
    );
}

#[test]
fn success_exits_zero() {
    for args in [
        &["help"][..],
        &["list"][..],
        &["sweep", "nas-cg", "4", "--chunks", "1", "--bw", "250"][..],
    ] {
        let out = ovlp(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
    }
}

#[test]
fn usage_and_parse_errors_exit_two() {
    assert_usage_error(&["no-such-command"], "usage:");
    assert_usage_error(&["sweep", "nas-cg", "four"], "bad rank count");
    assert_usage_error(&["sweep", "no-such-app", "4"], "unknown app");
    assert_usage_error(&["sweep", "nas-cg", "4", "--chunks", "0"], "--chunks");
    assert_usage_error(&["sweep", "nas-cg", "4", "--engine", "warp"], "--engine");
    assert_usage_error(&["sweep", "nas-cg", "4", "--bw"], "--bw");
    // refused as the daemon refuses `"jobs": 0`, not run on one worker
    assert_usage_error(
        &["sweep", "nas-cg", "4", "--jobs", "0"],
        "`jobs` must be a positive integer",
    );
    // platform numbers outside their documented ranges are refused
    // with the range, before any tracing or replay
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/nas_cg_8r.trf");
    assert_usage_error(&["simulate", fixture, "inf", "0"], "accepted range");
    assert_usage_error(&["simulate", fixture, "0"], "accepted range");
    assert_usage_error(&["sweep", "nas-cg", "8", "--bw", "1e-300"], "--bw");
    assert_usage_error(&["sweep", "nas-cg", "4", "--bw", "0"], "accepted range");
    assert_usage_error(&["sweep", "nas-cg", "8", "--bw", "250,1e10"], "1e-3..=1e9");
    assert_usage_error(&["scale", "ml-allreduce", "64", "1e-300"], "accepted range");
    // a degraded link is held to the bandwidth's floor too
    let degrade = "degrade=1e-300@1us:uplink:*";
    assert_usage_error(
        &[
            "simulate",
            fixture,
            "--topology",
            "fat-tree:4",
            "--faults",
            degrade,
        ],
        "below the accepted floor",
    );
    assert_usage_error(
        &[
            "sweep",
            "nas-cg",
            "8",
            "--chunks",
            "1",
            "--topology",
            "fat-tree:16",
            "--faults",
            degrade,
        ],
        "below the accepted floor",
    );
    // the evaluation runs on at least one worker, never on a fallback
    assert_usage_error(&["paper", "--jobs", "0"], "--jobs");
    assert_usage_error(&["paper", "--jobs", "x"], "--jobs");
    assert_usage_error(&["paper", "--out"], "--out");
    assert_usage_error(
        &["sweep", "nas-cg", "4", "--probe-window", "-5"],
        "--probe-window",
    );
    // refused like `simulate`'s, not handed to the points' recorders
    assert_usage_error(
        &["sweep", "nas-cg", "4", "--probe-window", "NaN"],
        "must be positive",
    );
    // an infinite window would reach the recorders as a non-finite time
    assert_usage_error(
        &["simulate", fixture, "--probe-window", "inf"],
        "must be positive and finite",
    );
    assert_usage_error(
        &["sweep", "nas-cg", "4", "--probe-window", "inf"],
        "must be positive and finite",
    );
    assert_usage_error(
        &["sweep", "nas-cg", "4", "--topology", "hypercube"],
        "--topology",
    );
    assert_usage_error(&["analyze", "nas-cg", "bogus"], "bad rank count");
    assert_usage_error(&["analyze", "no-such-app", "4"], "unknown app");
    // every `<app> <ranks>` command points at the pool the same way
    let hint = "unknown app `no-such-app` (try `ovlp list`)";
    let out = format!("{}/no-such-app-out", env!("CARGO_TARGET_TMPDIR"));
    assert_usage_error(&["analyze", "no-such-app", "4"], hint);
    assert_usage_error(&["trace", "no-such-app", "4", &out], hint);
    assert_usage_error(&["scale", "no-such-app", "4"], hint);
    assert_usage_error(&["report", "no-such-app", "4", &out], hint);
    assert_usage_error(&["paraver", "no-such-app", "4", &out], hint);
    assert_usage_error(&["simulate", "trace.trf", "--engine", "warp"], "--engine");
    assert_usage_error(&["serve", "--max-running", "0"], "--max-running");
    // the views `analyze` prints are no longer commands of their own
    assert_usage_error(&["gantt", "nas-cg", "8"], "analyze <app> <ranks>");
    assert_usage_error(&["serve", "positional"], "unknown `serve` argument");
    assert_usage_error(
        &[
            "report",
            "nas-cg",
            "4",
            "/tmp/out.html",
            "--probe-window",
            "0",
        ],
        "--probe-window",
    );
}

/// Fixed-size fabrics far larger than any replay needs are refused
/// with the limit before anything is traced or compiled, so the
/// refusal is quick; the paper grid's fabrics are still accepted.
#[test]
fn oversized_fabrics_are_refused_at_once() {
    use std::time::{Duration, Instant};
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/nas_cg_8r.trf");
    let simulate = |topology| vec!["simulate", fixture, "250", "0", "--topology", topology];
    let sweep = |topology| {
        let grid = ["sweep", "nas-cg", "8", "--chunks", "1", "--bw", "250"];
        [&grid[..], &["--topology", topology]].concat()
    };
    // report and paraver trace the app: the fabric is sized first
    let html = format!("{}/oversized.html", env!("CARGO_TARGET_TMPDIR"));
    let prv_dir = format!("{}/oversized-paraver", env!("CARGO_TARGET_TMPDIR"));
    let report = vec![
        "report",
        "nas-cg",
        "4",
        &html,
        "--topology",
        "fat-tree:100000",
    ];
    let paraver = vec![
        "paraver",
        "nas-cg",
        "4",
        &prv_dir,
        "--topology",
        "fat-tree:100000",
    ];
    for (args, needle) in [
        (
            simulate("fat-tree:100000"),
            "links, over the limit of 4194304",
        ),
        (
            simulate("torus:100000x100000x1000"),
            "links, over the limit of 4194304",
        ),
        (
            simulate("torus:100x100x100"),
            "links, over the limit of 4194304",
        ),
        (simulate("fat-tree:64"), "64 per node, at least 16384"),
        (sweep("fat-tree:2000"), "over the limit of"),
        (sweep("bus,torus:2x2"), "4 endpoints but the trace needs"),
        (report, "links, over the limit of 4194304"),
        (paraver, "links, over the limit of 4194304"),
    ] {
        let started = Instant::now();
        assert_usage_error(&args, needle);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{args:?} took {:?}",
            started.elapsed()
        );
    }
    assert!(!std::path::Path::new(&html).exists() && !std::path::Path::new(&prv_dir).exists());
    for topology in ["fat-tree:16", "torus:8x4x4", "fat-tree:32:4"] {
        let out = ovlp(&simulate(topology));
        assert_eq!(out.status.code(), Some(0), "{topology}: {out:?}");
    }
}

#[test]
fn rank_overrides_are_validated_as_usage_errors() {
    // untileable rank counts are the caller's mistake, caught before
    // any tracing or streaming work starts: exit 2, never a panic
    assert_usage_error(&["analyze", "nas-cg", "5"], "even");
    assert_usage_error(&["analyze", "specfem3d", "7"], "even");
    assert_usage_error(&["analyze", "pop", "1"], "at least 2");
    assert_usage_error(&["analyze", "pop", "5000"], "cap");
    assert_usage_error(&["sweep", "nas-cg", "5", "--chunks", "1"], "even");
    assert_usage_error(&["scale", "ml-allreduce", "100001"], "multiple");
    // a generated app is capped above the 1M-rank scale ladder, before
    // its generator allocates per-rank state
    assert_usage_error(
        &["simulate", "ml-allreduce", "--ranks", "1000000000"],
        "capped at 1048576 ranks",
    );
    assert_usage_error(&["scale", "no-such-app", "64"], "unknown app");
    assert_usage_error(&["scale", "ml-allreduce", "sixty-four"], "bad rank count");
    assert_usage_error(
        &["simulate", "ml-allreduce", "--ranks", "100001"],
        "multiple",
    );
    assert_usage_error(
        &["simulate", "ml-allreduce", "--engine", "par:4"],
        "--engine",
    );
}

#[test]
fn unknown_flags_and_surplus_arguments_exit_two() {
    // a misspelled flag must not silently fall back to its default
    // (here: replaying on the bus instead of the fat-tree)
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/nas_cg_8r.trf");
    assert_usage_error(
        &["simulate", fixture, "250", "0", "--topologyy", "fat-tree:4"],
        "`--topologyy`",
    );
    assert_usage_error(&["simulate", fixture, "250", "0", "7"], "`7`");
    assert_usage_error(&["simulate", fixture, "--engine", "par"], "`--engine`");
    // every replay streams, so `--stream` is not a flag
    assert_usage_error(
        &["simulate", "ml-allreduce", "--ranks", "16", "--stream"],
        "`--stream`",
    );
    assert_usage_error(
        &["sweep", "nas-cg", "4", "--chunks", "1", "--bogus"],
        "`--bogus`",
    );
    assert_usage_error(&["sweep", "nas-cg", "4", "--engine", "par"], "`--engine`");
    assert_usage_error(&["sweep", "nas-cg", "4", "250"], "`250`");
    assert_usage_error(
        &["scale", "ml-allreduce", "64", "--frobnicate"],
        "`--frobnicate`",
    );
    assert_usage_error(&["scale", "ml-allreduce", "64", "250", "0", "9"], "`9`");
    assert_usage_error(
        &["report", "nas-cg", "4", "/tmp/out.html", "--critpth"],
        "`--critpth`",
    );
    assert_usage_error(
        &["paraver", "nas-cg", "4", "/tmp/prv", "--critpath"],
        "`--critpath`",
    );
    assert_usage_error(&["paraver", "nas-cg", "4", "/tmp/prv", "extra"], "`extra`");
    assert_usage_error(&["paper", "extra"], "`extra`");
    assert_usage_error(&["paper", "--jobs", "2", "--quick"], "`--quick`");
    // a repeated flag must not lose its second value
    assert_usage_error(
        &[
            "sweep", "nas-cg", "4", "--chunks", "1", "--bw", "25", "--bw", "250",
        ],
        "`--bw` given twice",
    );
    // a flag where a required positional argument goes is a usage
    // mistake, not a trace file that cannot be read
    assert_usage_error(
        &["simulate", "--ranks", "16", "ml-allreduce"],
        "not the flag `--ranks`",
    );
}

#[test]
fn streamed_simulate_and_scale_succeed() {
    let out = ovlp(&["scale", "ml-allreduce", "64"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("records resident"), "{stdout}");
    assert!(stdout.contains("blocked transfers"), "{stdout}");

    // the summary replay and the full replay of the same generator
    // agree on the headline: runtime, events and efficiency
    let full = ovlp(&["simulate", "ml-allreduce", "--ranks", "64"]);
    assert_eq!(full.status.code(), Some(0), "{full:?}");
    let full = String::from_utf8(full.stdout).unwrap();
    assert_eq!(
        full.lines().next(),
        stdout.lines().next(),
        "`simulate --ranks 64` and `scale 64` headlines must be identical"
    );
}

#[test]
fn inconsistent_access_logs_are_refused() {
    // In the fixture, rank 0 sends 0.0 and receives 0.1 after 64
    // instructions. Each log below would make the rewrite clamp with
    // min > max; it is refused with exit 2 and the transfer it names.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/nas_cg_8r.trf");
    let dir = std::env::temp_dir().join(format!("ovlp-acc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (log, needle)) in [
        // an interval that starts after it ends
        (
            "p 0.0 5000 7000 5000",
            "production 0.0 has an interval that starts after",
        ),
        (
            "c 0.1 5000 5000 0",
            "consumption 0.1 has an interval that starts after",
        ),
        // a production that starts after its send, a consumption that
        // ends before its receive
        (
            "p 0.0 64 100 200",
            "production 0.0 starts at 100, after its send at 64",
        ),
        (
            "c 0.1 64 0 10",
            "consumption 0.1 ends at 10, before its receive at 64",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let acc = dir.join(format!("bad{i}.acc"));
        std::fs::write(&acc, format!("#OVLP-ACCESS 1\nranks 8\n{log}\n")).unwrap();
        assert_usage_error(&["transform", fixture, acc.to_str().unwrap()], needle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runtime_failures_exit_one() {
    // Well-formed invocations that fail while running: missing input
    // file, unreadable trace content, unwritable store directory.
    let missing = ovlp(&["simulate", "/no/such/trace.trf"]);
    assert_eq!(missing.status.code(), Some(1), "{missing:?}");
    assert!(String::from_utf8(missing.stderr)
        .unwrap()
        .contains("error:"));

    let dir = std::env::temp_dir().join(format!("ovlp-exit1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let garbled = dir.join("garbled.trf");
    std::fs::write(&garbled, "this is not a trace\n").unwrap();
    let bad_trace = ovlp(&["simulate", garbled.to_str().unwrap()]);
    assert_eq!(bad_trace.status.code(), Some(1), "{bad_trace:?}");
    // `paper --out` under a regular file cannot be created
    let bad_out = ovlp(&["paper", "--out", garbled.join("out").to_str().unwrap()]);
    assert_eq!(bad_out.status.code(), Some(1), "{bad_out:?}");
    assert!(bad_out.stdout.is_empty(), "{bad_out:?}");

    // a header claiming billions of ranks is refused with the cap
    // before any per-rank storage is allocated
    let huge = dir.join("huge.trf");
    std::fs::write(&huge, "#OVLP-TRACE 1\nranks 4000000000\n").unwrap();
    let huge = ovlp(&["stats", huge.to_str().unwrap()]);
    assert_eq!(huge.status.code(), Some(1), "{huge:?}");
    let stderr = String::from_utf8(huge.stderr).unwrap();
    assert!(stderr.contains("1048576-rank cap"), "{stderr}");

    // an access log line declaring billions of elements is refused
    // before its stamps are allocated (the address-space limit turns a
    // regression into an allocation abort instead of a 32 GB allocation)
    let big = dir.join("big.acc");
    std::fs::write(&big, "#OVLP-ACCESS 1\nranks 8\np 0.0 4000000000 0 10\n").unwrap();
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/nas_cg_8r.trf");
    let big = Command::new("sh")
        .args(["-c", "ulimit -v 2000000 && exec \"$0\" \"$@\""])
        .args([env!("CARGO_BIN_EXE_ovlp"), "transform", fixture])
        .arg(&big)
        .output()
        .unwrap();
    assert_eq!(big.status.code(), Some(1), "{big:?}");
    let stderr = String::from_utf8(big.stderr).unwrap();
    assert!(
        stderr.contains("line 3") && stderr.contains("element cap"),
        "{stderr}"
    );

    // --store pointing at a path that exists as a *file* cannot be
    // opened as a store directory.
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, "x").unwrap();
    let bad_store = ovlp(&[
        "sweep",
        "nas-cg",
        "4",
        "--chunks",
        "1",
        "--store",
        blocker.to_str().unwrap(),
    ]);
    assert_eq!(bad_store.status.code(), Some(1), "{bad_store:?}");
    let _ = std::fs::remove_dir_all(&dir);

    // a probe window so narrow the run would need more windows than
    // the recorder's ceiling: a reason, not an allocation abort
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/nas_cg_8r.trf");
    let narrow = ovlp(&["simulate", fixture, "--probe-window", "0.000000001"]);
    assert_eq!(narrow.status.code(), Some(1), "{narrow:?}");
    let stderr = String::from_utf8(narrow.stderr).unwrap();
    assert!(stderr.contains("wider window"), "{stderr}");
    assert!(narrow.stdout.is_empty(), "no partial report on stdout");
    // a vanishing window is named in exponent form, not 300 digits
    let tiny = ovlp(&["simulate", fixture, "--probe-window", "1e-300"]);
    assert_eq!(tiny.status.code(), Some(1), "{tiny:?}");
    let stderr = String::from_utf8(tiny.stderr).unwrap();
    assert!(stderr.contains("1e-300us"), "{stderr}");
    assert!(stderr.len() < 200, "{} bytes: {stderr}", stderr.len());
    // 10us windows over a 0.23 s run are 23k windows, fewer than
    // MAX_WINDOWS, but 4096 ranks of them exceed the recorder's cell
    // budget, which lowers the ceiling to 4096 windows
    let wide = ovlp(&[
        "simulate",
        "ml-allreduce",
        "--ranks",
        "4096",
        "--probe-window",
        "10",
    ]);
    assert_eq!(wide.status.code(), Some(1), "{wide:?}");
    let stderr = String::from_utf8(wide.stderr).unwrap();
    assert!(
        stderr.contains("more than 4096 windows") && stderr.contains("wider window"),
        "{stderr}"
    );
    // in a sweep the same request fails its points
    let sweep = ovlp(&[
        "sweep",
        "nas-cg",
        "4",
        "--chunks",
        "1",
        "--bw",
        "250",
        "--probe-window",
        "0.000000001",
    ]);
    assert_eq!(sweep.status.code(), Some(1), "{sweep:?}");
    let report = String::from_utf8(sweep.stdout).unwrap();
    assert!(
        report.contains("FAILED") && report.contains("wider window"),
        "{report}"
    );
}

#[test]
fn closed_stdout_ends_quietly() {
    // `ovlp ... | head -1`: the reader goes away before the report is
    // written, which must end the command without a panic
    for args in [
        &["simulate", "ml-allreduce", "--ranks", "64"][..],
        &["paper", "--jobs", "2"][..],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ovlp"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(
            stderr.is_empty(),
            "{args:?}: closed stdout must be quiet: {stderr}"
        );
    }
}

#[test]
fn state_totals_never_print_negative_zero() {
    // ml-allreduce ranks never wait on a send, so that total sums an
    // empty series
    for args in [
        &["simulate", "ml-allreduce", "--ranks", "16"][..],
        &["scale", "ml-allreduce", "64"][..],
    ] {
        let out = ovlp(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("wait-send 0.000"), "{args:?}: {stdout}");
        assert!(!stdout.contains("-0.000"), "{args:?}: {stdout}");
    }
}
