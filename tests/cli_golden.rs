//! Absolute anchors for the `ovlp` front end: what `help`, the analysis
//! views, a probed `simulate`, a probed `sweep`, `report` and `paraver`
//! produce, pinned
//! under `tests/fixtures/cli/`. Printed reports are pinned as text;
//! written files as one FNV-1a digest per file. The stderr timing line
//! of `sweep` and the `wrote <path>` lines, which name a temporary
//! directory, are not pinned. Re-bless after a deliberate change with
//! `OVLP_BLESS=1 cargo test --test cli_golden`.

use std::path::PathBuf;
use std::process::Command;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/nas_cg_8r.trf");

/// Stdout of a successful `ovlp <args>`.
fn ovlp(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ovlp"))
        .args(args)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// 64-bit FNV-1a: a stable digest with no dependencies.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One `<name> <digest>` line per file of `dir`, sorted by name.
fn digests(dir: &std::path::Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
        .iter()
        .map(|n| format!("{n} {:016x}\n", fnv(&std::fs::read(dir.join(n)).unwrap())))
        .collect()
}

/// A fresh scratch directory for one test's output files.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Compare `body` with `tests/fixtures/cli/<name>`, or write it there
/// under `OVLP_BLESS`.
fn check(name: &str, body: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/cli")
        .join(name);
    if std::env::var_os("OVLP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, body).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; run OVLP_BLESS=1 to create", path.display()));
    assert_eq!(
        body, golden,
        "{name} drifted from the committed golden; if intentional, re-bless with OVLP_BLESS=1"
    );
}

#[test]
fn help_is_pinned() {
    check("help.txt", &ovlp(&["help"]));
}

/// `ovlp analyze` prints one `## <name>` heading per section. Without
/// them it is, byte for byte, the five views pinned as
/// `<view>_nas-cg_8r.txt`: `analyze` (the patterns, runtimes,
/// double-buffering and channels sections), `gantt`, `waits`, `chunks`
/// and `advise`. They were blessed from separate commands and are never
/// re-blessed, so a section cannot drift unnoticed.
#[test]
fn analyze_prints_the_pinned_views_as_sections() {
    let stdout = ovlp(&["analyze", "nas-cg", "8"]);
    let headings: Vec<&str> = stdout.lines().filter(|l| l.starts_with("## ")).collect();
    assert_eq!(
        headings,
        [
            "## patterns",
            "## runtimes",
            "## double-buffering",
            "## channels",
            "## gantt",
            "## waits",
            "## chunks",
            "## advice"
        ]
    );
    let body: String = stdout
        .split_inclusive('\n')
        .filter(|l| !l.starts_with("## "))
        .collect();
    let views: String = ["analyze", "gantt", "waits", "chunks", "advise"]
        .iter()
        .map(|cmd| {
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join(format!("tests/fixtures/cli/{cmd}_nas-cg_8r.txt"));
            std::fs::read_to_string(&path).unwrap()
        })
        .collect();
    assert_eq!(body, views);
}

#[test]
fn probed_simulate_is_pinned() {
    let args = [
        "simulate",
        FIXTURE,
        "250",
        "0",
        "--topology",
        "fat-tree:4",
        "--probe-window",
        "50",
        "--critpath",
    ];
    check("simulate_nas_cg_8r.txt", &ovlp(&args));
}

#[test]
fn probed_sweep_is_pinned() {
    let args = [
        "sweep",
        "nas-cg",
        "8",
        "--jobs",
        "1",
        "--chunks",
        "1,4",
        "--bw",
        "25",
        "--topology",
        "bus,fat-tree:16",
        "--probe-window",
        "50",
        "--critpath",
    ];
    check("sweep_nas-cg_8r.txt", &ovlp(&args));
}

#[test]
fn report_html_is_pinned() {
    let dir = scratch("report");
    let html = dir.join("nas-cg.html");
    let args = [
        "report",
        "nas-cg",
        "4",
        html.to_str().unwrap(),
        "--critpath",
        "--probe-window",
        "50",
    ];
    ovlp(&args);
    check("report_nas-cg_4r.digest", &digests(&dir));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn paraver_files_are_pinned() {
    let dir = scratch("paraver");
    let args = [
        "paraver",
        "nas-cg",
        "4",
        dir.to_str().unwrap(),
        "--topology",
        "fat-tree:4",
        "--probe-window",
        "50",
    ];
    ovlp(&args);
    check("paraver_nas-cg_4r.digest", &digests(&dir));
    std::fs::remove_dir_all(&dir).unwrap();
}
