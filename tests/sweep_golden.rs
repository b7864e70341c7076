//! Absolute anchor for `ovlp sweep`: the report it prints to stdout for
//! every traced app of the pool at 8 ranks, on a grid with two chunk
//! policies and both a bus and a flow fabric
//! (`--chunks 1,4 --bw 25,2500 --topology bus,fat-tree:16`). Each
//! report is pinned as text under `tests/fixtures/sweep/`, so a change
//! that moves one replay bit, or reorders or drops a point, fails here
//! even if every replay path moves together. The stderr timing line is
//! not pinned. Re-bless after a deliberate model change with
//! `OVLP_BLESS=1 cargo test --test sweep_golden`.

use std::path::PathBuf;
use std::process::Command;

const APPS: [&str; 6] = ["sweep3d", "pop", "alya", "specfem3d", "nas-bt", "nas-cg"];

/// Stdout of `ovlp sweep <app> 8 --jobs <jobs>` on the pinned grid.
fn sweep_stdout(app: &str, jobs: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ovlp"))
        .args([
            "sweep",
            app,
            "8",
            "--jobs",
            jobs,
            "--chunks",
            "1,4",
            "--bw",
            "25,2500",
            "--topology",
            "bus,fat-tree:16",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{app} jobs={jobs}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

fn golden_path(app: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/sweep/{app}_8r.txt"))
}

#[test]
fn sweep_reports_match_committed_goldens() {
    let bless = std::env::var_os("OVLP_BLESS").is_some();
    for app in APPS {
        let body = sweep_stdout(app, "1");
        let path = golden_path(app);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &body).unwrap();
            eprintln!("blessed {}", path.display());
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}; run OVLP_BLESS=1 to create", path.display()));
        assert_eq!(
            body, golden,
            "`ovlp sweep {app} 8` drifted from the committed golden; if \
             intentional, re-bless with OVLP_BLESS=1"
        );
    }
}

#[test]
fn two_workers_print_the_same_report() {
    assert_eq!(sweep_stdout("nas-cg", "2"), sweep_stdout("nas-cg", "1"));
}
