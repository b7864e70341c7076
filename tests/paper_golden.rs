//! Absolute anchor for the paper's evaluation: the whole `ovlp paper`
//! document (Tables I–II, Figs. 4–6, the SC'06 model comparison and the
//! ablations) is pinned as text in `tests/fixtures/paper.txt`, the file
//! EXPERIMENTS.md quotes. Unlike the equivalence suites, this fails
//! when every replay path moves together. Re-bless after a deliberate
//! model change with `OVLP_BLESS=1 cargo test --test paper_golden`.

use std::path::PathBuf;
use std::process::Command;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/paper.txt")
}

fn golden() -> String {
    let path = golden_path();
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; run OVLP_BLESS=1 to create", path.display()))
}

fn blessing() -> bool {
    std::env::var_os("OVLP_BLESS").is_some()
}

#[test]
fn paper_matches_the_committed_golden() {
    let paper = overlap_sim::paper::render(1).unwrap();
    let mut names: Vec<String> = paper.files.iter().map(|(n, _)| n.clone()).collect();
    names.sort_unstable();
    let mut want: Vec<String> = ["fig6a.csv", "fig6b.csv", "fig6c.csv", "table2.csv"]
        .map(String::from)
        .to_vec();
    for variant in ["original", "overlapped"] {
        for ext in ["pcf", "prv", "row", "svg"] {
            want.push(format!("fig4-{variant}.{ext}"));
        }
    }
    want.sort_unstable();
    assert_eq!(names, want, "the side files of `ovlp paper --out`");
    if blessing() {
        std::fs::write(golden_path(), &paper.text).unwrap();
        eprintln!("blessed {}", golden_path().display());
        return;
    }
    assert_eq!(
        paper.text,
        golden(),
        "the paper's evaluation drifted from the committed golden; if \
         intentional, re-bless with OVLP_BLESS=1"
    );
}

#[test]
fn two_workers_print_the_golden() {
    if blessing() {
        return;
    }
    let out = Command::new(env!("CARGO_BIN_EXE_ovlp"))
        .args(["paper", "--jobs", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stderr.is_empty(), "no --out, nothing written");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden());
}
