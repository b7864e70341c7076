//! The `ovlp` commands that read the Figure-5 access scatter still
//! capture it, while replay-only paths trace lean.
//!
//! `ovlp trace` writes the scatter as `e` lines of `access.acc`, and
//! `ovlp analyze` derives the phase-reorder potential (mean independent
//! tail) from it. The digests and the percentage below were recorded
//! from the build that captured the scatter on every traced run.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ovlp(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_ovlp"))
        .args(args)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    out
}

/// 64-bit FNV-1a: a stable digest with no dependencies.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn trace_writes_the_scatter_and_unchanged_files() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-scatter-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ovlp(&["trace", "sweep3d", "8", dir.to_str().unwrap()]);

    let access = std::fs::read(dir.join("access.acc")).unwrap();
    let text = std::str::from_utf8(&access).unwrap();
    assert_eq!(
        text.lines().filter(|l| l.starts_with("e ")).count(),
        1_680_000
    );
    for (file, want) in [
        ("access.acc", 0x85f7_91ab_655b_db27_u64),
        ("original.trf", 0xff94_a007_714c_0dfb),
        ("overlapped.trf", 0x9209_cbb1_0b1d_b099),
        ("ideal.trf", 0x7c1d_266c_1d5b_921b),
    ] {
        let got = fnv(&std::fs::read(dir.join(file)).unwrap());
        assert_eq!(got, want, "{file}: digest {got:016x}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analyze_reports_the_phase_reorder_potential() {
    let out = ovlp(&["analyze", "pop", "8"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("phase-reorder potential (mean independent tail): 85.73%\n"),
        "{stdout}"
    );
}
