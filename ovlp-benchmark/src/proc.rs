//! Child processes (the shipped `ovlp` binary, mirror runs of this
//! benchmark) and memory high-water marks.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// One finished child process.
pub struct Run {
    pub wall_s: f64,
    pub stdout: String,
}

/// Run `bin` with `args` to completion. A non-zero exit is an error
/// carrying the exit status and the last line of stderr.
pub fn run(bin: &Path, args: &[&str]) -> Result<Run, String> {
    let started = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let wall_s = started.elapsed().as_secs_f64();
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: String = stderr
            .lines()
            .last()
            .unwrap_or("")
            .chars()
            .take(200)
            .collect();
        let name = bin.file_name().unwrap_or_default().to_string_lossy();
        return Err(format!(
            "`{name} {}` exited {}: {tail}",
            args.join(" "),
            out.status
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|_| "stdout is not UTF-8".to_string())?;
    Ok(Run { wall_s, stdout })
}

/// Ask `child` to stop with SIGTERM and reap it; SIGKILL it if it has
/// not exited within `grace`.
#[cfg(unix)]
pub fn terminate(child: &mut std::process::Child, grace: std::time::Duration) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: kill(2) only sends a signal; the pid is our own unreaped
    // child, so it cannot name another process.
    if unsafe { kill(child.id() as i32, SIGTERM) } == 0 {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    let _ = child.kill();
    let _ = child.wait();
}

#[cfg(not(unix))]
pub fn terminate(child: &mut std::process::Child, _grace: std::time::Duration) {
    let _ = child.kill();
    let _ = child.wait();
}

/// `VmHWM` (peak resident set) of a live process, in MiB.
pub fn vm_hwm_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of the largest child this process has waited
/// for, in MiB (`getrusage(RUSAGE_CHILDREN)`). Children's usage
/// survives `exec`, so the launcher must run this binary as a child
/// rather than exec it after building with cargo.
#[cfg(target_os = "linux")]
pub fn children_peak_rss_mib() -> Option<f64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct with the layout of the
    // platform's `struct rusage` (64-bit Linux: 18 eight-byte fields),
    // and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / 1024.0)
}

#[cfg(not(target_os = "linux"))]
pub fn children_peak_rss_mib() -> Option<f64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_high_water_mark_is_readable() {
        let mib = vm_hwm_mib("self").expect("VmHWM on Linux");
        assert!(mib > 0.5, "{mib}");
    }

    #[test]
    fn failing_children_are_errors() {
        let err = run(Path::new("false"), &[]).err().expect("`false` exits 1");
        assert!(err.contains("exited"), "{err}");
        let err = run(Path::new("./no-such-binary"), &[]).err().unwrap();
        assert!(err.contains("cannot run"), "{err}");
        let ok = run(Path::new("true"), &[]).expect("`true` exits 0");
        assert!(ok.stdout.is_empty());
        assert!(children_peak_rss_mib().is_some());
    }
}
