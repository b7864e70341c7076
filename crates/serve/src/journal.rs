//! Write-ahead job journal (`ovlp.journal.v1`): what makes the daemon
//! crash-safe.
//!
//! One append-only file per job, `<dir>/<id>.journal`. The first line
//! is the header — the full normalized [`SweepSpec`] plus the point
//! count — written atomically (temp + rename, like the DiskStore) so a
//! journal either names a complete spec or does not exist. Every line
//! after it is one progress event:
//!
//! * `{"point":N}` — grid point `N` completed successfully (its result
//!   is already durable in the store, because the store write happens
//!   before the journal append);
//! * `{"end":"complete"}` / `{"end":"cancelled"}` — the job finished.
//!
//! On startup [`Journal::scan`] replays every journal: jobs with an
//! `end` marker are left at rest (their results live in the store);
//! jobs without one are **resumed** — re-registered under their
//! original id and re-run. Resuming is cheap and byte-identical: every
//! point the crashed run completed is served straight from the
//! content-addressed store, so only the missing points compute.
//!
//! Torn writes are expected (the daemon may die mid-append): any
//! unparsable trailing line is skipped, and duplicate point lines —
//! possible when a resumed job re-journals a replayed point — are
//! idempotent. The journal is advisory bookkeeping over a store that is
//! already the source of truth; losing a point line costs a store hit
//! at resume, never a wrong result.

use crate::json::{self, Obj, Value};
use crate::spec::SweepSpec;
use std::collections::BTreeSet;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic `schema` value of every journal header; bump on format change
/// so old journals are skipped instead of misread.
pub const JOURNAL_SCHEMA: &str = "ovlp.journal.v1";

/// How a journaled job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEnd {
    Complete,
    Cancelled,
}

impl JobEnd {
    pub fn name(self) -> &'static str {
        match self {
            JobEnd::Complete => "complete",
            JobEnd::Cancelled => "cancelled",
        }
    }

    fn parse(s: &str) -> Option<JobEnd> {
        match s {
            "complete" => Some(JobEnd::Complete),
            "cancelled" => Some(JobEnd::Cancelled),
            _ => None,
        }
    }
}

/// One job recovered from the journal directory.
#[derive(Debug)]
pub struct JournaledJob {
    pub id: String,
    pub spec: SweepSpec,
    pub points: usize,
    /// Indices journaled as complete (deduplicated, in order).
    pub done: Vec<usize>,
    pub end: Option<JobEnd>,
}

/// The journal directory: one file per job, appends serialized by a
/// mutex (appends are rare — one short line per completed point).
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    append: Mutex<()>,
    seq: AtomicU64,
}

impl Journal {
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Journal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Journal {
            dir,
            append: Mutex::new(()),
            seq: AtomicU64::new(0),
        })
    }

    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    fn path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.journal"))
    }

    /// Journal a submitted job: write its header atomically. Replaces
    /// any previous journal for `id` — a resumed job starts a fresh
    /// progress log; the results it already computed live in the store.
    pub fn record_submit(&self, id: &str, spec: &SweepSpec, points: usize) -> io::Result<()> {
        let mut o = Obj::new();
        o.set("schema", Value::str(JOURNAL_SCHEMA));
        o.set("job", Value::str(id));
        o.set("points", Value::Num(points as f64));
        let spec_value = json::parse(&spec.to_json())
            .map_err(|e| io::Error::other(format!("spec did not round-trip: {e}")))?;
        o.set("spec", spec_value);
        let tmp = self.dir.join(format!(
            ".{id}.{}.{}.tmp",
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp, format!("{}\n", Value::Obj(o)))?;
        match fs::rename(&tmp, self.path(id)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Journal the successful completion of point `index`.
    pub fn record_point(&self, id: &str, index: usize) -> io::Result<()> {
        self.append(id, &format!("{{\"point\":{index}}}\n"))
    }

    /// Journal the end of a job. A journal with an end marker is never
    /// resumed.
    pub fn record_end(&self, id: &str, end: JobEnd) -> io::Result<()> {
        self.append(id, &format!("{{\"end\":\"{}\"}}\n", end.name()))
    }

    fn append(&self, id: &str, line: &str) -> io::Result<()> {
        let _serialized = self.append.lock().unwrap_or_else(|e| e.into_inner());
        let mut file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.path(id))?;
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Read every journal in the directory, tolerating torn trailing
    /// lines. Jobs come back sorted by numeric id (`j1`, `j2`, …) so
    /// resumption re-registers them in original submission order.
    pub fn scan(&self) -> io::Result<Vec<JournaledJob>> {
        let mut jobs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_none_or(|e| e != "journal") {
                continue;
            }
            let Ok(content) = fs::read_to_string(&path) else {
                continue;
            };
            if let Some(job) = parse_journal(&content) {
                jobs.push(job);
            }
        }
        jobs.sort_by_key(|j| {
            j.id.strip_prefix('j')
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(u64::MAX)
        });
        Ok(jobs)
    }
}

/// Parse one journal file. `None` means the header itself is missing
/// or unreadable (nothing to resume); torn body lines are skipped.
fn parse_journal(content: &str) -> Option<JournaledJob> {
    let mut lines = content.lines();
    let header = json::parse(lines.next()?).ok()?;
    let header = header.as_obj()?;
    if header.get("schema")?.as_str()? != JOURNAL_SCHEMA {
        return None;
    }
    let id = header.get("job")?.as_str()?.to_string();
    let points = header.get("points")?.as_u64()? as usize;
    let spec = SweepSpec::from_json(&header.get("spec")?.to_string()).ok()?;
    let mut done = BTreeSet::new();
    let mut end = None;
    for line in lines {
        let Ok(event) = json::parse(line) else {
            continue; // torn append — expected after a crash
        };
        let Some(event) = event.as_obj() else {
            continue;
        };
        if let Some(index) = event.get("point").and_then(Value::as_u64) {
            let index = index as usize;
            if index < points {
                done.insert(index);
            }
        } else if let Some(kind) = event.get("end").and_then(Value::as_str) {
            end = JobEnd::parse(kind);
        }
    }
    Some(JournaledJob {
        id,
        spec,
        points,
        done: done.into_iter().collect(),
        end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ovlp-journal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> SweepSpec {
        let mut s = SweepSpec::new("nas-cg", 4);
        s.chunks = vec![1, 4];
        s
    }

    #[test]
    fn submit_progress_end_roundtrip() {
        let dir = tmpdir("roundtrip");
        let journal = Journal::open(&dir).unwrap();
        journal.record_submit("j1", &spec(), 2).unwrap();
        journal.record_point("j1", 1).unwrap();
        journal.record_point("j1", 0).unwrap();
        journal.record_point("j1", 1).unwrap(); // duplicate is idempotent
        journal.record_submit("j2", &spec(), 2).unwrap();
        journal.record_end("j2", JobEnd::Complete).unwrap();

        let jobs = journal.scan().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, "j1");
        assert_eq!(jobs[0].points, 2);
        assert_eq!(jobs[0].done, vec![0, 1]);
        assert_eq!(jobs[0].end, None, "unfinished: must be resumed");
        assert_eq!(jobs[0].spec.to_json(), spec().to_json());
        assert_eq!(jobs[1].end, Some(JobEnd::Complete));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_skipped() {
        let dir = tmpdir("torn");
        let journal = Journal::open(&dir).unwrap();
        journal.record_submit("j1", &spec(), 2).unwrap();
        journal.record_point("j1", 0).unwrap();
        // simulate a crash mid-append
        let mut f = OpenOptions::new()
            .append(true)
            .open(journal.path("j1"))
            .unwrap();
        f.write_all(b"{\"poi").unwrap();
        drop(f);
        let jobs = journal.scan().unwrap();
        assert_eq!(jobs[0].done, vec![0]);
        assert_eq!(jobs[0].end, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resubmit_resets_the_progress_log() {
        let dir = tmpdir("resubmit");
        let journal = Journal::open(&dir).unwrap();
        journal.record_submit("j1", &spec(), 2).unwrap();
        journal.record_point("j1", 0).unwrap();
        journal.record_submit("j1", &spec(), 2).unwrap();
        let jobs = journal.scan().unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].done.is_empty(), "fresh log after resubmit");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Journals written while the job schema still selected a replay
    /// engine carry an `engine` field in their spec. They must keep
    /// resuming — `parse_journal` silently drops a job whose spec no
    /// longer parses — as the same job over the same points.
    #[test]
    fn journal_with_a_legacy_engine_field_still_resumes() {
        let dir = tmpdir("legacy-engine");
        let journal = Journal::open(&dir).unwrap();
        let header = r#"{"schema":"ovlp.journal.v1","job":"j3","points":2,"spec":{"schema":"ovlp.sweep-job.v1","app":"nas-cg","ranks":4,"jobs":1,"chunks":[1,4],"bw":[],"buses":[],"topology":[],"faults":[],"engine":"par:2","critpath":false}}"#;
        fs::write(journal.path("j3"), format!("{header}\n{{\"point\":1}}\n")).unwrap();
        let jobs = journal.scan().unwrap();
        assert_eq!(jobs.len(), 1, "the legacy journal was dropped");
        let job = &jobs[0];
        assert_eq!(job.id, "j3");
        assert_eq!(job.points, 2);
        assert_eq!(job.done, vec![1]);
        assert_eq!(job.end, None, "unfinished: must be resumed");
        assert_eq!(job.spec.to_json(), spec().to_json());
        let (grid, _) = job.spec.build().unwrap();
        let (want, _) = spec().build().unwrap();
        assert_eq!(grid.points(), want.points());
        assert_eq!(grid.len(), job.points);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_and_headerless_files_are_ignored() {
        let dir = tmpdir("foreign");
        let journal = Journal::open(&dir).unwrap();
        fs::write(dir.join("notes.journal"), "not json\n").unwrap();
        fs::write(dir.join("old.journal"), "{\"schema\":\"other.v9\"}\n").unwrap();
        fs::write(dir.join("readme.txt"), "hello\n").unwrap();
        assert!(journal.scan().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
