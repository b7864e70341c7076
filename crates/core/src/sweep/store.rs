//! Persistent content-addressed result store.
//!
//! Promotes the in-process replay cache to an on-disk, cross-process
//! store: one file per [`PointKey`], holding the three simulated
//! runtimes of that point as exact IEEE-754 bit patterns. Because keys
//! are content fingerprints of everything that influences simulated
//! time (trace × platform × policy × topology × faults — and the
//! replay engine is bit-identical by contract, so it is *not* part of
//! the key), a verified entry is guaranteed to be the result the
//! simulation would have produced, across processes, users, and time.
//!
//! Durability contract:
//!
//! * **writes are atomic** — entries are written to a temp file in the
//!   same directory and `rename`d into place, so a reader never sees a
//!   half-written entry and concurrent writers of the same key leave
//!   exactly one valid file (last rename wins; both bodies are
//!   byte-identical anyway, results being deterministic);
//! * **reads are verified** — every entry carries an FNV-1a check of
//!   its payload and repeats the key it claims to store; a truncated,
//!   bit-flipped, or misfiled entry fails verification and is treated
//!   as a miss (counted in [`DiskStats::corrupt`]), never trusted. The
//!   next `put` of that key replaces the corrupt file.
//!
//! Layout: `<root>/<first 2 hex digits of key>/<16 hex digits>.point`,
//! with temp files named `.<key>.<pid>.<seq>.tmp` alongside.
//!
//! A second entry kind, `<16 hex digits>.trace` in the same layout,
//! holds the trace fingerprint of one `(app, ranks)` pair under its
//! [`TraceKey`] (see [`super::trace_key`]), in the same framing with a
//! single `fingerprint` field. It lets a warm store answer a sweep
//! without running the instrumented application at all.

use super::chaos::ChaosPolicy;
use super::{PointKey, TraceKey};
use crate::sweep::Fnv;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic first line of every store entry; bump on any format change so
/// old entries read as corrupt (and are recomputed) instead of being
/// misparsed.
pub const STORE_FORMAT: &str = "ovlp.store.v1";

/// The persisted value of one sweep point: the three simulated
/// runtimes, stored as exact bit patterns. Everything else in a
/// [`PointResult`](super::PointResult) (grid position, app label) is
/// re-stamped by the sweep that loads the entry, and windowed metrics
/// are never persisted (probed points bypass the store entirely).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredPoint {
    pub t_original: f64,
    pub t_overlapped: f64,
    pub t_ideal: f64,
}

impl StoredPoint {
    /// Canonical text encoding: versioned, line-based, self-checking.
    pub fn encode(&self, key: PointKey) -> String {
        encode_entry(
            key.0,
            &[
                ("t_original", self.t_original.to_bits()),
                ("t_overlapped", self.t_overlapped.to_bits()),
                ("t_ideal", self.t_ideal.to_bits()),
            ],
        )
    }

    /// Parse and verify an entry. Returns `None` for anything that is
    /// not a bit-exact, correctly-checked entry for `key`.
    pub fn decode(content: &str, key: PointKey) -> Option<StoredPoint> {
        let [o, v, i] = decode_entry(content, key.0, ["t_original", "t_overlapped", "t_ideal"])?;
        Some(StoredPoint {
            t_original: f64::from_bits(o),
            t_overlapped: f64::from_bits(v),
            t_ideal: f64::from_bits(i),
        })
    }
}

/// The framing every entry kind shares: [`STORE_FORMAT`], the key the
/// entry claims to store, one `<name> <16 hex>` line per field, and an
/// FNV-1a check of all of it.
fn encode_entry(key: u64, fields: &[(&str, u64)]) -> String {
    let mut body = format!("{STORE_FORMAT}\nkey {key:016x}\n");
    for (name, value) in fields {
        body += &format!("{name} {value:016x}\n");
    }
    let check = Fnv::new().str(&body).finish();
    format!("{body}check {check:016x}\n")
}

/// The fields `names` of an [`encode_entry`] entry for `key`, or `None`
/// unless the check, the key, the field names and their count all
/// verify.
fn decode_entry<const N: usize>(content: &str, key: u64, names: [&str; N]) -> Option<[u64; N]> {
    let (body, check_line) = content.rsplit_once("check ")?;
    let claimed = u64::from_str_radix(check_line.trim(), 16).ok()?;
    if Fnv::new().str(body).finish() != claimed {
        return None;
    }
    let mut lines = body.lines();
    if lines.next()? != STORE_FORMAT {
        return None;
    }
    let field = |line: &str, name: &str| -> Option<u64> {
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        u64::from_str_radix(rest, 16).ok()
    };
    if field(lines.next()?, "key")? != key {
        return None;
    }
    let mut values = [0; N];
    for (value, name) in values.iter_mut().zip(names) {
        *value = field(lines.next()?, name)?;
    }
    lines.next().is_none().then_some(values)
}

/// Counters of one [`DiskStore`] since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Entries read back successfully (verified).
    pub hits: u64,
    /// Lookups that found no file.
    pub misses: u64,
    /// Entries that existed but failed verification (truncated,
    /// bit-flipped, wrong key, or unreadable). Each is also a miss from
    /// the caller's point of view: the point is recomputed.
    pub corrupt: u64,
    /// Bytes read from verified entries.
    pub bytes_read: u64,
    /// Bytes written (including replaced entries).
    pub bytes_written: u64,
    /// Orphaned temp files from dead writers deleted when this store
    /// was opened.
    pub orphans_removed: u64,
}

/// On-disk, cross-process tier of the sweep result store. All methods
/// take `&self`; the store is safe to share between threads.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    orphans_removed: u64,
    chaos: Mutex<Option<Arc<ChaosPolicy>>>,
}

/// Temp-file sequence, process-wide: two store handles on the same
/// directory (as the CLI and tests create) must never pick the same
/// temp name, or one writer's rename races the other's write.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl DiskStore {
    /// Open (creating if necessary) a store rooted at `dir`. Opening
    /// sweeps out temp files orphaned by crashed writers — a `.tmp`
    /// whose embedded pid is no longer alive can never be renamed into
    /// place and would otherwise accumulate forever.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskStore> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        let orphans_removed = sweep_orphans(&root);
        Ok(DiskStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            orphans_removed,
            chaos: Mutex::new(None),
        })
    }

    /// Arm store fault injection (test-only; see
    /// [`ChaosPolicy`](super::chaos::ChaosPolicy)).
    pub fn set_chaos(&self, chaos: Arc<ChaosPolicy>) {
        *self.chaos.lock().unwrap_or_else(|e| e.into_inner()) = Some(chaos);
    }

    fn chaos_read_fails(&self) -> bool {
        self.chaos
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .is_some_and(|c| c.fail_store_read())
    }

    fn chaos_write_fails(&self) -> bool {
        self.chaos
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .is_some_and(|c| c.fail_store_write())
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the entry for `key`.
    pub fn entry_path(&self, key: PointKey) -> PathBuf {
        self.path_of(key.0, "point")
    }

    /// Path of the trace-fingerprint entry for `key`.
    pub fn trace_path(&self, key: TraceKey) -> PathBuf {
        self.path_of(key.0, "trace")
    }

    fn path_of(&self, key: u64, kind: &str) -> PathBuf {
        let hex = format!("{key:016x}");
        self.root.join(&hex[..2]).join(format!("{hex}.{kind}"))
    }

    /// Verified read. Any failure — missing file, bad check, wrong key,
    /// unparseable content — is a miss; corruption is counted but the
    /// entry is left in place for the next `put` to overwrite.
    pub fn get(&self, key: PointKey) -> Option<StoredPoint> {
        if self.chaos_read_fails() {
            // Injected fault: behave exactly like a corrupt entry.
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let content = match fs::read_to_string(self.entry_path(key)) {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match StoredPoint::decode(&content, key) {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read
                    .fetch_add(content.len() as u64, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Atomic write: temp file in the entry's directory, then rename.
    /// Concurrent writers of the same key are safe — the rename is
    /// atomic and every writer produces identical bytes.
    pub fn put(&self, key: PointKey, point: &StoredPoint) -> io::Result<()> {
        if self.chaos_write_fails() {
            return Err(io::Error::other("chaos: injected store write failure"));
        }
        let body = point.encode(key);
        write_atomic(&self.entry_path(key), key.0, &body)?;
        self.bytes_written
            .fetch_add(body.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// The trace fingerprint stored for `key`, verified like a point
    /// entry. A missing, truncated, bit-flipped or misfiled entry is a
    /// miss. Trace entries stay out of [`DiskStats`], which counts
    /// points only, and out of fault injection.
    pub fn get_trace(&self, key: TraceKey) -> Option<u64> {
        let content = fs::read_to_string(self.trace_path(key)).ok()?;
        let [fingerprint] = decode_entry(&content, key.0, ["fingerprint"])?;
        Some(fingerprint)
    }

    /// Write (or replace) the trace-fingerprint entry for `key`, with
    /// [`DiskStore::put`]'s atomic rename.
    pub fn put_trace(&self, key: TraceKey, fingerprint: u64) -> io::Result<()> {
        let body = encode_entry(key.0, &[("fingerprint", fingerprint)]);
        write_atomic(&self.trace_path(key), key.0, &body)
    }

    /// Number of entry files currently on disk (walks the two-level
    /// layout; intended for stats endpoints and tests, not hot paths).
    pub fn entries(&self) -> u64 {
        let Ok(shards) = fs::read_dir(&self.root) else {
            return 0;
        };
        let mut n = 0;
        for shard in shards.flatten() {
            if let Ok(files) = fs::read_dir(shard.path()) {
                n += files
                    .flatten()
                    .filter(|f| f.path().extension().is_some_and(|e| e == "point"))
                    .count() as u64;
            }
        }
        n
    }

    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            orphans_removed: self.orphans_removed,
        }
    }
}

/// Write `body` to `path` through a temp file in its directory and a
/// rename, so a reader sees the old entry or the new one, never a part.
fn write_atomic(path: &Path, key: u64, body: &str) -> io::Result<()> {
    let dir = path.parent().expect("entry path always has a parent");
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".{key:016x}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    fs::write(&tmp, body)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Delete temp files whose writer is dead; returns how many went.
/// Recurses so temps are found whichever shard they were left in.
fn sweep_orphans(root: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(root) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            removed += sweep_orphans(&path);
        } else if is_dead_tmp(&path) && fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// A `.<key>.<pid>.<seq>.tmp` file whose pid is not alive. Temps from
/// live processes (a concurrent store handle mid-`put`) are left alone.
fn is_dead_tmp(path: &Path) -> bool {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    if !name.starts_with('.') || !name.ends_with(".tmp") {
        return false;
    }
    let parts: Vec<&str> = name.split('.').collect();
    // ["", key, pid, seq, "tmp"] — require the exact shape so we never
    // delete a file the store did not name.
    if parts.len() != 5 {
        return false;
    }
    let pid = parts[2];
    if pid.parse::<u32>().is_err() {
        return false;
    }
    !pid_alive(pid)
}

#[cfg(target_os = "linux")]
fn pid_alive(pid: &str) -> bool {
    Path::new("/proc").join(pid).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: &str) -> bool {
    // Without a portable liveness probe, leave temps alone.
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ovlp-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> StoredPoint {
        StoredPoint {
            t_original: 0.123456789,
            t_overlapped: 0.0987,
            t_ideal: -0.0, // sign of zero must round-trip
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let key = PointKey(0xdead_beef_0102_0304);
        let p = sample();
        let enc = p.encode(key);
        let back = StoredPoint::decode(&enc, key).expect("decodes");
        assert_eq!(p.t_original.to_bits(), back.t_original.to_bits());
        assert_eq!(p.t_overlapped.to_bits(), back.t_overlapped.to_bits());
        assert_eq!(p.t_ideal.to_bits(), back.t_ideal.to_bits());
        // an entry never verifies under a different key
        assert!(StoredPoint::decode(&enc, PointKey(key.0 ^ 1)).is_none());
    }

    #[test]
    fn corruption_is_detected() {
        let key = PointKey(42);
        let enc = sample().encode(key);
        // truncation
        assert!(StoredPoint::decode(&enc[..enc.len() - 3], key).is_none());
        // single-bit flip anywhere in the body
        for i in [0, 14, enc.len() / 2, enc.len() - 2] {
            let mut bytes = enc.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(s) = String::from_utf8(bytes) {
                assert!(StoredPoint::decode(&s, key).is_none(), "flip at {i}");
            }
        }
        // trailing garbage
        assert!(StoredPoint::decode(&format!("{enc}x\n"), key).is_none());
    }

    #[test]
    fn disk_store_get_put_and_stats() {
        let dir = tmpdir("getput");
        let store = DiskStore::open(&dir).unwrap();
        let key = PointKey(7);
        assert_eq!(store.get(key), None);
        store.put(key, &sample()).unwrap();
        assert_eq!(store.get(key), Some(sample()));
        assert_eq!(store.entries(), 1);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (1, 1, 0));
        assert!(s.bytes_written > 0 && s.bytes_read > 0);

        // corrupt the file on disk: detected, counted, then replaced
        fs::write(store.entry_path(key), "ovlp.store.v1\ngarbage\n").unwrap();
        assert_eq!(store.get(key), None);
        assert_eq!(store.stats().corrupt, 1);
        store.put(key, &sample()).unwrap();
        assert_eq!(store.get(key), Some(sample()));

        // a trace entry under the same number is another file and kind,
        // uncounted; a point entry moved over it does not verify
        let tkey = TraceKey(key.0);
        assert_eq!(store.get_trace(tkey), None);
        store.put_trace(tkey, 0xfeed).unwrap();
        assert_eq!(store.get_trace(tkey), Some(0xfeed));
        assert_eq!(store.get(key), Some(sample()));
        assert_eq!(store.entries(), 1, "points only");
        fs::copy(store.entry_path(key), store.trace_path(tkey)).unwrap();
        assert_eq!(store.get_trace(tkey), None);
        assert_eq!(store.stats().corrupt, 1, "trace reads are not counted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_dead_writer_temps_and_counts_them() {
        let dir = tmpdir("orphans");
        // Seed a store with one entry, then fake crash debris.
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(PointKey(7), &sample()).unwrap();
        }
        let shard = dir.join("00");
        fs::create_dir_all(&shard).unwrap();
        // pid 4000000000 is above the kernel's pid ceiling — never alive
        let dead1 = shard.join(".00000000deadbeef.4000000000.0.tmp");
        let dead2 = dir.join(".00000000deadbeef.4000000001.3.tmp");
        fs::write(&dead1, "half-written").unwrap();
        fs::write(&dead2, "half-written").unwrap();
        // a temp owned by a live pid (ours) must survive
        let live = shard.join(format!(".00000000deadbeef.{}.9.tmp", std::process::id()));
        fs::write(&live, "in flight").unwrap();
        // a dotfile that is not a store temp must survive too
        let stranger = shard.join(".gitignore");
        fs::write(&stranger, "*").unwrap();

        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.stats().orphans_removed, 2);
        assert!(!dead1.exists() && !dead2.exists());
        assert!(live.exists() && stranger.exists());
        assert_eq!(store.get(PointKey(7)), Some(sample()), "entries untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_faults_degrade_reads_and_writes() {
        let dir = tmpdir("chaos");
        let store = DiskStore::open(&dir).unwrap();
        let key = PointKey(11);
        store.put(key, &sample()).unwrap();
        store.set_chaos(Arc::new(
            "store-read-fail=1;store-write-fail=1".parse().unwrap(),
        ));
        assert_eq!(store.get(key), None, "injected read fault");
        assert_eq!(store.stats().corrupt, 1);
        assert!(store.put(key, &sample()).is_err(), "injected write fault");
        // faults are bounded: the store heals afterwards
        assert_eq!(store.get(key), Some(sample()));
        store.put(key, &sample()).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_leave_one_valid_entry() {
        let dir = tmpdir("race");
        let store = DiskStore::open(&dir).unwrap();
        let key = PointKey(0x0101_0202_0303_0404);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..32 {
                        store.put(key, &sample()).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.entries(), 1, "exactly one entry file");
        assert_eq!(store.get(key), Some(sample()));
        // no temp droppings left behind
        let shard = store.entry_path(key);
        let leftovers: Vec<_> = fs::read_dir(shard.parent().unwrap())
            .unwrap()
            .flatten()
            .filter(|f| f.path().extension().is_some_and(|e| e == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
