//! The content-addressed result cache behind `barre serve`.
//!
//! Completed runs are indexed by the journal fingerprint of their
//! canonical argv and persisted as `done` records in a JSONL journal
//! file (`serve-cache.jsonl`), reusing the sweep journal's line format —
//! so `barre report <cache-file>` summarizes a cache like any journal,
//! and the torn-tail discipline carries over.
//!
//! The records live on disk only. Memory holds an index from
//! fingerprint to the byte offset and length of the record's line, about
//! a hundred bytes per entry against ~1.5 KB for a parsed record, so the
//! daemon's footprint does not grow with the results it has answered. A
//! hit reads its line back, parses it, and verifies it.
//!
//! Trust model: a cache entry is only ever served after its stored
//! `digest`/`hist_digest` verify against its own metrics. Verification
//! happens at warm-load and again on every hit, over the bytes on disk
//! at that moment, so it also covers bytes changed after the insert. A
//! mismatch is treated as corruption: evict, log, recompute. Never
//! serve a record whose digest fails.
//!
//! Warm-load streams the file once, keeping the slot of the last
//! verified `done` record per fingerprint (the rules of
//! [`barre_system::read_journal_lenient`] and
//! [`barre_system::verified_done_index`], one line in memory at a time),
//! then rewrites it compacted through a temp-file rename so every offset
//! is known. During runtime, inserts append to the file (so a crash
//! loses at most the torn tail); a graceful drain compacts it again.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use barre_obs::log as olog;
use barre_obs::Field;
use barre_system::{
    metrics_digest, metrics_hist_digest, JournalError, JournalEvent, JournalRecord, RunMetrics,
};

/// File name of the cache index inside the cache directory.
pub const CACHE_FILE: &str = "serve-cache.jsonl";

/// What warm-loading found on disk.
#[derive(Debug, Default, Clone, Copy)]
pub struct WarmLoad {
    /// Entries that verified and were loaded.
    pub loaded: usize,
    /// Unparseable lines skipped.
    pub skipped_lines: usize,
    /// Parseable `done` records evicted because a digest failed.
    pub evicted: usize,
}

/// Where one record's line sits in the cache file (newline excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    offset: u64,
    len: u32,
}

/// The index and the file it points into, guarded together so an
/// offset is never read against a file it does not belong to.
struct Store {
    index: BTreeMap<String, Slot>,
    /// `None` once a compaction failed to reopen the file, after which
    /// nothing is served or persisted.
    file: Option<File>,
    /// Length of the file: where the next append lands.
    end: u64,
}

fn closed() -> std::io::Error {
    std::io::Error::other("cache file closed")
}

/// Reads the line at `slot` of `file` into `buf`.
fn read_at(file: &mut File, slot: Slot, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.resize(slot.len as usize, 0);
    file.seek(SeekFrom::Start(slot.offset))?;
    file.read_exact(buf)
}

impl Store {
    /// Appends `line` and a newline in one write, returning its slot.
    fn append(&mut self, line: &str) -> std::io::Result<Slot> {
        let file = self.file.as_mut().ok_or_else(closed)?;
        let len = u32::try_from(line.len()).map_err(std::io::Error::other)?;
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        if let Err(e) = file.write_all(&buf) {
            // A partial write moved the end; find it again.
            self.end = file.metadata().map_or(self.end, |m| m.len());
            return Err(e);
        }
        let slot = Slot {
            offset: self.end,
            len,
        };
        self.end += buf.len() as u64;
        Ok(slot)
    }

    /// Rewrites the indexed lines, in fingerprint order, to a temp file
    /// renamed over `path`, and reopens it for reading and appending.
    /// Before the rename an error leaves the store as it was; after it,
    /// the store is left closed and empty.
    fn compact(&mut self, path: &Path) -> std::io::Result<()> {
        let file = self.file.as_mut().ok_or_else(closed)?;
        let tmp = path.with_extension("jsonl.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        let mut offsets = Vec::with_capacity(self.index.len());
        let mut end = 0u64;
        let mut buf = Vec::new();
        for &slot in self.index.values() {
            read_at(file, slot, &mut buf)?;
            out.write_all(&buf)?;
            out.write_all(b"\n")?;
            offsets.push(end);
            end += u64::from(slot.len) + 1;
        }
        out.into_inner().map_err(|e| e.into_error())?;
        std::fs::rename(&tmp, path)?;
        match open_rw(path) {
            Ok(file) => {
                self.file = Some(file);
                for (slot, offset) in self.index.values_mut().zip(offsets) {
                    slot.offset = offset;
                }
                self.end = end;
                Ok(())
            }
            Err(e) => {
                self.file = None;
                self.index.clear();
                Err(e)
            }
        }
    }
}

fn open_rw(path: &Path) -> std::io::Result<File> {
    std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)
}

/// Scans a cache file: the slot of the last verified `done` record per
/// fingerprint, and what was dropped on the way.
fn scan(file: &File) -> std::io::Result<(BTreeMap<String, Slot>, WarmLoad)> {
    let mut reader = BufReader::new(file);
    let mut index = BTreeMap::new();
    let mut warm = WarmLoad::default();
    let mut offset = 0u64;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        let slot_at = offset;
        offset += n as u64;
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        if line.trim_ascii().is_empty() {
            continue;
        }
        // Invalid UTF-8 counts as unparseable: a hit decodes strictly.
        let parsed = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(JournalRecord::from_line);
        match parsed {
            Err(_) => warm.skipped_lines += 1,
            Ok(rec) if !matches!(rec.event, JournalEvent::Done { .. }) => {}
            Ok(rec) if verifies(&rec, &rec.fingerprint) => {
                let len = u32::try_from(line.len()).map_err(std::io::Error::other)?;
                index.insert(
                    rec.fingerprint,
                    Slot {
                        offset: slot_at,
                        len,
                    },
                );
            }
            Ok(_) => warm.evicted += 1,
        }
    }
    warm.loaded = index.len();
    Ok((index, warm))
}

/// Whether `rec` is a `done` record for `fp` whose digests match its
/// own metrics.
fn verifies(rec: &JournalRecord, fp: &str) -> bool {
    match &rec.event {
        JournalEvent::Done {
            digest,
            hist_digest,
            metrics,
            ..
        } => {
            rec.fingerprint == fp
                && *digest == metrics_digest(metrics)
                && match hist_digest {
                    Some(h) => *h == metrics_hist_digest(metrics),
                    None => true,
                }
        }
        _ => false,
    }
}

/// The on-disk records plus their in-memory index.
pub struct ResultCache {
    path: PathBuf,
    store: Mutex<Store>,
    evictions: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `dir`, warm-loading
    /// and digest-verifying any existing index and rewriting it
    /// compacted.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the directory or index file cannot be
    /// created, read or rewritten. A *corrupt* index is not an error —
    /// bad lines and bad records are dropped and reported in
    /// [`WarmLoad`].
    pub fn open(dir: &Path) -> Result<(ResultCache, WarmLoad), JournalError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(CACHE_FILE);
        let file = open_rw(&path)?;
        let (index, warm) = scan(&file)?;
        let mut store = Store {
            index,
            file: Some(file),
            end: 0,
        };
        store.compact(&path)?;
        let cache = ResultCache {
            path,
            store: Mutex::new(store),
            evictions: AtomicU64::new(warm.evicted as u64),
        };
        Ok((cache, warm))
    }

    fn store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of cached fingerprints.
    pub fn len(&self) -> usize {
        self.store().index.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries evicted by digest verification (warm-load + reads).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Looks up `fp`, reading its record from disk and re-verifying its
    /// digests before serving. A record that cannot be read, parsed, or
    /// verified is corruption: the entry is evicted and logged, and
    /// `None` comes back so the caller recomputes.
    pub fn get(&self, fp: &str) -> Option<JournalRecord> {
        let mut buf = Vec::new();
        let (slot, read) = {
            let mut store = self.store();
            let slot = *store.index.get(fp)?;
            let read = match store.file.as_mut() {
                Some(file) => read_at(file, slot, &mut buf),
                None => Err(closed()),
            };
            (slot, read)
        };
        let parsed = read
            .map_err(|e| e.to_string())
            .and_then(|()| String::from_utf8(buf).map_err(|e| e.to_string()))
            .and_then(|line| JournalRecord::from_line(&line));
        let why = match parsed {
            Ok(rec) if verifies(&rec, fp) => return Some(rec),
            Ok(rec) => format!("digest mismatch on {fp} ({})", rec.label),
            Err(e) => format!("unreadable record on {fp} ({e})"),
        };
        {
            // Evict only the slot that failed; a concurrent insert may
            // already have replaced it with a good one.
            let mut store = self.store();
            if store.index.get(fp) == Some(&slot) {
                store.index.remove(fp);
            }
        }
        self.evictions.fetch_add(1, Ordering::Relaxed);
        olog::warn(
            "cache",
            "digest_mismatch",
            &[("fp", Field::S(fp))],
            &format!("cache: {why}: evicted, recomputing"),
        );
        None
    }

    /// Inserts a completed run, appending it to the cache file. Returns
    /// the record (digests freshly computed). When the append fails the
    /// record is logged and left unindexed, so the next request for it
    /// recomputes.
    pub fn insert(&self, fp: &str, label: &str, metrics: RunMetrics) -> JournalRecord {
        let metrics = Box::new(metrics);
        let rec = JournalRecord {
            fingerprint: fp.to_string(),
            label: label.to_string(),
            event: JournalEvent::Done {
                attempts: 1,
                exit: "ok".to_string(),
                digest: metrics_digest(&metrics),
                hist_digest: Some(metrics_hist_digest(&metrics)),
                worker: None,
                metrics,
            },
        };
        let line = rec.to_line();
        let appended = {
            let mut store = self.store();
            store
                .append(&line)
                .map(|slot| store.index.insert(fp.to_string(), slot))
        };
        if let Err(e) = appended {
            olog::error(
                "cache",
                "append_failed",
                &[("fp", Field::S(fp))],
                &format!("cache: append failed for {fp}: {e}"),
            );
        }
        rec
    }

    /// Rewrites the index compacted (one record per fingerprint, sorted)
    /// through a temp file + rename, called during graceful drain. The
    /// cache keeps serving from the rewritten file afterwards.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when a record cannot be read back or the
    /// temp file cannot be written or renamed — the previous index stays
    /// in place.
    pub fn flush_compacted(&self) -> Result<usize, JournalError> {
        let mut store = self.store();
        store.compact(&self.path)?;
        Ok(store.index.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("barre-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn metrics(cycles: u64) -> RunMetrics {
        let mut m = RunMetrics {
            total_cycles: cycles,
            walks: 3,
            ..Default::default()
        };
        m.ats_latency.record(cycles);
        m.vpn_gap.record(1);
        m
    }

    #[test]
    fn a_hit_after_reopen_is_byte_identical() {
        let dir = tmpdir("reopen");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        let cold = cache.insert("fp1", "gups/barre", metrics(100)).to_line();
        assert_eq!(cache.get("fp1").expect("hit").to_line(), cold);
        // No drain: the reopened cache reads the appended form.
        drop(cache);
        let (cache2, warm) = ResultCache::open(&dir).expect("reopen");
        assert_eq!(warm.loaded, 1);
        assert_eq!(cache2.get("fp1").expect("warm hit").to_line(), cold);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_byte_changed_on_disk_after_insert_is_evicted_on_get() {
        let dir = tmpdir("flip");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        cache.insert("fpA", "gups/barre", metrics(100));
        cache.insert("fpB", "gemv/barre", metrics(200));
        // Flip one bit of fpA's total_cycles in place: '0' (0x30)
        // becomes '1' (0x31), so the line still parses but its digest
        // no longer matches.
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path).expect("read");
        let at = text.find("\"total_cycles\":100,").expect("fpA's cycles") + 17;
        let mut bytes = text.into_bytes();
        bytes[at] ^= 0x01;
        std::fs::write(&path, bytes).expect("write");
        assert!(cache.get("fpA").is_none(), "corrupt entry must not serve");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get("fpB").is_some());
        // Recomputing re-inserts it, and the new record serves.
        cache.insert("fpA", "gups/barre", metrics(100));
        assert!(cache.get("fpA").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_index_holds_offsets_not_records() {
        let dir = tmpdir("slots");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        let line = cache.insert("fp1", "gups/barre", metrics(100)).to_line();
        // The entry is exactly an offset and a length into the file: a
        // field holding metrics would break this pattern or the size.
        let Slot { offset, len } = *cache.store().index.get("fp1").expect("indexed");
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        let file = std::fs::read(dir.join(CACHE_FILE)).expect("read");
        let at = offset as usize;
        assert_eq!(&file[at..at + len as usize], line.as_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_load_compacts_and_a_drain_keeps_serving() {
        let dir = tmpdir("compact");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        cache.insert("fp1", "gups/barre", metrics(100));
        cache.insert("fp1", "gups/barre", metrics(100));
        cache.insert("fp2", "gemv/barre", metrics(200));
        drop(cache);
        let path = dir.join(CACHE_FILE);
        assert_eq!(
            std::fs::read_to_string(&path)
                .expect("read")
                .lines()
                .count(),
            3
        );
        let (cache2, warm) = ResultCache::open(&dir).expect("reopen");
        assert_eq!(warm.loaded, 2);
        assert_eq!(
            std::fs::read_to_string(&path)
                .expect("read")
                .lines()
                .count(),
            2
        );
        cache2.insert("fp3", "lu/barre", metrics(300));
        assert_eq!(cache2.flush_compacted().expect("flush"), 3);
        for fp in ["fp1", "fp2", "fp3"] {
            assert!(cache2.get(fp).is_some(), "{fp} after flush");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_get_roundtrip_and_warm_reload() {
        let dir = tmpdir("roundtrip");
        let (cache, warm) = ResultCache::open(&dir).expect("open");
        assert_eq!(warm.loaded, 0);
        cache.insert("fp1", "gups/barre", metrics(100));
        cache.insert("fp2", "gemv/barre", metrics(200));
        let hit = cache.get("fp1").expect("hit");
        assert_eq!(hit.label, "gups/barre");
        assert!(cache.get("fp3").is_none());
        assert_eq!(cache.flush_compacted().expect("flush"), 2);
        // Reload sees both entries, byte-identical records.
        let (cache2, warm2) = ResultCache::open(&dir).expect("reopen");
        assert_eq!(warm2.loaded, 2);
        assert_eq!(warm2.evicted, 0);
        assert_eq!(
            cache2.get("fp1").expect("warm hit").to_line(),
            hit.to_line()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_entry_is_evicted_on_load_never_served() {
        let dir = tmpdir("corrupt");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        cache.insert("fpA", "gups/barre", metrics(100));
        cache.insert("fpB", "gemv/barre", metrics(200));
        cache.flush_compacted().expect("flush");
        // Bit-flip one digit of fpA's recorded total_cycles so the line
        // still parses but the digest no longer matches.
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path).expect("read");
        let corrupted = text.replace("\"total_cycles\":100,", "\"total_cycles\":101,");
        assert_ne!(text, corrupted, "corruption must land");
        std::fs::write(&path, corrupted).expect("write");
        let (cache2, warm) = ResultCache::open(&dir).expect("reopen");
        assert_eq!(warm.evicted, 1);
        assert_eq!(warm.loaded, 1);
        assert!(cache2.get("fpA").is_none(), "corrupt entry must not serve");
        assert!(cache2.get("fpB").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_and_garbage_lines_are_skipped() {
        let dir = tmpdir("torn");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        cache.insert("fp1", "gups/barre", metrics(100));
        drop(cache);
        let path = dir.join(CACHE_FILE);
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open raw");
            writeln!(f, "not json at all").expect("garbage");
            write!(f, "{{\"event\":\"done\",\"finger").expect("torn");
        }
        let (cache2, warm) = ResultCache::open(&dir).expect("reopen");
        assert_eq!(warm.loaded, 1);
        assert_eq!(warm.skipped_lines, 2);
        assert!(cache2.get("fp1").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
