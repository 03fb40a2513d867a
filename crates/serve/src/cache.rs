//! The content-addressed result cache behind `barre serve`.
//!
//! Completed runs are indexed by the journal fingerprint of their
//! canonical argv and persisted as `done` records in a JSONL journal
//! file (`serve-cache.jsonl`), reusing the sweep journal's line format —
//! so `barre report <cache-file>` summarizes a cache like any journal,
//! and the torn-tail discipline carries over.
//!
//! The records live on disk only. Memory holds an index from
//! fingerprint to the byte offset and length of the record's line:
//! vectors sorted by the fingerprint's `u64` value, 16 bytes per entry
//! against ~1.5 KB for a parsed record, so the daemon's footprint
//! barely grows with the results it has answered. A hit reads its line
//! back with one positioned read and verifies it. A fingerprint is 16
//! lowercase hex digits ([`barre_system::fingerprint`]), so the
//! vector's order is the fingerprints' string order.
//!
//! Trust model: a cache entry is only ever served after its stored
//! `digest`/`hist_digest` verify against its own metrics. Verification
//! happens at warm-load and again on every hit, over the bytes on disk
//! at that moment, so it also covers bytes changed after the insert. On
//! a hit it is a byte-level check first: a line in the exact layout the
//! cache writes ([`DoneLine`]) verifies by hashing its own metrics text,
//! which is then served as it is stored, with nothing decoded or
//! encoded. A line in any other layout, or one that fails that check,
//! is decoded and verified like a journal record ([`JournalRecord::verified`]);
//! the two agree on every line the byte check accepts. A record that
//! fails both is corruption: evict, log, recompute. Never serve a record
//! whose digest fails.
//!
//! Warm-load streams the file once, collecting the slot of every
//! verified `done` record, then sorts them and keeps the last one per
//! fingerprint (the rules of [`barre_system::read_journal_lenient`] and
//! [`barre_system::verified_done_index`], which `barre sweep --resume`
//! and `barre report` also apply, one line in memory at a time;
//! a line whose fingerprint is not 16 hex digits counts as
//! unparseable). It then rewrites the file compacted through a
//! temp-file rename so every offset is known. During runtime, inserts append to the file (so a crash
//! loses at most the torn tail); a graceful drain compacts it again.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use barre_obs::log as olog;
use barre_obs::Field;
use barre_system::{
    metrics_text_digests, metrics_to_json, DoneLine, JournalError, JournalEvent, JournalRecord,
    RunMetrics,
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

/// Bits of a [`Slot`] that hold the line's length.
const LEN_BITS: u32 = 24;

/// Where one record's line sits in the cache file (newline excluded):
/// its byte offset and length packed in one word, `offset << LEN_BITS |
/// len`, so lines up to 16 MiB in files up to 1 TiB. Unpacked, an index
/// entry takes 24 bytes instead of 16, and `serve-mix`'s daemon peaked
/// about 0.2 MB higher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot(u64);

impl Slot {
    /// `None` when the offset or the length does not fit.
    fn new(offset: u64, len: usize) -> Option<Slot> {
        let len = u64::try_from(len).ok().filter(|&l| l < 1 << LEN_BITS)?;
        (offset < 1 << (64 - LEN_BITS)).then_some(Slot(offset << LEN_BITS | len))
    }

    fn offset(self) -> u64 {
        self.0 >> LEN_BITS
    }

    fn len(self) -> usize {
        (self.0 & ((1 << LEN_BITS) - 1)) as usize
    }
}

/// The `u64` value of a fingerprint: exactly 16 lowercase hex digits,
/// the spelling [`barre_system::fingerprint`] renders.
fn key_of(fp: &str) -> Option<u64> {
    let lower_hex = fp.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    (fp.len() == 16 && lower_hex).then(|| u64::from_str_radix(fp, 16).ok())?
}

/// Fingerprint keys and their slots, one entry per key, in two vectors
/// sorted by key: `main`, and a `tail` of keys inserted since the last
/// merge. A new key shifts only the tail, which is merged into `main`
/// once it holds more than about √`main` entries (at least 64), so an
/// insert costs O(√n) amortized instead of shifting the whole index.
#[derive(Default)]
struct Index {
    main: Vec<(u64, Slot)>,
    tail: Vec<(u64, Slot)>,
}

/// Where `key` is in `run`, or where it would go.
fn find(run: &[(u64, Slot)], key: u64) -> Result<usize, usize> {
    run.binary_search_by_key(&key, |e| e.0)
}

impl Index {
    /// Sorts `(key, slot)` pairs given in file order, keeping the last
    /// slot of each key.
    fn from_file_order(mut entries: Vec<(u64, Slot)>) -> Index {
        // Reversed, a stable sort puts each key's last entry first, and
        // `dedup_by_key` keeps the first of a run.
        entries.reverse();
        entries.sort_by_key(|e| e.0);
        entries.dedup_by_key(|e| e.0);
        entries.shrink_to_fit();
        Index {
            main: entries,
            tail: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.main.len() + self.tail.len()
    }

    fn slot(&self, key: u64) -> Option<Slot> {
        [&self.main, &self.tail]
            .into_iter()
            .find_map(|run| find(run, key).ok().and_then(|i| run.get(i)))
            .map(|e| e.1)
    }

    fn set(&mut self, key: u64, slot: Slot) {
        for run in [&mut self.main, &mut self.tail] {
            if let Some(e) = find(run, key).ok().and_then(|i| run.get_mut(i)) {
                e.1 = slot;
                return;
            }
        }
        if let Err(i) = find(&self.tail, key) {
            self.tail.insert(i, (key, slot));
        }
        if self.tail.len().pow(2) > self.main.len().max(1 << 12) {
            self.merge_tail();
        }
    }

    /// Merges the tail into `main` in place, from the back: each tail
    /// entry, largest first, lands right below the `main` entries that
    /// follow it, which move up once. `main[..i]` is still unmerged and
    /// `main[k..]` done, so every range below lies inside `main`.
    fn merge_tail(&mut self) {
        let (mut i, mut k) = (self.main.len(), self.len());
        self.main.extend_from_slice(&self.tail);
        for &t in self.tail.iter().rev() {
            let p = self
                .main
                .get(..i)
                .map_or(0, |run| run.partition_point(|e| e.0 < t.0));
            self.main.copy_within(p..i, k - (i - p));
            k -= i - p + 1;
            i = p;
            if let Some(e) = self.main.get_mut(k) {
                *e = t;
            }
        }
        self.tail.clear();
    }

    /// Drops `key` if it still points at `slot`.
    fn evict(&mut self, key: u64, slot: Slot) {
        for run in [&mut self.main, &mut self.tail] {
            if let Ok(i) = find(run, key) {
                if run.get(i).is_some_and(|e| e.1 == slot) {
                    run.remove(i);
                }
            }
        }
    }
}

/// The index and the file it points into, guarded together so an
/// offset is never read against a file it does not belong to.
struct Store {
    index: Index,
    /// `None` once a compaction failed to reopen the file, after which
    /// nothing is served or persisted.
    file: Option<File>,
    /// Length of the file: where the next append lands.
    end: u64,
}

fn closed() -> std::io::Error {
    std::io::Error::other("cache file closed")
}

/// Reads the line at `slot` of `file` into `buf`, with one positioned
/// read on Unix.
fn read_at(file: &File, slot: Slot, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.resize(slot.len(), 0);
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, slot.offset())
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = file;
        file.seek(SeekFrom::Start(slot.offset()))?;
        file.read_exact(buf)
    }
}

/// What an `ok` response carries from a cache record: its digests and
/// its metrics as canonical JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cached {
    /// The metrics digest.
    pub digest: String,
    /// The latency/locality histogram digest (empty on a record written
    /// without one).
    pub hist_digest: String,
    /// The canonical metrics JSON.
    pub metrics: String,
}

impl Cached {
    /// Digests of `metrics`, taken over its canonical encoding, which
    /// is kept.
    fn of(metrics: &RunMetrics) -> Cached {
        let metrics = metrics_to_json(metrics);
        let (digest, hist_digest) = metrics_text_digests(&metrics);
        Cached {
            digest,
            hist_digest,
            metrics,
        }
    }

    /// The record at `fp` when `line` is one in the layout the cache
    /// writes and verifies over its own bytes; `None` declines.
    fn from_bytes(line: &str, fp: &str) -> Option<Cached> {
        let view = DoneLine::parse(line).filter(|v| v.fingerprint == fp && v.verified())?;
        Some(Cached {
            digest: view.digest.to_string(),
            hist_digest: view.hist_digest.to_string(),
            metrics: view.metrics.to_string(),
        })
    }

    /// The record at `fp` when `line` decodes to a `done` record for
    /// `fp` that [`JournalRecord::verified`] accepts, its metrics
    /// encoded again; otherwise why not.
    fn decoded(line: &str, fp: &str) -> Result<Cached, String> {
        let rec = JournalRecord::from_line(line)
            .map_err(|e| format!("unreadable record on {fp} ({e})"))?;
        match rec.event {
            JournalEvent::Done {
                ref digest,
                ref hist_digest,
                ref metrics,
                ..
            } if rec.fingerprint == fp && rec.verified() => Ok(Cached {
                digest: digest.clone(),
                hist_digest: hist_digest.clone().unwrap_or_default(),
                metrics: metrics_to_json(metrics),
            }),
            _ => Err(format!("digest mismatch on {fp} ({})", rec.label)),
        }
    }
}

impl Store {
    /// Appends `line` and a newline in one write, returning its slot.
    fn append(&mut self, line: &str) -> std::io::Result<Slot> {
        let file = self.file.as_mut().ok_or_else(closed)?;
        let slot = Slot::new(self.end, line.len())
            .ok_or_else(|| std::io::Error::other("record does not fit a cache slot"))?;
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        if let Err(e) = file.write_all(&buf) {
            // A partial write moved the end; find it again.
            self.end = file.metadata().map_or(self.end, |m| m.len());
            return Err(e);
        }
        self.end += buf.len() as u64;
        Ok(slot)
    }

    /// Rewrites the indexed lines, in fingerprint order, to a temp file
    /// renamed over `path`, and reopens it for reading and appending.
    /// Before the rename an error leaves the store as it was; after it,
    /// the store is left closed and empty.
    fn compact(&mut self, path: &Path) -> std::io::Result<()> {
        let file = self.file.as_ref().ok_or_else(closed)?;
        let tmp = path.with_extension("jsonl.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        self.index.merge_tail();
        let mut slots = Vec::with_capacity(self.index.main.len());
        let mut end = 0u64;
        let mut buf = Vec::new();
        for &(_, slot) in &self.index.main {
            read_at(file, slot, &mut buf)?;
            out.write_all(&buf)?;
            out.write_all(b"\n")?;
            slots.push(
                Slot::new(end, slot.len())
                    .ok_or_else(|| std::io::Error::other("cache file too large"))?,
            );
            end += slot.len() as u64 + 1;
        }
        out.into_inner().map_err(|e| e.into_error())?;
        std::fs::rename(&tmp, path)?;
        match open_rw(path) {
            Ok(file) => {
                self.file = Some(file);
                for (entry, slot) in self.index.main.iter_mut().zip(slots) {
                    entry.1 = slot;
                }
                self.end = end;
                Ok(())
            }
            Err(e) => {
                self.file = None;
                self.index = Index::default();
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
fn scan(file: &File) -> std::io::Result<(Index, WarmLoad)> {
    let mut reader = BufReader::new(file);
    let mut entries = Vec::new();
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
            Ok(rec) if rec.verified() => {
                match (key_of(&rec.fingerprint), Slot::new(slot_at, line.len())) {
                    (Some(key), Some(slot)) => entries.push((key, slot)),
                    _ => warm.skipped_lines += 1,
                }
            }
            Ok(_) => warm.evicted += 1,
        }
    }
    let index = Index::from_file_order(entries);
    warm.loaded = index.len();
    Ok((index, warm))
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
    /// digests before serving: over the line's own bytes when it is in
    /// the layout the cache writes, by decoding it otherwise or when that
    /// check fails. A record that cannot be read, decoded, or verified is
    /// corruption: the entry is evicted and logged, and `None` comes back
    /// so the caller recomputes.
    pub fn get(&self, fp: &str) -> Option<Cached> {
        let key = key_of(fp)?;
        let mut buf = Vec::new();
        let (slot, read) = {
            let store = self.store();
            let slot = store.index.slot(key)?;
            let read = match store.file.as_ref() {
                Some(file) => read_at(file, slot, &mut buf),
                None => Err(closed()),
            };
            (slot, read)
        };
        let answer = read
            .map_err(|e| format!("unreadable record on {fp} ({e})"))
            .and_then(|()| {
                String::from_utf8(buf).map_err(|e| format!("unreadable record on {fp} ({e})"))
            })
            .and_then(|line| {
                Cached::from_bytes(&line, fp).map_or_else(|| Cached::decoded(&line, fp), Ok)
            });
        let why = match answer {
            Ok(cached) => return Some(cached),
            Err(why) => why,
        };
        {
            // Evict only the slot that failed; a concurrent insert may
            // already have replaced it with a good one.
            self.store().index.evict(key, slot);
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

    /// Inserts a completed run, appending its `done` record to the cache
    /// file, and returns what its response carries. The metrics are
    /// encoded once: the digests, the line and the response all come
    /// from that text. When the append fails, or `fp` is not a
    /// fingerprint, the record is logged and left unindexed, so the next
    /// request for it recomputes.
    pub fn insert(&self, fp: &str, label: &str, metrics: RunMetrics) -> Cached {
        let cached = Cached::of(&metrics);
        let line = DoneLine {
            fingerprint: fp,
            label,
            attempts: 1,
            exit: "ok",
            digest: &cached.digest,
            hist_digest: &cached.hist_digest,
            metrics: &cached.metrics,
        }
        .to_line();
        let appended = key_of(fp)
            .ok_or_else(|| std::io::Error::other("not a 16-hex-digit fingerprint"))
            .and_then(|key| {
                let mut store = self.store();
                store.append(&line).map(|slot| store.index.set(key, slot))
            });
        if let Err(e) = appended {
            olog::error(
                "cache",
                "append_failed",
                &[("fp", Field::S(fp))],
                &format!("cache: append failed for {fp}: {e}"),
            );
        }
        cached
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

    // Real fingerprints are 16 lowercase hex digits; these are easy to
    // tell apart and sort FP1 < FP2 < FP3 < FPA < FPB.
    const FP1: &str = "1111111111111111";
    const FP2: &str = "2222222222222222";
    const FP3: &str = "3333333333333333";
    const FPA: &str = "aaaaaaaaaaaaaaaa";
    const FPB: &str = "bbbbbbbbbbbbbbbb";

    /// A fresh cache directory. Every test opens one, so this is also
    /// where the corruption events the tests provoke are kept off the
    /// test output.
    fn tmpdir(tag: &str) -> PathBuf {
        barre_obs::log::silence();
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
        let cold = cache.insert(FP1, "gups/barre", metrics(100));
        assert_eq!(cache.get(FP1).expect("hit"), cold);
        // No drain: the reopened cache reads the appended form.
        drop(cache);
        let (cache2, warm) = ResultCache::open(&dir).expect("reopen");
        assert_eq!(warm.loaded, 1);
        assert_eq!(cache2.get(FP1).expect("warm hit"), cold);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_byte_changed_on_disk_after_insert_is_evicted_on_get() {
        let dir = tmpdir("flip");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        cache.insert(FPA, "gups/barre", metrics(100));
        cache.insert(FPB, "gemv/barre", metrics(200));
        // Flip one bit of fpA's total_cycles in place: '0' (0x30)
        // becomes '1' (0x31), so the line still parses but its digest
        // no longer matches.
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path).expect("read");
        let at = text.find("\"total_cycles\":100,").expect("fpA's cycles") + 17;
        let mut bytes = text.into_bytes();
        bytes[at] ^= 0x01;
        std::fs::write(&path, bytes).expect("write");
        assert!(cache.get(FPA).is_none(), "corrupt entry must not serve");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(FPB).is_some());
        // Recomputing re-inserts it, and the new record serves.
        cache.insert(FPA, "gups/barre", metrics(100));
        assert!(cache.get(FPA).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_index_holds_offsets_not_records() {
        let dir = tmpdir("slots");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        cache.insert(FP1, "gups/barre", metrics(100));
        let line = record_line(FP1, 100, true);
        // The entry is exactly a key, an offset and a length into the
        // file: a field holding metrics would break this pattern or the
        // size.
        let slot = cache
            .store()
            .index
            .slot(key_of(FP1).expect("key"))
            .expect("indexed");
        assert_eq!(std::mem::size_of::<(u64, Slot)>(), 16);
        let file = std::fs::read(dir.join(CACHE_FILE)).expect("read");
        let at = slot.offset() as usize;
        assert_eq!(&file[at..at + slot.len()], line.as_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_sixteen_lowercase_hex_digits_make_a_key() {
        assert_eq!(key_of("00000000000000ff"), Some(255));
        assert_eq!(key_of(FPB), Some(0xbbbb_bbbb_bbbb_bbbb));
        for bad in [
            "",
            "fp1",
            "00000000000000FF",
            "00000000000000f",
            "000000000000000ff",
            "+000000000000000",
            "000000000000000g",
        ] {
            assert_eq!(key_of(bad), None, "{bad:?}");
        }
        assert_eq!(Slot::new(1 << 40, 1), None);
        assert_eq!(Slot::new(0, 1 << 24), None);
        let s = Slot::new((1 << 40) - 1, (1 << 24) - 1).expect("fits");
        assert_eq!((s.offset(), s.len()), ((1 << 40) - 1, (1 << 24) - 1));
    }

    /// Inserts, overwrites and evictions across many tail merges agree
    /// with a map, and a merged index is one sorted run.
    #[test]
    fn the_index_agrees_with_a_map_across_tail_merges() {
        let mut index = Index::default();
        let mut want = std::collections::BTreeMap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for n in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A small key space, so keys repeat and land in either run.
            let key = x % 12_000;
            let slot = Slot::new(n, 1).expect("fits");
            if n % 7 == 0 {
                let old = want.get(&key).copied().unwrap_or(slot);
                index.evict(key, old);
                want.remove(&key);
            } else {
                index.set(key, slot);
                want.insert(key, slot);
            }
            assert_eq!(index.len(), want.len());
        }
        assert!(!index.tail.is_empty() && index.main.len() > 4_096);
        for key in 0..12_000 {
            assert_eq!(index.slot(key), want.get(&key).copied(), "{key}");
        }
        index.merge_tail();
        assert!(index.tail.is_empty());
        let merged: Vec<(u64, Slot)> = want.into_iter().collect();
        assert_eq!(index.main, merged);
    }

    /// A done record's line for `fp`; `good` false breaks its digest.
    fn record_line(fp: &str, cycles: u64, good: bool) -> String {
        let line =
            JournalRecord::done(fp, "gups/barre", 1, None, Box::new(metrics(cycles))).to_line();
        if good {
            line
        } else {
            line.replace(
                &format!("\"total_cycles\":{cycles},"),
                "\"total_cycles\":7,",
            )
        }
    }

    /// Every record of a daemon's cache file from before the byte path,
    /// and fresh records with busy histograms.
    fn known_lines() -> Vec<(String, String)> {
        let mut lines: Vec<(String, String)> =
            include_str!("../../cli/tests/fixtures/serve-cache-v1.jsonl")
                .lines()
                .map(|line| {
                    let rec = JournalRecord::from_line(line).expect("fixture record");
                    (rec.fingerprint, line.to_string())
                })
                .collect();
        for (fp, cycles) in [(FP1, 1), (FPA, 97), (FPB, 1 << 40)] {
            let mut m = metrics(cycles);
            for v in [0, 3, 900, cycles, u64::MAX / 3] {
                m.ats_latency.record(v);
                m.vpn_gap.record(v / 7);
            }
            let line = JournalRecord::done(fp, "gups/fbarre", 1, None, Box::new(m)).to_line();
            lines.push((fp.to_string(), line));
        }
        lines
    }

    /// Byte ranges of `line`'s `digest` and `hist_digest` values and of
    /// its metrics text.
    fn checked_ranges(line: &str) -> [std::ops::Range<usize>; 3] {
        let value = |key: &str| {
            let at = line.find(key).expect(key) + key.len();
            at..at + 16
        };
        let metrics = line.find(",\"metrics\":").expect("metrics") + 11;
        [
            value("\"digest\":\""),
            value("\"hist_digest\":\""),
            metrics..line.len() - 1,
        ]
    }

    #[test]
    fn the_byte_path_declines_or_answers_what_decoding_answers() {
        for (fp, line) in known_lines() {
            let decoded = Cached::decoded(&line, &fp).expect("a good record");
            assert_eq!(Cached::from_bytes(&line, &fp), Some(decoded), "{line}");
            // A record asked for under another address is not served.
            assert_eq!(Cached::from_bytes(&line, FP3), None);
            // Each single-byte change to the digests or the metrics text.
            for at in checked_ranges(&line).into_iter().flatten() {
                for flip in [0x01, 0x02, 0x10] {
                    let mut bytes = line.clone().into_bytes();
                    bytes[at] ^= flip;
                    let Ok(bad) = String::from_utf8(bytes) else {
                        continue;
                    };
                    let slow = Cached::decoded(&bad, &fp);
                    match Cached::from_bytes(&bad, &fp) {
                        Some(fast) => assert_eq!(Ok(fast), slow, "{bad}"),
                        None => assert!(slow.is_err(), "byte {at} ^ {flip:#x} still verifies"),
                    }
                }
            }
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_corrupted_record_is_evicted_and_recomputed_on_either_path() {
        use std::os::unix::fs::FileExt as _;
        let dir = tmpdir("sweep");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        let disk = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(CACHE_FILE))
            .expect("open for writes");
        let good = cache.insert(FPA, "gups/barre", metrics(100));
        let line = record_line(FPA, 100, true);
        let mut evicted = 0;
        // Every digest byte, and a spread of metrics bytes.
        let [digest, hist, body] = checked_ranges(&line);
        for at in digest.chain(hist).chain(body.step_by(37)) {
            let slot = cache
                .store()
                .index
                .slot(key_of(FPA).expect("key"))
                .expect("indexed");
            let byte = line.as_bytes()[at] ^ 0x01;
            disk.write_all_at(&[byte], slot.offset() + at as u64)
                .expect("corrupt");
            assert_eq!(cache.get(FPA), None, "byte {at} served");
            evicted += 1;
            assert_eq!((cache.evictions(), cache.len()), (evicted, 0));
            // Recomputing re-inserts it, and the new record serves.
            assert_eq!(cache.insert(FPA, "gups/barre", metrics(100)), good);
            assert_eq!(cache.get(FPA).as_ref(), Some(&good));
        }
        assert!(evicted > 40, "{evicted}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_in_an_older_layout_is_decoded_and_served() {
        let dir = tmpdir("legacy");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let m = metrics(100);
        let stamped =
            JournalRecord::done(FP1, "gups/barre", 2, Some("w1".into()), Box::new(m.clone()));
        let mut unhashed = JournalRecord::done(FP2, "gups\tbarre", 1, None, Box::new(m.clone()));
        if let JournalEvent::Done { hist_digest, .. } = &mut unhashed.event {
            *hist_digest = None;
        }
        let lines = [stamped.to_line(), unhashed.to_line()];
        for (fp, line) in [FP1, FP2].into_iter().zip(&lines) {
            assert_eq!(Cached::from_bytes(line, fp), None, "{line}");
        }
        std::fs::write(dir.join(CACHE_FILE), lines.join("\n")).expect("write");
        let (cache, warm) = ResultCache::open(&dir).expect("open");
        assert_eq!(warm.loaded, 2);
        let want = Cached::of(&m);
        assert_eq!(cache.get(FP1).as_ref(), Some(&want));
        let legacy = cache.get(FP2).expect("served");
        assert_eq!(legacy.hist_digest, "");
        assert_eq!((legacy.digest, legacy.metrics), (want.digest, want.metrics));
        assert_eq!(cache.evictions(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_load_keeps_the_last_verified_record_per_fingerprint() {
        let dir = tmpdir("dups");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let lines = [
            record_line(FP2, 200, true),
            record_line(FP1, 100, true),
            "not json at all".to_string(),
            record_line(FP1, 150, true),
            record_line(FP2, 250, false),
            record_line("fp1", 300, true),
            record_line("00000000000000FF", 300, true),
            record_line(FP1, 170, false),
        ];
        let mut text = lines.join("\n");
        text.push_str("\n{\"event\":\"done\",\"finger");
        std::fs::write(dir.join(CACHE_FILE), text).expect("write");
        let (cache, warm) = ResultCache::open(&dir).expect("open");
        assert_eq!(warm.loaded, 2);
        // The garbage line, the torn tail and both non-hex fingerprints.
        assert_eq!(warm.skipped_lines, 4);
        assert_eq!(warm.evicted, 2);
        assert_eq!(cache.get(FP1), Cached::decoded(&lines[3], FP1).ok());
        assert_eq!(cache.get(FP2), Cached::decoded(&lines[0], FP2).ok());
        assert!(cache.get("fp1").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_writes_in_fingerprint_order() {
        let dir = tmpdir("order");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        for (fp, cycles) in [(FPB, 5), (FP2, 2), (FPA, 4), (FP1, 1), (FP3, 3), (FP2, 2)] {
            cache.insert(fp, "gups/barre", metrics(cycles));
        }
        assert_eq!(cache.flush_compacted().expect("flush"), 5);
        let (records, skipped) =
            barre_system::read_journal_lenient(&dir.join(CACHE_FILE)).expect("read");
        let fps: Vec<&str> = records.iter().map(|r| r.fingerprint.as_str()).collect();
        assert_eq!((fps, skipped), (vec![FP1, FP2, FP3, FPA, FPB], 0));
        // A key that is not a fingerprint is neither written nor served.
        cache.insert("fp9", "gups/barre", metrics(9));
        assert!(cache.get("fp9").is_none());
        assert_eq!(cache.len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_load_compacts_and_a_drain_keeps_serving() {
        let dir = tmpdir("compact");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        cache.insert(FP1, "gups/barre", metrics(100));
        cache.insert(FP1, "gups/barre", metrics(100));
        cache.insert(FP2, "gemv/barre", metrics(200));
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
        cache2.insert(FP3, "lu/barre", metrics(300));
        assert_eq!(cache2.flush_compacted().expect("flush"), 3);
        for fp in [FP1, FP2, FP3] {
            assert!(cache2.get(fp).is_some(), "{fp} after flush");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_get_roundtrip_and_warm_reload() {
        let dir = tmpdir("roundtrip");
        let (cache, warm) = ResultCache::open(&dir).expect("open");
        assert_eq!(warm.loaded, 0);
        cache.insert(FP1, "gups/barre", metrics(100));
        cache.insert(FP2, "gemv/barre", metrics(200));
        let hit = cache.get(FP1).expect("hit");
        assert_eq!(hit, Cached::of(&metrics(100)));
        assert!(cache.get(FP3).is_none());
        assert_eq!(cache.flush_compacted().expect("flush"), 2);
        // Reload sees both entries, byte-identical records.
        let (cache2, warm2) = ResultCache::open(&dir).expect("reopen");
        assert_eq!(warm2.loaded, 2);
        assert_eq!(warm2.evicted, 0);
        assert_eq!(cache2.get(FP1).expect("warm hit"), hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_entry_is_evicted_on_load_never_served() {
        let dir = tmpdir("corrupt");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        cache.insert(FPA, "gups/barre", metrics(100));
        cache.insert(FPB, "gemv/barre", metrics(200));
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
        assert!(cache2.get(FPA).is_none(), "corrupt entry must not serve");
        assert!(cache2.get(FPB).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_and_garbage_lines_are_skipped() {
        let dir = tmpdir("torn");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        cache.insert(FP1, "gups/barre", metrics(100));
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
        assert!(cache2.get(FP1).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
