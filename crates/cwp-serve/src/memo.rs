//! Crash-safe result memoization.
//!
//! Results are keyed by `(trace content hash, canonical config JSON)`
//! and journaled to `memo.jsonl` with an atomic write-then-rename on
//! every insert, so a server killed mid-run resumes warm: a resent
//! request whose result was already journaled is answered from the
//! memo without re-simulating.
//!
//! The journal is read back leniently (a torn final line is discarded,
//! not fatal) because a SIGKILL can land mid-write of the temporary
//! file before the rename — the previous complete journal is what the
//! rename protects, and the lenient read guards against pre-rename
//! interruptions of older, non-atomic writers. Corrupt lines that are
//! *not* the torn tail are counted in [`MemoStore::corrupt_lines`] and
//! logged once, never silently dropped.
//!
//! All disk traffic moves through a [`ChaosIo`] backend ([`RealIo`] in
//! production), which is what lets the chaos harness inject storage
//! faults under the journal and crash-explore every write boundary.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use cwp_chaos::{read_jsonl_tolerant_io, write_atomic, ChaosIo, RealIo};
use cwp_obs::json::Json;
use cwp_obs::obs_warn;

use crate::protocol::ResultSummary;

/// File name of the journal inside the memo directory.
pub const MEMO_FILE: &str = "memo.jsonl";

/// A crash-safe `(trace_hash, config) -> result` store.
pub struct MemoStore {
    path: Option<PathBuf>,
    io: Arc<dyn ChaosIo>,
    entries: Mutex<Entries>,
    /// Serializes journal rewrites and holds the [`Entries::version`]
    /// the journal on disk was last written from. A writer snapshots
    /// the entries and renames its file while holding it, so no two
    /// writers share the `.tmp` sibling and the last rename always
    /// carries the newest snapshot.
    journal: Mutex<u64>,
    /// Journal lines skipped on reload because they failed to decode
    /// (excluding a torn final line, which is the expected crash tail).
    corrupt_lines: u64,
}

/// The in-memory entry map.
struct Entries {
    map: HashMap<(u64, String), ResultSummary>,
    /// Bumped by every insert, so a journal writer can tell whether a
    /// later snapshot already carried its entry to disk.
    version: u64,
}

impl MemoStore {
    /// An in-memory store that never touches disk.
    pub fn ephemeral() -> Self {
        MemoStore::with_entries(None, Arc::new(RealIo), HashMap::new(), 0)
    }

    fn with_entries(
        path: Option<PathBuf>,
        io: Arc<dyn ChaosIo>,
        map: HashMap<(u64, String), ResultSummary>,
        corrupt_lines: u64,
    ) -> Self {
        MemoStore {
            path,
            io,
            entries: Mutex::new(Entries { map, version: 0 }),
            journal: Mutex::new(0),
            corrupt_lines,
        }
    }

    /// Opens (or creates) the journal under `dir`, replaying any
    /// entries a previous incarnation of the server persisted.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or mid-file journal corruption.
    pub fn open(dir: &Path) -> io::Result<Self> {
        MemoStore::open_with_io(dir, Arc::new(RealIo))
    }

    /// As [`MemoStore::open`], but with every disk operation routed
    /// through `io` — the chaos-injection seam.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or mid-file journal corruption.
    pub fn open_with_io(dir: &Path, io: Arc<dyn ChaosIo>) -> io::Result<Self> {
        cwp_chaos::retry_interrupted(|| io.create_dir_all(dir))?;
        let path = dir.join(MEMO_FILE);
        let mut entries = HashMap::new();
        let mut corrupt_lines = 0u64;
        if io.exists(&path) {
            let doc = read_jsonl_tolerant_io(&io, &path)?;
            for line in &doc.lines {
                if let Some((hash, key, result)) = decode_entry(line) {
                    entries.insert((hash, key), result);
                } else {
                    corrupt_lines += 1;
                }
            }
            if corrupt_lines > 0 {
                obs_warn!(
                    "memo journal {}: skipped {corrupt_lines} corrupt line(s) on reload",
                    path.display()
                );
            }
        }
        Ok(MemoStore::with_entries(
            Some(path),
            io,
            entries,
            corrupt_lines,
        ))
    }

    /// Journal lines that failed to decode on reload (torn final line
    /// excluded). Exported as the `memo_corrupt_lines` counter.
    pub fn corrupt_lines(&self) -> u64 {
        self.corrupt_lines
    }

    /// Locks the entry map, recovering from poisoning: a writer that
    /// panicked between map insert and journal write leaves a coherent
    /// map (at worst an entry the journal doesn't have yet), and one
    /// panicked writer must not take down every later memo lookup.
    fn entries(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a memoized result.
    pub fn get(&self, trace_hash: u64, config_key: &str) -> Option<ResultSummary> {
        self.entries()
            .map
            .get(&(trace_hash, config_key.to_string()))
            .cloned()
    }

    /// Inserts a result and, when backed by disk, rewrites the journal
    /// atomically. Re-inserting an existing key is a no-op (no journal
    /// churn), which keeps duplicate in-flight computations cheap, and
    /// so is the rewrite when a concurrent writer's newer snapshot has
    /// already carried this entry to disk.
    ///
    /// # Errors
    ///
    /// Fails when the journal rewrite fails; the in-memory entry is
    /// kept, so a later insert retries the full journal.
    pub fn put(
        &self,
        trace_hash: u64,
        config_key: String,
        result: ResultSummary,
    ) -> io::Result<()> {
        let version = {
            let mut entries = self.entries();
            let key = (trace_hash, config_key);
            if entries.map.get(&key) == Some(&result) {
                return Ok(());
            }
            entries.map.insert(key, result);
            entries.version += 1;
            entries.version
        };
        self.write_journal(Some(version))
    }

    /// Rewrites the journal from the current in-memory entries — the
    /// drain-time flush that makes every acknowledged response durable
    /// even if its original `put` lost a race with an injected fault.
    ///
    /// # Errors
    ///
    /// Fails when the journal rewrite fails.
    pub fn flush(&self) -> io::Result<()> {
        self.write_journal(None)
    }

    /// Rewrites the journal atomically from a snapshot of the entries,
    /// one writer at a time. With `covers`, the rewrite is skipped when
    /// the journal already holds a snapshot at least that new. Each
    /// entry is rendered once and the journal is sorted by the rendered
    /// lines, so saves of the same contents are byte-identical; the
    /// entry map is locked only while it is copied.
    fn write_journal(&self, covers: Option<u64>) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut journaled = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        if covers.is_some_and(|version| *journaled >= version) {
            return Ok(());
        }
        let (version, snapshot) = {
            let entries = self.entries();
            let snapshot: Vec<((u64, String), ResultSummary)> = entries
                .map
                .iter()
                .map(|(key, result)| (key.clone(), result.clone()))
                .collect();
            (entries.version, snapshot)
        };
        let mut lines: Vec<String> = snapshot
            .iter()
            .map(|((hash, key), result)| {
                let mut line = String::new();
                encode_entry(*hash, key, result).write(&mut line);
                line
            })
            .collect();
        lines.sort_unstable();
        let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        write_atomic(&*self.io, path, text.as_bytes())?;
        *journaled = version;
        Ok(())
    }

    /// Number of memoized results.
    pub fn len(&self) -> usize {
        self.entries().map.len()
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn encode_entry(hash: u64, key: &str, result: &ResultSummary) -> Json {
    Json::obj([
        ("trace", Json::UInt(hash)),
        ("config_key", Json::Str(key.to_string())),
        ("result", result.to_json()),
    ])
}

fn decode_entry(json: &Json) -> Option<(u64, String, ResultSummary)> {
    let hash = json.get("trace")?.as_u64()?;
    let key = json.get("config_key")?.as_str()?.to_string();
    let result = ResultSummary::from_json(json.get("result")?).ok()?;
    Some((hash, key, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn sample(digest: u64) -> ResultSummary {
        ResultSummary {
            instructions: 100,
            reads: 40,
            writes: 20,
            read_hits: 30,
            read_misses: 10,
            write_hits: 15,
            write_misses: 5,
            fetches: 12,
            traffic_transactions: 27,
            traffic_bytes: 432,
            digest,
        }
    }

    #[test]
    fn a_reopened_store_remembers_what_was_put() {
        let dir = std::env::temp_dir().join(format!("cwp-memo-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = MemoStore::open(&dir).unwrap();
            store.put(1, "cfg-a".to_string(), sample(11)).unwrap();
            store.put(1, "cfg-b".to_string(), sample(22)).unwrap();
            store.put(2, "cfg-a".to_string(), sample(33)).unwrap();
        }
        let store = MemoStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(1, "cfg-a").unwrap().digest, 11);
        assert_eq!(store.get(1, "cfg-b").unwrap().digest, 22);
        assert_eq!(store.get(2, "cfg-a").unwrap().digest, 33);
        assert_eq!(store.get(3, "cfg-a"), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_final_journal_line_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("cwp-memo-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = MemoStore::open(&dir).unwrap();
            store.put(1, "cfg-a".to_string(), sample(11)).unwrap();
            store.put(1, "cfg-b".to_string(), sample(22)).unwrap();
        }
        // Simulate a crash mid-append: chop the journal mid-line.
        let path = dir.join(MEMO_FILE);
        let text = fs::read_to_string(&path).unwrap();
        let cut = text.len() - 20;
        fs::write(&path, &text[..cut]).unwrap();
        let store = MemoStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "only the intact line survives");
        assert_eq!(store.corrupt_lines(), 0, "a torn tail is not corruption");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_puts_do_not_rewrite_the_journal() {
        let dir = std::env::temp_dir().join(format!("cwp-memo-dup-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = MemoStore::open(&dir).unwrap();
        store.put(1, "cfg-a".to_string(), sample(11)).unwrap();
        let before = fs::metadata(dir.join(MEMO_FILE))
            .unwrap()
            .modified()
            .unwrap();
        store.put(1, "cfg-a".to_string(), sample(11)).unwrap();
        let after = fs::metadata(dir.join(MEMO_FILE))
            .unwrap()
            .modified()
            .unwrap();
        assert_eq!(before, after);
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_mid_journal_lines_are_counted_not_silently_skipped() {
        let dir = std::env::temp_dir().join(format!("cwp-memo-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = MemoStore::open(&dir).unwrap();
            store.put(1, "cfg-a".to_string(), sample(11)).unwrap();
            store.put(2, "cfg-b".to_string(), sample(22)).unwrap();
        }
        // Valid JSON lines that are not memo entries: decodable by the
        // tolerant reader, undecodable as entries.
        let path = dir.join(MEMO_FILE);
        let mut text = fs::read_to_string(&path).unwrap();
        text.insert_str(
            0,
            "{\"not\":\"a memo entry\"}\n{\"trace\":\"wrong type\"}\n",
        );
        fs::write(&path, text).unwrap();
        let store = MemoStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "intact entries still load");
        assert_eq!(store.corrupt_lines(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_poisoned_lock_does_not_take_down_later_lookups() {
        let store = std::sync::Arc::new(MemoStore::ephemeral());
        store.put(1, "cfg-a".to_string(), sample(11)).unwrap();
        // Poison the entries mutex by panicking while holding it.
        let poisoner = store.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.entries.lock().unwrap();
            panic!("poison the memo lock");
        })
        .join();
        assert!(store.entries.lock().is_err(), "the lock really is poisoned");
        // Every operation still works.
        assert_eq!(store.get(1, "cfg-a").unwrap().digest, 11);
        store.put(2, "cfg-b".to_string(), sample(22)).unwrap();
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        store.flush().unwrap();
    }

    #[test]
    fn concurrent_puts_all_reach_the_journal() {
        // Workers put concurrently; every put must succeed and the
        // journal left behind must hold every key.
        let dir = std::env::temp_dir().join(format!("cwp-memo-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Arc::new(MemoStore::open(&dir).unwrap());
        const THREADS: u64 = 4;
        const PUTS: u64 = 100;
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..PUTS {
                        store
                            .put(t, format!("cfg-{i}"), sample(t * PUTS + i))
                            .unwrap_or_else(|e| panic!("thread {t} put {i}: {e}"));
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        drop(store);
        let reloaded = MemoStore::open(&dir).unwrap();
        assert_eq!(reloaded.len() as u64, THREADS * PUTS);
        assert_eq!(reloaded.corrupt_lines(), 0);
        for t in 0..THREADS {
            for i in 0..PUTS {
                let got = reloaded.get(t, &format!("cfg-{i}")).unwrap();
                assert_eq!(got.digest, t * PUTS + i);
            }
        }
        assert!(!dir.join(format!("{MEMO_FILE}.tmp")).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_persists_in_memory_entries_identically_to_puts() {
        let dir = std::env::temp_dir().join(format!("cwp-memo-flush-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = MemoStore::open(&dir).unwrap();
        store.put(1, "cfg-a".to_string(), sample(11)).unwrap();
        store.put(2, "cfg-b".to_string(), sample(22)).unwrap();
        let journal = fs::read_to_string(dir.join(MEMO_FILE)).unwrap();
        store.flush().unwrap();
        let after = fs::read_to_string(dir.join(MEMO_FILE)).unwrap();
        assert_eq!(journal, after, "flush rewrites the same bytes");
        fs::remove_dir_all(&dir).unwrap();
    }
}
