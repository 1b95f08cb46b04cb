//! Shared panic quarantine and crash-safe JSONL journal for supervised
//! execution.
//!
//! Two subsystems run untrusted-ish work on worker threads and must
//! survive it misbehaving: the experiment-sweep runner in `gramer-bench`
//! (one sweep point per task) and the `gramer-serve` daemon (one mining
//! job per task). Both record their tasks in one [`Journal`], and both
//! run them through [`run_quarantined`]: it runs a closure under
//! [`std::panic::catch_unwind`], captures the panic *message and
//! location* through a scoped hook instead of letting the default hook
//! spam stderr, and distinguishes three outcomes: a typed error, a
//! genuine panic, and the unwind of a spent run budget from
//! [`crate::progress`]. Neither retries a failed task: a task is a pure
//! function of its inputs, so the retry would fail again.
//!
//! The process-global panic hook is installed once and chains to the
//! previously installed hook for every thread that is *not* inside a
//! quarantined execution, so unrelated panics keep their normal
//! reporting.
//!
//! # Example
//!
//! ```
//! use gramer::supervise::{run_quarantined, Outcome};
//!
//! let ok = run_quarantined(|| Ok::<_, gramer::SimError>(21 * 2));
//! assert!(matches!(ok, Outcome::Ok(42)));
//!
//! let boom = run_quarantined(|| -> Result<(), gramer::SimError> {
//!     panic!("injected {}", 7);
//! });
//! match boom {
//!     Outcome::Panicked(msg) => assert!(msg.contains("injected 7")),
//!     other => panic!("expected a quarantined panic, got {other:?}"),
//! }
//! ```

use crate::error::SimError;
use crate::json::JsonValue;
use crate::progress;
use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Once;

thread_local! {
    /// Panic message captured by the quarantine hook for the current
    /// quarantined execution.
    static CAPTURED_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
    /// Whether the current thread is inside a quarantined execution.
    static QUARANTINE_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Installs the chained panic hook exactly once per process.
///
/// Inside a quarantined execution the hook records the panic message (and
/// location) into a thread-local slot instead of printing the default
/// report; everywhere else it defers to the previously installed hook.
fn install_quarantine_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quarantined = QUARANTINE_ACTIVE.with(Cell::get);
            if quarantined {
                let payload = info.payload();
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let full = match info.location() {
                    Some(loc) => format!("{msg} (at {}:{})", loc.file(), loc.line()),
                    None => msg,
                };
                CAPTURED_PANIC.with(|c| *c.borrow_mut() = Some(full));
            } else {
                prev(info);
            }
        }));
    });
}

/// Outcome of one quarantined execution.
#[derive(Debug)]
pub enum Outcome<T> {
    /// The closure returned successfully.
    Ok(T),
    /// The closure returned a typed error.
    Err(SimError),
    /// The closure panicked; the captured message includes the panic
    /// location when available.
    Panicked(String),
    /// The closure unwound with a [`progress::Cancelled`] payload: it
    /// spent the named budget of its installed token. Not a crash.
    Cancelled(progress::Cancelled),
}

/// Runs `f` with panics quarantined.
///
/// A typed error becomes [`Outcome::Err`]; a panic becomes
/// [`Outcome::Panicked`] carrying the captured message; a
/// [`progress::Cancelled`] unwind (a spent run budget) becomes
/// [`Outcome::Cancelled`] with the same reason. The quarantine is
/// re-entrant safe in the sense that the thread-local capture slot is
/// cleared on entry, so a stale message from an earlier execution can
/// never be attributed to a later one.
pub fn run_quarantined<T>(f: impl FnOnce() -> Result<T, SimError>) -> Outcome<T> {
    install_quarantine_hook();
    CAPTURED_PANIC.with(|c| *c.borrow_mut() = None);
    QUARANTINE_ACTIVE.with(|q| q.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    QUARANTINE_ACTIVE.with(|q| q.set(false));
    match result {
        Ok(Ok(value)) => Outcome::Ok(value),
        Ok(Err(e)) => Outcome::Err(e),
        Err(payload) => match payload.downcast_ref::<progress::Cancelled>() {
            Some(&spent) => Outcome::Cancelled(spent),
            None => {
                let message = CAPTURED_PANIC
                    .with(|c| c.borrow_mut().take())
                    .unwrap_or_else(|| "panic with no captured message".to_string());
                Outcome::Panicked(message)
            }
        },
    }
}

/// Fewest appends between two compacting snapshots. A snapshot is due
/// once the lines beyond one per entry (appended since the last
/// snapshot, or superseded ones a clean replay found) reach
/// `max(live entries, this)`, so its O(entries) cost is spread over at
/// least as many O(1) appends, and the file holds at most
/// `2 × live + 64` lines.
pub const COMPACT_MIN_APPENDS: usize = 64;

/// Lifetime write counts of one [`Journal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Lines appended.
    pub appends: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Failed appends and snapshots.
    pub errors: u64,
}

/// A crash-safe JSONL journal of keyed entries: one entry per line, and
/// the last valid line per key is that key's current state (the sweep
/// runner keys points by their string id, the daemon jobs by number).
///
/// The crash contract:
///
/// * **Appends are synced one line at a time.** [`Journal::write`]
///   appends one compact line and syncs it before it returns. It never
///   creates the file: a journal that vanished is rewritten whole.
/// * **A crash leaves at most one torn last line**, which
///   [`Journal::replay`] skips: that key falls back to its previous line.
/// * **A clean file is appended to as it is.** [`Journal::replay`]
///   records whether the file is clean: it exists, ends with `\n`, and
///   every line is a valid entry. Callers then open it with
///   [`Journal::snapshot_if_due`], which leaves a clean file untouched,
///   so a restart over a clean journal rewrites nothing. Its superseded
///   lines (valid lines − entries) count as appends toward compaction,
///   so the file keeps the bound below.
/// * **Snapshots are atomic** (temp file, fsync, rename, directory
///   fsync; see [`Journal::snapshot`]). Callers take one at open unless
///   the replay found the file clean, which drops a torn tail or a last
///   line without its `\n` before the first append, and at drain.
///   [`Journal::write`] takes one instead of appending after a failed
///   write, which may have left a partial line an append would be glued
///   onto, and once the lines beyond one per entry reach
///   `max(live entries, COMPACT_MIN_APPENDS)`.
///
/// The journal keeps no copy of the entries: the caller hands it the
/// live set, which is only walked when a snapshot is due.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// Lines beyond one per entry: appended since the last snapshot, or
    /// superseded ones the last replay of a clean file found.
    appends: usize,
    /// The next write must be a snapshot: neither a snapshot nor a
    /// replay of a clean file has happened through this handle, or the
    /// last write failed.
    snapshot_due: bool,
    stats: JournalStats,
}

impl Journal {
    /// Binds the journal to `path` (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Journal {
        Journal {
            path: path.into(),
            appends: 0,
            snapshot_due: true,
            stats: JournalStats::default(),
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lifetime write counts.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Reads the file and keeps the last valid entry per key. `entry`
    /// turns one parsed line into its key and entry, or `None` when the
    /// line is not a valid entry, which then overrides nothing. Returns
    /// the entries in key order and the number of lines skipped as torn,
    /// not UTF-8, not JSON or invalid; blank lines do not count. A
    /// missing file replays as empty.
    ///
    /// The handle records whether the file is clean (it ends with `\n`
    /// and every line, blank ones included, is a valid entry): the next
    /// write appends to a clean file and snapshots anything else (see
    /// [`Journal::snapshot_if_due`]).
    ///
    /// # Errors
    ///
    /// Only I/O errors other than [`io::ErrorKind::NotFound`].
    pub fn replay<K: Ord, T>(
        &mut self,
        mut entry: impl FnMut(JsonValue) -> Option<(K, T)>,
    ) -> io::Result<(BTreeMap<K, T>, usize)> {
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut entries = BTreeMap::new();
        let (mut skipped, mut valid, mut pieces) = (0, 0, 0);
        for line in bytes.split(|&b| b == b'\n') {
            pieces += 1;
            let text = std::str::from_utf8(line).map(str::trim);
            if text == Ok("") {
                continue;
            }
            let parsed = text.ok().and_then(|text| JsonValue::parse(text).ok());
            match parsed.and_then(&mut entry) {
                Some((key, value)) => {
                    valid += 1;
                    entries.insert(key, value);
                }
                None => skipped += 1,
            }
        }
        // A file ending in `\n` splits into its lines plus an empty tail.
        let clean = bytes.last() == Some(&b'\n') && valid == pieces - 1;
        self.snapshot_due = !clean;
        self.appends = if clean { valid - entries.len() } else { 0 };
        Ok((entries, skipped))
    }

    /// Opens the journal for appends after [`Journal::replay`]: writes a
    /// snapshot of `live` if one is due, and leaves a clean file as it
    /// is. A snapshot is due unless the replay found the file clean (or
    /// a snapshot through this handle has since succeeded).
    ///
    /// # Errors
    ///
    /// Any I/O error of the snapshot; the next write is then a snapshot.
    pub fn snapshot_if_due<E: Borrow<JsonValue>>(
        &mut self,
        live: impl IntoIterator<Item = E>,
    ) -> io::Result<()> {
        if self.snapshot_due {
            self.snapshot(live)
        } else {
            Ok(())
        }
    }

    /// Journals one changed `entry`: appends it as one synced line, or
    /// writes a snapshot of `live` when one is due (see the crash
    /// contract). `live` is every current entry, `entry` included; only
    /// its length is read unless a snapshot is due.
    ///
    /// # Errors
    ///
    /// Any I/O error of the append or the snapshot; the next write is
    /// then a snapshot.
    pub fn write<E: Borrow<JsonValue>>(
        &mut self,
        entry: &JsonValue,
        live: impl ExactSizeIterator<Item = E>,
    ) -> io::Result<()> {
        let compact = self.appends >= live.len().max(COMPACT_MIN_APPENDS);
        if !self.snapshot_due && !compact {
            match self.append(entry) {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(self.failed(e)),
            }
        }
        self.snapshot(live)
    }

    /// Atomically replaces the file with one line per entry of `live`,
    /// creating its parent directory. The write is streamed through
    /// [`gramer_graph::artifact::replace_file`] (temp file, fsync,
    /// rename, directory fsync): a crash leaves the old file or the new
    /// one, never a torn mix.
    ///
    /// # Errors
    ///
    /// Any I/O error; one before the rename leaves the previous file
    /// untouched.
    pub fn snapshot<E: Borrow<JsonValue>>(
        &mut self,
        live: impl IntoIterator<Item = E>,
    ) -> io::Result<()> {
        let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        let written = dir.map_or(Ok(()), std::fs::create_dir_all).and_then(|()| {
            gramer_graph::artifact::replace_file(&self.path, |w| {
                live.into_iter()
                    .try_for_each(|entry| writeln!(w, "{}", entry.borrow()))
            })
        });
        match written {
            Ok(()) => {
                self.appends = 0;
                self.snapshot_due = false;
                self.stats.snapshots += 1;
                Ok(())
            }
            Err(e) => Err(self.failed(e)),
        }
    }

    /// Appends one line to the existing file and syncs it.
    fn append(&mut self, entry: &JsonValue) -> io::Result<()> {
        let mut line = entry.to_string();
        line.push('\n');
        let mut file = OpenOptions::new().append(true).open(&self.path)?;
        file.write_all(line.as_bytes())?;
        file.sync_data()?;
        self.appends += 1;
        self.stats.appends += 1;
        Ok(())
    }

    fn failed(&mut self, e: io::Error) -> io::Error {
        self.snapshot_due = true;
        self.stats.errors += 1;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::{self, ProgressToken};

    #[test]
    fn ok_and_typed_error_pass_through() {
        assert!(matches!(
            run_quarantined(|| Ok::<_, SimError>(5u32)),
            Outcome::Ok(5)
        ));
        let e = run_quarantined(|| -> Result<(), SimError> {
            Err(SimError::App("bad app".to_string()))
        });
        match e {
            Outcome::Err(SimError::App(msg)) => assert_eq!(msg, "bad app"),
            other => panic!("expected typed error, got {other:?}"),
        }
    }

    #[test]
    fn panic_message_and_location_are_captured() {
        let out = run_quarantined(|| -> Result<(), SimError> {
            panic!("kaboom {}", 13);
        });
        match out {
            Outcome::Panicked(msg) => {
                assert!(msg.contains("kaboom 13"), "message lost: {msg}");
                assert!(msg.contains("supervise.rs"), "location lost: {msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_unwind_is_not_a_panic() {
        let tok = ProgressToken::with_budget(None, Some(0));
        let out = run_quarantined(|| -> Result<(), SimError> {
            let _guard = progress::install(tok);
            progress::tick();
            unreachable!("tick past a spent budget must unwind");
        });
        assert!(matches!(
            out,
            Outcome::Cancelled(progress::Cancelled::Ticks)
        ));
    }

    #[test]
    fn stale_capture_is_not_attributed_to_next_execution() {
        let first = run_quarantined(|| -> Result<(), SimError> { panic!("first") });
        assert!(matches!(first, Outcome::Panicked(_)));
        // A panic whose payload is not a string still reports *something*,
        // and never the previous execution's message.
        let second = run_quarantined(|| -> Result<(), SimError> {
            std::panic::panic_any(42u64);
        });
        match second {
            Outcome::Panicked(msg) => {
                assert!(!msg.contains("first"), "stale message leaked: {msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn json_lines_roundtrip_and_skip_unreadable_lines() {
        let dir = std::env::temp_dir().join(format!("gramer-jsonl-{}", std::process::id()));
        let path = dir.join("nested").join("log.jsonl");
        // Keyed by line number, replay hands back every readable line.
        let read = |path: &Path| {
            let mut line = 0;
            let keyed = Journal::new(path).replay(|v| {
                line += 1;
                Some((line, v))
            });
            keyed.map(|(values, skipped)| (values.into_values().collect::<Vec<_>>(), skipped))
        };
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(read(&path).expect("missing file"), (Vec::new(), 0));
        let docs = [JsonValue::from(1u64), JsonValue::from("two")];
        Journal::new(&path)
            .snapshot(&docs)
            .expect("a snapshot creates the parent");
        let mut bytes = std::fs::read(&path).expect("read back");
        assert_eq!(bytes, b"1\n\"two\"\n");
        // A non-UTF-8 line, a blank line and a torn trailing line.
        bytes.extend_from_slice(b"\xff\xfe\n\n{\"id\": 3, \"sta");
        std::fs::write(&path, &bytes).expect("corrupt");
        assert_eq!(read(&path).expect("corrupt file"), (docs.to_vec(), 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn temp_journal(tag: &str) -> (PathBuf, Journal) {
        let dir = std::env::temp_dir().join(format!("gramer-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journal = Journal::new(dir.join("log.jsonl"));
        (dir, journal)
    }

    fn entry(id: u64, state: &str) -> JsonValue {
        JsonValue::object([
            ("id", JsonValue::from(id)),
            ("state", JsonValue::from(state)),
        ])
    }

    fn numeric(line: JsonValue) -> Option<(u64, String)> {
        let id = line.get("id")?.as_u64()?;
        Some((id, line.get("state")?.as_str()?.to_string()))
    }

    fn line_count(journal: &Journal) -> usize {
        std::fs::read_to_string(journal.path())
            .expect("journal")
            .lines()
            .count()
    }

    #[test]
    fn appends_compact_within_twice_the_live_entries_plus_the_minimum() {
        let (dir, mut journal) = temp_journal("compact");
        let mut live: BTreeMap<u64, JsonValue> = BTreeMap::new();
        journal.snapshot(live.values()).expect("open");
        let mut max_lines = 0;
        // 150 entries, each written as queued, running and done: most
        // writes change an entry the file already holds.
        for id in 0..150 {
            for state in ["queued", "running", "done"] {
                let changed = entry(id, state);
                live.insert(id, changed.clone());
                journal.write(&changed, live.values()).expect("write");
                max_lines = max_lines.max(line_count(&journal));
                assert!(
                    line_count(&journal) <= 2 * live.len() + COMPACT_MIN_APPENDS,
                    "{} lines for {} live entries",
                    line_count(&journal),
                    live.len()
                );
            }
        }
        let stats = journal.stats();
        assert_eq!(stats.appends + stats.snapshots, 1 + 450);
        assert!(
            stats.snapshots <= 1 + stats.appends / COMPACT_MIN_APPENDS as u64,
            "{stats:?}"
        );
        assert!(max_lines > live.len(), "compaction ran on every write");
        let (replayed, skipped) = journal.replay(numeric).expect("replay");
        assert_eq!(skipped, 0);
        assert_eq!(replayed.len(), 150);
        assert!(replayed.values().all(|state| state == "done"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_makes_the_next_write_a_snapshot() {
        let (dir, mut journal) = temp_journal("failed");
        let first = entry(1, "queued");
        journal.snapshot([&first]).expect("open");
        // A directory in the file's place fails the append.
        std::fs::remove_file(journal.path()).expect("remove");
        std::fs::create_dir(journal.path()).expect("squat");
        let second = entry(2, "queued");
        assert!(journal
            .write(&second, [&first, &second].into_iter())
            .is_err());
        assert_eq!(journal.stats().errors, 1);
        // Free the path, leaving the partial line a failed append might
        // leave: the next write must replace it, not append to it.
        std::fs::remove_dir(journal.path()).expect("free");
        std::fs::write(journal.path(), b"{\"id\": 9").expect("partial line");
        let third = entry(3, "queued");
        journal
            .write(&third, [&first, &second, &third].into_iter())
            .expect("write");
        assert_eq!(journal.stats().snapshots, 2);
        let (replayed, skipped) = journal.replay(numeric).expect("replay");
        assert_eq!(skipped, 0);
        assert_eq!(replayed.keys().copied().collect::<Vec<_>>(), [1, 2, 3]);
        // The snapshot cleared the debt: the next write appends.
        journal
            .write(&entry(3, "done"), [&first, &second, &third].into_iter())
            .expect("append");
        assert_eq!(journal.stats().appends, 1);
        assert_eq!(line_count(&journal), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_vanished_file_is_rewritten_whole_not_restarted_by_an_append() {
        let (dir, mut journal) = temp_journal("vanished");
        let (first, second) = (entry(1, "done"), entry(2, "queued"));
        journal.snapshot([&first]).expect("open");
        std::fs::remove_file(journal.path()).expect("remove");
        journal
            .write(&second, [&first, &second].into_iter())
            .expect("write");
        assert_eq!(
            journal.stats(),
            JournalStats {
                appends: 0,
                snapshots: 2,
                errors: 0
            }
        );
        let (replayed, _) = journal.replay(numeric).expect("replay");
        assert_eq!(replayed.keys().copied().collect::<Vec<_>>(), [1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_clean_file_is_appended_to_as_it_is() {
        let (dir, mut journal) = temp_journal("clean");
        let (queued, done) = (entry(1, "queued"), entry(1, "done"));
        journal.snapshot([&queued]).expect("seed");
        journal.write(&done, [&done].into_iter()).expect("append");
        let read = |path: &Path| std::fs::read_to_string(path).expect("read");
        let before = read(journal.path());

        let mut reopened = Journal::new(journal.path());
        let (live, skipped) = reopened.replay(numeric).expect("replay");
        assert_eq!((live.len(), skipped), (1, 0));
        let live = [done.clone()];
        reopened.snapshot_if_due(&live).expect("open");
        assert_eq!(reopened.stats(), JournalStats::default());
        assert_eq!(read(journal.path()), before);
        // The first write appends one line to the untouched bytes.
        let next = entry(2, "queued");
        reopened
            .write(&next, [&done, &next].into_iter())
            .expect("append");
        assert_eq!(read(journal.path()), format!("{before}{next}\n"));
        assert_eq!(reopened.stats().appends, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn anything_but_a_clean_file_is_rewritten_at_open() {
        let (dir, journal) = temp_journal("unclean");
        let good = "{\"id\": 1, \"state\": \"done\"}\n";
        let cases: [(&str, &[u8]); 6] = [
            ("missing", b""),
            ("empty", b""),
            ("no final newline", b"{\"id\": 2, \"state\": \"done\"}"),
            ("torn", b"{\"id\": 2, \"sta"),
            ("invalid line", b"{\"id\": 2}\n"),
            ("blank line", b"\n"),
        ];
        for (case, tail) in cases {
            let _ = std::fs::remove_file(journal.path());
            if case != "missing" {
                let mut bytes = if case == "empty" {
                    Vec::new()
                } else {
                    good.as_bytes().to_vec()
                };
                bytes.extend_from_slice(tail);
                std::fs::write(journal.path(), bytes).expect("seed");
            }
            let mut reopened = Journal::new(journal.path());
            let (live, _) = reopened.replay(numeric).expect("replay");
            let live: Vec<JsonValue> = live
                .into_iter()
                .map(|(id, state)| entry(id, &state))
                .collect();
            reopened.snapshot_if_due(&live).expect("open");
            assert_eq!(reopened.stats().snapshots, 1, "{case}");
            let text = std::fs::read_to_string(journal.path()).expect("read");
            let want = if matches!(case, "missing" | "empty") {
                ""
            } else if case == "no final newline" {
                "{\"id\":1,\"state\":\"done\"}\n{\"id\":2,\"state\":\"done\"}\n"
            } else {
                "{\"id\":1,\"state\":\"done\"}\n"
            };
            assert_eq!(text, want, "{case}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn superseded_lines_of_a_clean_file_count_toward_compaction() {
        for (superseded, compacts) in [(10, false), (COMPACT_MIN_APPENDS, true)] {
            let (dir, mut journal) = temp_journal("superseded");
            let one = entry(1, "done");
            journal.snapshot([&one]).expect("seed");
            for _ in 0..superseded {
                journal.write(&one, [&one].into_iter()).expect("append");
            }
            let mut reopened = Journal::new(journal.path());
            reopened.replay(numeric).expect("replay");
            reopened.snapshot_if_due([&one]).expect("open");
            let two = entry(2, "queued");
            reopened
                .write(&two, [&one, &two].into_iter())
                .expect("write");
            assert_eq!(reopened.stats().snapshots, u64::from(compacts));
            let lines = if compacts { 2 } else { superseded + 2 };
            assert_eq!(line_count(&reopened), lines);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn replay_keeps_the_last_valid_line_per_numeric_or_string_id() {
        let (dir, mut journal) = temp_journal("replay");
        std::fs::write(
            journal.path(),
            concat!(
                "{\"id\": 1, \"state\": \"queued\"}\n",
                "{\"id\": \"d/p/c\", \"state\": \"failed\"}\n",
                "{\"id\": 1, \"state\": \"done\"}\n",
                "{\"id\": \"d/p/c\", \"state\": \"ok\"}\n",
                // Valid JSON, invalid entries: no state, a wrong id type.
                "{\"id\": 1}\n",
                "{\"id\": \"1\", \"state\": \"lost\"}\n",
                "{\"id\": [\"d/p/c\"], \"state\": \"lost\"}\n",
                "{\"id\": \"d/p/c\"}\n",
                "{\"id\": 2, \"sta",
            ),
        )
        .expect("seed");
        let (numeric_ids, skipped) = journal.replay(numeric).expect("replay");
        assert_eq!(
            numeric_ids.into_iter().collect::<Vec<_>>(),
            [(1, "done".to_string())]
        );
        // Two string-id lines, four invalid ones and the torn tail.
        assert_eq!(skipped, 2 + 4 + 1);
        let (string_ids, skipped) = journal
            .replay(|line| {
                let id = line.get("id")?.as_str()?.to_string();
                Some((id, line.get("state")?.as_str()?.to_string()))
            })
            .expect("replay");
        assert_eq!(
            string_ids.into_iter().collect::<Vec<_>>(),
            [
                ("1".to_string(), "lost".to_string()),
                ("d/p/c".to_string(), "ok".to_string())
            ]
        );
        // Three numeric-id lines, two other invalid ones and the torn tail.
        assert_eq!(skipped, 3 + 2 + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
