//! Crash-safe JSONL job journal.
//!
//! The daemon's only durable state is one JSONL file: each line is a
//! [`JobRecord`] snapshot for one job (JSON from
//! [`JobRecord::to_json_value`]), and when a job id appears on several
//! lines the last one is its current state. The crash contract:
//!
//! * **Appends are synced one line at a time.** Each state change is one
//!   line written by [`JobJournal::append`] with a single `write_all` and
//!   synced before the call returns, so a change the daemon has
//!   acknowledged is on disk.
//! * **A crash leaves at most one torn last line**, which replay skips:
//!   that job falls back to its previous line.
//! * **Snapshots are atomic.** [`JobJournal::write_snapshot`] rewrites
//!   the file with one line per record through
//!   [`gramer::supervise::write_json_lines`] — temp file, fsync, rename,
//!   directory fsync, the `.gra` artifact writer's discipline — so a
//!   crash leaves the old file or the new one, never a torn mix. The
//!   daemon snapshots at start (which also drops a torn tail before the
//!   first append), at drain, and to compact the appends, which keeps
//!   the file within about twice the live records.
//!
//! Replay is forgiving by design: a torn, non-UTF-8 or otherwise corrupt
//! line (a crash mid-append, or a hand edit) is skipped, not fatal, and
//! the last structurally valid line per job id wins. Terminal records
//! are restored as-is — completed results survive a restart
//! byte-for-byte — while `queued`/`running` records are returned for the
//! supervisor to re-enqueue: a job that was mid-flight when the daemon
//! died runs again rather than being silently lost.

use crate::job::{JobRecord, JobStatus};
use gramer::supervise::{read_json_lines, write_json_lines};
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A journal bound to one file path.
pub struct JobJournal {
    path: PathBuf,
}

/// The outcome of replaying a journal at startup.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every restored record, sorted by job id (terminal ones verbatim;
    /// `queued`/`running` ones reset to `queued` for re-execution).
    pub records: Vec<JobRecord>,
    /// Ids of the records that must be re-enqueued.
    pub requeued: Vec<u64>,
    /// Number of journal lines skipped as torn or corrupt.
    pub skipped_lines: usize,
}

impl JobJournal {
    /// Binds the journal to `path` (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> JobJournal {
        JobJournal { path: path.into() }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads the journal and reconstructs job state, tolerating torn
    /// trailing lines and duplicate ids (last valid line wins).
    ///
    /// A missing file is an empty journal, not an error.
    ///
    /// # Errors
    ///
    /// Only real I/O errors (permission, hardware); corruption is
    /// reported via [`Replay::skipped_lines`] instead.
    pub fn replay(&self) -> io::Result<Replay> {
        let mut latest: std::collections::BTreeMap<u64, JobRecord> =
            std::collections::BTreeMap::new();
        let mut not_records = 0;
        let unreadable = read_json_lines(&self.path, |value| match JobRecord::from_json(&value) {
            Some(rec) => {
                latest.insert(rec.id, rec);
            }
            None => not_records += 1,
        })?;
        let mut replay = Replay {
            skipped_lines: unreadable + not_records,
            ..Replay::default()
        };
        for (_, mut rec) in latest {
            if !rec.status.is_terminal() {
                rec.status = JobStatus::Queued;
                replay.requeued.push(rec.id);
            }
            replay.records.push(rec);
        }
        Ok(replay)
    }

    /// Appends `record` as one compact line and syncs it before
    /// returning.
    ///
    /// The file must exist already: an append never creates it, so a
    /// journal that vanished is not restarted with a single line (the
    /// caller writes a snapshot instead). A failed append may leave part
    /// of its line behind, which the next append would be glued onto;
    /// after any error the caller must write a snapshot before appending
    /// again.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] when the file does not exist, and any
    /// I/O error from the open, write or sync.
    pub fn append(&self, record: &JobRecord) -> io::Result<()> {
        let mut line = record.to_json_value().to_string();
        line.push('\n');
        let mut file = OpenOptions::new().append(true).open(&self.path)?;
        file.write_all(line.as_bytes())?;
        file.sync_data()
    }

    /// Atomically replaces the journal with one snapshot line per
    /// record (callers pass records in id order for a readable file).
    ///
    /// # Errors
    ///
    /// Any I/O error from the write, fsync, rename or directory sync; an
    /// error before the rename leaves the previous journal file
    /// untouched.
    pub fn write_snapshot<'a>(
        &self,
        records: impl IntoIterator<Item = &'a JobRecord>,
    ) -> io::Result<()> {
        write_json_lines(
            &self.path,
            records.into_iter().map(JobRecord::to_json_value),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobError;
    use gramer::json::JsonValue;
    use std::fs;

    fn spec() -> JsonValue {
        JsonValue::parse("{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-cf\"}").expect("json")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gramer-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn roundtrip_restores_terminal_records_verbatim() {
        let dir = temp_dir("roundtrip");
        let journal = JobJournal::new(dir.join("jobs.jsonl"));
        let mut done = JobRecord::new(1, spec(), JobStatus::Queued);
        done.status = JobStatus::Completed;
        done.attempts = 1;
        done.report_json = Some(JsonValue::parse("{\"cycles\": 123}").expect("json"));
        let mut dead = JobRecord::new(2, spec(), JobStatus::Queued);
        dead.status = JobStatus::Panicked;
        dead.error = Some(JobError::new("panic", "kaboom"));
        let inflight = JobRecord::new(3, spec(), JobStatus::Running);
        journal
            .write_snapshot([&done, &dead, &inflight])
            .expect("snapshot");

        let replay = journal.replay().expect("replay");
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.skipped_lines, 0);
        assert_eq!(replay.requeued, vec![3]);
        assert_eq!(replay.records[0].status, JobStatus::Completed);
        assert_eq!(
            replay.records[0]
                .report_json
                .as_ref()
                .map(JsonValue::to_string),
            Some("{\"cycles\":123}".to_string())
        );
        assert_eq!(replay.records[1].status, JobStatus::Panicked);
        assert_eq!(replay.records[2].status, JobStatus::Queued);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let dir = temp_dir("torn");
        let path = dir.join("jobs.jsonl");
        let journal = JobJournal::new(&path);
        let mut done = JobRecord::new(1, spec(), JobStatus::Queued);
        done.status = JobStatus::Completed;
        journal.write_snapshot([&done]).expect("snapshot");
        // Simulate an append crash: a line of non-UTF-8 garbage and half
        // a JSON object at the end.
        let mut bytes = fs::read(&path).expect("read");
        bytes.extend_from_slice(b"\xff\xfe\n{\"id\": 2, \"status\": \"que");
        fs::write(&path, bytes).expect("write");

        let replay = journal.replay().expect("replay");
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.skipped_lines, 2);
        assert_eq!(replay.records[0].id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_journal_and_is_not_created_by_append() {
        let dir = temp_dir("missing");
        let journal = JobJournal::new(dir.join("nope.jsonl"));
        let replay = journal.replay().expect("replay");
        assert!(replay.records.is_empty());
        let rec = JobRecord::new(1, spec(), JobStatus::Queued);
        let err = journal.append(&rec).expect_err("append to a missing file");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(!journal.path().exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_ids_resolve_to_the_last_valid_line() {
        let dir = temp_dir("dup");
        let path = dir.join("jobs.jsonl");
        let journal = JobJournal::new(&path);
        let queued = JobRecord::new(1, spec(), JobStatus::Queued);
        let mut done = queued.clone();
        done.status = JobStatus::Completed;
        journal.write_snapshot([&queued]).expect("snapshot");
        journal.append(&done).expect("append");
        let text = fs::read_to_string(&path).expect("read");
        assert_eq!(
            text,
            format!("{}\n{}\n", queued.to_json_value(), done.to_json_value()),
            "an append adds one compact line in the snapshot's format"
        );
        let replay = journal.replay().expect("replay");
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].status, JobStatus::Completed);
        assert!(replay.requeued.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
