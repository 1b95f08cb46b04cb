//! The daemon's job journal: [`JobRecord`] lines (JSON from
//! [`JobRecord::to_json_value`]) keyed by job id, over the shared
//! [`gramer::supervise::Journal`] and its crash contract. This shell
//! replays; the supervisor writes through the `Journal` its replay
//! leaves, which knows whether the file was clean.
//!
//! Terminal records are restored as-is — completed results survive a
//! restart byte-for-byte — while `queued`/`running` records are
//! returned for the supervisor to re-enqueue. The daemon writes no
//! `running` line (replay would turn it back into `queued`), but lines
//! from older daemons that did replay as before, and so do lines from
//! daemons that still retried jobs (a retry count, a spec retry
//! budget): the parsers ignore keys they do not know.

use crate::job::{JobRecord, JobStatus};
use gramer::supervise::Journal;
use std::io;
use std::path::{Path, PathBuf};

/// The job journal bound to one file path.
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
        self.open().map(|(replay, _)| replay)
    }

    /// Replays like [`JobJournal::replay`] and returns the [`Journal`]
    /// that continues the file: its first write appends to a clean file
    /// and snapshots anything else (see
    /// [`Journal::snapshot_if_due`]).
    ///
    /// # Errors
    ///
    /// As [`JobJournal::replay`].
    pub(crate) fn open(&self) -> io::Result<(Replay, Journal)> {
        let mut journal = Journal::new(&self.path);
        let (latest, skipped_lines) =
            journal.replay(|line| JobRecord::from_json(&line).map(|rec| (rec.id, rec)))?;
        let mut replay = Replay {
            skipped_lines,
            ..Replay::default()
        };
        for (_, mut rec) in latest {
            if !rec.status.is_terminal() {
                rec.status = JobStatus::Queued;
                replay.requeued.push(rec.id);
            }
            replay.records.push(rec);
        }
        Ok((replay, journal))
    }

    /// Atomically replaces the journal file with one line per record
    /// (callers pass records in id order for a readable file), as a
    /// snapshot through a fresh [`Journal`] handle.
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
        let records = records.into_iter().map(JobRecord::to_json_value);
        Journal::new(&self.path).snapshot(records)
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
        // The daemon writes through the shared journal: on a missing file
        // it writes every record, not one appended line.
        let records =
            [1, 2].map(|id| JobRecord::new(id, spec(), JobStatus::Queued).to_json_value());
        let mut writer = Journal::new(journal.path());
        writer.write(&records[1], records.iter()).expect("write");
        assert_eq!(writer.stats().appends, 0);
        assert_eq!(journal.replay().expect("replay").records.len(), 2);
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
        let mut writer = Journal::new(&path);
        writer.snapshot([queued.to_json_value()]).expect("snapshot");
        let line = done.to_json_value();
        writer.write(&line, [&line].into_iter()).expect("append");
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
