//! Shared panic quarantine and JSONL journal files for supervised
//! execution.
//!
//! Two subsystems run untrusted-ish work on worker threads and must
//! survive it misbehaving: the experiment-sweep runner in `gramer-bench`
//! (one sweep point per task) and the `gramer-serve` daemon (one mining
//! job per task). Both journal their tasks through [`read_json_lines`]
//! and [`write_json_lines`], and both need the same mechanism — run a
//! closure under [`std::panic::catch_unwind`], capture the panic
//! *message and location* through a scoped hook instead of letting the
//! default hook spam stderr, and distinguish three outcomes: a typed
//! error, a genuine panic, and the unwind of a spent run budget from
//! [`crate::progress`].
//!
//! This module is that one implementation. The process-global panic hook
//! is installed once and chains to the previously installed hook for
//! every thread that is *not* inside a quarantined execution, so
//! unrelated panics keep their normal reporting.
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
use std::io;
use std::path::Path;
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

impl<T> Outcome<T> {
    /// Whether this is [`Outcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok(_))
    }
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

/// Reads the JSONL file at `path`, one document per `\n`-terminated
/// line, handing each parsed document to `each` in file order. Lines
/// that are not UTF-8 or not JSON (a torn write, a hand edit, disk
/// corruption) are skipped, never fatal, and a missing file reads as
/// empty. Returns the number of skipped lines; blank lines do not count.
///
/// # Errors
///
/// Only I/O errors other than [`io::ErrorKind::NotFound`].
pub fn read_json_lines(path: &Path, mut each: impl FnMut(JsonValue)) -> io::Result<usize> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut skipped = 0;
    for line in bytes.split(|&b| b == b'\n') {
        let text = std::str::from_utf8(line).map(str::trim);
        if text == Ok("") {
            continue;
        }
        match text.ok().and_then(|text| JsonValue::parse(text).ok()) {
            Some(value) => each(value),
            None => skipped += 1,
        }
    }
    Ok(skipped)
}

/// Replaces the file at `path` with one compact JSON document per line,
/// creating its parent directory. The write is atomic and streamed (see
/// [`gramer_graph::artifact::replace_file`]): a crash leaves the old
/// file or the new one, never a torn mix.
///
/// # Errors
///
/// Any I/O error; the previous file is then left untouched.
pub fn write_json_lines<V: Borrow<JsonValue>>(
    path: &Path,
    values: impl IntoIterator<Item = V>,
) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    gramer_graph::artifact::replace_file(path, |w| {
        values
            .into_iter()
            .try_for_each(|value| writeln!(w, "{}", value.borrow()))
    })
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
        let read = |path: &Path| {
            let mut values = Vec::new();
            read_json_lines(path, |v| values.push(v)).map(|skipped| (values, skipped))
        };
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(read(&path).expect("missing file"), (Vec::new(), 0));
        let docs = [JsonValue::from(1u64), JsonValue::from("two")];
        write_json_lines(&path, &docs).expect("write creates the parent");
        let mut bytes = std::fs::read(&path).expect("read back");
        assert_eq!(bytes, b"1\n\"two\"\n");
        // A non-UTF-8 line, a blank line and a torn trailing line.
        bytes.extend_from_slice(b"\xff\xfe\n\n{\"id\": 3, \"sta");
        std::fs::write(&path, &bytes).expect("corrupt");
        assert_eq!(read(&path).expect("corrupt file"), (docs.to_vec(), 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
