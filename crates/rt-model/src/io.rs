//! Plain-text task-set format: load and save workloads.
//!
//! One task per line, whitespace-separated columns:
//!
//! ```text
//! # id  cycles  period  deadline  penalty     ("-" = implicit deadline)
//! 0     30.0    100     -         2.5
//! 1     45.0    100     60        5.0
//! ```
//!
//! Lines starting with `#` (and blank lines) are ignored. This is the
//! interchange format of the `dvs-reject` command-line tool.
//!
//! The module also defines the **event-trace format** consumed by the
//! online admission subsystem (`dvs-admit`): a timestamped stream of
//! arrivals, departures, and re-optimization ticks, one event per line:
//!
//! ```text
//! # at     kind    id  cycles  period  deadline  penalty  [domain]
//! 0.0      arrive  0   30.0    100     -         2.5
//! 2.0      arrive  1   45.0    100     60        5.0      2
//! 5.5      depart  0
//! 10       tick
//! ```
//!
//! The optional trailing `domain` column on `arrive` lines pins the task
//! to one power domain ([`Task::with_domain`]); it is omitted (not `-`)
//! for unpinned tasks so pre-existing traces remain byte-identical.
//!
//! See [`EventRecord`], [`parse_event_trace`], and [`load_event_trace`].
//!
//! # Examples
//!
//! ```
//! use rt_model::io::{format_task_set, parse_task_set};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = "0 30.0 100 - 2.5\n1 45.0 100 60 5.0\n";
//! let tasks = parse_task_set(text)?;
//! assert_eq!(tasks.len(), 2);
//! assert_eq!(tasks[1].deadline(), 60);
//! let round_trip = parse_task_set(&format_task_set(&tasks))?;
//! assert_eq!(tasks, round_trip);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::{ModelError, Task, TaskId, TaskSet};

/// Error raised when parsing the plain-text task-set format.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseTaskSetError {
    /// A line did not have exactly 5 columns.
    BadColumnCount {
        /// 1-based line number.
        line: usize,
        /// Number of columns found.
        found: usize,
    },
    /// A field failed to parse as a number.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: &'static str,
    },
    /// The parsed values violated a model invariant.
    Model {
        /// 1-based line number.
        line: usize,
        /// The underlying violation.
        source: ModelError,
    },
}

impl fmt::Display for ParseTaskSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTaskSetError::BadColumnCount { line, found } => write!(
                f,
                "line {line}: expected 5 columns (id cycles period deadline penalty), found {found}"
            ),
            ParseTaskSetError::BadField { line, column } => {
                write!(f, "line {line}: cannot parse column {column}")
            }
            ParseTaskSetError::Model { line, source } => {
                write!(f, "line {line}: {source}")
            }
        }
    }
}

impl Error for ParseTaskSetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTaskSetError::Model { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Error raised when loading or saving a task-set file: either the
/// filesystem failed or the contents did not parse. Both variants carry the
/// offending path so callers can report it without extra bookkeeping.
#[derive(Debug)]
#[non_exhaustive]
pub enum LoadTaskSetError {
    /// Reading or writing the file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file contents are not a valid task set.
    Parse {
        /// The file involved.
        path: PathBuf,
        /// The underlying parse error (line/column detail).
        source: ParseTaskSetError,
    },
}

impl fmt::Display for LoadTaskSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadTaskSetError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            LoadTaskSetError::Parse { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl Error for LoadTaskSetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadTaskSetError::Io { source, .. } => Some(source),
            LoadTaskSetError::Parse { source, .. } => Some(source),
        }
    }
}

/// Reads and parses a task-set file in the plain-text format described in
/// the [module documentation](self).
///
/// # Errors
///
/// [`LoadTaskSetError`] naming the path: [`LoadTaskSetError::Io`] when the
/// file cannot be read, [`LoadTaskSetError::Parse`] (with line/column
/// detail) when its contents are malformed.
pub fn load_task_set<P: AsRef<Path>>(path: P) -> Result<TaskSet, LoadTaskSetError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|source| LoadTaskSetError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    parse_task_set(&text).map_err(|source| LoadTaskSetError::Parse {
        path: path.to_path_buf(),
        source,
    })
}

/// Writes a task set to `path` in the plain-text format; the file
/// round-trips through [`load_task_set`].
///
/// # Errors
///
/// [`LoadTaskSetError::Io`] when the file cannot be written.
pub fn save_task_set<P: AsRef<Path>>(path: P, tasks: &TaskSet) -> Result<(), LoadTaskSetError> {
    let path = path.as_ref();
    std::fs::write(path, format_task_set(tasks)).map_err(|source| LoadTaskSetError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Parses the plain-text task-set format described in the
/// [module documentation](self).
///
/// # Errors
///
/// [`ParseTaskSetError`] pinpointing the offending line and column.
pub fn parse_task_set(text: &str) -> Result<TaskSet, ParseTaskSetError> {
    let mut tasks = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() != 5 {
            return Err(ParseTaskSetError::BadColumnCount {
                line: line_no,
                found: cols.len(),
            });
        }
        let id: usize = cols[0].parse().map_err(|_| ParseTaskSetError::BadField {
            line: line_no,
            column: "id",
        })?;
        let cycles: f64 = cols[1].parse().map_err(|_| ParseTaskSetError::BadField {
            line: line_no,
            column: "cycles",
        })?;
        let period: u64 = cols[2].parse().map_err(|_| ParseTaskSetError::BadField {
            line: line_no,
            column: "period",
        })?;
        let penalty: f64 = cols[4].parse().map_err(|_| ParseTaskSetError::BadField {
            line: line_no,
            column: "penalty",
        })?;
        if !penalty.is_finite() || penalty < 0.0 {
            return Err(ParseTaskSetError::Model {
                line: line_no,
                source: ModelError::InvalidPenalty { task: id, penalty },
            });
        }
        let mut task = Task::new(id, cycles, period)
            .map_err(|source| ParseTaskSetError::Model {
                line: line_no,
                source,
            })?
            .with_penalty(penalty);
        if cols[3] != "-" {
            let deadline: u64 = cols[3].parse().map_err(|_| ParseTaskSetError::BadField {
                line: line_no,
                column: "deadline",
            })?;
            task = task
                .with_deadline(deadline)
                .map_err(|source| ParseTaskSetError::Model {
                    line: line_no,
                    source,
                })?;
        }
        tasks.push(task);
    }
    TaskSet::try_from_tasks(tasks).map_err(|source| ParseTaskSetError::Model { line: 0, source })
}

/// Formats a task set in the plain-text format (with a header comment);
/// the output round-trips through [`parse_task_set`].
#[must_use]
pub fn format_task_set(tasks: &TaskSet) -> String {
    let mut out = String::from("# id cycles period deadline penalty\n");
    for t in tasks.iter() {
        let deadline = if t.is_implicit_deadline() {
            "-".to_string()
        } else {
            t.deadline().to_string()
        };
        out.push_str(&format!(
            "{} {} {} {} {}\n",
            t.id().index(),
            t.wcec(),
            t.period(),
            deadline,
            t.penalty()
        ));
    }
    out
}

/// One event of a timestamped arrival stream.
///
/// The variants mirror what an online admission controller observes: a
/// task arriving (with its full parameters — the controller has no prior
/// knowledge of it), a task leaving the system (whether it was served or
/// not), and a periodic re-optimization tick.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A task enters the system and requests admission.
    Arrive(Task),
    /// The task with this identifier leaves the system.
    Depart(TaskId),
    /// A periodic housekeeping tick (re-optimization opportunity).
    Tick,
}

impl EventKind {
    /// Short stable label (`"arrive"`, `"depart"`, `"tick"`), the keyword
    /// used by the trace format.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Arrive(_) => "arrive",
            EventKind::Depart(_) => "depart",
            EventKind::Tick => "tick",
        }
    }
}

/// A timestamped [`EventKind`]: one record of an event trace.
///
/// Timestamps are in ticks (same unit as task periods) and must be finite
/// and non-negative; the parser enforces that, while monotonicity is the
/// *consumer's* contract (the admission engine rejects time regressions).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event timestamp in ticks.
    pub at: f64,
    /// What happened.
    pub kind: EventKind,
}

impl EventRecord {
    /// Creates a record.
    #[must_use]
    pub fn new(at: f64, kind: EventKind) -> Self {
        EventRecord { at, kind }
    }
}

/// Error raised when parsing the event-trace format.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseEventTraceError {
    /// A line had the wrong number of columns for its event kind.
    BadColumnCount {
        /// 1-based line number.
        line: usize,
        /// Number of columns found.
        found: usize,
        /// Number of columns the event kind requires.
        expected: usize,
    },
    /// The event-kind keyword was not `arrive`, `depart`, or `tick`.
    BadKind {
        /// 1-based line number.
        line: usize,
        /// The offending keyword.
        kind: String,
    },
    /// A field failed to parse or violated a range constraint.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: &'static str,
    },
    /// The parsed task violated a model invariant.
    Model {
        /// 1-based line number.
        line: usize,
        /// The underlying violation.
        source: ModelError,
    },
}

impl fmt::Display for ParseEventTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseEventTraceError::BadColumnCount {
                line,
                found,
                expected,
            } => write!(f, "line {line}: expected {expected} columns, found {found}"),
            ParseEventTraceError::BadKind { line, kind } => {
                write!(
                    f,
                    "line {line}: unknown event kind {kind:?} (want arrive|depart|tick)"
                )
            }
            ParseEventTraceError::BadField { line, column } => {
                write!(f, "line {line}: cannot parse column {column}")
            }
            ParseEventTraceError::Model { line, source } => {
                write!(f, "line {line}: {source}")
            }
        }
    }
}

impl Error for ParseEventTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseEventTraceError::Model { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Error raised when loading or saving an event-trace file, mirroring
/// [`LoadTaskSetError`]: filesystem failure or malformed contents, both
/// carrying the offending path.
#[derive(Debug)]
#[non_exhaustive]
pub enum LoadEventTraceError {
    /// Reading or writing the file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file contents are not a valid event trace.
    Parse {
        /// The file involved.
        path: PathBuf,
        /// The underlying parse error (line/column detail).
        source: ParseEventTraceError,
    },
}

impl fmt::Display for LoadEventTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadEventTraceError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            LoadEventTraceError::Parse { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl Error for LoadEventTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadEventTraceError::Io { source, .. } => Some(source),
            LoadEventTraceError::Parse { source, .. } => Some(source),
        }
    }
}

/// Reads and parses an event-trace file in the format described in the
/// [module documentation](self).
///
/// # Errors
///
/// [`LoadEventTraceError`] naming the path: [`LoadEventTraceError::Io`]
/// when the file cannot be read, [`LoadEventTraceError::Parse`] (with
/// line/column detail) when its contents are malformed.
pub fn load_event_trace<P: AsRef<Path>>(path: P) -> Result<Vec<EventRecord>, LoadEventTraceError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|source| LoadEventTraceError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    parse_event_trace(&text).map_err(|source| LoadEventTraceError::Parse {
        path: path.to_path_buf(),
        source,
    })
}

/// Writes an event trace to `path`; the file round-trips through
/// [`load_event_trace`].
///
/// # Errors
///
/// [`LoadEventTraceError::Io`] when the file cannot be written.
pub fn save_event_trace<P: AsRef<Path>>(
    path: P,
    events: &[EventRecord],
) -> Result<(), LoadEventTraceError> {
    let path = path.as_ref();
    std::fs::write(path, format_event_trace(events)).map_err(|source| LoadEventTraceError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Parses the event-trace format described in the
/// [module documentation](self).
///
/// # Errors
///
/// [`ParseEventTraceError`] pinpointing the offending line and column.
pub fn parse_event_trace(text: &str) -> Result<Vec<EventRecord>, ParseEventTraceError> {
    let mut events = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        events.push(parse_event_cols(line, trimmed)?);
    }
    Ok(events)
}

/// Parses a single event line (no comments or blanks). Errors report the
/// offending column with line number 1 — use [`parse_event_trace`] for
/// whole files. This is the record-level entry point for consumers that
/// frame events individually, such as the admission server's write-ahead
/// journal.
///
/// # Errors
///
/// [`ParseEventTraceError`] naming the offending column.
pub fn parse_event_line(line: &str) -> Result<EventRecord, ParseEventTraceError> {
    parse_event_cols(1, line.trim())
}

fn parse_event_cols(line: usize, trimmed: &str) -> Result<EventRecord, ParseEventTraceError> {
    let cols: Vec<&str> = trimmed.split_whitespace().collect();
    if cols.len() < 2 {
        return Err(ParseEventTraceError::BadColumnCount {
            line,
            found: cols.len(),
            expected: 2,
        });
    }
    let at: f64 = cols[0]
        .parse()
        .ok()
        .filter(|t: &f64| t.is_finite() && *t >= 0.0)
        .ok_or(ParseEventTraceError::BadField { line, column: "at" })?;
    let kind = match cols[1] {
        "arrive" => {
            // 7 columns for an unpinned arrival; an optional 8th column
            // pins the task to a power domain (see `Task::with_domain`).
            if cols.len() != 7 && cols.len() != 8 {
                return Err(ParseEventTraceError::BadColumnCount {
                    line,
                    found: cols.len(),
                    expected: 7,
                });
            }
            let id: usize = cols[2]
                .parse()
                .map_err(|_| ParseEventTraceError::BadField { line, column: "id" })?;
            let cycles: f64 = cols[3]
                .parse()
                .map_err(|_| ParseEventTraceError::BadField {
                    line,
                    column: "cycles",
                })?;
            let period: u64 = cols[4]
                .parse()
                .map_err(|_| ParseEventTraceError::BadField {
                    line,
                    column: "period",
                })?;
            let penalty: f64 = cols[6]
                .parse()
                .map_err(|_| ParseEventTraceError::BadField {
                    line,
                    column: "penalty",
                })?;
            if !penalty.is_finite() || penalty < 0.0 {
                return Err(ParseEventTraceError::Model {
                    line,
                    source: ModelError::InvalidPenalty { task: id, penalty },
                });
            }
            let mut task = Task::new(id, cycles, period)
                .map_err(|source| ParseEventTraceError::Model { line, source })?
                .with_penalty(penalty);
            if cols[5] != "-" {
                let deadline: u64 =
                    cols[5]
                        .parse()
                        .map_err(|_| ParseEventTraceError::BadField {
                            line,
                            column: "deadline",
                        })?;
                task = task
                    .with_deadline(deadline)
                    .map_err(|source| ParseEventTraceError::Model { line, source })?;
            }
            if let Some(&col) = cols.get(7) {
                if col != "-" {
                    let domain: usize =
                        col.parse().map_err(|_| ParseEventTraceError::BadField {
                            line,
                            column: "domain",
                        })?;
                    task = task.with_domain(domain);
                }
            }
            EventKind::Arrive(task)
        }
        "depart" => {
            if cols.len() != 3 {
                return Err(ParseEventTraceError::BadColumnCount {
                    line,
                    found: cols.len(),
                    expected: 3,
                });
            }
            let id: usize = cols[2]
                .parse()
                .map_err(|_| ParseEventTraceError::BadField { line, column: "id" })?;
            EventKind::Depart(TaskId::new(id))
        }
        "tick" => {
            if cols.len() != 2 {
                return Err(ParseEventTraceError::BadColumnCount {
                    line,
                    found: cols.len(),
                    expected: 2,
                });
            }
            EventKind::Tick
        }
        other => {
            return Err(ParseEventTraceError::BadKind {
                line,
                kind: other.to_string(),
            })
        }
    };
    Ok(EventRecord::new(at, kind))
}

/// Formats an event trace (with a header comment); the output round-trips
/// through [`parse_event_trace`].
#[must_use]
pub fn format_event_trace(events: &[EventRecord]) -> String {
    let mut out = String::from("# at kind id cycles period deadline penalty\n");
    for e in events {
        out.push_str(&format_event(e));
        out.push('\n');
    }
    out
}

/// Formats one event as a single trace line (no trailing newline). The
/// output round-trips exactly through [`parse_event_line`]: floating-point
/// fields use Rust's shortest round-trip `Display`, so the parsed record
/// is bit-identical to the original — the property the admission server's
/// write-ahead journal relies on for deterministic replay.
#[must_use]
pub fn format_event(e: &EventRecord) -> String {
    e.to_string()
}

/// The single-line trace format of [`format_event`], for callers that
/// write into a buffer of their own.
impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EventKind::Arrive(t) => {
                write!(
                    f,
                    "{} arrive {} {} {} ",
                    self.at,
                    t.id().index(),
                    t.wcec(),
                    t.period()
                )?;
                if t.is_implicit_deadline() {
                    f.write_str("-")?;
                } else {
                    write!(f, "{}", t.deadline())?;
                }
                write!(f, " {}", t.penalty())?;
                // The pin column is only emitted when present so that
                // unpinned traces (and every journal written before the
                // column existed) keep their byte-exact format.
                match t.domain() {
                    Some(d) => write!(f, " {d}"),
                    None => Ok(()),
                }
            }
            EventKind::Depart(id) => write!(f, "{} depart {}", self.at, id.index()),
            EventKind::Tick => write!(f, "{} tick", self.at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_blanks() {
        let text = "# header\n\n0 1.0 10 - 0.5\n  # indented comment\n1 2.0 20 15 1.5\n";
        let ts = parse_task_set(text).unwrap();
        assert_eq!(ts.len(), 2);
        assert!(ts[0].is_implicit_deadline());
        assert_eq!(ts[1].deadline(), 15);
    }

    #[test]
    fn column_count_errors_name_the_line() {
        let err = parse_task_set("0 1.0 10 -\n").unwrap_err();
        assert_eq!(err, ParseTaskSetError::BadColumnCount { line: 1, found: 4 });
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn field_errors_name_the_column() {
        let err = parse_task_set("0 abc 10 - 1.0\n").unwrap_err();
        assert_eq!(
            err,
            ParseTaskSetError::BadField {
                line: 1,
                column: "cycles"
            }
        );
        let err = parse_task_set("0 1.0 10 x 1.0\n").unwrap_err();
        assert_eq!(
            err,
            ParseTaskSetError::BadField {
                line: 1,
                column: "deadline"
            }
        );
    }

    #[test]
    fn model_violations_propagate() {
        // deadline > period
        let err = parse_task_set("0 1.0 10 12 1.0\n").unwrap_err();
        assert!(matches!(err, ParseTaskSetError::Model { line: 1, .. }));
        // negative penalty
        let err = parse_task_set("0 1.0 10 - -1.0\n").unwrap_err();
        assert!(matches!(err, ParseTaskSetError::Model { line: 1, .. }));
        // duplicate ids
        let err = parse_task_set("0 1.0 10 - 1.0\n0 2.0 10 - 1.0\n").unwrap_err();
        assert!(matches!(err, ParseTaskSetError::Model { .. }));
    }

    #[test]
    fn round_trip_preserves_everything() {
        let text = "0 1.5 10 - 0.25\n3 2.0 20 15 1.5\n7 0.0 5 - 0.0\n";
        let ts = parse_task_set(text).unwrap();
        let again = parse_task_set(&format_task_set(&ts)).unwrap();
        assert_eq!(ts, again);
    }

    #[test]
    fn load_reports_missing_file_as_io_error() {
        let err = load_task_set("/nonexistent/task_set_io_test.txt").unwrap_err();
        assert!(matches!(err, LoadTaskSetError::Io { .. }));
        assert!(err.to_string().contains("task_set_io_test.txt"));
    }

    #[test]
    fn save_then_load_round_trips() {
        let ts = parse_task_set("0 1.5 10 - 0.25\n1 2.0 20 15 1.5\n").unwrap();
        let dir = std::env::temp_dir().join("rt_model_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tasks.txt");
        save_task_set(&path, &ts).unwrap();
        let again = load_task_set(&path).unwrap();
        let _ = std::fs::remove_dir_all(dir);
        assert_eq!(ts, again);
    }

    #[test]
    fn load_reports_parse_errors_with_path_and_line() {
        let dir = std::env::temp_dir().join("rt_model_io_parse_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, "0 1.0 10 - 1.0\nbroken line\n").unwrap();
        let err = load_task_set(&path).unwrap_err();
        let _ = std::fs::remove_dir_all(dir);
        assert!(matches!(err, LoadTaskSetError::Parse { .. }));
        let msg = err.to_string();
        assert!(msg.contains("bad.txt") && msg.contains("line 2"), "{msg}");
    }

    fn sample_trace() -> Vec<EventRecord> {
        vec![
            EventRecord::new(
                0.0,
                EventKind::Arrive(Task::new(0, 30.0, 100).unwrap().with_penalty(2.5)),
            ),
            EventRecord::new(
                1.5,
                EventKind::Arrive(
                    Task::new(1, 45.0, 100)
                        .unwrap()
                        .with_penalty(5.0)
                        .with_deadline(60)
                        .unwrap(),
                ),
            ),
            EventRecord::new(10.0, EventKind::Tick),
            EventRecord::new(12.25, EventKind::Depart(TaskId::new(0))),
        ]
    }

    #[test]
    fn event_trace_round_trips() {
        let trace = sample_trace();
        let again = parse_event_trace(&format_event_trace(&trace)).unwrap();
        assert_eq!(trace, again);
    }

    #[test]
    fn single_event_lines_round_trip_bit_exactly() {
        // Awkward floats must survive format → parse with identical bits:
        // the admission journal replays these records and compares
        // decision logs bit-for-bit.
        let awkward = [0.1 + 0.2, 1.0 / 3.0, 4000.0 * (2.0_f64).sqrt(), 1e-12];
        for (i, &at) in awkward.iter().enumerate() {
            let t = Task::new(i, at * 7.0, 1000).unwrap().with_penalty(at * 3.0);
            for e in [
                EventRecord::new(at, EventKind::Arrive(t)),
                EventRecord::new(at, EventKind::Depart(t.id())),
                EventRecord::new(at, EventKind::Tick),
            ] {
                let again = parse_event_line(&format_event(&e)).unwrap();
                assert_eq!(again.at.to_bits(), e.at.to_bits());
                assert_eq!(again, e);
            }
        }
        // Errors surface per-line, without a trace context.
        assert!(parse_event_line("").is_err());
        assert!(parse_event_line("0 vanish 1").is_err());
    }

    #[test]
    fn pinned_arrivals_round_trip_with_domain_column() {
        let t = Task::new(9, 12.5, 1000).unwrap().with_penalty(3.25);
        for task in [t, t.with_domain(0), t.with_domain(7)] {
            let e = EventRecord::new(0.1 + 0.2, EventKind::Arrive(task));
            let line = format_event(&e);
            let cols = line.split_whitespace().count();
            assert_eq!(cols, if task.domain().is_some() { 8 } else { 7 });
            let again = parse_event_line(&line).unwrap();
            assert_eq!(again, e);
            match again.kind {
                EventKind::Arrive(p) => assert_eq!(p.domain(), task.domain()),
                _ => unreachable!(),
            }
        }
        // An explicit "-" in the 8th column also reads as unpinned.
        let again = parse_event_line("0 arrive 9 12.5 1000 - 3.25 -").unwrap();
        assert!(matches!(again.kind, EventKind::Arrive(p) if p.domain().is_none()));
        // A non-numeric pin names the column.
        let err = parse_event_line("0 arrive 9 12.5 1000 - 3.25 x").unwrap_err();
        assert_eq!(
            err,
            ParseEventTraceError::BadField {
                line: 1,
                column: "domain"
            }
        );
    }

    #[test]
    fn event_trace_parses_comments_and_blanks() {
        let text = "# header\n\n0 arrive 3 1.0 10 - 0.5\n\n5 tick\n # trailing\n";
        let trace = parse_event_trace(text).unwrap();
        assert_eq!(trace.len(), 2);
        assert!(matches!(&trace[0].kind, EventKind::Arrive(t) if t.id() == TaskId::new(3)));
        assert_eq!(trace[1].kind, EventKind::Tick);
        assert_eq!(trace[0].kind.label(), "arrive");
    }

    #[test]
    fn event_trace_errors_name_line_and_column() {
        let err = parse_event_trace("0 arrive 0 1.0 10 -\n").unwrap_err();
        assert_eq!(
            err,
            ParseEventTraceError::BadColumnCount {
                line: 1,
                found: 6,
                expected: 7
            }
        );
        let err = parse_event_trace("x tick\n").unwrap_err();
        assert_eq!(
            err,
            ParseEventTraceError::BadField {
                line: 1,
                column: "at"
            }
        );
        let err = parse_event_trace("-1 tick\n").unwrap_err();
        assert_eq!(
            err,
            ParseEventTraceError::BadField {
                line: 1,
                column: "at"
            }
        );
        let err = parse_event_trace("0 vanish 3\n").unwrap_err();
        assert!(matches!(err, ParseEventTraceError::BadKind { line: 1, .. }));
        assert!(err.to_string().contains("vanish"));
        // deadline > period is a model violation with the line number.
        let err = parse_event_trace("0 arrive 0 1.0 10 12 1.0\n").unwrap_err();
        assert!(matches!(err, ParseEventTraceError::Model { line: 1, .. }));
    }

    #[test]
    fn event_trace_save_then_load_round_trips() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("rt_model_io_event_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.events");
        save_event_trace(&path, &trace).unwrap();
        let again = load_event_trace(&path).unwrap();
        let _ = std::fs::remove_dir_all(dir);
        assert_eq!(trace, again);
    }

    #[test]
    fn event_trace_load_reports_missing_file_as_io_error() {
        let err = load_event_trace("/nonexistent/event_trace_io_test.events").unwrap_err();
        assert!(matches!(err, LoadEventTraceError::Io { .. }));
        assert!(err.to_string().contains("event_trace_io_test.events"));
    }

    #[test]
    fn event_trace_load_reports_parse_errors_with_path_and_line() {
        let dir = std::env::temp_dir().join("rt_model_io_event_trace_parse_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.events");
        std::fs::write(&path, "0 tick\nbroken\n").unwrap();
        let err = load_event_trace(&path).unwrap_err();
        let _ = std::fs::remove_dir_all(dir);
        assert!(matches!(err, LoadEventTraceError::Parse { .. }));
        let msg = err.to_string();
        assert!(
            msg.contains("bad.events") && msg.contains("line 2"),
            "{msg}"
        );
    }
}
