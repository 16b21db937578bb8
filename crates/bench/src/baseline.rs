//! Machine-readable benchmark baseline.
//!
//! [`write_baseline`] snapshots the headline tables — T1 (solution
//! quality: cost normalised to the exhaustive optimum), T2 (wall-clock
//! runtime), R1 (fault-intensity robustness sweep), E7 (admission-server
//! replay), E8 (hot-path throughput), E9 (cluster scatter-gather
//! serving), E10 (live resharding), R2 (chaos: journal overhead and
//! crash recovery) and R3
//! (failover: replication tax and promotion cost) — as one JSON document, so performance, quality and robustness
//! regressions can be diffed mechanically between commits (`git diff
//! results/bench_baseline.json`). The encoder is hand-rolled: the workspace
//! builds offline with zero external dependencies, and the schema is flat
//! enough that serde would be overkill. [`load_baseline`] reads a document
//! of the current schema version back; anything else is rejected by
//! version, not half-parsed.

use std::fmt;
use std::io::Write;
use std::path::Path;

use dvs_admit::json::{self, JsonValue};

use crate::{Scale, Table};

/// Schema version stamped into the document. Version 9 dropped the
/// `threads` column from E8/E9/E10/R2/R3; the top-level `threads` field
/// is the harness worker count only.
pub const BASELINE_VERSION: u32 = 9;

/// Escapes a string for a JSON string literal (quotes not included).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Encodes one table cell: numeric cells stay numbers, the `-` placeholder
/// (solver skipped: instance over its size limit) becomes `null`, anything
/// else is a string.
fn json_cell(cell: &str) -> String {
    if cell == "-" {
        return "null".to_string();
    }
    match cell.parse::<f64>() {
        // Re-emit through Rust's float formatter so the output is always
        // valid JSON number syntax (the source cells are `{:.3}`-style and
        // already are, but this keeps the encoder safe for any table).
        Ok(v) if v.is_finite() => {
            if cell.bytes().all(|b| b.is_ascii_digit()) {
                cell.to_string()
            } else {
                format!("{v}")
            }
        }
        _ => format!("\"{}\"", json_escape(cell)),
    }
}

/// Renders a [`Table`] as a JSON array of row objects keyed by header.
fn table_to_json(table: &Table, indent: &str) -> String {
    let mut out = String::from("[");
    for (i, row) in table.rows().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(indent);
        out.push_str("  {");
        for (j, (h, cell)) in table.headers().iter().zip(row).enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", json_escape(h), json_cell(cell)));
        }
        out.push('}');
    }
    out.push('\n');
    out.push_str(indent);
    out.push(']');
    out
}

/// Writes the baseline document for the given
/// T1/T2/R1/E7/E8/E9/E10/R2/R3 tables.
///
/// The document records the scale, the harness worker count the run used
/// (the batch's wall time depends on it; no table cell does), and the
/// tables row-by-row.
///
/// # Errors
///
/// Propagates I/O errors.
#[allow(clippy::too_many_arguments)]
pub fn write_baseline(
    path: &Path,
    scale: Scale,
    t1: &Table,
    t2: &Table,
    r1: &Table,
    e7: &Table,
    e8: &Table,
    e9: &Table,
    e10: &Table,
    r2: &Table,
    r3: &Table,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let scale_name = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"version\": {BASELINE_VERSION},")?;
    writeln!(f, "  \"scale\": \"{scale_name}\",")?;
    writeln!(f, "  \"threads\": {},", dvs_exec::num_threads())?;
    writeln!(f, "  \"t1_normalized_cost\": {},", table_to_json(t1, "  "))?;
    writeln!(f, "  \"t2_runtime_ms\": {},", table_to_json(t2, "  "))?;
    writeln!(f, "  \"r1_fault_sweep\": {},", table_to_json(r1, "  "))?;
    writeln!(f, "  \"e7_admission_replay\": {},", table_to_json(e7, "  "))?;
    writeln!(
        f,
        "  \"e8_hotpath_throughput\": {},",
        table_to_json(e8, "  ")
    )?;
    writeln!(f, "  \"e9_cluster_serving\": {},", table_to_json(e9, "  "))?;
    writeln!(f, "  \"e10_reshard\": {},", table_to_json(e10, "  "))?;
    writeln!(f, "  \"r2_chaos\": {},", table_to_json(r2, "  "))?;
    writeln!(f, "  \"r3_failover\": {}", table_to_json(r3, "  "))?;
    writeln!(f, "}}")?;
    Ok(())
}

/// One decoded table row: `(header, cell)` pairs in document order.
pub type BaselineRow = Vec<(String, String)>;

/// A baseline document read back from disk: the header fields plus every
/// table, decoded to rows of `(header, cell)` pairs (cells re-rendered as
/// strings; `null` becomes `-`, matching the [`Table`] placeholder).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDoc {
    /// Schema version found in the document (always [`BASELINE_VERSION`]).
    pub version: u32,
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// Harness worker count of the recorded run.
    pub threads: u64,
    /// `(table name, rows)` in document order.
    pub tables: Vec<(String, Vec<BaselineRow>)>,
}

impl BaselineDoc {
    /// The named table's rows, if the document has it.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&[BaselineRow]> {
        self.tables
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, rows)| rows.as_slice())
    }
}

/// Error raised by [`load_baseline`].
#[derive(Debug)]
#[non_exhaustive]
pub enum LoadBaselineError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The document is not valid JSON.
    Parse(json::JsonParseError),
    /// The document parses but lacks a required header field, or its
    /// version is not the one this build writes.
    Schema(String),
}

impl fmt::Display for LoadBaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadBaselineError::Io(e) => write!(f, "reading baseline: {e}"),
            LoadBaselineError::Parse(e) => write!(f, "parsing baseline: {e}"),
            LoadBaselineError::Schema(msg) => write!(f, "baseline schema: {msg}"),
        }
    }
}

impl std::error::Error for LoadBaselineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadBaselineError::Io(e) => Some(e),
            LoadBaselineError::Parse(e) => Some(e),
            LoadBaselineError::Schema(_) => None,
        }
    }
}

fn cell_to_string(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "-".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => format!("{n}"),
        JsonValue::Str(s) => s.clone(),
        // Tables never contain these; render debug-ish rather than fail.
        JsonValue::Arr(_) | JsonValue::Obj(_) => String::new(),
    }
}

/// Reads a baseline document of schema version [`BASELINE_VERSION`].
///
/// # Errors
///
/// [`LoadBaselineError`] on I/O failure, malformed JSON, a missing header
/// field, or any other version.
pub fn load_baseline(path: &Path) -> Result<BaselineDoc, LoadBaselineError> {
    let text = std::fs::read_to_string(path).map_err(LoadBaselineError::Io)?;
    let doc = json::parse_document(&text).map_err(LoadBaselineError::Parse)?;
    let pairs = doc
        .as_obj()
        .ok_or_else(|| LoadBaselineError::Schema("top level is not an object".to_string()))?;
    let version = json::get(pairs, "version")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| LoadBaselineError::Schema("missing version".to_string()))?
        as u32;
    if version != BASELINE_VERSION {
        return Err(LoadBaselineError::Schema(format!(
            "version {version} not supported (this build reads {BASELINE_VERSION})"
        )));
    }
    let scale = json::get(pairs, "scale")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| LoadBaselineError::Schema("missing scale".to_string()))?
        .to_string();
    let threads = json::get(pairs, "threads")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| LoadBaselineError::Schema("missing threads".to_string()))?
        as u64;
    let mut tables = Vec::new();
    for (key, value) in pairs {
        if let Some(rows) = value.as_arr() {
            let mut decoded = Vec::with_capacity(rows.len());
            for row in rows {
                let cells = row.as_obj().ok_or_else(|| {
                    LoadBaselineError::Schema(format!("table {key}: row is not an object"))
                })?;
                decoded.push(
                    cells
                        .iter()
                        .map(|(h, v)| (h.clone(), cell_to_string(v)))
                        .collect(),
                );
            }
            tables.push((key.clone(), decoded));
        }
    }
    Ok(BaselineDoc {
        version,
        scale,
        threads,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_cell_typing() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_cell("-"), "null");
        assert_eq!(json_cell("12"), "12");
        assert_eq!(json_cell("3.140"), "3.14");
        assert_eq!(json_cell("marginal-greedy"), "\"marginal-greedy\"");
    }

    #[allow(clippy::type_complexity)]
    fn sample_tables() -> (
        Table,
        Table,
        Table,
        Table,
        Table,
        Table,
        Table,
        Table,
        Table,
    ) {
        let mut t1 = Table::new("T1", &["n", "algorithm", "avg_norm_cost", "max_norm_cost"]);
        t1.push(&["8", "marginal-greedy", "1.0123", "1.0456"]);
        let mut t2 = Table::new("T2", &["n", "algorithm", "avg_ms"]);
        t2.push(&["10", "exhaustive", "0.512"]);
        t2.push(&["200", "exhaustive", "-"]);
        let mut r1 = Table::new("R1", &["intensity", "policy", "avg_total_cost"]);
        r1.push(&["0.5", "late-reject", "2.3456"]);
        let mut e7 = Table::new("E7", &["load", "policy", "avg_total_cost", "savings_pct"]);
        e7.push(&["2.0", "greedy+resolve", "118.2", "4.31"]);
        let mut e8 = Table::new("E8", &["policy", "events_per_sec", "avg_nodes"]);
        e8.push(&["resolve-warm", "812345", "59.0"]);
        let mut e9 = Table::new(
            "E9",
            &["shards", "events_per_sec", "p99_us", "log_identical"],
        );
        e9.push(&["4", "51234", "88.5", "yes"]);
        let mut e10 = Table::new(
            "E10",
            &[
                "reshard_ms_p99",
                "moved_hrw",
                "moved_naive",
                "log_identical",
            ],
        );
        e10.push(&["2.41", "4", "8", "yes"]);
        let mut r2 = Table::new("R2", &["eps_journal", "recovery_ms", "identical"]);
        r2.push(&["731002", "0.412", "yes"]);
        let mut r3 = Table::new("R3", &["eps_replicated", "promote_ms", "identical"]);
        r3.push(&["698411", "1.204", "yes"]);
        (t1, t2, r1, e7, e8, e9, e10, r2, r3)
    }

    #[test]
    fn baseline_document_is_valid_shape() {
        let (t1, t2, r1, e7, e8, e9, e10, r2, r3) = sample_tables();
        let dir = std::env::temp_dir().join("bench_suite_baseline_test");
        let path = dir.join("bench_baseline.json");
        write_baseline(
            &path,
            Scale::Quick,
            &t1,
            &t2,
            &r1,
            &e7,
            &e8,
            &e9,
            &e10,
            &r2,
            &r3,
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(dir);
        assert!(text.contains(&format!("\"version\": {BASELINE_VERSION}")));
        assert!(text.contains("\"scale\": \"quick\""));
        assert!(text.contains("\"avg_norm_cost\": 1.0123"));
        assert!(text.contains("\"avg_ms\": null"));
        assert!(text.contains("\"policy\": \"late-reject\""));
        assert!(text.contains("\"e7_admission_replay\""));
        assert!(text.contains("\"e8_hotpath_throughput\""));
        assert!(text.contains("\"e9_cluster_serving\""));
        assert!(text.contains("\"e10_reshard\""));
        assert!(text.contains("\"moved_hrw\": 4"));
        assert!(text.contains("\"log_identical\": \"yes\""));
        assert!(text.contains("\"r2_chaos\""));
        assert!(text.contains("\"r3_failover\""));
        assert!(text.contains("\"identical\": \"yes\""));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the dependency-free workspace.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = text.matches(open).count();
            let c = text.matches(close).count();
            assert_eq!(o, c, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn loader_round_trips_the_current_version() {
        let (t1, t2, r1, e7, e8, e9, e10, r2, r3) = sample_tables();
        let dir = std::env::temp_dir().join("bench_suite_baseline_roundtrip");
        let path = dir.join("bench_baseline.json");
        write_baseline(
            &path,
            Scale::Full,
            &t1,
            &t2,
            &r1,
            &e7,
            &e8,
            &e9,
            &e10,
            &r2,
            &r3,
        )
        .unwrap();
        let doc = load_baseline(&path).unwrap();
        let _ = std::fs::remove_dir_all(dir);
        assert_eq!(doc.version, BASELINE_VERSION);
        assert_eq!(doc.scale, "full");
        assert_eq!(doc.tables.len(), 9);
        let e7_rows = doc.table("e7_admission_replay").unwrap();
        assert_eq!(e7_rows.len(), 1);
        assert!(e7_rows[0].contains(&("savings_pct".to_string(), "4.31".to_string())));
        let e8_rows = doc.table("e8_hotpath_throughput").unwrap();
        assert!(e8_rows[0].contains(&("avg_nodes".to_string(), "59".to_string())));
        let e9_rows = doc.table("e9_cluster_serving").unwrap();
        assert!(e9_rows[0].contains(&("log_identical".to_string(), "yes".to_string())));
        assert!(e9_rows[0].contains(&("p99_us".to_string(), "88.5".to_string())));
        let e10_rows = doc.table("e10_reshard").unwrap();
        assert!(e10_rows[0].contains(&("moved_hrw".to_string(), "4".to_string())));
        assert!(e10_rows[0].contains(&("moved_naive".to_string(), "8".to_string())));
        let r2_rows = doc.table("r2_chaos").unwrap();
        assert!(r2_rows[0].contains(&("identical".to_string(), "yes".to_string())));
        let r3_rows = doc.table("r3_failover").unwrap();
        assert!(r3_rows[0].contains(&("promote_ms".to_string(), "1.204".to_string())));
        // The `-` placeholder survives the null round trip.
        let t2_rows = doc.table("t2_runtime_ms").unwrap();
        assert!(t2_rows[1].contains(&("avg_ms".to_string(), "-".to_string())));
    }

    #[test]
    fn loader_rejects_future_versions_and_garbage() {
        let dir = std::env::temp_dir().join("bench_suite_baseline_bad");
        std::fs::create_dir_all(&dir).unwrap();
        // Exactly the current version loads: one ahead and one behind
        // (the last schema with per-thread rows) are both refused.
        for version in [99, BASELINE_VERSION - 1] {
            let other = dir.join(format!("v{version}.json"));
            std::fs::write(
                &other,
                format!("{{\"version\": {version}, \"scale\": \"quick\", \"threads\": 1}}"),
            )
            .unwrap();
            assert!(matches!(
                load_baseline(&other),
                Err(LoadBaselineError::Schema(_))
            ));
        }
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json at all").unwrap();
        assert!(matches!(
            load_baseline(&garbage),
            Err(LoadBaselineError::Parse(_))
        ));
        assert!(matches!(
            load_baseline(&dir.join("missing.json")),
            Err(LoadBaselineError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(dir);
    }
}
