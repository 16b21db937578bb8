//! Malformed workload files return typed errors — never panic.
//!
//! A corpus of broken task-set files (truncated rows, NaN/negative fields,
//! duplicate ids, garbage bytes, missing files) driven through both the
//! string parser and the file loader. The contract: every case is an `Err`
//! with a message naming the offending location, and none unwinds.

use dvs_rejection::model::io::{
    load_task_set, parse_task_set, LoadTaskSetError, ParseTaskSetError,
};

/// The corpus: (label, contents, substring expected in the error message).
const CORPUS: &[(&str, &str, &str)] = &[
    ("truncated row", "0 30.0 100 -\n", "line 1"),
    ("extra column", "0 30.0 100 - 2.5 9\n", "line 1"),
    ("nan cycles", "0 NaN 100 - 2.5\n", "line 1"),
    ("inf cycles", "0 inf 100 - 2.5\n", "line 1"),
    ("negative cycles", "0 -3.0 100 - 2.5\n", "line 1"),
    ("nan penalty", "0 30.0 100 - NaN\n", "line 1"),
    ("negative penalty", "0 30.0 100 - -2.5\n", "line 1"),
    ("zero period", "0 30.0 0 - 2.5\n", "line 1"),
    ("period not integer", "0 30.0 1.5 - 2.5\n", "period"),
    (
        "deadline past period",
        "0 30.0 100 120 2.5\n",
        "line 1: task 0: relative deadline 120 must be between 1 and the period 100",
    ),
    (
        "zero deadline",
        "0 30.0 100 0 2.5\n",
        "line 1: task 0: relative deadline 0 must be between 1 and the period 100",
    ),
    ("garbage id", "x 30.0 100 - 2.5\n", "id"),
    ("second line broken", "0 30.0 100 - 2.5\n1 45.0\n", "line 2"),
    (
        "duplicate ids",
        "0 30.0 100 - 2.5\n0 45.0 100 60 5.0\n",
        "duplicate",
    ),
    ("binary garbage", "\u{1}\u{2}\u{3} not a task set", ""),
];

#[test]
fn every_corpus_entry_is_a_typed_error() {
    for (label, text, needle) in CORPUS {
        let err = parse_task_set(text)
            .map(|_| ())
            .expect_err(&format!("{label}: parsed successfully"));
        let msg = err.to_string();
        assert!(
            msg.to_lowercase().contains(&needle.to_lowercase()),
            "{label}: message {msg:?} does not mention {needle:?}"
        );
    }
}

#[test]
fn corpus_entries_fail_identically_through_the_file_loader() {
    let dir = std::env::temp_dir().join("dvs_rejection_malformed_corpus");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (label, text, _)) in CORPUS.iter().enumerate() {
        let path = dir.join(format!("case_{i}.tasks"));
        std::fs::write(&path, text).unwrap();
        let err = load_task_set(&path)
            .map(|_| ())
            .expect_err(&format!("{label}: loaded successfully"));
        // The file loader wraps the same parse error and adds the path.
        match err {
            LoadTaskSetError::Parse { source, .. } => {
                // Compare rendered messages, not values: a NaN payload is
                // unequal to itself under the derived `PartialEq`.
                let direct = parse_task_set(text).unwrap_err();
                assert_eq!(source.to_string(), direct.to_string(), "{label}");
            }
            other => panic!("{label}: expected a parse error, got {other}"),
        }
        assert!(
            load_task_set(&path)
                .unwrap_err()
                .to_string()
                .contains(".tasks"),
            "{label}: message should name the file"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn missing_file_is_an_io_error_not_a_panic() {
    let err = load_task_set("/nonexistent/dir/never_here.tasks").unwrap_err();
    assert!(matches!(err, LoadTaskSetError::Io { .. }));
    assert!(err.to_string().contains("never_here.tasks"));
}

#[test]
fn parse_errors_pinpoint_line_and_column() {
    // Spot-check the typed variants survive the trip (not just strings).
    assert_eq!(
        parse_task_set("0 30.0 100 -\n").unwrap_err(),
        ParseTaskSetError::BadColumnCount { line: 1, found: 4 }
    );
    assert!(matches!(
        parse_task_set("0 x 100 - 2.5\n").unwrap_err(),
        ParseTaskSetError::BadField {
            line: 1,
            column: "cycles"
        }
    ));
    assert!(matches!(
        parse_task_set("0 30.0 100 - 2.5\n0 1.0 10 - 0.1\n").unwrap_err(),
        ParseTaskSetError::Model { .. }
    ));
}
