//! End-to-end smoke tests for the `dvs_admitd` binary: the stdin/stdout
//! protocol, the shutdown stats dump and its balance invariant, the TCP
//! listener, and `--replay` over a saved event-trace file.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use dvs_admit::json::{get, parse_object, JsonValue};
use rt_model::io::{save_event_trace, EventKind, EventRecord};
use rt_model::Task;

const BIN: &str = env!("CARGO_BIN_EXE_dvs_admitd");

fn spawn(args: &[&str]) -> Child {
    Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dvs_admitd")
}

fn num(pairs: &[(String, JsonValue)], key: &str) -> f64 {
    get(pairs, key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("stats missing numeric {key:?}"))
}

/// Asserts the stats invariant the CI smoke job checks:
/// `accepted + rejected + shed == arrivals`.
fn assert_balanced(stats_line: &str, expected_arrivals: f64) {
    let kv = parse_object(stats_line)
        .unwrap_or_else(|e| panic!("stats line does not parse ({e}): {stats_line}"));
    assert_eq!(get(&kv, "op").and_then(JsonValue::as_str), Some("stats"));
    let arrivals = num(&kv, "arrivals");
    assert_eq!(arrivals, expected_arrivals);
    assert_eq!(
        num(&kv, "accepted") + num(&kv, "rejected") + num(&kv, "shed"),
        arrivals,
        "balance violated: {stats_line}"
    );
}

const TRACE: &str = "\
{\"op\":\"arrive\",\"at\":0,\"id\":1,\"cycles\":50.0,\"period\":1000,\"penalty\":9.0}\n\
{\"op\":\"arrive\",\"at\":1,\"id\":2,\"cycles\":400.0,\"period\":1000,\"penalty\":0.5}\n\
{\"op\":\"arrive\",\"at\":2,\"id\":3,\"cycles\":80.0,\"period\":1000,\"penalty\":4.0}\n\
{\"op\":\"tick\",\"at\":250}\n\
{\"op\":\"depart\",\"at\":300,\"id\":1}\n\
{\"op\":\"tick\",\"at\":500}\n\
";

#[test]
fn stdin_session_balances_on_eof() {
    let mut child = spawn(&["--stdin"]);
    child
        .stdin
        .take()
        .unwrap()
        .write_all(TRACE.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("no output");
    assert_balanced(last, 3.0);
    // One response per request plus the EOF stats dump.
    assert_eq!(stdout.lines().count(), 7, "stdout: {stdout}");
}

#[test]
fn shutdown_request_dumps_stats_inline() {
    let mut child = spawn(&["--stdin", "--policy", "threshold=2.0"]);
    let input = format!("{TRACE}{{\"op\":\"shutdown\"}}\n");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_balanced(stdout.lines().last().unwrap(), 3.0);
}

#[test]
fn tcp_listener_serves_and_shuts_down() {
    let mut child = spawn(&[
        "--listen",
        "127.0.0.1:0",
        "--power",
        "cubic",
        "--policy",
        "watermark=0.8,0.5,2.0",
    ]);
    let mut banner = String::new();
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    child_out.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"{\"op\":\"arrive\",\"at\":0,\"id\":1,\"cycles\":50.0,\"period\":1000,\"penalty\":9.0}\n")
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let kv = parse_object(line.trim()).unwrap();
    assert_eq!(get(&kv, "ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        get(&kv, "decision").and_then(JsonValue::as_str),
        Some("accepted")
    );

    line.clear();
    stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_balanced(line.trim(), 1.0);

    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_balanced(line.trim(), 1.0);

    let status = child.wait().unwrap();
    assert!(status.success());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(stderr.contains("\"op\":\"stats\""), "stderr: {stderr}");
}

#[test]
fn replay_mode_round_trips_a_saved_trace() {
    let dir = std::env::temp_dir().join(format!("dvs-admitd-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.events");
    let events = vec![
        EventRecord::new(
            0.0,
            EventKind::Arrive(Task::new(1, 50.0, 1000).unwrap().with_penalty(9.0)),
        ),
        EventRecord::new(
            1.0,
            EventKind::Arrive(Task::new(2, 400.0, 1000).unwrap().with_penalty(0.5)),
        ),
        EventRecord::new(250.0, EventKind::Tick),
        EventRecord::new(400.0, EventKind::Depart(rt_model::TaskId::new(1))),
        EventRecord::new(500.0, EventKind::Tick),
    ];
    save_event_trace(&path, &events).unwrap();

    let out = Command::new(BIN)
        .args(["--replay", path.to_str().unwrap(), "--power", "cubic"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_balanced(stdout.lines().last().unwrap(), 2.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Each bad flag exits non-zero with a message that names it. A
/// non-finite `--regret` is one: NaN compares false, so it would switch
/// regret re-solves off without a word, and a journal's snapshot would
/// then fail to match the engine that wrote it.
#[test]
fn bad_flags_fail_with_a_message() {
    for (args, named) in [
        (&["--listen"][..], "--listen"),
        (&["--policy", "nope"][..], "nope"),
        (&["--frobnicate"][..], "--frobnicate"),
        (&["--regret", "nan"][..], "--regret"),
        (&["--regret", "inf"][..], "--regret"),
        (&["--horizon", "0"][..], "--horizon"),
    ] {
        let mut child = spawn(args);
        child.stdin.take();
        let out = child.wait_with_output().unwrap();
        assert!(
            !out.status.success(),
            "args {args:?} unexpectedly succeeded"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error:") && stderr.contains(named),
            "args {args:?}: {stderr}"
        );
    }
}
