//! The in-process oracle: an `AdmissionEngine` replays exactly the lines a
//! repetition sends, and the served stack's replies, counters and decision
//! log are checked against it.

use dvs_admit::json::{self, JsonValue};
use dvs_admit::server::handle_line_with;
use dvs_admit::{AdmissionEngine, EngineConfig};
use dvs_power::presets::xscale_ideal;
use reject_sched::online::OnlineGreedy;

use crate::stack::Lines;

/// An engine as `dvs_admitd --domains D --resolve-every K --budget B`
/// builds it (default `xscale` power, `greedy` policy).
pub fn engine(domains: usize, config: EngineConfig) -> AdmissionEngine {
    let cpus = (0..domains).map(|_| xscale_ideal()).collect();
    AdmissionEngine::new(cpus, Box::new(OnlineGreedy), config).expect("at least one domain")
}

/// The deterministic counters a `stats` reply is compared on.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    pub arrivals: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub standing_shed: u64,
    pub shed_total: u64,
    pub readmitted: u64,
    pub resolves: u64,
    pub resolves_skipped: u64,
    pub resolve_nodes: u64,
    pub events: u64,
    pub total_cost: f64,
}

impl Counters {
    pub fn of(engine: &AdmissionEngine) -> Counters {
        let m = engine.metrics();
        Counters {
            arrivals: m.arrivals,
            accepted: m.accepted(),
            rejected: m.rejected,
            standing_shed: m.standing_shed(),
            shed_total: m.shed,
            readmitted: m.readmitted,
            resolves: m.resolves,
            resolves_skipped: m.resolves_skipped,
            resolve_nodes: m.resolve_nodes,
            events: m.events,
            total_cost: m.total_cost(),
        }
    }

    /// Parses a `stats` (or cluster `stats`) reply.
    pub fn parse(reply: &str) -> Result<Counters, String> {
        let pairs = json::parse_object(reply).map_err(|e| format!("bad stats reply: {e}"))?;
        let num = |key: &str| {
            json::get(&pairs, key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("stats reply lacks {key:?}"))
        };
        Ok(Counters {
            arrivals: num("arrivals")? as u64,
            accepted: num("accepted")? as u64,
            rejected: num("rejected")? as u64,
            standing_shed: num("shed")? as u64,
            shed_total: num("shed_total")? as u64,
            readmitted: num("readmitted")? as u64,
            resolves: num("resolves")? as u64,
            resolves_skipped: num("resolves_skipped")? as u64,
            resolve_nodes: num("resolve_nodes")? as u64,
            events: num("events")? as u64,
            total_cost: num("total_cost")?,
        })
    }

    /// `accepted + rejected + standing_shed = arrivals`.
    pub fn balanced(&self) -> bool {
        self.accepted + self.rejected + self.standing_shed == self.arrivals
    }

    /// Compares a served stack's counters with the oracle's.
    ///
    /// A cluster (`routed`) fans every tick out, so its `events` is not
    /// the session's; and each shard integrates cost only up to the last
    /// event *it* saw, so at any instant the cluster's `total_cost` trails
    /// the single engine's by less than one tick interval of energy.
    pub fn check(&self, served: &Counters, routed: bool) -> Result<(), String> {
        if !served.balanced() {
            return Err(format!("counters do not balance: {served:?}"));
        }
        let tolerance = if routed { 2e-3 } else { 1e-9 };
        let same_cost =
            (self.total_cost - served.total_cost).abs() <= tolerance * self.total_cost.abs();
        let a = (
            self.arrivals,
            self.accepted,
            self.rejected,
            self.standing_shed,
        );
        let b = (
            served.arrivals,
            served.accepted,
            served.rejected,
            served.standing_shed,
        );
        if a != b || (!routed && self.events != served.events) || !same_cost {
            return Err(format!(
                "counters differ: oracle {self:?}, served {served:?}"
            ));
        }
        Ok(())
    }
}

/// What the oracle learned replaying a session.
pub struct Oracle {
    /// `ok` of the reply to each line.
    pub ok: Vec<bool>,
    /// The whole decision log.
    log: String,
    /// `log_end[i]`: bytes of `log` written once line `i` was applied.
    log_end: Vec<usize>,
    /// Counters after the first `stream_len` lines.
    pub at_stream_end: Counters,
}

impl Oracle {
    /// Replays `lines` through `engine`, noting the counters after the
    /// first `stream_len` lines (the count-boxed stream phase).
    pub fn replay(mut engine: AdmissionEngine, lines: &Lines, stream_len: usize) -> Oracle {
        let mut scratch = json::Scratch::default();
        let mut ok = Vec::with_capacity(lines.len());
        let mut decisions_after = Vec::with_capacity(lines.len());
        let mut at_stream_end = None;
        for i in 0..lines.len() {
            let handled = handle_line_with(&mut engine, lines.line(i), &mut scratch);
            ok.push(handled.response.starts_with("{\"ok\":true"));
            decisions_after.push(engine.decision_log().len());
            if i + 1 == stream_len {
                at_stream_end = Some(Counters::of(&engine));
            }
        }
        let mut log = String::new();
        let mut byte_end = vec![0usize];
        for d in engine.decision_log() {
            log.push_str(&d.to_string());
            log.push('\n');
            byte_end.push(log.len());
        }
        Oracle {
            ok,
            log,
            log_end: decisions_after.into_iter().map(|d| byte_end[d]).collect(),
            at_stream_end: at_stream_end.unwrap_or_else(|| Counters::of(&engine)),
        }
    }

    /// The decision log after the first `lines` lines.
    pub fn log_after(&self, lines: usize) -> &str {
        match lines {
            0 => "",
            n => &self.log[..self.log_end[n - 1]],
        }
    }
}

/// Byte-compares a served decision log with the oracle's, naming the
/// first line that differs.
pub fn check_log(expected: &str, served: &str) -> Result<(), String> {
    if expected == served {
        return Ok(());
    }
    let (mut e, mut s) = (expected.lines(), served.lines());
    let mut n = 1;
    loop {
        match (e.next(), s.next()) {
            (Some(a), Some(b)) if a == b => n += 1,
            (a, b) => {
                return Err(format!(
                    "decision log differs at line {n}: oracle {a:?}, served {b:?}"
                ))
            }
        }
    }
}

/// Extracts the log text from a `log` reply
/// (`{"ok":true,"decisions":N,"log":"…"}`).
///
/// Not through `dvs_admit::json`: its string scanner re-validates the rest
/// of the input at every character, which is quadratic in the string's
/// length and does not finish on a multi-megabyte log. The escapes are
/// exactly those `dvs_admit::json::escape` writes.
pub fn parse_log(reply: &str) -> Result<String, String> {
    let malformed = || format!("not a log reply: {:.80}", reply);
    let body = reply
        .strip_prefix("{\"ok\":true,\"decisions\":")
        .and_then(|r| r.split_once(",\"log\":\""))
        .and_then(|(_, r)| r.strip_suffix("\"}"))
        .ok_or_else(malformed)?;
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next().ok_or_else(malformed)? {
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                out.push(code.ok_or_else(malformed)?);
            }
            other => out.push(other),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionSpec};

    fn oracle(n: usize, stream_len: usize) -> Oracle {
        let spec = SessionSpec {
            standing: 32,
            load: 3.0,
            tick_every: 25.0,
            domains: 0,
            seed: 11,
        };
        let lines = Lines::new(Session::new(spec).take(n).map(|e| e.line()));
        Oracle::replay(engine(1, EngineConfig::default()), &lines, stream_len)
    }

    #[test]
    fn generated_sessions_never_fail_and_exercise_every_verdict() {
        let o = oracle(6_000, 6_000);
        assert!(o.ok.iter().all(|&ok| ok), "a generated line was refused");
        let log = o.log_after(6_000);
        for shape in ["accepted@0", "rejected", "shed@0", "readmitted@0"] {
            assert!(log.contains(shape), "no {shape} decision in the session");
        }
        assert!(o.at_stream_end.balanced());
    }

    #[test]
    fn log_prefixes_grow_with_the_session() {
        let o = oracle(2_000, 1_000);
        assert!(o.log_after(0).is_empty());
        assert!(o.log_after(2_000).starts_with(o.log_after(1_000)));
        assert!(o.log_after(1_000).len() < o.log_after(2_000).len());
        assert_eq!(o.at_stream_end.events, 1_000);
    }

    #[test]
    fn log_replies_unescape_to_the_engine_log() {
        let log = "t=1.000000 \u{3c4}1 accepted@0\nt=2.500000 \u{3c4}2 rejected\n";
        let reply = format!(
            "{{\"ok\":true,\"decisions\":2,\"log\":\"{}\"}}",
            json::escape(log)
        );
        assert_eq!(parse_log(&reply).unwrap(), log);
        assert!(parse_log("{\"ok\":false,\"kind\":\"bad-request\"}").is_err());
    }

    #[test]
    fn one_flipped_verdict_is_rejected() {
        let o = oracle(500, 500);
        let good = o.log_after(500).to_string();
        assert!(check_log(&good, &good).is_ok());
        let flipped = good.replacen("accepted@0", "rejected", 1);
        let err = check_log(&good, &flipped).unwrap_err();
        assert!(err.contains("differs at line"), "{err}");
        let truncated = &good[..good.len() / 2];
        assert!(check_log(&good, truncated).is_err());
    }
}
