//! The wire schema of the newline-delimited JSON protocol that
//! `dvs_admitd` and `dvs_routerd` speak: one typed [`Request`] with one
//! parse and one renderer, and one renderer each for the replies every
//! endpoint shares ([`Reply`], [`Refusal`]).
//!
//! ```
//! use dvs_admit::json::Scratch;
//! use dvs_admit::wire::Request;
//!
//! let line = r#"{"op":"arrive","at":1,"id":3,"cycles":30,"period":100,"penalty":2.5}"#;
//! let mut scratch = Scratch::default();
//! let request = Request::parse(line, &mut scratch).unwrap();
//! assert_eq!(request.to_string(), line);
//! ```
//!
//! DESIGN §12 "Serving front end" has the table of ops, fields, replies
//! and error kinds. [`Request::parse`] makes every protocol check before
//! any engine or router state is consulted, so a refusal it returns is
//! the same from a server, a router and the client's fallback.

use std::fmt;

use rt_model::io::{EventKind, EventRecord};
use rt_model::{Task, TaskId};

use crate::json::{self, JsonValue};
use crate::AdmitError;

/// One request line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    /// `arrive`, `depart` or `tick`.
    Event {
        /// The event; an arriving task carries its deadline and domain
        /// pin when the line gives them.
        event: EventRecord,
        /// Echo the event's decision-log lines in the reply.
        dlog: bool,
    },
    /// Fence a local domain and hand back its migration payload.
    Export {
        /// The local domain index.
        domain: usize,
    },
    /// Adopt a migrated domain under an idempotency key.
    Import {
        /// The idempotency key.
        key: &'a str,
        /// The payload an export returned.
        payload: &'a str,
    },
    /// The engine's local domain layout.
    Layout,
    /// The engine's task-presence inventory.
    Present,
    /// The metrics registry.
    Stats,
    /// The decision log.
    Log,
    /// The node's failover role and epoch.
    Role,
    /// Promote a follower.
    Promote,
    /// Final stats, then end the session.
    Shutdown,
    /// Router: the domain → shard assignment.
    Map,
    /// Router: join a member, `NAME=ADDR` (a bare `NAME` in
    /// `dvs_routerd --spawn` mode).
    ReshardAdd(&'a str),
    /// Router: drain a member by name.
    ReshardRemove(&'a str),
}

/// A refused request: the `{"ok":false,…}` reply, with a machine-readable
/// `kind`, the task it is about (when there is one) and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// `bad-request`, an [`AdmitError::kind`], or a serving-layer kind
    /// (`not-primary`, `shard-unavailable`, …).
    pub kind: &'static str,
    /// The task the refusal is about.
    pub id: Option<usize>,
    /// Human-readable reason.
    pub message: String,
}

impl Refusal {
    /// A refusal of the given kind.
    #[must_use]
    pub fn new(kind: &'static str, id: Option<usize>, message: impl Into<String>) -> Self {
        Refusal {
            kind,
            id,
            message: message.into(),
        }
    }

    /// A malformed request.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        Refusal::new("bad-request", None, message)
    }
}

/// The engine's refusal: its kind, task and message.
impl From<AdmitError> for Refusal {
    fn from(e: AdmitError) -> Self {
        Refusal::new(e.kind(), e.task_id().map(TaskId::index), e.to_string())
    }
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{\"ok\":false,\"kind\":\"{}\",\"error\":\"{}\"",
            self.kind,
            json::escape(&self.message)
        )?;
        if let Some(id) = self.id {
            write!(f, ",\"id\":{id}")?;
        }
        f.write_str("}")
    }
}

/// A protocol number that must be a non-negative whole number fitting
/// `T`, or a refusal naming the field.
fn whole<T: TryFrom<u64>>(key: &str, v: f64) -> Result<T, Refusal> {
    // `u64::MAX as f64` is 2^64, the first value a u64 cannot hold.
    (v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64)
        .then(|| T::try_from(v as u64).ok())
        .flatten()
        .ok_or_else(|| Refusal::bad_request(format!("invalid {key} {v}")))
}

impl<'a> Request<'a> {
    /// Parses one request line into `scratch`'s buffers. The checks run
    /// in one order: a JSON object; `op` names an op; the op's fields are
    /// present with the right JSON type; then, for an arrival, the
    /// penalty, the integral id and period, `Task::new`, the deadline and
    /// the domain pin. Integral fields (`id`, `period`, `deadline`,
    /// `domain`) must hold a non-negative whole number that fits their
    /// type. Unknown fields are ignored.
    ///
    /// # Errors
    ///
    /// A `bad-request` [`Refusal`] naming the first check that failed.
    pub fn parse(line: &str, scratch: &'a mut json::Scratch) -> Result<Self, Refusal> {
        let pairs = json::parse_object_into(line, scratch)
            .map_err(|e| Refusal::bad_request(format!("bad request: {e}")))?;
        let field = |key: &str| json::get(pairs, key);
        let num = |key: &str| {
            field(key).and_then(JsonValue::as_f64).ok_or_else(|| {
                Refusal::bad_request(format!("missing or non-numeric field {key:?}"))
            })
        };
        let text = |key: &str| {
            field(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| Refusal::bad_request(format!("missing or non-string field {key:?}")))
        };
        let op = field("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| Refusal::bad_request("missing field \"op\""))?;
        let task = || {
            let (id, cycles) = (num("id")?, num("cycles")?);
            let (period, penalty) = (num("period")?, num("penalty")?);
            if !penalty.is_finite() || penalty < 0.0 {
                return Err(Refusal::bad_request(format!("invalid penalty {penalty}")));
            }
            let mut task = Task::new(whole::<usize>("id", id)?, cycles, whole("period", period)?)
                .map_err(|e| Refusal::bad_request(e.to_string()))?
                .with_penalty(penalty);
            if let Some(d) = field("deadline").and_then(JsonValue::as_f64) {
                task = task
                    .with_deadline(whole("deadline", d)?)
                    .map_err(|e| Refusal::bad_request(e.to_string()))?;
            }
            if let Some(d) = field("domain").and_then(JsonValue::as_f64) {
                task = task.with_domain(whole("domain", d)?);
            }
            Ok(task)
        };
        Ok(match op {
            "arrive" | "depart" | "tick" => {
                let at = num("at")?;
                let kind = match op {
                    "arrive" => EventKind::Arrive(task()?),
                    "depart" => EventKind::Depart(TaskId::new(whole("id", num("id")?)?)),
                    _ => EventKind::Tick,
                };
                let dlog = field("dlog") == Some(&JsonValue::Bool(true));
                Request::Event {
                    event: EventRecord::new(at, kind),
                    dlog,
                }
            }
            "export" => Request::Export {
                domain: whole("domain", num("domain")?)?,
            },
            "import" => Request::Import {
                key: text("key")?,
                payload: text("payload")?,
            },
            "layout" => Request::Layout,
            "present" => Request::Present,
            "stats" => Request::Stats,
            "log" => Request::Log,
            "role" => Request::Role,
            "promote" => Request::Promote,
            "shutdown" => Request::Shutdown,
            "map" => Request::Map,
            "reshard" => {
                let member = |key| field(key).and_then(JsonValue::as_str);
                match (member("add"), member("remove")) {
                    (Some(spec), None) => Request::ReshardAdd(spec),
                    (None, Some(name)) => Request::ReshardRemove(name),
                    _ => {
                        return Err(Refusal::bad_request(
                            "reshard needs exactly one of \"add\" or \"remove\"",
                        ));
                    }
                }
            }
            other => return Err(Refusal::bad_request(format!("unknown op {other:?}"))),
        })
    }

    /// The `"op"` value.
    fn op(&self) -> &'static str {
        match self {
            Request::Event { event, .. } => match event.kind {
                EventKind::Arrive(_) => "arrive",
                EventKind::Depart(_) => "depart",
                EventKind::Tick => "tick",
            },
            Request::Export { .. } => "export",
            Request::Import { .. } => "import",
            Request::Layout => "layout",
            Request::Present => "present",
            Request::Stats => "stats",
            Request::Log => "log",
            Request::Role => "role",
            Request::Promote => "promote",
            Request::Shutdown => "shutdown",
            Request::Map => "map",
            Request::ReshardAdd(_) | Request::ReshardRemove(_) => "reshard",
        }
    }

    /// The refusal of a well-formed request for an op this endpoint does
    /// not serve.
    #[must_use]
    pub fn unknown_op(&self) -> Refusal {
        Refusal::bad_request(format!("unknown op {:?}", self.op()))
    }
}

/// Renders the request line (no newline). Numbers print in their
/// shortest round-trip form, so parsing the line gives this request
/// back; an implicit deadline (equal to the period) is left out.
impl fmt::Display for Request<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{\"op\":\"{}\"", self.op())?;
        match self {
            Request::Event { event, dlog } => {
                write!(f, ",\"at\":{}", event.at)?;
                match event.kind {
                    EventKind::Arrive(task) => {
                        write!(
                            f,
                            ",\"id\":{},\"cycles\":{},\"period\":{}",
                            task.id().index(),
                            task.wcec(),
                            task.period()
                        )?;
                        if !task.is_implicit_deadline() {
                            write!(f, ",\"deadline\":{}", task.deadline())?;
                        }
                        write!(f, ",\"penalty\":{}", task.penalty())?;
                        if let Some(d) = task.domain() {
                            write!(f, ",\"domain\":{d}")?;
                        }
                    }
                    EventKind::Depart(id) => write!(f, ",\"id\":{}", id.index())?,
                    EventKind::Tick => {}
                }
                if *dlog {
                    f.write_str(",\"dlog\":true")?;
                }
            }
            Request::Export { domain } => write!(f, ",\"domain\":{domain}")?,
            Request::Import { key, payload } => write!(
                f,
                ",\"key\":\"{}\",\"payload\":\"{}\"",
                json::escape(key),
                json::escape(payload)
            )?,
            Request::ReshardAdd(spec) => write!(f, ",\"add\":\"{}\"", json::escape(spec))?,
            Request::ReshardRemove(name) => write!(f, ",\"remove\":\"{}\"", json::escape(name))?,
            _ => {}
        }
        f.write_str("}")
    }
}

impl From<&EventRecord> for Request<'_> {
    fn from(event: &EventRecord) -> Self {
        Request::Event {
            event: event.clone(),
            dlog: false,
        }
    }
}

/// The `{"ok":true,…}` replies to the event ops and to `log`, rendered by
/// [`Reply::line`]. `dlog` is the echoed decision-log text, one line per
/// decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply<'a> {
    /// An arrival's verdict.
    Verdict {
        /// The arriving task.
        id: usize,
        /// The domain it was accepted onto; `None` when rejected.
        domain: Option<usize>,
        /// Echoed decision lines.
        dlog: Option<&'a str>,
    },
    /// The client fallback's advisory verdict (`"degraded":true`).
    Degraded {
        /// The arriving task.
        id: usize,
        /// Whether the local rule admitted it.
        accepted: bool,
    },
    /// A departure and the tasks its re-solve shed.
    Depart {
        /// The departed task.
        id: usize,
        /// Shed task ids.
        shed: &'a [usize],
        /// Echoed decision lines.
        dlog: Option<&'a str>,
    },
    /// A tick, the tasks it shed, and the re-solve counter.
    Tick {
        /// Shed task ids.
        shed: &'a [usize],
        /// Re-solves run so far.
        resolves: u64,
        /// Echoed decision lines.
        dlog: Option<&'a str>,
    },
    /// The decision log.
    Log {
        /// Number of decisions in it.
        decisions: u64,
        /// The log text.
        log: &'a str,
    },
}

impl Reply<'_> {
    /// The reply line (no newline), in one allocation: `format!` sizes it
    /// from its literal text, and the echoed lines are escaped in place.
    #[must_use]
    pub fn line(&self) -> String {
        let (mut out, dlog) = match *self {
            Reply::Verdict { id, domain, dlog } => {
                let line = match domain {
                    Some(d) => format!(
                        "{{\"ok\":true,\"decision\":\"accepted\",\"id\":{id},\"domain\":{d}"
                    ),
                    None => format!("{{\"ok\":true,\"decision\":\"rejected\",\"id\":{id}"),
                };
                (line, dlog)
            }
            Reply::Degraded { id, accepted } => {
                let decision = if accepted { "accepted" } else { "rejected" };
                let line = format!(
                    "{{\"ok\":true,\"decision\":\"{decision}\",\"id\":{id},\"degraded\":true"
                );
                (line, None)
            }
            Reply::Depart { id, shed, dlog } => (
                format!("{{\"ok\":true,\"id\":{id},\"shed\":{}", Ids(shed)),
                dlog,
            ),
            Reply::Tick {
                shed,
                resolves,
                dlog,
            } => (
                format!(
                    "{{\"ok\":true,\"shed\":{},\"resolves\":{resolves}",
                    Ids(shed)
                ),
                dlog,
            ),
            Reply::Log { decisions, log } => {
                let mut line = format!("{{\"ok\":true,\"decisions\":{decisions},\"log\":\"");
                json::escape_into(&mut line, log);
                line.push('"');
                (line, None)
            }
        };
        if let Some(text) = dlog {
            out.push_str(",\"dlog\":\"");
            json::escape_into(&mut out, text);
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// A JSON array of ids.
struct Ids<'a>(&'a [usize]);

impl fmt::Display for Ids<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, id) in self.0.iter().enumerate() {
            write!(f, "{}{id}", if i == 0 { "" } else { "," })?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::json::Scratch;

    #[test]
    fn every_op_renders_to_a_line_that_parses_back() {
        for line in [
            r#"{"op":"arrive","at":0.5,"id":7,"cycles":30.25,"period":100,"deadline":60,"penalty":2.5,"domain":3,"dlog":true}"#,
            r#"{"op":"arrive","at":0,"id":1,"cycles":0,"period":1,"penalty":0}"#,
            r#"{"op":"depart","at":1e3,"id":7}"#,
            r#"{"op":"tick","at":-0,"dlog":true}"#,
            r#"{"op":"export","domain":2}"#,
            r#"{"op":"import","key":"2:5","payload":"a \"b\"\nc"}"#,
            r#"{"op":"layout"}"#,
            r#"{"op":"present"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"log"}"#,
            r#"{"op":"role"}"#,
            r#"{"op":"promote"}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"op":"map"}"#,
            r#"{"op":"reshard","add":"s2=127.0.0.1:9"}"#,
            r#"{"op":"reshard","remove":"s2"}"#,
        ] {
            let (mut first, mut again) = (Scratch::default(), Scratch::default());
            let request = Request::parse(line, &mut first).unwrap();
            let rendered = request.to_string();
            let reparsed = Request::parse(&rendered, &mut again).unwrap();
            assert_eq!(reparsed, request, "{line} -> {rendered}");
        }
        // An explicit deadline equal to the period is the implicit one.
        let line =
            r#"{"op":"arrive","at":0,"id":1,"cycles":5,"period":10,"deadline":10,"penalty":1}"#;
        let request = Request::parse(line, &mut Scratch::default()).map(|r| r.to_string());
        assert!(!request.unwrap().contains("deadline"));
    }

    #[test]
    fn refusals_name_the_first_failed_check() {
        for (line, message) in [
            ("[]", "bad request: byte 0: expected '{'"),
            (r#"{"op":7}"#, "missing field \"op\""),
            (r#"{"op":"warp"}"#, "unknown op \"warp\""),
            (
                r#"{"op":"arrive","at":0,"id":1.5,"period":10,"penalty":1}"#,
                "missing or non-numeric field \"cycles\"",
            ),
            (
                r#"{"op":"arrive","at":0,"id":-3,"cycles":1,"period":10,"penalty":-1}"#,
                "invalid penalty -1",
            ),
            (
                r#"{"op":"arrive","at":0,"id":-3,"cycles":1,"period":10,"penalty":1}"#,
                "invalid id -3",
            ),
            (
                r#"{"op":"arrive","at":0,"id":1,"cycles":1,"period":100.7,"penalty":1}"#,
                "invalid period 100.7",
            ),
            (
                r#"{"op":"arrive","at":0,"id":1e20,"cycles":1,"period":10,"penalty":1}"#,
                "invalid id 100000000000000000000",
            ),
            (
                r#"{"op":"arrive","at":0,"id":1,"cycles":1,"period":10,"deadline":2.5,"penalty":1}"#,
                "invalid deadline 2.5",
            ),
            (
                r#"{"op":"arrive","at":0,"id":1,"cycles":1,"period":10,"penalty":1,"domain":-1}"#,
                "invalid domain -1",
            ),
            (r#"{"op":"depart","at":0,"id":1.5}"#, "invalid id 1.5"),
            (r#"{"op":"export","domain":-1}"#, "invalid domain -1"),
            (
                r#"{"op":"import","key":"k"}"#,
                "missing or non-string field \"payload\"",
            ),
            (
                r#"{"op":"reshard","add":"a","remove":"b"}"#,
                "reshard needs exactly one of \"add\" or \"remove\"",
            ),
        ] {
            let refusal = Request::parse(line, &mut Scratch::default()).unwrap_err();
            assert_eq!(refusal.kind, "bad-request", "{line}");
            assert_eq!(refusal.message, message, "{line}");
        }
    }

    #[test]
    fn replies_render_the_protocol_shapes() {
        let shed = [4, 9];
        for (reply, text) in [
            (
                Reply::Verdict {
                    id: 3,
                    domain: Some(1),
                    dlog: Some("t=0.000000 τ3 accepted@1\n"),
                },
                r#"{"ok":true,"decision":"accepted","id":3,"domain":1,"dlog":"t=0.000000 τ3 accepted@1\n"}"#,
            ),
            (
                Reply::Verdict {
                    id: 3,
                    domain: None,
                    dlog: None,
                },
                r#"{"ok":true,"decision":"rejected","id":3}"#,
            ),
            (
                Reply::Degraded {
                    id: 3,
                    accepted: true,
                },
                r#"{"ok":true,"decision":"accepted","id":3,"degraded":true}"#,
            ),
            (
                Reply::Depart {
                    id: 3,
                    shed: &[],
                    dlog: None,
                },
                r#"{"ok":true,"id":3,"shed":[]}"#,
            ),
            (
                Reply::Tick {
                    shed: &shed,
                    resolves: 2,
                    dlog: None,
                },
                r#"{"ok":true,"shed":[4,9],"resolves":2}"#,
            ),
            (
                Reply::Log {
                    decisions: 1,
                    log: "a\n",
                },
                r#"{"ok":true,"decisions":1,"log":"a\n"}"#,
            ),
        ] {
            assert_eq!(reply.line(), text);
        }
        let refusal = Refusal::from(AdmitError::UnknownTask(TaskId::new(99)));
        assert_eq!(
            refusal.to_string(),
            r#"{"ok":false,"kind":"unknown-task","error":"task τ99 is not present","id":99}"#
        );
    }
}
