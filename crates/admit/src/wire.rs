//! The wire schema of the newline-delimited JSON protocol that
//! `dvs_admitd` and `dvs_routerd` speak: one typed [`Request`] and one
//! typed [`Reply`], each with one parse and one renderer, and the
//! [`Refusal`] every endpoint answers a refused request with.
//!
//! ```
//! use dvs_admit::json::Scratch;
//! use dvs_admit::wire::{Reply, Request};
//!
//! let line = r#"{"op":"arrive","at":1,"id":3,"cycles":30,"period":100,"penalty":2.5}"#;
//! let mut scratch = Scratch::default();
//! let request = Request::parse(line, &mut scratch).unwrap();
//! assert_eq!(request.to_string(), line);
//!
//! let reply = r#"{"ok":true,"decision":"accepted","id":3,"domain":0}"#;
//! let parsed = Reply::parse(reply, &mut scratch).unwrap().unwrap();
//! assert_eq!(parsed, Reply::Verdict { id: 3, domain: Some(0), dlog: None });
//! assert_eq!(parsed.line(), reply);
//! ```
//!
//! DESIGN §12 "Serving front end" has the table of ops, fields, replies
//! and error kinds. [`Request::parse`] makes every protocol check before
//! any engine or router state is consulted, so a refusal it returns is
//! the same from a server, a router and the client's fallback. The
//! decision lines a reply echoes are [`Decision`]'s text form; its
//! `Display` and `FromStr` own that grammar.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use rt_model::io::{EventKind, EventRecord};
use rt_model::{Task, TaskId};

use crate::engine::{Decision, Verdict};
use crate::json::{self, Escaped, JsonValue};
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
    pub kind: Cow<'static, str>,
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
            kind: Cow::Borrowed(kind),
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
            Escaped(&self.kind),
            Escaped(&self.message)
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

/// Typed reads of a parsed line's fields; a failed read names the field.
struct Fields<'a>(&'a [(String, JsonValue)]);

impl<'a> Fields<'a> {
    fn get(&self, key: &str) -> Option<&'a JsonValue> {
        json::get(self.0, key)
    }

    fn is_true(&self, key: &str) -> bool {
        self.get(key) == Some(&JsonValue::Bool(true))
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
    }

    fn text(&self, key: &str) -> Result<&'a str, String> {
        self.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing or non-string field {key:?}"))
    }

    fn whole<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        whole(key, self.num(key)?).map_err(|refusal| refusal.message)
    }

    fn ids(&self, key: &str) -> Result<Vec<usize>, String> {
        let items = self
            .get(key)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("missing or non-array field {key:?}"))?;
        items
            .iter()
            .map(|item| whole(key, item.as_f64().unwrap_or(f64::NAN)).map_err(|r| r.message))
            .collect()
    }

    /// The echoed decisions, when the reply carries them.
    fn dlog(&self) -> Result<Option<Vec<Decision>>, String> {
        self.get("dlog")
            .and_then(JsonValue::as_str)
            .map(|text| text.lines().map(str::parse).collect())
            .transpose()
    }
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
        let f = Fields(
            json::parse_object_into(line, scratch)
                .map_err(|e| Refusal::bad_request(format!("bad request: {e}")))?,
        );
        let num = |key: &str| f.num(key).map_err(Refusal::bad_request);
        let text = |key: &str| f.text(key).map_err(Refusal::bad_request);
        let op = f
            .get("op")
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
            if let Some(d) = f.get("deadline").and_then(JsonValue::as_f64) {
                task = task
                    .with_deadline(whole("deadline", d)?)
                    .map_err(|e| Refusal::bad_request(e.to_string()))?;
            }
            if let Some(d) = f.get("domain").and_then(JsonValue::as_f64) {
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
                Request::Event {
                    event: EventRecord::new(at, kind),
                    dlog: f.is_true("dlog"),
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
                let member = |key| f.get(key).and_then(JsonValue::as_str);
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
                Escaped(key),
                Escaped(payload)
            )?,
            Request::ReshardAdd(spec) => write!(f, ",\"add\":\"{}\"", Escaped(spec))?,
            Request::ReshardRemove(name) => write!(f, ",\"remove\":\"{}\"", Escaped(name))?,
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

/// The `{"ok":true,…}` reply to every request but `stats` and `shutdown`
/// (those answer with the flat counter dump of
/// [`AdmissionEngine::stats_json`](crate::AdmissionEngine::stats_json)),
/// rendered by [`Reply::line`] and read back by [`Reply::parse`]. `dlog`
/// holds the echoed decisions, one [`Decision`] line each.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<'a> {
    /// An arrival's verdict.
    Verdict {
        /// The arriving task.
        id: usize,
        /// The domain it was accepted onto; `None` when rejected.
        domain: Option<usize>,
        /// Echoed decisions.
        dlog: Option<Vec<Decision>>,
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
        shed: Vec<usize>,
        /// Echoed decisions.
        dlog: Option<Vec<Decision>>,
    },
    /// A tick, the tasks it shed, and the re-solve counter.
    Tick {
        /// Shed task ids.
        shed: Vec<usize>,
        /// Re-solves run so far.
        resolves: u64,
        /// Echoed decisions.
        dlog: Option<Vec<Decision>>,
    },
    /// The decision log.
    Log {
        /// Number of decisions in it.
        decisions: u64,
        /// The log text.
        log: &'a str,
    },
    /// An exported domain's migration payload.
    Export {
        /// The local domain exported.
        domain: usize,
        /// What an import adopts.
        payload: &'a str,
    },
    /// The local domain an import landed on.
    Import {
        /// Its local index.
        local: usize,
    },
    /// One `(fenced, import key)` pair per local domain, in index order;
    /// the key names a domain that arrived by migration. On the wire a
    /// token each, space-separated: `+` live or `-` fenced, then the key
    /// (`"+ - +2:5"`); keys are whitespace-free.
    Layout(Vec<(bool, Option<&'a str>)>),
    /// The task-presence inventory a restarted router rebuilds from. On
    /// the wire, space-separated `id:domain` tokens (`id:-` unpinned)
    /// and departed ids.
    Present {
        /// Every present task and its local domain pin (`None` for an
        /// unpinned standing rejection).
        tasks: Vec<(usize, Option<usize>)>,
        /// Every departed (burned) task id.
        departed: Vec<usize>,
    },
    /// A node's failover role and fencing epoch.
    Role {
        /// `primary`, else `follower`.
        primary: bool,
        /// The fencing epoch.
        epoch: u64,
    },
    /// The router's answer to `role`.
    RouterRole {
        /// Shards in the fleet.
        shards: usize,
        /// The shard map's version.
        map_version: u64,
    },
    /// Router: the domain → shard assignment.
    Map {
        /// The shard map's version.
        version: u64,
        /// Shards in the fleet.
        shards: usize,
        /// Each global domain's member index.
        assignment: Vec<usize>,
    },
    /// Router: a landed reshard.
    Reshard {
        /// The map version after the cutover.
        version: u64,
        /// Domains migrated.
        moved: usize,
    },
    /// The client's answer for a replayed line the server had already
    /// applied before a failover.
    Resumed,
}

/// The ids of the tasks `decisions` shed: the `shed` field of a
/// departure's or a tick's reply.
#[must_use]
pub fn shed_ids(decisions: &[Decision]) -> Vec<usize> {
    decisions
        .iter()
        .filter(|d| matches!(d.verdict, Verdict::Shed { .. }))
        .map(|d| d.task.index())
        .collect()
}

impl<'a> Reply<'a> {
    /// The reply line (no newline); an event's reply in one allocation.
    #[must_use]
    pub fn line(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) -> fmt::Result {
        out.push_str("{\"ok\":true,");
        match self {
            Reply::Verdict { id, domain, .. } => match domain {
                Some(d) => write!(out, "\"decision\":\"accepted\",\"id\":{id},\"domain\":{d}"),
                None => write!(out, "\"decision\":\"rejected\",\"id\":{id}"),
            },
            Reply::Degraded { id, accepted } => {
                let decision = if *accepted { "accepted" } else { "rejected" };
                write!(
                    out,
                    "\"decision\":\"{decision}\",\"id\":{id},\"degraded\":true"
                )
            }
            Reply::Depart { id, shed, .. } => {
                write!(out, "\"id\":{id},\"shed\":[{}]", List(shed, ","))
            }
            Reply::Tick { shed, resolves, .. } => {
                write!(
                    out,
                    "\"shed\":[{}],\"resolves\":{resolves}",
                    List(shed, ",")
                )
            }
            Reply::Log { decisions, log } => {
                write!(
                    out,
                    "\"decisions\":{decisions},\"log\":\"{}\"",
                    Escaped(log)
                )
            }
            Reply::Export { domain, payload } => write!(
                out,
                "\"op\":\"export\",\"domain\":{domain},\"payload\":\"{}\"",
                Escaped(payload)
            ),
            Reply::Import { local } => write!(out, "\"op\":\"import\",\"local\":{local}"),
            Reply::Layout(slots) => {
                write!(
                    out,
                    "\"op\":\"layout\",\"domains\":{},\"layout\":\"",
                    slots.len()
                )?;
                for (i, (fenced, key)) in slots.iter().enumerate() {
                    let mark = if *fenced { '-' } else { '+' };
                    write!(out, "{}{mark}{}", sep(i), Escaped(key.unwrap_or("")))?;
                }
                out.write_char('"')
            }
            Reply::Present { tasks, departed } => {
                out.push_str("\"op\":\"present\",\"tasks\":\"");
                for (i, (id, pin)) in tasks.iter().enumerate() {
                    match pin {
                        Some(d) => write!(out, "{}{id}:{d}", sep(i))?,
                        None => write!(out, "{}{id}:-", sep(i))?,
                    }
                }
                write!(out, "\",\"departed\":\"{}\"", List(departed, " "))
            }
            Reply::Role { primary, epoch } => {
                let role = if *primary { "primary" } else { "follower" };
                write!(out, "\"role\":\"{role}\",\"epoch\":{epoch}")
            }
            Reply::RouterRole {
                shards,
                map_version,
            } => write!(
                out,
                "\"role\":\"router\",\"shards\":{shards},\"map_version\":{map_version}"
            ),
            Reply::Map {
                version,
                shards,
                assignment,
            } => write!(
                out,
                "\"version\":{version},\"domains\":{},\"shards\":{shards},\"assignment\":[{}]",
                assignment.len(),
                List(assignment, ",")
            ),
            Reply::Reshard { version, moved } => {
                write!(
                    out,
                    "\"op\":\"reshard\",\"version\":{version},\"moved\":{moved}"
                )
            }
            Reply::Resumed => out.write_str("\"resumed\":true"),
        }?;
        if let Reply::Verdict {
            dlog: Some(dlog), ..
        }
        | Reply::Depart {
            dlog: Some(dlog), ..
        }
        | Reply::Tick {
            dlog: Some(dlog), ..
        } = self
        {
            // A decision line holds nothing JSON escapes but its newline.
            out.push_str(",\"dlog\":\"");
            for d in dlog {
                write!(out, "{d}\\n")?;
            }
            out.push('"');
        }
        out.write_char('}')
    }

    /// Reads a reply line into `scratch`'s buffers: the inverse of
    /// [`Reply::line`] and of [`Refusal`]'s `Display`. `Ok(Ok(reply))` is
    /// a success, `Ok(Err(refusal))` a refusal. The shape is told by the
    /// first of these fields the line has: `op`, `role`, `decision`,
    /// `log`, `assignment`, `resolves`, `shed`, `resumed`. Unknown
    /// fields are ignored, and so is the `domains` count of `layout` and
    /// `map`, which renders as the length of the list it counts.
    ///
    /// # Errors
    ///
    /// A message naming what makes the line no reply: malformed JSON, a
    /// missing or mistyped field, or a counter dump (`stats`,
    /// `shutdown`, `cluster-stats`), which has no fixed shape.
    pub fn parse(
        line: &str,
        scratch: &'a mut json::Scratch,
    ) -> Result<Result<Self, Refusal>, String> {
        let f = Fields(json::parse_object_into(line, scratch).map_err(|e| e.to_string())?);
        match f.get("ok") {
            Some(JsonValue::Bool(true)) => {}
            Some(JsonValue::Bool(false)) => {
                return Ok(Err(Refusal {
                    kind: Cow::Owned(f.text("kind")?.to_string()),
                    id: f.get("id").map(|_| f.whole("id")).transpose()?,
                    message: f.text("error")?.to_string(),
                }));
            }
            _ => return Err("missing or non-boolean field \"ok\"".to_string()),
        }
        let tag = |key| f.get(key).map(JsonValue::as_str);
        Ok(Ok(match (tag("op"), tag("role"), tag("decision")) {
            (Some(Some("export")), ..) => Reply::Export {
                domain: f.whole("domain")?,
                payload: f.text("payload")?,
            },
            (Some(Some("import")), ..) => Reply::Import {
                local: f.whole("local")?,
            },
            (Some(Some("layout")), ..) => Reply::Layout(
                f.text("layout")?
                    .split_whitespace()
                    .map(|token| {
                        let (fenced, key) = match token.strip_prefix('+') {
                            Some(key) => (false, key),
                            None => (true, token.strip_prefix('-')?),
                        };
                        Some((fenced, Some(key).filter(|key| !key.is_empty())))
                    })
                    .collect::<Option<_>>()
                    .ok_or("a layout token is neither + nor -")?,
            ),
            (Some(Some("present")), ..) => Reply::Present {
                tasks: f
                    .text("tasks")?
                    .split_whitespace()
                    .map(|token| {
                        let (id, pin) = token.split_once(':')?;
                        let pin = if pin == "-" {
                            None
                        } else {
                            Some(pin.parse().ok()?)
                        };
                        Some((id.parse().ok()?, pin))
                    })
                    .collect::<Option<_>>()
                    .ok_or("a presence token is not id:domain or id:-")?,
                departed: f
                    .text("departed")?
                    .split_whitespace()
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("a departed id: {e}"))?,
            },
            (Some(Some("reshard")), ..) => Reply::Reshard {
                version: f.whole("version")?,
                moved: f.whole("moved")?,
            },
            (Some(op), ..) => return Err(format!("no fixed-shape reply has op {op:?}")),
            (None, Some(Some("router")), _) => Reply::RouterRole {
                shards: f.whole("shards")?,
                map_version: f.whole("map_version")?,
            },
            (None, Some(Some(role @ ("primary" | "follower"))), _) => Reply::Role {
                primary: role == "primary",
                epoch: f.whole("epoch")?,
            },
            (None, Some(role), _) => return Err(format!("unknown role {role:?}")),
            (None, None, Some(Some(decision @ ("accepted" | "rejected")))) => {
                let (id, accepted) = (f.whole("id")?, decision == "accepted");
                if f.is_true("degraded") {
                    Reply::Degraded { id, accepted }
                } else {
                    Reply::Verdict {
                        id,
                        domain: accepted.then(|| f.whole("domain")).transpose()?,
                        dlog: f.dlog()?,
                    }
                }
            }
            (None, None, Some(decision)) => {
                return Err(format!("unknown decision {decision:?}"));
            }
            (None, None, None) if f.get("log").is_some() => Reply::Log {
                decisions: f.whole("decisions")?,
                log: f.text("log")?,
            },
            (None, None, None) if f.get("assignment").is_some() => Reply::Map {
                version: f.whole("version")?,
                shards: f.whole("shards")?,
                assignment: f.ids("assignment")?,
            },
            (None, None, None) if f.get("resolves").is_some() => Reply::Tick {
                shed: f.ids("shed")?,
                resolves: f.whole("resolves")?,
                dlog: f.dlog()?,
            },
            (None, None, None) if f.get("shed").is_some() => Reply::Depart {
                id: f.whole("id")?,
                shed: f.ids("shed")?,
                dlog: f.dlog()?,
            },
            (None, None, None) if f.is_true("resumed") => Reply::Resumed,
            (None, None, None) => return Err("no fixed-shape reply has these fields".to_string()),
        }))
    }
}

/// The separator in front of item `i` of a space-separated list.
fn sep(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        " "
    }
}

/// Items separated by a separator.
struct List<'a, T>(&'a [T], &'static str);

impl<T: fmt::Display> fmt::Display for List<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.0.iter().enumerate() {
            write!(f, "{}{item}", if i == 0 { "" } else { self.1 })?;
        }
        Ok(())
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
        let decision = |verdict| Decision {
            at: 0.0,
            task: TaskId::new(3),
            verdict,
        };
        for (reply, text) in [
            (
                Reply::Verdict {
                    id: 3,
                    domain: Some(1),
                    dlog: Some(vec![decision(Verdict::Accepted { domain: 1 })]),
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
                    shed: vec![],
                    dlog: Some(vec![]),
                },
                r#"{"ok":true,"id":3,"shed":[],"dlog":""}"#,
            ),
            (
                Reply::Tick {
                    shed: vec![4, 9],
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
            (
                Reply::Export {
                    domain: 0,
                    payload: "clock 0\n\"q\"\nend\n",
                },
                r#"{"ok":true,"op":"export","domain":0,"payload":"clock 0\n\"q\"\nend\n"}"#,
            ),
            (
                Reply::Import { local: 2 },
                r#"{"ok":true,"op":"import","local":2}"#,
            ),
            (
                Reply::Layout(vec![(false, None), (true, None), (false, Some("2:5"))]),
                r#"{"ok":true,"op":"layout","domains":3,"layout":"+ - +2:5"}"#,
            ),
            (
                Reply::Layout(vec![]),
                r#"{"ok":true,"op":"layout","domains":0,"layout":""}"#,
            ),
            (
                Reply::Present {
                    tasks: vec![(7, Some(0)), (8, None)],
                    departed: vec![1, 2],
                },
                r#"{"ok":true,"op":"present","tasks":"7:0 8:-","departed":"1 2"}"#,
            ),
            (
                Reply::Role {
                    primary: false,
                    epoch: 4,
                },
                r#"{"ok":true,"role":"follower","epoch":4}"#,
            ),
            (
                Reply::RouterRole {
                    shards: 2,
                    map_version: 3,
                },
                r#"{"ok":true,"role":"router","shards":2,"map_version":3}"#,
            ),
            (
                Reply::Map {
                    version: 2,
                    shards: 3,
                    assignment: vec![0, 2, 1],
                },
                r#"{"ok":true,"version":2,"domains":3,"shards":3,"assignment":[0,2,1]}"#,
            ),
            (
                Reply::Reshard {
                    version: 2,
                    moved: 1,
                },
                r#"{"ok":true,"op":"reshard","version":2,"moved":1}"#,
            ),
            (Reply::Resumed, r#"{"ok":true,"resumed":true}"#),
        ] {
            assert_eq!(reply.line(), text);
            let mut scratch = Scratch::default();
            let parsed = Reply::parse(text, &mut scratch).unwrap();
            assert_eq!(parsed, Ok(reply), "{text}");
        }
        let refusal = Refusal::from(AdmitError::UnknownTask(TaskId::new(99)));
        let text =
            r#"{"ok":false,"kind":"unknown-task","error":"task τ99 is not present","id":99}"#;
        assert_eq!(refusal.to_string(), text);
        assert_eq!(
            Reply::parse(text, &mut Scratch::default()).unwrap(),
            Err(refusal)
        );
    }

    #[test]
    fn a_line_of_no_fixed_shape_is_an_error() {
        for line in [
            "not json",
            r#"{"op":"stats","arrivals":0}"#,
            r#"{"ok":true,"op":"stats","arrivals":0}"#,
            r#"{"ok":true,"op":"cluster-stats","arrivals":0}"#,
            r#"{"ok":true}"#,
            r#"{"ok":false,"error":"no kind"}"#,
            r#"{"ok":true,"decision":"maybe","id":1}"#,
            r#"{"ok":true,"decision":"accepted","id":1}"#,
            r#"{"ok":true,"id":1,"shed":[-1]}"#,
            r#"{"ok":true,"id":1,"shed":[],"dlog":"t=0 τ1 kept"}"#,
            r#"{"ok":true,"op":"layout","domains":1,"layout":"*"}"#,
            r#"{"ok":true,"op":"present","tasks":"7","departed":""}"#,
            r#"{"ok":true,"role":"leader","epoch":1}"#,
        ] {
            assert!(
                Reply::parse(line, &mut Scratch::default()).is_err(),
                "{line}"
            );
        }
    }
}
