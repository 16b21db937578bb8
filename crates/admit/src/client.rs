//! A resilient line-protocol client for `dvs_admitd`.
//!
//! [`AdmitClient`] wraps one logical request stream to an admission
//! server with the retry machinery a failover deployment needs:
//!
//! * **Reconnect with exponential backoff and deterministic jitter**
//!   ([`replication::backoff_delay`]) — transient connect failures and
//!   dropped connections are retried up to
//!   [`ClientConfig::max_attempts`] times per request.
//! * **Request timeouts** — a server that accepts the connection but
//!   never answers is abandoned, not waited on forever.
//! * **A circuit breaker** — after
//!   [`ClientConfig::breaker_threshold`] consecutive request failures
//!   the breaker *trips*: for [`ClientConfig::breaker_cooldown`] the
//!   client stops hammering the dead server and, if a [`LocalMyopic`]
//!   fallback is installed, answers arrive requests **degraded-locally**
//!   with the same myopic pricing rule the engine itself uses (responses
//!   carry `"degraded":true` so callers can tell). After the cooldown
//!   one probe request is allowed through (half-open); success closes
//!   the breaker.
//! * **Exactly-once replay across failover** ([`AdmitClient::replay`]).
//!   The engine's `events` counter — returned by `{"op":"stats"}` and
//!   preserved across failover because the follower replays the
//!   primary's journal — is a *cursor* into the client's event stream.
//!   On reconnect the client compares the server cursor against its own
//!   applied count: a request whose response was lost but which did
//!   apply is **not** resent (cursor advanced past it); one that never
//!   applied is resent. Validate-before-mutate idempotency on the server
//!   (`duplicate-task` / `already-departed` are rejected without
//!   mutating) backstops the rare ambiguous resend.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dvs_power::Processor;
use reject_sched::Instance;
use rt_model::{Task, TaskSet};

use crate::engine::{EnginePolicy, RESERVED_ANCHOR_ID};
use crate::json::{self, JsonValue};
use crate::replication::backoff_delay;
use crate::AdmitError;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Per-request response timeout.
    pub request_timeout: Duration,
    /// Connect timeout.
    pub connect_timeout: Duration,
    /// Total connect+send attempts per request before giving up.
    pub max_attempts: u32,
    /// Reconnect backoff base (doubled per consecutive failure, jittered).
    pub backoff_base: Duration,
    /// Reconnect backoff cap.
    pub backoff_cap: Duration,
    /// Consecutive request failures that trip the circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before a half-open probe.
    pub breaker_cooldown: Duration,
    /// Jitter seed (deterministic backoff in tests).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: String::new(),
            request_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(250),
            max_attempts: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            seed: 0xC11E_27B5,
        }
    }
}

/// Monotone counters describing the client's retry behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientMetrics {
    /// Requests answered by a server.
    pub responses: u64,
    /// Connect or send/receive attempts that failed and were retried.
    pub retries: u64,
    /// Fresh TCP connections established (the first one included).
    pub connects: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Requests answered by the local degraded fallback.
    pub degraded_decisions: u64,
    /// Replay resends suppressed because the server cursor showed the
    /// event had already applied (response lost in the failover).
    pub resend_suppressed: u64,
    /// Replay lines resent after a failover.
    pub resent: u64,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// All attempts failed and no fallback could answer.
    Unavailable {
        /// Attempts made.
        attempts: u32,
        /// The last I/O error observed.
        last: std::io::Error,
    },
    /// The server answered with something the client cannot parse.
    Protocol(String),
    /// A local fallback decision failed (oracle error).
    Fallback(AdmitError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unavailable { attempts, last } => {
                write!(f, "server unavailable after {attempts} attempts: {last}")
            }
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Fallback(e) => write!(f, "fallback error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// The degraded local decision-maker: a single-domain myopic admission
/// rule priced by the same billing-horizon oracle the engine uses.
/// Decisions made here are **advisory** — they are not journaled and not
/// replicated — but they let a latency-critical caller keep answering
/// while the servers fail over.
pub struct LocalMyopic {
    oracle: Instance,
    policy: Box<dyn EnginePolicy>,
    committed: f64,
}

impl std::fmt::Debug for LocalMyopic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalMyopic")
            .field("policy", &self.policy.name())
            .field("committed", &self.committed)
            .finish()
    }
}

impl LocalMyopic {
    /// Builds a fallback over one power domain, pricing against `horizon`
    /// (use the server's `EngineConfig::horizon` for matching economics).
    ///
    /// # Errors
    ///
    /// Propagates model/oracle construction errors.
    pub fn new(
        cpu: Processor,
        policy: Box<dyn EnginePolicy>,
        horizon: u64,
    ) -> Result<Self, AdmitError> {
        let anchor = Task::new(RESERVED_ANCHOR_ID, 0.0, horizon)?;
        let oracle = Instance::new(TaskSet::try_from_tasks([anchor])?, cpu)?;
        Ok(LocalMyopic {
            oracle,
            policy,
            committed: 0.0,
        })
    }

    /// Decides an arrival locally, committing its utilization on accept
    /// (mirroring the engine's single-domain arrive accounting).
    ///
    /// # Errors
    ///
    /// Propagates oracle errors.
    pub fn decide(&mut self, task: &Task) -> Result<bool, AdmitError> {
        let admit = self.policy.decide(&self.oracle, self.committed, task)?;
        if admit {
            self.committed += task.utilization();
        }
        Ok(admit)
    }

    /// Releases a previously committed task's utilization (departure).
    pub fn release(&mut self, task_utilization: f64) {
        self.committed = (self.committed - task_utilization).max(0.0);
    }
}

/// Breaker state.
#[derive(Debug)]
enum Breaker {
    Closed,
    Open { since: Instant },
}

/// What a replayed line resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayDisposition {
    /// Applied by this replay (normal path).
    Applied,
    /// The server cursor showed it had applied before the failover;
    /// resend suppressed.
    AlreadyApplied,
    /// Resent and rejected as a benign duplicate
    /// (`duplicate-task` / `already-departed`) — it was applied earlier.
    DuplicateResend,
}

/// Result of [`AdmitClient::replay`].
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Per-line responses (the server's JSON, or the suppression marker).
    pub responses: Vec<String>,
    /// Per-line dispositions, parallel to `responses`.
    pub dispositions: Vec<ReplayDisposition>,
    /// Reconnections that interrupted the replay.
    pub interruptions: u64,
}

/// A resilient admission client (see the module docs).
#[derive(Debug)]
pub struct AdmitClient {
    config: ClientConfig,
    conn: Option<BufReader<TcpStream>>,
    /// Every line sent whose reply has not been read, newline-terminated,
    /// oldest first; `line_lens` holds their lengths.
    unanswered: String,
    line_lens: VecDeque<usize>,
    /// How much of `unanswered` the current connection has carried.
    written: usize,
    metrics: ClientMetrics,
    consecutive_failures: u32,
    breaker: Breaker,
    fallback: Option<LocalMyopic>,
    rng: u64,
}

impl AdmitClient {
    /// A client for `config.addr`, not yet connected (the first request
    /// connects).
    #[must_use]
    pub fn new(config: ClientConfig) -> Self {
        let rng = config.seed;
        AdmitClient {
            config,
            conn: None,
            unanswered: String::new(),
            line_lens: VecDeque::new(),
            written: 0,
            metrics: ClientMetrics::default(),
            consecutive_failures: 0,
            breaker: Breaker::Closed,
            fallback: None,
            rng,
        }
    }

    /// Installs a degraded-mode local decision-maker used while the
    /// breaker is open.
    #[must_use]
    pub fn with_fallback(mut self, fallback: LocalMyopic) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// The retry/breaker counters.
    #[must_use]
    pub fn metrics(&self) -> ClientMetrics {
        self.metrics
    }

    /// Whether the breaker is currently open (cooldown not elapsed).
    #[must_use]
    pub fn breaker_open(&self) -> bool {
        match self.breaker {
            Breaker::Closed => false,
            Breaker::Open { since } => since.elapsed() < self.config.breaker_cooldown,
        }
    }

    fn connect(&mut self) -> std::io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        // `connect_timeout` needs a resolved SocketAddr; resolve through
        // std's ToSocketAddrs and try each candidate.
        let mut last = std::io::Error::new(std::io::ErrorKind::NotFound, "no address resolved");
        let addrs = std::net::ToSocketAddrs::to_socket_addrs(&self.config.addr)?;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.config.request_timeout))?;
                    let _ = stream.set_nodelay(true);
                    self.conn = Some(BufReader::new(stream));
                    self.metrics.connects += 1;
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Queues `line` behind any unanswered ones without waiting for its
    /// reply; [`recv`](Self::recv) returns replies in the order the lines
    /// were sent. Nothing reaches the socket until [`flush`](Self::flush)
    /// (or the next `recv`), so a burst of sends costs one write.
    ///
    /// A line stays queued until its reply has been read: when the
    /// connection drops, the reconnect resends every unanswered line, in
    /// order, before anything newer. Transport errors surface from `recv`.
    pub fn send(&mut self, line: &str) {
        self.unanswered.push_str(line);
        self.unanswered.push('\n');
        self.line_lens.push_back(line.len() + 1);
    }

    /// Bytes sent (or queued) whose replies have not been read yet.
    #[must_use]
    pub fn unanswered_bytes(&self) -> usize {
        self.unanswered.len()
    }

    /// Writes every queued line that this connection has not carried yet,
    /// connecting first if need be. Errors are kept for `recv` to retry:
    /// a failed write only drops the connection.
    pub fn flush(&mut self) {
        let _ = self.try_flush();
    }

    fn try_flush(&mut self) -> std::io::Result<()> {
        if self.written == self.unanswered.len() {
            return Ok(());
        }
        self.connect()?;
        let conn = self.conn.as_mut().expect("connected above");
        let unwritten = &self.unanswered.as_bytes()[self.written..];
        if let Err(e) = conn.get_mut().write_all(unwritten) {
            self.drop_connection();
            return Err(e);
        }
        self.written = self.unanswered.len();
        Ok(())
    }

    /// Forgets the connection; the next flush starts the unanswered
    /// lines over on a fresh one.
    fn drop_connection(&mut self) {
        self.conn = None;
        self.written = 0;
    }

    /// One flush-and-read attempt at the oldest unanswered line's reply.
    fn attempt(&mut self) -> std::io::Result<String> {
        self.try_flush()?;
        let conn = self.conn.as_mut().expect("flushed above");
        let mut response = String::new();
        match conn.read_line(&mut response) {
            Ok(0) => {
                self.drop_connection();
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(_) => {
                response.truncate(response.trim_end().len());
                Ok(response)
            }
            Err(e) => {
                self.drop_connection();
                Err(e)
            }
        }
    }

    /// Reads the reply to the oldest unanswered line, retrying with
    /// backoff across connection failures (each reconnect resends what is
    /// still unanswered). When every attempt fails the line is given up
    /// — the next `recv` is about the line after it — and the failure
    /// counts towards the circuit breaker; while the breaker is open
    /// `recv` fails without touching the network.
    ///
    /// # Errors
    ///
    /// [`ClientError::Unavailable`].
    ///
    /// # Panics
    ///
    /// If every line sent has already been answered.
    pub fn recv(&mut self) -> Result<String, ClientError> {
        let len = self
            .line_lens
            .pop_front()
            .expect("recv needs an unanswered send");
        let outcome = self.recv_oldest();
        self.unanswered.drain(..len);
        self.written = self.written.saturating_sub(len);
        outcome.map_err(|last| ClientError::Unavailable {
            attempts: self.config.max_attempts,
            last,
        })
    }

    fn recv_oldest(&mut self) -> std::io::Result<String> {
        if self.breaker_open() {
            self.drop_connection();
            return Err(std::io::Error::other("breaker open"));
        }
        let mut last = std::io::Error::other("no attempt made");
        for attempt in 0..self.config.max_attempts {
            if attempt > 0 {
                self.metrics.retries += 1;
                let delay = backoff_delay(
                    self.config.backoff_base,
                    self.config.backoff_cap,
                    attempt - 1,
                    &mut self.rng,
                );
                std::thread::sleep(delay);
            }
            match self.attempt() {
                Ok(response) => {
                    self.consecutive_failures = 0;
                    self.breaker = Breaker::Closed;
                    self.metrics.responses += 1;
                    return Ok(response);
                }
                Err(e) => last = e,
            }
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.config.breaker_threshold {
            if !matches!(self.breaker, Breaker::Open { .. }) {
                self.metrics.breaker_trips += 1;
            }
            self.breaker = Breaker::Open {
                since: Instant::now(),
            };
        }
        Err(last)
    }

    /// Sends one request line and returns the server's response line,
    /// retrying with backoff across connection failures. While the
    /// breaker is open, arrive requests are answered by the local
    /// fallback (if installed) and everything else fails fast.
    ///
    /// Must not be interleaved with unanswered [`send`](Self::send)s: the
    /// reply read is the oldest outstanding one.
    ///
    /// # Errors
    ///
    /// [`ClientError::Unavailable`] when every attempt failed and no
    /// fallback could answer; [`ClientError::Fallback`] when the local
    /// decision itself errored.
    pub fn request(&mut self, line: &str) -> Result<String, ClientError> {
        if self.breaker_open() {
            return self.degrade(line, None);
        }
        self.send(line);
        match self.recv() {
            Err(ClientError::Unavailable { last, .. }) => self.degrade(line, Some(last)),
            answered => answered,
        }
    }

    /// Answers locally (arrive requests, fallback installed) or reports
    /// unavailability.
    fn degrade(&mut self, line: &str, last: Option<std::io::Error>) -> Result<String, ClientError> {
        let unavailable = |attempts, last: Option<std::io::Error>| ClientError::Unavailable {
            attempts,
            last: last.unwrap_or_else(|| std::io::Error::other("breaker open")),
        };
        let Some(fallback) = self.fallback.as_mut() else {
            return Err(unavailable(self.config.max_attempts, last));
        };
        let mut scratch = json::Scratch::default();
        let Ok(pairs) = json::parse_object_into(line, &mut scratch) else {
            return Err(unavailable(self.config.max_attempts, last));
        };
        let op = json::get(pairs, "op").and_then(JsonValue::as_str);
        match op {
            Some("arrive") => {
                let task = parse_arrive_task(pairs).map_err(ClientError::Protocol)?;
                let admit = fallback.decide(&task).map_err(ClientError::Fallback)?;
                self.metrics.degraded_decisions += 1;
                let id = task.id();
                Ok(if admit {
                    format!(
                        "{{\"ok\":true,\"decision\":\"accepted\",\"id\":{id},\"degraded\":true}}"
                    )
                } else {
                    format!(
                        "{{\"ok\":true,\"decision\":\"rejected\",\"id\":{id},\"degraded\":true}}"
                    )
                })
            }
            _ => Err(unavailable(self.config.max_attempts, last)),
        }
    }

    /// The server's event cursor: the engine's `events` counter from
    /// `{"op":"stats"}`. Survives failover (the follower replays the
    /// primary's journal), which is what makes it usable as a replay
    /// resume point.
    ///
    /// # Errors
    ///
    /// Propagates request failures; [`ClientError::Protocol`] when the
    /// stats dump has no `events` field.
    pub fn cursor(&mut self) -> Result<u64, ClientError> {
        let response = self.request("{\"op\":\"stats\"}")?;
        parse_events(&response)
            .ok_or_else(|| ClientError::Protocol(format!("no events counter in {response}")))
    }

    /// Replays `lines` (one event request per line, each of which applies
    /// exactly one engine event) with exactly-once semantics across
    /// failover: `base` is the server cursor before the first line — pass
    /// [`AdmitClient::cursor`] taken before sending, or 0 for a fresh
    /// server. When a request fails mid-stream the client reconnects
    /// (waiting out the breaker if it tripped), re-reads the cursor, and
    /// resumes: lines the cursor shows as applied are **not** resent.
    ///
    /// # Errors
    ///
    /// Gives up when a line cannot be delivered after the configured
    /// retries *and* the cursor cannot be re-read; the report's
    /// `responses` then covers the delivered prefix.
    pub fn replay(&mut self, lines: &[String], base: u64) -> Result<ReplayReport, ClientError> {
        let mut report = ReplayReport::default();
        let mut applied: u64 = 0;
        let mut i = 0usize;
        while i < lines.len() {
            match self.request(&lines[i]) {
                Ok(response) => {
                    let disposition = if is_benign_duplicate(&response) {
                        self.metrics.resent += 1;
                        ReplayDisposition::DuplicateResend
                    } else {
                        ReplayDisposition::Applied
                    };
                    report.responses.push(response);
                    report.dispositions.push(disposition);
                    applied += 1;
                    i += 1;
                }
                Err(_) => {
                    report.interruptions += 1;
                    // Wait out the breaker, then re-read the cursor to
                    // learn how far the stream really got.
                    self.wait_breaker();
                    let target = self.cursor()?.saturating_sub(base);
                    if target > applied {
                        // The in-flight line applied; its response was
                        // lost to the failover. Do not resend.
                        report
                            .responses
                            .push("{\"ok\":true,\"resumed\":true}".to_string());
                        report.dispositions.push(ReplayDisposition::AlreadyApplied);
                        self.metrics.resend_suppressed += 1;
                        applied += 1;
                        i += 1;
                    }
                    // target == applied: the line never applied — loop
                    // resends it.
                }
            }
        }
        Ok(report)
    }

    fn wait_breaker(&mut self) {
        while self.breaker_open() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Parses an arrive request into a [`Task`] (same fields as the server).
fn parse_arrive_task(pairs: &[(String, JsonValue)]) -> Result<Task, String> {
    let num = |key: &str| {
        json::get(pairs, key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric field \"{key}\""))
    };
    let id = num("id")? as usize;
    let cycles = num("cycles")?;
    let period = num("period")? as u64;
    let penalty = num("penalty")?;
    let mut task = Task::new(id, cycles, period)
        .map_err(|e| e.to_string())?
        .with_penalty(penalty);
    if let Some(d) = json::get(pairs, "deadline").and_then(JsonValue::as_f64) {
        task = task.with_deadline(d as u64).map_err(|e| e.to_string())?;
    }
    Ok(task)
}

/// Extracts the `events` counter from a stats dump.
fn parse_events(stats: &str) -> Option<u64> {
    let doc = json::parse_document(stats).ok()?;
    let obj = doc.as_obj()?;
    json::get(obj, "events")
        .and_then(JsonValue::as_f64)
        .map(|v| v as u64)
}

/// Whether a response is the benign rejection of a resent duplicate.
fn is_benign_duplicate(response: &str) -> bool {
    if !response.contains("\"ok\":false") {
        return false;
    }
    response.contains("\"kind\":\"duplicate-task\"")
        || response.contains("\"kind\":\"already-departed\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_power::presets::cubic_ideal;
    use reject_sched::online::OnlineGreedy;

    #[test]
    fn local_myopic_admits_until_capacity_prices_out() {
        let mut local = LocalMyopic::new(cubic_ideal(), Box::new(OnlineGreedy), 1000).unwrap();
        // Cheap, high-penalty task: admitted.
        let t = Task::new(1, 10.0, 1000).unwrap().with_penalty(100.0);
        assert!(local.decide(&t).unwrap());
        // Utilization was committed.
        assert!(local.committed > 0.0);
        // A worthless expensive task at committed load: rejected.
        let t = Task::new(2, 900.0, 1000).unwrap().with_penalty(1e-9);
        assert!(!local.decide(&t).unwrap());
        let before = local.committed;
        local.release(0.005);
        assert!(local.committed < before);
    }

    #[test]
    fn breaker_trips_after_threshold_and_degrades_arrivals() {
        // Point the client at a port nothing listens on.
        let config = ClientConfig {
            addr: "127.0.0.1:1".to_string(),
            request_timeout: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(20),
            max_attempts: 1,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(60),
            ..ClientConfig::default()
        };
        let fallback = LocalMyopic::new(cubic_ideal(), Box::new(OnlineGreedy), 1000).unwrap();
        let mut client = AdmitClient::new(config).with_fallback(fallback);
        let arrive = r#"{"op":"arrive","at":0,"id":1,"cycles":30.0,"period":1000,"penalty":2.5}"#;
        // First failure: fallback answers (degraded), breaker still closed.
        let r = client.request(arrive).unwrap();
        assert!(r.contains("\"degraded\":true"), "{r}");
        assert!(!client.breaker_open());
        // Second failure trips the breaker.
        let arrive2 = r#"{"op":"arrive","at":1,"id":2,"cycles":30.0,"period":1000,"penalty":2.5}"#;
        let r = client.request(arrive2).unwrap();
        assert!(r.contains("\"degraded\":true"), "{r}");
        assert!(client.breaker_open());
        assert_eq!(client.metrics().breaker_trips, 1);
        // While open, arrivals answer instantly from the fallback…
        let arrive3 = r#"{"op":"arrive","at":2,"id":3,"cycles":30.0,"period":1000,"penalty":2.5}"#;
        let started = Instant::now();
        let r = client.request(arrive3).unwrap();
        assert!(r.contains("\"degraded\":true"), "{r}");
        assert!(
            started.elapsed() < Duration::from_millis(40),
            "no dial while open"
        );
        // …and non-arrive requests fail fast.
        assert!(matches!(
            client.request("{\"op\":\"stats\"}"),
            Err(ClientError::Unavailable { .. })
        ));
        assert_eq!(client.metrics().degraded_decisions, 3);
    }

    #[test]
    fn pipelined_replies_come_back_in_order_and_a_reconnect_resends_the_unanswered() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // First connection: reads three lines, answers only the first,
        // hangs up. Second connection: answers whatever arrives.
        let server = std::thread::spawn(move || {
            let mut seen: Vec<Vec<String>> = Vec::new();
            for answered in [1, usize::MAX] {
                let (stream, _) = listener.accept().unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut lines = Vec::new();
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    if lines.len() < answered {
                        writeln!(writer, "re:{line}").unwrap();
                    }
                    lines.push(line);
                    if answered == 1 && lines.len() == 3 {
                        break;
                    }
                }
                seen.push(lines);
            }
            seen
        });
        let mut client = AdmitClient::new(ClientConfig {
            addr,
            backoff_base: Duration::from_millis(1),
            ..ClientConfig::default()
        });
        for line in ["a", "b", "c"] {
            client.send(line);
        }
        assert_eq!(client.unanswered_bytes(), 6);
        assert_eq!(client.recv().unwrap(), "re:a");
        // The hang-up surfaces here; b and c are resent, d goes behind.
        client.send("d");
        assert_eq!(client.recv().unwrap(), "re:b");
        assert_eq!(client.recv().unwrap(), "re:c");
        assert_eq!(client.request("e").unwrap(), "re:d");
        assert_eq!(client.recv().unwrap(), "re:e");
        assert_eq!(client.unanswered_bytes(), 0);
        assert_eq!(client.metrics().connects, 2);
        assert_eq!(client.metrics().responses, 5);
        drop(client);
        let seen = server.join().unwrap();
        assert_eq!(seen[0], ["a", "b", "c"]);
        assert_eq!(seen[1], ["b", "c", "d", "e"]);
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let mut a = 42u64;
        let mut b = 42u64;
        for attempt in 0..6 {
            let base = Duration::from_millis(10);
            let cap = Duration::from_millis(200);
            assert_eq!(
                backoff_delay(base, cap, attempt, &mut a),
                backoff_delay(base, cap, attempt, &mut b)
            );
        }
        // Exponential up to the cap (jitter bounded by base).
        let mut rng = 7u64;
        let d0 = backoff_delay(
            Duration::from_millis(10),
            Duration::from_millis(200),
            0,
            &mut rng,
        );
        let d4 = backoff_delay(
            Duration::from_millis(10),
            Duration::from_millis(200),
            4,
            &mut rng,
        );
        assert!(d0 < Duration::from_millis(21));
        assert!(d4 >= Duration::from_millis(160));
        assert!(d4 <= Duration::from_millis(211));
    }

    #[test]
    fn benign_duplicate_detection_matches_server_error_shapes() {
        assert!(is_benign_duplicate(
            r#"{"ok":false,"kind":"duplicate-task","error":"task 1 is already present","id":1}"#
        ));
        assert!(is_benign_duplicate(
            r#"{"ok":false,"kind":"already-departed","error":"task 1 already departed","id":1}"#
        ));
        assert!(!is_benign_duplicate(
            r#"{"ok":false,"kind":"bad-request","error":"nope"}"#
        ));
        assert!(!is_benign_duplicate(
            r#"{"ok":true,"decision":"accepted","id":1}"#
        ));
    }
}
