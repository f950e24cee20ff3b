//! Newline-delimited JSON protocol and the serving loops behind
//! `dvs_admitd`.
//!
//! One request per line, one response per line. Requests are flat JSON
//! objects with an `"op"` field:
//!
//! ```text
//! {"op":"arrive","at":0.0,"id":1,"cycles":30.0,"period":100,"penalty":2.5}
//! {"op":"arrive","at":1.0,"id":2,"cycles":45.0,"period":100,"deadline":60,"penalty":5.0}
//! {"op":"depart","at":5.0,"id":1}
//! {"op":"tick","at":10.0}
//! {"op":"stats"}
//! {"op":"log"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`; decisions carry `"decision"`
//! (`"accepted"` with its `"domain"`, or `"rejected"`), ticks report the
//! `"shed"` id list, `stats`/`shutdown` return the full metrics registry
//! (see [`AdmissionEngine::stats_json`]), and `log` dumps the engine's
//! decision log (the determinism suite's bit-compared artifact). Invalid
//! lines yield a **structured error** —
//! `{"ok":false,"kind":"…","error":"…"}`, with `"id"` when the error is
//! about a task (duplicate arrival, departure of an unknown or
//! already-departed id) — and never terminate the session: an erroring
//! request leaves the engine untouched (see
//! [`AdmissionEngine::apply_opts`]) and is safe to retry.
//!
//! The same handler serves stdin/stdout ([`serve_lines`]) and TCP
//! connections ([`serve_tcp`], one thread per connection over a shared
//! engine); `dvs_routerd` runs its router through the same session loop
//! ([`serve_session_with`]). The engine core stays `DVS_THREADS`-deterministic —
//! concurrency only affects the interleaving of *independent sessions'*
//! requests, never the outcome of a given event sequence.
//!
//! ## Robustness controls
//!
//! [`ServeOptions`] and [`ServerControl`] layer the overload/drain policy
//! on top:
//!
//! * **Read timeouts** (`read_timeout`) bound how long a connection may
//!   sit idle mid-request, reaping slow-loris clients; a timed-out session
//!   ends with [`SessionEnd::TimedOut`] instead of blocking a worker
//!   forever.
//! * **Backpressure** (`overload_threshold`): when more requests than the
//!   threshold are in flight across sessions, excess events are applied on
//!   the engine's degraded myopic fast path — admission verdicts are
//!   unchanged (pricing is reservation-based and myopic-identical), only
//!   re-solve passes are skipped, so the server sheds *optimization* work,
//!   never availability. Counted in `backpressure_sheds`.
//! * **Graceful drain** ([`ServerControl::request_drain`], wired to
//!   SIGTERM by the binary): the accept loop stops, each session finishes
//!   the requests it has already buffered and ends with
//!   [`SessionEnd::Drained`], and the binary then fsyncs and snapshots the
//!   journal.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rt_model::io::{EventKind, EventRecord};
use rt_model::{Task, TaskId};

use crate::engine::{AdmissionEngine, Decision, Verdict};
use crate::json::{self, JsonValue};
use crate::replication::{self, RoleContext};
use crate::AdmitError;

/// Outcome of handling one request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Handled {
    /// The response line (no trailing newline).
    pub response: String,
    /// Whether the request asked the server to shut down.
    pub shutdown: bool,
}

/// A structured request error: machine-readable `kind`, the task id it is
/// about (when there is one), and the human-readable message.
#[derive(Debug)]
struct ReqError {
    kind: &'static str,
    id: Option<usize>,
    msg: String,
}

impl ReqError {
    fn protocol(msg: impl Into<String>) -> Self {
        ReqError {
            kind: "bad-request",
            id: None,
            msg: msg.into(),
        }
    }

    fn admit(e: &AdmitError) -> Self {
        ReqError {
            kind: e.kind(),
            id: e.task_id().map(|t| t.index()),
            msg: e.to_string(),
        }
    }
}

fn err_response(e: &ReqError) -> String {
    let id = e.id.map_or_else(String::new, |i| format!(",\"id\":{i}"));
    format!(
        "{{\"ok\":false,\"kind\":\"{}\",\"error\":\"{}\"{id}}}",
        e.kind,
        json::escape(&e.msg)
    )
}

fn num_field(pairs: &[(String, JsonValue)], key: &'static str) -> Result<f64, ReqError> {
    json::get(pairs, key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ReqError::protocol(format!("missing or non-numeric field {key:?}")))
}

/// Formats the decisions an event produced as decision-log lines (one per
/// line, trailing newline), exactly as [`AdmissionEngine::format_decision_log`]
/// renders them — the per-event slice a router stitches into its merged
/// cluster log.
fn dlog_lines(decisions: &[Decision]) -> String {
    let mut out = String::new();
    for d in decisions {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Whether the request asked for its decision-log lines to be echoed
/// (`"dlog":true`).
fn wants_dlog(pairs: &[(String, JsonValue)]) -> bool {
    json::get(pairs, "dlog") == Some(&JsonValue::Bool(true))
}

fn shed_ids(decisions: &[Decision]) -> Vec<usize> {
    decisions
        .iter()
        .filter(|d| matches!(d.verdict, Verdict::Shed { .. }))
        .map(|d| d.task.index())
        .collect()
}

fn ids_json(ids: &[usize]) -> String {
    let items: Vec<String> = ids.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Parses and executes one request line against the engine.
///
/// Never panics and never returns `Err`: protocol and engine errors are
/// encoded in the response so a misbehaving client cannot take the server
/// down.
pub fn handle_line(engine: &mut AdmissionEngine, line: &str) -> Handled {
    handle_line_with(engine, line, &mut json::Scratch::default())
}

/// [`handle_line`], but parsing into a caller-provided [`json::Scratch`]
/// so a long-lived session reuses its request buffers instead of
/// allocating per line. The serving loops keep one scratch per session.
pub fn handle_line_with(
    engine: &mut AdmissionEngine,
    line: &str,
    scratch: &mut json::Scratch,
) -> Handled {
    handle_line_opts(engine, line, scratch, false)
}

/// [`handle_line_with`] with an explicit fast-path flag: `fast = true`
/// applies events on the engine's degraded myopic path (the backpressure
/// response — see [`AdmissionEngine::apply_opts`]).
pub fn handle_line_opts(
    engine: &mut AdmissionEngine,
    line: &str,
    scratch: &mut json::Scratch,
    fast: bool,
) -> Handled {
    let mut shutdown = false;
    let response = match handle_inner(engine, line, scratch, &mut shutdown, fast) {
        Ok(r) => r,
        Err(e) => err_response(&e),
    };
    Handled { response, shutdown }
}

fn handle_inner(
    engine: &mut AdmissionEngine,
    line: &str,
    scratch: &mut json::Scratch,
    shutdown: &mut bool,
    fast: bool,
) -> Result<String, ReqError> {
    let pairs = json::parse_object_into(line, scratch)
        .map_err(|e| ReqError::protocol(format!("bad request: {e}")))?;
    let op = json::get(pairs, "op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ReqError::protocol("missing field \"op\""))?;
    match op {
        "arrive" => {
            let at = num_field(pairs, "at")?;
            let id = num_field(pairs, "id")? as usize;
            let cycles = num_field(pairs, "cycles")?;
            let period = num_field(pairs, "period")? as u64;
            let penalty = num_field(pairs, "penalty")?;
            if !penalty.is_finite() || penalty < 0.0 {
                return Err(ReqError::protocol(format!("invalid penalty {penalty}")));
            }
            let mut task = Task::new(id, cycles, period)
                .map_err(|e| ReqError::protocol(e.to_string()))?
                .with_penalty(penalty);
            if let Some(d) = json::get(pairs, "deadline").and_then(JsonValue::as_f64) {
                task = task
                    .with_deadline(d as u64)
                    .map_err(|e| ReqError::protocol(e.to_string()))?;
            }
            if let Some(d) = json::get(pairs, "domain").and_then(JsonValue::as_f64) {
                if d < 0.0 || d.fract() != 0.0 {
                    return Err(ReqError::protocol(format!("invalid domain {d}")));
                }
                task = task.with_domain(d as usize);
            }
            let echo = wants_dlog(pairs);
            let decisions = engine
                .apply_opts(&EventRecord::new(at, EventKind::Arrive(task)), fast)
                .map_err(|e| ReqError::admit(&e))?;
            let verdict = decisions
                .iter()
                .find(|d| d.task == task.id())
                .map(|d| d.verdict)
                .ok_or_else(|| ReqError::protocol("engine returned no verdict"))?;
            let dlog = if echo {
                format!(",\"dlog\":\"{}\"", json::escape(&dlog_lines(&decisions)))
            } else {
                String::new()
            };
            Ok(match verdict {
                Verdict::Accepted { domain } => format!(
                    "{{\"ok\":true,\"decision\":\"accepted\",\"id\":{id},\"domain\":{domain}{dlog}}}"
                ),
                _ => format!("{{\"ok\":true,\"decision\":\"rejected\",\"id\":{id}{dlog}}}"),
            })
        }
        "depart" => {
            let at = num_field(pairs, "at")?;
            let id = num_field(pairs, "id")? as usize;
            let echo = wants_dlog(pairs);
            let decisions = engine
                .apply_opts(
                    &EventRecord::new(at, EventKind::Depart(TaskId::new(id))),
                    fast,
                )
                .map_err(|e| ReqError::admit(&e))?;
            let dlog = if echo {
                format!(",\"dlog\":\"{}\"", json::escape(&dlog_lines(&decisions)))
            } else {
                String::new()
            };
            Ok(format!(
                "{{\"ok\":true,\"id\":{id},\"shed\":{}{dlog}}}",
                ids_json(&shed_ids(&decisions))
            ))
        }
        "tick" => {
            let at = num_field(pairs, "at")?;
            let echo = wants_dlog(pairs);
            let decisions = engine
                .apply_opts(&EventRecord::new(at, EventKind::Tick), fast)
                .map_err(|e| ReqError::admit(&e))?;
            let dlog = if echo {
                format!(",\"dlog\":\"{}\"", json::escape(&dlog_lines(&decisions)))
            } else {
                String::new()
            };
            Ok(format!(
                "{{\"ok\":true,\"shed\":{},\"resolves\":{}{dlog}}}",
                ids_json(&shed_ids(&decisions)),
                engine.metrics().resolves
            ))
        }
        "export" => {
            let local = num_field(pairs, "domain")? as usize;
            let payload = engine
                .export_domain(local)
                .map_err(|e| ReqError::admit(&e))?;
            Ok(format!(
                "{{\"ok\":true,\"op\":\"export\",\"domain\":{local},\"payload\":\"{}\"}}",
                json::escape(&payload)
            ))
        }
        "import" => {
            let key = json::get(pairs, "key")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| ReqError::protocol("missing or non-string field \"key\""))?;
            let payload = json::get(pairs, "payload")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| ReqError::protocol("missing or non-string field \"payload\""))?;
            let local = engine
                .import_domain(key, payload)
                .map_err(|e| ReqError::admit(&e))?;
            Ok(format!(
                "{{\"ok\":true,\"op\":\"import\",\"local\":{local}}}"
            ))
        }
        "layout" => {
            // One token per local domain, in index order: `+` live /
            // `-` fenced, suffixed with the import key for domains that
            // arrived via migration ("+2:5"). Keys are whitespace-free
            // by construction, so space-joining is unambiguous.
            let tokens: Vec<String> = engine
                .domain_layout()
                .into_iter()
                .map(|(fenced, key)| {
                    let mark = if fenced { '-' } else { '+' };
                    match key {
                        Some(k) => format!("{mark}{k}"),
                        None => mark.to_string(),
                    }
                })
                .collect();
            Ok(format!(
                "{{\"ok\":true,\"op\":\"layout\",\"domains\":{},\"layout\":\"{}\"}}",
                engine.domain_count(),
                json::escape(&tokens.join(" "))
            ))
        }
        "present" => {
            // Task-presence inventory for router restarts: every present
            // task as `id:domain` (`id:-` for an unpinned standing
            // rejection), plus the departed (burned) id set. Both are
            // space-joined; ids and domains are plain integers so the
            // encoding is unambiguous.
            let tasks: Vec<String> = engine
                .present_tasks()
                .into_iter()
                .map(|(id, pin)| match pin {
                    Some(d) => format!("{}:{d}", id.index()),
                    None => format!("{}:-", id.index()),
                })
                .collect();
            let departed: Vec<String> = engine
                .departed_ids()
                .map(|id| id.index().to_string())
                .collect();
            Ok(format!(
                "{{\"ok\":true,\"op\":\"present\",\"tasks\":\"{}\",\"departed\":\"{}\"}}",
                json::escape(&tasks.join(" ")),
                json::escape(&departed.join(" "))
            ))
        }
        "stats" => Ok(format!("{{\"ok\":true,{}", &engine.stats_json()[1..])),
        // Role-less servers are plain primaries; failover deployments
        // intercept these two ops in `handle_line_role` before the lock.
        "role" | "promote" => Ok(format!(
            "{{\"ok\":true,\"role\":\"primary\",\"epoch\":{}}}",
            engine.epoch()
        )),
        "log" => Ok(format!(
            "{{\"ok\":true,\"decisions\":{},\"log\":\"{}\"}}",
            engine.decision_log().len(),
            json::escape(&engine.format_decision_log())
        )),
        "shutdown" => {
            *shutdown = true;
            Ok(format!("{{\"ok\":true,{}", &engine.stats_json()[1..]))
        }
        other => Err(ReqError::protocol(format!("unknown op {other:?}"))),
    }
}

/// Role-aware request dispatch for failover deployments.
///
/// Two request classes must be decided **before** taking the engine lock:
///
/// * `{"op":"promote"}` executes [`replication::promote`], which waits
///   for the replica loop to park — and the replica loop only checks its
///   park flag between lock acquisitions, so promoting from inside the
///   lock would deadlock.
/// * Write ops (`arrive`/`depart`/`tick`) on a **follower** are refused
///   with the structured kind `not-primary` — a follower's engine state
///   is owned by the replication stream, and interleaving client writes
///   would fork it from the primary's history. Reads (`stats`, `log`)
///   are served from the mirror state, which is exactly what a failover
///   drill wants to inspect.
///
/// `{"op":"role"}` reports `{"role":"follower"|"primary","epoch":N}`.
/// With `role = None` (a plain primary, no failover deployment) every op
/// falls through to [`handle_line_opts`] under the lock.
pub fn handle_line_role(
    engine: &Mutex<AdmissionEngine>,
    line: &str,
    scratch: &mut json::Scratch,
    fast: bool,
    role: Option<&RoleContext>,
) -> Handled {
    if let Some(ctx) = role {
        let op = json::parse_object_into(line, scratch)
            .ok()
            .and_then(|pairs| {
                json::get(pairs, "op")
                    .and_then(JsonValue::as_str)
                    .map(String::from)
            });
        match op.as_deref() {
            Some("promote") => {
                let response = match replication::promote(engine, ctx) {
                    Ok(epoch) => {
                        format!("{{\"ok\":true,\"role\":\"primary\",\"epoch\":{epoch}}}")
                    }
                    Err(e) => err_response(&ReqError::admit(&e)),
                };
                return Handled {
                    response,
                    shutdown: false,
                };
            }
            Some("role") => {
                let role_name = if ctx.role.is_primary() {
                    "primary"
                } else {
                    "follower"
                };
                let epoch = {
                    let g = engine
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    g.epoch()
                };
                return Handled {
                    response: format!("{{\"ok\":true,\"role\":\"{role_name}\",\"epoch\":{epoch}}}"),
                    shutdown: false,
                };
            }
            Some("arrive" | "depart" | "tick" | "export" | "import") if !ctx.role.is_primary() => {
                return Handled {
                    response: err_response(&ReqError {
                        kind: "not-primary",
                        id: None,
                        msg: "this node is a follower; promote it or address the primary"
                            .to_string(),
                    }),
                    shutdown: false,
                };
            }
            Some("stats" | "log") if !ctx.role.is_primary() => {
                // Follower read-serving: answer from the mirror state and
                // stamp how stale the answer may be (milliseconds since
                // the replica loop last heard from the primary), so a
                // router hedging reads to this standby can bound the lag.
                let mut guard = engine
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let mut handled = handle_line_opts(&mut guard, line, scratch, fast);
                drop(guard);
                if let Some(stripped) = handled.response.strip_suffix('}') {
                    handled.response =
                        format!("{stripped},\"stale_by\":{}}}", ctx.role.stale_by_ms());
                }
                return handled;
            }
            _ => {}
        }
    }
    let mut guard = engine
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    handle_line_opts(&mut guard, line, scratch, fast)
}

/// How a serving session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client closed the stream.
    Eof,
    /// The client requested shutdown.
    Shutdown,
    /// The server was draining and the session stopped at a batch
    /// boundary.
    Drained,
    /// The connection idled past its read timeout (slow-loris reaping).
    TimedOut,
}

/// Per-session serving knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Socket read timeout applied to TCP connections by [`serve_tcp`]
    /// (`None` = block forever, the right choice for stdin).
    pub read_timeout: Option<Duration>,
    /// Degrade to the myopic fast path when more than this many requests
    /// are in flight across sessions (`None` disables backpressure).
    pub overload_threshold: Option<usize>,
}

/// Shared control/observability block for the serving loops: drain
/// signalling, the in-flight request gauge that drives backpressure, and
/// the idle-timeout counter.
#[derive(Debug, Default)]
pub struct ServerControl {
    drain: AtomicBool,
    pending: AtomicUsize,
    timeouts: AtomicU64,
}

impl ServerControl {
    /// Creates a control block (not draining, nothing in flight).
    #[must_use]
    pub fn new() -> Self {
        ServerControl::default()
    }

    /// Asks every serving loop to drain: the accept loop stops taking
    /// connections and each session ends at its next batch boundary.
    pub fn request_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// Requests currently being handled across sessions.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Connections reaped by the read timeout so far.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

/// Serves a newline-delimited session from `reader` to `writer` under the
/// given options and control block. Blank lines are ignored.
///
/// Both sides are buffered internally. Responses are flushed per request
/// *batch*, not per line: the writer drains whenever the read buffer is
/// empty — i.e. just before the next read could block — so pipelined
/// clients get one syscall per burst while interactive clients still see
/// every response before the server waits on them. (The engine's
/// write-ahead journal, when attached, is flushed per *event* inside
/// `apply` — a decision is journaled before its response is even
/// formatted, regardless of response batching.)
///
/// A drain request is honoured at batch boundaries: buffered requests are
/// finished first, then the session ends with [`SessionEnd::Drained`]. A
/// read that fails with `WouldBlock`/`TimedOut` (the socket read timeout)
/// ends the session with [`SessionEnd::TimedOut`].
///
/// # Errors
///
/// Propagates I/O errors on the transport (protocol errors are reported
/// in-band).
pub fn serve_session<R: Read, W: Write>(
    engine: &Mutex<AdmissionEngine>,
    reader: R,
    writer: W,
    opts: &ServeOptions,
    ctl: &ServerControl,
) -> std::io::Result<SessionEnd> {
    serve_session_role(engine, reader, writer, opts, ctl, None)
}

/// [`serve_session`] with a failover [`RoleContext`]: control ops and
/// follower write-gating are dispatched through [`handle_line_role`].
///
/// # Errors
///
/// Propagates I/O errors on the transport (protocol errors are reported
/// in-band).
pub fn serve_session_role<R: Read, W: Write>(
    engine: &Mutex<AdmissionEngine>,
    reader: R,
    writer: W,
    opts: &ServeOptions,
    ctl: &ServerControl,
    role: Option<&RoleContext>,
) -> std::io::Result<SessionEnd> {
    let mut scratch = json::Scratch::default();
    serve_session_with(reader, writer, ctl, |request| {
        // The loop counts this request in flight before calling in.
        let fast = opts.overload_threshold.is_some_and(|th| ctl.pending() > th);
        handle_line_role(engine, request, &mut scratch, fast, role)
    })
}

/// The session loop behind every server, generic over the request
/// handler: `dvs_admitd` passes its engine dispatch, `dvs_routerd` its
/// cluster router. Batching, flushing, drain and timeout behave exactly
/// as documented on [`serve_session`]; each response goes into the write
/// buffer as one whole line, so every transport write ends on a line
/// boundary.
///
/// # Errors
///
/// Propagates I/O errors on the transport (protocol errors are reported
/// in-band by `handle`).
pub fn serve_session_with<R: Read, W: Write>(
    reader: R,
    writer: W,
    ctl: &ServerControl,
    mut handle: impl FnMut(&str) -> Handled,
) -> std::io::Result<SessionEnd> {
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(writer);
    let mut line = String::new();
    loop {
        if reader.buffer().is_empty() {
            writer.flush()?;
            if ctl.draining() {
                return Ok(SessionEnd::Drained);
            }
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                writer.flush()?;
                return Ok(SessionEnd::Eof);
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                ctl.timeouts.fetch_add(1, Ordering::Relaxed);
                writer.flush()?;
                return Ok(SessionEnd::TimedOut);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        let request = line.trim();
        if request.is_empty() {
            continue;
        }
        ctl.pending.fetch_add(1, Ordering::SeqCst);
        let mut handled = handle(request);
        ctl.pending.fetch_sub(1, Ordering::SeqCst);
        handled.response.push('\n');
        writer.write_all(handled.response.as_bytes())?;
        if handled.shutdown {
            writer.flush()?;
            return Ok(SessionEnd::Shutdown);
        }
    }
}

/// [`serve_session`] with default options and a throwaway control block,
/// returning `true` if the session ended with a `shutdown` request
/// (rather than EOF). The stdin/stdout serving path.
///
/// # Errors
///
/// Propagates I/O errors on the transport.
pub fn serve_lines<R: Read, W: Write>(
    engine: &Mutex<AdmissionEngine>,
    reader: R,
    writer: W,
) -> std::io::Result<bool> {
    let end = serve_session(
        engine,
        reader,
        writer,
        &ServeOptions::default(),
        &ServerControl::new(),
    )?;
    Ok(end == SessionEnd::Shutdown)
}

/// Accept loop: serves every connection on `listener` (one thread per
/// connection) over the shared engine until a session requests shutdown
/// or a drain is signalled.
///
/// `drain_signal`, when given, is polled every accept iteration and
/// promoted into [`ServerControl::request_drain`] — the bridge from a
/// `SIGTERM` handler's static flag to the serving loops. On shutdown or
/// drain the loop stops accepting, asks every live session to drain, and
/// joins the workers (sessions end at their next batch boundary or read
/// timeout).
///
/// # Errors
///
/// Propagates listener errors (per-connection I/O errors only end that
/// connection).
pub fn serve_tcp(
    listener: &TcpListener,
    engine: &Arc<Mutex<AdmissionEngine>>,
    opts: ServeOptions,
    ctl: &Arc<ServerControl>,
    drain_signal: Option<&AtomicBool>,
) -> std::io::Result<()> {
    serve_tcp_role(listener, engine, opts, ctl, drain_signal, None)
}

/// [`serve_tcp`] with a failover [`RoleContext`] shared by every session
/// (so any connection may promote, and follower write-gating is uniform).
///
/// # Errors
///
/// Propagates listener errors (per-connection I/O errors only end that
/// connection).
pub fn serve_tcp_role(
    listener: &TcpListener,
    engine: &Arc<Mutex<AdmissionEngine>>,
    opts: ServeOptions,
    ctl: &Arc<ServerControl>,
    drain_signal: Option<&AtomicBool>,
    role: Option<&Arc<RoleContext>>,
) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    listener.set_nonblocking(true)?;
    let mut workers = Vec::new();
    loop {
        if let Some(flag) = drain_signal {
            if flag.load(Ordering::SeqCst) {
                ctl.request_drain();
            }
        }
        if stop.load(Ordering::SeqCst) || ctl.draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let engine = Arc::clone(engine);
                let stop = Arc::clone(&stop);
                let ctl = Arc::clone(ctl);
                let role = role.map(Arc::clone);
                workers.push(std::thread::spawn(move || {
                    stream.set_nonblocking(false).expect("stream mode");
                    // Responses are small and latency-sensitive; batching is
                    // handled by serve_session's BufWriter, so Nagle only
                    // adds delay on the final partial segment of each flush.
                    let _ = stream.set_nodelay(true);
                    if let Some(t) = opts.read_timeout {
                        let _ = stream.set_read_timeout(Some(t));
                    }
                    let reader = stream.try_clone().expect("clone stream");
                    if let Ok(SessionEnd::Shutdown) =
                        serve_session_role(&engine, reader, stream, &opts, &ctl, role.as_deref())
                    {
                        stop.store(true, Ordering::SeqCst);
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    // Ask the remaining sessions to finish their buffered work and exit.
    ctl.request_drain();
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::json::parse_object;
    use dvs_power::presets::cubic_ideal;
    use reject_sched::online::OnlineGreedy;

    fn engine() -> AdmissionEngine {
        AdmissionEngine::new(
            vec![cubic_ideal()],
            Box::new(OnlineGreedy),
            EngineConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn arrive_depart_tick_round_trip() {
        let mut e = engine();
        let r = handle_line(
            &mut e,
            r#"{"op":"arrive","at":0,"id":1,"cycles":30.0,"period":1000,"penalty":2.5}"#,
        );
        assert!(!r.shutdown);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            json::get(&kv, "decision").unwrap().as_str(),
            Some("accepted")
        );
        let r = handle_line(&mut e, r#"{"op":"tick","at":10}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "shed"), Some(&JsonValue::Arr(vec![])));
        let r = handle_line(&mut e, r#"{"op":"depart","at":20,"id":1}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "ok"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn malformed_lines_do_not_kill_the_session() {
        let mut e = engine();
        for bad in [
            "not json",
            "{}",
            r#"{"op":"arrive","at":0}"#,
            r#"{"op":"warp","at":0}"#,
            r#"{"op":"depart","at":0,"id":99}"#,
        ] {
            let r = handle_line(&mut e, bad);
            assert!(!r.shutdown);
            let kv = parse_object(&r.response).unwrap();
            assert_eq!(json::get(&kv, "ok"), Some(&JsonValue::Bool(false)), "{bad}");
        }
        // The session still works afterwards.
        let r = handle_line(&mut e, r#"{"op":"stats"}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "ok"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn errors_are_structured_with_kind_and_id() {
        let mut e = engine();
        // Unknown departure names the task and the kind.
        let r = handle_line(&mut e, r#"{"op":"depart","at":0,"id":99}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            json::get(&kv, "kind").unwrap().as_str(),
            Some("unknown-task")
        );
        assert_eq!(json::get(&kv, "id").unwrap().as_f64(), Some(99.0));
        // Protocol errors use the bad-request kind, without an id.
        let r = handle_line(&mut e, "not json");
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(
            json::get(&kv, "kind").unwrap().as_str(),
            Some("bad-request")
        );
        assert!(json::get(&kv, "id").is_none());
    }

    #[test]
    fn duplicate_and_stale_ids_yield_typed_errors_not_hangs() {
        let mut e = engine();
        let arrive = r#"{"op":"arrive","at":0,"id":1,"cycles":30.0,"period":1000,"penalty":2.5}"#;
        assert!(handle_line(&mut e, arrive).response.contains("\"ok\":true"));
        // Duplicate while present.
        let r = handle_line(&mut e, arrive);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(
            json::get(&kv, "kind").unwrap().as_str(),
            Some("duplicate-task")
        );
        // Departed: both re-arrival and re-departure are stale.
        handle_line(&mut e, r#"{"op":"depart","at":1,"id":1}"#);
        let r = handle_line(
            &mut e,
            r#"{"op":"arrive","at":2,"id":1,"cycles":30.0,"period":1000,"penalty":2.5}"#,
        );
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(
            json::get(&kv, "kind").unwrap().as_str(),
            Some("already-departed")
        );
        let r = handle_line(&mut e, r#"{"op":"depart","at":3,"id":1}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(
            json::get(&kv, "kind").unwrap().as_str(),
            Some("already-departed")
        );
        // None of the errors perturbed the engine: balance still holds.
        let m = e.metrics();
        assert_eq!(m.arrivals, 1);
        assert_eq!(m.accepted() + m.rejected + m.standing_shed(), m.arrivals);
    }

    #[test]
    fn stats_and_shutdown_dump_the_registry() {
        let mut e = engine();
        handle_line(
            &mut e,
            r#"{"op":"arrive","at":0,"id":1,"cycles":900.0,"period":1000,"penalty":0.001}"#,
        );
        let r = handle_line(&mut e, r#"{"op":"stats"}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "arrivals").unwrap().as_f64(), Some(1.0));
        let r = handle_line(&mut e, r#"{"op":"shutdown"}"#);
        assert!(r.shutdown);
        let kv = parse_object(&r.response).unwrap();
        let arrivals = json::get(&kv, "arrivals").unwrap().as_f64().unwrap();
        let accepted = json::get(&kv, "accepted").unwrap().as_f64().unwrap();
        let rejected = json::get(&kv, "rejected").unwrap().as_f64().unwrap();
        let shed = json::get(&kv, "shed").unwrap().as_f64().unwrap();
        assert_eq!(accepted + rejected + shed, arrivals);
    }

    #[test]
    fn log_op_dumps_the_decision_log() {
        let mut e = engine();
        handle_line(
            &mut e,
            r#"{"op":"arrive","at":0,"id":1,"cycles":30.0,"period":1000,"penalty":2.5}"#,
        );
        let r = handle_line(&mut e, r#"{"op":"log"}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "decisions").unwrap().as_f64(), Some(1.0));
        let log = json::get(&kv, "log").unwrap().as_str().unwrap().to_string();
        assert_eq!(log, e.format_decision_log());
        assert!(log.contains("accepted@0"));
    }

    #[test]
    fn serve_lines_over_buffers() {
        let e = Mutex::new(engine());
        let input = b"{\"op\":\"arrive\",\"at\":0,\"id\":7,\"cycles\":10.0,\"period\":100,\"penalty\":9.0}\n\n{\"op\":\"shutdown\"}\n".to_vec();
        let mut out = Vec::new();
        let ended = serve_lines(&e, &input[..], &mut out).unwrap();
        assert!(ended);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"decision\""));
        assert!(lines[1].contains("\"op\":\"stats\""));
    }

    #[test]
    fn drain_request_stops_the_session_at_a_batch_boundary() {
        let e = Mutex::new(engine());
        let ctl = ServerControl::new();
        ctl.request_drain();
        let input =
            b"{\"op\":\"arrive\",\"at\":0,\"id\":7,\"cycles\":10.0,\"period\":100,\"penalty\":9.0}\n"
                .to_vec();
        let mut out = Vec::new();
        let end = serve_session(&e, &input[..], &mut out, &ServeOptions::default(), &ctl).unwrap();
        // Drain honoured before any read: nothing was handled.
        assert_eq!(end, SessionEnd::Drained);
        assert!(out.is_empty());
    }

    #[test]
    fn overload_threshold_degrades_ticks_to_the_fast_path() {
        let e = Mutex::new(engine());
        let ctl = ServerControl::new();
        let opts = ServeOptions {
            read_timeout: None,
            // pending is 1 while each request is handled, so every event
            // exceeds the threshold: permanent overload.
            overload_threshold: Some(0),
        };
        let input = b"{\"op\":\"arrive\",\"at\":0,\"id\":1,\"cycles\":30.0,\"period\":1000,\"penalty\":2.5}\n{\"op\":\"tick\",\"at\":10}\n{\"op\":\"tick\",\"at\":20}\n".to_vec();
        let mut out = Vec::new();
        let end = serve_session(&e, &input[..], &mut out, &opts, &ctl).unwrap();
        assert_eq!(end, SessionEnd::Eof);
        let g = e.lock().unwrap();
        let m = g.metrics();
        assert_eq!(m.backpressure_sheds, 3, "every event took the fast path");
        assert_eq!(m.resolves, 0, "fast-path ticks skip re-solve passes");
        assert_eq!(m.ticks, 2);
        assert_eq!(m.admitted, 1, "admission verdicts are not degraded");
    }
}
