//! The traced in-process replay that yields the per-layer metrics.
//!
//! The program itself is not instrumented: every span wraps one call into
//! a layer's public function, made from here. Each layer gets its own
//! replay pass over the same events on a fresh engine, and spans of one
//! event share its index (`ev`) across passes:
//!
//! | pass      | span                 | wraps                                   |
//! |-----------|----------------------|-----------------------------------------|
//! | server    | `server.handle_line` | `server::handle_line_with`              |
//! | json      | `json.parse`         | `json::parse_object_into`               |
//! | engine    | `engine.apply`       | `AdmissionEngine::apply_opts`           |
//! | journal   | `journal.apply`      | `apply_opts` with a `Journal` attached  |
//! | recover   | `journal.recover`    | `AdmissionEngine::recover` (prefix)     |
//! | router    | `router.handle_line` | `Router::handle_line` (2 TCP shards)    |
//!
//! `json.parse` and `engine.apply` name the `server.handle_line` span of
//! their event as parent, and the router span gets one `shard.busy`
//! child per shard that handled the event (the growth of that shard
//! engine's own handling-time meter, laid from the router span's start).
//! A span's self time is its duration minus its children's durations;
//! `server.self_ns` and `router.self_ns` are those self times. The
//! children of `server.handle_line` were timed in their own passes, so
//! its self time is a difference of per-event means over identical work.
//!
//! Spans are kept in memory and written (tab-separated) when the run
//! ends.

use std::fmt::Write as _;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dvs_admit::json::{self, Scratch};
use dvs_admit::server::{handle_line_with, serve_tcp, ServeOptions, ServerControl};
use dvs_admit::{AdmissionEngine, ClientConfig, Journal, JournalConfig};
use dvs_router::{Router, ShardMap, ShardSpec};
use rt_model::io::EventKind;

use crate::check::{is_ok, Reference};
use crate::stats::{mean, median, percentile};
use crate::workload::Inputs;

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;

/// Events the router pass replays at most (a prefix of the stream).
pub const ROUTER_EVENTS: usize = 8000;

/// Shards of the in-process cluster behind the router pass.
const SHARDS: usize = 2;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index in the trace.
    pub id: u32,
    /// The span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The event index, shared by every span of one event ([`ROOT`] for
    /// work that serves no single event).
    pub ev: u32,
    /// Layer and call.
    pub name: &'static str,
    /// Start, ns since the trace began.
    pub start: u64,
    /// End, ns since the trace began.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// An in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace starting now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Now, ns since the trace began.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        ev: u32,
        parent: u32,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            ev,
            name,
            start,
            end,
        });
        id
    }

    /// Every span, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (its duration minus its children's),
    /// indexed by span id.
    #[must_use]
    pub fn self_times(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur() as i64).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                own[s.parent as usize] -= s.dur() as i64;
            }
        }
        own
    }

    /// Self times of the spans called `name`, ns.
    #[must_use]
    pub fn self_of(&self, name: &str) -> Vec<f64> {
        let own = self.self_times();
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| own[s.id as usize] as f64)
            .collect()
    }

    /// Writes the trace as tab-separated `id parent ev name start end`.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id\tparent\tev\tname\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let opt = |v: u32| {
                if v == ROOT {
                    "-".to_string()
                } else {
                    v.to_string()
                }
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                opt(s.parent),
                opt(s.ev),
                s.name,
                s.start,
                s.end
            );
        }
        std::fs::write(path, out)
    }
}

/// One repetition's per-layer figures plus its correctness tally.
#[derive(Debug, Default)]
pub struct Layers {
    /// `(metric, value)` in `BENCHMARK.json` units.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations replayed.
    pub attempted: u64,
    /// Operations refused, or every operation of a pass whose result
    /// differed from the reference.
    pub failed: u64,
    /// The first mismatch seen.
    pub problem: Option<String>,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Tallies one pass: `refused` requests, and a mismatch that fails
    /// all `ops` of the pass.
    fn tally(&mut self, ops: usize, refused: u64, mismatch: Option<String>) {
        self.attempted += ops as u64;
        if let Some(m) = mismatch {
            self.failed += ops as u64;
            self.problem.get_or_insert(m);
        } else {
            self.failed += refused;
        }
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn same_log(what: &str, got: &str, want: &str) -> Option<String> {
    (got != want).then(|| format!("{what}: decision log differs from the reference"))
}

/// Runs every layer pass once over `inputs`, recording spans into
/// `tracer`. `prefix` is a journal of the first `prefix_events` events
/// for the recovery pass.
///
/// # Errors
///
/// Infrastructure failures (journal files, the in-process cluster).
#[allow(clippy::too_many_lines)]
pub fn repetition(
    inputs: &Inputs,
    reference: &Reference,
    work: &Path,
    prefix: &Path,
    prefix_events: usize,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let w = inputs.workload;
    let n = inputs.events.len();
    let mut out = Layers::default();

    // server: untraced, then traced — the difference is the tracing cost.
    let untraced = {
        let mut engine = w.engine();
        let mut scratch = Scratch::default();
        let t = Instant::now();
        for line in &inputs.lines {
            std::hint::black_box(handle_line_with(&mut engine, line, &mut scratch));
        }
        t.elapsed()
    };
    let mut server_span = Vec::with_capacity(n);
    let traced = {
        let mut engine = w.engine();
        let mut scratch = Scratch::default();
        let mut refused = 0;
        let t = Instant::now();
        for (i, line) in inputs.lines.iter().enumerate() {
            let s = tracer.now();
            let handled = handle_line_with(&mut engine, line, &mut scratch);
            let e = tracer.now();
            server_span.push(tracer.record("server.handle_line", i as u32, ROOT, s, e));
            if !is_ok(&handled.response) {
                refused += 1;
            }
        }
        let traced = t.elapsed();
        let log = engine.format_decision_log();
        out.tally(n, refused, same_log("server pass", &log, &reference.log));
        traced
    };
    out.put(
        "trace.overhead_pct",
        100.0 * (ns(traced) - ns(untraced)) / ns(untraced).max(1.0),
    );

    // json
    {
        let mut scratch = Scratch::default();
        let mut refused = 0;
        let mut spans = Vec::with_capacity(n);
        for (i, line) in inputs.lines.iter().enumerate() {
            let s = tracer.now();
            let ok = json::parse_object_into(line, &mut scratch).is_ok();
            let e = tracer.now();
            spans.push(tracer.record("json.parse", i as u32, server_span[i], s, e));
            refused += u64::from(!ok);
        }
        out.tally(n, refused, None);
        let durs: Vec<f64> = spans
            .iter()
            .map(|&id| tracer.spans()[id as usize].dur() as f64)
            .collect();
        out.put("json.parse_ns", mean(&durs));
    }

    // engine
    let mut apply_ns = vec![0u64; n];
    {
        let mut engine = w.engine();
        let (mut arrive, mut depart, mut skip, mut pass) = (vec![], vec![], vec![], vec![]);
        let (mut pass_ns, mut pass_nodes) = (0u64, 0u64);
        let mut refused = 0;
        for (i, event) in inputs.events.iter().enumerate() {
            let (r0, n0) = (engine.metrics().resolves, engine.metrics().resolve_nodes);
            let s = tracer.now();
            let ok = engine.apply_opts(event, false).is_ok();
            let e = tracer.now();
            tracer.record("engine.apply", i as u32, server_span[i], s, e);
            refused += u64::from(!ok);
            let d = e - s;
            apply_ns[i] = d;
            match event.kind {
                EventKind::Arrive(_) => arrive.push(d as f64),
                EventKind::Depart(_) => depart.push(d as f64),
                EventKind::Tick if engine.metrics().resolves > r0 => {
                    pass.push(d as f64);
                    pass_ns += d;
                    pass_nodes += engine.metrics().resolve_nodes - n0;
                }
                EventKind::Tick => skip.push(d as f64),
            }
        }
        let log = engine.format_decision_log();
        out.tally(n, refused, same_log("engine pass", &log, &reference.log));
        let m = engine.metrics();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.put("engine.arrive_ns", mean(&arrive));
        out.put("engine.depart_ns", mean(&depart));
        out.put("engine.tick_skip_ns", mean(&skip));
        out.put("engine.resolve_pass_ns", mean(&pass));
        out.put("engine.resolve_pass_p99_us", percentile(&pass, 99.0) / 1e3);
        out.put("engine.resolves", m.resolves as f64);
        out.put("engine.resolves_skipped", m.resolves_skipped as f64);
        out.put(
            "engine.skip_ratio",
            ratio(
                m.resolves_skipped as f64,
                (m.resolves + m.resolves_skipped) as f64,
            ),
        );
        out.put("engine.resolves_degraded", m.resolves_degraded as f64);
        out.put("engine.resolve_nodes", m.resolve_nodes as f64);
        out.put(
            "engine.nodes_per_resolve",
            ratio(m.resolve_nodes as f64, m.resolves as f64),
        );
        out.put("engine.shed", m.shed as f64);
        out.put("engine.readmitted", m.readmitted as f64);
        out.put("bb.ns_per_node", ratio(pass_ns as f64, pass_nodes as f64));
    }
    // A median: the children were timed in other passes, and a re-solve
    // that ran a little slower in one of them would swamp the mean.
    out.put(
        "server.self_ns",
        median(&tracer.self_of("server.handle_line")),
    );

    // journal: write path
    {
        let path = work.join("trace.wal");
        let mut engine = w.engine();
        let journal = Journal::create(&path, JournalConfig::default())
            .map_err(|e| format!("create {}: {e}", path.display()))?;
        engine.attach_journal(journal);
        let (mut extra, mut snap_extra) = (Vec::with_capacity(n), vec![]);
        let mut refused = 0;
        for (i, event) in inputs.events.iter().enumerate() {
            let snaps = engine.metrics().snapshots_taken;
            let s = tracer.now();
            let ok = engine.apply_opts(event, false).is_ok();
            let e = tracer.now();
            tracer.record("journal.apply", i as u32, ROOT, s, e);
            refused += u64::from(!ok);
            let d = (e - s) as f64 - apply_ns[i] as f64;
            extra.push(d);
            if engine.metrics().snapshots_taken > snaps {
                snap_extra.push(d);
            }
        }
        let log = engine.format_decision_log();
        out.tally(n, refused, same_log("journal pass", &log, &reference.log));
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        out.put("journal.append_ns", mean(&extra));
        out.put("journal.snapshot_ns", mean(&snap_extra));
        out.put("journal.bytes_per_event", bytes as f64 / n.max(1) as f64);
        out.put(
            "journal.records",
            engine.journal().map_or(0, Journal::records) as f64,
        );
        out.put("journal.snapshots", engine.metrics().snapshots_taken as f64);
        drop(engine);
        let _ = std::fs::remove_file(&path);
    }

    // journal: read path
    {
        let mut ms = Vec::new();
        let want = reference.after(prefix_events).log;
        for _ in 0..3 {
            let s = tracer.now();
            let recovered = AdmissionEngine::recover(
                prefix,
                w.cpus(),
                w.policy(),
                dvs_admit::EngineConfig::default(),
                JournalConfig::default(),
            );
            let e = tracer.now();
            tracer.record("journal.recover", ROOT, ROOT, s, e);
            ms.push((e - s) as f64 / 1e6);
            let mismatch = match recovered {
                Ok(r) => same_log("recovery", &r.engine.format_decision_log(), want),
                Err(e) => Some(format!("recovery: {e}")),
            };
            out.tally(1, 0, mismatch);
        }
        out.put("journal.recover_ms", median(&ms));
    }

    // router
    let k = n.min(ROUTER_EVENTS);
    let routed = route(inputs, k, tracer)?;
    let want = reference.after(k).log;
    out.tally(
        k,
        routed.refused,
        same_log("router pass", &routed.log, want),
    );
    for (name, value) in routed.metrics {
        out.put(name, value);
    }
    Ok(out)
}

struct Routed {
    log: String,
    refused: u64,
    metrics: Vec<(&'static str, f64)>,
}

/// A shard as E9 builds it: an engine behind `serve_tcp` on a thread.
struct Shard {
    engine: Arc<Mutex<AdmissionEngine>>,
    thread: std::thread::JoinHandle<()>,
}

fn busy(shards: &[Shard]) -> Vec<Duration> {
    shards
        .iter()
        .map(|s| {
            s.engine
                .lock()
                .expect("a shard thread panicked")
                .metrics()
                .handling
        })
        .collect()
}

/// Routes the first `k` events through a fresh 2-shard in-process
/// cluster.
fn route(inputs: &Inputs, k: usize, tracer: &mut Tracer) -> Result<Routed, String> {
    let w = inputs.workload;
    let names: Vec<String> = (0..SHARDS).map(|i| format!("shard{i}")).collect();
    let map = ShardMap::new(names, w.domains(), None).map_err(|e| e.to_string())?;
    let mut shards = Vec::new();
    let mut endpoints = Vec::new();
    for s in 0..SHARDS {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        endpoints.push(ShardSpec {
            addr: listener
                .local_addr()
                .map_err(|e| e.to_string())?
                .to_string(),
            replica: None,
        });
        let engine = Arc::new(Mutex::new(w.engine_with(map.owned(s).len())));
        let serving = Arc::clone(&engine);
        let thread = std::thread::spawn(move || {
            let ctl = Arc::new(ServerControl::new());
            let _ = serve_tcp(&listener, &serving, ServeOptions::default(), &ctl, None);
        });
        shards.push(Shard { engine, thread });
    }
    let mut router =
        Router::new(map, &endpoints, &ClientConfig::default()).map_err(|e| e.to_string())?;
    let (mut by_kind, mut shard_busy) = ([vec![], vec![], vec![]], Vec::with_capacity(k));
    let mut refused = 0;
    for (i, line) in inputs.lines[..k].iter().enumerate() {
        let before = busy(&shards);
        let s = tracer.now();
        let handled = router.handle_line(line);
        let e = tracer.now();
        let after = busy(&shards);
        refused += u64::from(!is_ok(&handled.response));
        let id = tracer.record("router.handle_line", i as u32, ROOT, s, e);
        let mut total = 0u64;
        for (b, a) in before.iter().zip(&after) {
            let d = a.saturating_sub(*b).as_nanos() as u64;
            if d > 0 {
                tracer.record("shard.busy", i as u32, id, s, s + d);
                total += d;
            }
        }
        shard_busy.push(total as f64);
        let slot = match inputs.events[i].kind {
            EventKind::Arrive(_) => 0,
            EventKind::Depart(_) => 1,
            EventKind::Tick => 2,
        };
        by_kind[slot].push((e - s) as f64);
    }
    let log = router.merged_log().to_string();
    let per_shard = router.metrics().per_shard_routed.clone();
    router.handle_line("{\"op\":\"shutdown\"}");
    drop(router);
    let mut shard_events = 0u64;
    for s in shards {
        s.thread.join().expect("a shard thread panicked");
        shard_events += s
            .engine
            .lock()
            .expect("a shard thread panicked")
            .metrics()
            .events;
    }
    let self_ns = tracer.self_of("router.handle_line");
    let routed: Vec<f64> = per_shard.iter().map(|&c| c as f64).collect();
    let skew = if mean(&routed) > 0.0 {
        routed.iter().copied().fold(0.0, f64::max) / mean(&routed)
    } else {
        0.0
    };
    Ok(Routed {
        log,
        refused,
        metrics: vec![
            ("router.arrive_ns", mean(&by_kind[0])),
            ("router.depart_ns", mean(&by_kind[1])),
            ("router.tick_ns", mean(&by_kind[2])),
            ("router.shard_busy_ns", mean(&shard_busy)),
            ("router.self_ns", mean(&self_ns)),
            ("router.requests_per_event", shard_events as f64 / k as f64),
            ("router.shard_skew", skew),
        ],
    })
}

/// Writes a journal of the first `events` events with an in-process
/// engine and drops it without a final snapshot, as a crash would.
///
/// # Errors
///
/// Journal or engine failures.
pub fn write_prefix_inprocess(inputs: &Inputs, events: usize, path: &Path) -> Result<(), String> {
    let mut engine = inputs.workload.engine();
    let journal = Journal::create(path, JournalConfig::default())
        .map_err(|e| format!("create {}: {e}", path.display()))?;
    engine.attach_journal(journal);
    for e in &inputs.events[..events] {
        engine.apply(e).map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let parent = t.record("server.handle_line", 0, ROOT, 100, 200);
        t.record("json.parse", 0, parent, 0, 10);
        t.record("engine.apply", 0, parent, 0, 60);
        let other = t.record("server.handle_line", 1, ROOT, 300, 350);
        assert_eq!(t.self_times(), vec![30, 10, 60, 50]);
        assert_eq!(t.self_of("server.handle_line"), vec![30.0, 50.0]);
        assert_eq!(t.spans()[other as usize].dur(), 50);
    }
}
