//! The benchmark's workloads: what each one generates from a seed, which
//! server command serves it, and the in-process engine that is its
//! reference.

use std::ops::Range;
use std::path::Path;
use std::process::Command;

use dvs_admit::{AdmissionEngine, EngineConfig, EnginePolicy, TraceSpec};
use dvs_power::presets::{cubic_ideal, xscale_ideal};
use dvs_power::Processor;
use reject_sched::online::OnlineGreedy;
use rt_model::io::{EventKind, EventRecord};
use rt_model::Task;

/// The seed whose request-stream digests are pinned in `pins.json`.
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `dvs_admitd --power cubic --domains 12` under a re-solve-heavy
    /// 12-domain trace: engine and branch-and-bound time dominate.
    Resolve,
    /// `dvs_admitd --journal F --recover` (xscale, one domain) under
    /// chained e8-shaped sessions: wire, JSON and journal time dominate.
    Stream,
    /// `dvs_routerd --spawn 2 --domains 4` under a 4-domain pinned trace:
    /// the only workload that crosses the router.
    Cluster,
}

/// How large each workload is. [`Size::BENCH`] is what the benchmark
/// measures; [`Size::TINY`] keeps the self-tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Independent `resolve` sessions per run.
    pub resolve_sessions: usize,
    /// Tasks in each `resolve` session.
    pub resolve_tasks: usize,
    /// Sessions chained into the `stream` workload.
    pub stream_sessions: usize,
    /// Leading `stream` sessions served before the measured server starts
    /// (they become the journal it recovers from).
    pub stream_prefix_sessions: usize,
    /// Independent `cluster` sessions per run.
    pub cluster_sessions: usize,
    /// Tasks in each `cluster` session.
    pub cluster_tasks: usize,
}

impl Size {
    /// The measured size.
    pub const BENCH: Size = Size {
        resolve_sessions: 10,
        resolve_tasks: 2400,
        stream_sessions: 24,
        stream_prefix_sessions: 7,
        cluster_sessions: 20,
        cluster_tasks: 1200,
    };

    /// A few hundred events per workload, for self-tests.
    pub const TINY: Size = Size {
        resolve_sessions: 2,
        resolve_tasks: 96,
        stream_sessions: 3,
        stream_prefix_sessions: 1,
        cluster_sessions: 2,
        cluster_tasks: 48,
    };
}

/// Tasks per `stream` session (the shape of `examples/e8_session.jsonl`).
const SESSION_TASKS: usize = 400;
/// Span of one `stream` session, in ticks.
const SESSION_SPAN: f64 = 20_000.0;
/// Utilization demand of one `stream` session. At this overload about 2 %
/// of arrivals are admitted, as in `examples/e8_session.jsonl`, and the
/// engine stays near 1 µs per event on every seed; at a load of 50 the
/// branch-and-bound work of a seed's sessions varied fivefold and set
/// the throughput.
const SESSION_LOAD: f64 = 200.0;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Resolve, Workload::Stream, Workload::Cluster];

    /// Looks a workload up by its `BENCHMARK.json` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `BENCHMARK.json` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Resolve => "resolve",
            Workload::Stream => "stream",
            Workload::Cluster => "cluster",
        }
    }

    /// Offered rate of the paced phase, in events per second: a fifth to
    /// a tenth of what the seed code sustains, so latency is measured
    /// without a growing backlog.
    #[must_use]
    pub fn paced_rate(self) -> f64 {
        match self {
            Workload::Resolve => 1000.0,
            Workload::Stream => 10_000.0,
            Workload::Cluster => 1000.0,
        }
    }

    /// The measured window of a paced pass, over a session's `served`
    /// events. `stream` paces the first 8000 served events of its long
    /// chain. `resolve` paces the first fifth of each session, before
    /// the live set peaks: in the re-solve-heavy middle, latency follows
    /// branch-and-bound luck and host noise too closely to gate on, and
    /// `throughput_eps` covers whole sessions anyway. `cluster` paces
    /// whole sessions.
    #[must_use]
    pub fn paced_window(self, served: usize) -> Range<usize> {
        match self {
            Workload::Resolve => 0..served / 5,
            Workload::Stream => 0..served.min(8000),
            Workload::Cluster => 0..served,
        }
    }

    /// Global power domains.
    #[must_use]
    pub fn domains(self) -> usize {
        match self {
            Workload::Resolve => 12,
            Workload::Stream => 1,
            Workload::Cluster => 4,
        }
    }

    fn processor(self) -> Processor {
        match self {
            Workload::Resolve => cubic_ideal(),
            Workload::Stream | Workload::Cluster => xscale_ideal(),
        }
    }

    /// A fresh engine configured exactly as the workload's server
    /// configures its own (default engine settings, greedy policy).
    #[must_use]
    pub fn engine(self) -> AdmissionEngine {
        self.engine_with(self.domains())
    }

    /// [`Workload::engine`] with `domains` processors (a shard's slice;
    /// zero is an empty shard).
    #[must_use]
    pub fn engine_with(self, domains: usize) -> AdmissionEngine {
        let cpus = (0..domains).map(|_| self.processor()).collect();
        AdmissionEngine::with_domains(cpus, self.policy(), EngineConfig::default())
            .expect("preset processors build an oracle")
    }

    /// One processor per global domain.
    #[must_use]
    pub fn cpus(self) -> Vec<Processor> {
        (0..self.domains()).map(|_| self.processor()).collect()
    }

    /// The admission policy every server of the benchmark runs.
    #[must_use]
    pub fn policy(self) -> Box<dyn EnginePolicy> {
        Box::new(OnlineGreedy)
    }

    /// The server command. `journal` is the write-ahead journal `stream`
    /// recovers from; the other workloads ignore it.
    #[must_use]
    pub fn server_command(self, bins: &Path, journal: &Path) -> Command {
        let mut cmd;
        match self {
            Workload::Resolve => {
                cmd = Command::new(bins.join("dvs_admitd"));
                cmd.args([
                    "--listen",
                    "127.0.0.1:0",
                    "--power",
                    "cubic",
                    "--domains",
                    "12",
                ]);
            }
            Workload::Stream => {
                cmd = Command::new(bins.join("dvs_admitd"));
                cmd.args(["--listen", "127.0.0.1:0", "--journal"])
                    .arg(journal)
                    .arg("--recover");
            }
            Workload::Cluster => {
                cmd = Command::new(bins.join("dvs_routerd"));
                cmd.args(["--listen", "127.0.0.1:0", "--spawn", "2", "--domains", "4"]);
            }
        }
        cmd
    }
}

/// One session of a workload: a stream served to one fresh server.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload this belongs to.
    pub workload: Workload,
    /// The whole event stream, in serving order.
    pub events: Vec<EventRecord>,
    /// `events` rendered as protocol request lines (no newline).
    pub lines: Vec<String>,
    /// Index of the first event the measured server receives over the
    /// wire; the events before it (only `stream` has any) are served
    /// beforehand to write the journal the server recovers from.
    pub served_from: usize,
}

impl Inputs {
    /// Generates every session of `workload` for run seed `seed` at
    /// `size`. Sessions are independent draws (session `j` uses a seed
    /// mixed from `seed` and `j`), so a run's figures average over
    /// several inputs rather than resting on one trace.
    ///
    /// # Errors
    ///
    /// Trace-generation errors.
    pub fn generate(workload: Workload, seed: u64, size: Size) -> Result<Vec<Inputs>, String> {
        let count = match workload {
            Workload::Resolve => size.resolve_sessions,
            Workload::Stream => 1,
            Workload::Cluster => size.cluster_sessions,
        };
        (0..count)
            .map(|j| Inputs::session(workload, mix(seed, j as u64), size))
            .collect()
    }

    fn session(workload: Workload, seed: u64, size: Size) -> Result<Inputs, String> {
        let err = |e: rt_model::ModelError| format!("{}: trace generation: {e}", workload.name());
        let (events, served_from) = match workload {
            Workload::Resolve => {
                let spec = TraceSpec::new(size.resolve_tasks, 5.0 * 12.0, seed)
                    .domains(12)
                    .tick_every(2.0);
                (spec.generate().map_err(err)?, 0)
            }
            Workload::Stream => {
                let mut events = Vec::new();
                let mut served_from = 0;
                for s in 0..size.stream_sessions {
                    if s == size.stream_prefix_sessions {
                        served_from = events.len();
                    }
                    let spec = TraceSpec::new(SESSION_TASKS, SESSION_LOAD, mix(seed, s as u64))
                        .span(SESSION_SPAN)
                        .tick_every(25.0);
                    let offset_t = SESSION_SPAN * s as f64;
                    let offset_id = SESSION_TASKS * s;
                    for e in spec.generate().map_err(err)? {
                        events.push(shift(&e, offset_t, offset_id).map_err(err)?);
                    }
                }
                (events, served_from)
            }
            Workload::Cluster => {
                let spec = TraceSpec::new(size.cluster_tasks, 5.0 * 4.0, seed)
                    .domains(4)
                    .tick_every(8.0);
                (spec.generate().map_err(err)?, 0)
            }
        };
        let lines = events.iter().map(request_line).collect();
        Ok(Inputs {
            workload,
            events,
            lines,
            served_from,
        })
    }

    /// The events the measured server receives.
    #[must_use]
    pub fn served(&self) -> &[String] {
        &self.lines[self.served_from..]
    }
}

/// FNV-1a (64-bit) over every session's request lines, newline-terminated
/// and with a blank line closing each session: the digest `pins.json`
/// records for [`DEFAULT_SEED`].
#[must_use]
pub fn digest(sessions: &[Inputs]) -> String {
    let mut h = Fnv::new();
    for session in sessions {
        for line in &session.lines {
            h.write(line.as_bytes());
            h.write(b"\n");
        }
        h.write(b"\n");
    }
    format!("fnv1a64:{:016x}", h.finish())
}

/// A per-session seed derived from the run seed (splitmix64 finaliser).
fn mix(seed: u64, session: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(session.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Moves an event `dt` ticks later and renumbers its task `+did`, so
/// sessions chain into one stream without id or time collisions.
fn shift(e: &EventRecord, dt: f64, did: usize) -> Result<EventRecord, rt_model::ModelError> {
    let kind = match &e.kind {
        EventKind::Arrive(t) => {
            let mut task =
                Task::new(t.id().index() + did, t.wcec(), t.period())?.with_penalty(t.penalty());
            if !t.is_implicit_deadline() {
                task = task.with_deadline(t.deadline())?;
            }
            if let Some(d) = t.domain() {
                task = task.with_domain(d);
            }
            EventKind::Arrive(task)
        }
        EventKind::Depart(id) => EventKind::Depart((id.index() + did).into()),
        EventKind::Tick => EventKind::Tick,
    };
    Ok(EventRecord::new(e.at + dt, kind))
}

/// Renders an event as its protocol request line.
#[must_use]
pub fn request_line(event: &EventRecord) -> String {
    match &event.kind {
        EventKind::Arrive(t) => {
            let deadline = if t.is_implicit_deadline() {
                String::new()
            } else {
                format!(",\"deadline\":{}", t.deadline())
            };
            let domain = t
                .domain()
                .map_or_else(String::new, |d| format!(",\"domain\":{d}"));
            format!(
                "{{\"op\":\"arrive\",\"at\":{},\"id\":{},\"cycles\":{},\"period\":{}{deadline},\
                 \"penalty\":{}{domain}}}",
                event.at,
                t.id().index(),
                t.wcec(),
                t.period(),
                t.penalty()
            )
        }
        EventKind::Depart(id) => format!(
            "{{\"op\":\"depart\",\"at\":{},\"id\":{}}}",
            event.at,
            id.index()
        ),
        EventKind::Tick => format!("{{\"op\":\"tick\",\"at\":{}}}", event.at),
    }
}

/// FNV-1a, 64-bit: a change detector for pinned inputs, not a MAC.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}
