//! The measured passes over the wire: one fresh server per pass, one TCP
//! connection, a writer thread and the calling thread as reader.
//!
//! * **Saturating**: the writer pushes the whole stream through a 64 KiB
//!   buffer as fast as the socket accepts it; the reader consumes the
//!   in-order responses. Throughput is events over first write → last
//!   event response.
//! * **Paced** (open loop): request `i` is due at `t0 + i / rate` and is
//!   written on its own (one `write` per request, `TCP_NODELAY`), never
//!   batched or re-paced; a late writer sends immediately and records its
//!   lag. Latency is timed from the due time, so a stall also charges the
//!   requests queued behind it.
//!
//! After the events, every pass asks for `stats` and `log` and checks
//! them against the reference.

use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::check::{check_final, is_ok, Inject, Reference};
use crate::server::{read_response, Server};
use crate::workload::Inputs;

/// How a pass offers its load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// As fast as the socket accepts.
    Saturate,
    /// Open loop at this many events per second.
    Paced(f64),
}

/// One pass's outcome.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Requests sent: the set-up probe, every event (those before the
    /// window included), `stats` and `log`.
    pub attempted: u64,
    /// Requests answered with `"ok":false` or not answered.
    pub failed: u64,
    /// Why the final check failed, if it did.
    pub mismatch: Option<String>,
    /// Events sent.
    pub events: usize,
    /// First write to the last event response.
    pub elapsed: Duration,
    /// Paced only: per-event latency from its due time, µs.
    pub latencies_us: Vec<f64>,
    /// Paced only: how late each request was written, µs.
    pub lag_us: Vec<f64>,
    /// Spawn to the first successful response, seconds.
    pub setup_s: f64,
    /// Peak RSS of the server processes, MiB.
    pub rss_mb: f64,
    /// `total_cost` from the final stats (when it matched the reference).
    pub total_cost: Option<f64>,
}

/// What every pass of one run shares.
pub struct Bench<'a> {
    /// The run's sessions.
    pub sessions: &'a [Inputs],
    /// The in-process reference of each session.
    pub references: &'a [Reference],
    /// Directory holding `dvs_admitd` and `dvs_routerd`.
    pub bins: &'a Path,
    /// Scratch directory for journals and server logs.
    pub work: &'a Path,
    /// Per session, the journal its servers recover from (`stream`
    /// only; each pass gets a fresh copy).
    pub prefix_journals: Vec<Option<PathBuf>>,
    /// A deliberate fault for self-tests.
    pub inject: Option<Inject>,
    /// Servers started so far (names their files).
    pub started: usize,
}

impl Bench<'_> {
    /// Starts a fresh server for `session`.
    ///
    /// # Errors
    ///
    /// Start-up failures.
    pub fn start(&mut self, session: usize) -> Result<Server, String> {
        self.started += 1;
        let k = self.started;
        let journal = self.work.join(format!("pass{k}.wal"));
        if let Some(prefix) = &self.prefix_journals[session] {
            std::fs::copy(prefix, &journal).map_err(|e| format!("copy journal: {e}"))?;
        }
        let cmd = self.sessions[session]
            .workload
            .server_command(self.bins, &journal);
        Server::start(cmd, &self.work.join(format!("pass{k}.err")))
    }

    /// Spawns a server, times its set-up, and shuts it down.
    ///
    /// # Errors
    ///
    /// Start-up or shutdown failures.
    pub fn setup_probe(&mut self) -> Result<f64, String> {
        let server = self.start(0)?;
        let setup = server.setup.as_secs_f64();
        server.shutdown()?;
        Ok(setup)
    }

    /// Serves `session` once on a fresh server: the served events before
    /// `window` go through unmeasured (as fast as the socket takes them),
    /// the window is measured under `pacing`, and the server's `stats`
    /// and `log` are then checked against the reference at the window's
    /// end.
    ///
    /// # Errors
    ///
    /// Infrastructure failures (spawn, shutdown); request failures and
    /// mismatches are counted in the returned [`Pass`].
    pub fn pass(
        &mut self,
        session: usize,
        window: Range<usize>,
        pacing: Pacing,
    ) -> Result<Pass, String> {
        let mut server = self.start(session)?;
        let inputs = &self.sessions[session];
        let served = inputs.served();
        let lines = &served[window.clone()];
        let n = lines.len();
        let mut pass = Pass {
            attempted: window.end as u64 + 3,
            events: n,
            setup_s: server.setup.as_secs_f64(),
            ..Pass::default()
        };
        match stream_all(&mut server, &served[..window.start]) {
            Ok(refused) => pass.failed += refused,
            Err(e) => {
                pass.mismatch = Some(format!("warm-up: {e}"));
                return Ok(pass);
            }
        }
        let writer = server
            .writer
            .try_clone()
            .map_err(|e| format!("clone connection: {e}"))?;
        let t0 = Instant::now();
        let mut answered = 0usize;
        let mut last = t0;
        let (sent, lag_us) = std::thread::scope(|scope| {
            let handle = scope.spawn(move || write_stream(writer, lines, pacing, t0));
            for i in 0..n {
                let Ok(response) = read_response(&mut server.reader) else {
                    break;
                };
                last = Instant::now();
                answered += 1;
                if !is_ok(&response) {
                    pass.failed += 1;
                }
                if let Pacing::Paced(rate) = pacing {
                    let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                    pass.latencies_us
                        .push(last.saturating_duration_since(due).as_secs_f64() * 1e6);
                }
            }
            handle.join().expect("writer thread")
        });
        pass.lag_us = lag_us;
        pass.elapsed = last - t0;
        pass.failed += (n - answered) as u64;
        if let Err(e) = sent {
            pass.mismatch = Some(format!("writer: {e}"));
        }
        if answered < n {
            pass.failed += 2;
            pass.mismatch
                .get_or_insert(format!("{} of {n} responses missing", n - answered));
            return Ok(pass);
        }
        let finals = read_response(&mut server.reader)
            .and_then(|stats| read_response(&mut server.reader).map(|log| (stats, log)));
        let (mut stats, mut log) = match finals {
            Ok(pair) => pair,
            Err(e) => {
                pass.failed += 2;
                pass.mismatch = Some(e);
                return Ok(pass);
            }
        };
        if let Some(fault) = self.inject {
            fault.apply(&mut stats, &mut log);
        }
        let expected = self.references[session].after(inputs.served_from + window.end);
        match check_final(inputs.workload, &expected, &stats, &log) {
            Ok(cost) => pass.total_cost = Some(cost),
            Err(e) => pass.mismatch = Some(e),
        }
        pass.rss_mb = server.peak_rss_mb();
        server.shutdown()?;
        Ok(pass)
    }
}

/// Sends `lines` as fast as the socket takes them and reads every
/// response; returns how many were refused.
fn stream_all(server: &mut Server, lines: &[String]) -> Result<u64, String> {
    if lines.is_empty() {
        return Ok(0);
    }
    let writer = server
        .writer
        .try_clone()
        .map_err(|e| format!("clone connection: {e}"))?;
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let mut w = BufWriter::with_capacity(1 << 16, writer);
            lines
                .iter()
                .try_for_each(|l| w.write_all(l.as_bytes()).and_then(|()| w.write_all(b"\n")))
                .and_then(|()| w.flush())
        });
        let mut refused = 0;
        for _ in lines {
            refused += u64::from(!is_ok(&read_response(&mut server.reader)?));
        }
        handle
            .join()
            .expect("writer thread")
            .map_err(|e| e.to_string())?;
        Ok(refused)
    })
}

/// The writer thread: every request line, then `stats` and `log`.
/// Returns the writer's lag per paced request (µs).
fn write_stream(
    stream: std::net::TcpStream,
    lines: &[String],
    pacing: Pacing,
    t0: Instant,
) -> (Result<(), String>, Vec<f64>) {
    let mut lag_us = Vec::new();
    let result = match pacing {
        Pacing::Saturate => {
            let mut w = BufWriter::with_capacity(1 << 16, stream);
            lines
                .iter()
                .try_for_each(|l| w.write_all(l.as_bytes()).and_then(|()| w.write_all(b"\n")))
                .and_then(|()| w.write_all(b"{\"op\":\"stats\"}\n{\"op\":\"log\"}\n"))
                .and_then(|()| w.flush())
        }
        Pacing::Paced(rate) => {
            let mut w = stream;
            let mut buf = Vec::with_capacity(256);
            lag_us.reserve(lines.len());
            let mut result = Ok(());
            for (i, line) in lines.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                wait_until(due);
                lag_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                buf.clear();
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
                result = w.write_all(&buf);
                if result.is_err() {
                    break;
                }
            }
            result.and_then(|()| w.write_all(b"{\"op\":\"stats\"}\n{\"op\":\"log\"}\n"))
        }
    };
    (result.map_err(|e| e.to_string()), lag_us)
}

/// Sleeps until shortly before `due`, then yields until it passes: the
/// kernel's sleep granularity alone would make every request late.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(80);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Serves the `stream` prefix on a fresh journaled server and kills it
/// once every prefix event is acknowledged, leaving the crash-consistent
/// journal (snapshots plus a tail) that measured servers recover from.
///
/// # Errors
///
/// Start-up failures or a refused prefix event.
pub fn write_prefix_journal(
    inputs: &Inputs,
    bins: &Path,
    work: &Path,
    name: &str,
) -> Result<PathBuf, String> {
    let path = work.join(format!("{name}.wal"));
    let mut cmd = std::process::Command::new(bins.join("dvs_admitd"));
    cmd.args(["--listen", "127.0.0.1:0", "--journal"])
        .arg(&path);
    let mut server = Server::start(cmd, &work.join(format!("{name}.err")))?;
    let refused = stream_all(&mut server, &inputs.lines[..inputs.served_from])?;
    if refused > 0 {
        return Err(format!("{refused} prefix events refused"));
    }
    server.kill();
    Ok(path)
}
