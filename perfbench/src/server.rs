//! Server processes: spawn, the first response, peak memory, shutdown,
//! and making sure nothing outlives the benchmark.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::check::{is_ok, truncate};

/// `DVS_THREADS` for every server process (recorded in the run context).
pub const DVS_THREADS: &str = "1";

/// How long after the banner the first connection is made.
const ACCEPT_SETTLE: Duration = Duration::from_millis(2);

/// How long any single response may take before it counts as missing.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server with one client connection open.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The reading side of the connection.
    pub reader: BufReader<TcpStream>,
    /// The writing side of the connection (`TCP_NODELAY` set).
    pub writer: TcpStream,
    /// Spawn to the first successful response.
    pub setup: Duration,
}

impl Server {
    /// Spawns `cmd` (server stderr goes to `stderr_log`), waits for its
    /// `listening on ADDR` banner, connects, and times the first
    /// successful `stats` response.
    ///
    /// # Errors
    ///
    /// Spawn, banner, connect or first-response failures.
    pub fn start(mut cmd: Command, stderr_log: &Path) -> Result<Server, String> {
        let log = File::create(stderr_log)
            .map_err(|e| format!("create {}: {e}", stderr_log.display()))?;
        cmd.env("DVS_THREADS", DVS_THREADS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log);
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Pending {
            child: Some(child),
            stderr_log,
        };
        let mut out = BufReader::new(stdout);
        let mut banner = String::new();
        out.read_line(&mut banner)
            .map_err(|e| server.fail(&format!("reading banner: {e}")))?;
        let Some(addr) = banner.trim().strip_prefix("listening on ") else {
            return Err(server.fail(&format!("unexpected banner {banner:?}")));
        };
        // `dvs_admitd` accepts by polling a non-blocking listener with a
        // 10 ms sleep. Connecting the instant the banner arrives would
        // race its first poll and make set-up time bimodal (about 2 ms
        // or 12 ms, by scheduling luck); connecting a little later
        // always lands in the poll's sleep, so the figure is steady and
        // still counts that wait.
        std::thread::sleep(ACCEPT_SETTLE);
        let stream =
            TcpStream::connect(addr).map_err(|e| server.fail(&format!("connect {addr}: {e}")))?;
        let setup_conn = |stream: &TcpStream| -> std::io::Result<TcpStream> {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
            stream.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
            stream.try_clone()
        };
        let mut writer = setup_conn(&stream).map_err(|e| server.fail(&e.to_string()))?;
        let mut reader = BufReader::with_capacity(1 << 16, stream);
        let mut first = String::new();
        writer
            .write_all(b"{\"op\":\"stats\"}\n")
            .and_then(|()| reader.read_line(&mut first).map(|_| ()))
            .map_err(|e| server.fail(&format!("first request: {e}")))?;
        if !is_ok(&first) {
            return Err(server.fail(&format!("first response {:?}", truncate(&first))));
        }
        let setup = started.elapsed();
        Ok(Server {
            child: server.child.take().expect("still owned"),
            _stdout: out,
            reader,
            writer,
            setup,
        })
    }

    /// Sends one request and reads its response line.
    ///
    /// # Errors
    ///
    /// I/O errors, or a closed connection.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send {line}: {e}"))?;
        read_response(&mut self.reader)
    }

    /// Peak resident memory (`VmHWM`) of the server and every process
    /// it spawned, in MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        let mut kib = 0u64;
        for pid in std::iter::once(self.child.id()).chain(descendants(self.child.id())) {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
            kib += status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .unwrap_or(0);
        }
        kib as f64 / 1024.0
    }

    /// Asks the server to shut down and waits for it (and anything it
    /// spawned) to exit.
    ///
    /// # Errors
    ///
    /// A refused shutdown or a server that does not exit in time (it is
    /// killed either way).
    pub fn shutdown(mut self) -> Result<(), String> {
        let response = self.request("{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("server did not exit after shutdown".to_string()),
            }
        }
        match response {
            Ok(r) if is_ok(&r) => Ok(()),
            Ok(r) => Err(format!("shutdown refused: {}", truncate(&r))),
            Err(e) => Err(e),
        }
    }

    /// Kills the server and everything it spawned, the way a crash
    /// would, and waits for all of them.
    pub fn kill(mut self) {
        stop(&mut self.child);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        stop(&mut self.child);
    }
}

/// A child whose start-up has not succeeded yet; failing kills it.
struct Pending<'a> {
    child: Option<Child>,
    stderr_log: &'a Path,
}

impl Pending<'_> {
    fn fail(&mut self, msg: &str) -> String {
        if let Some(child) = self.child.as_mut() {
            stop(child);
        }
        let log = std::fs::read_to_string(self.stderr_log).unwrap_or_default();
        format!("server start: {msg}; stderr: {}", truncate(log.trim()))
    }
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            stop(child);
        }
    }
}

/// Reads one response line (without its newline).
///
/// # Errors
///
/// I/O errors or a closed connection.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("server closed the connection".to_string()),
        Ok(_) => {
            line.truncate(line.trim_end().len());
            Ok(line)
        }
        Err(e) => Err(format!("reading response: {e}")),
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// Kills `child` and its descendants (children first, so none is
/// re-parented while still running) and waits until each has ended.
fn stop(child: &mut Child) {
    if matches!(child.try_wait(), Ok(Some(_))) {
        return;
    }
    let tree = descendants(child.id());
    for &pid in &tree {
        // SAFETY: kill(2) with a pid read from /proc and a constant
        // signal has no memory-safety preconditions.
        unsafe {
            kill(pid as i32, SIGKILL);
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    let deadline = Instant::now() + Duration::from_secs(5);
    while tree.iter().any(|&p| alive(p)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Whether `pid` still runs (a zombie has ended; only its reaping is
/// left to its new parent).
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| s.rsplit_once(") ").map(|(_, rest)| !rest.starts_with('Z')))
        .unwrap_or(false)
}

/// Every live descendant of `pid`, depth first.
fn descendants(pid: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for task in tasks.flatten() {
        let children = std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
        for child in children
            .split_whitespace()
            .filter_map(|c| c.parse::<u32>().ok())
        {
            out.extend(descendants(child));
            out.push(child);
        }
    }
    out
}
