//! The response shape of the router's serving path: `dvs_routerd` serves
//! through the shared session loop (`serve_session_with`), which must put
//! whole lines on the wire — every transport write ends on `'\n'` — flush
//! a pipelined burst in fewer writes than requests, and still flush a
//! lone request's response before it blocks on the next read.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use dvs_admit::json::{self, JsonValue};
use dvs_admit::server::{serve_session_with, serve_tcp, ServeOptions, ServerControl, SessionEnd};
use dvs_admit::{AdmissionEngine, ClientConfig, EngineConfig};
use dvs_power::presets::cubic_ideal;
use dvs_router::{Router, ShardMap, ShardSpec};
use reject_sched::online::OnlineGreedy;

/// What the session did to its transport, in order.
#[derive(Debug, Clone, PartialEq)]
enum Io {
    /// A read that returned data (or EOF, with zero bytes).
    Read(usize),
    /// One write handed to the transport.
    Write(Vec<u8>),
}

type Log = Rc<RefCell<Vec<Io>>>;

/// Feeds one scripted chunk per `read` call, then EOF.
struct ScriptedReader {
    chunks: VecDeque<Vec<u8>>,
    log: Log,
}

impl Read for ScriptedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(chunk) = self.chunks.pop_front() else {
            self.log.borrow_mut().push(Io::Read(0));
            return Ok(0);
        };
        assert!(chunk.len() <= buf.len(), "chunk must fit one read");
        buf[..chunk.len()].copy_from_slice(&chunk);
        self.log.borrow_mut().push(Io::Read(chunk.len()));
        Ok(chunk.len())
    }
}

/// Records every write the session hands to its transport.
struct RecordingWriter {
    log: Log,
}

impl Write for RecordingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.log.borrow_mut().push(Io::Write(buf.to_vec()));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A 2-shard cluster over 2 domains: in-process `serve_tcp` shards (one
/// domain each) behind a connected router.
fn cluster() -> (Router, Vec<std::thread::JoinHandle<()>>) {
    let names = vec!["shard0".to_string(), "shard1".to_string()];
    let map = ShardMap::new(names, 2, None).unwrap();
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for s in 0..2 {
        let cpus = vec![cubic_ideal(); map.owned(s).len().max(1)];
        let engine =
            AdmissionEngine::new(cpus, Box::new(OnlineGreedy), EngineConfig::default()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        endpoints.push(ShardSpec {
            addr: listener.local_addr().unwrap().to_string(),
            replica: None,
        });
        let engine = Arc::new(Mutex::new(engine));
        handles.push(std::thread::spawn(move || {
            let ctl = Arc::new(ServerControl::new());
            let _ = serve_tcp(&listener, &engine, ServeOptions::default(), &ctl, None);
        }));
    }
    (
        Router::new(map, &endpoints, &ClientConfig::default()).unwrap(),
        handles,
    )
}

/// `n` event requests: pinned arrivals over both domains, a tick every
/// tenth event.
fn events(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            if i % 10 == 9 {
                format!("{{\"op\":\"tick\",\"at\":{i}}}")
            } else {
                format!(
                    "{{\"op\":\"arrive\",\"at\":{i},\"id\":{i},\"cycles\":10,\"period\":1000,\
                     \"penalty\":5,\"domain\":{}}}",
                    i % 2
                )
            }
        })
        .collect()
}

/// Runs `chunks` through the shared session loop with a router handler,
/// then shuts the shards down. Returns the transport log.
fn serve(chunks: Vec<Vec<u8>>) -> Vec<Io> {
    let (mut router, handles) = cluster();
    let log: Log = Rc::default();
    let reader = ScriptedReader {
        chunks: chunks.into(),
        log: Rc::clone(&log),
    };
    let writer = RecordingWriter {
        log: Rc::clone(&log),
    };
    let end = serve_session_with(reader, writer, &ServerControl::new(), |line| {
        router.handle_line(line)
    })
    .unwrap();
    assert_eq!(end, SessionEnd::Eof);
    assert!(router.handle_line("{\"op\":\"shutdown\"}").shutdown);
    for h in handles {
        h.join().unwrap();
    }
    log.take()
}

fn writes(log: &[Io]) -> Vec<&[u8]> {
    log.iter()
        .filter_map(|io| match io {
            Io::Write(bytes) => Some(bytes.as_slice()),
            Io::Read(_) => None,
        })
        .collect()
}

/// Every write ends on a newline, and the written stream is one
/// successful JSON response per request.
fn assert_whole_lines(log: &[Io], requests: usize) {
    let mut stream = Vec::new();
    for w in writes(log) {
        assert_eq!(w.last(), Some(&b'\n'), "a write ended mid-line");
        stream.extend_from_slice(w);
    }
    let text = String::from_utf8(stream).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), requests);
    for line in lines {
        let pairs = json::parse_object(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(
            json::get(&pairs, "ok"),
            Some(&JsonValue::Bool(true)),
            "{line}"
        );
    }
}

#[test]
fn pipelined_burst_flushes_whole_lines_in_fewer_writes_than_requests() {
    // 400 events and a merged log past the write buffer's 8 KiB, all in
    // one read: a response larger than the buffer is still one line.
    let mut requests = events(400);
    requests.push("{\"op\":\"log\"}".to_string());
    let burst: String = requests.iter().map(|r| format!("{r}\n")).collect();
    assert!(burst.len() <= 64 * 1024);
    let mut chunks = Vec::new();
    for piece in burst.as_bytes().chunks(8 * 1024) {
        chunks.push(piece.to_vec());
    }
    let log = serve(chunks);
    assert_whole_lines(&log, requests.len());
    let n_writes = writes(&log).len();
    assert!(
        n_writes < requests.len(),
        "{n_writes} writes for {} pipelined requests",
        requests.len()
    );
    let Some(Io::Write(last)) = log.iter().rev().find(|io| matches!(io, Io::Write(_))) else {
        unreachable!()
    };
    assert!(last.len() > 8 * 1024, "the log response outgrew the buffer");
}

#[test]
fn a_lone_request_is_flushed_before_the_next_read() {
    let requests = events(30);
    let chunks: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| format!("{r}\n").into_bytes())
        .collect();
    let log = serve(chunks);
    assert_whole_lines(&log, requests.len());
    // Request k's response is on the wire before read k+1 is issued:
    // reads and single-line writes strictly alternate.
    let mut expected = Vec::new();
    for r in &requests {
        expected.push(format!("read {}", r.len() + 1));
        expected.push("write 1".to_string());
    }
    expected.push("read 0".to_string());
    let actual: Vec<String> = log
        .iter()
        .map(|io| match io {
            Io::Read(n) => format!("read {n}"),
            Io::Write(bytes) => format!("write {}", bytes.iter().filter(|&&b| b == b'\n').count()),
        })
        .collect();
    assert_eq!(actual, expected);
}
