//! The run context recorded with every result, the pinned input digests,
//! and the JSON a run prints.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use dvs_admit::json::{self, JsonValue};

use crate::run::{Phase, Report};
use crate::server::DVS_THREADS;
use crate::workload::{digest, Fnv, Inputs, Size, Workload, DEFAULT_SEED};

/// `pins.json`: the request-stream digest of every workload at
/// [`DEFAULT_SEED`](crate::workload::DEFAULT_SEED).
pub const PINS: &str = include_str!("../pins.json");

/// The pinned digest of `workload`.
///
/// # Errors
///
/// A malformed pin file or a workload without a pin.
pub fn pinned_digest(pins: &str, workload: Workload) -> Result<String, String> {
    let doc = json::parse_document(pins).map_err(|e| format!("pins.json: {e}"))?;
    doc.as_obj()
        .and_then(|pairs| json::get(pairs, workload.name()))
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("pins.json has no digest for {}", workload.name()))
}

/// Refuses to run when a workload's default-seed streams no longer match
/// the pinned digest: a change to the generators (`TraceSpec`,
/// `WorkloadSpec`) must not silently change what the benchmark measures.
///
/// # Errors
///
/// The mismatch, or a malformed pin file.
pub fn check_pin(pins: &str, workload: Workload) -> Result<(), String> {
    let digest = digest(&Inputs::generate(workload, DEFAULT_SEED, Size::BENCH)?);
    let pinned = pinned_digest(pins, workload)?;
    if digest == pinned {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: the {} streams for seed {DEFAULT_SEED} digest to {digest}, \
             pins.json says {pinned} (regenerate the pins only for an intended workload change)",
            workload.name()
        ))
    }
}

/// The context every result is recorded with, as one JSON object: host
/// cores, the pinned `DVS_THREADS`, build profile, rustc, and the source
/// revision (`git` commit when there is one, and always a digest of the
/// sources the servers are built from).
#[must_use]
pub fn context(root: &Path) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rustc = command_line(root, "rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line(root, "git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    format!(
        "{{\"host_cores\":{cores},\"dvs_threads\":{DVS_THREADS},\"build_profile\":\"{profile}\",\
         \"rustc\":\"{}\",\"commit\":\"{}\",\"source_digest\":\"{}\"}}",
        json::escape(&rustc),
        json::escape(&commit),
        source_digest(root)
    )
}

fn command_line(dir: &Path, program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the workspace manifests and every file under `crates/`
/// (paths and contents, in sorted order).
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files[2..].sort();
    let mut h = Fnv::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        h.write(rel.to_string_lossy().as_bytes());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("fnv1a64:{:016x}", h.finish())
}

fn phase_json(p: &Phase) -> String {
    let mut s = format!(
        "{{\"phase\":\"{}\",\"passes\":{},\"attempted\":{},\"failed\":{}",
        p.name, p.passes, p.attempted, p.failed
    );
    for (k, v) in &p.notes {
        let _ = write!(s, ",\"{k}\":{v}");
    }
    s.push('}');
    s
}

/// The phase tallies and problems, one JSON object.
#[must_use]
pub fn details(report: &Report) -> String {
    let phases: Vec<String> = report.phases.iter().map(phase_json).collect();
    let problems: Vec<String> = report
        .problems
        .iter()
        .map(|p| format!("\"{}\"", json::escape(p)))
        .collect();
    format!(
        "{{\"phases\":[{}],\"problems\":[{}]}}",
        phases.join(","),
        problems.join(",")
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}
