//! One benchmark run: the untraced end-to-end phases over the wire, or
//! the traced in-process replay.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::check::{Inject, Reference};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::wire::{write_prefix_journal, Bench, Pacing, Pass};
use crate::workload::{Inputs, Size, Workload};

/// End-to-end metrics (`--trace 0`), with units, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_eps", "1/s"),
    ("decision_p50_us", "us"),
    ("total_cost", "cost"),
    ("server_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units, in `BENCHMARK.json`
/// order.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("json.parse_ns", "ns"),
    ("server.self_ns", "ns"),
    ("engine.arrive_ns", "ns"),
    ("engine.depart_ns", "ns"),
    ("engine.tick_skip_ns", "ns"),
    ("engine.resolve_pass_ns", "ns"),
    ("engine.resolve_pass_p99_us", "us"),
    ("engine.resolves", "count"),
    ("engine.resolves_skipped", "count"),
    ("engine.skip_ratio", "ratio"),
    ("engine.resolves_degraded", "count"),
    ("engine.resolve_nodes", "count"),
    ("engine.nodes_per_resolve", "count"),
    ("engine.shed", "count"),
    ("engine.readmitted", "count"),
    ("bb.ns_per_node", "ns"),
    ("journal.append_ns", "ns"),
    ("journal.bytes_per_event", "B"),
    ("journal.snapshot_ns", "ns"),
    ("journal.records", "count"),
    ("journal.snapshots", "count"),
    ("journal.recover_ms", "ms"),
    ("router.arrive_ns", "ns"),
    ("router.depart_ns", "ns"),
    ("router.tick_ns", "ns"),
    ("router.shard_busy_ns", "ns"),
    ("router.self_ns", "ns"),
    ("router.requests_per_event", "ratio"),
    ("router.shard_skew", "ratio"),
    ("gen.lag_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Minimum set-up samples per end-to-end run.
const SETUP_SAMPLES: usize = 7;
/// Requests per latency block: each block's p99 has ten samples beyond
/// it.
const BLOCK: usize = 1000;
/// Minimum saturating passes per end-to-end run.
const MIN_SATURATING: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced in-process replay instead of the end-to-end phases.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Directory holding `dvs_admitd` and `dvs_routerd`.
    pub bins: PathBuf,
    /// Scratch directory (journals, server logs); must exist.
    pub work: PathBuf,
    /// A deliberate fault (self-tests only).
    pub inject: Option<Inject>,
}

/// Requests attempted and failed in one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Servers (or replay repetitions) the phase used.
    pub passes: usize,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Extra figures, as `(name, value)` pairs.
    pub notes: Vec<(&'static str, f64)>,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// No request failed and every check held.
    pub correct: bool,
    /// Requests attempted over all phases.
    pub attempted: u64,
    /// Requests failed over all phases.
    pub failed: u64,
    /// `(name, value, unit)`, every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-phase tallies.
    pub phases: Vec<Phase>,
    /// Every mismatch seen.
    pub problems: Vec<String>,
    /// Traced runs: the last repetition's spans.
    pub tracer: Option<Tracer>,
}

/// Tallies passes into a phase: any mismatch fails every request of the
/// phase, since a wrong result poisons all the responses it produced.
fn phase(name: &'static str, passes: &[Pass], problems: &mut Vec<String>) -> Phase {
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let mismatched: Vec<&String> = passes.iter().filter_map(|p| p.mismatch.as_ref()).collect();
    let failed = if mismatched.is_empty() {
        passes.iter().map(|p| p.failed).sum()
    } else {
        attempted
    };
    problems.extend(mismatched.into_iter().map(|m| format!("{name}: {m}")));
    Phase {
        name,
        passes: passes.len(),
        attempted,
        failed,
        notes: Vec::new(),
    }
}

fn finish(
    metrics: Vec<(&'static str, f64)>,
    units: &[(&'static str, &'static str)],
    phases: Vec<Phase>,
    problems: Vec<String>,
    tracer: Option<Tracer>,
) -> Result<Report, String> {
    let mut out = Vec::new();
    for &(name, unit) in units {
        let value = metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        out.push((name, value, unit));
    }
    let attempted = phases.iter().map(|p| p.attempted).sum();
    let failed = phases.iter().map(|p| p.failed).sum();
    Ok(Report {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics: out,
        phases,
        problems,
        tracer,
    })
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Infrastructure failures: a server that cannot start or stop, a
/// journal that cannot be written. Wrong results are not errors; they
/// are counted in the report.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut sessions = Inputs::generate(cfg.workload, cfg.seed, cfg.size)?;
    if cfg.trace {
        // The traced replay covers the first session only.
        sessions.truncate(1);
    }
    let references = sessions
        .iter()
        .map(Reference::replay)
        .collect::<Result<Vec<_>, _>>()?;
    let prefix_journals = sessions
        .iter()
        .enumerate()
        .map(|(j, s)| {
            (s.served_from > 0)
                .then(|| write_prefix_journal(s, &cfg.bins, &cfg.work, &format!("prefix{j}")))
                .transpose()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut bench = Bench {
        sessions: &sessions,
        references: &references,
        bins: &cfg.bins,
        work: &cfg.work,
        prefix_journals,
        inject: cfg.inject,
        started: 0,
    };
    if cfg.trace {
        traced(cfg, &mut bench)
    } else {
        end_to_end(cfg, &mut bench)
    }
}

/// Whether another unit of `unit` time still fits in `budget`.
fn fits(started: Instant, unit: Duration, budget: Duration) -> bool {
    started.elapsed() + unit <= budget
}

/// Share of a run's measuring time that goes to saturating passes; the
/// rest is paced.
const SATURATING_SHARE: f64 = 0.4;

fn end_to_end(cfg: &Config, bench: &mut Bench) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(cfg.seconds);
    let sessions = bench.sessions.len();
    let rate = cfg.workload.paced_rate();
    let mut problems = Vec::new();

    // Saturating and paced passes interleave over the whole run, so both
    // see the same stretch of host conditions. Saturating passes cycle
    // through the sessions (every session at least once); paced passes
    // take them in turn. The kind whose share of the time spent lags its
    // target goes next, for as long as the next pass fits.
    let started = Instant::now();
    let (mut saturating, mut paced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let (mut sat_time, mut paced_time) = (Duration::ZERO, Duration::ZERO);
    loop {
        let owed = saturating.len() < sessions.max(MIN_SATURATING) || paced.is_empty();
        let sat_next = saturating.is_empty()
            || (!paced.is_empty()
                && sat_time.as_secs_f64() * (1.0 - SATURATING_SHARE)
                    <= paced_time.as_secs_f64() * SATURATING_SHARE);
        let t = Instant::now();
        if sat_next {
            let j = saturating.len() % sessions;
            let guess = sat_time / u32::try_from(saturating.len().max(1)).unwrap_or(1);
            if !owed && !fits(started, guess, budget) {
                break;
            }
            let all = 0..bench.sessions[j].served().len();
            saturating.push(bench.pass(j, all, Pacing::Saturate)?);
            sat_time += t.elapsed();
        } else {
            let j = paced.len() % sessions;
            let window = cfg.workload.paced_window(bench.sessions[j].served().len());
            let guess = Duration::from_secs_f64(window.len() as f64 / rate);
            if !owed && !fits(started, guess, budget) {
                break;
            }
            paced.push(bench.pass(j, window, Pacing::Paced(rate))?);
            paced_time += t.elapsed();
        }
    }

    let mut setups: Vec<f64> = saturating.iter().chain(&paced).map(|p| p.setup_s).collect();
    let mut probes = 0;
    while setups.len() < SETUP_SAMPLES {
        setups.push(bench.setup_probe()?);
        probes += 1;
    }

    let eps: Vec<f64> = saturating
        .iter()
        .map(|p| p.events as f64 / p.elapsed.as_secs_f64().max(1e-9))
        .collect();
    let latencies: Vec<f64> = paced
        .iter()
        .flat_map(|p| p.latencies_us.iter().copied())
        .collect();
    let lag: Vec<f64> = paced
        .iter()
        .flat_map(|p| p.lag_us.iter().copied())
        .collect();
    let rss: Vec<f64> = saturating.iter().chain(&paced).map(|p| p.rss_mb).collect();
    // The first saturating pass of every session carries its cost.
    let cost: f64 = saturating[..sessions]
        .iter()
        .zip(bench.references)
        .map(|(p, r)| p.total_cost.unwrap_or(r.end().total_cost))
        .sum();

    let mut sat_phase = phase("saturating", &saturating, &mut problems);
    sat_phase.notes.push(("sessions", sessions as f64));
    let mut paced_phase = phase("paced", &paced, &mut problems);
    let blocks: Vec<f64> = paced
        .iter()
        .flat_map(|p| p.latencies_us.chunks_exact(BLOCK))
        .map(|b| percentile(b, 99.0))
        .collect();
    paced_phase.notes.extend([
        ("offered_eps", rate),
        ("latency_samples", latencies.len() as f64),
        ("p99_us", percentile(&latencies, 99.0)),
        ("p99_blocks", median(&blocks)),
        ("gen_lag_p99_us", percentile(&lag, 99.0)),
    ]);
    let setup_phase = Phase {
        name: "setup",
        passes: probes,
        attempted: probes as u64,
        failed: 0,
        notes: vec![("setup_samples", setups.len() as f64)],
    };
    finish(
        vec![
            ("setup_s", median(&setups)),
            ("throughput_eps", median(&eps)),
            ("decision_p50_us", percentile(&latencies, 50.0)),
            ("total_cost", cost),
            ("server_rss_mb", median(&rss)),
        ],
        &END_TO_END,
        vec![setup_phase, sat_phase, paced_phase],
        problems,
        None,
    )
}

fn traced(cfg: &Config, bench: &mut Bench) -> Result<Report, String> {
    let mut problems = Vec::new();
    let inputs = &bench.sessions[0];
    let reference = &bench.references[0];

    // The paced generator's own lateness, on the real server.
    let rate = cfg.workload.paced_rate();
    let window = cfg.workload.paced_window(inputs.served().len());
    let paced = bench.pass(0, window, Pacing::Paced(rate))?;
    let lag_p99 = percentile(&paced.lag_us, 99.0);
    let paced_phase = phase("paced", std::slice::from_ref(&paced), &mut problems);

    // Recovery replays the prefix `stream` servers start from; the other
    // workloads recover a journal of their first half.
    let (prefix, prefix_events) = match &bench.prefix_journals[0] {
        Some(path) => (path.clone(), inputs.served_from),
        None => {
            let path = cfg.work.join("half.wal");
            let half = inputs.events.len() / 2;
            trace::write_prefix_inprocess(inputs, half, &path)?;
            (path, half)
        }
    };

    let budget = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut last = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut rep_time = Duration::ZERO;
    while reps.is_empty() || fits(started, rep_time, budget) {
        let t = Instant::now();
        let mut tracer = Tracer::new();
        let layers = trace::repetition(
            inputs,
            reference,
            &cfg.work,
            &prefix,
            prefix_events,
            &mut tracer,
        )?;
        attempted += layers.attempted;
        failed += layers.failed;
        problems.extend(layers.problem.iter().map(|p| format!("replay: {p}")));
        reps.push(layers.metrics);
        last = Some(tracer);
        rep_time = t.elapsed();
    }
    let mut metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .filter_map(|&(name, _)| {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            (!values.is_empty()).then(|| (name, median(&values)))
        })
        .collect();
    metrics.push(("gen.lag_p99_us", lag_p99));
    let replay_phase = Phase {
        name: "replay",
        passes: reps.len(),
        attempted,
        failed,
        notes: Vec::new(),
    };
    finish(
        metrics,
        &PER_LAYER,
        vec![paced_phase, replay_phase],
        problems,
        last,
    )
}
