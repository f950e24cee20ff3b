//! **R2 (extension) — chaos: crash recovery and overload degradation.**
//!
//! Measures what the write-ahead journal costs and what a crash costs.
//! Each seed replays an E8-style overload session through four serving
//! shapes:
//!
//! * **plain** — no journal attached (the PR-6 hot path, the reference
//!   throughput);
//! * **journal** — CRC-framed write-ahead journal on every event, flushed
//!   before the decision is acknowledged (the crash-safe default);
//! * **degraded** — journaled *and* forced onto the myopic backpressure
//!   fast path (what an overloaded server serves);
//! * **kill+recover** — the journaled run is cut at a seed-derived point,
//!   the engine dropped cold, and a fresh engine recovered from the
//!   journal (`snapshot + deterministic replay of the tail`) before
//!   finishing the session.
//!
//! Reported per thread count: events/s for the first three shapes, the
//! journal's throughput overhead, the measured recovery wall time, the
//! replayed-tail length, and whether the recovered run's decision log is
//! **bit-identical** to the uninterrupted one (the recovery invariant —
//! `yes` or the row is evidence of a bug). Wall-clock columns are
//! excluded from regression gating as usual; the identity column and the
//! decision counters are deterministic.
//!
//! Like T2/E8 this experiment times real work, so the harness runs it
//! alone, after the parallel batch.

use std::path::PathBuf;
use std::time::Instant;

use dvs_admit::{AdmissionEngine, EngineConfig, Journal, JournalConfig, TraceSpec};
use dvs_power::presets::xscale_ideal;
use reject_sched::online::OnlineGreedy;

use crate::{mean, Scale, Table};

/// Session size/load: the same sustained-overload shape as E8, slightly
/// smaller so the kill/recover column stays cheap at full scale.
pub const N: usize = 24;

/// Total utilization demand (overload: rejections and sheds occur).
pub const LOAD: f64 = 3.0;

/// The worker-thread axis.
pub const THREADS: [usize; 2] = [1, 4];

/// Journal snapshot cadence: short enough that full-scale sessions cross
/// several snapshots, so recovery exercises `snapshot + tail`, not just
/// whole-log replay.
pub const SNAPSHOT_EVERY: u64 = 64;

/// The session spec for one seed.
#[must_use]
pub fn spec(scale: Scale, seed: u64) -> TraceSpec {
    let tick_every = match scale {
        Scale::Quick => 50.0,
        Scale::Full => 10.0,
    };
    TraceSpec::new(N, LOAD, seed).tick_every(tick_every)
}

fn config() -> EngineConfig {
    EngineConfig::default().resolve_every(1)
}

fn jconfig() -> JournalConfig {
    JournalConfig {
        snapshot_every: SNAPSHOT_EVERY,
        ..JournalConfig::default()
    }
}

/// A fresh directory per call: concurrent runs in one process (the unit
/// tests) replay the same seeds and must not share journal files.
fn wal_dir() -> PathBuf {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bench_r2_chaos_{}_{call}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// One seed's measurements.
pub struct ChaosRun {
    /// Events/s without a journal (reference).
    pub eps_plain: f64,
    /// Events/s with the write-ahead journal.
    pub eps_journal: f64,
    /// Events/s journaled on the forced myopic fast path.
    pub eps_degraded: f64,
    /// Wall time of the `AdmissionEngine::recover` call, in ms.
    pub recovery_ms: f64,
    /// Journal-tail events replayed by the recovery.
    pub replayed: u64,
    /// Whether the kill+recover decision log matched the uninterrupted
    /// run bit for bit.
    pub identical: bool,
}

/// Replays one seed through all four serving shapes.
///
/// # Panics
///
/// Panics if trace generation, the engine, or journal I/O fails.
#[must_use]
pub fn run_one(scale: Scale, seed: u64) -> ChaosRun {
    let trace = spec(scale, seed).generate().expect("trace generation");
    let dir = wal_dir();

    // Plain: no journal (the reference hot path).
    let mut plain = AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config())
        .expect("at least one domain");
    dvs_admit::trace::replay(&mut plain, &trace).expect("generated traces are valid");
    let eps_plain = plain.metrics().events_per_sec();
    let ref_log = plain.format_decision_log();

    // Journaled, uninterrupted.
    let wal = dir.join(format!("r2_{seed}.wal"));
    let _ = std::fs::remove_file(&wal);
    let mut journaled =
        AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config())
            .expect("at least one domain");
    journaled.attach_journal(Journal::create(&wal, jconfig()).expect("journal create"));
    dvs_admit::trace::replay(&mut journaled, &trace).expect("generated traces are valid");
    let eps_journal = journaled.metrics().events_per_sec();
    assert_eq!(
        journaled.format_decision_log(),
        ref_log,
        "journaling must not change a decision"
    );

    // Journaled, forced onto the backpressure fast path.
    let wal_fast = dir.join(format!("r2_{seed}_fast.wal"));
    let _ = std::fs::remove_file(&wal_fast);
    let mut degraded = AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config())
        .expect("at least one domain");
    degraded.attach_journal(Journal::create(&wal_fast, jconfig()).expect("journal create"));
    for e in &trace {
        degraded
            .apply_opts(e, true)
            .expect("generated traces are valid");
    }
    let eps_degraded = degraded.metrics().events_per_sec();

    // Kill at a seed-derived point, recover, finish the session.
    let cut = 1 + (seed as usize * 13 + 7) % (trace.len() - 1);
    let wal_cut = dir.join(format!("r2_{seed}_cut.wal"));
    let _ = std::fs::remove_file(&wal_cut);
    {
        let mut victim =
            AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config())
                .expect("at least one domain");
        victim.attach_journal(Journal::create(&wal_cut, jconfig()).expect("journal create"));
        for e in &trace[..cut] {
            victim.apply(e).expect("generated traces are valid");
        }
        // Dropped cold: the crash.
    }
    let started = Instant::now();
    let recovered = AdmissionEngine::recover(
        &wal_cut,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jconfig(),
    )
    .expect("recovery");
    let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
    let replayed = recovered.replayed;
    let mut engine = recovered.engine;
    for e in &trace[cut..] {
        engine.apply(e).expect("generated traces are valid");
    }
    let identical = engine.format_decision_log() == ref_log;

    for p in [&wal, &wal_fast, &wal_cut] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir(&dir);
    ChaosRun {
        eps_plain,
        eps_journal,
        eps_degraded,
        recovery_ms,
        replayed,
        identical,
    }
}

/// Runs `f` with `DVS_THREADS` set to `n`, restoring the previous value.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let prev = std::env::var(dvs_exec::THREADS_ENV).ok();
    std::env::set_var(dvs_exec::THREADS_ENV, n.to_string());
    let out = f();
    match prev {
        Some(v) => std::env::set_var(dvs_exec::THREADS_ENV, v),
        None => std::env::remove_var(dvs_exec::THREADS_ENV),
    }
    out
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if trace generation, the engine, or journal I/O fails.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        format!("R2: chaos — journal overhead, degraded serving, crash recovery (n = {N}, load = {LOAD})"),
        &[
            "threads",
            "eps_plain",
            "eps_journal",
            "overhead_pct",
            "eps_degraded",
            "recovery_ms",
            "avg_replayed",
            "identical",
        ],
    );
    for &threads in &THREADS {
        let runs: Vec<ChaosRun> = with_threads(threads, || {
            (0..scale.seeds())
                .map(|seed| run_one(scale, seed))
                .collect()
        });
        let plain: Vec<f64> = runs.iter().map(|r| r.eps_plain).collect();
        let journal: Vec<f64> = runs.iter().map(|r| r.eps_journal).collect();
        let degraded: Vec<f64> = runs.iter().map(|r| r.eps_degraded).collect();
        let recovery: Vec<f64> = runs.iter().map(|r| r.recovery_ms).collect();
        let replayed: Vec<f64> = runs.iter().map(|r| r.replayed as f64).collect();
        let overhead = 100.0 * (1.0 - mean(&journal) / mean(&plain));
        let identical = runs.iter().all(|r| r.identical);
        table.push(&[
            threads.to_string(),
            format!("{:.0}", mean(&plain)),
            format!("{:.0}", mean(&journal)),
            format!("{overhead:.1}"),
            format!("{:.0}", mean(&degraded)),
            format!("{:.3}", mean(&recovery)),
            format!("{:.1}", mean(&replayed)),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_recovers_bit_identically() {
        for seed in 0..Scale::Quick.seeds() {
            let r = run_one(Scale::Quick, seed);
            assert!(r.identical, "seed {seed}: recovered log diverged");
            assert!(r.eps_plain > 0.0 && r.eps_journal > 0.0 && r.eps_degraded > 0.0);
            assert!(r.recovery_ms >= 0.0);
        }
    }

    #[test]
    fn table_has_the_identity_column_green() {
        let table = run(Scale::Quick);
        assert_eq!(table.rows().len(), THREADS.len());
        for row in table.rows() {
            assert_eq!(row[7], "yes", "recovery invariant violated: {row:?}");
            let recovery: f64 = row[5].parse().unwrap();
            assert!(recovery >= 0.0);
        }
    }
}
