//! Self-tests at tiny size: every workload completes against the real
//! binaries, and an injected decision-log or balance mismatch is counted
//! as failed operations, never dropped.
//!
//! The servers are built from the repository on first use (into
//! `$CARGO_TARGET_DIR`, default `.bench_build` at the repository root),
//! or taken from `PERFBENCH_BIN_DIR` when that is set.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use perfbench::check::Inject;
use perfbench::report::{check_pin, PINS};
use perfbench::run::{run, Config, Report, END_TO_END, PER_LAYER};
use perfbench::workload::{Size, Workload};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn bins() -> &'static Path {
    static BINS: OnceLock<PathBuf> = OnceLock::new();
    BINS.get_or_init(|| {
        if let Some(dir) = std::env::var_os("PERFBENCH_BIN_DIR") {
            return PathBuf::from(dir);
        }
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| root().join(".bench_build"), PathBuf::from);
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .current_dir(root())
            .args(["build", "--offline", "--release", "--quiet"])
            .args(["-p", "dvs-admit", "--bin", "dvs_admitd"])
            .args(["-p", "dvs-router", "--bin", "dvs_routerd"])
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building the servers failed");
        target.join("release")
    })
}

fn tiny(workload: Workload, trace: bool, inject: Option<Inject>, name: &str) -> Report {
    let work = root().join(".perfbench").join(format!("selftest-{name}"));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let report = run(&Config {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        size: Size::TINY,
        bins: bins().to_path_buf(),
        work: work.clone(),
        inject,
    })
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    let _ = std::fs::remove_dir_all(&work);
    report
}

fn assert_clean(report: &Report, names: &[(&str, &str)], what: &str) {
    assert!(report.correct, "{what}: {:?}", report.problems);
    assert_eq!(report.failed, 0, "{what}");
    assert!(report.attempted > 0, "{what}");
    let got: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = names.iter().map(|n| n.0).collect();
    assert_eq!(got, want, "{what}: every metric, in order");
}

#[test]
fn every_workload_completes_end_to_end() {
    for w in Workload::ALL {
        let report = tiny(w, false, None, &format!("{}-e2e", w.name()));
        assert_clean(&report, &END_TO_END, w.name());
        for (name, value, _) in &report.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", w.name());
        }
    }
}

#[test]
fn every_workload_completes_traced() {
    for w in Workload::ALL {
        let report = tiny(w, true, None, &format!("{}-trace", w.name()));
        assert_clean(&report, &PER_LAYER, w.name());
        let spans = report
            .tracer
            .as_ref()
            .expect("traced runs keep spans")
            .spans();
        for name in [
            "server.handle_line",
            "json.parse",
            "engine.apply",
            "router.handle_line",
        ] {
            assert!(
                spans.iter().any(|s| s.name == name),
                "{}: no {name} span",
                w.name()
            );
        }
    }
}

/// A wrong result fails every request of each phase it appears in.
fn assert_all_failed(report: &Report, what: &str) {
    assert!(!report.correct, "{what}: injected fault went unnoticed");
    assert!(!report.problems.is_empty(), "{what}");
    for phase in report.phases.iter().filter(|p| p.name != "setup") {
        assert_eq!(
            phase.failed, phase.attempted,
            "{what}: phase {}",
            phase.name
        );
    }
}

#[test]
fn injected_log_mismatch_counts_as_failed() {
    let report = tiny(Workload::Resolve, false, Some(Inject::LogMismatch), "log");
    assert_all_failed(&report, "log mismatch");
    assert!(report.problems.iter().any(|p| p.contains("decision log")));
}

#[test]
fn injected_balance_mismatch_counts_as_failed() {
    let report = tiny(
        Workload::Cluster,
        false,
        Some(Inject::BalanceMismatch),
        "balance",
    );
    assert_all_failed(&report, "balance mismatch");
    assert!(report.problems.iter().any(|p| p.contains("balance")));
}

#[test]
fn pins_hold_and_a_changed_stream_is_refused() {
    for w in Workload::ALL {
        check_pin(PINS, w).unwrap_or_else(|e| panic!("{e}"));
    }
    let stale = r#"{"seed":1,"resolve":"fnv1a64:0","stream":"fnv1a64:0","cluster":"fnv1a64:0"}"#;
    let err = check_pin(stale, Workload::Stream).unwrap_err();
    assert!(err.contains("refusing to run"), "{err}");
}

#[test]
fn benchmark_json_names_what_a_run_reports() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = dvs_admit::json::parse_document(&text).expect("valid JSON");
    let pairs = doc.as_obj().unwrap();
    let field = |key: &str| dvs_admit::json::get(pairs, key).unwrap().as_arr().unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        field(key)
            .iter()
            .map(|m| {
                let m = m.as_obj().unwrap();
                let s = |k: &str| {
                    dvs_admit::json::get(m, k)
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = field("workloads")
        .iter()
        .map(|w| {
            let w = w.as_obj().unwrap();
            let name = dvs_admit::json::get(w, "name").unwrap().as_str().unwrap();
            let why = dvs_admit::json::get(w, "why").unwrap().as_str().unwrap();
            let rate = Workload::parse(name)
                .unwrap_or_else(|| panic!("unknown workload {name}"))
                .paced_rate();
            assert!(
                why.contains(&format!("paced at {rate} events/s")),
                "{name}: {why}"
            );
            name.to_string()
        })
        .collect();
    assert!(workloads.len() >= 2, "{workloads:?}");
}
