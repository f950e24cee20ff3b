//! Behavioral tests for the admission engine: event validation, the
//! shedding economics of the re-solve pass, watermark hysteresis, the
//! metrics balance invariant, and the engine-state codec (snapshots and
//! migration payloads).

use dvs_admit::{
    AdmissionEngine, AdmitError, EngineConfig, JournalError, TraceSpec, Verdict, WatermarkPolicy,
    RESERVED_ANCHOR_ID,
};
use dvs_power::presets::cubic_ideal;
use reject_sched::online::OnlineGreedy;
use rt_model::io::{EventKind, EventRecord};
use rt_model::{Task, TaskId};

fn engine() -> AdmissionEngine {
    AdmissionEngine::new(
        vec![cubic_ideal()],
        Box::new(OnlineGreedy),
        EngineConfig::default(),
    )
    .unwrap()
}

fn arrive(at: f64, task: Task) -> EventRecord {
    EventRecord::new(at, EventKind::Arrive(task))
}

/// A task priced to be admitted by the myopic greedy rule on an empty
/// cubic domain with the default 1000-tick horizon (`ΔE = 1000·u³`).
fn cheap(id: usize, u: f64, penalty: f64) -> Task {
    Task::new(id, u * 1000.0, 1000)
        .unwrap()
        .with_penalty(penalty)
}

#[test]
fn rejects_time_regressions_and_bad_ids() {
    let mut e = engine();
    e.apply(&arrive(10.0, cheap(1, 0.1, 50.0))).unwrap();
    assert!(matches!(
        e.apply(&arrive(5.0, cheap(2, 0.1, 50.0))),
        Err(AdmitError::TimeRegression { .. })
    ));
    assert!(matches!(
        e.apply(&arrive(10.0, cheap(1, 0.1, 50.0))),
        Err(AdmitError::DuplicateTask(_))
    ));
    assert!(matches!(
        e.apply(&arrive(
            10.0,
            Task::new(RESERVED_ANCHOR_ID, 1.0, 1000).unwrap()
        )),
        Err(AdmitError::ReservedId(_))
    ));
    assert!(matches!(
        e.apply(&EventRecord::new(11.0, EventKind::Depart(TaskId::new(99)))),
        Err(AdmitError::UnknownTask(_))
    ));
    // Errors must not corrupt the ledger: the first task is still active.
    assert_eq!(e.active_len(0), 1);
}

#[test]
fn resolve_sheds_unprofitable_commitments_and_charges_penalties() {
    let mut e = engine();
    // u = 0.5 each: alone either costs ΔE = 125; together the second costs
    // marginal 1000·(1 − 0.125) = 875. Both clear their own admission bar
    // at arrival (penalty 130 ≥ 125 for the first), but the pair at u = 1.0
    // burns 1000 energy per horizon while shedding one saves 875 at a
    // penalty of only 130 — the re-solve must notice and drop exactly one.
    e.apply(&arrive(0.0, cheap(1, 0.5, 130.0))).unwrap();
    let d = e.apply(&arrive(0.0, cheap(2, 0.5, 900.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { .. }));
    assert_eq!(e.active_len(0), 2);

    let sheds = e.apply(&EventRecord::new(1.0, EventKind::Tick)).unwrap();
    assert_eq!(sheds.len(), 1, "expected exactly one shed, got {sheds:?}");
    assert_eq!(sheds[0].task, TaskId::new(1), "the cheap-penalty task goes");
    assert!(matches!(sheds[0].verdict, Verdict::Shed { domain: 0 }));
    assert_eq!(e.active_len(0), 1);

    let m = e.metrics();
    assert_eq!(m.admitted, 2);
    assert_eq!(m.shed, 1);
    assert_eq!(m.accepted(), 1);
    assert_eq!(m.accepted() + m.rejected + m.standing_shed(), m.arrivals);
    assert_eq!(m.penalty_charged, 130.0, "shed penalty charged once");
    assert!(m.resolves >= 1);
}

#[test]
fn resolve_keeps_profitable_commitments_untouched() {
    let mut e = engine();
    e.apply(&arrive(0.0, cheap(1, 0.3, 500.0))).unwrap();
    e.apply(&arrive(0.0, cheap(2, 0.2, 500.0))).unwrap();
    let sheds = e.apply(&EventRecord::new(10.0, EventKind::Tick)).unwrap();
    assert!(sheds.is_empty());
    assert_eq!(e.active_len(0), 2);
    assert_eq!(e.metrics().shed, 0);
}

#[test]
fn regret_trigger_fires_without_periodic_resolves() {
    let mut e = AdmissionEngine::new(
        vec![cubic_ideal()],
        Box::new(OnlineGreedy),
        EngineConfig::default()
            .resolve_every(0)
            .regret_threshold(100.0),
    )
    .unwrap();
    e.apply(&arrive(0.0, cheap(1, 0.5, 130.0))).unwrap();
    e.apply(&arrive(0.0, cheap(2, 0.5, 900.0))).unwrap();
    // Regret = max(0, 875 − 130) + max(0, 875 − 900) = 745 > 100.
    assert!(e.regret().unwrap() > 100.0);
    let sheds = e.apply(&EventRecord::new(1.0, EventKind::Tick)).unwrap();
    assert_eq!(sheds.len(), 1);
    assert!(
        (e.regret().unwrap()).abs() < 1e-9,
        "regret cleared after shed"
    );
}

#[test]
fn watermark_policy_engages_and_disengages_with_hysteresis() {
    let mut policy = WatermarkPolicy::new(0.6, 0.3, 4.0).unwrap();
    let mut e = AdmissionEngine::new(
        vec![cubic_ideal()],
        Box::new(policy.clone()),
        EngineConfig::default().resolve_every(0),
    )
    .unwrap();
    // Below the high watermark the plain rule applies: u = 0.5 costs 125,
    // penalty 130 clears it.
    let d = e.apply(&arrive(0.0, cheap(1, 0.5, 130.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { .. }));
    // Now fill = 0.5 / s_max ≥ 0.6 is false… next arrival pushes the check:
    // u = 0.2 marginal from 0.5 is 1000·(0.343 − 0.125) = 218; penalty 230
    // clears the plain bar but fill 0.5 < 0.6 keeps the hedge off.
    let d = e.apply(&arrive(1.0, cheap(2, 0.2, 230.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { .. }));
    // fill = 0.7 ≥ 0.6 → engaged. Marginal for u = 0.1 from 0.7 is
    // 1000·(0.512 − 0.343) = 169; penalty 300 clears the plain bar but not
    // θ·ΔE = 676 → rejected under reservation.
    let d = e.apply(&arrive(2.0, cheap(3, 0.1, 300.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Rejected));

    // Mirror the latch on a standalone policy to observe the flag.
    use dvs_admit::EnginePolicy;
    let oracle_engine = engine(); // for an oracle instance shape
    let _ = oracle_engine;
    let oracle = reject_sched::Instance::new(
        rt_model::TaskSet::try_from_tasks([Task::new(0, 0.0, 1000).unwrap()]).unwrap(),
        cubic_ideal(),
    )
    .unwrap();
    assert!(!policy.is_engaged());
    policy.decide(&oracle, 0.7, &cheap(9, 0.1, 300.0)).unwrap();
    assert!(policy.is_engaged(), "crossing high engages");
    policy.decide(&oracle, 0.45, &cheap(9, 0.1, 300.0)).unwrap();
    assert!(policy.is_engaged(), "between watermarks stays engaged");
    policy.decide(&oracle, 0.2, &cheap(9, 0.1, 300.0)).unwrap();
    assert!(!policy.is_engaged(), "reaching low disengages");
}

#[test]
fn resolve_policy_never_costs_more_than_myopic_greedy() {
    // The acceptance criterion behind experiment E7, checked here on a
    // small grid so regressions surface in the unit suite first.
    for seed in [3u64, 11] {
        for load in [1.2, 2.2] {
            let trace = TraceSpec::new(16, load, seed).generate().unwrap();
            let run = |resolve: bool| {
                let config = if resolve {
                    EngineConfig::default().resolve_every(1)
                } else {
                    EngineConfig::default().resolve_every(0)
                };
                let mut e =
                    AdmissionEngine::new(vec![cubic_ideal()], Box::new(OnlineGreedy), config)
                        .unwrap();
                dvs_admit::trace::replay(&mut e, &trace).unwrap();
                e.metrics().total_cost()
            };
            let myopic = run(false);
            let resolving = run(true);
            assert!(
                resolving <= myopic + 1e-9,
                "seed {seed} load {load}: re-solve {resolving} > myopic {myopic}"
            );
        }
    }
}

#[test]
fn balance_invariant_holds_on_generated_traces() {
    for seed in 0..4u64 {
        let trace = TraceSpec::new(20, 2.0, seed).generate().unwrap();
        let mut e = AdmissionEngine::new(
            vec![cubic_ideal(), cubic_ideal()],
            Box::new(OnlineGreedy),
            EngineConfig::default(),
        )
        .unwrap();
        dvs_admit::trace::replay(&mut e, &trace).unwrap();
        let m = e.metrics();
        assert_eq!(m.arrivals, 20);
        assert_eq!(m.accepted() + m.rejected + m.standing_shed(), m.arrivals);
        assert_eq!(m.departures, 20);
        assert!(m.energy >= 0.0 && m.penalty_accrued >= 0.0);
    }
}

#[test]
fn pinned_arrivals_are_placed_only_on_their_pin_domain() {
    let mut e = AdmissionEngine::new(
        vec![cubic_ideal(), cubic_ideal()],
        Box::new(OnlineGreedy),
        EngineConfig::default(),
    )
    .unwrap();
    // Load domain 0 so the cheapest-marginal rule would pick the empty
    // domain 1 for any later arrival.
    let d = e.apply(&arrive(0.0, cheap(1, 0.5, 1000.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { domain: 0 }));
    // A pin to the loaded domain overrides the cheaper placement…
    let d = e
        .apply(&arrive(1.0, cheap(2, 0.3, 1000.0).with_domain(0)))
        .unwrap();
    assert!(
        matches!(d[0].verdict, Verdict::Accepted { domain: 0 }),
        "pinned task placed off its pin: {d:?}"
    );
    // …while the identical unpinned task takes the cheap empty domain.
    let d = e.apply(&arrive(2.0, cheap(3, 0.3, 1000.0))).unwrap();
    assert!(
        matches!(d[0].verdict, Verdict::Accepted { domain: 1 }),
        "unpinned task lost legacy cheapest-marginal placement: {d:?}"
    );
    assert_eq!(e.active_len(0), 2);
    assert_eq!(e.active_len(1), 1);
}

#[test]
fn out_of_range_pins_are_refused_before_any_state_changes() {
    let mut e = engine();
    let err = e
        .apply(&arrive(0.0, cheap(1, 0.1, 50.0).with_domain(3)))
        .unwrap_err();
    assert!(
        matches!(err, AdmitError::InvalidDomain { domain: 3, .. }),
        "wrong error: {err}"
    );
    assert_eq!(err.kind(), "invalid-domain");
    assert_eq!(e.active_len(0), 0);
    assert_eq!(e.metrics().arrivals, 0, "refused arrival was counted");
}

#[test]
fn snapshots_round_trip_domain_pins() {
    let config = EngineConfig::default();
    let mut a = AdmissionEngine::new(
        vec![cubic_ideal(), cubic_ideal()],
        Box::new(OnlineGreedy),
        config,
    )
    .unwrap();
    // One pinned admitted task, one pinned standing rejection (an
    // infeasible density on its pin domain), one unpinned admitted task.
    a.apply(&arrive(0.0, cheap(1, 0.4, 900.0).with_domain(1)))
        .unwrap();
    a.apply(&arrive(
        1.0,
        Task::new(2, 2000.0, 1000)
            .unwrap()
            .with_penalty(5.0)
            .with_domain(0),
    ))
    .unwrap();
    a.apply(&arrive(2.0, cheap(3, 0.2, 900.0))).unwrap();
    let snap = a.encode_snapshot();
    assert!(
        snap.contains("dvs-admit-snapshot"),
        "unexpected header: {snap}"
    );

    let mut b = AdmissionEngine::new(
        vec![cubic_ideal(), cubic_ideal()],
        Box::new(OnlineGreedy),
        config,
    )
    .unwrap();
    b.restore_snapshot(&snap).unwrap();
    assert_eq!(b.encode_snapshot(), snap, "snapshot does not round-trip");
    // The restored engine keeps making the same decisions: a departure of
    // the pinned task must guard (and log) on the pin domain in both.
    let da = a
        .apply(&EventRecord::new(3.0, EventKind::Depart(TaskId::new(1))))
        .unwrap();
    let db = b
        .apply(&EventRecord::new(3.0, EventKind::Depart(TaskId::new(1))))
        .unwrap();
    assert_eq!(da, db, "post-restore decisions diverged");
    assert_eq!(a.format_decision_log(), b.format_decision_log());
}

fn two_domain_engine() -> AdmissionEngine {
    AdmissionEngine::new(
        vec![cubic_ideal(), cubic_ideal()],
        Box::new(OnlineGreedy),
        EngineConfig::default(),
    )
    .unwrap()
}

/// An engine that has lived through a reshard on both sides: domain 1
/// was exported (and is fenced), domain 2 was imported from another
/// engine with a served, a shed and a standing-rejected task. Returns the
/// engine and the payload domain 1 was exported as.
fn resharded_engine() -> (AdmissionEngine, String) {
    let mut e = two_domain_engine();
    let deadline = Task::new(4, 100.0, 1000)
        .unwrap()
        .with_deadline(500)
        .unwrap()
        .with_penalty(900.0);
    for (at, task) in [
        (0.0, cheap(3, 0.2, 900.0)),
        (0.0, cheap(1, 0.4, 900.0).with_domain(0)),
        (0.5, cheap(2, 0.3, 900.0).with_domain(1)),
        (0.5, deadline.with_domain(0)),
        (0.5, cheap(5, 0.1, 900.0).with_domain(0)),
    ] {
        e.apply(&arrive(at, task)).unwrap();
    }
    e.apply(&EventRecord::new(0.7, EventKind::Depart(TaskId::new(5))))
        .unwrap();
    let exported = e.export_domain(1).unwrap();

    let mut other = engine();
    other
        .apply(&arrive(0.0, cheap(11, 0.5, 130.0).with_domain(0)))
        .unwrap();
    other
        .apply(&arrive(0.0, cheap(12, 0.5, 900.0).with_domain(0)))
        .unwrap();
    let infeasible = Task::new(13, 2000.0, 1000).unwrap().with_penalty(5.0);
    other
        .apply(&arrive(0.5, infeasible.with_domain(0)))
        .unwrap();
    let sheds = other
        .apply(&EventRecord::new(1.0, EventKind::Tick))
        .unwrap();
    assert_eq!(sheds.len(), 1, "fixture expects one shed task");
    let moved = other.export_domain(0).unwrap();
    assert_eq!(e.import_domain("2:0", &moved).unwrap(), 2);
    assert_eq!(e.reserved_len(2), 1, "the shed task must move reserved");
    (e, exported)
}

#[test]
fn snapshots_round_trip_fenced_and_imported_domains() {
    let (mut a, exported) = resharded_engine();
    let snap = a.encode_snapshot();
    let mut b = two_domain_engine();
    b.restore_snapshot(&snap).unwrap();
    assert_eq!(b.encode_snapshot(), snap, "snapshot does not round-trip");
    assert_eq!(b.domain_count(), 3);
    assert!(b.domain_is_fenced(1));
    // The fenced slot replays its stored payload; the imported domain
    // re-exports byte-identically from the restored engine.
    assert_eq!(b.export_domain(1).unwrap(), exported);
    assert_eq!(b.export_domain(2).unwrap(), a.export_domain(2).unwrap());
    assert_eq!(b.encode_snapshot(), a.encode_snapshot());
    // The restored engine keeps deciding identically.
    for e in [&mut a, &mut b] {
        e.apply(&arrive(2.0, cheap(20, 0.3, 900.0))).unwrap();
        e.apply(&EventRecord::new(3.0, EventKind::Tick)).unwrap();
    }
    assert_eq!(a.format_decision_log(), b.format_decision_log());
    assert_eq!(
        a.metrics().deterministic_summary(),
        b.metrics().deterministic_summary()
    );
}

/// Byte spans of the whitespace-separated tokens of `text`.
fn token_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        match (start, c.is_ascii_whitespace()) {
            (None, false) => start = Some(i),
            (Some(s), true) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    spans
}

/// Every token-boundary truncation of `text`, then every single-token
/// deletion, duplication, and replacement by a junk token drawn from a
/// seeded stream, paired with whether the mutant may still decode (a
/// replaced `free` token — an opaque key — is a different valid text).
fn mutants(text: &str, free: &str, seed: u64) -> Vec<(String, bool)> {
    const JUNK: [&str; 5] = ["~", "zz", "-1", "0x1g", "\u{3bb}"];
    let spans = token_spans(text);
    let last_end = spans.last().unwrap().1;
    let mut out = Vec::new();
    for &(start, end) in &spans {
        out.push((text[..start].to_string(), false));
        if end < last_end {
            out.push((text[..end].to_string(), false));
        }
    }
    let mut state = seed;
    for &(start, end) in &spans {
        let token = &text[start..end];
        let splice = |with: &str| format!("{}{with}{}", &text[..start], &text[end..]);
        out.push((splice(""), false));
        out.push((splice(&format!("{token} {token}")), false));
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        out.push((
            splice(JUNK[(state >> 33) as usize % JUNK.len()]),
            token == free,
        ));
    }
    out
}

#[test]
fn corrupted_payloads_and_snapshots_fail_with_typed_errors() {
    let (mut e, _) = resharded_engine();
    let snap = e.encode_snapshot();
    let payload = e.export_domain(2).unwrap();
    let fresh_target = || {
        AdmissionEngine::with_domains(Vec::new(), Box::new(OnlineGreedy), EngineConfig::default())
            .unwrap()
    };
    fresh_target().import_domain("k", &payload).unwrap();
    two_domain_engine().restore_snapshot(&snap).unwrap();

    for seed in [1, 7, 42] {
        for (mutant, may_decode) in mutants(&payload, "", seed) {
            match fresh_target().import_domain("k", &mutant) {
                Err(AdmitError::Migration { .. }) => {}
                Ok(_) if may_decode => {}
                other => panic!("payload mutant {mutant:?} gave {other:?}"),
            }
        }
        for (mutant, may_decode) in mutants(&snap, "2:0", seed) {
            match two_domain_engine().restore_snapshot(&mutant) {
                Err(JournalError::Snapshot { .. }) => {}
                Ok(()) if may_decode => {}
                other => panic!("snapshot mutant gave {other:?}:\n{mutant}"),
            }
        }
    }

    // Older snapshot formats are refused, not half-read.
    let (_, body) = snap.split_once('\n').unwrap();
    let old = format!("dvs-admit-snapshot v2\n{body}");
    assert!(matches!(
        two_domain_engine().restore_snapshot(&old),
        Err(JournalError::Snapshot { line: 1, .. })
    ));
}
