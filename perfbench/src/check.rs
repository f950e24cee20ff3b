//! The correctness gate: every pass's final `stats` and `{"op":"log"}`
//! responses are checked against an in-process reference replay.

use dvs_admit::json::{self, JsonValue};

use crate::workload::{Inputs, Workload};

/// What an uninterrupted in-process engine produces for a session. For
/// `cluster` this is one unsharded 4-domain engine — the identity the
/// router's merged log is specified against.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The engine's whole decision log.
    pub log: String,
    /// The engine's state after each event.
    marks: Vec<Mark>,
}

/// The reference state after some prefix of the events.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Mark {
    decisions: usize,
    total_cost: f64,
    arrivals: u64,
    events: u64,
}

/// What a server must report after serving a prefix of a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected<'a> {
    /// The decision log so far.
    pub log: &'a str,
    /// `total_cost` so far.
    pub total_cost: f64,
    /// Arrivals so far.
    pub arrivals: u64,
    /// Events applied so far.
    pub events: u64,
}

impl Reference {
    /// Replays every event of `inputs` through a fresh engine.
    ///
    /// # Errors
    ///
    /// An engine error on any event (a generated stream never causes one).
    pub fn replay(inputs: &Inputs) -> Result<Reference, String> {
        let mut engine = inputs.workload.engine();
        let mut marks = Vec::with_capacity(inputs.events.len());
        for (i, e) in inputs.events.iter().enumerate() {
            engine
                .apply(e)
                .map_err(|err| format!("reference replay, event {i}: {err}"))?;
            let m = engine.metrics();
            marks.push(Mark {
                decisions: engine.decision_log().len(),
                total_cost: m.total_cost(),
                arrivals: m.arrivals,
                events: m.events,
            });
        }
        Ok(Reference {
            log: engine.format_decision_log(),
            marks,
        })
    }

    /// The state after the first `events` events.
    ///
    /// # Panics
    ///
    /// Panics if `events` is zero or beyond the session.
    #[must_use]
    pub fn after(&self, events: usize) -> Expected<'_> {
        let m = self.marks[events - 1];
        let end = self
            .log
            .match_indices('\n')
            .nth(m.decisions.wrapping_sub(1))
            .map_or(0, |(i, _)| i + 1);
        Expected {
            log: &self.log[..end],
            total_cost: m.total_cost,
            arrivals: m.arrivals,
            events: m.events,
        }
    }

    /// The state after the whole session.
    #[must_use]
    pub fn end(&self) -> Expected<'_> {
        self.after(self.marks.len())
    }
}

/// A deliberately wrong result, so self-tests can prove the gate counts
/// it. Never set by the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Append a decision line to the log the server returned.
    LogMismatch,
    /// Add one to the `accepted` count the server returned.
    BalanceMismatch,
}

impl Inject {
    /// Applies the fault to the raw `stats` and `log` response lines.
    pub fn apply(self, stats: &mut String, log: &mut String) {
        match self {
            Inject::LogMismatch => {
                if let Some(end) = log.rfind("\"}") {
                    log.insert_str(end, "injected\\n");
                }
            }
            Inject::BalanceMismatch => {
                if let Some(start) = stats.find("\"accepted\":") {
                    let from = start + "\"accepted\":".len();
                    let len = stats[from..]
                        .find(|c: char| !c.is_ascii_digit())
                        .unwrap_or(0);
                    let n: u64 = stats[from..from + len].parse().unwrap_or(0);
                    stats.replace_range(from..from + len, &(n + 1).to_string());
                }
            }
        }
    }
}

fn number(pairs: &[(String, JsonValue)], key: &str) -> Result<f64, String> {
    json::get(pairs, key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("stats response lacks {key:?}"))
}

/// Checks the `stats` and `log` responses a server gave after a prefix
/// of a session. Returns the first problem found; `Ok` carries the
/// served `total_cost`.
///
/// `total_cost` must equal the reference bit for bit on `dvs_admitd`; a
/// cluster sums its shards' costs in another order, so there it must
/// agree to a relative 1e-9.
///
/// # Errors
///
/// A description of the mismatch.
pub fn check_final(
    workload: Workload,
    expected: &Expected,
    stats: &str,
    log: &str,
) -> Result<f64, String> {
    let s = json::parse_object(stats).map_err(|e| format!("stats response: {e}"))?;
    if json::get(&s, "ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!("stats refused: {stats}"));
    }
    let arrivals = number(&s, "arrivals")? as u64;
    let accepted = number(&s, "accepted")? as u64;
    let rejected = number(&s, "rejected")? as u64;
    let shed = number(&s, "shed")? as u64;
    if accepted + rejected + shed != arrivals {
        return Err(format!(
            "balance violated: accepted {accepted} + rejected {rejected} + shed {shed} \
             != arrivals {arrivals}"
        ));
    }
    if arrivals != expected.arrivals {
        return Err(format!(
            "served {arrivals} arrivals, expected {}",
            expected.arrivals
        ));
    }
    // A cluster's `events` sums its shards', and every tick reaches
    // every shard, so only a single server's count compares directly.
    if workload != Workload::Cluster {
        let events = number(&s, "events")? as u64;
        if events != expected.events {
            return Err(format!(
                "server applied {events} events, expected {}",
                expected.events
            ));
        }
    }
    let cost = number(&s, "total_cost")?;
    let agrees = if workload == Workload::Cluster {
        (cost - expected.total_cost).abs() <= 1e-9 * expected.total_cost.abs().max(1.0)
    } else {
        cost.to_bits() == expected.total_cost.to_bits()
    };
    if !agrees {
        return Err(format!(
            "total_cost {cost} differs from expected {}",
            expected.total_cost
        ));
    }
    let served =
        string_field(log, "log").ok_or_else(|| format!("log refused: {}", truncate(log)))?;
    if served != expected.log {
        let line = served
            .lines()
            .zip(expected.log.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| served.lines().count().min(expected.log.lines().count()));
        return Err(format!(
            "decision log differs from expected at line {line} ({} vs {} lines)",
            served.lines().count(),
            expected.log.lines().count()
        ));
    }
    Ok(cost)
}

/// Decodes the string value of `key` in a flat JSON object line. The
/// decision log runs to hundreds of KiB, so it is decoded here in one
/// linear pass rather than by the parser under test.
#[must_use]
pub fn string_field(line: &str, key: &str) -> Option<String> {
    let start = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let mut out = String::with_capacity(line.len() - start);
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// The first 200 bytes of a response, for error messages.
#[must_use]
pub fn truncate(s: &str) -> &str {
    let mut end = s.len().min(200);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Whether a response line reports success.
#[must_use]
pub fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_field_decodes_escapes() {
        let line = r#"{"ok":true,"decisions":2,"log":"a \"q\"\nτ1 b\\c\u0001\n"}"#;
        assert_eq!(
            string_field(line, "log").as_deref(),
            Some("a \"q\"\nτ1 b\\c\u{1}\n")
        );
        assert_eq!(string_field(line, "missing"), None);
        assert_eq!(string_field(r#"{"log":"unterminated"#, "log"), None);
    }

    #[test]
    fn injected_faults_change_what_the_gate_sees() {
        let mut stats =
            r#"{"ok":true,"arrivals":3,"accepted":2,"rejected":1,"shed":0}"#.to_string();
        let mut log = r#"{"ok":true,"decisions":1,"log":"x\n"}"#.to_string();
        Inject::BalanceMismatch.apply(&mut stats, &mut log);
        assert!(stats.contains("\"accepted\":3,"), "{stats}");
        Inject::LogMismatch.apply(&mut stats, &mut log);
        assert_eq!(string_field(&log, "log").as_deref(), Some("x\ninjected\n"));
    }
}
