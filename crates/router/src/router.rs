//! The scatter-gather router: one stateful front-end over N admission
//! shards.
//!
//! The router speaks the same newline-delimited JSON protocol as
//! `dvs_admitd` and fans requests across a shard fleet:
//!
//! * **Arrive/Depart** are *routed*: every task carries (or is assigned)
//!   a global power-domain pin, the [`ShardMap`] names the owning shard,
//!   and the event goes to that shard alone with the pin translated to
//!   the shard's local domain index.
//! * **Tick** is *fanned out* to every shard concurrently and gathered
//!   in shard-index order, so each shard's engine clock and billing
//!   window advance in lockstep and a cluster tick costs the slowest
//!   shard's re-solve, not the sum of all shards'.
//! * **Stats/shutdown** *scatter-gather*: every shard's counters are
//!   summed into cluster aggregates, and the balance invariant
//!   `Σ accepted + rejected + standing-shed = arrivals` is enforced at
//!   the router — a shard that lost or double-counted an event turns
//!   into a structured `balance-violation` error, not a silent skew.
//! * **Log** serves the router's own **merged decision log**: per-event
//!   decision lines echoed by the shards (`"dlog":true`), rewritten from
//!   shard-local to global domain indices and merged in a stable order
//!   keyed by the global domain. Because every domain lives on exactly
//!   one shard and each shard resolves its owned domains in ascending
//!   global order, the merge reproduces a single multi-domain engine's
//!   iteration order exactly — the K-shard cluster log is byte-identical
//!   to the 1-shard run, at any `DVS_THREADS` (the routing-property
//!   suite pins this across shards × threads).
//!
//! Reads may be **hedged**: a shard spec can name a follower replica
//! (`addr~replica`), and when the primary cannot answer a `stats` read
//! the router falls back to the follower, whose reply carries the
//! `stale_by` staleness bound the router surfaces in the aggregate.
//! `stale_by_max` only folds in bounds from replies a hedged follower
//! actually served — a primary echoing a `stale_by` field can never
//! inflate it.
//!
//! Writes are never hedged and never fall back — a write that reached a
//! replica instead of the primary would fork the shard's history.
//!
//! **Live resharding** (`{"op":"reshard","add":"NAME=ADDR"}` /
//! `{"op":"reshard","remove":"NAME"}`) migrates the minimal set of
//! domains the rendezvous hash moves, one domain at a time, with a
//! drain → snapshot-transfer → cutover protocol:
//!
//! 1. the source shard **exports** the domain — its engine fences the
//!    slot (no further arrivals), journals the export, and hands back a
//!    payload carrying the CPU spec, clock, and every resident task;
//! 2. the target shard **imports** the payload under an idempotency key
//!    `"{version}:{global}"` (the post-reshard map version), journals
//!    it, and answers with the new local slot;
//! 3. only after *every* moved domain has landed does the router bump
//!    the journaled [`ShardMap`] — the version bump is the cutover
//!    fence. A crash anywhere before it leaves the old map in force and
//!    the retry re-runs the same exports (idempotent on a fenced slot)
//!    and imports (deduplicated by key), so no event is double-applied
//!    or lost.
//!
//! A removed member's shard stays in the fleet as a drained shard: its
//! historical counters (departures, ticks, energy) still aggregate, so
//! the cluster balance invariant and stats totals are unchanged by any
//! reshard sequence.

use std::collections::{BTreeMap, BTreeSet};

use dvs_admit::json::{self, err_response, ids_json, JsonValue};
use dvs_admit::server::Handled;
use dvs_admit::{AdmitClient, ClientConfig, ClientError};

use crate::map::ShardMap;

/// Reserved engine-internal task id (mirrors the engine's anchor id).
const RESERVED_ANCHOR_ID: usize = usize::MAX;

/// One shard endpoint: the primary address and an optional follower
/// replica used for hedged reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Primary (write) address.
    pub addr: String,
    /// Optional read replica (`addr~replica` syntax).
    pub replica: Option<String>,
}

impl ShardSpec {
    /// Parses an `addr` or `addr~replica` spec.
    #[must_use]
    pub fn parse(spec: &str) -> Self {
        match spec.split_once('~') {
            Some((addr, replica)) => ShardSpec {
                addr: addr.to_string(),
                replica: Some(replica.to_string()),
            },
            None => ShardSpec {
                addr: spec.to_string(),
                replica: None,
            },
        }
    }
}

/// Router-level counters (the shards keep their own engine metrics; these
/// count what the *routing layer* did).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterMetrics {
    /// Arrivals routed to their owning shard.
    pub routed_arrives: u64,
    /// Departures routed to their owning shard.
    pub routed_departs: u64,
    /// Ticks fanned out to every shard.
    pub fanned_ticks: u64,
    /// Reads answered by a replica after the primary failed.
    pub hedged_reads: u64,
    /// Events routed per shard (index-aligned with the membership).
    pub per_shard_routed: Vec<u64>,
}

/// Errors raised while building a router (request-time errors are
/// reported in-band as protocol responses, never as `Err`).
#[derive(Debug)]
pub enum RouterError {
    /// The membership and the endpoint list disagree.
    Config(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Config(msg) => write!(f, "router config: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// One entry of a shard's local domain table, index-aligned with the
/// engine's own domain list (fencing keeps a slot, imports append, so
/// local indices are stable for the engine's whole lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The shard serves this global domain at this local index.
    Live(usize),
    /// The slot's domain was exported away (fenced). The engine still
    /// holds the export payload and re-exports it idempotently, so a
    /// fenced slot is also the retry source when a migration was
    /// interrupted between export and import.
    Fenced(usize),
    /// An engine-side domain with no global assignment. Never routed to.
    Unassigned,
}

impl Slot {
    fn live(self) -> Option<usize> {
        match self {
            Slot::Live(g) => Some(g),
            Slot::Fenced(_) | Slot::Unassigned => None,
        }
    }
}

struct Shard {
    /// The primary (write) connection, owned inline: requests run on the
    /// router's thread, and dropping the client closes the connection.
    primary: AdmitClient,
    replica: Option<AdmitClient>,
    /// The member name this shard serves. Routing goes through names,
    /// not indices: the map's member list shifts on removal, while a
    /// drained shard stays in this fleet for stats aggregation.
    name: String,
    /// The endpoint this shard is connected to. A reshard that re-adds
    /// the member compares against this, so a rejoin at a *new* address
    /// reconnects instead of exporting/importing through the stale
    /// connection to the old process.
    spec: ShardSpec,
    /// The shard's local domain table (see [`Slot`]).
    slots: Vec<Slot>,
}

/// Builds one shard endpoint: the (lazily connecting) primary client,
/// the optional read replica, and an empty slot table (the caller fills
/// it from the map or grows it via imports).
fn connect_shard(name: &str, spec: &ShardSpec, client: &ClientConfig) -> Shard {
    let endpoint = |addr: &str| {
        let mut cfg = client.clone();
        cfg.addr = addr.to_string();
        AdmitClient::new(cfg)
    };
    Shard {
        primary: endpoint(&spec.addr),
        replica: spec.replica.as_deref().map(endpoint),
        name: name.to_string(),
        spec: spec.clone(),
        slots: Vec::new(),
    }
}

/// The stateful router front-end. See the [module docs](self).
pub struct Router {
    map: ShardMap,
    shards: Vec<Shard>,
    /// Connection template for shards joined by a live reshard.
    client: ClientConfig,
    /// Tasks currently known to the cluster (accepted *or* standing
    /// rejected/shed — the engine keeps both in its ledger), mapped to
    /// their global domain pin so departures route without a lookup
    /// round-trip.
    present: BTreeMap<usize, usize>,
    /// Tasks that have departed; their ids are burned, mirroring the
    /// engine's own replay-safety rule.
    departed: BTreeSet<usize>,
    clock: f64,
    merged_log: String,
    merged_decisions: u64,
    metrics: RouterMetrics,
}

fn shard_unavailable(s: usize, e: &ClientError) -> String {
    err_response("shard-unavailable", None, &format!("shard {s}: {e}"))
}

fn num_field(pairs: &[(String, JsonValue)], key: &str) -> Result<f64, String> {
    json::get(pairs, key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

/// Extracts the task id from a decision-log line (`t=… τ{id} verdict…`).
fn line_task_id(line: &str) -> Option<usize> {
    let tok = line.split_whitespace().nth(1)?;
    tok.strip_prefix('τ')?.parse().ok()
}

/// Whether a decision-log line records a shed.
fn line_is_shed(line: &str) -> bool {
    line.split_whitespace()
        .nth(2)
        .is_some_and(|v| v.starts_with("shed@"))
}

/// Asks a shard's engine for its `layout` — one `(fenced, import-key)`
/// pair per local domain, in index order. Errors are plain messages
/// (callers wrap them into the response shape they need).
fn probe_layout(shard: &mut Shard) -> Result<Vec<(bool, Option<String>)>, String> {
    let name = &shard.name;
    let resp = shard
        .primary
        .request("{\"op\":\"layout\"}")
        .map_err(|e| format!("shard {name:?} layout probe failed: {e}"))?;
    let rp = json::parse_object(&resp)
        .map_err(|e| format!("bad layout response from shard {name:?}: {e}"))?;
    if json::get(&rp, "ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!("shard {name:?} refused the layout probe: {resp}"));
    }
    let text = json::get(&rp, "layout")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("shard {name:?} layout reply lacks a layout field"))?;
    let mut out = Vec::new();
    for tok in text.split_whitespace() {
        let (mark, key) = tok.split_at(1);
        let fenced = match mark {
            "+" => false,
            "-" => true,
            _ => return Err(format!("shard {name:?}: unparseable layout token {tok:?}")),
        };
        out.push((fenced, (!key.is_empty()).then(|| key.to_string())));
    }
    Ok(out)
}

/// Asks a shard for its task-presence inventory: every present task as
/// `(id, local domain)` (`None` for an unpinned standing rejection) and
/// the ids it has burned as departed.
#[allow(clippy::type_complexity)]
fn probe_present(shard: &mut Shard) -> Result<(Vec<(usize, Option<usize>)>, Vec<usize>), String> {
    let name = &shard.name;
    let resp = shard
        .primary
        .request("{\"op\":\"present\"}")
        .map_err(|e| format!("shard {name:?} presence probe failed: {e}"))?;
    let rp = json::parse_object(&resp)
        .map_err(|e| format!("bad presence response from shard {name:?}: {e}"))?;
    if json::get(&rp, "ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!("shard {name:?} refused the presence probe: {resp}"));
    }
    let field = |key: &str| {
        json::get(&rp, key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("shard {name:?} presence reply lacks a {key} field"))
    };
    let mut tasks = Vec::new();
    for tok in field("tasks")?.split_whitespace() {
        let (id, pin) = tok
            .split_once(':')
            .ok_or_else(|| format!("shard {name:?}: unparseable presence token {tok:?}"))?;
        let id = id
            .parse::<usize>()
            .map_err(|_| format!("shard {name:?}: unparseable presence token {tok:?}"))?;
        let pin = match pin {
            "-" => None,
            d => Some(
                d.parse::<usize>()
                    .map_err(|_| format!("shard {name:?}: unparseable presence token {tok:?}"))?,
            ),
        };
        tasks.push((id, pin));
    }
    let mut departed = Vec::new();
    for tok in field("departed")?.split_whitespace() {
        departed.push(
            tok.parse::<usize>()
                .map_err(|_| format!("shard {name:?}: unparseable departed id {tok:?}"))?,
        );
    }
    Ok((tasks, departed))
}

/// Rebuilds a shard's slot table from its engine's reported layout.
/// Imported slots name their global inside the migration key (`"V:G"`);
/// unkeyed slots are the member's birth domains, named positionally in
/// ascending global order. This is how a restarted router recovers the
/// exact local indices an engine that lived through reshards actually
/// has — fenced holes from exports, appended imports and all — instead
/// of assuming the dense assignment a fresh fleet would have.
fn slots_from_layout(
    member: &str,
    layout: &[(bool, Option<String>)],
    births: &[usize],
) -> Result<Vec<Slot>, String> {
    // Engine slots never disappear (exports fence in place), so a
    // process constructed over N domains always reports exactly N
    // unkeyed slots. Zero unkeyed slots with a non-empty birth set is
    // therefore a *different process* under the member's name — a
    // drained member rejoining fresh (legitimately empty, grows via
    // imports), which the birth assignment must not be forced onto.
    let unkeyed = layout.iter().filter(|(_, key)| key.is_none()).count();
    let mut births = if unkeyed == 0 { &[][..] } else { births }.iter().copied();
    if unkeyed != 0 && unkeyed != births.len() {
        return Err(format!(
            "shard {member:?}: engine was constructed over {unkeyed} domain(s) but \
             the member was born holding {} — wrong process or lost state",
            births.len()
        ));
    }
    let mut slots = Vec::with_capacity(layout.len());
    for (local, (fenced, key)) in layout.iter().enumerate() {
        let g = match key {
            Some(k) => Some(
                k.rsplit(':')
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| {
                        format!("shard {member:?}: import key {k:?} names no global domain")
                    })?,
            ),
            None => births.next(),
        };
        slots.push(match (g, fenced) {
            (Some(g), false) => Slot::Live(g),
            (Some(g), true) => Slot::Fenced(g),
            (None, false) => Slot::Unassigned,
            (None, true) => {
                return Err(format!(
                    "shard {member:?}: local domain {local} is fenced but has no \
                     known global assignment"
                ));
            }
        });
    }
    Ok(slots)
}

/// Startup sanity over reconciled slot tables: every global domain must
/// be live on exactly one shard, or — mid-migration, after an
/// interrupted reshard — fenced somewhere awaiting a roll-forward.
fn validate_coverage(map: &ShardMap, shards: &[Shard]) -> Result<(), String> {
    for g in 0..map.domains() {
        let live: Vec<&str> = shards
            .iter()
            .filter(|sh| sh.slots.contains(&Slot::Live(g)))
            .map(|sh| sh.name.as_str())
            .collect();
        match live.len() {
            0 => {
                if !shards.iter().any(|sh| sh.slots.contains(&Slot::Fenced(g))) {
                    return Err(format!(
                        "domain {g} is held by no shard, live or fenced — state lost"
                    ));
                }
                // Fenced-only: an interrupted migration. Arrivals are
                // refused with domain-fenced until a reshard rolls the
                // transfer forward.
            }
            1 => {}
            _ => {
                return Err(format!("domain {g} is live on multiple shards: {live:?}"));
            }
        }
    }
    Ok(())
}

impl Router {
    /// Builds a router over `map` with one endpoint per member (index
    /// aligned). `client` is the per-shard connection template; its
    /// `addr` is overwritten per endpoint.
    ///
    /// For a fresh map (version 1) the slot tables are the dense
    /// version-1 assignment — correct by construction, and connections
    /// stay lazy. For a map that lived through membership changes (a
    /// restart against a replayed journal), each shard is **probed** for
    /// its engine's actual domain layout and the slot tables are
    /// reconciled against it: engines that survived reshards keep
    /// fenced holes from exports and appended imports, so the dense
    /// assumption would misroute pinned arrivals to the wrong
    /// engine-local domain.
    ///
    /// # Errors
    ///
    /// [`RouterError::Config`] when the endpoint list does not match the
    /// membership size, when a shard cannot answer the layout probe, or
    /// when the reconciled layouts are inconsistent with the map (a
    /// domain live on two shards, or held by none).
    pub fn new(
        map: ShardMap,
        endpoints: &[ShardSpec],
        client: &ClientConfig,
    ) -> Result<Self, RouterError> {
        let reconcile = map.version() > 1;
        Self::with_reconcile(map, endpoints, client, reconcile)
    }

    /// Connects to a cluster that holds live state from a previous
    /// router process: always probes, regardless of map version.
    ///
    /// [`Router::new`] only reconciles for maps past version 1 (a fresh
    /// version-1 fleet is dense by construction, and connections stay
    /// lazy). A *restarted* version-1 cluster is indistinguishable from
    /// a fresh one by the map alone, yet its engines may hold in-flight
    /// tasks whose id→domain routing table died with the old router —
    /// so a caller that knows it is resuming (a replayed map journal, a
    /// reattached fleet) must use this constructor.
    ///
    /// # Errors
    ///
    /// As [`Router::new`].
    pub fn resume(
        map: ShardMap,
        endpoints: &[ShardSpec],
        client: &ClientConfig,
    ) -> Result<Self, RouterError> {
        Self::with_reconcile(map, endpoints, client, true)
    }

    fn with_reconcile(
        map: ShardMap,
        endpoints: &[ShardSpec],
        client: &ClientConfig,
        reconcile: bool,
    ) -> Result<Self, RouterError> {
        if endpoints.len() != map.members().len() {
            return Err(RouterError::Config(format!(
                "{} endpoints for {} members",
                endpoints.len(),
                map.members().len()
            )));
        }
        let mut shards = Vec::with_capacity(endpoints.len());
        for (s, spec) in endpoints.iter().enumerate() {
            let mut shard = connect_shard(&map.members()[s], spec, client);
            if reconcile {
                let layout = probe_layout(&mut shard).map_err(RouterError::Config)?;
                shard.slots =
                    slots_from_layout(&shard.name, &layout, &map.birth_domains(&shard.name))
                        .map_err(RouterError::Config)?;
            } else {
                shard.slots = map.owned(s).into_iter().map(Slot::Live).collect();
            }
            shards.push(shard);
        }
        let mut present = BTreeMap::new();
        let mut departed = BTreeSet::new();
        if reconcile {
            validate_coverage(&map, &shards).map_err(RouterError::Config)?;
            // Rebuild the router-side task-presence table: departures
            // route through an id→global-domain map that lives (and
            // dies) with the router process, while the tasks themselves
            // live on in the engines. Local pins translate through the
            // just-reconciled slot tables; a task on a fenced slot is
            // mid-migration and maps to the same global domain its live
            // holder will report.
            for shard in &mut shards {
                let (tasks, burned) = probe_present(shard).map_err(RouterError::Config)?;
                for (id, pin) in tasks {
                    let Some(local) = pin else { continue };
                    let g = match shard.slots.get(local) {
                        Some(&Slot::Live(g) | &Slot::Fenced(g)) => g,
                        _ => {
                            return Err(RouterError::Config(format!(
                                "shard {:?} reports task \u{3c4}{id} on local domain \
                                 {local}, which maps to no global domain",
                                shard.name
                            )));
                        }
                    };
                    present.insert(id, g);
                }
                departed.extend(burned);
            }
        }
        let per_shard_routed = vec![0; shards.len()];
        Ok(Router {
            map,
            shards,
            client: client.clone(),
            present,
            departed,
            clock: 0.0,
            merged_log: String::new(),
            merged_decisions: 0,
            metrics: RouterMetrics {
                per_shard_routed,
                ..RouterMetrics::default()
            },
        })
    }

    /// The shard map in force.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Router-layer counters.
    #[must_use]
    pub fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// The merged cluster decision log (same bytes a single multi-domain
    /// engine's `format_decision_log` would produce for the same event
    /// stream).
    #[must_use]
    pub fn merged_log(&self) -> &str {
        &self.merged_log
    }

    /// Parses and executes one request line against the cluster. Mirrors
    /// the single-server contract: never panics, never returns `Err` —
    /// protocol, routing, and shard errors are all encoded in-band.
    pub fn handle_line(&mut self, line: &str) -> Handled {
        let mut shutdown = false;
        let response = match self.handle_inner(line, &mut shutdown) {
            Ok(r) => r,
            Err(r) => r,
        };
        Handled { response, shutdown }
    }

    /// `Err` carries a fully-formatted error response.
    #[allow(clippy::too_many_lines)]
    fn handle_inner(&mut self, line: &str, shutdown: &mut bool) -> Result<String, String> {
        let pairs = json::parse_object(line)
            .map_err(|e| err_response("bad-request", None, &format!("bad request: {e}")))?;
        let op = json::get(&pairs, "op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err_response("bad-request", None, "missing field \"op\""))?
            .to_string();
        match op.as_str() {
            "arrive" => self.arrive(line, &pairs),
            "depart" => self.depart(&pairs),
            "tick" => self.tick(&pairs),
            "stats" => self.cluster_stats("stats"),
            "log" => Ok(format!(
                "{{\"ok\":true,\"decisions\":{},\"log\":\"{}\"}}",
                self.merged_decisions,
                json::escape(&self.merged_log)
            )),
            "map" => {
                let assignment: Vec<String> = (0..self.map.domains())
                    .map(|g| self.map.shard_for(g).to_string())
                    .collect();
                Ok(format!(
                    "{{\"ok\":true,\"version\":{},\"domains\":{},\"shards\":{},\"assignment\":[{}]}}",
                    self.map.version(),
                    self.map.domains(),
                    self.shards.len(),
                    assignment.join(",")
                ))
            }
            "reshard" => self.reshard(&pairs),
            "role" => Ok(format!(
                "{{\"ok\":true,\"role\":\"router\",\"shards\":{},\"map_version\":{}}}",
                self.shards.len(),
                self.map.version()
            )),
            "shutdown" => {
                *shutdown = true;
                self.cluster_stats("shutdown")
            }
            other => Err(err_response(
                "bad-request",
                None,
                &format!("unknown op {other:?}"),
            )),
        }
    }

    /// The router-shard index serving global domain `g`: the map names
    /// the owning member, and the fleet is searched by name (drained
    /// shards keep their slot in the fleet but leave the membership).
    fn route(&self, g: usize) -> Result<usize, String> {
        let member = &self.map.members()[self.map.shard_for(g)];
        self.shards
            .iter()
            .position(|sh| &sh.name == member)
            .ok_or_else(|| {
                err_response(
                    "shard-unavailable",
                    None,
                    &format!("no connected shard for member {member:?}"),
                )
            })
    }

    /// Mirrors the engine's validation order: the clock check comes
    /// before any id check, so cluster error kinds match a single server.
    fn check_clock(&self, at: f64) -> Result<(), String> {
        if !at.is_finite() || at < self.clock {
            return Err(err_response(
                "time-regression",
                None,
                &format!("event at {at} precedes cluster clock {}", self.clock),
            ));
        }
        Ok(())
    }

    /// Routes an arrival to the owning shard and stitches its decision
    /// lines into the merged log.
    fn arrive(&mut self, line: &str, pairs: &[(String, JsonValue)]) -> Result<String, String> {
        let proto = |msg: String| err_response("bad-request", None, &msg);
        let at = num_field(pairs, "at").map_err(proto)?;
        let id = num_field(pairs, "id").map_err(proto)? as usize;
        // Every field the shard needs is validated here first so a
        // malformed request is refused without touching any shard.
        num_field(pairs, "cycles").map_err(proto)?;
        num_field(pairs, "period").map_err(proto)?;
        num_field(pairs, "penalty").map_err(proto)?;
        let g = match json::get(pairs, "domain").and_then(JsonValue::as_f64) {
            Some(d) if d < 0.0 || d.fract() != 0.0 => {
                return Err(proto(format!("invalid domain {d}")));
            }
            Some(d) => d as usize,
            // Unpinned arrivals get the router's deterministic default
            // pin — the same `id mod domains` rule `TraceSpec::domains`
            // uses, so routed and single-engine replays of a generated
            // trace see identical pins.
            None => id % self.map.domains(),
        };
        self.check_clock(at)?;
        if id == RESERVED_ANCHOR_ID {
            return Err(err_response(
                "reserved-id",
                Some(id),
                &format!("task id {id} is reserved"),
            ));
        }
        if g >= self.map.domains() {
            return Err(err_response(
                "invalid-domain",
                Some(id),
                &format!(
                    "task \u{3c4}{id} is pinned to domain {g}, cluster has {}",
                    self.map.domains()
                ),
            ));
        }
        if self.departed.contains(&id) {
            return Err(err_response(
                "already-departed",
                Some(id),
                &format!("task \u{3c4}{id} already departed"),
            ));
        }
        if self.present.contains_key(&id) {
            return Err(err_response(
                "duplicate-task",
                Some(id),
                &format!("task \u{3c4}{id} is already present"),
            ));
        }
        let s = self.route(g)?;
        let Some(local) = self.shards[s]
            .slots
            .iter()
            .position(|slot| *slot == Slot::Live(g))
        else {
            // The owner does not serve g live. If the domain is fenced
            // (or parked live on a non-owner) an interrupted reshard
            // left it mid-migration: structured and retryable —
            // re-issuing the reshard rolls the transfer forward.
            let mid_migration = self
                .shards
                .iter()
                .any(|sh| sh.slots.contains(&Slot::Fenced(g)) || sh.slots.contains(&Slot::Live(g)));
            let (kind, msg) = if mid_migration {
                (
                    "domain-fenced",
                    format!(
                        "domain {g} is mid-migration (fenced on its owner); \
                         re-issue the reshard to complete it"
                    ),
                )
            } else {
                (
                    "shard-unavailable",
                    format!("shard {s} does not hold domain {g}"),
                )
            };
            return Err(err_response(kind, Some(id), &msg));
        };
        // Forward the original fields verbatim (minus any client pin or
        // dlog flag), adding the shard-local pin and the dlog echo.
        let mut downstream = String::with_capacity(line.len() + 32);
        downstream.push_str("{\"op\":\"arrive\"");
        for (key, value) in pairs {
            if matches!(key.as_str(), "op" | "domain" | "dlog") {
                continue;
            }
            downstream.push_str(&format!(",\"{key}\":{}", render_value(value)));
        }
        downstream.push_str(&format!(",\"domain\":{local},\"dlog\":true}}"));
        let resp = self.shard_write(s, &downstream)?;
        let rp = json::parse_object(&resp).map_err(|e| {
            err_response("bad-request", Some(id), &format!("bad shard response: {e}"))
        })?;
        if json::get(&rp, "ok") != Some(&JsonValue::Bool(true)) {
            // Structured shard refusals (the router pre-validates, so
            // these indicate state skew) pass through unchanged.
            return Err(resp);
        }
        let lines = self.globalize(s, &rp)?;
        self.append_merged(lines.iter().map(|(_, l)| l.as_str()));
        self.clock = at;
        self.present.insert(id, g);
        self.metrics.routed_arrives += 1;
        self.metrics.per_shard_routed[s] += 1;
        let accepted = json::get(&rp, "decision").and_then(JsonValue::as_str) == Some("accepted");
        let dlog = self.dlog_suffix(pairs, &lines);
        Ok(if accepted {
            format!("{{\"ok\":true,\"decision\":\"accepted\",\"id\":{id},\"domain\":{g}{dlog}}}")
        } else {
            format!("{{\"ok\":true,\"decision\":\"rejected\",\"id\":{id}{dlog}}}")
        })
    }

    fn depart(&mut self, pairs: &[(String, JsonValue)]) -> Result<String, String> {
        let proto = |msg: String| err_response("bad-request", None, &msg);
        let at = num_field(pairs, "at").map_err(proto)?;
        let id = num_field(pairs, "id").map_err(proto)? as usize;
        self.check_clock(at)?;
        if self.departed.contains(&id) {
            return Err(err_response(
                "already-departed",
                Some(id),
                &format!("task \u{3c4}{id} already departed"),
            ));
        }
        let Some(&g) = self.present.get(&id) else {
            return Err(err_response(
                "unknown-task",
                Some(id),
                &format!("task \u{3c4}{id} is not present"),
            ));
        };
        let s = self.route(g)?;
        let downstream = format!("{{\"op\":\"depart\",\"at\":{at},\"id\":{id},\"dlog\":true}}");
        let resp = self.shard_write(s, &downstream)?;
        let rp = json::parse_object(&resp).map_err(|e| {
            err_response("bad-request", Some(id), &format!("bad shard response: {e}"))
        })?;
        if json::get(&rp, "ok") != Some(&JsonValue::Bool(true)) {
            return Err(resp);
        }
        let lines = self.globalize(s, &rp)?;
        self.append_merged(lines.iter().map(|(_, l)| l.as_str()));
        self.clock = at;
        self.present.remove(&id);
        self.departed.insert(id);
        self.metrics.routed_departs += 1;
        self.metrics.per_shard_routed[s] += 1;
        let shed: Vec<usize> = lines
            .iter()
            .filter(|(_, l)| line_is_shed(l))
            .filter_map(|(_, l)| line_task_id(l))
            .collect();
        let dlog = self.dlog_suffix(pairs, &lines);
        Ok(format!(
            "{{\"ok\":true,\"id\":{id},\"shed\":{}{dlog}}}",
            ids_json(&shed)
        ))
    }

    /// Fans a tick to every shard and merges the decision lines in
    /// global-domain order.
    ///
    /// The scatter is **concurrent** — every shard advances its clock and
    /// runs its re-solve pass in parallel, so a cluster tick costs the
    /// slowest shard, not the sum of all shards. The gather walks the
    /// responses in shard-index order and the merge sorts by global
    /// domain, so concurrency never reorders a byte of the merged log.
    fn tick(&mut self, pairs: &[(String, JsonValue)]) -> Result<String, String> {
        let proto = |msg: String| err_response("bad-request", None, &msg);
        let at = num_field(pairs, "at").map_err(proto)?;
        self.check_clock(at)?;
        let downstream = format!("{{\"op\":\"tick\",\"at\":{at},\"dlog\":true}}");
        // Write to every shard first, then read back in shard-index
        // order: the shards are separate processes, so they all tick (and
        // re-solve) concurrently. A shard whose send or receive fails is
        // asked again through the retrying path (an at-least-once resend).
        // Every reply is read before any is acted on, so an error return
        // never leaves a reply unread on a connection.
        let sent: Vec<bool> = self
            .shards
            .iter_mut()
            .map(|shard| shard.primary.send(&downstream).is_ok())
            .collect();
        let responses: Vec<Result<String, String>> = sent
            .into_iter()
            .enumerate()
            .map(|(s, sent)| {
                let primary = &mut self.shards[s].primary;
                match sent.then(|| primary.recv()) {
                    Some(Ok(resp)) => Ok(resp),
                    _ => primary
                        .request(&downstream)
                        .map_err(|e| shard_unavailable(s, &e)),
                }
            })
            .collect();
        let mut merged: Vec<(usize, String)> = Vec::new();
        let mut resolves: u64 = 0;
        for (s, resp) in responses.into_iter().enumerate() {
            let resp = resp?;
            let rp = json::parse_object(&resp).map_err(|e| {
                err_response("bad-request", None, &format!("bad shard response: {e}"))
            })?;
            if json::get(&rp, "ok") != Some(&JsonValue::Bool(true)) {
                return Err(resp);
            }
            resolves += json::get(&rp, "resolves")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as u64;
            merged.extend(self.globalize(s, &rp)?);
        }
        // Stable sort by global domain: every domain lives on exactly one
        // shard and each shard emits its owned domains in ascending
        // global order, so this reproduces a single engine's domain
        // iteration exactly (intra-domain order is preserved as emitted).
        merged.sort_by_key(|(g, _)| *g);
        self.append_merged(merged.iter().map(|(_, l)| l.as_str()));
        self.clock = at;
        self.metrics.fanned_ticks += 1;
        let shed: Vec<usize> = merged
            .iter()
            .filter(|(_, l)| line_is_shed(l))
            .filter_map(|(_, l)| line_task_id(l))
            .collect();
        let dlog = self.dlog_suffix(pairs, &merged);
        Ok(format!(
            "{{\"ok\":true,\"shed\":{},\"resolves\":{resolves}{dlog}}}",
            ids_json(&shed)
        ))
    }

    /// Scatter-gathers per-shard stats into cluster aggregates, enforcing
    /// the balance invariant. `op` is `"stats"` (hedged reads allowed) or
    /// `"shutdown"` (forwarded as-is; `dvs_admitd` answers shutdown with
    /// its final stats dump, which aggregates the same way).
    fn cluster_stats(&mut self, op: &str) -> Result<String, String> {
        const SUMMED: [&str; 14] = [
            "arrivals",
            "accepted",
            "admitted",
            "rejected",
            "shed",
            "shed_total",
            "readmitted",
            "departures",
            "ticks",
            "resolves",
            "resolves_degraded",
            "resolves_skipped",
            "resolve_nodes",
            "events",
        ];
        const SUMMED_F64: [&str; 4] =
            ["energy", "penalty_accrued", "penalty_charged", "total_cost"];
        let request = format!("{{\"op\":\"{op}\"}}");
        let hedge = op == "stats";
        let mut counts = [0u64; 14];
        let mut floats = [0f64; 4];
        let mut stale_by_max: u64 = 0;
        for s in 0..self.shards.len() {
            let (resp, hedge_served) = if hedge {
                self.shard_read(s, &request)?
            } else {
                (self.shard_write(s, &request)?, false)
            };
            let rp = json::parse_object(&resp).map_err(|e| {
                err_response("bad-request", None, &format!("bad shard response: {e}"))
            })?;
            if json::get(&rp, "ok") != Some(&JsonValue::Bool(true)) {
                return Err(resp);
            }
            for (i, key) in SUMMED.iter().enumerate() {
                counts[i] += json::get(&rp, key)
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0) as u64;
            }
            for (i, key) in SUMMED_F64.iter().enumerate() {
                floats[i] += json::get(&rp, key)
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
            }
            if hedge_served {
                if let Some(stale) = json::get(&rp, "stale_by").and_then(JsonValue::as_f64) {
                    stale_by_max = stale_by_max.max(stale as u64);
                }
            }
        }
        let (arrivals, accepted, rejected, shed) = (counts[0], counts[1], counts[3], counts[4]);
        if accepted + rejected + shed != arrivals {
            return Err(err_response(
                "balance-violation",
                None,
                &format!(
                    "cluster balance broken: accepted {accepted} + rejected {rejected} \
                     + standing-shed {shed} != arrivals {arrivals}"
                ),
            ));
        }
        let m = &self.metrics;
        let per_shard: Vec<String> = m.per_shard_routed.iter().map(u64::to_string).collect();
        let mut out = format!(
            "{{\"ok\":true,\"op\":\"cluster-stats\",\"shards\":{},\"map_version\":{},\"domains\":{}",
            self.shards.len(),
            self.map.version(),
            self.map.domains()
        );
        for (i, key) in SUMMED.iter().enumerate() {
            out.push_str(&format!(",\"{key}\":{}", counts[i]));
        }
        for (i, key) in SUMMED_F64.iter().enumerate() {
            out.push_str(&format!(",\"{key}\":{}", floats[i]));
        }
        out.push_str(&format!(
            ",\"routed_arrives\":{},\"routed_departs\":{},\"fanned_ticks\":{},\
             \"hedged_reads\":{},\"merged_decisions\":{},\"stale_by_max\":{},\
             \"per_shard_routed\":[{}]}}",
            m.routed_arrives,
            m.routed_departs,
            m.fanned_ticks,
            m.hedged_reads,
            self.merged_decisions,
            stale_by_max,
            per_shard.join(",")
        ));
        Ok(out)
    }

    /// Executes a live reshard: grows or shrinks the membership and
    /// migrates exactly the domains the rendezvous hash moves, one at a
    /// time, via export → import. The journaled map version bump is the
    /// **last** step (the cutover fence): a crash anywhere earlier
    /// leaves the old map in force, and re-issuing the same reshard
    /// skips already-landed domains (the import key dedupes on the
    /// shard, the slot table dedupes on the router) and finishes the
    /// remainder. See the [module docs](self) for the full protocol.
    #[allow(clippy::too_many_lines)]
    fn reshard(&mut self, pairs: &[(String, JsonValue)]) -> Result<String, String> {
        let proto = |msg: String| err_response("bad-request", None, &msg);
        let rerr = |msg: String| err_response("reshard", None, &msg);
        let add = json::get(pairs, "add").and_then(JsonValue::as_str);
        let remove = json::get(pairs, "remove").and_then(JsonValue::as_str);
        let (probe_members, name, spec, adding) = match (add, remove) {
            (Some(spec), None) => {
                let (name, addr) = spec.split_once('=').ok_or_else(|| {
                    proto(format!(
                        "reshard add needs NAME=ADDR, got {spec:?} \
                         (spawn mode resolves bare names to spawned shards)"
                    ))
                })?;
                let mut members: Vec<String> =
                    self.map.members().iter().map(String::clone).collect();
                members.push(name.to_string());
                (
                    members,
                    name.to_string(),
                    Some(ShardSpec::parse(addr)),
                    true,
                )
            }
            (None, Some(name)) => {
                let members: Vec<String> = self
                    .map
                    .members()
                    .iter()
                    .filter(|m| m.as_str() != name)
                    .map(String::clone)
                    .collect();
                if members.len() == self.map.members().len() {
                    return Err(rerr(format!("unknown member {name:?}")));
                }
                (members, name.to_string(), None, false)
            }
            _ => {
                return Err(proto(
                    "reshard needs exactly one of \"add\" or \"remove\"".to_string(),
                ));
            }
        };
        // Probe map: validates the target membership (names, duplicates,
        // emptiness) and answers "who owns g afterwards" without touching
        // the live, journaled map.
        let probe = ShardMap::new(probe_members, self.map.domains(), None)
            .map_err(|e| rerr(e.to_string()))?;
        // Connect the joining shard. A retry finds the member already in
        // the fleet and reuses it — unless the supplied address differs
        // (a drained member rejoining as a *new* process), in which case
        // the stale connection is torn down and replaced; the layout
        // refresh below adopts whatever state the new process holds.
        if adding {
            let spec = spec.as_ref().expect("add always carries a spec");
            match self.shards.iter().position(|sh| sh.name == name) {
                Some(pos) if self.shards[pos].spec != *spec => {
                    self.shards[pos] = connect_shard(&name, spec, &self.client);
                }
                Some(_) => {}
                None => {
                    let shard = connect_shard(&name, spec, &self.client);
                    self.shards.push(shard);
                    self.metrics.per_shard_routed.push(0);
                }
            }
        }
        // Ground-truth refresh: rebuild every fleet member's slot table
        // from its engine's actual layout, so the moved set and the
        // migration sources below reflect where domains really live. An
        // earlier reshard may have been interrupted — or abandoned and a
        // *different* one issued — and its exports/imports are
        // discovered here and rolled forward rather than stranded.
        for shard in &mut self.shards {
            let layout = probe_layout(shard).map_err(&rerr)?;
            shard.slots =
                slots_from_layout(&shard.name, &layout, &self.map.birth_domains(&shard.name))
                    .map_err(&rerr)?;
        }
        // The moved set is computed against the *holders*, not the map:
        // a domain migrates unless the post-reshard owner already serves
        // it live. On a clean fleet this is exactly the rendezvous
        // owner-diff (minimal movement); after an interrupted attempt it
        // also picks up displaced domains — live on a non-owner, or
        // fenced everywhere — whose map owner never changed.
        let moved: Vec<usize> = (0..self.map.domains())
            .filter(|&g| {
                let owner = &probe.members()[probe.shard_for(g)];
                !self
                    .shards
                    .iter()
                    .any(|sh| &sh.name == owner && sh.slots.contains(&Slot::Live(g)))
            })
            .collect();
        // The post-cutover version every import is keyed under: retries
        // of an interrupted reshard recompute the same keys, so a shard
        // that already applied an import answers with the same slot
        // instead of double-applying it.
        let next_version = self.map.version() + 1;
        let pause_ms: u64 = std::env::var("DVS_RESHARD_PAUSE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        for &g in &moved {
            if pause_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(pause_ms));
            }
            let owner = probe.members()[probe.shard_for(g)].clone();
            let dst = self
                .shards
                .iter()
                .position(|sh| sh.name == owner)
                .ok_or_else(|| rerr(format!("no connected shard for member {owner:?}")))?;
            // Source: the live holder, wherever it is. When an earlier
            // attempt was interrupted between export and import there is
            // no live holder — the fenced copy on the map-assigned owner
            // (the only shard that can have exported g under an
            // uncommitted reshard) re-exports its stored payload
            // idempotently. The *last* fenced slot is the freshest: a
            // domain re-imported and re-exported leaves older tombstones
            // at lower indices.
            let (src, local) = if let Some(src) = self
                .shards
                .iter()
                .position(|sh| sh.slots.contains(&Slot::Live(g)))
            {
                let local = self.shards[src]
                    .slots
                    .iter()
                    .position(|slot| *slot == Slot::Live(g))
                    .expect("just found above");
                (src, local)
            } else {
                let map_owner = &self.map.members()[self.map.shard_for(g)];
                let src = self
                    .shards
                    .iter()
                    .position(|sh| &sh.name == map_owner && sh.slots.contains(&Slot::Fenced(g)))
                    .or_else(|| {
                        self.shards
                            .iter()
                            .position(|sh| sh.slots.contains(&Slot::Fenced(g)))
                    })
                    .ok_or_else(|| {
                        rerr(format!(
                            "domain {g} has no live or fenced holder — its state is lost"
                        ))
                    })?;
                let local = self.shards[src]
                    .slots
                    .iter()
                    .rposition(|slot| *slot == Slot::Fenced(g))
                    .expect("just found above");
                (src, local)
            };
            let resp =
                self.shard_write(src, &format!("{{\"op\":\"export\",\"domain\":{local}}}"))?;
            let rp = json::parse_object(&resp)
                .map_err(|e| rerr(format!("bad export response from shard {src}: {e}")))?;
            if json::get(&rp, "ok") != Some(&JsonValue::Bool(true)) {
                return Err(resp);
            }
            let payload = json::get(&rp, "payload")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| rerr(format!("shard {src} export reply lacks a payload")))?
                .to_string();
            // The engine fenced the slot the moment the export journaled;
            // mirror that now, so a failure on the import below leaves
            // the table telling the truth and the retry re-exports the
            // stored payload.
            self.shards[src].slots[local] = Slot::Fenced(g);
            let import = format!(
                "{{\"op\":\"import\",\"key\":\"{next_version}:{g}\",\"payload\":\"{}\"}}",
                json::escape(&payload)
            );
            let resp = self.shard_write(dst, &import)?;
            let rp = json::parse_object(&resp)
                .map_err(|e| rerr(format!("bad import response from shard {dst}: {e}")))?;
            if json::get(&rp, "ok") != Some(&JsonValue::Bool(true)) {
                return Err(resp);
            }
            let new_local = json::get(&rp, "local")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| rerr(format!("shard {dst} import reply lacks a local slot")))?
                as usize;
            let slots = &mut self.shards[dst].slots;
            match new_local.cmp(&slots.len()) {
                std::cmp::Ordering::Equal => slots.push(Slot::Live(g)),
                std::cmp::Ordering::Less if slots[new_local] == Slot::Live(g) => {}
                _ => {
                    return Err(rerr(format!(
                        "shard {dst} imported domain {g} at unexpected slot {new_local}"
                    )));
                }
            }
        }
        // Cutover fence: only now does the journaled map adopt the new
        // membership and version — routing flips atomically for every
        // subsequent event, and a replayed map journal lands here too.
        let bump = if adding {
            self.map.add_member(&name)
        } else {
            self.map.remove_member(&name)
        };
        bump.map_err(|e| rerr(e.to_string()))?;
        Ok(format!(
            "{{\"ok\":true,\"op\":\"reshard\",\"version\":{},\"moved\":{}}}",
            self.map.version(),
            moved.len()
        ))
    }

    /// Sends a write to shard `s`'s primary, retrying across connection
    /// failures. Writes never fall back to a replica: a follower refuses
    /// them (`not-primary`), and silently retrying elsewhere would fork
    /// the shard's history.
    fn shard_write(&mut self, s: usize, line: &str) -> Result<String, String> {
        self.shards[s]
            .primary
            .request(line)
            .map_err(|e| shard_unavailable(s, &e))
    }

    /// Sends a read to shard `s`, hedging to the replica when the primary
    /// cannot answer. The flag in the result says whether the *replica*
    /// served the reply — only then may its `stale_by` bound enter the
    /// aggregate (a primary's reply is never stale by definition, even
    /// if its JSON happens to carry a `stale_by` field).
    fn shard_read(&mut self, s: usize, line: &str) -> Result<(String, bool), String> {
        let primary = self.shard_write(s, line);
        match primary {
            Ok(resp) => Ok((resp, false)),
            Err(primary_err) => {
                let Some(replica) = self.shards[s].replica.as_mut() else {
                    return Err(primary_err);
                };
                let resp = replica.request(line).map_err(|replica_err| {
                    err_response(
                        "shard-unavailable",
                        None,
                        &format!("shard {s}: primary and replica both failed ({replica_err})"),
                    )
                })?;
                self.metrics.hedged_reads += 1;
                Ok((resp, true))
            }
        }
    }

    /// Rewrites a shard's echoed decision lines from local to global
    /// domain indices, returning `(global_domain, line)` pairs in emitted
    /// order. Lines without a domain suffix (rejected verdicts) keep
    /// their bytes and sort under the shard's first owned domain — they
    /// only occur on single-shard arrive responses, where the sort key is
    /// irrelevant.
    fn globalize(
        &self,
        s: usize,
        response_pairs: &[(String, JsonValue)],
    ) -> Result<Vec<(usize, String)>, String> {
        let Some(dlog) = json::get(response_pairs, "dlog").and_then(JsonValue::as_str) else {
            return Ok(Vec::new());
        };
        let slots = &self.shards[s].slots;
        let mut out = Vec::new();
        for line in dlog.lines() {
            if let Some(pos) = line.rfind('@') {
                let local: usize = line[pos + 1..].parse().map_err(|_| {
                    err_response(
                        "bad-request",
                        None,
                        &format!("unparseable decision line from shard {s}: {line:?}"),
                    )
                })?;
                let g = slots
                    .get(local)
                    .copied()
                    .and_then(Slot::live)
                    .ok_or_else(|| {
                        err_response(
                            "bad-request",
                            None,
                            &format!("shard {s} named unknown or exported local domain {local}"),
                        )
                    })?;
                out.push((g, format!("{}{g}", &line[..=pos])));
            } else {
                let first = slots
                    .iter()
                    .copied()
                    .filter_map(Slot::live)
                    .next()
                    .unwrap_or(0);
                out.push((first, line.to_string()));
            }
        }
        Ok(out)
    }

    fn append_merged<'a>(&mut self, lines: impl Iterator<Item = &'a str>) {
        for line in lines {
            self.merged_log.push_str(line);
            self.merged_log.push('\n');
            self.merged_decisions += 1;
        }
    }

    /// The `,"dlog":"…"` suffix when the client asked for the echo.
    fn dlog_suffix(&self, pairs: &[(String, JsonValue)], lines: &[(usize, String)]) -> String {
        if json::get(pairs, "dlog") != Some(&JsonValue::Bool(true)) {
            return String::new();
        }
        let mut text = String::new();
        for (_, line) in lines {
            text.push_str(line);
            text.push('\n');
        }
        format!(",\"dlog\":\"{}\"", json::escape(&text))
    }
}

/// Renders a parsed JSON value back to JSON text (numbers via `f64`
/// round-trip formatting, which preserves every value a shard will
/// parse with `as_f64` anyway).
fn render_value(value: &JsonValue) -> String {
    match value {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => format!("{n}"),
        JsonValue::Str(s) => format!("\"{}\"", json::escape(s)),
        JsonValue::Arr(items) => {
            let parts: Vec<String> = items.iter().map(render_value).collect();
            format!("[{}]", parts.join(","))
        }
        JsonValue::Obj(pairs) => {
            let parts: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json::escape(k), render_value(v)))
                .collect();
            format!("{{{}}}", parts.join(","))
        }
    }
}
