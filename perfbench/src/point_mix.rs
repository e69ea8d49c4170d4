//! `point_mix`: two closed-loop sessions run primary-key point reads and
//! short write transactions on a seeded 10k-row table, with skewed keys so
//! that some write-write conflicts occur. A conflicting transaction is
//! retried from BEGIN, as the paper's agents do.

use crate::agent;
use crate::bird_read::{replay_call, rows_scanned};
use crate::inputs::{self, PointOp, PointOps};
use crate::oracle::{self, Ledger};
use crate::report::{self, Breakdown, Layers, Means, Measured, ServedCall};
use crate::served::{self, Served};
use crate::Outcome;
use bridgescope_core::SecurityPolicy;
use minidb::{Database, QueryResult, Value};
use std::collections::{BTreeMap, HashMap};
use std::thread;
use std::time::{Duration, Instant};
use toolproto::{Json, Registry, ToolError};
use wire::Client;

/// Concurrent client sessions.
pub const SESSIONS: usize = 2;
/// Attempts a transaction gets before it counts as failed.
pub const MAX_ATTEMPTS: u32 = 10;
/// Completed units per session and kind (reads, writes) whose calls are
/// kept for the per-layer replays; each write replay re-runs the slow
/// write path twice.
const REPLAY_UNITS: usize = 50;

struct State {
    served: Served,
    clients: Vec<Client>,
    ops: Vec<PointOps>,
    /// The seeded table before any timed write, for replays.
    pristine: Database,
}

fn setup(seed: u64) -> State {
    let db = inputs::build_accounts(seed);
    let pristine = db.fork();
    let served = Served::bind(db, Registry::new(), None, served::served_obs());
    let mut clients: Vec<Client> = (0..SESSIONS).map(|_| served.connect("admin")).collect();
    // Warm-up: a few point reads per session.
    for (k, client) in clients.iter_mut().enumerate() {
        for key in 0..20 {
            let sql = PointOp::Read {
                key: key * 31 + k as u64,
            }
            .calls()
            .remove(0)
            .1;
            client
                .call("select", &sql_args(&sql))
                .expect("transport")
                .expect("point read runs");
        }
    }
    State {
        served,
        clients,
        ops: (0..SESSIONS as u64)
            .map(|s| PointOps::new(seed, s))
            .collect(),
        pristine,
    }
}

fn sql_args(sql: &str) -> Json {
    if sql.is_empty() {
        Json::object(Vec::<(&str, Json)>::new())
    } else {
        Json::object([("sql", Json::str(sql))])
    }
}

fn is_conflict(e: &ToolError) -> bool {
    e.to_string().contains("serialization conflict")
}

/// One call of the phase: `(unit, tool, sql, trace id, ns)`, for replays.
type Call = (usize, &'static str, String, u128, u64);

struct Phase {
    m: Measured,
    ledger: Ledger,
    attempts: u64,
    conflicts: u64,
    /// Calls of the kept units' final attempts, by unit.
    calls: Vec<Call>,
    /// `(unit, is_write)` of the kept units: the first `REPLAY_UNITS`
    /// completed units of each kind per session.
    units: Vec<(usize, bool)>,
}

fn session_loop(
    client: &mut Client,
    ops: &mut PointOps,
    (started, seconds): (Instant, f64),
    session: usize,
) -> Phase {
    let mut p = Phase {
        m: Measured::default(),
        ledger: Ledger::default(),
        attempts: 0,
        conflicts: 0,
        calls: Vec::new(),
        units: Vec::new(),
    };
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut kept = [0; 2];
    while Instant::now() < deadline {
        let unit = (session << 40) + ops.produced() as usize;
        let op = ops.next().expect("endless stream");
        let calls = op.calls();
        let args: Vec<Json> = calls.iter().map(|(_, sql)| sql_args(sql)).collect();
        let unit_started = Instant::now();
        let mut committed = false;
        let mut broke = false;
        for _attempt in 0..MAX_ATTEMPTS {
            p.attempts += 1;
            let mut attempt_calls = Vec::with_capacity(calls.len());
            let mut conflict = false;
            let mut broken = false;
            for ((tool, sql), a) in calls.iter().zip(&args) {
                let ctx = served::call_context(session, p.m.calls);
                let t = Instant::now();
                let result = client.call_traced(tool, a, &ctx);
                let ns = t.elapsed().as_nanos() as u64;
                p.m.calls += 1;
                p.m.llm_calls += 1;
                p.m.call
                    .push((report::window_of(started.elapsed(), seconds), ns));
                p.m.tokens += llmsim::tokens::estimate(sql) as u64;
                attempt_calls.push((unit, *tool, sql.clone(), ctx.trace.as_u128(), ns));
                match result {
                    Ok(Ok(out)) => {
                        p.m.rows += out.rows.unwrap_or(0) as u64;
                        p.m.tokens += llmsim::tokens::estimate(&out.value.to_compact()) as u64;
                    }
                    Ok(Err(e)) => {
                        p.m.tool_errors += 1;
                        if is_conflict(&e) {
                            conflict = true;
                        } else {
                            p.m.failed += 1;
                            broken = true;
                        }
                        break;
                    }
                    Err(_) => {
                        p.m.failed += 1;
                        broken = true;
                        break;
                    }
                }
            }
            if !conflict && !broken {
                committed = true;
                let is_write = matches!(op, PointOp::Write { .. });
                if kept[usize::from(is_write)] < REPLAY_UNITS {
                    kept[usize::from(is_write)] += 1;
                    p.calls.extend(attempt_calls);
                    p.units.push((unit, is_write));
                }
                break;
            }
            if matches!(op, PointOp::Write { .. }) {
                // A losing COMMIT already rolled back; anything else may
                // leave the transaction open.
                let _ = client.call("rollback", &sql_args(""));
            }
            if broken {
                broke = true;
                break;
            }
            p.conflicts += 1;
        }
        p.m.units += 1;
        p.m.unit.push((
            report::window_of(started.elapsed(), seconds),
            unit_started.elapsed().as_nanos() as u64,
        ));
        if committed {
            p.m.units_completed += 1;
            if let PointOp::Write { key, .. } = op {
                *p.ledger.increments.entry(key).or_default() += 1;
                p.ledger.inserts += 1;
            }
        } else if !broke {
            // Retry bound exhausted.
            p.m.failed += 1;
        }
    }
    p
}

fn drive(state: &mut State, seconds: f64) -> Phase {
    let rss_before = served::rss_kb();
    let started = Instant::now();
    let phases: Vec<Phase> = thread::scope(|s| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .zip(state.ops.iter_mut())
            .enumerate()
            .map(|(k, (client, ops))| {
                s.spawn(move || session_loop(client, ops, (started, seconds), k))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    let mut all = Phase {
        m: Measured::default(),
        ledger: Ledger::default(),
        attempts: 0,
        conflicts: 0,
        calls: Vec::new(),
        units: Vec::new(),
    };
    for p in phases {
        all.m.merge(p.m);
        all.ledger.merge(&p.ledger);
        all.attempts += p.attempts;
        all.conflicts += p.conflicts;
        all.calls.extend(p.calls);
        all.units.extend(p.units);
    }
    all.m.rss_delta_kb = served::rss_kb() - rss_before;
    all.m.window_s = report::wall_windows(started.elapsed().as_secs_f64(), seconds);
    all
}

/// The lost-update oracle over the served table.
fn check(db: &Database, ledger: &Ledger, failures: &mut Vec<String>) {
    let mut s = db.session("admin").expect("admin exists");
    let count = match s.execute_sql("SELECT COUNT(*) FROM accounts") {
        Ok(QueryResult::Rows { rows, .. }) => match rows.first().and_then(|r| r.first()) {
            Some(Value::Int(n)) => *n as u64,
            _ => u64::MAX,
        },
        _ => u64::MAX,
    };
    let mut counters = BTreeMap::new();
    if let Ok(QueryResult::Rows { rows, .. }) =
        s.execute_sql("SELECT id, counter FROM accounts WHERE counter > 0")
    {
        for r in rows {
            if let [Value::Int(id), Value::Int(c)] = r.as_slice() {
                counters.insert(*id as u64, *c as u64);
            }
        }
    }
    if let Err(e) = oracle::check_ledger(ledger, inputs::ACCOUNT_ROWS, count, &counters) {
        failures.push(format!("point_mix: {e}"));
    }
}

fn layers(state: &State, phase: &Phase) -> (Layers, Breakdown) {
    let obs = &state.served.obs;
    // Read the served telemetry before the replays add to it.
    let mut l = Layers::default();
    report::telemetry_layers(obs, phase.m.units, &mut l);
    let served: HashMap<u128, ServedCall> = served::served_calls(&obs.snapshot().spans, 0)
        .into_iter()
        .collect();
    // Replays write to forks of the pre-run table, never to the served one.
    let core_db = state.pristine.fork();
    let exec_db = state.pristine.fork();
    let registry = served::in_process(
        &core_db,
        "admin",
        SecurityPolicy::permissive(),
        &Registry::new(),
        obs,
    );
    let mut session = exec_db.session("admin").expect("admin exists");
    let mut by_unit: BTreeMap<usize, Vec<&Call>> = BTreeMap::new();
    for call in &phase.calls {
        by_unit.entry(call.0).or_default().push(call);
    }
    let mut b = Breakdown::default();
    let mut means = Means::default();
    let (mut scanned, mut produced) = (0, 0);
    for (unit, is_write) in &phase.units {
        for (_, tool, sql, trace, ns) in &by_unit[unit] {
            let stmt = match *tool {
                "begin" => "BEGIN",
                "commit" => "COMMIT",
                _ => sql.as_str(),
            };
            let (r, bytes) = replay_call(&registry, &mut session, (tool, &sql_args(sql)), stmt, 1);
            match served.get(trace) {
                Some(spans) => b.add(*ns, spans, &r),
                None => b.add_unmatched(1),
            }
            means.add_replay(&r, bytes);
            means.add("sqlkit.parse_us", r.parse / 1e3);
            if let Some(metric) = agent::exec_metric(stmt) {
                means.add(metric, r.exec / 1e3);
            }
            if !*is_write {
                scanned += rows_scanned(&mut session, sql);
                produced += 1;
            }
        }
    }
    b.record(&mut l);
    means.record(&mut l);
    l.set(
        "minidb.rows_scanned_per_row",
        scanned as f64 / produced.max(1) as f64,
    );
    l.set(
        "minidb.conflict_ratio",
        phase.conflicts as f64 / phase.attempts.max(1) as f64,
    );
    l.set(
        "minidb.retained_versions",
        state.served.db.retained_versions() as f64,
    );
    (l, b)
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup_s, setups, mut state) = report::median_setup(
        || setup(seed),
        |s| {
            drop(s.clients);
            s.served.shutdown();
        },
    );
    let phase = drive(&mut state, seconds);
    let layers = traced.then(|| layers(&state, &phase));
    let mut failures = Vec::new();
    check(&state.served.db, &phase.ledger, &mut failures);
    if phase.conflicts == 0 {
        println!("  note: no write-write conflict occurred in this run");
    }
    drop(state.clients);
    state.served.shutdown();
    Outcome::new((setup_s, setups), phase.m, failures, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_point_read_scans_one_row() {
        let db = inputs::build_accounts(1);
        let mut s = db.session("admin").expect("admin exists");
        let plan = s
            .execute_sql(
                "EXPLAIN ANALYZE SELECT id, owner, balance, counter FROM accounts WHERE id = 5",
            )
            .expect("explain runs");
        assert_eq!(
            rows_scanned(
                &mut s,
                "SELECT id, owner, balance, counter FROM accounts WHERE id = 5"
            ),
            1,
            "{plan:?}"
        );
    }
}
