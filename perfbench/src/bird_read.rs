//! `bird_read`: two closed-loop sessions rotate through the 150 BIRD-Ext
//! gold SELECTs over the `select` tool.

use crate::inputs;
use crate::oracle;
use crate::report::{self, Breakdown, Layers, Means, Measured, Replay, ServedCall};
use crate::served::{self, Served};
use crate::Outcome;
use bridgescope_core::SecurityPolicy;
use minidb::{Database, QueryResult, Session};
use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};
use toolproto::{Json, Registry};
use wire::Client;

/// Concurrent client sessions.
pub const SESSIONS: usize = 2;
/// In-process replays per distinct statement in a traced run.
const REPLAYS: usize = 5;

struct State {
    served: Served,
    clients: Vec<Client>,
    rotation: Vec<String>,
    args: Vec<Json>,
}

fn setup(seed: u64) -> State {
    let bench = benchkit::bird::generate(seed);
    let rotation = inputs::bird_read_rotation(&bench, seed);
    let args: Vec<Json> = rotation
        .iter()
        .map(|sql| Json::object([("sql", Json::str(sql.clone()))]))
        .collect();
    let served = Served::bind(bench.template, Registry::new(), None, served::served_obs());
    let mut clients: Vec<Client> = (0..SESSIONS).map(|_| served.connect("admin")).collect();
    // Warm-up: one pass over the rotation fills the prepared-plan cache.
    for (i, a) in args.iter().enumerate() {
        clients[i % SESSIONS]
            .call("select", a)
            .expect("transport")
            .expect("gold SQL runs");
    }
    State {
        served,
        clients,
        rotation,
        args,
    }
}

/// What the timed phase saw, beyond the measurements.
struct Phase {
    m: Measured,
    /// Calls per statement.
    counts: Vec<u64>,
    /// The first result received for each statement.
    first: Vec<Option<Json>>,
    /// `(statement, trace id, ns)` per call.
    samples: Vec<(usize, u128, u64)>,
}

fn drive(state: &mut State, seconds: f64) -> Phase {
    let n = state.args.len();
    let args = &state.args;
    let rss_before = served::rss_kb();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let phases: Vec<Phase> = thread::scope(|s| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                s.spawn(move || {
                    let mut p = Phase {
                        m: Measured::default(),
                        counts: vec![0; n],
                        first: vec![None; n],
                        samples: Vec::new(),
                    };
                    let mut next = k * n / SESSIONS;
                    while Instant::now() < deadline {
                        let i = next % n;
                        next += 1;
                        let ctx = served::call_context(k, p.m.calls);
                        let t = Instant::now();
                        let result = client.call_traced("select", &args[i], &ctx);
                        let ns = t.elapsed().as_nanos() as u64;
                        p.m.calls += 1;
                        p.m.units += 1;
                        p.m.call
                            .push((report::window_of(started.elapsed(), seconds), ns));
                        p.counts[i] += 1;
                        p.samples.push((i, ctx.trace.as_u128(), ns));
                        match result {
                            Ok(Ok(out)) => {
                                p.m.units_completed += 1;
                                p.m.rows += out.rows.unwrap_or(0) as u64;
                                if p.first[i].is_none() {
                                    p.first[i] = Some(out.value);
                                }
                            }
                            Ok(Err(_)) => {
                                p.m.tool_errors += 1;
                                p.m.failed += 1;
                            }
                            Err(_) => p.m.failed += 1,
                        }
                    }
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    let mut all = Phase {
        m: Measured::default(),
        counts: vec![0; n],
        first: vec![None; n],
        samples: Vec::new(),
    };
    for p in phases {
        all.m.merge(p.m);
        for (i, c) in p.counts.into_iter().enumerate() {
            all.counts[i] += c;
        }
        for (slot, f) in all.first.iter_mut().zip(p.first) {
            if slot.is_none() {
                *slot = f;
            }
        }
        all.samples.extend(p.samples);
    }
    all.m.rss_delta_kb = served::rss_kb() - rss_before;
    all.m.window_s = report::wall_windows(started.elapsed().as_secs_f64(), seconds);
    all.m.unit = all.m.call.clone();
    all.m.llm_calls = all.m.calls;
    // Tokens an agent would pay to send each statement and read its result.
    all.m.tokens = all
        .first
        .iter()
        .zip(&state.rotation)
        .zip(&all.counts)
        .filter_map(|((f, sql), c)| {
            f.as_ref().map(|v| {
                c * (llmsim::tokens::estimate(sql) + llmsim::tokens::estimate(&v.to_compact()))
                    as u64
            })
        })
        .sum();
    all
}

/// The oracle: each statement's first wire result equals the in-process
/// result on the served database (which these reads never change).
fn check(db: &Database, rotation: &[String], first: &[Option<Json>], failures: &mut Vec<String>) {
    let mut session = db.session("admin").expect("admin exists");
    let mut checked = 0;
    for (sql, wire) in rotation.iter().zip(first) {
        let Some(wire) = wire else { continue };
        let local = session.execute_sql(sql).expect("gold SQL runs in process");
        if !oracle::wire_result_matches(wire, &local) {
            failures.push(format!("bird_read: wire result differs for: {sql}"));
        }
        checked += 1;
    }
    if checked == 0 {
        failures.push("bird_read: no statement completed".into());
    }
}

/// Rows the scan operators of `sql`'s plan produced, from EXPLAIN ANALYZE.
pub fn rows_scanned(session: &mut minidb::Session, sql: &str) -> u64 {
    let Ok(QueryResult::Rows { rows, .. }) = session.execute_sql(&format!("EXPLAIN ANALYZE {sql}"))
    else {
        return 0;
    };
    rows.iter()
        .filter_map(|r| match r.first() {
            Some(minidb::Value::Text(line)) if line.contains("Scan") => actual_rows(line),
            _ => None,
        })
        .sum()
}

fn actual_rows(line: &str) -> Option<u64> {
    let actual = &line[line.find("(actual")?..];
    let digits: String = actual[actual.find("rows=")? + 5..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Median wall time of `reps` runs of `f`, in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&times).unwrap_or(0.0)
}

/// Replay one scripted call `reps` times in process: the tool on
/// `registry`, its statement `stmt` on `session`, the statement's parse,
/// and the JSON round trip of the response. Returns median times and the
/// response's compact size.
pub fn replay_call(
    registry: &Registry,
    session: &mut Session,
    (tool, args): (&str, &Json),
    stmt: &str,
    reps: usize,
) -> (Replay, usize) {
    let mut out = None;
    let tool_ns = median_ns(reps, || out = Some(registry.call(tool, args)));
    let value = match out.expect("replayed at least once") {
        Ok(output) => output.value,
        Err(e) => panic!("in-process replay of {tool} {stmt} failed: {e}"),
    };
    let exec = median_ns(reps, || {
        session.execute_sql(stmt).expect("replayed statement runs");
    });
    let parse = median_ns(reps, || {
        sqlkit::parse_statement(stmt).expect("replayed statement parses");
    });
    let mut text = String::new();
    let encode = median_ns(reps, || text = value.to_compact());
    let decode = median_ns(reps, || {
        Json::parse(&text).expect("round trip");
    });
    let r = Replay {
        tool: tool_ns,
        exec,
        parse,
        encode,
        decode,
    };
    (r, text.len())
}

fn layers(state: &State, phase: &Phase) -> (Layers, Breakdown) {
    let db = &state.served.db;
    let obs = &state.served.obs;
    // Read the served telemetry before the replays add to it.
    let mut l = Layers::default();
    report::telemetry_layers(obs, phase.m.units, &mut l);
    let served: HashMap<u128, ServedCall> = served::served_calls(&obs.snapshot().spans, 0)
        .into_iter()
        .collect();
    let registry = served::in_process(
        db,
        "admin",
        SecurityPolicy::permissive(),
        &Registry::new(),
        obs,
    );
    let mut session = db.session("admin").expect("admin exists");
    // Each statement that ran is replayed, then weighted by its calls.
    let replays: Vec<Option<(Replay, usize, u64, u64)>> = (0..state.args.len())
        .map(|i| {
            if phase.counts[i] == 0 {
                return None;
            }
            let sql = &state.rotation[i];
            let (r, bytes) = replay_call(
                &registry,
                &mut session,
                ("select", &state.args[i]),
                sql,
                REPLAYS,
            );
            let result_rows = match session.execute_sql(sql) {
                Ok(QueryResult::Rows { rows, .. }) => rows.len() as u64,
                _ => 0,
            };
            Some((r, bytes, rows_scanned(&mut session, sql), result_rows))
        })
        .collect();
    let mut b = Breakdown::default();
    let mut means = Means::default();
    let (mut scanned, mut produced) = (0, 0);
    for (i, trace, ns) in &phase.samples {
        let Some(spans) = served.get(trace) else {
            b.add_unmatched(1);
            continue;
        };
        let Some((r, bytes, s, p)) = &replays[*i] else {
            continue;
        };
        b.add(*ns, spans, r);
        means.add_replay(r, *bytes);
        means.add("minidb.exec_us.select", r.exec / 1e3);
        means.add("sqlkit.parse_us", r.parse / 1e3);
        scanned += s;
        produced += p;
    }
    b.record(&mut l);
    means.record(&mut l);
    l.set(
        "minidb.rows_scanned_per_row",
        scanned as f64 / produced.max(1) as f64,
    );
    l.set("minidb.retained_versions", db.retained_versions() as f64);
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
    check(
        &state.served.db,
        &state.rotation,
        &phase.first,
        &mut failures,
    );
    drop(state.clients);
    state.served.shutdown();
    Outcome::new((setup_s, setups), phase.m, failures, layers)
}
