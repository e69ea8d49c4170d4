//! `proxy_ml`: one session runs the 30 NL2ML tasks (proxy levels 1–3) with
//! the llmsim agent as `analyst` over the paper's 20k-row `house` table.
//! Bulk rows move tool to tool inside the server; only small frames cross
//! the wire.

use crate::agent::{InProcess, LayerAcc, Mirror, TaskRun};
use crate::oracle;
use crate::report::{self, Breakdown, Layers, Measured};
use crate::served::{self, CallTimer, Record, Recorder, Served};
use crate::Outcome;
use benchkit::harness::task_seed;
use bridgescope_core::SecurityPolicy;
use llmsim::TaskSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The NL2ML user.
pub const USER: &str = "analyst";
/// Rows in the `house` table, as in the paper.
pub const ROWS: usize = 20_000;
/// The `house` table is one fixed dataset, as the paper's California
/// Housing table is; `--seed` orders the tasks and seeds the agent.
pub const HOUSE_SEED: u64 = 20_000;
/// Tasks of the timed phase kept for the per-layer replays.
const REPLAY_TASKS: usize = 30;

struct State {
    served: Served,
    mirror: Mirror,
    /// Times the ML tools on the server side.
    consumers: Arc<Recorder>,
    tasks: Vec<TaskSpec>,
    seed: u64,
    next: usize,
}

fn setup(seed: u64) -> State {
    let db = benchkit::housing::build_database(ROWS, HOUSE_SEED);
    db.create_user(USER, false).expect("fresh database");
    db.grant(USER, sqlkit::Action::Select, "house")
        .expect("house exists");
    let timer = Arc::new(CallTimer::default());
    let consumers = Recorder::new(false);
    let external = served::timed(&mltools::ml_registry(), &timer, &consumers);
    let served = Served::bind(
        db,
        external,
        Some(SecurityPolicy::default()),
        served::served_obs(),
    );
    let mirror = Mirror::open(&served, USER, timer);
    State {
        served,
        mirror,
        consumers,
        tasks: crate::inputs::nl2ml_order(seed),
        seed,
        next: 0,
    }
}

struct Phase {
    m: Measured,
    failures: Vec<String>,
    /// `Obs::now_ns` when the phase started.
    started_ns: u64,
    /// The first `REPLAY_TASKS` tasks: index, wire run, server-side
    /// consumer timings.
    runs: Vec<(usize, TaskRun, Vec<Record>)>,
}

/// One untimed pass over the tasks, so that the timed phase starts with
/// the heap already at its working size: a pipeline moves 20k rows of JSON,
/// and the first pass's heap growth would otherwise dominate the resident
/// set growth the phase reports.
fn warm_up(state: &State) {
    for task in &state.tasks {
        state.mirror.run(task, task_seed(state.seed, &task.id));
    }
}

fn rows_moved(served: &Served) -> u64 {
    served.obs.snapshot().metrics.counter("proxy.rows_moved")
}

fn drive(state: &mut State, seconds: f64) -> Phase {
    let mut p = Phase {
        m: Measured::default(),
        failures: Vec::new(),
        started_ns: state.served.obs.now_ns(),
        runs: Vec::new(),
    };
    let rss_before = served::rss_kb();
    let rows_before = rows_moved(&state.served);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let first_pass = state.next / state.tasks.len();
    // Whole passes over the 30 tasks, so every run times the same mix of
    // pipeline depths: the phase ends at the first pass boundary after the
    // deadline. Each pass is one window.
    while Instant::now() < deadline || !state.next.is_multiple_of(state.tasks.len()) {
        let window = (state.next / state.tasks.len() - first_pass) as u32;
        let i = state.next % state.tasks.len();
        state.next += 1;
        let task = &state.tasks[i];
        state.consumers.drain();
        let run = state.mirror.run(task, task_seed(state.seed, &task.id));
        run.account(&mut p.m, Some("proxy"), window);
        if run.calls.iter().any(|c| c.error) {
            // NL2ML pipelines over BridgeScope make no failing calls.
            p.m.failed += 1;
        }
        if !oracle::nl2ml_correct(&run.trace) {
            p.m.failed += 1;
            p.failures.push(format!(
                "proxy_ml: task {} did not complete with a finite rmse ({:?})",
                task.id, run.trace.outcome
            ));
        }
        let consumers = state.consumers.drain();
        if p.runs.len() < REPLAY_TASKS {
            p.runs.push((i, run, consumers));
        }
    }
    p.m.rows = rows_moved(&state.served) - rows_before;
    p.m.rss_delta_kb = served::rss_kb() - rss_before;
    p
}

fn layers(state: &State, phase: &Phase) -> (Layers, Breakdown) {
    // The workload only reads, so the served database serves the replays.
    let db = &state.served.db;
    let obs = &state.served.obs;
    // Read the served telemetry before the replays add to it.
    let mut l = Layers::default();
    report::telemetry_layers(obs, phase.m.units, &mut l);
    let served = served::served_calls(&obs.snapshot().spans, phase.started_ns);
    let mut ip = InProcess::new(
        (db, db),
        USER,
        SecurityPolicy::default(),
        &mltools::ml_registry(),
        obs,
    );
    let mut acc = LayerAcc::default();
    let mut offset = 0;
    for (i, run, consumers) in &phase.runs {
        let task = &state.tasks[*i];
        let calls = run.calls.len();
        let spans: Vec<_> = served
            .iter()
            .skip(offset)
            .take(calls)
            .map(|c| c.1)
            .collect();
        offset += calls;
        acc.task(run);
        let seed = task_seed(state.seed, &task.id);
        acc.replay(&mut ip, (task, seed), run, &spans, consumers);
    }
    // The calls ran one at a time, so the served spans in start order pair
    // with the timed calls in order; every timed call must have its spans.
    acc.breakdown
        .add_unmatched(phase.m.calls.abs_diff(served.len() as u64));
    acc.record(&mut l);
    l.set("minidb.retained_versions", db.retained_versions() as f64);
    (l, acc.breakdown)
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup_s, setups, mut state) = report::median_setup(
        || setup(seed),
        |s| {
            drop(s.mirror);
            s.served.shutdown();
        },
    );
    warm_up(&state);
    let phase = drive(&mut state, seconds);
    let layers = traced.then(|| layers(&state, &phase));
    drop(state.mirror);
    state.served.shutdown();
    Outcome::new((setup_s, setups), phase.m, phase.failures, layers)
}
