//! `agent_bird`: one session at a time runs a BIRD-Ext read or write task
//! with the llmsim agent through a mirror registry. Successive sessions log
//! in as the paper's three roles in turn (admin / normal / irrelevant), so
//! context retrieval, privilege-pruned surfaces and denials all run.
//!
//! Every session gets a fresh fork of the template behind a freshly bound
//! server (sharing the run's telemetry), so each task starts from the
//! state the in-process harness gives it.

use crate::agent::{self, InProcess, LayerAcc, Mirror, TaskRun};
use crate::oracle;
use crate::report::{self, Breakdown, Layers, Measured};
use crate::served::{self, CallTimer, Served};
use crate::Outcome;
use benchkit::bird::{BirdExt, BirdTask};
use benchkit::eval;
use benchkit::harness::{run_bird_cell, task_seed, BirdCell, TaskClass, Toolkit};
use benchkit::roles::install_roles;
use benchkit::Role;
use bridgescope_core::SecurityPolicy;
use llmsim::{Aggregate, TaskTrace};
use minidb::Database;
use obs::Obs;
use std::sync::Arc;
use std::time::{Duration, Instant};
use toolproto::Registry;

/// Successive sessions cycle through these (role, task class) cells.
const CELLS: [(Role, TaskClass); 6] = [
    (Role::Administrator, TaskClass::Read),
    (Role::Normal, TaskClass::Write),
    (Role::Irrelevant, TaskClass::Read),
    (Role::Administrator, TaskClass::Write),
    (Role::Normal, TaskClass::Read),
    (Role::Irrelevant, TaskClass::Write),
];
/// Sessions of the timed phase kept for the per-layer replays.
const REPLAY_TASKS: usize = 300;

struct State {
    bench: BirdExt,
    task_tables: Vec<String>,
    /// Task indices of the read and the write class, in benchmark order.
    classes: [Vec<usize>; 2],
    /// Sessions run so far.
    sessions: usize,
    /// Position of each cell in its class.
    next: [usize; 6],
    /// Each cell's first pass over its class, judged as the in-process
    /// harness judges it.
    first_pass: [Aggregate; 6],
    obs: Obs,
    seed: u64,
}

fn class_index(class: TaskClass) -> usize {
    usize::from(class == TaskClass::Write)
}

fn setup(seed: u64) -> State {
    let bench = benchkit::bird::generate(seed);
    let task_tables = bench
        .template
        .table_names()
        .into_iter()
        .filter(|t| t != "employee_salaries")
        .collect();
    let classes = [false, true].map(|write| {
        bench
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_write() == write)
            .map(|(i, _)| i)
            .collect()
    });
    State {
        bench,
        task_tables,
        classes,
        sessions: 0,
        next: [0; 6],
        first_pass: Default::default(),
        obs: served::served_obs(),
        seed,
    }
}

fn fresh_db(state: &State) -> Database {
    let db = state.bench.template.fork();
    install_roles(&db, &state.task_tables);
    db
}

/// The in-process harness's verdict on a task run, computed the same way
/// (`benchkit::harness::run_bird_cell`).
fn judge(bench: &BirdExt, task: &BirdTask, role: Role, trace: &TaskTrace, db: &Database) -> bool {
    if !role.feasible(task.is_write()) {
        return trace.outcome.is_aborted();
    }
    let gold_db = bench.template.fork();
    let mut s = gold_db.session("admin").expect("admin exists");
    if task.is_write() {
        for step in &task.spec.steps {
            s.execute_sql(&step.gold).expect("gold SQL runs");
        }
        trace.outcome.is_completed() && eval::write_correct(db, &gold_db, &task.eval_tables)
    } else {
        let gold = s
            .execute_sql(&task.spec.steps[0].gold)
            .expect("gold SQL runs");
        trace.outcome.is_completed() && eval::read_correct(trace.answer.as_ref(), &gold)
    }
}

struct Phase {
    m: Measured,
    /// `Obs::now_ns` when the phase started.
    started_ns: u64,
    /// The first `REPLAY_TASKS` sessions: cell, task index, wire run.
    runs: Vec<(usize, usize, TaskRun)>,
}

fn drive(state: &mut State, seconds: f64) -> Phase {
    let mut p = Phase {
        m: Measured::default(),
        started_ns: state.obs.now_ns(),
        runs: Vec::new(),
    };
    let rss_before = served::rss_kb();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let cell = state.sessions % CELLS.len();
        state.sessions += 1;
        let (role, class) = CELLS[cell];
        let list = &state.classes[class_index(class)];
        let position = state.next[cell];
        state.next[cell] += 1;
        let ti = list[position % list.len()];
        let task = &state.bench.tasks[ti];
        let served = Served::bind(
            fresh_db(state),
            Registry::new(),
            Some(SecurityPolicy::default()),
            state.obs.clone(),
        );
        let mirror = Mirror::open(&served, role.user(), Arc::new(CallTimer::default()));
        let run = mirror.run(&task.spec, task_seed(state.seed, &task.spec.id));
        drop(mirror);
        run.account(
            &mut p.m,
            None,
            report::window_of(started.elapsed(), seconds),
        );
        p.m.rows += run.calls.iter().map(|c| c.rows as u64).sum::<u64>();
        if position < list.len() {
            let correct = judge(&state.bench, task, role, &run.trace, &served.db);
            let feasible = role.feasible(task.is_write());
            state.first_pass[cell].add(&run.trace, task.is_write() && feasible, correct);
        }
        served.shutdown();
        if p.runs.len() < REPLAY_TASKS {
            p.runs.push((cell, ti, run));
        }
    }
    p.m.rss_delta_kb = served::rss_kb() - rss_before;
    p
}

/// The oracle: each cell's first pass over the wire equals the in-process
/// harness run of the same tasks with the same seed.
fn check(state: &State, failures: &mut Vec<String>) {
    for (cell, (role, class)) in CELLS.iter().enumerate() {
        let wire = &state.first_pass[cell];
        if wire.runs == 0 {
            continue;
        }
        let local = run_bird_cell(
            &state.bench,
            &BirdCell {
                toolkit: Toolkit::BridgeScope,
                profile: agent::profile(),
                role: *role,
                class: *class,
                limit: Some(wire.runs),
                seed: state.seed,
            },
        );
        if let Err(e) = oracle::same_cell(wire, &local.aggregate) {
            failures.push(format!(
                "agent_bird: {role:?} {class:?} differs from in process: {e}"
            ));
        }
    }
    if state.first_pass.iter().all(|a| a.runs == 0) {
        failures.push("agent_bird: no task ran".into());
    }
}

fn layers(state: &State, phase: &Phase) -> (Layers, Breakdown) {
    // Read the served telemetry before the replays add to it.
    let mut l = Layers::default();
    report::telemetry_layers(&state.obs, phase.m.units, &mut l);
    let served = served::served_calls(&state.obs.snapshot().spans, phase.started_ns);
    let mut acc = LayerAcc::default();
    let mut offset = 0;
    for (cell, ti, run) in &phase.runs {
        let (role, _) = CELLS[*cell];
        let task = &state.bench.tasks[*ti];
        let calls = run.calls.len();
        let spans: Vec<_> = served
            .iter()
            .skip(offset)
            .take(calls)
            .map(|c| c.1)
            .collect();
        offset += calls;
        // Each replay starts from the state its wire session started from.
        let mut ip = InProcess::new(
            (&fresh_db(state), &fresh_db(state)),
            role.user(),
            SecurityPolicy::default(),
            &Registry::new(),
            &state.obs,
        );
        acc.task(run);
        let seed = task_seed(state.seed, &task.spec.id);
        acc.replay(&mut ip, (&task.spec, seed), run, &spans, &[]);
    }
    // The calls ran one at a time, so the served spans in start order pair
    // with the timed calls in order; every timed call must have its spans.
    acc.breakdown
        .add_unmatched(phase.m.calls.abs_diff(served.len() as u64));
    acc.record(&mut l);
    (l, acc.breakdown)
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup_s, setups, mut state) = report::median_setup(|| setup(seed), drop);
    let phase = drive(&mut state, seconds);
    let mut failures = Vec::new();
    let layers = traced.then(|| layers(&state, &phase));
    check(&state, &mut failures);
    Outcome::new((setup_s, setups), phase.m, failures, layers)
}
