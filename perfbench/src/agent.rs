//! Shared machinery of the agent-driven workloads: an llmsim agent drives a
//! served session through a mirror registry, and a traced run replays the
//! same tasks in process, call by call, for the per-layer breakdown.

use crate::report::{Breakdown, Layers, Means, Measured, Replay, ServedCall};
use crate::served::{self, CallTimer, ObservedCall, Record, Recorder, Served};
use bridgescope_core::SecurityPolicy;
use llmsim::{LlmProfile, ReactAgent, TaskSpec, TaskTrace};
use minidb::{Database, Session};
use obs::Obs;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use toolproto::{Json, Registry};

/// The agent profile both agent workloads run.
pub fn profile() -> LlmProfile {
    LlmProfile::claude4()
}

/// A served session seen through a mirror registry whose calls are timed
/// by a benchmark-side observer.
pub struct Mirror {
    /// The mirrored tool surface.
    pub registry: Registry,
    /// Times every call made through `registry`.
    pub timer: Arc<CallTimer>,
    /// The agent for this session, primed with the server's prompt.
    pub agent: ReactAgent,
}

impl Mirror {
    /// Open a session on `served` as `user`, timed by `timer`.
    pub fn open(served: &Served, user: &str, timer: Arc<CallTimer>) -> Mirror {
        let (client, prompt) = served.session(user);
        let mut registry =
            wire::mirror_registry(Arc::new(Mutex::new(client))).expect("tools/list succeeds");
        registry.set_observer(Arc::clone(&timer) as Arc<dyn toolproto::CallObserver>);
        Mirror {
            registry,
            timer,
            agent: ReactAgent::new(profile(), prompt),
        }
    }

    /// Run one task and return what the agent and the timer saw.
    pub fn run(&self, spec: &TaskSpec, seed: u64) -> TaskRun {
        self.timer.drain();
        let started = Instant::now();
        let trace = self.agent.run(&self.registry, spec, seed);
        let wall_ns = started.elapsed().as_nanos() as u64;
        TaskRun {
            trace,
            calls: self.timer.drain(),
            wall_ns,
        }
    }
}

/// One agent task as run over the wire.
pub struct TaskRun {
    /// The agent's trace.
    pub trace: TaskTrace,
    /// The tool calls it made, timed at the mirror registry.
    pub calls: Vec<ObservedCall>,
    /// Wall time of the whole task, agent compute included.
    pub wall_ns: u64,
}

impl TaskRun {
    /// Time spent in tool calls.
    pub fn tool_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.ns).sum()
    }

    /// Fold this task into window `w` of `m`. `unit_tool` names the tool
    /// whose calls are the workload's unit; `None` makes the task itself the
    /// unit, timed as the sum of its tool calls. The window's rate clock
    /// advances by the task's time in tool calls only.
    pub fn account(&self, m: &mut Measured, unit_tool: Option<&str>, w: u32) {
        m.calls += self.calls.len() as u64;
        m.call.extend(self.calls.iter().map(|c| (w, c.ns)));
        m.tool_errors += self.calls.iter().filter(|c| c.error).count() as u64;
        if m.window_s.len() <= w as usize {
            m.window_s.resize(w as usize + 1, 0.0);
        }
        m.window_s[w as usize] += self.tool_ns() as f64 / 1e9;
        m.units += 1;
        m.units_completed += u64::from(self.trace.outcome.is_completed());
        m.tokens += self.trace.total_tokens() as u64;
        m.llm_calls += self.trace.llm_calls as u64;
        match unit_tool {
            Some(tool) => m.unit.extend(
                self.calls
                    .iter()
                    .filter(|c| c.tool == tool)
                    .map(|c| (w, c.ns)),
            ),
            None => m.unit.push((w, self.tool_ns())),
        }
    }
}

/// An agent driving an in-process surface with the served configuration,
/// wrapped so that every call is timed and its arguments and output kept;
/// plus a session on a separate database for timing the calls' SQL.
pub struct InProcess {
    registry: Registry,
    timer: Arc<CallTimer>,
    top: Arc<Recorder>,
    exec: Session,
    agent: ReactAgent,
}

impl InProcess {
    /// The surface of `user` over `db` under `policy`, with `external`
    /// tools, recording into the served telemetry `obs`; SQL is timed as
    /// `user` on `exec_db`.
    pub fn new(
        (db, exec_db): (&Database, &Database),
        user: &str,
        policy: SecurityPolicy,
        external: &Registry,
        obs: &Obs,
    ) -> InProcess {
        let timer = Arc::new(CallTimer::default());
        let base = served::in_process(db, user, policy, external, obs);
        let top = Recorder::new(true);
        let mut registry = served::timed(&base, &timer, &top);
        registry.set_observer(Arc::clone(&timer) as Arc<dyn toolproto::CallObserver>);
        InProcess {
            registry,
            timer,
            top,
            exec: exec_db.session(user).expect("user exists"),
            // Every BridgeScope surface is primed with this prompt.
            agent: ReactAgent::new(profile(), bridgescope_core::prompt::BRIDGESCOPE_PROMPT),
        }
    }
}

/// The SQL a tool call runs in the engine: the statement of a SQL tool, the
/// transaction verb of a transaction tool, or the `select` producers of a
/// proxy pipeline. Context tools run none that the benchmark can isolate.
pub fn statements(tool: &str, args: &Json) -> Vec<String> {
    match tool {
        "select" | "insert" | "update" | "delete" => args
            .get("sql")
            .and_then(Json::as_str)
            .map(|s| vec![s.to_owned()])
            .unwrap_or_default(),
        "begin" => vec!["BEGIN".into()],
        "commit" => vec!["COMMIT".into()],
        "rollback" => vec!["ROLLBACK".into()],
        "proxy" => {
            let mut out = Vec::new();
            producer_sqls(args, &mut out);
            out
        }
        _ => Vec::new(),
    }
}

fn producer_sqls(spec: &Json, out: &mut Vec<String>) {
    if let Some(obj) = spec.as_object() {
        if obj.get("tool").and_then(Json::as_str) == Some("select") {
            if let Some(sql) = spec.pointer("/args/sql").and_then(Json::as_str) {
                out.push(sql.to_owned());
            }
        }
        for v in obj.values() {
            producer_sqls(v, out);
        }
    } else if let Some(items) = spec.as_array() {
        for v in items {
            producer_sqls(v, out);
        }
    }
}

/// The per-layer metric timing `sql`'s statement kind, if it has one.
pub fn exec_metric(sql: &str) -> Option<&'static str> {
    let verb = sql.split_whitespace().next()?.to_ascii_uppercase();
    match verb.as_str() {
        "SELECT" => Some("minidb.exec_us.select"),
        "UPDATE" => Some("minidb.exec_us.update"),
        "INSERT" => Some("minidb.exec_us.insert"),
        "COMMIT" => Some("minidb.commit_us"),
        _ => None,
    }
}

fn time_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Per-layer sums over the replayed calls of a traced agent run.
#[derive(Default)]
pub struct LayerAcc {
    /// The self-time breakdown.
    pub breakdown: Breakdown,
    means: Means,
    /// Tasks whose in-process replay made different calls than the wire run.
    pub misaligned: u64,
    tasks: u64,
    prompt_tokens: u64,
    tool_calls: u64,
    rows_via_llm: u64,
    agent_self_ns: u64,
}

impl LayerAcc {
    /// Account the agent-side numbers of a wire task.
    pub fn task(&mut self, run: &TaskRun) {
        self.tasks += 1;
        self.prompt_tokens += run.trace.prompt_tokens as u64;
        self.tool_calls += run.trace.tool_calls as u64;
        self.rows_via_llm += run.trace.rows_via_llm as u64;
        self.agent_self_ns += run.wall_ns.saturating_sub(run.tool_ns());
    }

    /// Replay `spec` in process with the agent's `seed`, pair each call
    /// with the wire call of the same position, and account both. `served`
    /// holds the server-side spans of the task's wire calls, in order, and
    /// `consumers` the consumer timings recorded on the server side during
    /// the wire run of this task.
    pub fn replay(
        &mut self,
        ip: &mut InProcess,
        (spec, seed): (&TaskSpec, u64),
        wire: &TaskRun,
        served: &[ServedCall],
        consumers: &[Record],
    ) {
        ip.timer.drain();
        ip.top.drain();
        ip.agent.run(&ip.registry, spec, seed);
        ip.timer.drain();
        let top = ip.top.drain();
        let aligned = top.len() == wire.calls.len()
            && served.len() == wire.calls.len()
            && top.iter().zip(&wire.calls).all(|(r, w)| r.tool == w.tool);
        if !aligned {
            self.misaligned += 1;
            return;
        }
        for ((rec, w), spans) in top.iter().zip(&wire.calls).zip(served) {
            let (args, output) = rec.io.as_ref().expect("the top recorder keeps io");
            let sqls = statements(&rec.tool, args);
            let (mut exec_ns, mut parse_ns) = (0.0, 0.0);
            for sql in &sqls {
                let ns = time_ns(|| {
                    // Denied or failing statements are timed too: the
                    // engine does that work on the wire as well.
                    let _ = ip.exec.execute_sql(sql);
                });
                if let Some(metric) = exec_metric(sql) {
                    self.means.add(metric, ns / 1e3);
                }
                exec_ns += ns;
                parse_ns += time_ns(|| {
                    let _ = sqlkit::parse_statement(sql);
                });
            }
            let spans = ServedCall {
                consumer: consumers
                    .iter()
                    .filter(|c| c.seq == w.seq)
                    .map(|c| c.ns as f64)
                    .sum(),
                ..*spans
            };
            let (mut encode, mut decode) = (0.0, 0.0);
            if let Some(value) = output {
                let mut text = String::new();
                encode = time_ns(|| text = value.to_compact());
                decode = time_ns(|| {
                    Json::parse(&text).expect("round trip");
                });
            }
            let r = Replay {
                tool: rec.ns as f64,
                exec: exec_ns,
                parse: parse_ns,
                encode,
                decode,
            };
            self.breakdown.add(w.ns, &spans, &r);
            self.means.add_replay(&r, w.out_bytes);
            if !sqls.is_empty() {
                self.means.add("sqlkit.parse_us", parse_ns / 1e3);
            }
            if rec.tool == "proxy" {
                // The served proxy span minus its producers' engine spans
                // and its consumers.
                self.means.add(
                    "core.proxy_self_ms",
                    (spans.tool - spans.engine - spans.consumer) / 1e6,
                );
            }
        }
        for c in consumers {
            self.means.add("mltools.consumer_ms", c.ns as f64 / 1e6);
        }
    }

    /// Record the accumulated per-layer metrics.
    pub fn record(&self, layers: &mut Layers) {
        if self.misaligned > 0 {
            println!(
                "  note: {} replayed task(s) diverged from their wire run and were skipped",
                self.misaligned
            );
        }
        self.breakdown.record(layers);
        self.means.record(layers);
        let tasks = self.tasks.max(1) as f64;
        layers.set(
            "llmsim.prompt_tokens_per_task",
            self.prompt_tokens as f64 / tasks,
        );
        layers.set("llmsim.tool_calls_per_task", self.tool_calls as f64 / tasks);
        layers.set(
            "llmsim.rows_via_llm_per_task",
            self.rows_via_llm as f64 / tasks,
        );
        layers.set(
            "llmsim.agent_self_ms",
            self.agent_self_ns as f64 / tasks / 1e6,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_producers_are_found_at_any_depth() {
        let args = Json::parse(
            r#"{"target_tool":"train","tool_args":{"data":{"unit":{"target_tool":"norm",
               "tool_args":{"data":{"tool":"select","args":{"sql":"SELECT a FROM t"}}}}},
               "both":{"producers":[{"tool":"select","args":{"sql":"SELECT b FROM t"}},
               {"tool":"other","args":{"sql":"ignored"}}]}}}"#,
        )
        .unwrap();
        let mut found = statements("proxy", &args);
        found.sort();
        assert_eq!(
            found,
            vec!["SELECT a FROM t".to_owned(), "SELECT b FROM t".to_owned()]
        );
        let begin = Json::object(Vec::<(&str, Json)>::new());
        assert_eq!(statements("begin", &begin), vec!["BEGIN".to_owned()]);
        assert!(statements("get_schema", &begin).is_empty());
    }
}
