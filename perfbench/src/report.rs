//! What a run measured, how it becomes the reported metrics, and the
//! per-layer self-time breakdown of a traced run.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use toolproto::Json;

/// The metric definitions: `BENCHMARK.json` at the repository root is the
/// single source of names and units.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// The benchmark's own settings: the served configuration and workload
/// definitions in words, and the reconciliation tolerance.
const CONFIG: &str = include_str!("../config.json");

fn parsed(text: &str, what: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{what} is not valid JSON: {e}"))
}

/// `(name, unit)` of every metric in the `section` list of
/// `BENCHMARK.json` (`end_to_end` or `per_layer`).
pub fn defined_metrics(section: &str) -> Vec<(String, String)> {
    parsed(DEFINITION, "BENCHMARK.json")
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{section}' list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("metric without '{k}' in '{section}'"))
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The largest share by which the per-layer self times may miss the
/// end-to-end call time (`config.json`, `reconcile_tolerance`).
pub fn reconcile_tolerance() -> f64 {
    parsed(CONFIG, "config.json")
        .get("reconcile_tolerance")
        .and_then(Json::as_f64)
        .expect("config.json states reconcile_tolerance")
}

/// Fewest set-ups a run times.
const SETUP_MIN: usize = 7;
/// Most set-ups a run times.
const SETUP_MAX: usize = 200;
/// Wall time after which no further set-up starts once `SETUP_MIN` ran.
/// A cheap set-up (a few milliseconds) is repeated until this much time is
/// spent, so its median rests on enough samples to be steady.
const SETUP_BUDGET_S: f64 = 1.5;

/// CPU time used so far by every thread of this process, in seconds.
/// Unlike wall time it leaves out time the host gave to other guests
/// (hypervisor steal) and time threads spent waiting to be scheduled.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime writes one timespec through the pointer, which
    // points to a live, writable Timespec laid out as the C struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Run `setup` repeatedly (at least `SETUP_MIN` times, then until
/// `SETUP_BUDGET_S` seconds of wall time are spent or `SETUP_MAX` set-ups
/// ran), tearing down all but the last result, and return the median CPU
/// time of a set-up in seconds, the number of set-ups and the kept result.
pub fn median_setup<T>(
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (f64, usize, T) {
    let mut cpu = Vec::new();
    let mut wall = 0.0;
    let mut kept = None;
    while cpu.len() < SETUP_MIN || (cpu.len() < SETUP_MAX && wall < SETUP_BUDGET_S) {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let started = Instant::now();
        let cpu_started = process_cpu_s();
        kept = Some(setup());
        cpu.push(process_cpu_s() - cpu_started);
        wall += started.elapsed().as_secs_f64();
    }
    let median = stats::median(&cpu).expect("at least one set-up");
    (median, cpu.len(), kept.expect("at least one set-up"))
}

/// Windows a timed phase is split into. Every time metric is computed per
/// window and reported as the median over windows, so a burst of
/// interference from outside the benchmark moves at most a minority of them.
pub const WINDOWS: usize = 5;

/// The window a sample that ended `elapsed` into a phase of `seconds`
/// belongs to (samples past the end count in the last window).
pub fn window_of(elapsed: Duration, seconds: f64) -> u32 {
    let w = (elapsed.as_secs_f64() / seconds * WINDOWS as f64) as usize;
    w.min(WINDOWS - 1) as u32
}

/// Window lengths of a scripted phase planned for `seconds` that took
/// `elapsed` seconds: equal windows, the last one absorbing the overrun.
pub fn wall_windows(elapsed: f64, seconds: f64) -> Vec<f64> {
    let len = seconds / WINDOWS as f64;
    let mut out = vec![len; WINDOWS];
    out[WINDOWS - 1] = (elapsed - len * (WINDOWS - 1) as f64).max(1e-9);
    out
}

/// Raw measurements of one timed phase.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Tool calls attempted.
    pub calls: u64,
    /// Calls or units that failed beyond the workload's tolerance
    /// (transport errors, unexpected tool errors, exhausted retries).
    pub failed: u64,
    /// Calls answered with a tool error (conflicts and denials included).
    pub tool_errors: u64,
    /// Per-call latency samples as `(window, ns)`.
    pub call: Vec<(u32, u64)>,
    /// Per-unit latency samples as `(window, ns)`; a unit is a query, a
    /// transaction, a proxy pipeline or an agent task, by workload.
    pub unit: Vec<(u32, u64)>,
    /// Seconds each window's rates are taken over: wall time for the
    /// scripted workloads, time in tool calls for the agent workloads.
    pub window_s: Vec<f64>,
    /// Units attempted.
    pub units: u64,
    /// Units completed.
    pub units_completed: u64,
    /// Rows returned to the client, or moved tool to tool by the proxy.
    pub rows: u64,
    /// Tokens spent (agent workloads) or carried by requests and responses.
    pub tokens: u64,
    /// LLM calls (agent workloads) or tool calls (scripted workloads).
    pub llm_calls: u64,
    /// Resident-set growth of the process over the phase, in KiB.
    pub rss_delta_kb: i64,
}

impl Measured {
    /// Fold a concurrent session's measurements into this one: counts and
    /// samples add, windows cover the same wall time.
    pub fn merge(&mut self, other: Measured) {
        self.calls += other.calls;
        self.failed += other.failed;
        self.tool_errors += other.tool_errors;
        self.call.extend(other.call);
        self.unit.extend(other.unit);
        self.units += other.units;
        self.units_completed += other.units_completed;
        self.rows += other.rows;
        self.tokens += other.tokens;
        self.llm_calls += other.llm_calls;
        if self.window_s.len() < other.window_s.len() {
            self.window_s.resize(other.window_s.len(), 0.0);
        }
        for (mine, theirs) in self.window_s.iter_mut().zip(other.window_s) {
            *mine = mine.max(theirs);
        }
    }

    /// The median over windows of `per_window(samples of the window,
    /// window seconds)`, skipping windows without samples; with the total
    /// sample count.
    fn windowed(
        &self,
        samples: &[(u32, u64)],
        per_window: impl Fn(&[f64], f64) -> f64,
    ) -> (f64, usize) {
        let mut by_window = vec![Vec::new(); self.window_s.len()];
        for &(w, ns) in samples {
            by_window[w as usize].push(ns as f64);
        }
        let values: Vec<f64> = by_window
            .iter()
            .zip(&self.window_s)
            .filter(|(v, s)| !v.is_empty() && **s > 0.0)
            .map(|(v, s)| per_window(v, *s))
            .collect();
        (stats::median(&values).unwrap_or(0.0), samples.len())
    }
}

/// A reported value with the sample count behind it (`None` for values
/// that are not quantiles).
pub type Reported = BTreeMap<String, (f64, Option<usize>)>;

/// The end-to-end metrics of a measured phase. Rates and quantiles are
/// medians over the phase's windows of the per-window value.
pub fn end_to_end(m: &Measured, setup_s: f64) -> Reported {
    let per = |x: u64, n: u64| x as f64 / n.max(1) as f64;
    let quantile = |samples: &[(u32, u64)], q: f64, scale: f64| {
        let (v, n) = m.windowed(samples, |s, _| stats::quantile(s, q).unwrap_or(0.0) / scale);
        (v, Some(n))
    };
    let (calls_per_s, _) = m.windowed(&m.call, |s, secs| s.len() as f64 / secs);
    let mut out = Reported::new();
    let mut put = |k: &str, v: (f64, Option<usize>)| {
        out.insert(k.to_owned(), v);
    };
    put("setup_s", (setup_s, None));
    put("calls_per_s", (calls_per_s, None));
    put("call_p50_us", quantile(&m.call, 0.50, 1e3));
    put("call_p95_us", quantile(&m.call, 0.95, 1e3));
    put("unit_p50_ms", quantile(&m.unit, 0.50, 1e6));
    put("unit_p90_ms", quantile(&m.unit, 0.90, 1e6));
    put(
        "rows_moved_per_s",
        (per(m.rows, m.calls) * calls_per_s, None),
    );
    put("tokens_per_task", (per(m.tokens, m.units), None));
    put("llm_calls_per_task", (per(m.llm_calls, m.units), None));
    put("completion_rate", (per(m.units_completed, m.units), None));
    put("ok_ratio", (1.0 - per(m.tool_errors, m.calls), None));
    put(
        "rss_kb_per_kcall",
        (m.rss_delta_kb as f64 / (m.calls.max(1) as f64 / 1e3), None),
    );
    out
}

/// In-process timings of one call's input, layer by layer (nanoseconds;
/// medians when the input was replayed several times).
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `registry.call` on an in-process gated surface.
    pub tool: f64,
    /// `Session::execute_sql` of the SQL the call runs.
    pub exec: f64,
    /// `parse_statement` of that SQL.
    pub parse: f64,
    /// `Json::to_compact` of the response payload.
    pub encode: f64,
    /// `Json::parse` of the response payload.
    pub decode: f64,
}

/// Server-side timings of one wire call, read from the served telemetry
/// (nanoseconds): the same call the client timed, measured independently
/// of the in-process replays.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServedCall {
    /// The `wire:call` span: the server worker's whole handling of the call.
    pub call: f64,
    /// The `tool:{name}` span of the called tool.
    pub tool: f64,
    /// The engine spans under the call (`sql:execute`, `txn:*`).
    pub engine: f64,
    /// External ML consumers the call ran, timed by server-side wrappers.
    pub consumer: f64,
}

/// The self-time layers of a wire call, outermost first.
pub const LAYERS: [&str; 6] = ["wire", "toolproto", "core", "mltools", "minidb", "sqlkit"];

/// Per-layer self times summed over the calls of a traced run, and the
/// agreement between the in-process replays and the served spans.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    calls: u64,
    /// Timed calls whose served spans were not found.
    unmatched: u64,
    wire_ns: f64,
    selves: [f64; 6],
    tool_replay: f64,
    tool_served: f64,
    exec_replay: f64,
    exec_served: f64,
}

impl Breakdown {
    /// Account one wire call that took `wire_ns` at the client, whose
    /// server-side spans are `s` and whose input replayed as `r`.
    ///
    /// The outer layers' self times come from the served spans of the call
    /// itself: `wire` is the round trip minus the server's `wire:call` span
    /// and the response's JSON work, `core` is that span minus its engine
    /// spans and consumers, `minidb` the engine spans minus parsing. Only
    /// parsing and JSON come from the replay. A negative difference counts
    /// as zero.
    pub fn add(&mut self, wire_ns: u64, s: &ServedCall, r: &Replay) {
        let w = wire_ns as f64;
        let json = r.encode + r.decode;
        let raw = [
            w - s.call - json,
            json,
            s.call - s.engine - s.consumer,
            s.consumer,
            s.engine - r.parse,
            r.parse,
        ];
        for (sum, v) in self.selves.iter_mut().zip(raw) {
            *sum += v.max(0.0);
        }
        self.calls += 1;
        self.wire_ns += w;
        self.tool_replay += r.tool;
        self.tool_served += s.tool;
        self.exec_replay += r.exec;
        self.exec_served += s.engine;
    }

    /// Count `n` timed calls whose served spans were not found.
    pub fn add_unmatched(&mut self, n: u64) {
        self.unmatched += n;
    }

    /// Calls accounted.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Timed calls whose served spans were not found.
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }

    /// `|Σ self − wire| / wire`: the layers' self times against the client
    /// round trip. The served spans and the client clock are independent
    /// measurements, so a call paired with the wrong spans, or whose server
    /// side outlasts its round trip, leaves a clipped negative self time
    /// and shows here.
    pub fn gap(&self) -> f64 {
        let sum: f64 = self.selves.iter().sum();
        (sum - self.wire_ns).abs() / self.wire_ns.max(1.0)
    }

    /// `|replay − served| / served` for the tool call: the in-process
    /// `core.tool_us` against the served `tool:{name}` spans of the same
    /// calls. Reported, not checked: a replay runs alone on one warm
    /// thread, a served call on a pool worker beside the other sessions.
    pub fn replay_gap(&self) -> f64 {
        (self.tool_replay - self.tool_served).abs() / self.tool_served.max(1.0)
    }

    /// Record the breakdown's per-layer metrics into `layers`.
    pub fn record(&self, layers: &mut Layers) {
        let n = self.calls.max(1) as f64;
        layers.set("wire.call_us", self.wire_ns / n / 1e3);
        layers.set("wire.self_us", self.selves[0] / n / 1e3);
        layers.set("core.self_us", self.selves[2] / n / 1e3);
        layers.set("minidb.self_us", self.selves[4] / n / 1e3);
        layers.set("trace.reconcile_gap", self.gap());
        layers.set("trace.replay_gap", self.replay_gap());
    }

    /// The self-time table: one row per layer with its mean per call and
    /// share of the wire call, then the replay-against-served lines.
    pub fn table(&self, tolerance: f64) -> String {
        let n = self.calls.max(1) as f64;
        let us = |ns: f64| ns / n / 1e3;
        let total = us(self.wire_ns);
        let mut out = format!(
            "{:<10} {:>12} {:>7}   (mean per call over {} calls)\n",
            "layer", "self_us", "share", self.calls
        );
        for (name, sum) in LAYERS.iter().zip(self.selves) {
            let share = 100.0 * us(sum) / total.max(1e-9);
            writeln!(out, "{name:<10} {:>12.2} {share:>6.1}%", us(sum)).expect("string write");
        }
        let sum = us(self.selves.iter().sum());
        let verdict = if self.gap() <= tolerance && self.unmatched == 0 {
            "ok"
        } else {
            "FAILED"
        };
        writeln!(
            out,
            "{:<10} {sum:>12.2} vs wire.call_us {total:.2}: gap {:.2}% (tolerance {:.0}%), \
             {} calls without served spans: {verdict}",
            "sum",
            100.0 * self.gap(),
            100.0 * tolerance,
            self.unmatched
        )
        .expect("string write");
        let mut agree = |what: &str, replay: f64, served: f64| {
            let gap = 100.0 * (replay - served).abs() / served.max(1.0);
            writeln!(
                out,
                "{what}: in process {:.2} us vs served spans {:.2} us per call ({gap:.1}% apart)",
                us(replay),
                us(served)
            )
            .expect("string write");
        };
        agree("core tool call", self.tool_replay, self.tool_served);
        if self.exec_served > 0.0 {
            agree("minidb engine ", self.exec_replay, self.exec_served);
        }
        out
    }
}

/// Per-layer metric values of a traced run, by name. Layers a workload
/// does not exercise stay at 0.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    /// Set metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }
}

/// Running means of per-layer metrics, by name.
#[derive(Debug, Default)]
pub struct Means(BTreeMap<&'static str, (f64, u64)>);

impl Means {
    /// Add one observation of `metric`.
    pub fn add(&mut self, metric: &'static str, value: f64) {
        let e = self.0.entry(metric).or_default();
        e.0 += value;
        e.1 += 1;
    }

    /// Add the in-process timings of one replayed call whose response was
    /// `response_bytes` long.
    pub fn add_replay(&mut self, r: &Replay, response_bytes: usize) {
        self.add("wire.response_bytes", response_bytes as f64);
        self.add("core.tool_us", r.tool / 1e3);
        self.add("toolproto.encode_us", r.encode / 1e3);
        self.add("toolproto.parse_us", r.decode / 1e3);
    }

    /// Record every mean into `layers`.
    pub fn record(&self, layers: &mut Layers) {
        for (metric, (sum, n)) in &self.0 {
            layers.set(metric, sum / (*n).max(1) as f64);
        }
    }
}

/// `hits / (hits + misses)` of the gate cache (`gate.cache{tool,hit}`)
/// over the tools that pass `tool`.
pub fn gate_hit_ratio(snapshot: &obs::MetricsSnapshot, tool: impl Fn(&str) -> bool) -> f64 {
    let count = |hit: &str| -> u64 {
        snapshot
            .labeled_counters
            .iter()
            .filter(|c| {
                let label = |k: &str| {
                    c.labels
                        .iter()
                        .find(|(n, _)| n == k)
                        .map(|(_, v)| v.as_str())
                };
                c.name == "gate.cache"
                    && label("tool").is_some_and(&tool)
                    && label("hit") == Some(hit)
            })
            .map(|c| c.value)
            .sum()
    };
    let (hits, misses) = (count("true"), count("false"));
    hits as f64 / (hits + misses).max(1) as f64
}

/// The telemetry-derived per-layer metrics every traced run reports.
pub fn telemetry_layers(obs: &obs::Obs, tasks: u64, layers: &mut Layers) {
    let snapshot = obs.snapshot();
    let m = &snapshot.metrics;
    let tool_calls = m.counter("tool.calls").max(1) as f64;
    layers.set("gate.plan_hit_ratio", gate_hit_ratio(m, |t| t == "plan"));
    layers.set(
        "gate.retrieval_hit_ratio",
        gate_hit_ratio(m, |t| {
            matches!(t, "get_schema" | "get_object" | "get_value")
        }),
    );
    layers.set(
        "gate.denials_per_task",
        m.counter("tool.denied") as f64 / tasks.max(1) as f64,
    );
    layers.set(
        "obs.spans_per_call",
        snapshot.spans.len() as f64 / tool_calls,
    );
    let units = m.counter("proxy.units");
    if units > 0 {
        layers.set(
            "core.proxy_rows_per_unit",
            m.counter("proxy.rows_moved") as f64 / units as f64,
        );
    }
}

/// Print `values` (a metric map) as the benchmark's last line: a JSON
/// object with `correct`, `attempted`, `failed` and every metric of the
/// `section` list of `BENCHMARK.json`, in its order and with its unit.
pub fn result_line(
    section: &str,
    values: &BTreeMap<String, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics = defined_metrics(section)
        .into_iter()
        .map(|(name, unit)| {
            let value = *values
                .get(&name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (
                name,
                Json::object([("value", Json::num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect::<BTreeMap<String, Json>>();
    Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted.max(1) as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Object(metrics)),
    ])
    .to_compact()
}

/// Human-readable metric lines: `name value unit (n=samples)`.
pub fn render(section: &str, values: &Reported) -> String {
    let mut out = String::new();
    for (name, unit) in defined_metrics(section) {
        if let Some((v, n)) = values.get(&name) {
            let count = n.map(|n| format!(" (n={n})")).unwrap_or_default();
            writeln!(out, "  {name:<28} {v:>14.4} {unit}{count}").expect("string write");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_parse_and_settings_exist() {
        let e2e = defined_metrics("end_to_end");
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        let m = end_to_end(&Measured::default(), 1.0);
        for (name, _) in &e2e {
            assert!(
                m.contains_key(name),
                "end-to-end metric {name} is not computed"
            );
        }
        assert!(!defined_metrics("per_layer").is_empty());
        let tol = reconcile_tolerance();
        assert!(tol > 0.0 && tol < 1.0);
    }

    #[test]
    fn time_metrics_are_medians_over_windows() {
        let mut m = Measured {
            window_s: vec![1.0, 1.0, 1.0],
            rss_delta_kb: 244,
            ..Measured::default()
        };
        m.call.extend((0..10).map(|_| (0, 1_000_000)));
        m.call.extend((0..12).map(|_| (1, 2_000_000)));
        // A burst of slow calls confined to one window moves one window.
        m.call.extend((0..100).map(|_| (2, 100_000_000)));
        m.calls = m.call.len() as u64;
        let r = end_to_end(&m, 0.5);
        assert_eq!(r["calls_per_s"].0, 12.0);
        assert_eq!(r["call_p50_us"], (2_000.0, Some(122)));
        assert_eq!(r["rss_kb_per_kcall"].0, 2_000.0);
        assert_eq!(r["setup_s"].0, 0.5);
        assert_eq!(window_of(Duration::from_secs(9), 10.0), 4);
        assert_eq!(window_of(Duration::from_secs(11), 10.0), 4);
        assert_eq!(wall_windows(10.5, 10.0), vec![2.0, 2.0, 2.0, 2.0, 2.5]);
    }

    #[test]
    fn cheap_set_ups_are_repeated_until_the_cap() {
        let mut made = 0;
        let mut torn_down = 0;
        let (median, count, kept) = median_setup(
            || {
                made += 1;
                made
            },
            |_| torn_down += 1,
        );
        assert_eq!(count, SETUP_MAX);
        assert_eq!(kept, SETUP_MAX);
        assert_eq!(torn_down, SETUP_MAX - 1);
        assert!((0.0..0.01).contains(&median));
    }

    #[test]
    fn breakdown_takes_outer_layers_from_served_spans() {
        let r = Replay {
            tool: 600.0,
            exec: 400.0,
            parse: 50.0,
            encode: 20.0,
            decode: 30.0,
        };
        let s = ServedCall {
            call: 700.0,
            tool: 600.0,
            engine: 450.0,
            consumer: 0.0,
        };
        let mut b = Breakdown::default();
        b.add(1_000, &s, &r);
        // wire 1000-700-50, toolproto 50, core 700-450, minidb 450-50, sqlkit 50.
        assert_eq!(b.selves, [250.0, 50.0, 250.0, 0.0, 400.0, 50.0]);
        assert!(b.gap() < 1e-12);
        // A server span longer than the client round trip cannot be.
        let mut late = Breakdown::default();
        late.add(500, &s, &r);
        assert!(late.gap() > 0.1);
        // A replay that misses the served tool span is reported only.
        let slow = Replay { tool: 900.0, ..r };
        let mut replayed = Breakdown::default();
        replayed.add(1_000, &s, &slow);
        assert!((replayed.replay_gap() - 0.5).abs() < 1e-12);
        assert!(replayed.gap() < 1e-12);
    }
}
