//! The served configuration every workload drives, and the observers the
//! benchmark attaches on its own side of the wire.

use crate::report::ServedCall;
use bridgescope_core::{BridgeScopeServer, SecurityPolicy};
use gate::GateConfig;
use minidb::{Database, VacuumHandle};
use obs::{AttrValue, FlightConfig, Obs, ObsConfig, SpanId, SpanRecord, TraceContext, TraceId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use toolproto::{Args, CallObserver, Json, Registry, Signature, Tool, ToolResult};
use wire::{Client, Tenancy, WireConfig, WireServer};

/// Interval of the background MVCC vacuum, as `serve` runs it.
const VACUUM_INTERVAL: Duration = Duration::from_secs(5);

/// The production-shaped telemetry handle: in memory, flight recorder on.
pub fn served_obs() -> Obs {
    Obs::with_flight(&ObsConfig::InMemory, FlightConfig::default())
}

/// The served gate: retrieval and prepared-plan caches on, no budgets.
pub fn served_gate() -> GateConfig {
    GateConfig::default().with_cache()
}

/// A freshly bound loopback server over a volatile database.
pub struct Served {
    /// The wire server.
    pub server: WireServer,
    /// The database it serves.
    pub db: Database,
    /// Its telemetry.
    pub obs: Obs,
    vacuum: VacuumHandle,
}

impl Served {
    /// Bind a server over `db` with `external` tools and the operator's
    /// base `policy` (`None` = the wire default, permissive), recording
    /// into `obs`.
    pub fn bind(
        db: Database,
        external: Registry,
        policy: Option<SecurityPolicy>,
        obs: Obs,
    ) -> Self {
        let mut tenancy = Tenancy::new(db.clone())
            .with_external(external)
            .with_gate(served_gate());
        if let Some(policy) = policy {
            tenancy = tenancy.with_base_policy(policy);
        }
        let vacuum = db.start_vacuum(VACUUM_INTERVAL);
        let server = WireServer::bind("127.0.0.1:0", tenancy, WireConfig::default(), obs.clone())
            .expect("loopback bind succeeds");
        Served {
            server,
            db,
            obs,
            vacuum,
        }
    }

    /// A client session initialized as `user`.
    pub fn connect(&self, user: &str) -> Client {
        self.session(user).0
    }

    /// A client session initialized as `user`, with the system prompt the
    /// server returned.
    pub fn session(&self, user: &str) -> (Client, String) {
        let mut client = Client::connect(self.server.local_addr()).expect("loopback connect");
        let init = client.initialize(user).expect("initialize succeeds");
        let prompt = init
            .get("prompt")
            .and_then(Json::as_str)
            .expect("initialize returns the prompt")
            .to_owned();
        (client, prompt)
    }

    /// Drain the server and stop the vacuum thread.
    pub fn shutdown(self) {
        self.server.shutdown();
        self.vacuum.stop();
    }
}

/// An in-process surface with the served gate configuration, recording
/// into the served telemetry handle `obs`, for timing the `core` layer on
/// the same inputs.
pub fn in_process(
    db: &Database,
    user: &str,
    policy: SecurityPolicy,
    external: &Registry,
    obs: &Obs,
) -> Registry {
    BridgeScopeServer::build_gated(
        db.clone(),
        user,
        policy,
        external,
        obs.clone(),
        &served_gate(),
    )
    .expect("user exists")
    .registry
}

/// The server-side timings of every tool call in `spans` whose `wire:call`
/// span started at or after `since_ns`, in start order, each with its trace
/// id. Every other span is charged to the `wire:call` span it descends
/// from through its parent links (proxy producer threads adopt their unit's
/// span, so they descend too).
pub fn served_calls(spans: &[SpanRecord], since_ns: u64) -> Vec<(u128, ServedCall)> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut calls: HashMap<u64, (u64, u128, String, ServedCall)> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "wire:call") {
        let tool = match s.attr("tool") {
            Some(AttrValue::Str(t)) => format!("tool:{t}"),
            _ => continue,
        };
        let served = ServedCall {
            call: s.duration_ns() as f64,
            ..ServedCall::default()
        };
        let trace = s.trace.map_or(0, |t| t.as_u128());
        calls.insert(s.id, (s.start_ns, trace, tool, served));
    }
    for s in spans {
        let engine = s.name == "sql:execute" || s.name.starts_with("txn:");
        if !engine && !s.name.starts_with("tool:") {
            continue;
        }
        let mut up = s.parent;
        while let Some(id) = up {
            if let Some((_, _, tool, served)) = calls.get_mut(&id) {
                let ns = s.duration_ns() as f64;
                if engine {
                    served.engine += ns;
                } else if s.name == *tool {
                    // The outermost span of the called tool is the longest.
                    served.tool = served.tool.max(ns);
                }
                break;
            }
            up = by_id.get(&id).and_then(|p| p.parent);
        }
    }
    let mut out: Vec<(u64, u128, ServedCall)> = calls
        .into_values()
        .filter(|c| c.0 >= since_ns)
        .map(|(start, trace, _, served)| (start, trace, served))
        .collect();
    out.sort_by_key(|c| c.0);
    out.into_iter().map(|(_, t, s)| (t, s)).collect()
}

/// The trace context a scripted session sends with its `n`-th call, so the
/// call's server-side spans can be found by trace id.
pub fn call_context(session: usize, n: u64) -> TraceContext {
    let id = ((session as u128 + 1) << 64) | u128::from(n + 1);
    TraceContext::new(
        TraceId::from_u128(id).expect("non-zero"),
        SpanId::from_u64(1).expect("non-zero"),
    )
}

/// Resident set size of this process in KiB (0 where `/proc` is absent).
pub fn rss_kb() -> i64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One tool call as seen at a mirror registry.
#[derive(Debug, Clone)]
pub struct ObservedCall {
    /// The call's sequence number (see [`CallTimer::seq`]).
    pub seq: u64,
    /// Tool name.
    pub tool: String,
    /// Round-trip time, client side.
    pub ns: u64,
    /// Compact-JSON size of the output (0 on error).
    pub out_bytes: usize,
    /// Rows the output reports.
    pub rows: usize,
    /// Whether the tool answered with an error.
    pub error: bool,
}

/// A benchmark-side [`CallObserver`] timing every call at a registry, so
/// an agent's own compute stays out of the tool timings. `seq` counts
/// calls begun, so [`Timed`] wrappers further in can attribute their work
/// to the call in flight.
#[derive(Default)]
pub struct CallTimer {
    open: Mutex<Vec<(u64, Instant)>>,
    calls: Mutex<Vec<ObservedCall>>,
    /// Calls begun so far.
    pub seq: AtomicU64,
}

impl CallTimer {
    /// Take the calls recorded since the last drain.
    pub fn drain(&self) -> Vec<ObservedCall> {
        std::mem::take(&mut *self.calls.lock().expect("timer lock"))
    }
}

impl CallObserver for CallTimer {
    fn begin(&self, _tool: &str, _arg_bytes: usize) -> u64 {
        let token = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.open
            .lock()
            .expect("timer lock")
            .push((token, Instant::now()));
        token
    }

    fn end(&self, token: u64, tool: &str, result: &ToolResult, out_bytes: usize) {
        let started = {
            let mut open = self.open.lock().expect("timer lock");
            let at = open
                .iter()
                .position(|(t, _)| *t == token)
                .expect("end matches a begin");
            open.swap_remove(at).1
        };
        let ns = started.elapsed().as_nanos() as u64;
        let (rows, error) = match result {
            Ok(out) => (out.rows.unwrap_or(0), false),
            Err(_) => (0, true),
        };
        self.calls.lock().expect("timer lock").push(ObservedCall {
            seq: token,
            tool: tool.to_owned(),
            ns,
            out_bytes,
            rows,
            error,
        });
    }
}

/// One invocation recorded by a [`Timed`] wrapper.
#[derive(Debug, Clone)]
pub struct Record {
    /// The enclosing call's sequence number when the invocation ran.
    pub seq: u64,
    /// Tool name.
    pub tool: String,
    /// Time inside the tool's `invoke`.
    pub ns: u64,
    /// Arguments and output, when the recorder keeps them.
    pub io: Option<(Json, Option<Json>)>,
}

/// Where [`Timed`] wrappers record.
pub struct Recorder {
    keep_io: bool,
    records: Mutex<Vec<Record>>,
}

impl Recorder {
    /// A recorder that keeps arguments and outputs (`keep_io`) or only
    /// timings.
    pub fn new(keep_io: bool) -> Arc<Recorder> {
        Arc::new(Recorder {
            keep_io,
            records: Mutex::new(Vec::new()),
        })
    }

    /// Take the records made since the last drain.
    pub fn drain(&self) -> Vec<Record> {
        std::mem::take(&mut *self.records.lock().expect("recorder lock"))
    }
}

/// A benchmark-side wrapper that times a tool's `invoke`, tagged with the
/// sequence number of the call in flight at `seq`.
pub struct Timed {
    inner: Arc<dyn Tool>,
    /// The registry the tool came from; invoking through it keeps that
    /// registry's own call observer in the timed path.
    via: Registry,
    seq: Arc<CallTimer>,
    recorder: Arc<Recorder>,
}

impl Tool for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn description(&self) -> &str {
        self.inner.description()
    }

    fn signature(&self) -> &Signature {
        self.inner.signature()
    }

    fn risk(&self) -> toolproto::Risk {
        self.inner.risk()
    }

    fn invoke(&self, args: &Args) -> ToolResult {
        let name = self.inner.name();
        let started = Instant::now();
        let result = self.via.call_validated(name, args);
        let ns = started.elapsed().as_nanos() as u64;
        let io = self.recorder.keep_io.then(|| {
            (
                Json::Object(args.clone()),
                result.as_ref().ok().map(|out| out.value.clone()),
            )
        });
        self.recorder
            .records
            .lock()
            .expect("recorder lock")
            .push(Record {
                seq: self.seq.seq.load(Ordering::Relaxed),
                tool: name.to_owned(),
                ns,
                io,
            });
        result
    }
}

/// `registry` with every tool wrapped in [`Timed`].
pub fn timed(registry: &Registry, seq: &Arc<CallTimer>, recorder: &Arc<Recorder>) -> Registry {
    let mut out = Registry::new();
    for tool in registry.iter() {
        out.register(Arc::new(Timed {
            inner: Arc::clone(tool),
            via: registry.clone(),
            seq: Arc::clone(seq),
            recorder: Arc::clone(recorder),
        }));
    }
    out
}
