//! Seeded input generation. Everything a workload sends is derived here from
//! `--seed`; the served program only ever sees the generated inputs.

use benchkit::bird::BirdExt;
use minidb::Database;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Rows in the `point_mix` accounts table.
pub const ACCOUNT_ROWS: u64 = 10_000;
/// Keys in the hot set that skewed `point_mix` transactions favour.
pub const HOT_KEYS: u64 = 4;
/// Share of `point_mix` transactions that pick a hot key.
pub const HOT_SHARE: f64 = 0.5;
/// Share of `point_mix` units that are point reads (the rest are writes).
/// Reads outnumber writes clearly, so the unit median is a read and the
/// 90th percentile a write rather than either sitting between the two.
pub const READ_SHARE: f64 = 0.75;

/// The generator for `seed`, decorrelated per `stream`.
fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `bird_read`: the gold SELECTs of the BIRD-Ext read tasks in a seeded
/// order. Session `s` of `n` starts its rotation at offset `s * len / n`.
pub fn bird_read_rotation(bench: &BirdExt, seed: u64) -> Vec<String> {
    let mut sqls: Vec<String> = bench
        .tasks
        .iter()
        .filter(|t| !t.is_write())
        .map(|t| t.spec.steps[0].gold.clone())
        .collect();
    shuffle(&mut rng(seed, 1), &mut sqls);
    sqls
}

/// `proxy_ml`: the 30 NL2ML tasks in a seeded order.
pub fn nl2ml_order(seed: u64) -> Vec<llmsim::TaskSpec> {
    let mut tasks = benchkit::nl2ml::tasks();
    shuffle(&mut rng(seed, 4), &mut tasks);
    tasks
}

/// `point_mix`: the seeded accounts table. Balances are random; every
/// counter starts at 0 so the final counters count committed increments.
pub fn build_accounts(seed: u64) -> Database {
    let db = Database::new();
    let mut s = db.session("admin").expect("admin exists");
    s.execute_sql(
        "CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner TEXT, balance INTEGER, \
         counter INTEGER)",
    )
    .expect("DDL is valid");
    let mut rng = rng(seed, 2);
    let ids: Vec<u64> = (0..ACCOUNT_ROWS).collect();
    for chunk in ids.chunks(500) {
        let values: Vec<String> = chunk
            .iter()
            .map(|id| {
                format!(
                    "({id}, 'owner{}', {}, 0)",
                    rng.gen_range(0..1_000),
                    rng.gen_range(0..100_000)
                )
            })
            .collect();
        s.execute_sql(&format!(
            "INSERT INTO accounts VALUES {}",
            values.join(", ")
        ))
        .expect("seed insert");
    }
    db
}

/// One `point_mix` unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointOp {
    /// An autocommit primary-key read.
    Read {
        /// Account id.
        key: u64,
    },
    /// BEGIN → SELECT → UPDATE (increment) → INSERT fresh key → COMMIT.
    Write {
        /// Account whose counter is incremented.
        key: u64,
        /// Balance change; unique per operation so no literal repeats.
        delta: u64,
        /// Fresh primary key inserted by the transaction.
        fresh: u64,
    },
}

impl PointOp {
    /// The tool calls of this unit, in order, as `(tool, sql)`; the
    /// transaction tools take no SQL.
    pub fn calls(&self) -> Vec<(&'static str, String)> {
        match *self {
            PointOp::Read { key } => vec![(
                "select",
                format!("SELECT id, owner, balance, counter FROM accounts WHERE id = {key}"),
            )],
            PointOp::Write { key, delta, fresh } => vec![
                ("begin", String::new()),
                (
                    "select",
                    format!("SELECT balance, counter FROM accounts WHERE id = {key}"),
                ),
                (
                    "update",
                    format!(
                        "UPDATE accounts SET counter = counter + 1, balance = balance + {delta} \
                         WHERE id = {key}"
                    ),
                ),
                (
                    "insert",
                    format!("INSERT INTO accounts VALUES ({fresh}, 'op{fresh}', {delta}, 0)"),
                ),
                ("commit", String::new()),
            ],
        }
    }
}

/// The endless seeded operation stream of one `point_mix` session. Fresh
/// keys are disjoint across sessions and from the seeded table.
#[derive(Debug, Clone)]
pub struct PointOps {
    rng: SmallRng,
    hot: Vec<u64>,
    session: u64,
    next: u64,
}

impl PointOps {
    /// The stream of `session` under `seed`.
    pub fn new(seed: u64, session: u64) -> PointOps {
        // The hot set depends on the seed only, so sessions contend on it.
        let mut hot_rng = rng(seed, 3);
        let hot = (0..HOT_KEYS)
            .map(|_| hot_rng.gen_range(0..ACCOUNT_ROWS))
            .collect();
        PointOps {
            rng: rng(seed, 100 + session),
            hot,
            session,
            next: 0,
        }
    }

    /// How many operations the stream has produced.
    pub fn produced(&self) -> u64 {
        self.next
    }
}

impl Iterator for PointOps {
    type Item = PointOp;

    fn next(&mut self) -> Option<PointOp> {
        let seq = self.next;
        self.next += 1;
        let op = if self.rng.gen_bool(READ_SHARE) {
            PointOp::Read {
                key: self.rng.gen_range(0..ACCOUNT_ROWS),
            }
        } else {
            let key = if self.rng.gen_bool(HOT_SHARE) {
                self.hot[self.rng.gen_range(0..self.hot.len())]
            } else {
                self.rng.gen_range(0..ACCOUNT_ROWS)
            };
            let fresh = 1_000_000_000 * (self.session + 1) + seq;
            PointOp::Write {
                key,
                delta: 1 + (fresh % 997) * 1_000 + self.rng.gen_range(0..1_000u64),
                fresh,
            }
        };
        Some(op)
    }
}

/// A byte rendering of every input a workload generates for `seed`, for
/// the determinism tests: same seed, same bytes.
#[cfg(test)]
pub fn fingerprint(workload: &str, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match workload {
        "bird_read" | "agent_bird" => {
            let bench = benchkit::bird::generate(seed);
            out.push_str(&bench.template.state_fingerprint());
            if workload == "bird_read" {
                out.push_str(&bird_read_rotation(&bench, seed).join("\n"));
            } else {
                for task in &bench.tasks {
                    let agent_seed = benchkit::harness::task_seed(seed, &task.spec.id);
                    for step in &task.spec.steps {
                        writeln!(out, "{agent_seed} {}", step.gold).expect("string write");
                    }
                }
            }
        }
        "point_mix" => {
            out.push_str(&build_accounts(seed).state_fingerprint());
            for session in 0..2 {
                for op in PointOps::new(seed, session).take(2_000) {
                    for (tool, sql) in op.calls() {
                        writeln!(out, "{tool} {sql}").expect("string write");
                    }
                }
            }
        }
        "proxy_ml" => {
            // The house table is fixed; the seed orders the tasks and seeds
            // the agent.
            for task in nl2ml_order(seed) {
                let agent_seed = benchkit::harness::task_seed(seed, &task.id);
                writeln!(out, "{} {agent_seed}", task.id).expect("string write");
            }
        }
        other => panic!("unknown workload {other}"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for workload in ["bird_read", "point_mix", "proxy_ml", "agent_bird"] {
            let a = fingerprint(workload, 11);
            assert_eq!(
                a,
                fingerprint(workload, 11),
                "{workload} is not deterministic"
            );
            assert_ne!(a, fingerprint(workload, 12), "{workload} ignores its seed");
        }
    }

    #[test]
    fn point_ops_are_skewed_and_keys_fresh() {
        let ops: Vec<PointOp> = PointOps::new(5, 0).take(4_000).collect();
        let writes: Vec<&PointOp> = ops
            .iter()
            .filter(|o| matches!(o, PointOp::Write { .. }))
            .collect();
        assert!(
            writes.len() > 700 && writes.len() < 1_300,
            "{}",
            writes.len()
        );
        let hot = PointOps::new(5, 1).hot;
        let hot_writes = writes
            .iter()
            .filter(|o| matches!(o, PointOp::Write { key, .. } if hot.contains(key)))
            .count();
        assert!(hot_writes * 3 > writes.len(), "hot keys are favoured");
        let mut fresh: Vec<u64> = PointOps::new(5, 0)
            .take(2_000)
            .chain(PointOps::new(5, 1).take(2_000))
            .filter_map(|o| match o {
                PointOp::Write { fresh, .. } => Some(fresh),
                PointOp::Read { .. } => None,
            })
            .collect();
        let n = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), n, "fresh keys never repeat");
        assert!(fresh.iter().all(|&k| k >= ACCOUNT_ROWS));
    }
}
