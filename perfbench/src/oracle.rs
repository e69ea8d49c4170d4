//! Correctness oracles. None of them reuses the code path it judges: wire
//! results are compared cell by cell with the engine's in-process values,
//! the write workload is checked against the client's own ledger of
//! committed work, and agent runs against the in-process harness.

use llmsim::{Aggregate, TaskTrace};
use minidb::{QueryResult, Value};
use std::collections::BTreeMap;
use toolproto::Json;

/// Whether a `select` result received over the wire (`{"columns": [...],
/// "rows": [[...]]}`) is exactly the in-process result: same columns, same
/// rows in the same order, every cell equal.
pub fn wire_result_matches(wire: &Json, local: &QueryResult) -> bool {
    let QueryResult::Rows { columns, rows } = local else {
        return false;
    };
    let (Some(wire_cols), Some(wire_rows)) = (
        wire.get("columns").and_then(Json::as_array),
        wire.get("rows").and_then(Json::as_array),
    ) else {
        return false;
    };
    if wire_cols.len() != columns.len()
        || wire_cols
            .iter()
            .zip(columns)
            .any(|(w, c)| w.as_str() != Some(c.as_str()))
        || wire_rows.len() != rows.len()
    {
        return false;
    }
    wire_rows.iter().zip(rows).all(|(w, row)| {
        w.as_array().is_some_and(|cells| {
            cells.len() == row.len() && cells.iter().zip(row).all(|(c, v)| cell_matches(c, v))
        })
    })
}

fn cell_matches(cell: &Json, value: &Value) -> bool {
    match value {
        Value::Null => cell.is_null(),
        Value::Int(i) => cell.as_f64() == Some(*i as f64),
        Value::Float(f) => cell.as_f64() == Some(*f),
        Value::Text(s) => cell.as_str() == Some(s.as_str()),
        Value::Bool(b) => cell.as_bool() == Some(*b),
    }
}

/// What the client knows it committed in `point_mix`: increments per key
/// and the number of inserted rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Committed increments of each account's counter.
    pub increments: BTreeMap<u64, u64>,
    /// Rows inserted by committed transactions.
    pub inserts: u64,
}

impl Ledger {
    /// Fold another session's ledger into this one.
    pub fn merge(&mut self, other: &Ledger) {
        for (key, n) in &other.increments {
            *self.increments.entry(*key).or_default() += n;
        }
        self.inserts += other.inserts;
    }
}

/// The lost-update oracle: the served table's counters must equal the
/// committed increments exactly (per key and in total), and its row count
/// the seeded rows plus the committed inserts.
/// `counters` holds every account whose counter is non-zero.
pub fn check_ledger(
    ledger: &Ledger,
    seeded_rows: u64,
    row_count: u64,
    counters: &BTreeMap<u64, u64>,
) -> Result<(), String> {
    let committed: u64 = ledger.increments.values().sum();
    let observed: u64 = counters.values().sum();
    if observed != committed {
        return Err(format!(
            "lost update: counters sum to {observed} but {committed} increments committed"
        ));
    }
    let expected_rows = seeded_rows + ledger.inserts;
    if row_count != expected_rows {
        return Err(format!(
            "row count {row_count}, expected {seeded_rows} seeded + {} inserted",
            ledger.inserts
        ));
    }
    let expected: BTreeMap<u64, u64> = ledger
        .increments
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|(k, n)| (*k, *n))
        .collect();
    if &expected != counters {
        return Err("per-key counters differ from the committed increments".into());
    }
    Ok(())
}

/// The NL2ML verdict, exactly as `benchkit::run_nl2ml` judges a task: the
/// pipeline completed and reported a finite (train) rmse.
pub fn nl2ml_correct(trace: &TaskTrace) -> bool {
    trace.outcome.is_completed()
        && trace
            .answer
            .as_ref()
            .and_then(|a| {
                a.get("rmse")
                    .or_else(|| a.get("train_rmse"))
                    .and_then(Json::as_f64)
            })
            .is_some_and(f64::is_finite)
}

/// Whether the wire run of a BIRD-Ext cell matches the in-process run:
/// same task count, completions and correct answers, and the same LLM
/// calls and tokens (the mirrored surface is byte-identical, so the agent
/// must behave identically).
pub fn same_cell(wire: &Aggregate, local: &Aggregate) -> Result<(), String> {
    let fields = [
        ("runs", wire.runs, local.runs),
        ("completed", wire.completed, local.completed),
        ("correct", wire.correct, local.correct),
        ("llm_calls", wire.llm_calls, local.llm_calls),
        ("tokens", wire.tokens, local.tokens),
    ];
    for (name, w, l) in fields {
        if w != l {
            return Err(format!("{name}: wire {w} vs in-process {l}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim::Outcome;

    fn local() -> QueryResult {
        QueryResult::Rows {
            columns: vec!["id".into(), "name".into(), "score".into()],
            rows: vec![
                vec![Value::Int(1), Value::Text("a".into()), Value::Float(0.5)],
                vec![Value::Int(2), Value::Text("b".into()), Value::Null],
            ],
        }
    }

    fn wire(rows: Json) -> Json {
        Json::object([
            (
                "columns",
                Json::array(["id", "name", "score"].map(Json::str)),
            ),
            ("rows", rows),
        ])
    }

    fn row(id: f64, name: &str, score: Json) -> Json {
        Json::array([Json::num(id), Json::str(name), score])
    }

    #[test]
    fn wire_oracle_accepts_the_exact_result_and_rejects_a_flipped_row() {
        let exact = wire(Json::array([
            row(1.0, "a", Json::num(0.5)),
            row(2.0, "b", Json::Null),
        ]));
        assert!(wire_result_matches(&exact, &local()));
        let flipped = wire(Json::array([
            row(2.0, "b", Json::Null),
            row(1.0, "a", Json::num(0.5)),
        ]));
        assert!(!wire_result_matches(&flipped, &local()));
        let changed = wire(Json::array([
            row(1.0, "a", Json::num(0.5)),
            row(2.0, "c", Json::Null),
        ]));
        assert!(!wire_result_matches(&changed, &local()));
        let short = wire(Json::array([row(1.0, "a", Json::num(0.5))]));
        assert!(!wire_result_matches(&short, &local()));
    }

    #[test]
    fn ledger_oracle_rejects_one_increment_too_few() {
        let mut ledger = Ledger::default();
        ledger.increments.insert(7, 3);
        ledger.increments.insert(9, 1);
        ledger.inserts = 4;
        let counters: BTreeMap<u64, u64> = [(7, 3), (9, 1)].into();
        assert_eq!(check_ledger(&ledger, 100, 104, &counters), Ok(()));
        let lost: BTreeMap<u64, u64> = [(7, 2), (9, 1)].into();
        assert!(check_ledger(&ledger, 100, 104, &lost).is_err());
        assert!(check_ledger(&ledger, 100, 103, &counters).is_err());
        let moved: BTreeMap<u64, u64> = [(7, 4)].into();
        assert!(check_ledger(&ledger, 100, 104, &moved).is_err());
    }

    #[test]
    fn nl2ml_oracle_rejects_a_nan_rmse() {
        let mut trace = TaskTrace::new("t");
        trace.outcome = Outcome::Completed;
        trace.answer = Some(Json::object([("rmse", Json::num(1.25))]));
        assert!(nl2ml_correct(&trace));
        trace.answer = Some(Json::object([("rmse", Json::num(f64::NAN))]));
        assert!(!nl2ml_correct(&trace));
        trace.answer = Some(Json::object([("train_rmse", Json::num(2.0))]));
        assert!(nl2ml_correct(&trace));
        trace.outcome = Outcome::ContextOverflow;
        assert!(!nl2ml_correct(&trace));
    }

    #[test]
    fn cell_oracle_rejects_a_differing_aggregate() {
        let a = Aggregate {
            runs: 10,
            completed: 9,
            correct: 8,
            llm_calls: 33,
            tokens: 5_000,
            ..Aggregate::default()
        };
        assert_eq!(same_cell(&a, &a.clone()), Ok(()));
        let fewer_correct = Aggregate {
            correct: 7,
            ..a.clone()
        };
        assert!(same_cell(&fewer_correct, &a).is_err());
        let more_tokens = Aggregate {
            tokens: 5_001,
            ..a.clone()
        };
        assert!(same_cell(&more_tokens, &a).is_err());
    }
}
