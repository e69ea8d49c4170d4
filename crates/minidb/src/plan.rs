//! Query planning support: execution options, predicate analysis, and the
//! plan summary the executor reports.
//!
//! The executor has two ways to run most operations — a straightforward
//! sequential path and a fast path (index probes, hash joins, parallel
//! scans). [`ExecOptions`] selects between them, [`PlanSummary`] records
//! which paths actually ran so tests and tools can assert on the choice, and
//! the analysis functions here decide *when* the fast path is sound:
//!
//! * [`equality_bindings`] finds `col = literal` conjuncts that can seed an
//!   index probe;
//! * [`choose_index`] picks the best fully-pinned index for those bindings;
//! * [`analyze_equi_join`] extracts equi-key pairs from a join's ON
//!   condition so a hash join can replace the nested loop.
//!
//! Every fast path must be *observationally identical* to the sequential
//! path — same rows, same order. Two divergences are sanctioned, both
//! shared with production engines and limited to *error surfacing*, never
//! to results:
//!
//! 1. A hash join evaluates the ON condition only for key-matching pairs,
//!    so an ON expression that would *error* on some non-matching pair
//!    surfaces that error only under the nested loop.
//! 2. A pushed-down LIMIT stops scanning once enough rows are produced, so
//!    a predicate that would *error* on a row past the limit surfaces that
//!    error only under the unpushed plan.
//!
//! The differential tests in `tests/fastpath_differential.rs` and
//! `tests/planner_differential.rs` (BIRD gold SQL) enforce this.

use crate::expr::{conjuncts, literal_value, try_resolve, ScopeCol};
use crate::schema::TableSchema;
use crate::storage::{IndexData, TableData};
use crate::value::{Key, Value};
use sqlkit::ast::{BinaryOp, Expr};
use std::collections::BTreeMap;

/// Tuning knobs for the executor's fast path. The default enables
/// everything; [`ExecOptions::sequential`] disables everything and is the
/// reference behavior the fast path is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Consult secondary indexes for equality predicates.
    pub use_indexes: bool,
    /// Replace nested-loop joins with hash joins when an equi-key exists.
    pub hash_join: bool,
    /// Fan large scans/aggregations out to scoped threads.
    pub parallel: bool,
    /// Minimum row count before a stage goes parallel; below it the
    /// threading overhead outweighs the work.
    pub parallel_threshold: usize,
    /// Upper bound on worker threads per stage.
    pub max_threads: usize,
    /// Lower SELECTs through the cost-based planner into an explicit
    /// physical operator tree (`crate::planner` + `exec::volcano`). Off =
    /// the monolithic reference pipeline in `exec::seq`.
    pub planner: bool,
    /// Allow the planner's pushdown optimizations (streaming LIMIT
    /// early-exit, ORDER BY top-k). Benchmarks disable this to measure the
    /// pushdown win; it has no effect when `planner` is off.
    pub pushdown: bool,
    /// Measure per-operator wall time during Volcano execution (`EXPLAIN
    /// ANALYZE`, slow-call profiles). Off by default: the hot path takes
    /// one branch per operator *dispatch* — not per row — so disabled
    /// profiling costs nothing measurable.
    pub profiling: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
        ExecOptions {
            use_indexes: true,
            hash_join: true,
            parallel: true,
            parallel_threshold: 4096,
            max_threads: threads,
            planner: true,
            pushdown: true,
            profiling: false,
        }
    }
}

impl ExecOptions {
    /// The reference configuration: the monolithic pipeline with sequential
    /// scans and nested-loop joins only. Differential tests compare every
    /// fast path — including every planner-chosen tree — against this.
    pub fn sequential() -> Self {
        ExecOptions {
            use_indexes: false,
            hash_join: false,
            parallel: false,
            planner: false,
            pushdown: false,
            ..ExecOptions::default()
        }
    }

    /// Number of worker threads a stage over `rows` items should use
    /// (1 = stay sequential).
    pub fn workers_for(&self, rows: usize) -> usize {
        if !self.parallel || rows < self.parallel_threshold || self.max_threads < 2 {
            1
        } else {
            // Keep every worker busy with at least half a threshold of work.
            let max_useful = rows / (self.parallel_threshold / 2).max(1);
            self.max_threads.min(max_useful).max(1)
        }
    }
}

/// How one table access was performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanPath {
    /// Full sequential scan.
    Seq {
        /// Table name.
        table: String,
        /// Live rows visited.
        rows: usize,
    },
    /// Chunked scan across scoped threads; chunk results are concatenated
    /// in row-id order, so output order matches the sequential scan.
    ParallelSeq {
        /// Table name.
        table: String,
        /// Live rows visited.
        rows: usize,
        /// Worker threads used.
        workers: usize,
    },
    /// Point lookup through a secondary index.
    IndexProbe {
        /// Table name.
        table: String,
        /// Index consulted.
        index: String,
        /// Candidate rows the probe returned (before residual filtering).
        candidates: usize,
    },
    /// The FROM item was a view, expanded recursively; its own accesses are
    /// recorded in the same summary right after this entry.
    ViewExpand {
        /// View name.
        view: String,
    },
}

/// Which algorithm joined two inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinPath {
    /// Quadratic fallback: every left row against every right row.
    NestedLoop {
        /// Binding of the joined (right) table.
        table: String,
    },
    /// Partitioned (grace) hash join on extracted equi-keys.
    HashJoin {
        /// Binding of the joined (right) table.
        table: String,
        /// Rows on the build (right) side.
        build_rows: usize,
        /// Hash partitions the build side was split into.
        partitions: usize,
    },
}

/// Record of which access paths and join algorithms a statement actually
/// used. Produced by `exec::execute_select_traced`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// Table accesses in the order they were performed.
    pub scans: Vec<ScanPath>,
    /// Joins in the order they were performed.
    pub joins: Vec<JoinPath>,
    /// The physical operator tree the planner chose, rendered one line per
    /// operator (indentation = depth). Empty when the planner did not run
    /// (sequential reference path, DML, utility statements).
    pub tree: Vec<String>,
}

impl PlanSummary {
    /// Whether an index probe served the given table.
    pub fn used_index_probe(&self, table: &str) -> bool {
        self.scans
            .iter()
            .any(|s| matches!(s, ScanPath::IndexProbe { table: t, .. } if t == table))
    }

    /// Whether any scan ran across multiple threads.
    pub fn used_parallel_scan(&self) -> bool {
        self.scans
            .iter()
            .any(|s| matches!(s, ScanPath::ParallelSeq { .. }))
    }

    /// Whether any join used the hash algorithm.
    pub fn used_hash_join(&self) -> bool {
        self.joins
            .iter()
            .any(|j| matches!(j, JoinPath::HashJoin { .. }))
    }

    /// The plan condensed to stable `(key, count)` pairs — the shape span
    /// attributes want, so executor decisions (index probes vs parallel
    /// scans vs hash joins) appear in the same trace tree as the tool call
    /// that caused them. Keys are always present, in a fixed order, so
    /// trace consumers can rely on them.
    pub fn attr_counts(&self) -> Vec<(&'static str, u64)> {
        let mut seq = 0u64;
        let mut parallel = 0u64;
        let mut probes = 0u64;
        let mut views = 0u64;
        let mut rows_scanned = 0u64;
        for scan in &self.scans {
            match scan {
                ScanPath::Seq { rows, .. } => {
                    seq += 1;
                    rows_scanned += *rows as u64;
                }
                ScanPath::ParallelSeq { rows, .. } => {
                    parallel += 1;
                    rows_scanned += *rows as u64;
                }
                ScanPath::IndexProbe { candidates, .. } => {
                    probes += 1;
                    rows_scanned += *candidates as u64;
                }
                ScanPath::ViewExpand { .. } => views += 1,
            }
        }
        let nested = self
            .joins
            .iter()
            .filter(|j| matches!(j, JoinPath::NestedLoop { .. }))
            .count() as u64;
        let hash = self
            .joins
            .iter()
            .filter(|j| matches!(j, JoinPath::HashJoin { .. }))
            .count() as u64;
        vec![
            ("plan.seq_scans", seq),
            ("plan.parallel_scans", parallel),
            ("plan.index_probes", probes),
            ("plan.view_expands", views),
            ("plan.nested_loop_joins", nested),
            ("plan.hash_joins", hash),
            ("plan.rows_scanned", rows_scanned),
        ]
    }

    /// Human-readable plan lines (EXPLAIN-style).
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for scan in &self.scans {
            lines.push(match scan {
                ScanPath::Seq { table, rows } => format!("Seq Scan on {table} ({rows} rows)"),
                ScanPath::ParallelSeq {
                    table,
                    rows,
                    workers,
                } => format!("Parallel Seq Scan on {table} ({rows} rows, {workers} workers)"),
                ScanPath::IndexProbe {
                    table,
                    index,
                    candidates,
                } => format!("Index Scan on {table} using {index} ({candidates} candidates)"),
                ScanPath::ViewExpand { view } => format!("View Expand on {view}"),
            });
        }
        for join in &self.joins {
            lines.push(match join {
                JoinPath::NestedLoop { table } => format!("Nested Loop Join with {table}"),
                JoinPath::HashJoin {
                    table,
                    build_rows,
                    partitions,
                } => format!(
                    "Hash Join with {table} (build {build_rows} rows, {partitions} partitions)"
                ),
            });
        }
        lines
    }
}

/// `col = literal` bindings from the predicate's top-level AND conjuncts,
/// keyed by column position. NULL literals are excluded (`col = NULL` never
/// matches). When a column is pinned twice the first binding wins; the full
/// predicate is still evaluated afterwards, so a contradictory second
/// binding just yields an empty result through residual filtering.
pub fn equality_bindings(
    schema: &TableSchema,
    binding: &str,
    predicate: &Expr,
) -> BTreeMap<usize, Value> {
    let mut pinned: BTreeMap<usize, Value> = BTreeMap::new();
    for conjunct in conjuncts(predicate) {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = conjunct
        else {
            continue;
        };
        let pair = match (&**left, &**right) {
            (Expr::Column(c), Expr::Literal(l)) | (Expr::Literal(l), Expr::Column(c)) => {
                Some((c, l))
            }
            _ => None,
        };
        let Some((c, l)) = pair else { continue };
        let table_matches = c
            .table
            .as_deref()
            .is_none_or(|t| t == binding || t == schema.name);
        if !table_matches {
            continue;
        }
        if let Some(pos) = schema.column_index(&c.column) {
            let value = literal_value(l);
            if !value.is_null() {
                pinned.entry(pos).or_insert(value);
            }
        }
    }
    pinned
}

/// Pick the best index fully pinned by `pinned` and build its probe key.
/// Preference order: unique before non-unique (fewer candidates), then
/// name for determinism.
pub fn choose_index<'a>(
    data: &'a TableData,
    pinned: &BTreeMap<usize, Value>,
) -> Option<(&'a str, &'a IndexData, Key)> {
    let mut best: Option<(&str, &IndexData)> = None;
    for (name, idx) in &data.indexes {
        if idx.columns.is_empty() || !idx.columns.iter().all(|c| pinned.contains_key(c)) {
            continue;
        }
        match best {
            Some((_, current)) if current.unique || !idx.unique => {}
            _ => best = Some((name, idx)),
        }
    }
    let (name, idx) = best?;
    let key = Key(idx.columns.iter().map(|c| pinned[c].clone()).collect());
    Some((name, idx, key))
}

/// Equi-join structure extracted from an ON condition.
#[derive(Debug, Clone)]
pub struct EquiJoin {
    /// Key column positions in the combined (left) scope.
    pub left_keys: Vec<usize>,
    /// Key column positions in the right table's own scope.
    pub right_keys: Vec<usize>,
    /// ON conjuncts that are not extracted equi-keys; evaluated against each
    /// candidate pair exactly as the nested loop would.
    pub residual: Vec<Expr>,
}

/// Analyze an ON condition for hash-joinability: split it into top-level
/// conjuncts and extract `left_col = right_col` pairs. Returns `None` when
/// no equi-key exists (the nested loop is the only sound plan). Conjuncts
/// that mention unknown or ambiguous columns go to the residual, where
/// evaluation reports the proper error.
pub fn analyze_equi_join(
    left_cols: &[ScopeCol],
    right_cols: &[ScopeCol],
    on: &Expr,
) -> Option<EquiJoin> {
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in conjuncts(on) {
        if let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = conjunct
        {
            if let (Expr::Column(a), Expr::Column(b)) = (&**left, &**right) {
                // A column reference must resolve on exactly one side; a name
                // visible on both sides is ambiguous in the combined scope
                // and handed to the residual for a proper error.
                let a_side = (try_resolve(left_cols, a), try_resolve(right_cols, a));
                let b_side = (try_resolve(left_cols, b), try_resolve(right_cols, b));
                let pair = match (a_side, b_side) {
                    ((Some(l), None), (None, Some(r))) | ((None, Some(r)), (Some(l), None)) => {
                        Some((l, r))
                    }
                    _ => None,
                };
                if let Some((l, r)) = pair {
                    left_keys.push(l);
                    right_keys.push(r);
                    continue;
                }
            }
        }
        residual.push(conjunct.clone());
    }
    if left_keys.is_empty() {
        None
    } else {
        Some(EquiJoin {
            left_keys,
            right_keys,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::ast::Statement;
    use sqlkit::parse_statement;

    #[test]
    fn attr_counts_cover_every_path_kind() {
        let plan = PlanSummary {
            scans: vec![
                ScanPath::Seq {
                    table: "a".into(),
                    rows: 10,
                },
                ScanPath::ParallelSeq {
                    table: "b".into(),
                    rows: 100,
                    workers: 4,
                },
                ScanPath::IndexProbe {
                    table: "c".into(),
                    index: "c_idx".into(),
                    candidates: 3,
                },
                ScanPath::ViewExpand { view: "v".into() },
            ],
            joins: vec![
                JoinPath::NestedLoop { table: "b".into() },
                JoinPath::HashJoin {
                    table: "c".into(),
                    build_rows: 3,
                    partitions: 2,
                },
            ],
            tree: Vec::new(),
        };
        let counts: std::collections::BTreeMap<_, _> = plan.attr_counts().into_iter().collect();
        assert_eq!(counts["plan.seq_scans"], 1);
        assert_eq!(counts["plan.parallel_scans"], 1);
        assert_eq!(counts["plan.index_probes"], 1);
        assert_eq!(counts["plan.view_expands"], 1);
        assert_eq!(counts["plan.nested_loop_joins"], 1);
        assert_eq!(counts["plan.hash_joins"], 1);
        assert_eq!(counts["plan.rows_scanned"], 113);
        // Keys are stable even on an empty plan.
        assert_eq!(PlanSummary::default().attr_counts().len(), 7);
    }

    fn where_of(sql: &str) -> Expr {
        match parse_statement(sql).unwrap() {
            Statement::Select(sel) => sel.where_clause.unwrap(),
            _ => panic!("expected SELECT"),
        }
    }

    fn cols(names: &[(&str, &str)]) -> Vec<ScopeCol> {
        names
            .iter()
            .map(|(b, n)| ScopeCol {
                binding: Some((*b).to_owned()),
                name: (*n).to_owned(),
            })
            .collect()
    }

    fn schema_with(names: &[&str]) -> TableSchema {
        use crate::schema::Column;
        use sqlkit::ast::TypeName;
        TableSchema {
            name: "t".into(),
            columns: names
                .iter()
                .map(|n| Column {
                    name: (*n).to_owned(),
                    ty: TypeName::Integer,
                    not_null: false,
                    unique: false,
                    default: None,
                })
                .collect(),
            primary_key: vec![],
            uniques: vec![],
            foreign_keys: vec![],
            checks: vec![],
            indexes: vec![],
        }
    }

    #[test]
    fn bindings_from_and_chain() {
        let schema = schema_with(&["a", "b", "c"]);
        let pred = where_of("SELECT * FROM t WHERE a = 1 AND t.b = 'x' AND c > 5");
        let pinned = equality_bindings(&schema, "t", &pred);
        assert_eq!(pinned.len(), 2);
        assert_eq!(pinned[&0], Value::Int(1));
        assert_eq!(pinned[&1], Value::Text("x".into()));
    }

    #[test]
    fn null_and_foreign_bindings_ignored() {
        let schema = schema_with(&["a", "b"]);
        let pred = where_of("SELECT * FROM t WHERE a = NULL AND other.b = 2");
        assert!(equality_bindings(&schema, "t", &pred).is_empty());
    }

    #[test]
    fn or_predicates_never_bind() {
        let schema = schema_with(&["a", "b"]);
        let pred = where_of("SELECT * FROM t WHERE a = 1 OR b = 2");
        assert!(equality_bindings(&schema, "t", &pred).is_empty());
    }

    #[test]
    fn equi_join_extraction_and_residual() {
        let left = cols(&[("l", "id"), ("l", "x")]);
        let right = cols(&[("r", "lid"), ("r", "y")]);
        let on = where_of("SELECT * FROM t WHERE l.id = r.lid AND r.y > 3");
        let ej = analyze_equi_join(&left, &right, &on).unwrap();
        assert_eq!(ej.left_keys, vec![0]);
        assert_eq!(ej.right_keys, vec![0]);
        assert_eq!(ej.residual.len(), 1);
    }

    #[test]
    fn non_equi_condition_yields_no_hash_plan() {
        let left = cols(&[("l", "id")]);
        let right = cols(&[("r", "lid")]);
        let on = where_of("SELECT * FROM t WHERE l.id < r.lid");
        assert!(analyze_equi_join(&left, &right, &on).is_none());
    }

    #[test]
    fn ambiguous_column_goes_to_residual() {
        // "v" exists on both sides: the conjunct must not become a key.
        let left = cols(&[("l", "id"), ("l", "v")]);
        let right = cols(&[("r", "id2"), ("r", "v")]);
        let on = where_of("SELECT * FROM t WHERE v = r.id2");
        assert!(analyze_equi_join(&left, &right, &on).is_none());
    }

    #[test]
    fn workers_scale_with_rows() {
        let opts = ExecOptions {
            parallel_threshold: 100,
            max_threads: 4,
            ..ExecOptions::default()
        };
        assert_eq!(opts.workers_for(50), 1);
        assert!(opts.workers_for(100) >= 2);
        assert_eq!(opts.workers_for(1_000_000), 4);
        assert_eq!(ExecOptions::sequential().workers_for(1_000_000), 1);
    }
}
