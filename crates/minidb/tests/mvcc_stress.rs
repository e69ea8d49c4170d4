//! MVCC concurrency stress gate (run by ci/check.sh).
//!
//! N writer threads × M increments against a handful of shared counter
//! rows — the canonical lost-update workload. Every increment runs as its
//! own transaction (`UPDATE … SET v = v + 1`), so any torn read, lost
//! update, or dirty merge shows up as a wrong final counter. The schedule
//! is seeded: each thread's target-row sequence comes from a deterministic
//! LCG, so the *set* of committed increments is identical on every run and
//! the final state must equal a serial replay of the same increments —
//! byte-for-byte, via [`Database::state_fingerprint`] (increments commute,
//! and updates never move row ids, so thread interleaving cannot change
//! the outcome). Assertions are interleaving-independent: the gate cannot
//! flake.
//!
//! The paged variant runs the same oracles over a 5k-row table — about 80
//! storage pages — with hot rows spread over pages far apart and a fresh
//! insert into the tail page in every transaction, so merged commits replay
//! onto pages the latest version shares with older snapshots.

use minidb::{Database, QueryResult, Value};

const SEED: u64 = 0xB01D_FACE;
const ROWS: usize = 8;
const THREADS: usize = 4;
const INCREMENTS_PER_THREAD: usize = 32;

/// Rows of the paged variant's table.
const PAGED_ROWS: usize = 5000;
/// Storage pages (of 64 slots) the paged variant's hot rows live in.
const HOT_PAGES: [usize; 4] = [0, 21, 48, 77];

/// Deterministic per-thread row schedule over `ROWS` rows.
fn schedule(thread: usize) -> Vec<usize> {
    stream(thread).map(|z| (z % ROWS as u64) as usize).collect()
}

/// Deterministic per-thread schedule for the paged variant: a row in one of
/// the hot pages, at a random offset inside the page.
fn paged_schedule(thread: usize) -> Vec<usize> {
    stream(thread)
        .map(|z| {
            let page = HOT_PAGES[(z % HOT_PAGES.len() as u64) as usize];
            page * 64 + ((z >> 8) % 64) as usize
        })
        .collect()
}

/// Id of the row thread `thread` inserts in its `i`-th transaction.
fn fresh_id(thread: usize, i: usize) -> usize {
    PAGED_ROWS + thread * INCREMENTS_PER_THREAD + i
}

/// Per-thread splitmix64 stream of `INCREMENTS_PER_THREAD` values.
fn stream(thread: usize) -> impl Iterator<Item = u64> {
    let mut x = SEED ^ ((thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..INCREMENTS_PER_THREAD).map(move |_| {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// A `counters` table with ids `0..rows`, each at row id == id.
fn counter_db(rows: usize) -> Database {
    let db = Database::new();
    let mut s = db.session("admin").unwrap();
    s.execute_sql("CREATE TABLE counters (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)")
        .unwrap();
    let ids: Vec<usize> = (0..rows).collect();
    for chunk in ids.chunks(500) {
        let values: Vec<String> = chunk.iter().map(|id| format!("({id}, 0)")).collect();
        s.execute_sql(&format!(
            "INSERT INTO counters VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    }
    db
}

/// Counter values of ids `0..rows`, in id order.
fn totals(db: &Database, rows: usize) -> Vec<i64> {
    let mut s = db.session("admin").unwrap();
    let sql = format!("SELECT v FROM counters WHERE id < {rows} ORDER BY id");
    match s.execute_sql(&sql).unwrap() {
        QueryResult::Rows { rows, .. } => rows
            .into_iter()
            .map(|r| match &r[0] {
                Value::Int(v) => *v,
                other => panic!("{other:?}"),
            })
            .collect(),
        other => panic!("{other:?}"),
    }
}

/// Concurrent autocommit increments: the engine's internal conflict-retry
/// loop must make every increment land exactly once.
#[test]
fn concurrent_autocommit_increments_lose_no_updates() {
    let db = counter_db(ROWS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session("admin").unwrap();
                for row in schedule(t) {
                    s.execute_sql(&format!("UPDATE counters SET v = v + 1 WHERE id = {row}"))
                        .unwrap();
                }
            });
        }
    });
    assert_schedule_applied(&db);
}

/// Concurrent explicit transactions: first writer wins, losers see a
/// `SerializationConflict` and retry from BEGIN — exactly the loop the
/// README prescribes for agents. Every increment must still land once.
#[test]
fn concurrent_explicit_txns_retry_conflicts_to_completion() {
    let db = counter_db(ROWS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session("admin").unwrap();
                for row in schedule(t) {
                    loop {
                        s.execute_sql("BEGIN").unwrap();
                        s.execute_sql(&format!("UPDATE counters SET v = v + 1 WHERE id = {row}"))
                            .unwrap();
                        match s.execute_sql("COMMIT") {
                            Ok(_) => break,
                            Err(e) => {
                                assert!(e.is_serialization_conflict(), "{e}");
                                // Conflict rolled the transaction back;
                                // retry it from a fresh snapshot.
                            }
                        }
                    }
                }
            });
        }
    });
    assert_schedule_applied(&db);
}

/// The shared postcondition: per-row counts match the schedule, the grand
/// total matches THREADS × INCREMENTS_PER_THREAD (lost-update freedom),
/// and the whole database fingerprint equals a serial replay of the same
/// increments on a fresh database.
fn assert_schedule_applied(db: &Database) {
    let mut expected = vec![0i64; ROWS];
    for t in 0..THREADS {
        for row in schedule(t) {
            expected[row] += 1;
        }
    }
    let got = totals(db, ROWS);
    assert_eq!(got, expected, "per-row increment counts diverged");
    assert_eq!(
        got.iter().sum::<i64>(),
        (THREADS * INCREMENTS_PER_THREAD) as i64,
        "increments lost or duplicated"
    );

    let serial = counter_db(ROWS);
    let mut s = serial.session("admin").unwrap();
    for t in 0..THREADS {
        for row in schedule(t) {
            s.execute_sql(&format!("UPDATE counters SET v = v + 1 WHERE id = {row}"))
                .unwrap();
        }
    }
    drop(s);
    assert_eq!(
        db.state_fingerprint(),
        serial.state_fingerprint(),
        "concurrent result differs from serial replay"
    );
}

/// Paged variant: explicit transactions that each bump a row on one of a
/// few hot pages spread across a 5k-row table and insert a fresh row into
/// the tail page. Disjoint rows on a shared page merge; the same row
/// conflicts and retries. No update may be lost, every insert must land
/// exactly once, and the fingerprint must equal a serial replay.
#[test]
fn paged_table_merges_lose_no_updates_or_inserts() {
    let db = counter_db(PAGED_ROWS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session("admin").unwrap();
                for (i, row) in paged_schedule(t).into_iter().enumerate() {
                    loop {
                        s.execute_sql("BEGIN").unwrap();
                        s.execute_sql(&format!("UPDATE counters SET v = v + 1 WHERE id = {row}"))
                            .unwrap();
                        s.execute_sql(&format!(
                            "INSERT INTO counters VALUES ({}, {t})",
                            fresh_id(t, i)
                        ))
                        .unwrap();
                        match s.execute_sql("COMMIT") {
                            Ok(_) => break,
                            Err(e) => assert!(e.is_serialization_conflict(), "{e}"),
                        }
                    }
                }
            });
        }
    });

    let mut expected = vec![0i64; PAGED_ROWS];
    for t in 0..THREADS {
        for row in paged_schedule(t) {
            expected[row] += 1;
        }
    }
    assert_eq!(
        totals(&db, PAGED_ROWS),
        expected,
        "per-row increment counts diverged"
    );

    // Inserts were re-allocated row ids in commit order; that order is the
    // one serial schedule whose replay must reproduce the state exactly.
    let inserted: Vec<i64> = db.with_state(|state| {
        state.data["counters"]
            .iter()
            .filter_map(|(_, row)| row[0].as_i64())
            .filter(|&id| id >= PAGED_ROWS as i64)
            .collect()
    });
    let mut sorted = inserted.clone();
    sorted.sort_unstable();
    let all: Vec<i64> = (0..THREADS)
        .flat_map(|t| (0..INCREMENTS_PER_THREAD).map(move |i| fresh_id(t, i) as i64))
        .collect();
    let mut all_sorted = all;
    all_sorted.sort_unstable();
    assert_eq!(sorted, all_sorted, "inserts lost or duplicated");

    let serial = counter_db(PAGED_ROWS);
    let mut s = serial.session("admin").unwrap();
    for t in 0..THREADS {
        for row in paged_schedule(t) {
            s.execute_sql(&format!("UPDATE counters SET v = v + 1 WHERE id = {row}"))
                .unwrap();
        }
    }
    for id in inserted {
        let thread = (id as usize - PAGED_ROWS) / INCREMENTS_PER_THREAD;
        s.execute_sql(&format!("INSERT INTO counters VALUES ({id}, {thread})"))
            .unwrap();
    }
    drop(s);
    assert_eq!(
        db.state_fingerprint(),
        serial.state_fingerprint(),
        "concurrent result differs from serial replay"
    );
}
