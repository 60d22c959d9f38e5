//! SQL front-end error paths must surface as `Err`, never a panic: the
//! server hands arbitrary client text to `sql::run`, so a panicking
//! parser or rewriter would take a connection thread down with it.

use pip::prelude::{sql, Database, SamplerConfig};

fn db() -> (Database, SamplerConfig) {
    let db = Database::new();
    let cfg = SamplerConfig::default();
    sql::run(&db, "CREATE TABLE t (a INT, x SYMBOLIC)", &cfg).unwrap();
    sql::run(
        &db,
        "INSERT INTO t VALUES (1, create_variable('Normal', 5, 1))",
        &cfg,
    )
    .unwrap();
    (db, cfg)
}

/// Assert `sql` fails with a `PipError` whose message contains `needle`.
fn expect_err(db: &Database, cfg: &SamplerConfig, sql_text: &str, needle: &str) {
    match sql::run(db, sql_text, cfg) {
        Ok(_) => panic!("expected error for: {sql_text}"),
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.to_lowercase().contains(&needle.to_lowercase()),
                "error for {sql_text:?} should mention {needle:?}, got: {msg}"
            );
        }
    }
}

#[test]
fn unterminated_string_literal() {
    let (db, cfg) = db();
    expect_err(&db, &cfg, "SELECT a FROM t WHERE a = 'oops", "unterminated");
    expect_err(
        &db,
        &cfg,
        "INSERT INTO t VALUES (1, 'dangling)",
        "unterminated",
    );
}

#[test]
fn create_variable_arity_and_argument_errors() {
    let (db, cfg) = db();
    // Too few / too many parameters for the distribution class.
    expect_err(
        &db,
        &cfg,
        "INSERT INTO t VALUES (1, create_variable('Normal'))",
        "2 parameter",
    );
    expect_err(
        &db,
        &cfg,
        "INSERT INTO t VALUES (1, create_variable('Normal', 1, 2, 3))",
        "2 parameter",
    );
    // Class name must be a string literal.
    expect_err(
        &db,
        &cfg,
        "INSERT INTO t VALUES (1, create_variable(Normal, 1, 2))",
        "class name",
    );
    // Unknown distribution class.
    expect_err(
        &db,
        &cfg,
        "INSERT INTO t VALUES (1, create_variable('NoSuchDist', 1))",
        "nosuchdist",
    );
    // Invalid parameter values are caught by the class itself.
    expect_err(
        &db,
        &cfg,
        "INSERT INTO t VALUES (1, create_variable('Normal', 0, -1))",
        "invalid parameter",
    );
}

#[test]
fn unknown_aggregate_and_function() {
    let (db, cfg) = db();
    expect_err(
        &db,
        &cfg,
        "SELECT unknown_agg(a) FROM t",
        "unknown function",
    );
    expect_err(&db, &cfg, "SELECT expected_sum() FROM t", "unexpected");
    expect_err(
        &db,
        &cfg,
        "SELECT expected_max(x, 'p') FROM t",
        "expected_max",
    );
}

#[test]
fn truncated_statements() {
    let (db, cfg) = db();
    for q in [
        "SELECT",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t GROUP BY",
        "SELECT a FROM t ORDER BY a LIMIT",
        "INSERT INTO t VALUES",
        "INSERT INTO t VALUES (1,",
        "CREATE TABLE u (",
    ] {
        assert!(sql::run(&db, q, &cfg).is_err(), "should fail: {q}");
    }
}

#[test]
fn malformed_statements_and_semantics() {
    let (db, cfg) = db();
    for q in [
        "FROB x",
        "SELECT a, FROM t",
        "SELECT a FROM ghost",
        "INSERT INTO ghost VALUES (1)",
        "INSERT INTO t VALUES (1)",        // arity mismatch
        "CREATE TABLE t (a INT)",          // duplicate table
        "CREATE TABLE u (a INT, a FLOAT)", // duplicate column
        "SELECT b FROM t",                 // unknown column
        "SELECT a FROM t ORDER BY nope",   // unknown sort key
        "SELECT expected_sum(a) FROM t GROUP BY nope",
    ] {
        assert!(sql::run(&db, q, &cfg).is_err(), "should fail: {q}");
    }
    // And the catalog is still usable afterwards.
    assert!(sql::run(&db, "SELECT a FROM t", &cfg).is_ok());
}

/// An evaluation error inside a condition atom is the query's error, as
/// it is for `conf()` on the same condition — never an empty estimate.
#[test]
fn evaluation_errors_in_conditions_surface() {
    let (db, cfg) = db();
    expect_err(
        &db,
        &cfg,
        "SELECT expected_sum(x) FROM t WHERE x / (x - x) > 1",
        "division by zero",
    );
    sql::run(&db, "CREATE TABLE u (x SYMBOLIC, s TEXT)", &cfg).unwrap();
    sql::run(
        &db,
        "INSERT INTO u VALUES (create_variable('Normal', 5, 1), 'a')",
        &cfg,
    )
    .unwrap();
    expect_err(
        &db,
        &cfg,
        "SELECT expected_sum(x) FROM u WHERE x + s > 1",
        "not numeric",
    );
}
