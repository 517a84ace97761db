//! The correctness gate: every query's decrypted rows against the
//! cleartext engine run over the provisioning union.

use tdsql_sql::ast::Query;
use tdsql_sql::engine::{execute, Database};
use tdsql_sql::value::Value;

/// Relative tolerance for floating aggregates (AVG): the bound the
/// repository documents for merge-order rounding of `f64` partials.
pub const FLOAT_REL_TOL: f64 = 1e-9;

/// Expected rows of `query` over the plaintext union, in canonical order.
pub fn expected(oracle: &Database, query: &Query) -> Vec<Vec<Value>> {
    let rows = execute(oracle, query)
        .unwrap_or_else(|e| panic!("oracle cannot evaluate the benchmark query: {e}"))
        .rows;
    canonical(rows)
}

/// Rows sorted by their rendering, so protocol output order never matters.
pub fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by_cached_key(|r| format!("{r:?}"));
    rows
}

/// Compare canonical `got` with canonical `want`. Group keys, counts and
/// every non-float cell must match exactly; floats within
/// [`FLOAT_REL_TOL`].
pub fn check(got: &[Vec<Value>], want: &[Vec<Value>]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, oracle has {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if g.len() != w.len() {
            return Err(format!("row {g:?} has a different width than {w:?}"));
        }
        for (a, b) in g.iter().zip(w) {
            let ok = match (a, b) {
                (Value::Float(x), Value::Float(y)) => {
                    (x - y).abs() / y.abs().max(1.0) < FLOAT_REL_TOL
                }
                _ => a == b,
            };
            if !ok {
                return Err(format!("row {g:?} differs from oracle row {w:?}"));
            }
        }
    }
    Ok(())
}
