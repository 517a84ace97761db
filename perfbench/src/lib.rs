//! End-to-end benchmark of the querier's view — from the post to the
//! decrypted rows — on the in-process, loopback-TCP and mixed paths, with
//! a traced run that splits each query's wall time into the layers the
//! paper's cost model names. See `README.md` for the workloads, the
//! metrics and what each one is expected to move.

pub mod oracle;
pub mod reference;
pub mod report;
pub mod trace;
pub mod workloads;
