//! Closed-loop benchmark of the tracto job service.
//!
//! Three workloads drive the public `tracto-serve` API from one bench
//! thread each and report end-to-end metrics with tracing off
//! ([`workloads`]); a separate traced pass replays each workload's own
//! inputs through the public functions of every layer and reports
//! per-layer metrics ([`layers`]). Inputs come only from the workload
//! seed ([`schedule`]). See `README.md` beside this crate.

pub mod check;
pub mod closed_loop;
pub mod host;
pub mod layers;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod workloads;

/// Outcome of one benchmark invocation, printed as the last stdout line.
pub use report::Report;
