//! The over-the-wire perf ledger: four RESP workloads against an in-process
//! `faster_server::Server`, end-to-end and per-layer metrics, and a traced
//! run. See `README.md` for the definitions.

pub mod affinity;
pub mod client;
pub mod gen;
pub mod harness;
pub mod layers;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
