//! `perfbench`: the repository benchmark for `dvs_admitd` and
//! `dvs_routerd`. See `perfbench/README.md` for the workloads, the
//! metrics and how to run it.

pub mod check;
pub mod report;
pub mod run;
pub mod server;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;
