//! The growt benchmark: three seeded workloads driven from one process
//! through the library's public map traits, each result checked against a
//! sequential reference, plus a traced run with per-layer probes.

pub mod bench;
pub mod driver;
pub mod gen;
pub mod layers;
pub mod run;
pub mod trace;
