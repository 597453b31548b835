//! # culi-perfbench — end-to-end and per-layer benchmark of the CuLi runtime
//!
//! Three seeded workloads (`serve-light`, `pool-fib`, `gpu-paper`) drive
//! the runtime's public API from one process. An untraced run reports the
//! end-to-end metrics; a traced run (`--trace 1`) reports per-layer
//! metrics by timing calls into each layer's public functions from this
//! crate. See `README.md` in this directory for every workload and metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod gen;
pub mod layers;
pub mod report;
