//! # culi-bench — workloads and figure regeneration for the CuLi paper
//!
//! [`workload`] generates the paper's fib(5) inputs (§IV); [`figures`]
//! reruns every figure of the evaluation on the simulated devices and
//! renders the same rows/series the paper reports. The `figures` binary is
//! the command-line entry point; the Criterion benches under `benches/`
//! measure the real-machine cost of the simulator and interpreter. The
//! `gate` binary re-measures every gated performance claim of the runtime
//! and checks it against the committed `BENCH_gate.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod jsonout;
pub mod workload;
