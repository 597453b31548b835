//! # culi-gpu-sim — deterministic machine models for CuLi
//!
//! The paper ran CuLi on six NVIDIA GPUs and two x86 hosts. This crate is
//! the stand-in for that hardware: a deterministic simulation of the
//! persistent-kernel execution structure (warp-sized blocks, postbox
//! signalling, block barriers, busy-wait loops, SM scheduling) plus
//! per-device cost models that convert interpreter operation counts into
//! simulated time.
//!
//! What is *mechanical* here — not estimated:
//! * the host↔device command-buffer handshake ([`cmdbuf`], paper Figs. 8/9);
//! * the postbox protocol and its atomic traffic ([`postbox`], Figs. 10/11);
//! * the Algorithm-1 choreography, including both warp-divergence
//!   livelocks and the two mitigations that prevent them ([`kernel`],
//!   Figs. 12/13);
//! * multi-round distribution when jobs exceed the grid.
//!
//! What is *modelled*: time. Each device carries a calibrated cycle price
//! per primitive operation ([`device::CostTable`]); phase durations are
//! exact functions of exact operation counts.
//!
//! Both machines — the GPU's [`PersistentKernel`] and the CPU builds'
//! [`CpuMachine`] — implement one two-method [`Machine`] trait, so the
//! runtime prices every device through the same command lifecycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cmdbuf;
pub mod cpu;
pub mod device;
pub mod error;
pub mod kernel;
pub mod postbox;
pub mod stats;

pub use cpu::CpuMachine;
pub use device::{
    all_cpus, all_devices, all_gpus, device_by_name, Arch, CostTable, DeviceKind, DeviceSpec,
};
pub use error::{LivelockCause, SimError};
pub use kernel::{KernelConfig, PersistentKernel, SectionReport};
pub use postbox::{JobSlot, Postbox, PostboxArray};
pub use stats::SimStats;

/// What a REPL charges to a modeled device: serial master-thread compute
/// and `|||` sections. Counters are priced into cycles by the caller.
pub trait Machine {
    /// Serial master-thread compute (a parse, eval or print segment).
    fn serial_compute(&mut self, cycles: u64) -> Result<(), SimError>;

    /// Runs one `|||` section of `job_cycles` (one entry per job).
    fn parallel_section(&mut self, job_cycles: &[u64]) -> Result<SectionReport, SimError>;
}
