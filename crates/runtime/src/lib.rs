//! # culi-runtime — CuLi's execution runtimes
//!
//! Ties the interpreter (`culi-core`) to the machine models
//! (`culi-gpu-sim`):
//!
//! * [`gpu_repl::GpuRepl`] — the paper's system: host command buffer,
//!   persistent kernel, master-thread parse/eval/print, postbox-driven
//!   `|||` sections with warp-livelock mechanics.
//! * [`cpu_repl::CpuRepl`] — the comparison systems: a modeled pthread
//!   pool (figures) and a real std::thread persistent-pool backend
//!   (functional parallelism).
//! * [`pool::WorkerPool`] — the persistent real-threads `|||` backend:
//!   warm interpreter forks synchronized incrementally through the flat
//!   postbox codec.
//! * [`scheduler::BatchScheduler`] — the backend-agnostic batch
//!   dispatcher: classification, run coalescing, barrier/drain semantics
//!   and reply re-sequencing over the [`scheduler::ExecQueue`] trait that
//!   every backend implements.
//! * [`session::Session`] — one facade over every backend.
//! * [`server::SessionServer`] — the multi-tenant layer: fair-share
//!   admission (deficit round-robin), structured backpressure, per-tenant
//!   containment/quarantine and LRU warm-fork eviction over many
//!   concurrent sessions.
//! * [`phases`] — the one command lifecycle (parse → eval → print →
//!   reply) every backend runs over the two-method
//!   [`culi_gpu_sim::Machine`] trait, and operation counts → cycles →
//!   per-phase milliseconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cpu_repl;
pub mod error;
pub mod gpu_repl;
pub mod phases;
pub mod pool;
pub mod reply;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod vfs;

pub use cache::{CacheConfig, CacheStats, CommandCache, TierStats};
pub use cpu_repl::{CpuMode, CpuRepl, CpuReplConfig};
pub use error::{Result, RuntimeError};
pub use gpu_repl::{GpuRepl, GpuReplConfig};
pub use phases::{counters_to_cycles, CommandCounters, PhaseBreakdown};
pub use pool::{ThreadedHook, WorkerPool};
pub use reply::Reply;
pub use scheduler::{BatchScheduler, ExecQueue, Verdict};
pub use server::{ServerConfig, ServerStats, SessionServer, TenantId, TenantSnapshot, TenantStats};
pub use session::{Session, TenantSessionConfig};
pub use vfs::{DirFs, VirtualFs};
