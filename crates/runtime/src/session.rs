//! Backend-polymorphic session facade.
//!
//! Examples and the figure harness talk to every backend through one type:
//! submit a line, get a [`Reply`], shut down. The facade also carries the
//! base-latency measurement used for paper Fig. 14.

use crate::cpu_repl::{CpuMode, CpuRepl, CpuReplConfig};
use crate::error::Result;
use crate::gpu_repl::{GpuRepl, GpuReplConfig};
use crate::reply::Reply;
use culi_core::fault::FaultPlan;
use culi_core::InterpConfig;
use culi_gpu_sim::{DeviceKind, DeviceSpec, KernelConfig};
use std::time::Duration;

/// A running CuLi session on any backend.
// Sessions are created a handful of times per process and live on the
// stack of whoever boots them; the variant size gap (the CPU repl embeds
// its machine model inline) is not worth an indirection on every access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Session {
    /// Simulated-GPU persistent kernel.
    Gpu(GpuRepl),
    /// Modeled or real-threads CPU.
    Cpu(CpuRepl),
}

/// Containment knobs for a server-managed tenant session, fixed once at
/// admission ([`Session::tenant`]) instead of threaded through every
/// call: per-command fuel and live-heap budgets, the worker-pool
/// watchdog deadline, the worker-thread count a promoted (warm) tenant
/// gets, and an optional tenant-scoped [`FaultPlan`] (the fault
/// harness's hostile-tenant hook; [`FaultPlan::none`] in production).
#[derive(Debug, Clone)]
pub struct TenantSessionConfig {
    /// Worker threads when the tenant's pool is warm.
    pub threads: usize,
    /// Per-command fuel budget (evaluator steps).
    pub fuel_budget: u64,
    /// Live-node heap cap for the tenant's interpreter.
    pub heap_limit: usize,
    /// Node-arena capacity — tenants default far smaller than the
    /// single-session default so hundreds fit in memory.
    pub arena_capacity: usize,
    /// Worker-pool watchdog deadline for one reply take.
    pub reply_deadline: Duration,
    /// Tenant-scoped fault script; shared with the server so it can poll
    /// [`culi_core::fault::FaultSite::TenantCommand`] for this tenant.
    pub fault_plan: FaultPlan,
    /// This tenant's private reply cache
    /// ([`crate::cache::CommandCache::tenant_view`]); only its hit/miss
    /// counters are shared with the server's fleet totals. `None` (the
    /// default) disables caching for the session.
    pub cache: Option<crate::cache::CommandCache>,
}

impl Default for TenantSessionConfig {
    fn default() -> Self {
        let defaults = InterpConfig::default();
        Self {
            threads: 2,
            fuel_budget: 2_000_000,
            heap_limit: defaults.heap_limit,
            arena_capacity: 1 << 15,
            reply_deadline: Duration::from_secs(5),
            fault_plan: FaultPlan::none(),
            cache: None,
        }
    }
}

impl Session {
    /// Boots the appropriate backend for `spec` with default
    /// configuration: GPUs get the persistent kernel, CPUs the modeled
    /// pthread pool.
    pub fn for_device(spec: DeviceSpec) -> Self {
        match spec.kind {
            DeviceKind::Gpu => Self::Gpu(GpuRepl::launch(spec, GpuReplConfig::default())),
            DeviceKind::Cpu => Self::Cpu(CpuRepl::launch(spec, CpuReplConfig::default())),
        }
    }

    /// Boots a GPU session with explicit kernel switches (ablations).
    pub fn gpu_with_kernel_config(spec: DeviceSpec, kernel: KernelConfig) -> Self {
        Self::Gpu(GpuRepl::launch(
            spec,
            GpuReplConfig {
                kernel,
                ..Default::default()
            },
        ))
    }

    /// Boots a GPU session sharded across `devices` simulated devices:
    /// batched stageable runs round-robin across per-device kernels and
    /// command buffers (replies stay bit-identical to a single device;
    /// only the modeled time shards).
    pub fn gpu_sharded(spec: DeviceSpec, devices: usize) -> Self {
        Self::Gpu(GpuRepl::launch(
            spec,
            GpuReplConfig {
                device_count: devices,
                ..Default::default()
            },
        ))
    }

    /// Boots a real-threads CPU session.
    pub fn cpu_threaded(spec: DeviceSpec, threads: usize) -> Self {
        Self::Cpu(CpuRepl::launch(
            spec,
            CpuReplConfig {
                mode: CpuMode::Threaded { threads },
                ..Default::default()
            },
        ))
    }

    /// Boots a real-threads CPU session under runaway containment: a
    /// per-command fuel budget, a worker-pool watchdog `reply_deadline`,
    /// and a scripted [`FaultPlan`] (the differential fault harness's
    /// entry point; pass [`FaultPlan::none`] for just the containment).
    pub fn cpu_threaded_contained(
        spec: DeviceSpec,
        threads: usize,
        fuel_budget: u64,
        reply_deadline: Duration,
        fault_plan: FaultPlan,
    ) -> Self {
        Self::Cpu(CpuRepl::launch(
            spec,
            CpuReplConfig {
                interp: InterpConfig {
                    fuel_budget,
                    ..Default::default()
                },
                mode: CpuMode::Threaded { threads },
                reply_deadline,
                fault_plan,
                ..Default::default()
            },
        ))
    }

    /// Boots a GPU session with a scripted [`FaultPlan`] driving its
    /// reply-handshake fault injection (and a per-command fuel budget).
    pub fn gpu_faulted(spec: DeviceSpec, fuel_budget: u64, fault_plan: FaultPlan) -> Self {
        Self::Gpu(GpuRepl::launch(
            spec,
            GpuReplConfig {
                interp: InterpConfig {
                    fuel_budget,
                    ..Default::default()
                },
                fault_plan,
                ..Default::default()
            },
        ))
    }

    /// Boots a server-managed tenant session on `spec` with every
    /// containment knob from `cfg` set at admission: CPU tenants get a
    /// real-threads session whose pool stays *cold* until the server
    /// promotes them (commands route through
    /// [`Session::submit_reference`] until then), GPU tenants get their
    /// own simulated device. Used by `crate::server::SessionServer`.
    pub fn tenant(spec: DeviceSpec, cfg: &TenantSessionConfig) -> Self {
        let interp = InterpConfig {
            fuel_budget: cfg.fuel_budget,
            heap_limit: cfg.heap_limit,
            arena_capacity: cfg.arena_capacity,
            ..Default::default()
        };
        match spec.kind {
            DeviceKind::Gpu => Self::Gpu(GpuRepl::launch(
                spec,
                GpuReplConfig {
                    interp,
                    fault_plan: cfg.fault_plan.clone(),
                    cache: cfg.cache.clone(),
                    ..Default::default()
                },
            )),
            DeviceKind::Cpu => Self::Cpu(CpuRepl::launch(
                spec,
                CpuReplConfig {
                    interp,
                    mode: CpuMode::Threaded {
                        threads: cfg.threads,
                    },
                    reply_deadline: cfg.reply_deadline,
                    fault_plan: cfg.fault_plan.clone(),
                    cache: cfg.cache.clone(),
                    ..Default::default()
                },
            )),
        }
    }

    /// The device behind this session.
    pub fn spec(&self) -> DeviceSpec {
        match self {
            Self::Gpu(r) => r.spec(),
            Self::Cpu(r) => r.spec(),
        }
    }

    /// Submits one command line.
    pub fn submit(&mut self, input: &str) -> Result<Reply> {
        match self {
            Self::Gpu(r) => r.submit(input),
            Self::Cpu(r) => r.submit(input),
        }
    }

    /// Submits a stream of commands through the shared
    /// [`BatchScheduler`](crate::scheduler::BatchScheduler): every backend
    /// classifies each command with the conservative effect analysis in
    /// [`culi_core::effects`] and coalesces maximal runs of stageable
    /// `|||` commands.
    /// Real-threads CPU sessions pipeline them through the worker pool's
    /// double-buffered postboxes ([`CpuRepl::submit_batch`]); GPU
    /// sessions batch them into shared command buffers with one
    /// host↔device handshake per run, round-robined across the session's
    /// simulated devices ([`GpuRepl::submit_batch`]); modeled CPU
    /// sessions run the commands one by one.
    /// Replies always come back in input order and match a `submit` loop.
    pub fn submit_batch(&mut self, inputs: &[&str]) -> Result<Vec<Reply>> {
        match self {
            Self::Gpu(r) => r.submit_batch(inputs),
            Self::Cpu(r) => r.submit_batch(inputs),
        }
    }

    /// Submits one command through the cold route: CPU sessions evaluate
    /// on the master-side sequential reference — byte-identical replies
    /// (output, ok, counters) to the pooled path, but no pool is forked
    /// or consulted ([`CpuRepl::submit_reference`]); GPU sessions have no
    /// shared pool to avoid, so this coincides with [`Session::submit`].
    pub fn submit_reference(&mut self, input: &str) -> Result<Reply> {
        match self {
            Self::Gpu(r) => r.submit_reference(input),
            Self::Cpu(r) => r.submit_reference(input),
        }
    }

    /// Drops warm worker forks (CPU pools), returning the retained
    /// dispatch-buffer bytes freed; the next pooled submit re-warms
    /// transparently. GPU sessions hold no evictable forks (0).
    pub fn release_warm_forks(&mut self) -> usize {
        match self {
            Self::Gpu(r) => r.release_warm_forks(),
            Self::Cpu(r) => r.release_warm_forks(),
        }
    }

    /// Dispatch-buffer bytes retained by warm forks (0 when cold/GPU).
    pub fn retained_warm_bytes(&self) -> usize {
        match self {
            Self::Gpu(_) => 0,
            Self::Cpu(r) => r.retained_warm_bytes(),
        }
    }

    /// `true` while the session holds a warm forked backend.
    pub fn has_warm_forks(&self) -> bool {
        match self {
            Self::Gpu(_) => false,
            Self::Cpu(r) => r.has_warm_forks(),
        }
    }

    /// Graceful stop; returns setup+teardown in ms (the Fig. 14 quantity).
    pub fn shutdown(&mut self) -> f64 {
        match self {
            Self::Gpu(r) => r.shutdown(),
            Self::Cpu(r) => r.shutdown(),
        }
    }

    /// Base latency of `spec`: boot a scratch session, stop it, report ms.
    pub fn measure_base_latency_ms(spec: DeviceSpec) -> f64 {
        let mut s = Self::for_device(spec);
        s.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culi_gpu_sim::device::{all_devices, gtx680, intel_e5_2620};

    #[test]
    fn every_catalog_device_boots_and_evaluates() {
        for spec in all_devices() {
            let mut s = Session::for_device(spec);
            let reply = s.submit("(* 2 (+ 4 3) 6)").unwrap();
            assert_eq!(reply.output, "84", "{}", spec.name);
            s.shutdown();
        }
    }

    #[test]
    fn base_latency_reflects_device_class() {
        let gpu = Session::measure_base_latency_ms(gtx680());
        let cpu = Session::measure_base_latency_ms(intel_e5_2620());
        assert!(gpu / cpu > 10.0, "gpu {gpu} ms vs cpu {cpu} ms");
    }

    #[test]
    fn every_backend_agrees_on_batched_computed_operand_streams() {
        // The effect-classified batch path (pipelined pool on CPU,
        // coalesced command buffers on GPU) must agree with the modeled
        // reference on streams mixing stageable sections and barriers.
        let inputs = [
            "(setq c 2)",
            "(||| 3 + (1 2 3) (list c c c))",
            "(||| (+ 1 2) * (1 2 3) (4 5 6))",
            "(setq c 10)",
            "(||| 2 + (1 2) (list c c))",
        ];
        let mut outputs: Vec<Vec<String>> = Vec::new();
        for mut s in [
            Session::for_device(gtx680()),
            Session::gpu_sharded(gtx680(), 4),
            Session::for_device(intel_e5_2620()),
            Session::cpu_threaded(intel_e5_2620(), 3),
        ] {
            let replies = s.submit_batch(&inputs).unwrap();
            assert!(replies.iter().all(|r| r.ok));
            outputs.push(replies.into_iter().map(|r| r.output).collect());
            s.shutdown();
        }
        for other in &outputs[1..] {
            assert_eq!(&outputs[0], other);
        }
        assert_eq!(outputs[0][4], "(11 12)");
    }

    #[test]
    fn gpu_and_cpu_agree_on_results() {
        let prog = "(defun sq (x) (* x x))";
        let call = "(||| 5 sq (1 2 3 4 5))";
        let mut outputs = Vec::new();
        for spec in all_devices() {
            let mut s = Session::for_device(spec);
            s.submit(prog).unwrap();
            outputs.push(s.submit(call).unwrap().output);
        }
        assert!(outputs.iter().all(|o| o == "(1 4 9 16 25)"), "{outputs:?}");
    }
}
