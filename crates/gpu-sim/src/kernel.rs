//! The persistent CuLi kernel (paper §III-C/D), simulated.
//!
//! One grid of warp-sized blocks is launched once and lives until the REPL
//! terminates. Thread (0,0) is the *master*: it runs parse/eval/print and
//! distributes `|||` work through the postboxes. All other threads are
//! *workers* executing Algorithm 1: barrier → spin on the block sync flag →
//! evaluate own job if any → barrier → lane 0 resets the flag → repeat.
//!
//! ## Timing model
//!
//! The simulation is block-granular, which is exact here because the paper
//! fixes the block size to one warp: a block's threads move in lockstep
//! outside the (data-dependent) evaluation, and a warp's evaluation time is
//! the maximum over its lanes. Blocks are statically resident
//! (`block % sm_count` picks the SM, as a persistent kernel's blocks never
//! migrate); blocks sharing an SM serialize their evaluation phases, since
//! interpreter evaluation is issue-bound, giving the
//! plateau-then-linear runtime growth of paper Fig. 15.
//!
//! ## Livelock semantics
//!
//! Two configuration switches reproduce the paper's warp-divergence
//! hazards (§III-D d) as *mechanical* outcomes:
//!
//! * [`KernelConfig::mask_master_block`] **off** → any job assigned to a
//!   block-0 worker can never finish: those workers wait at
//!   `threadBlockBarrier` for the master, which never joins (it is busy
//!   being the REPL), so the master in turn spins forever on their sync
//!   flags (paper Fig. 12).
//! * [`KernelConfig::block_sync_flag`] **off** → a block whose warp holds
//!   a mix of jobbed and jobless threads livelocks: the jobless lanes
//!   busy-wait on their own `work` flags, and a pre-Volta warp executes one
//!   divergent path at a time, so the spinning group starves the group
//!   holding jobs (paper Fig. 13 / Alg. 1, "a number of workers unequal to
//!   a multiple of 32" is prohibited).

use crate::device::DeviceSpec;
use crate::error::{LivelockCause, SimError};
use crate::postbox::{JobSlot, PostboxArray};
use crate::stats::SimStats;

/// Toggleable mitigations; both default to the paper's (working) design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Disable the non-master threads of block 0 (paper Fig. 12).
    pub mask_master_block: bool,
    /// Use the per-block synchronization flag (paper Fig. 13 / Alg. 1).
    pub block_sync_flag: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            mask_master_block: true,
            block_sync_flag: true,
        }
    }
}

/// Cycle breakdown of one `|||` section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionReport {
    /// Master writing postboxes and setting block flags.
    pub distribute_cycles: u64,
    /// Worker evaluation (max over SM queues), including wake/barrier
    /// overhead.
    pub execute_cycles: u64,
    /// Master polling sync flags and collecting results.
    pub collect_cycles: u64,
    /// Distribution rounds (jobs may exceed the grid's worker count).
    pub rounds: u32,
    /// Worker blocks that received at least one job.
    pub blocks_used: u32,
}

impl SectionReport {
    /// Total device cycles the section occupied.
    pub fn total_cycles(&self) -> u64 {
        self.distribute_cycles + self.execute_cycles + self.collect_cycles
    }
}

/// The running persistent kernel.
#[derive(Debug, Clone)]
pub struct PersistentKernel {
    spec: DeviceSpec,
    config: KernelConfig,
    postboxes: PostboxArray,
    /// Device-side elapsed cycles.
    cycles: u64,
    /// Host-side overhead (launch + teardown) in nanoseconds.
    host_ns: u64,
    flag_atomics: u64,
    stats: SimStats,
    running: bool,
}

impl PersistentKernel {
    /// Launches the grid: one block per (SM × residency slot), 32 threads
    /// each, master in block 0. Charges the device's context-setup
    /// overhead.
    pub fn launch(spec: DeviceSpec, config: KernelConfig) -> Self {
        let threads = spec.grid_workers();
        Self {
            spec,
            config,
            postboxes: PostboxArray::new(threads),
            cycles: 0,
            host_ns: spec.launch_overhead_ns,
            flag_atomics: 0,
            stats: SimStats::default(),
            running: true,
        }
    }

    /// The device this kernel runs on.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The active configuration.
    pub fn config(&self) -> KernelConfig {
        self.config
    }

    /// Total blocks in the grid (including the master block).
    pub fn block_count(&self) -> u32 {
        self.spec.sm_count * self.spec.blocks_per_sm
    }

    /// Usable workers: all threads minus the master block (when masked) or
    /// minus just the master thread (when not).
    pub fn worker_count(&self) -> usize {
        let total = self.spec.grid_workers();
        if self.config.mask_master_block {
            total - self.spec.warp_size as usize
        } else {
            total - 1
        }
    }

    /// Maps a worker index to its (global block, lane).
    fn worker_position(&self, worker: usize) -> (u32, u32) {
        let ws = self.spec.warp_size as usize;
        if self.config.mask_master_block {
            let t = worker + ws; // skip block 0 entirely
            ((t / ws) as u32, (t % ws) as u32)
        } else {
            let t = worker + 1; // skip only the master thread
            ((t / ws) as u32, (t % ws) as u32)
        }
    }

    /// Master-thread serial compute (parse/eval/print segments). Advances
    /// device time; idle workers spin meanwhile (counted, not timed — they
    /// burn power, not wall clock).
    pub fn master_compute(&mut self, cycles: u64) -> Result<(), SimError> {
        if !self.running {
            return Err(SimError::KernelStopped);
        }
        self.cycles += cycles;
        let spinners = self.worker_count() as u64;
        self.stats.spin_iterations += spinners * (cycles / self.spec.costs.spin_iter.max(1));
        Ok(())
    }

    /// Runs one `|||` section: distributes `job_cycles` (one entry per
    /// job), simulates the Algorithm-1 choreography, and returns the cycle
    /// breakdown. Livelocks are detected structurally per the module
    /// documentation.
    pub fn parallel_section(&mut self, job_cycles: &[u64]) -> Result<SectionReport, SimError> {
        if !self.running {
            return Err(SimError::KernelStopped);
        }
        self.stats.sections += 1;
        let mut report = SectionReport::default();
        if job_cycles.is_empty() {
            return Ok(report);
        }
        // Volta-class devices schedule every lane independently: a spinning
        // lane no longer starves its warp siblings, and a worker parked at
        // a barrier no longer wedges the block the master lives in (the
        // runtime can use cooperative sync instead of a full-block
        // barrier). Both §III-D hazards are pre-Volta artifacts.
        let pre_volta = !self.spec.independent_thread_scheduling;
        if pre_volta && !self.config.mask_master_block {
            // The first jobs land on block-0 workers; they are parked at a
            // barrier the master never reaches.
            return Err(SimError::Livelock {
                cause: LivelockCause::MasterBlockUnmasked,
                at_cycles: self.cycles,
            });
        }

        let workers = self.worker_count();
        let costs = self.spec.costs;
        let mut touched_blocks = std::collections::BTreeSet::new();
        let mut next_job = 0usize;

        while next_job < job_cycles.len() {
            let batch = &job_cycles[next_job..(next_job + workers).min(job_cycles.len())];
            report.rounds += 1;
            self.stats.distribution_rounds += 1;

            // --- Distribution (master, serial) -------------------------
            // One postbox deposit per job; one block-flag atomic per block
            // that received work this round (paper Fig. 13: the flag fires
            // when the block is fully assigned or jobs run out).
            let mut per_block: std::collections::BTreeMap<u32, Vec<u64>> =
                std::collections::BTreeMap::new();
            for (i, &cyc) in batch.iter().enumerate() {
                let (block, lane) = self.worker_position(i);
                let thread = (block * self.spec.warp_size + lane) as usize;
                self.postboxes.deposit(
                    thread,
                    JobSlot {
                        job: (next_job + i) as u32,
                        cycles: cyc,
                    },
                );
                per_block.entry(block).or_default().push(cyc);
            }
            report.distribute_cycles += batch.len() as u64 * costs.job_write;
            if self.config.block_sync_flag {
                report.distribute_cycles += per_block.len() as u64 * costs.atomic_rmw;
                self.flag_atomics += per_block.len() as u64;
            } else if pre_volta {
                // Without the flag, a partially assigned warp livelocks:
                // its jobless lanes spin on their own `work` flags and the
                // serialized divergent path never yields to the lanes that
                // do hold jobs.
                for (&block, jobs) in &per_block {
                    let assigned = jobs.len() as u32;
                    if !assigned.is_multiple_of(self.spec.warp_size) {
                        return Err(SimError::Livelock {
                            cause: LivelockCause::PartialWarpWithoutBlockFlag { block, assigned },
                            at_cycles: self.cycles + report.distribute_cycles,
                        });
                    }
                }
            }

            // --- Execution (blocks in parallel, SMs serialize blocks) ---
            let mut per_sm: std::collections::BTreeMap<u32, u64> =
                std::collections::BTreeMap::new();
            for (&block, jobs) in &per_block {
                let lane_max = jobs.iter().copied().max().unwrap_or(0);
                // Wake: exit the spin loop (one last flag read), cross the
                // entry barrier; finish: result-write atomics happen in
                // lane-parallel, then the exit barrier and lane-0 flag
                // reset.
                let block_time = costs.spin_iter
                    + costs.barrier
                    + lane_max
                    + 2 * costs.atomic_rmw // complete(): work+sync writes
                    + costs.barrier
                    + costs.atomic_rmw; // lane-0 resets the block flag
                let sm = block % self.spec.sm_count;
                *per_sm.entry(sm).or_insert(0) += block_time;
                touched_blocks.insert(block);
                self.stats.barrier_crossings += 2 * self.spec.warp_size as u64;
                self.flag_atomics += 1; // the lane-0 flag reset
            }
            let round_exec = per_sm.values().copied().max().unwrap_or(0);
            report.execute_cycles += round_exec;

            // Workers drain their postboxes (counts the completion
            // atomics inside the array).
            for i in 0..batch.len() {
                let (block, lane) = self.worker_position(i);
                let thread = (block * self.spec.warp_size + lane) as usize;
                self.postboxes.complete(thread);
            }

            // --- Collection (master, serial) ----------------------------
            // One sync-flag poll plus one result read per job.
            for i in 0..batch.len() {
                let (block, lane) = self.worker_position(i);
                let thread = (block * self.spec.warp_size + lane) as usize;
                self.postboxes.poll_sync(thread);
            }
            report.collect_cycles += batch.len() as u64 * costs.job_collect;

            // Idle workers spun through the whole round.
            let idle = (workers - batch.len()) as u64;
            let round_cycles = report.total_cycles();
            self.stats.spin_iterations += idle * (round_cycles / costs.spin_iter.max(1));
            self.stats.jobs_executed += batch.len() as u64;
            if per_block.len() > 1 {
                self.stats.divergence_events += 1;
            }

            next_job += batch.len();
        }

        report.blocks_used = touched_blocks.len() as u32;
        self.stats.blocks_touched = self.stats.blocks_touched.max(touched_blocks.len() as u64);
        self.cycles += report.total_cycles();
        Ok(report)
    }

    /// Device-side elapsed time in cycles.
    pub fn elapsed_cycles(&self) -> u64 {
        self.cycles
    }

    /// Device-side elapsed time in nanoseconds.
    pub fn elapsed_device_ns(&self) -> f64 {
        self.spec.cycles_to_ns(self.cycles)
    }

    /// Host-side overhead (launch, and teardown once stopped) in ns.
    pub fn overhead_ns(&self) -> u64 {
        self.host_ns
    }

    /// Accumulated statistics (postbox atomics included).
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.atomic_ops = self.postboxes.atomic_ops() + self.flag_atomics;
        s
    }

    /// `true` until [`PersistentKernel::shutdown`].
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Graceful stop: master clears every postbox `active` flag (paper:
    /// "The master thread sets the active flag of all threads to 0 when it
    /// terminates"), then the host tears the context down.
    pub fn shutdown(&mut self) {
        if self.running {
            self.postboxes.deactivate_all();
            self.host_ns += self.spec.teardown_ns;
            self.running = false;
        }
    }
}

/// The master thread's serial compute is [`PersistentKernel::master_compute`].
impl crate::Machine for PersistentKernel {
    fn serial_compute(&mut self, cycles: u64) -> Result<(), SimError> {
        self.master_compute(cycles)
    }

    fn parallel_section(&mut self, job_cycles: &[u64]) -> Result<SectionReport, SimError> {
        PersistentKernel::parallel_section(self, job_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{gtx1080, tesla_c2075};

    fn kernel() -> PersistentKernel {
        PersistentKernel::launch(gtx1080(), KernelConfig::default())
    }

    #[test]
    fn launch_and_shutdown_account_base_latency() {
        let mut k = kernel();
        assert_eq!(k.overhead_ns(), gtx1080().launch_overhead_ns);
        k.shutdown();
        assert_eq!(
            k.overhead_ns(),
            gtx1080().launch_overhead_ns + gtx1080().teardown_ns
        );
        assert!(!k.is_running());
        assert!(matches!(k.master_compute(1), Err(SimError::KernelStopped)));
        assert!(matches!(
            k.parallel_section(&[1]),
            Err(SimError::KernelStopped)
        ));
    }

    #[test]
    fn empty_section_is_free() {
        let mut k = kernel();
        let r = k.parallel_section(&[]).unwrap();
        assert_eq!(r.total_cycles(), 0);
        assert_eq!(k.elapsed_cycles(), 0);
    }

    #[test]
    fn single_job_section_has_all_three_phases() {
        let mut k = kernel();
        let r = k.parallel_section(&[10_000]).unwrap();
        assert!(r.distribute_cycles > 0);
        assert!(r.execute_cycles >= 10_000);
        assert!(r.collect_cycles > 0);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.blocks_used, 1);
        assert_eq!(k.elapsed_cycles(), r.total_cycles());
    }

    #[test]
    fn execution_plateau_within_one_block() {
        // 1 job vs 32 jobs in one block: same warp, execute time equal
        // (lanes run in lockstep; time = max lane).
        let mut k1 = kernel();
        let r1 = k1.parallel_section(&[5_000]).unwrap();
        let mut k32 = kernel();
        let r32 = k32.parallel_section(&vec![5_000; 32]).unwrap();
        assert_eq!(r1.execute_cycles, r32.execute_cycles);
        assert!(
            r32.distribute_cycles > r1.distribute_cycles,
            "serial master cost grows"
        );
    }

    #[test]
    fn execution_grows_once_sms_are_oversubscribed() {
        let spec = gtx1080(); // 20 SMs
        let one_wave_jobs = 32 * spec.sm_count as usize; // 1 block per SM
        let mut a = kernel();
        let ra = a.parallel_section(&vec![5_000; one_wave_jobs]).unwrap();
        let mut b = kernel();
        let rb = b.parallel_section(&vec![5_000; 3 * one_wave_jobs]).unwrap();
        assert!(
            rb.execute_cycles >= 2 * ra.execute_cycles,
            "3 blocks per SM must serialize: {} vs {}",
            rb.execute_cycles,
            ra.execute_cycles
        );
    }

    #[test]
    fn jobs_beyond_grid_capacity_take_multiple_rounds() {
        let spec = tesla_c2075(); // 14 SMs × 8 blocks = 3584 threads
        let mut k = PersistentKernel::launch(spec, KernelConfig::default());
        let workers = k.worker_count();
        let r = k.parallel_section(&vec![1_000; workers + 1]).unwrap();
        assert_eq!(r.rounds, 2);
        assert_eq!(k.stats().jobs_executed, workers as u64 + 1);
    }

    #[test]
    fn unmasked_master_block_livelocks() {
        let cfg = KernelConfig {
            mask_master_block: false,
            ..Default::default()
        };
        let mut k = PersistentKernel::launch(gtx1080(), cfg);
        match k.parallel_section(&[100]) {
            Err(SimError::Livelock {
                cause: LivelockCause::MasterBlockUnmasked,
                ..
            }) => {}
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn partial_warp_without_block_flag_livelocks() {
        let cfg = KernelConfig {
            block_sync_flag: false,
            ..Default::default()
        };
        let mut k = PersistentKernel::launch(gtx1080(), cfg);
        // 33 jobs: one full block + one lone job in the next block.
        match k.parallel_section(&vec![100; 33]) {
            Err(SimError::Livelock {
                cause: LivelockCause::PartialWarpWithoutBlockFlag { assigned: 1, .. },
                ..
            }) => {}
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn full_warps_survive_without_block_flag() {
        // Paper: "this is no problem as long as the number of jobs is a
        // multiple of 32".
        let cfg = KernelConfig {
            block_sync_flag: false,
            ..Default::default()
        };
        let mut k = PersistentKernel::launch(gtx1080(), cfg);
        let r = k.parallel_section(&vec![100; 64]).unwrap();
        assert_eq!(r.blocks_used, 2);
    }

    #[test]
    fn block_flag_fixes_the_partial_warp() {
        let mut k = kernel();
        let r = k.parallel_section(&vec![100; 33]).unwrap();
        assert_eq!(r.blocks_used, 2);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn atomics_and_barriers_counted() {
        let mut k = kernel();
        k.parallel_section(&vec![100; 64]).unwrap();
        let s = k.stats();
        // 64 deposits × 3 + 64 completes × 2 + 64 polls × 1 = 384 postbox
        // atomics, plus 2 block flags set + 2 resets.
        assert_eq!(s.atomic_ops, 384 + 4);
        assert_eq!(s.barrier_crossings, 2 * 2 * 32);
        assert_eq!(s.jobs_executed, 64);
    }

    #[test]
    fn master_compute_spins_the_workers() {
        let mut k = kernel();
        k.master_compute(1_000_000).unwrap();
        assert_eq!(k.elapsed_cycles(), 1_000_000);
        assert!(k.stats().spin_iterations > 0);
    }

    #[test]
    fn volta_survives_both_ablations() {
        // The paper's conclusion: the new threading model removes the
        // warp-divergence hazards. On the V100-class device, both
        // mitigations can be disabled without livelock.
        use crate::device::volta_sim;
        let cfg = KernelConfig {
            mask_master_block: false,
            block_sync_flag: false,
        };
        let mut k = PersistentKernel::launch(volta_sim(), cfg);
        let r = k.parallel_section(&vec![100; 33]).unwrap();
        assert_eq!(r.rounds, 1);
        assert!(r.execute_cycles > 0);
        // And the unmasked master block's 31 workers are now usable.
        assert_eq!(k.worker_count(), volta_sim().grid_workers() - 1);
    }

    #[test]
    fn heavier_jobs_take_longer() {
        let mut light = kernel();
        let rl = light.parallel_section(&[1_000; 16]).unwrap();
        let mut heavy = kernel();
        let rh = heavy.parallel_section(&[50_000; 16]).unwrap();
        assert!(rh.execute_cycles > rl.execute_cycles);
        assert_eq!(
            rh.distribute_cycles, rl.distribute_cycles,
            "master cost is size-independent"
        );
    }
}
