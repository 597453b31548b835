//! The multicore-CPU machine model (the paper's pthreads build).
//!
//! The CPU comparison systems run the same interpreter with POSIX threads
//! as workers. There are no warps, barriers-per-block or busy-wait
//! postboxes here; jobs are list-scheduled onto hardware threads and the
//! section time is the makespan. Handing a job to a worker and collecting
//! its result still costs (queue operations, cache-line transfers), which
//! is what `job_write`/`job_collect` price.

use crate::device::{DeviceKind, DeviceSpec};
use crate::error::SimError;
use crate::kernel::SectionReport;
use crate::stats::SimStats;
use crate::Machine;
use std::collections::BinaryHeap;

/// A running CPU "machine": the process hosting the interpreter plus its
/// worker pool.
#[derive(Debug, Clone)]
pub struct CpuMachine {
    spec: DeviceSpec,
    cycles: u64,
    host_ns: u64,
    stats: SimStats,
    running: bool,
}

impl CpuMachine {
    /// Starts the process/pool; charges process-setup overhead.
    pub fn launch(spec: DeviceSpec) -> Self {
        debug_assert_eq!(spec.kind, DeviceKind::Cpu, "CpuMachine wants a CPU spec");
        Self {
            spec,
            cycles: 0,
            host_ns: spec.launch_overhead_ns,
            stats: SimStats::default(),
            running: true,
        }
    }

    /// The device this machine models.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Hardware threads available as workers.
    pub fn worker_count(&self) -> usize {
        self.spec.sm_count as usize
    }

    /// Elapsed main-thread cycles.
    pub fn elapsed_cycles(&self) -> u64 {
        self.cycles
    }

    /// Elapsed main-thread time in nanoseconds.
    pub fn elapsed_device_ns(&self) -> f64 {
        self.spec.cycles_to_ns(self.cycles)
    }

    /// Setup/teardown overhead in nanoseconds.
    pub fn overhead_ns(&self) -> u64 {
        self.host_ns
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// `true` until [`CpuMachine::shutdown`].
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Stops the pool and charges teardown.
    pub fn shutdown(&mut self) {
        if self.running {
            self.host_ns += self.spec.teardown_ns;
            self.running = false;
        }
    }
}

impl Machine for CpuMachine {
    /// Serial main-thread compute (parse/eval/print segments).
    fn serial_compute(&mut self, cycles: u64) -> Result<(), SimError> {
        if !self.running {
            return Err(SimError::KernelStopped);
        }
        self.cycles += cycles;
        Ok(())
    }

    /// Runs one `|||` section: list-schedules `job_cycles` onto the
    /// hardware threads and charges dispatch/collection per job.
    fn parallel_section(&mut self, job_cycles: &[u64]) -> Result<SectionReport, SimError> {
        if !self.running {
            return Err(SimError::KernelStopped);
        }
        self.stats.sections += 1;
        let mut report = SectionReport::default();
        if job_cycles.is_empty() {
            return Ok(report);
        }
        let cores = self.worker_count();
        let costs = self.spec.costs;

        report.distribute_cycles = job_cycles.len() as u64 * costs.job_write;
        report.collect_cycles = job_cycles.len() as u64 * costs.job_collect;

        // Greedy list scheduling: each job goes to the earliest-free core.
        // BinaryHeap is a max-heap, so store negated finish times.
        let mut heap: BinaryHeap<std::cmp::Reverse<u64>> = (0..cores.min(job_cycles.len()))
            .map(|_| std::cmp::Reverse(0u64))
            .collect();
        let mut makespan = 0u64;
        for &j in job_cycles {
            let std::cmp::Reverse(free_at) = heap.pop().expect("non-empty pool");
            let finish = free_at + j;
            makespan = makespan.max(finish);
            heap.push(std::cmp::Reverse(finish));
        }
        report.execute_cycles = makespan;
        report.rounds = job_cycles.len().div_ceil(cores) as u32;
        report.blocks_used = cores.min(job_cycles.len()) as u32;

        self.stats.jobs_executed += job_cycles.len() as u64;
        self.stats.distribution_rounds += report.rounds as u64;
        self.cycles += report.total_cycles();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{amd_6272, intel_e5_2620};

    #[test]
    fn makespan_is_ideal_for_identical_jobs() {
        let mut m = CpuMachine::launch(amd_6272()); // 64 cores
        let r = m.parallel_section(&vec![1_000; 64]).unwrap();
        assert_eq!(r.execute_cycles, 1_000, "one job per core");
        let r2 = CpuMachine::launch(amd_6272())
            .parallel_section(&vec![1_000; 128])
            .unwrap();
        assert_eq!(r2.execute_cycles, 2_000, "two rounds");
    }

    #[test]
    fn makespan_handles_skewed_jobs() {
        let mut m = CpuMachine::launch(intel_e5_2620()); // 12 threads
                                                         // One giant job dominates.
        let mut jobs = vec![100u64; 23];
        jobs.push(1_000_000);
        let r = m.parallel_section(&jobs).unwrap();
        assert!(r.execute_cycles >= 1_000_000);
        assert!(r.execute_cycles < 1_000_000 + 400);
    }

    #[test]
    fn dispatch_cost_scales_with_jobs() {
        let mut a = CpuMachine::launch(intel_e5_2620());
        let ra = a.parallel_section(&[10; 10]).unwrap();
        let mut b = CpuMachine::launch(intel_e5_2620());
        let rb = b.parallel_section(&vec![10; 100]).unwrap();
        assert_eq!(rb.distribute_cycles, 10 * ra.distribute_cycles);
    }

    #[test]
    fn base_latency_far_below_gpus() {
        let m = CpuMachine::launch(intel_e5_2620());
        assert!(m.overhead_ns() < 5_000);
    }

    #[test]
    fn shutdown_blocks_further_sections() {
        let mut m = CpuMachine::launch(intel_e5_2620());
        m.shutdown();
        assert!(matches!(
            m.parallel_section(&[1]),
            Err(SimError::KernelStopped)
        ));
    }

    #[test]
    fn empty_section_is_free() {
        let mut m = CpuMachine::launch(amd_6272());
        let r = m.parallel_section(&[]).unwrap();
        assert_eq!(r.total_cycles(), 0);
    }
}
