//! Property-based tests for the machine models.

use culi_gpu_sim::device::{amd_6272, gtx1080, intel_e5_2620, tesla_c2075};
use culi_gpu_sim::{CpuMachine, JobSlot, KernelConfig, Machine, PersistentKernel, PostboxArray};
use proptest::prelude::*;

proptest! {
    /// Section reports obey structural invariants for arbitrary job mixes.
    #[test]
    fn gpu_section_invariants(jobs in prop::collection::vec(1u64..200_000, 1..600)) {
        let spec = gtx1080();
        let mut k = PersistentKernel::launch(spec, KernelConfig::default());
        let workers = k.worker_count();
        let r = k.parallel_section(&jobs).unwrap();

        // Execution covers at least the heaviest job plus protocol floor.
        let max_job = *jobs.iter().max().unwrap();
        prop_assert!(r.execute_cycles >= max_job, "{} < {max_job}", r.execute_cycles);

        // Rounds are exactly ceil(jobs / workers).
        prop_assert_eq!(r.rounds as usize, jobs.len().div_ceil(workers));

        // Distribution is one deposit per job plus one flag per touched
        // block (lower bound: job count × job_write).
        prop_assert!(r.distribute_cycles >= jobs.len() as u64 * spec.costs.job_write);
        prop_assert_eq!(r.collect_cycles, jobs.len() as u64 * spec.costs.job_collect);

        // Blocks used fit the warp arithmetic.
        let first_round = jobs.len().min(workers);
        prop_assert!(r.blocks_used as usize >= first_round.div_ceil(32));

        // Stats agree with the workload.
        let stats = k.stats();
        prop_assert_eq!(stats.jobs_executed, jobs.len() as u64);
        prop_assert!(stats.atomic_ops >= 6 * jobs.len() as u64, "6 atomics per job minimum");
    }

    /// More/heavier jobs never reduce section time (monotonicity).
    #[test]
    fn gpu_section_monotone(jobs in prop::collection::vec(1u64..50_000, 1..200), extra in 1u64..50_000) {
        let mut a = PersistentKernel::launch(tesla_c2075(), KernelConfig::default());
        let base = a.parallel_section(&jobs).unwrap().total_cycles();
        let mut grown = jobs.clone();
        grown.push(extra);
        let mut b = PersistentKernel::launch(tesla_c2075(), KernelConfig::default());
        let bigger = b.parallel_section(&grown).unwrap().total_cycles();
        prop_assert!(bigger >= base, "{bigger} < {base}");
    }

    /// CPU list scheduling: makespan is bounded below by max(job) and
    /// sum/cores, and above by the greedy 2-approximation bound.
    #[test]
    fn cpu_makespan_bounds(jobs in prop::collection::vec(1u64..100_000, 1..300)) {
        for spec in [intel_e5_2620(), amd_6272()] {
            let cores = spec.sm_count as u64;
            let mut m = CpuMachine::launch(spec);
            let r = m.parallel_section(&jobs).unwrap();
            let max_job = *jobs.iter().max().unwrap();
            let total: u64 = jobs.iter().sum();
            let lower = max_job.max(total.div_ceil(cores));
            prop_assert!(r.execute_cycles >= lower, "{} < {lower}", r.execute_cycles);
            // Greedy list scheduling ≤ avg-load + max-job.
            prop_assert!(
                r.execute_cycles <= total.div_ceil(cores) + max_job,
                "{} too big", r.execute_cycles
            );
        }
    }

    /// Without the block flag, livelock occurs iff some block gets a
    /// partial warp (pre-Volta).
    #[test]
    fn partial_warp_livelock_is_exact(njobs in 1usize..2048) {
        let cfg = KernelConfig { block_sync_flag: false, ..Default::default() };
        let mut k = PersistentKernel::launch(gtx1080(), cfg);
        let workers = k.worker_count();
        let result = k.parallel_section(&vec![100; njobs]);
        // Jobs fill blocks front-to-back; a partial warp exists iff the
        // last (or only) round's job count is not a multiple of 32.
        let mut remaining = njobs;
        let mut expect_livelock = false;
        while remaining > 0 {
            let round = remaining.min(workers);
            if round % 32 != 0 {
                expect_livelock = true;
                break;
            }
            remaining -= round;
        }
        prop_assert_eq!(result.is_err(), expect_livelock, "njobs={}", njobs);
    }

    /// Postboxes never lose or duplicate jobs under arbitrary
    /// deposit/complete interleavings.
    #[test]
    fn postboxes_conserve_jobs(order in prop::collection::vec(0usize..64, 1..200)) {
        let mut arr = PostboxArray::new(64);
        let mut live = std::collections::HashSet::new();
        let mut next_job = 0u32;
        for &t in &order {
            if live.contains(&t) {
                let done = arr.complete(t).expect("live slot must hold a job");
                prop_assert!(live.remove(&t));
                prop_assert!(done.job < next_job);
            } else {
                arr.deposit(t, JobSlot { job: next_job, cycles: 1 });
                next_job += 1;
                live.insert(t);
            }
        }
        for t in 0..64 {
            prop_assert_eq!(arr.peek(t).io.is_some(), live.contains(&t));
        }
    }
}
