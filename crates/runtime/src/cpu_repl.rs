//! The CPU read–eval–print loops (the paper's comparison systems).
//!
//! Two backends share one type:
//!
//! * **Modeled** — the same staged pipeline as the GPU session, but timed
//!   by a [`CpuMachine`] (list-scheduled pthread workers, no warps, no
//!   postbox spinning). This is the backend behind the CPU series of
//!   Figs. 14–18.
//! * **Threaded** — `|||` sections really run on OS threads: a
//!   persistent [`ThreadedHook`] worker pool (see [`crate::pool`]) keeps
//!   warm interpreter forks alive across sections and commands,
//!   synchronizing them incrementally through the flat postbox codec.
//!   This backend proves the interpreter's parallel semantics on real
//!   hardware and reports wall-clock time. [`CpuRepl::submit_batch`]
//!   additionally *pipelines* a command stream through the pool's
//!   double-buffered postboxes (see below).
//!
//! Both modes run every command through the one lifecycle in
//! [`crate::phases`] that the GPU session runs too: parse, evaluate,
//! print, reply. Only the `|||` hook differs: the shared modeled hook over
//! the [`CpuMachine`], the persistent pool, or the master-side sequential
//! reference that the scheduler's fallback and the session server's cold
//! route use.
//!
//! # Pipelined command batches
//!
//! A synchronous `submit` pays one full postbox rendezvous per `|||`
//! section: encode, wake every worker, sleep until every reply. When the
//! caller hands over a whole command *stream*, most of that latency can
//! be overlapped: [`CpuRepl::submit_batch`] routes the stream through the
//! shared [`crate::scheduler::BatchScheduler`], with this type
//! implementing the [`ExecQueue`] staging hooks. One rule decides what
//! stages: a command is stageable when it is a top-level `(||| …)` whose
//! operands are all provably **pure** under the conservative effect
//! analysis in [`culi_core::effects`] — literals, symbol reads, and
//! known-pure-builtin trees such as `(list g g)`, computed worker counts,
//! or conditionals over globals. The section is prepared into the pool's
//! double buffers and the scheduler moves straight on to parsing and
//! staging the next command, collecting replies in order as the pipeline
//! fills. Any other command — defines, `setq`s, operands invoking user
//! forms or I/O, parse errors — acts as a barrier: the scheduler drains
//! the pipeline, then the command runs through the ordinary synchronous
//! path. Staging a pure-operand section early is invisible because
//! nothing in flight can mutate the state its operands read. Observable
//! behaviour (replies, error text, per-command [`CommandCounters`]) is
//! identical to a `submit` loop; the equivalence is property-tested and
//! the staging path reuses [`culi_core::builtins::prepare_section`] plus a
//! charge-exact mirror of the evaluator's dispatch so the meter cannot
//! drift (the classifier itself is charge-free). The optional command
//! cache rides the same classification step, through the batch cache
//! policy in [`crate::cache`] that the GPU session shares.

use crate::cache::{BatchCache, Classified, CommandCache};
use crate::error::{Result, RuntimeError};
use crate::phases::{eval_forms, CommandCounters, Evaluated, Master};
use crate::pool::{ThreadedHook, WorkerPool};
use crate::reply::Reply;
use crate::scheduler::{BatchScheduler, ExecQueue, Verdict};
use culi_core::cost::Counters;
use culi_core::eval::ParallelHook;
use culi_core::fault::FaultPlan;
use culi_core::{CuliError, ErrorCode, Interp, InterpConfig, NodeId};
use culi_gpu_sim::{CpuMachine, DeviceSpec};
use std::time::Duration;

/// How `|||` sections execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuMode {
    /// Deterministic cost-model timing (figures).
    Modeled,
    /// Real OS threads in a persistent worker pool (functional
    /// parallelism; wall-clock timing).
    Threaded {
        /// Worker thread count.
        threads: usize,
    },
}

/// Configuration for a CPU session.
#[derive(Debug, Clone)]
pub struct CpuReplConfig {
    /// Interpreter limits.
    pub interp: InterpConfig,
    /// Execution mode.
    pub mode: CpuMode,
    /// Host-side file services exposed to device code.
    pub host_io: Option<culi_core::hostio::HostIoHandle>,
    /// Worker-pool watchdog: how long one reply take may block before
    /// the seat is declared hung and detached (Threaded mode).
    pub reply_deadline: Duration,
    /// Deterministic fault script handed to the worker pool (empty in
    /// production; the differential fault harness scripts it).
    pub fault_plan: FaultPlan,
    /// Structural-hash reply cache ([`crate::cache`]): `None` (the
    /// default) leaves every path uncached; `Some` serves repeated pure
    /// commands of [`CpuRepl::submit_batch`] streams from the reply tier.
    /// Replies served from cache are bit-identical to the uncached run
    /// (the differential harness runs a cache-on arm).
    pub cache: Option<CommandCache>,
}

impl Default for CpuReplConfig {
    fn default() -> Self {
        Self {
            interp: InterpConfig::default(),
            mode: CpuMode::Modeled,
            host_io: None,
            reply_deadline: WorkerPool::DEFAULT_REPLY_DEADLINE,
            fault_plan: FaultPlan::none(),
            cache: None,
        }
    }
}

/// A live CuLi session on a (modeled or real) CPU.
#[derive(Debug)]
pub struct CpuRepl {
    interp: Interp,
    machine: CpuMachine,
    config: CpuReplConfig,
    /// Persistent real-threads backend (Threaded mode only; the worker
    /// pool inside survives across commands).
    threaded: Option<ThreadedHook>,
    /// Reused per-job cycle scratch for the modeled backend.
    scratch_cycles: Vec<u64>,
    /// Staged-but-undispatched job trees: kept as GC roots while
    /// in-flight sections of *earlier* commands are collected (their
    /// between-command GC must not sweep them).
    batch_roots: Vec<NodeId>,
    /// A drained barrier command's parsed forms, rooted from
    /// classification until its synchronous execution.
    barrier_roots: Vec<NodeId>,
    /// Reused concatenation buffer for the two root sets.
    gc_scratch: Vec<NodeId>,
    /// Reply slots written off by an infrastructure failure, awaiting
    /// the scheduler's sequential fallback ([`ExecQueue::take_failed`]).
    degraded_slots: Vec<usize>,
    /// Batch classification and the command cache's per-batch state.
    batch_cache: BatchCache,
}

/// A pipelined command whose section is staged but not yet collected.
#[derive(Debug)]
struct PendingCommand {
    /// Index into the batch's reply vector.
    slot: usize,
    /// Wall clock at parse start.
    wall_start: std::time::Instant,
    /// Parse-phase counters (already machine-accounted).
    parse: Counters,
    /// Master-side eval counters spent staging (header eval, job build,
    /// encode-side dispatch).
    eval_stage: Counters,
}

impl CpuRepl {
    /// Boots a CPU session for `spec` (one of the catalog's CPU devices).
    pub fn launch(spec: DeviceSpec, config: CpuReplConfig) -> Self {
        let mut interp = Interp::new(config.interp.clone());
        interp.host_io = config.host_io.clone();
        Self {
            interp,
            machine: CpuMachine::launch(spec),
            config,
            threaded: None,
            scratch_cycles: Vec::new(),
            batch_roots: Vec::new(),
            barrier_roots: Vec::new(),
            gc_scratch: Vec::new(),
            degraded_slots: Vec::new(),
            batch_cache: BatchCache::new(),
        }
    }

    /// The device this session models.
    pub fn spec(&self) -> DeviceSpec {
        *self.machine.spec()
    }

    /// Direct access to the interpreter (tests/diagnostics).
    pub fn interp_mut(&mut self) -> &mut Interp {
        &mut self.interp
    }

    /// Submits one command line.
    pub fn submit(&mut self, input: &str) -> Result<Reply> {
        self.submit_inner(input, false)
    }

    /// Submits one command forced through the master-side sequential
    /// reference, regardless of mode: no worker pool is consulted (or
    /// lazily forked), yet the reply — output, ok flag, counters — is
    /// byte-identical to what the pooled path would produce (the
    /// invariant `run_jobs_sequential_reference` pins). The session
    /// server routes *cold* tenants through this so hundreds of mostly
    /// idle sessions never each pay a pool fork; a tenant's replies are
    /// indistinguishable across the cold and warm routes.
    pub fn submit_reference(&mut self, input: &str) -> Result<Reply> {
        self.submit_inner(input, true)
    }

    /// Drops the session's warm worker pool, returning the dispatch-buffer
    /// bytes that were retained. The next pooled submit transparently
    /// re-forks via [`ThreadedHook::pool_mut`] — eviction is invisible to
    /// the tenant beyond re-warm latency. No-op (returns 0) while cold.
    pub fn release_warm_forks(&mut self) -> usize {
        let freed = self.retained_warm_bytes();
        self.threaded = None;
        freed
    }

    /// Bytes of dispatch-buffer capacity retained by this session's warm
    /// backends (0 while cold) — the unit the session server's eviction
    /// budget counts in.
    pub fn retained_warm_bytes(&self) -> usize {
        self.threaded
            .as_ref()
            .map_or(0, ThreadedHook::retained_buffer_bytes)
    }

    /// `true` while the session holds a warm (forked) parallel backend.
    pub fn has_warm_forks(&self) -> bool {
        self.threaded.as_ref().is_some_and(ThreadedHook::is_warm)
    }

    /// [`CpuRepl::submit`] body. With `reference` set, evaluation is
    /// forced through the master-side [`SequentialReferenceHook`]
    /// regardless of mode — the scheduler's degradation fallback, which
    /// must not depend on the (possibly lost) worker pool yet must
    /// produce replies byte-identical to it.
    fn submit_inner(&mut self, input: &str, reference: bool) -> Result<Reply> {
        if !self.machine.is_running() {
            return Err(RuntimeError::SessionClosed);
        }
        let wall_start = std::time::Instant::now();
        let (parsed, parse) = self.master().parse(input)?;
        match parsed {
            Ok(forms) => self.finish_submit(&forms, parse, wall_start, reference),
            Err(error) => Ok(self.master().fail(error, parse_only(parse))),
        }
    }

    /// Evaluate-and-print half of [`CpuRepl::submit`], shared with the
    /// barrier path of [`CpuRepl::submit_batch`] (which has already
    /// parsed and machine-accounted the command).
    fn finish_submit(
        &mut self,
        forms: &[NodeId],
        parse: Counters,
        wall_start: std::time::Instant,
        reference: bool,
    ) -> Result<Reply> {
        // Containment: every command evaluates under the session's fuel
        // budget, armed fresh here (workers re-arm per job themselves).
        self.interp.meter.arm_fuel(self.config.interp.fuel_budget);
        let evaluated = if !reference && self.config.mode == CpuMode::Modeled {
            self.master().eval_modeled(forms, parse)?
        } else {
            // `master_jobs` is the slice of `jobs` that was metered on the
            // master interpreter (and must therefore be subtracted back out
            // of its total): everything for the sequential reference, only
            // degraded-section fallbacks for the real-threads pool.
            let (value, total, jobs, master_jobs) = if reference {
                let mut hook = SequentialReferenceHook::default();
                let (value, total) = eval_forms(&mut self.interp, &mut hook, forms);
                (value, total, hook.jobs, hook.jobs)
            } else {
                // The hook (and its worker pool) persists across commands:
                // workers stay warm and are synchronized incrementally.
                let hook = threaded_hook(&mut self.threaded, &self.config);
                let (value, total) = eval_forms(&mut self.interp, hook, forms);
                // Sections the hook degraded to the master (seat loss
                // mid-barrier) were metered on the master interpreter;
                // fold them into the job charges like any other section.
                let degraded = hook.take_degraded_jobs();
                let mut jobs = hook.take_job_counters();
                jobs.add(&degraded);
                (value, total, jobs, degraded)
            };
            Evaluated {
                value,
                counters: CommandCounters {
                    parse,
                    eval_master: total.delta_since(&master_jobs),
                    jobs,
                    print: Counters::default(),
                },
                sections: Vec::new(),
            }
        };
        self.finish(evaluated, wall_start)
    }

    /// Submits a stream of commands through the shared
    /// [`BatchScheduler`], pipelining consecutive stageable `|||`
    /// commands (Threaded mode: coalesced multi-section postbox
    /// dispatches with up to [`WorkerPool::PIPELINE_DEPTH`] runs in
    /// flight; Modeled mode falls back to a `submit` loop). Replies come
    /// back in input order and match a `submit` loop exactly.
    pub fn submit_batch(&mut self, inputs: &[&str]) -> Result<Vec<Reply>> {
        if matches!(self.config.mode, CpuMode::Modeled) {
            return inputs.iter().map(|s| self.submit(s)).collect();
        }
        if !self.machine.is_running() {
            return Err(RuntimeError::SessionClosed);
        }
        // Stale roots can only be left behind by a batch aborted on a
        // hard (machine/device) error.
        self.batch_roots.clear();
        self.barrier_roots.clear();
        self.batch_cache.begin_batch();
        BatchScheduler::submit_batch(self, inputs)
    }

    /// Evaluates a classified top-level section command through the same
    /// dispatch charges and job construction as the recursive evaluator
    /// ([`culi_core::eval::charge_symbol_head_dispatch`] +
    /// [`culi_core::builtins::prepare_section`]) and returns the pooled
    /// job buffer, ready to stage. Meter-identical to `eval` reaching the
    /// `|||` builtin (the differential harness asserts this).
    fn prepare_classified_section(&mut self, form: NodeId) -> culi_core::Result<Vec<NodeId>> {
        let interp = &mut self.interp;
        let global = interp.global;
        let mut args = interp.take_node_buf();
        let dispatched =
            culi_core::eval::charge_symbol_head_dispatch(interp, form, global, &mut args);
        if let Err(e) = dispatched {
            interp.put_node_buf(args);
            return Err(e);
        }
        let hook = threaded_hook(&mut self.threaded, &self.config);
        let prepared = culi_core::builtins::prepare_section(interp, hook, &args, global, 0);
        interp.put_node_buf(args);
        prepared
    }

    /// Collects the oldest pool-staged command: gather its section's
    /// replies, then the shared finish path.
    fn collect_staged(&mut self, cmd: PendingCommand) -> Result<(usize, Reply)> {
        let hook = self
            .threaded
            .as_mut()
            .expect("a staged command implies a live threaded hook");
        let pool = hook.pool_mut(&self.interp);
        let mut results = self.interp.take_node_buf();
        let m = self.interp.meter.snapshot();
        let outcome = pool.collect_next(&mut self.interp, &mut results);
        let finished = match outcome {
            Ok(()) => culi_core::builtins::finish_section(&mut self.interp, &results),
            Err(e) => Err(e),
        };
        self.interp.put_node_buf(results);
        let mut eval_master = cmd.eval_stage;
        eval_master.add(&self.interp.meter.snapshot().delta_since(&m));
        let jobs = hook.take_job_counters();
        let value = match finished {
            // Infrastructure failure (seat lost to a panic, hang, or
            // garbled reply) — not a program error. Surface it to the
            // scheduler, which re-runs the command on the sequential
            // fallback (and charges it there) instead of replying.
            Err(e) if e.code() == ErrorCode::Device => return Err(RuntimeError::Lisp(e)),
            finished => finished.map(Some),
        };
        let evaluated = Evaluated {
            value,
            counters: CommandCounters {
                parse: cmd.parse,
                eval_master,
                jobs,
                print: Counters::default(),
            },
            sections: Vec::new(),
        };
        let reply = self.finish(evaluated, cmd.wall_start)?;
        self.batch_cache
            .store(self.config.cache.as_ref(), &self.interp, cmd.slot, &reply);
        Ok((cmd.slot, reply))
    }

    /// The shared tail ([`Master::finish`]); successes carry their
    /// wall-clock time.
    fn finish(&mut self, evaluated: Evaluated, wall_start: std::time::Instant) -> Result<Reply> {
        let overhead = self.spec().command_overhead_cycles;
        let mut reply = self.master().finish(evaluated, overhead)?;
        if reply.ok {
            reply.wall_ns = wall_start.elapsed().as_nanos() as u64;
        }
        Ok(reply)
    }

    /// The session's master for the shared lifecycle. Its GC roots are
    /// the staged-but-uncollected job trees and a drained barrier's parse
    /// forms.
    fn master(&mut self) -> Master<'_> {
        let gc_roots: &[NodeId] = if self.barrier_roots.is_empty() {
            &self.batch_roots
        } else if self.batch_roots.is_empty() {
            &self.barrier_roots
        } else {
            self.gc_scratch.clear();
            self.gc_scratch.extend_from_slice(&self.batch_roots);
            self.gc_scratch.extend_from_slice(&self.barrier_roots);
            &self.gc_scratch
        };
        Master {
            spec: *self.machine.spec(),
            interp: &mut self.interp,
            machine: &mut self.machine,
            gc_roots,
            job_cycles: &mut self.scratch_cycles,
        }
    }

    /// Stops the worker pool; returns total setup+teardown in ms.
    pub fn shutdown(&mut self) -> f64 {
        self.threaded = None; // joins the persistent worker pool
        self.machine.shutdown();
        self.machine.overhead_ns() as f64 / 1e6
    }

    /// `true` until shutdown.
    pub fn is_running(&self) -> bool {
        self.machine.is_running()
    }
}

/// One classified-stageable CPU batch command: its metadata plus the
/// prepared (pooled) job buffer, awaiting dispatch. Opaque scheduler
/// token — see [`ExecQueue::Staged`].
#[derive(Debug)]
pub struct CpuStaged {
    cmd: PendingCommand,
    jobs: Vec<NodeId>,
}

/// Carried state of a CPU batch command that must run synchronously.
/// Opaque scheduler token — see [`ExecQueue::Barrier`].
#[derive(Debug)]
pub enum CpuBarrier {
    /// A parsed non-stageable command (its forms stay GC-rooted through
    /// the drain).
    Forms {
        /// Parsed top-level forms.
        forms: Vec<NodeId>,
        /// Parse-phase counters (already machine-accounted).
        parse: Counters,
        /// Wall clock at parse start.
        wall_start: std::time::Instant,
    },
    /// The command failed to parse.
    ParseError {
        /// The parse error, rendered after the drain.
        error: CuliError,
        /// Parse-phase counters (already machine-accounted).
        parse: Counters,
    },
    /// Header/argument evaluation failed while staging — the same error
    /// the synchronous path would produce.
    StageError {
        /// The stage-time error, rendered after the drain.
        error: CuliError,
        /// Parse-phase counters (already machine-accounted).
        parse: Counters,
        /// Master-side counters spent before the failure (machine-
        /// accounted at reply time, like the synchronous path).
        eval_stage: Counters,
    },
}

/// One dispatched CPU run: the worker pool holds the run's sections, and
/// each command is collected through [`WorkerPool::collect_next`].
/// Opaque scheduler token — see [`ExecQueue::Run`].
#[derive(Debug)]
pub struct CpuRun(Vec<PendingCommand>);

impl<'i> ExecQueue<'i> for CpuRepl {
    type Staged = CpuStaged;
    type Barrier = CpuBarrier;
    type Run = CpuRun;

    fn max_run_len(&self) -> usize {
        WorkerPool::MAX_RUN_SECTIONS
    }

    fn pipeline_depth(&self) -> usize {
        WorkerPool::PIPELINE_DEPTH
    }

    fn classify_and_stage(
        &mut self,
        input: &'i str,
        slot: usize,
    ) -> Result<Verdict<CpuStaged, CpuBarrier>> {
        let wall_start = std::time::Instant::now();
        // --- Parse (overlaps in-flight runs) -----------------------------
        let (parsed, parse_counters) = self.master().parse(input)?;
        let forms = match parsed {
            Ok(forms) => forms,
            Err(e) => {
                return Ok(Verdict::Barrier(CpuBarrier::ParseError {
                    error: e,
                    parse: parse_counters,
                }))
            }
        };
        // --- Cache probe and classification (charge-free) ----------------
        let classified = self.batch_cache.classify(
            self.config.cache.as_ref(),
            &self.interp,
            &forms,
            input,
            slot,
        );
        match classified {
            Classified::Hit(mut reply) => {
                // The stored counters are the ones this run would
                // recompute (source-text condition); only wall time is
                // fresh. The probe's parse temporaries are garbage now —
                // collect them as any finished command would.
                reply.wall_ns = wall_start.elapsed().as_nanos() as u64;
                let master = self.master();
                culi_core::gc::collect(master.interp, master.gc_roots);
                return Ok(Verdict::Done(reply));
            }
            Classified::Stageable(false) => {
                // Root the parse tree across the coming drain's GCs.
                self.barrier_roots.extend_from_slice(&forms);
                return Ok(Verdict::Barrier(CpuBarrier::Forms {
                    forms,
                    parse: parse_counters,
                    wall_start,
                }));
            }
            Classified::Stageable(true) => {}
        }
        // --- Prepare (meter-identical to the synchronous path) -----------
        // Same arming point as finish_submit: the command's master-side
        // work runs under the session's fuel budget.
        self.interp.meter.arm_fuel(self.config.interp.fuel_budget);
        let m1 = self.interp.meter.snapshot();
        let prepared = self.prepare_classified_section(forms[0]);
        let eval_stage = self.interp.meter.snapshot().delta_since(&m1);
        Ok(match prepared {
            Ok(jobs) => {
                self.batch_roots.extend_from_slice(&jobs);
                Verdict::Stage(CpuStaged {
                    cmd: PendingCommand {
                        slot,
                        wall_start,
                        parse: parse_counters,
                        eval_stage,
                    },
                    jobs,
                })
            }
            Err(e) => Verdict::Barrier(CpuBarrier::StageError {
                error: e,
                parse: parse_counters,
                eval_stage,
            }),
        })
    }

    fn dispatch(&mut self, run: Vec<CpuStaged>) -> Result<CpuRun> {
        let hook = threaded_hook(&mut self.threaded, &self.config);
        let sections: Vec<&[NodeId]> = run.iter().map(|s| s.jobs.as_slice()).collect();
        let global = self.interp.global;
        hook.pool_mut(&self.interp)
            .stage_run(&mut self.interp, &sections, global);
        let mut cmds = Vec::with_capacity(run.len());
        for CpuStaged { cmd, jobs } in run {
            self.interp.put_node_buf(jobs);
            cmds.push(cmd);
        }
        // The jobs are encoded into the postbox now.
        self.batch_roots.clear();
        Ok(CpuRun(cmds))
    }

    fn collect(&mut self, run: CpuRun, replies: &mut [Option<Reply>]) -> Result<()> {
        let mut cmds = run.0.into_iter();
        while let Some(cmd) = cmds.next() {
            let slot = cmd.slot;
            match self.collect_staged(cmd) {
                Ok((slot, reply)) => replies[slot] = Some(reply),
                Err(e) if e.is_degradable() => {
                    // A seat was lost mid-run. Write this command and
                    // every later one in the run off to the scheduler's
                    // sequential fallback, draining the pool's remaining
                    // (possibly synthetic) replies so its accounting
                    // stays balanced.
                    self.degraded_slots.push(slot);
                    let hook = self
                        .threaded
                        .as_mut()
                        .expect("a staged command implies a live threaded hook");
                    let pool = hook.pool_mut(&self.interp);
                    let mut scratch = self.interp.take_node_buf();
                    for cmd in cmds {
                        self.degraded_slots.push(cmd.slot);
                        scratch.clear();
                        let _ = pool.collect_next(&mut self.interp, &mut scratch);
                    }
                    self.interp.put_node_buf(scratch);
                    let _ = hook.take_job_counters();
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn run_barrier(
        &mut self,
        barrier: CpuBarrier,
        slot: usize,
        replies: &mut [Option<Reply>],
    ) -> Result<()> {
        let reply = match barrier {
            CpuBarrier::Forms {
                forms,
                parse,
                wall_start,
            } => {
                self.barrier_roots.clear();
                let reply = self.finish_submit(&forms, parse, wall_start, false)?;
                self.batch_cache
                    .store(self.config.cache.as_ref(), &self.interp, slot, &reply);
                reply
            }
            CpuBarrier::ParseError { error, parse } => self.master().fail(error, parse_only(parse)),
            CpuBarrier::StageError {
                error,
                parse,
                eval_stage,
            } => {
                // A failed evaluation, charged without the dispatch overhead.
                let evaluated = Evaluated {
                    value: Err(error),
                    counters: CommandCounters {
                        eval_master: eval_stage,
                        ..parse_only(parse)
                    },
                    sections: Vec::new(),
                };
                self.master().finish(evaluated, 0)?
            }
        };
        replies[slot] = Some(reply);
        Ok(())
    }

    fn take_failed(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.degraded_slots)
    }

    fn run_sequential(
        &mut self,
        input: &'i str,
        slot: usize,
        replies: &mut [Option<Reply>],
    ) -> Result<()> {
        let mut reply = self.submit_inner(input, true)?;
        if reply.ok {
            // The answer is correct but was not produced by the parallel
            // backend; sessions inspecting codes can tell.
            reply.code = ErrorCode::Degraded;
        }
        replies[slot] = Some(reply);
        Ok(())
    }
}

/// The session's persistent worker-pool backend, launched on first use.
/// Only Threaded sessions get here: Modeled sessions never stage, dispatch
/// or evaluate through the pool.
fn threaded_hook<'h>(
    slot: &'h mut Option<ThreadedHook>,
    config: &CpuReplConfig,
) -> &'h mut ThreadedHook {
    let CpuMode::Threaded { threads } = config.mode else {
        unreachable!("worker pool requested by a Modeled session")
    };
    slot.get_or_insert_with(|| {
        ThreadedHook::with_watchdog(threads, config.reply_deadline, config.fault_plan.clone())
    })
}

/// The counters of a command that failed to parse.
fn parse_only(parse: Counters) -> CommandCounters {
    CommandCounters {
        parse,
        ..Default::default()
    }
}

/// The scheduler-fallback backend: evaluates `|||` jobs sequentially on
/// the master interpreter with the *worker pool's* exact metering
/// discipline — child env outside the job window, per-job fuel re-arm,
/// then the `eval` window itself (see `run_msg` in the pool; the pool
/// test `job_counters_match_sequential_reference` pins the equivalence).
/// Replies produced through this hook are byte-identical to the
/// threaded backend's in output, ok and counters.
#[derive(Debug, Default)]
struct SequentialReferenceHook {
    jobs: Counters,
}

impl ParallelHook for SequentialReferenceHook {
    fn execute(
        &mut self,
        interp: &mut Interp,
        jobs: &[NodeId],
        parent_env: culi_core::EnvId,
        results: &mut Vec<NodeId>,
    ) -> culi_core::Result<()> {
        crate::pool::run_jobs_sequential_reference(
            interp,
            jobs,
            parent_env,
            results,
            &mut self.jobs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culi_gpu_sim::device::{amd_6272, intel_e5_2620};

    fn modeled() -> CpuRepl {
        CpuRepl::launch(intel_e5_2620(), CpuReplConfig::default())
    }

    fn threaded(threads: usize) -> CpuRepl {
        CpuRepl::launch(
            intel_e5_2620(),
            CpuReplConfig {
                interp: InterpConfig {
                    arena_capacity: 1 << 16,
                    ..Default::default()
                },
                mode: CpuMode::Threaded { threads },
                ..Default::default()
            },
        )
    }

    #[test]
    fn modeled_end_to_end() {
        let mut r = modeled();
        assert_eq!(r.submit("(* 2 (+ 4 3) 6)").unwrap().expect_ok(), "84");
    }

    #[test]
    fn fuel_limited_command_reports_a_fuel_reply_and_the_session_survives() {
        let mut r = CpuRepl::launch(
            intel_e5_2620(),
            CpuReplConfig {
                interp: InterpConfig {
                    arena_capacity: 1 << 16,
                    fuel_budget: 10_000,
                    ..Default::default()
                },
                mode: CpuMode::Threaded { threads: 2 },
                ..Default::default()
            },
        );
        let reply = r.submit("(dotimes (i 1000000000) (+ i i))").unwrap();
        assert!(!reply.ok);
        assert_eq!(reply.code, ErrorCode::Fuel);
        assert!(reply.output.contains("fuel"), "{}", reply.output);
        assert_eq!(r.submit("(+ 1 2)").unwrap().expect_ok(), "3");
    }

    #[test]
    fn batch_degrades_to_sequential_on_seat_loss_and_matches_reference() {
        use culi_core::fault::{FaultKind, FaultSite};
        let prelude = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
        let section = "(||| 4 fib (4 5 6 7))";
        let mut clean = threaded(4);
        clean.submit(prelude).unwrap();
        let plan = FaultPlan::single(FaultSite::WorkerSection, FaultKind::Hang, 2);
        let mut faulted = CpuRepl::launch(
            intel_e5_2620(),
            CpuReplConfig {
                interp: InterpConfig {
                    arena_capacity: 1 << 16,
                    ..Default::default()
                },
                mode: CpuMode::Threaded { threads: 4 },
                reply_deadline: Duration::from_millis(200),
                fault_plan: plan.clone(),
                ..Default::default()
            },
        );
        faulted.submit(prelude).unwrap();
        let batch = vec![section; 6];
        let got = faulted.submit_batch(&batch).unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(plan.injected_count(), 1, "the scripted hang must fire");
        let mut degraded = 0;
        for reply in &got {
            let want = clean.submit(section).unwrap();
            assert_eq!(reply.output, want.output);
            assert_eq!(reply.ok, want.ok);
            assert_eq!(reply.counters, want.counters);
            if reply.code == ErrorCode::Degraded {
                degraded += 1;
            }
        }
        assert!(
            degraded >= 1,
            "the lost seat must degrade at least one slot"
        );
        // The pool recovered: later batches run parallel again.
        let after = faulted.submit_batch(&[section; 3]).unwrap();
        for reply in after {
            assert_eq!(reply.code, ErrorCode::Ok);
            assert_eq!(reply.expect_ok(), "(3 5 8 13)");
        }
    }

    #[test]
    fn modeled_parallel_sections_report() {
        let mut r = modeled();
        let reply = r.submit("(||| 3 + (1 2 3) (4 5 6))").unwrap();
        assert_eq!(reply.output, "(5 7 9)");
        assert_eq!(reply.sections.len(), 1);
    }

    #[test]
    fn threaded_matches_sequential_results() {
        let mut r = threaded(4);
        r.submit("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
            .unwrap();
        let reply = r.submit("(||| 8 fib (1 2 3 4 5 6 7 8))").unwrap();
        assert_eq!(reply.output, "(1 1 2 3 5 8 13 21)");
        assert!(reply.wall_ns > 0);
    }

    #[test]
    fn threaded_respects_result_order_with_few_threads() {
        let mut r = threaded(3);
        let reply = r
            .submit("(||| 7 - (10 20 30 40 50 60 70) (1 2 3 4 5 6 7))")
            .unwrap();
        assert_eq!(reply.output, "(9 18 27 36 45 54 63)");
    }

    #[test]
    fn threaded_worker_error_reports_global_index() {
        let mut r = threaded(2);
        let reply = r.submit("(||| 4 / (1 1 1 1) (1 1 0 1))").unwrap();
        assert!(!reply.ok);
        assert!(reply.output.contains("worker 2"), "{}", reply.output);
    }

    #[test]
    fn threaded_workers_cannot_corrupt_main_state() {
        let mut r = threaded(4);
        r.submit("(setq total 100)").unwrap();
        // Workers setq `total` in their forks; the master copy is intact.
        r.submit("(defun bump (x) (progn (setq total (+ total x)) total))")
            .unwrap();
        let reply = r.submit("(||| 4 bump (1 2 3 4))").unwrap();
        assert_eq!(reply.output, "(101 102 103 104)");
        assert_eq!(r.submit("total").unwrap().output, "100");
    }

    #[test]
    fn batch_pipelines_sections_and_matches_submit_loop() {
        let prelude = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
        let section = "(||| 4 fib (4 5 6 7))";
        let mut a = threaded(4);
        let mut b = threaded(4);
        a.submit(prelude).unwrap();
        b.submit(prelude).unwrap();
        let batch: Vec<&str> = vec![section; 8];
        let batched = b.submit_batch(&batch).unwrap();
        for reply in batched {
            let reference = a.submit(section).unwrap();
            assert_eq!(reply.output, reference.output);
            assert_eq!(reply.ok, reference.ok);
            assert_eq!(reply.counters, reference.counters);
        }
    }

    #[test]
    fn batch_barriers_on_defines_and_stays_correct() {
        let mut r = threaded(3);
        let replies = r
            .submit_batch(&[
                "(setq g 5)",
                "(defun addg (x) (+ x g))",
                "(||| 3 addg (1 2 3))",
                "(||| 3 addg (10 20 30))",
                "(setq g 50)",
                "(||| 3 addg (1 2 3))",
            ])
            .unwrap();
        let outputs: Vec<&str> = replies.iter().map(|r| r.output.as_str()).collect();
        assert_eq!(
            outputs,
            ["5", "addg", "(6 7 8)", "(15 25 35)", "50", "(51 52 53)"]
        );
    }

    #[test]
    fn batch_propagates_errors_in_order() {
        let mut r = threaded(2);
        let replies = r
            .submit_batch(&[
                "(||| 2 / (4 6) (2 2))",
                "(||| 2 / (4 6) (0 2))", // worker 0 divides by zero
                "(||| 2 / (4 6) (1 2))",
                "(+ 1", // parse error barrier
                "(||| 2 + (1 2) (1 1))",
            ])
            .unwrap();
        assert_eq!(replies[0].output, "(2 3)");
        assert!(!replies[1].ok);
        assert!(
            replies[1].output.contains("worker 0"),
            "{}",
            replies[1].output
        );
        assert_eq!(replies[2].output, "(4 3)");
        assert!(!replies[3].ok);
        assert_eq!(replies[4].output, "(2 3)");
    }

    #[test]
    fn batch_with_zero_warm_clones() {
        let mut r = threaded(4);
        r.submit("(defun sq (x) (* x x))").unwrap();
        r.submit("(||| 4 sq (1 2 3 4))").unwrap(); // warm the pool
        let clones = r.interp_mut().clone_count();
        let batch: Vec<&str> = vec!["(||| 4 sq (1 2 3 4))"; 32];
        let replies = r.submit_batch(&batch).unwrap();
        assert!(replies.iter().all(|r| r.output == "(1 4 9 16)"));
        assert_eq!(
            r.interp_mut().clone_count(),
            clones,
            "a warm pipelined batch must not clone the interpreter"
        );
    }

    #[test]
    fn computed_operands_pipeline_under_effect_analysis() {
        // `(list g g)` and a computed worker count are pure operands: the
        // effect classifier stages them — with zero warm clones — and
        // results stay correct.
        let mut r = threaded(2);
        r.submit("(setq g 3)").unwrap();
        r.submit("(||| 2 + (1 2) (3 4))").unwrap(); // warm the pool
        let clones = r.interp_mut().clone_count();
        let batch: Vec<&str> = vec![
            "(||| 2 + (1 2) (list g g))",
            "(||| (+ 1 1) + (list g g) (10 20))",
            "(||| 2 + (if (< g 0) (1 2) (5 6)) (1 1))",
        ];
        let replies = r.submit_batch(&batch).unwrap();
        let outputs: Vec<&str> = replies.iter().map(|r| r.output.as_str()).collect();
        assert_eq!(outputs, ["(4 5)", "(13 23)", "(6 7)"]);
        assert_eq!(
            r.interp_mut().clone_count(),
            clones,
            "computed-operand sections must pipeline without cloning"
        );
    }

    #[test]
    fn classification_rejects_effectful_operands() {
        let mut r = threaded(2);
        // An operand that calls a user form (which could mutate globals)
        // must barrier — and still evaluate correctly on the sync path.
        r.submit("(defun bumpg (x) (progn (setq g (+ g x)) g))")
            .unwrap();
        let replies = r
            .submit_batch(&[
                "(setq g 3)",
                "(||| 2 + (1 2) (list (bumpg 1) (bumpg 1)))",
                "g",
            ])
            .unwrap();
        assert_eq!(replies[1].output, "(5 7)");
        assert_eq!(replies[2].output, "5", "barrier preserved effect order");
    }

    #[test]
    fn cpu_phases_dominated_by_eval() {
        // Paper Fig. 18: on CPUs parsing and printing are almost
        // negligible; evaluation dominates.
        let mut r = CpuRepl::launch(amd_6272(), CpuReplConfig::default());
        r.submit("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
            .unwrap();
        let jobs = vec!["5"; 64].join(" ");
        let reply = r.submit(&format!("(||| 64 fib ({jobs}))")).unwrap();
        let (p, e, pr) = reply.phases.proportions();
        assert!(e > 0.6, "eval share {e}");
        assert!(p < 0.3, "parse share {p}");
        assert!(pr < 0.3, "print share {pr}");
    }

    #[test]
    fn sessions_survive_errors() {
        let mut r = modeled();
        assert!(!r.submit("(car 5)").unwrap().ok);
        assert_eq!(r.submit("(+ 1 1)").unwrap().output, "2");
    }

    #[test]
    fn shutdown_closes() {
        let mut r = modeled();
        let ms = r.shutdown();
        assert!(ms > 0.0);
        assert!(matches!(r.submit("1"), Err(RuntimeError::SessionClosed)));
    }
}
