//! The unified batch scheduler: one classify → stage → barrier → drain →
//! resume state machine for every backend.
//!
//! PR 3/4 grew two near-identical copies of the run-staging logic inside
//! [`crate::CpuRepl::submit_batch`] and [`crate::GpuRepl::submit_batch`]:
//! classify each command with the conservative effect analysis
//! ([`culi_core::effects`]), coalesce maximal runs of stageable `|||`
//! commands, keep a bounded number of runs in flight, drain everything at
//! a barrier, and re-sequence replies into submission order. This module
//! owns that state machine once, parameterized over a small [`ExecQueue`]
//! trait; the REPLs shrink to thin adapters that implement the trait (the
//! CPU worker pool in [`crate::cpu_repl`], the — possibly multi-device —
//! simulated-GPU command buffer in [`crate::gpu_repl`]).
//!
//! One layer above sits the multi-tenant [`crate::server::SessionServer`]
//! (PR 7): it owns *admission* — which tenant's commands enter the
//! runtime, in what share, and which are refused — while this scheduler
//! owns *execution order within one session's batch*. The split keeps
//! fairness policy (deficit round-robin, backpressure, quarantine) out of
//! the per-session pipeline: the server simply hands each warm tenant's
//! share to [`crate::Session::submit_batch`], which lands here unchanged.
//!
//! # Queue trait contract
//!
//! An [`ExecQueue`] presents the scheduler with three token types and six
//! operations. The tokens are opaque to the scheduler:
//!
//! * [`ExecQueue::Staged`] — one classified-stageable command, prepared
//!   up to (but not including) dispatch. For the CPU pool this is the
//!   command's built job expressions plus its parse/stage meter counters;
//!   for the GPU it is just the raw input text awaiting upload.
//! * [`ExecQueue::Barrier`] — the carried state of a command that must
//!   run synchronously: its parsed forms (so metered work is never
//!   repeated), or the error a parse/stage attempt already produced.
//! * [`ExecQueue::Run`] — one dispatched, in-flight run awaiting
//!   collection.
//!
//! The operations, and the ordering guarantees the scheduler provides:
//!
//! 1. [`ExecQueue::classify_and_stage`] is called **exactly once per
//!    command, in submission order**. It performs any metered per-command
//!    front work (parsing, classification, charge-exact stage mirroring)
//!    and rules the command stageable or barrier. Because classification
//!    is conservative — a staged command's operands are provably pure —
//!    the queue may evaluate staging work *ahead of* in-flight runs
//!    without observable difference.
//! 2. [`ExecQueue::dispatch`] ships a non-empty run of consecutive staged
//!    commands. Runs are dispatched in submission order and are bounded
//!    by [`ExecQueue::max_run_len`] commands and by
//!    [`ExecQueue::admits`] (byte budgets); at most
//!    [`ExecQueue::pipeline_depth`] dispatched runs exist before the
//!    oldest is collected.
//! 3. [`ExecQueue::collect`] retires the **oldest** dispatched run,
//!    writing each command's reply into its submission-order slot. Runs
//!    are collected strictly FIFO. Queue-internal recovery — worker
//!    refusals, poison re-arming, snapshot resync — happens entirely
//!    inside `collect` (see [`crate::pool`]) and never reorders replies.
//! 4. [`ExecQueue::run_barrier`] executes one barrier command through the
//!    queue's synchronous path. The scheduler guarantees the pipeline is
//!    **empty** at that point: every earlier command's reply has been
//!    collected, so the barrier may freely mutate persistent state, and
//!    commands after it are classified against the post-barrier state.
//!
//! # Barrier / drain / resume
//!
//! A barrier verdict flushes the run being assembled, collects every
//! in-flight run (drain), then runs the barrier command synchronously;
//! staging resumes with the next command. The same drain-then-reply
//! sequence serves parse errors and stage-time errors — the queue carries
//! the error in its `Barrier` token and renders it in `run_barrier`, so
//! failed commands surface their reply at exactly the position a
//! sequential `submit` loop would.
//!
//! # Re-sequencing rule
//!
//! Replies are delivered in **submission order** regardless of which run
//! (or, for a sharded GPU queue, which device) produced them: every
//! command owns a reply slot indexed by its position in the input stream,
//! `collect`/`run_barrier` fill slots, and the scheduler returns the
//! slots in order once the stream is exhausted.
//!
//! # Graceful degradation (fault model)
//!
//! Errors split into two classes by [`crate::RuntimeError::is_degradable`]:
//!
//! * **Program errors** (wrong types, division by zero, fuel/heap limits,
//!   parse errors) are deterministic properties of the command. They are
//!   rendered as `ok == false` replies by the queue and never retried —
//!   the sequential reference produces the identical reply.
//! * **Infrastructure errors** ([`culi_core::ErrorCode::Device`]: a
//!   worker seat lost to a panic, hang or corrupted reply; a device
//!   reply dropped past its retry budget) say nothing about the
//!   commands. The queue writes the affected commands off (exposing
//!   their slots via [`ExecQueue::take_failed`]) and the scheduler
//!   **degrades**: it drains every other in-flight run — later runs may
//!   write off more commands — then re-executes each written-off command
//!   on the queue's *sequential reference* path
//!   ([`ExecQueue::run_sequential`]), in submission order. This is sound
//!   because only provably-pure commands are ever staged: the master
//!   re-evaluating them observes exactly the state they were staged
//!   against, so the fallback replies (output, `ok`, counters) are
//!   byte-identical to what the healthy backend would have produced —
//!   only [`crate::Reply::code`] is marked
//!   [`culi_core::ErrorCode::Degraded`]. The differential fault harness
//!   asserts this equivalence.
//!
//! Non-degradable session/protocol failures still abort the whole batch
//! as a [`crate::RuntimeError`], exactly as the pre-unification
//! dispatchers did.

use crate::error::Result;
use crate::reply::Reply;
use std::collections::VecDeque;

/// Verdict of [`ExecQueue::classify_and_stage`] for one command.
#[derive(Debug)]
pub enum Verdict<S, B> {
    /// The command is stageable: it may join the run being assembled.
    Stage(S),
    /// The command must run synchronously after the pipeline drains
    /// (non-stageable command, parse error, or stage-time error).
    Barrier(B),
    /// The command's reply is already known — a reply-cache hit
    /// ([`crate::cache::CommandCache`]). The scheduler writes it straight
    /// into the command's slot: no run, no barrier, no pipeline
    /// interaction. Sound because queues only ever serve `Done` for
    /// commands whose cached execution was classified pure against the
    /// *current* env sync epoch, so neither the assembling run nor any
    /// in-flight run can observe a difference. Boxed so the common
    /// `Stage`/`Barrier` verdicts stay small.
    Done(Box<Reply>),
}

/// One backend execution queue the [`BatchScheduler`] can feed. See the
/// module docs for the full contract. The `'i` lifetime is the borrow of
/// the batch's input strings, so a queue token may hold `&'i str` without
/// copying.
pub trait ExecQueue<'i> {
    /// A classified-stageable command, prepared but not yet dispatched.
    type Staged;
    /// Carried state of a command that must run synchronously.
    type Barrier;
    /// One dispatched, in-flight run awaiting collection.
    type Run;

    /// Maximum commands one run may coalesce (≥ 1).
    fn max_run_len(&self) -> usize;

    /// Maximum dispatched-but-uncollected runs (≥ 1): the pool's postbox
    /// double-buffer depth, or the GPU session's device count.
    fn pipeline_depth(&self) -> usize;

    /// Whether `input` may still join a run currently holding `run_len`
    /// commands totalling `run_bytes` input bytes. Never called for an
    /// empty run — the first command always joins. Defaults to no byte
    /// budget.
    fn admits(&self, run_len: usize, run_bytes: usize, input: &str) -> bool {
        let _ = (run_len, run_bytes, input);
        true
    }

    /// Classifies one command and performs its front work. Called once
    /// per command, in submission order.
    fn classify_and_stage(
        &mut self,
        input: &'i str,
        slot: usize,
    ) -> Result<Verdict<Self::Staged, Self::Barrier>>;

    /// Ships a non-empty run of staged commands.
    fn dispatch(&mut self, run: Vec<Self::Staged>) -> Result<Self::Run>;

    /// Retires the oldest dispatched run, writing each command's reply
    /// into its slot.
    fn collect(&mut self, run: Self::Run, replies: &mut [Option<Reply>]) -> Result<()>;

    /// Runs one barrier command synchronously (the pipeline is empty).
    fn run_barrier(
        &mut self,
        barrier: Self::Barrier,
        slot: usize,
        replies: &mut [Option<Reply>],
    ) -> Result<()>;

    /// Reply slots written off by the most recent **degradable**
    /// `dispatch`/`collect` failure. The queue has already retired its
    /// internal pipeline state for them; the scheduler re-executes each
    /// on [`ExecQueue::run_sequential`] after draining the pipeline.
    /// Defaults to none (queues that never degrade).
    fn take_failed(&mut self) -> Vec<usize> {
        Vec::new()
    }

    /// Executes `input` on the queue's *sequential reference* path — the
    /// master interpreter alone, no pool or device batching — writing
    /// into `slot` the byte-identical reply the healthy path would have
    /// produced, with successes marked [`culi_core::ErrorCode::Degraded`].
    /// Only called after a degradable failure, with the pipeline drained.
    fn run_sequential(
        &mut self,
        input: &'i str,
        slot: usize,
        replies: &mut [Option<Reply>],
    ) -> Result<()>;
}

/// The backend-agnostic batch dispatcher: drives an [`ExecQueue`] over a
/// command stream, owning run coalescing, in-flight accounting,
/// barrier/drain semantics and reply re-sequencing.
#[derive(Debug)]
pub struct BatchScheduler<'i, Q: ExecQueue<'i>> {
    /// Dispatched runs, oldest first.
    pending: VecDeque<Q::Run>,
    /// The run currently being assembled.
    assembling: Vec<Q::Staged>,
    /// Input bytes of the assembling run (for [`ExecQueue::admits`]).
    run_bytes: usize,
    /// Submission-order reply slots.
    replies: Vec<Option<Reply>>,
}

impl<'i, Q: ExecQueue<'i>> BatchScheduler<'i, Q> {
    /// Submits a command stream through `queue`, returning one reply per
    /// input in submission order.
    pub fn submit_batch(queue: &mut Q, inputs: &[&'i str]) -> Result<Vec<Reply>> {
        debug_assert!(queue.max_run_len() >= 1);
        debug_assert!(queue.pipeline_depth() >= 1);
        let mut s = Self {
            pending: VecDeque::new(),
            assembling: Vec::new(),
            run_bytes: 0,
            replies: (0..inputs.len()).map(|_| None).collect(),
        };
        for (slot, &input) in inputs.iter().enumerate() {
            // Budget check first: a run-ending command starts the next
            // run instead of truncating it.
            if !s.assembling.is_empty() && !queue.admits(s.assembling.len(), s.run_bytes, input) {
                s.flush(queue, inputs)?;
            }
            match queue.classify_and_stage(input, slot)? {
                Verdict::Stage(staged) => {
                    s.assembling.push(staged);
                    s.run_bytes += input.len();
                    if s.assembling.len() >= queue.max_run_len() {
                        s.flush(queue, inputs)?;
                    }
                }
                Verdict::Barrier(b) => {
                    s.flush(queue, inputs)?;
                    s.drain(queue, inputs)?;
                    queue.run_barrier(b, slot, &mut s.replies)?;
                }
                // A cache hit neither joins nor flushes the assembling
                // run: stageable commands around it keep coalescing.
                Verdict::Done(reply) => s.replies[slot] = Some(*reply),
            }
        }
        s.flush(queue, inputs)?;
        s.drain(queue, inputs)?;
        Ok(s.replies
            .into_iter()
            .map(|r| r.expect("every batch slot replied"))
            .collect())
    }

    /// Dispatches the assembling run (if any), first collecting the
    /// oldest in-flight run(s) while the pipeline is at depth.
    fn flush(&mut self, queue: &mut Q, inputs: &[&'i str]) -> Result<()> {
        if self.assembling.is_empty() {
            return Ok(());
        }
        while self.pending.len() >= queue.pipeline_depth() {
            self.collect_oldest(queue, inputs)?;
        }
        let run = std::mem::take(&mut self.assembling);
        self.run_bytes = 0;
        match queue.dispatch(run) {
            Ok(dispatched) => self.pending.push_back(dispatched),
            Err(e) if e.is_degradable() => self.degrade(queue, inputs)?,
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Collects every in-flight run, oldest first.
    fn drain(&mut self, queue: &mut Q, inputs: &[&'i str]) -> Result<()> {
        while !self.pending.is_empty() {
            self.collect_oldest(queue, inputs)?;
        }
        Ok(())
    }

    /// Retires the oldest in-flight run; a degradable backend failure
    /// routes through [`BatchScheduler::degrade`] instead of aborting.
    fn collect_oldest(&mut self, queue: &mut Q, inputs: &[&'i str]) -> Result<()> {
        let run = self.pending.pop_front().expect("pipeline non-empty");
        match queue.collect(run, &mut self.replies) {
            Ok(()) => Ok(()),
            Err(e) if e.is_degradable() => self.degrade(queue, inputs),
            Err(e) => Err(e),
        }
    }

    /// Graceful degradation: the queue wrote commands off after an
    /// infrastructure failure survived its internal retries. Drain every
    /// other in-flight run first — later runs may write off more
    /// commands — then re-execute every written-off command on the
    /// queue's sequential reference, in submission order (see the module
    /// docs for why the fallback replies are byte-identical).
    fn degrade(&mut self, queue: &mut Q, inputs: &[&'i str]) -> Result<()> {
        let mut failed = queue.take_failed();
        while let Some(run) = self.pending.pop_front() {
            match queue.collect(run, &mut self.replies) {
                Ok(()) => {}
                Err(e) if e.is_degradable() => failed.extend(queue.take_failed()),
                Err(e) => return Err(e),
            }
        }
        failed.sort_unstable();
        for slot in failed {
            queue.run_sequential(inputs[slot], slot, &mut self.replies)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(text: String) -> Reply {
        Reply {
            output: text,
            ok: true,
            ..Default::default()
        }
    }

    /// Scripted queue: inputs starting with `b` barrier, all else stage.
    /// Records the dispatch/collect/barrier order for the assertions.
    struct ScriptQueue {
        max_run: usize,
        depth: usize,
        /// Run byte budget for `admits`; `None` admits everything.
        byte_budget: Option<usize>,
        /// When set, collecting the run containing this slot fails
        /// degradably (one-shot): its slots land in `failed`.
        fail_collect_containing: Option<usize>,
        failed: Vec<usize>,
        events: Vec<String>,
        outstanding: usize,
        max_outstanding: usize,
    }

    impl ScriptQueue {
        fn new(max_run: usize, depth: usize) -> Self {
            Self {
                max_run,
                depth,
                byte_budget: None,
                fail_collect_containing: None,
                failed: Vec::new(),
                events: Vec::new(),
                outstanding: 0,
                max_outstanding: 0,
            }
        }
    }

    impl<'i> ExecQueue<'i> for ScriptQueue {
        type Staged = (usize, &'i str);
        type Barrier = &'i str;
        type Run = Vec<(usize, &'i str)>;

        fn max_run_len(&self) -> usize {
            self.max_run
        }

        fn pipeline_depth(&self) -> usize {
            self.depth
        }

        fn admits(&self, _run_len: usize, run_bytes: usize, input: &str) -> bool {
            match self.byte_budget {
                Some(budget) => run_bytes + input.len() <= budget,
                None => true,
            }
        }

        fn classify_and_stage(
            &mut self,
            input: &'i str,
            slot: usize,
        ) -> Result<Verdict<Self::Staged, Self::Barrier>> {
            Ok(if input.starts_with('b') {
                Verdict::Barrier(input)
            } else if input.starts_with('c') {
                // Scripted cache hit: the reply is already known.
                Verdict::Done(Box::new(reply(format!("C{slot}:{input}"))))
            } else {
                Verdict::Stage((slot, input))
            })
        }

        fn dispatch(&mut self, run: Vec<Self::Staged>) -> Result<Self::Run> {
            assert!(!run.is_empty() && run.len() <= self.max_run);
            self.events.push(format!("dispatch:{}", run.len()));
            self.outstanding += 1;
            self.max_outstanding = self.max_outstanding.max(self.outstanding);
            Ok(run)
        }

        fn collect(&mut self, run: Self::Run, replies: &mut [Option<Reply>]) -> Result<()> {
            self.outstanding -= 1;
            if let Some(bad) = self.fail_collect_containing {
                if run.iter().any(|&(slot, _)| slot == bad) {
                    self.fail_collect_containing = None;
                    self.events.push(format!("collect-fail:{}", run.len()));
                    self.failed.extend(run.iter().map(|&(slot, _)| slot));
                    return Err(crate::error::RuntimeError::Device(
                        culi_gpu_sim::SimError::ReplyDropped,
                    ));
                }
            }
            self.events.push(format!("collect:{}", run.len()));
            for (slot, input) in run {
                replies[slot] = Some(reply(format!("S{slot}:{input}")));
            }
            Ok(())
        }

        fn run_barrier(
            &mut self,
            barrier: Self::Barrier,
            slot: usize,
            replies: &mut [Option<Reply>],
        ) -> Result<()> {
            self.events.push(format!("barrier:{slot}"));
            // Drain guarantee: every earlier command already replied.
            assert!(
                replies[..slot].iter().all(Option::is_some),
                "barrier at slot {slot} ran with earlier replies missing"
            );
            assert_eq!(self.outstanding, 0, "barrier with runs in flight");
            replies[slot] = Some(reply(format!("B{slot}:{barrier}")));
            Ok(())
        }

        fn take_failed(&mut self) -> Vec<usize> {
            std::mem::take(&mut self.failed)
        }

        fn run_sequential(
            &mut self,
            input: &'i str,
            slot: usize,
            replies: &mut [Option<Reply>],
        ) -> Result<()> {
            self.events.push(format!("seq:{slot}"));
            assert_eq!(self.outstanding, 0, "fallback with runs in flight");
            let mut r = reply(format!("D{slot}:{input}"));
            r.code = culi_core::ErrorCode::Degraded;
            replies[slot] = Some(r);
            Ok(())
        }
    }

    #[test]
    fn replies_resequence_and_runs_cap() {
        let mut q = ScriptQueue::new(3, 2);
        let inputs = ["s", "s", "s", "s", "b1", "s", "b2", "b3", "s"];
        let replies = BatchScheduler::submit_batch(&mut q, &inputs).unwrap();
        for (slot, (got, src)) in replies.iter().zip(&inputs).enumerate() {
            let kind = if src.starts_with('b') { "B" } else { "S" };
            assert_eq!(got.output, format!("{kind}{slot}:{src}"));
        }
        assert!(q.max_outstanding <= 2);
        // 4 stageables: one full run of 3, then the singleton flushed by
        // the barrier.
        assert_eq!(
            q.events[..4],
            ["dispatch:3", "dispatch:1", "collect:3", "collect:1"]
        );
    }

    #[test]
    fn depth_one_serializes_runs() {
        let mut q = ScriptQueue::new(2, 1);
        let inputs = ["s"; 7];
        BatchScheduler::submit_batch(&mut q, &inputs).unwrap();
        assert_eq!(q.max_outstanding, 1);
        // Every dispatch beyond the first is preceded by the previous
        // run's collection.
        assert_eq!(
            q.events,
            [
                "dispatch:2",
                "collect:2",
                "dispatch:2",
                "collect:2",
                "dispatch:2",
                "collect:2",
                "dispatch:1",
                "collect:1"
            ]
        );
    }

    #[test]
    fn degradable_failure_drains_then_falls_back_sequentially() {
        let mut q = ScriptQueue::new(2, 2);
        q.fail_collect_containing = Some(0);
        // Runs: {0,1} (fails at collect), {2,3}, {4,5}.
        let inputs = ["s"; 6];
        let replies = BatchScheduler::submit_batch(&mut q, &inputs).unwrap();
        for (slot, r) in replies.iter().enumerate() {
            if slot < 2 {
                assert_eq!(r.output, format!("D{slot}:s"));
                assert_eq!(r.code, culi_core::ErrorCode::Degraded);
            } else {
                assert_eq!(r.output, format!("S{slot}:s"));
                assert_eq!(r.code, culi_core::ErrorCode::Ok);
            }
        }
        // The failed run's slots re-execute sequentially, in submission
        // order, only after the surviving in-flight run was drained;
        // later staging then proceeds normally.
        assert_eq!(
            q.events,
            [
                "dispatch:2",
                "dispatch:2",
                "collect-fail:2",
                "collect:2",
                "seq:0",
                "seq:1",
                "dispatch:2",
                "collect:2"
            ]
        );
    }

    #[test]
    fn done_verdicts_fill_slots_without_touching_the_pipeline() {
        let mut q = ScriptQueue::new(2, 2);
        // A cache hit between two stageables must not flush the
        // assembling run: the two `s` commands still coalesce.
        let inputs = ["s", "c", "s", "b", "c"];
        let replies = BatchScheduler::submit_batch(&mut q, &inputs).unwrap();
        assert_eq!(replies[0].output, "S0:s");
        assert_eq!(replies[1].output, "C1:c");
        assert_eq!(replies[2].output, "S2:s");
        assert_eq!(replies[3].output, "B3:b");
        assert_eq!(replies[4].output, "C4:c");
        assert_eq!(q.events, ["dispatch:2", "collect:2", "barrier:3"]);
    }

    #[test]
    fn byte_budget_starts_a_new_run() {
        let mut q = ScriptQueue::new(16, 2);
        q.byte_budget = Some(8);
        // 4+4 bytes fill a run; the third command starts the next one.
        let replies =
            BatchScheduler::submit_batch(&mut q, &["ssss", "ssss", "ssss", "ss"]).unwrap();
        assert_eq!(replies.len(), 4);
        assert_eq!(
            q.events,
            ["dispatch:2", "dispatch:2", "collect:2", "collect:2"]
        );
    }
}
