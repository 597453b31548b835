//! The command lifecycle every backend shares, and its phase accounting:
//! operation counts → device cycles → milliseconds.
//!
//! The paper's evaluation (Figs. 14–18) prices the same counted
//! operations on every device, and splits every command into three
//! phases — parsing, evaluating, printing. Only the machine underneath
//! changes, so the lifecycle lives here once, over the two-method
//! [`Machine`] trait that the GPU's persistent kernel and the CPU
//! builds' machine both implement. A session lends its interpreter,
//! machine and scratch to a `Master` for one command:
//!
//! 1. `Master::parse` parses and charges the parse phase;
//! 2. `eval_forms` evaluates through any `|||` backend — the real-threads
//!    pool, the sequential reference, or `Master::eval_modeled`'s one
//!    modeled hook, which prices each job and times the section on the
//!    machine;
//! 3. `Master::finish` charges the evaluate phase, prints, charges the
//!    print phase, collects garbage and builds the [`Reply`], whose
//!    [`PhaseBreakdown`] records the three phases; `Master::fail` is the
//!    same tail for a command that failed.
//!
//! Each phase is exactly one machine call, so per-call integer rounding
//! (the GPU's spin-iteration count) is the same on every path. Callers
//! keep only what differs per backend: the choice of `|||` hook, command
//! buffers and transfer time, wall-clock time and extra GC roots.

use crate::error::Result;
use crate::reply::Reply;
use culi_core::cost::Counters;
use culi_core::eval::{eval, ParallelHook};
use culi_core::{CuliError, ErrorCode, Interp, NodeId};
use culi_gpu_sim::{CostTable, DeviceSpec, Machine, SectionReport, SimError};

/// Converts one phase's operation counts into device cycles under a cost
/// table. This is the *entire* timing model: exact counts × calibrated
/// per-op prices.
pub fn counters_to_cycles(costs: &CostTable, c: &Counters) -> u64 {
    c.chars_scanned * costs.char_scan
        + c.nodes_alloc * costs.node_alloc
        + c.nodes_freed * costs.node_read
        + c.node_reads * costs.node_read
        + c.eval_steps * costs.eval_step
        + c.env_probes * costs.env_probe
        + c.symbol_cmp_bytes * costs.sym_cmp_byte
        + c.arith_ops * costs.arith
        + c.builtin_calls * costs.builtin_call
        + c.form_applies * costs.form_apply
        + c.output_bytes * costs.output_byte
        + c.number_formats * costs.num_format
}

/// Paper-model operation counters of one REPL command, split the way the
/// cost model attributes them. Every backend fills this identically for
/// the same program — the cross-backend differential harness asserts it —
/// so `parse`/`eval_master`/`print` cover the master thread's three
/// phases and `jobs` covers work evaluated inside `|||` workers (measured
/// in the worker interpreters for the real-threads backends, separated on
/// the master meter for the modeled ones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandCounters {
    /// Tokenize/parse phase.
    pub parse: Counters,
    /// Master-side evaluation work (job evaluation excluded).
    pub eval_master: Counters,
    /// Work evaluated inside `|||` section jobs (nested sections counted
    /// once). Backend synchronization traffic — flat-codec encode/decode,
    /// sync replay, fork imports — is *not* paper-model work and is never
    /// charged here or anywhere else.
    pub jobs: Counters,
    /// Print phase.
    pub print: Counters,
}

impl CommandCounters {
    /// Element-wise sum of all four groups: the command's total
    /// paper-model work regardless of where it ran.
    pub fn combined(&self) -> Counters {
        let mut total = self.parse;
        total.add(&self.eval_master);
        total.add(&self.jobs);
        total.add(&self.print);
        total
    }
}

/// Per-phase timing of one REPL command on one device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Parse phase, device cycles.
    pub parse_cycles: u64,
    /// Evaluation phase, device cycles (master dispatch + parallel-section
    /// time; worker compute is inside the section's execute time).
    pub eval_cycles: u64,
    /// Print phase, device cycles.
    pub print_cycles: u64,
    /// Host↔device transfer overhead, nanoseconds.
    pub transfer_ns: u64,
    /// Device clock in MHz (to render cycles as time).
    pub clock_mhz: u32,
}

impl PhaseBreakdown {
    /// Total device cycles across the three phases.
    pub fn total_cycles(&self) -> u64 {
        self.parse_cycles + self.eval_cycles + self.print_cycles
    }

    fn to_ms(self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz as f64 * 1_000.0)
    }

    /// Parse time in milliseconds.
    pub fn parse_ms(&self) -> f64 {
        self.to_ms(self.parse_cycles)
    }

    /// Evaluation time in milliseconds.
    pub fn eval_ms(&self) -> f64 {
        self.to_ms(self.eval_cycles)
    }

    /// Print time in milliseconds.
    pub fn print_ms(&self) -> f64 {
        self.to_ms(self.print_cycles)
    }

    /// Kernel execution time in milliseconds (sum of the three phases —
    /// the quantity of paper Fig. 16a).
    pub fn execution_ms(&self) -> f64 {
        self.to_ms(self.total_cycles())
    }

    /// Total including host transfer, milliseconds (paper Fig. 15).
    pub fn runtime_ms(&self) -> f64 {
        self.execution_ms() + self.transfer_ns as f64 / 1e6
    }

    /// `(parse, eval, print)` shares of the kernel time, each in `[0, 1]`
    /// (paper Figs. 17/18). All zeros for an empty command.
    pub fn proportions(&self) -> (f64, f64, f64) {
        let total = self.total_cycles();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.parse_cycles as f64 / t,
            self.eval_cycles as f64 / t,
            self.print_cycles as f64 / t,
        )
    }
}

/// The master thread of one session, as one command's lifecycle sees it:
/// the interpreter, the machine it runs on, and the rest of the session
/// state the lifecycle touches.
pub(crate) struct Master<'a> {
    /// The session's interpreter.
    pub(crate) interp: &'a mut Interp,
    /// The machine the master's phases (and modeled sections) charge.
    pub(crate) machine: &'a mut dyn Machine,
    /// The device whose cost table prices the counters.
    pub(crate) spec: DeviceSpec,
    /// Nodes the between-command garbage collection must keep.
    pub(crate) gc_roots: &'a [NodeId],
    /// The session's reused per-job cycle scratch for modeled sections.
    pub(crate) job_cycles: &'a mut Vec<u64>,
}

impl Master<'_> {
    /// Parses `input` and charges the parse phase. Returns the parse
    /// result with the phase's counters.
    pub(crate) fn parse(
        &mut self,
        input: &str,
    ) -> Result<(culi_core::Result<Vec<NodeId>>, Counters)> {
        let m = self.interp.meter.snapshot();
        let parsed = culi_core::parser::parse(self.interp, input.as_bytes());
        let parse = self.interp.meter.snapshot().delta_since(&m);
        self.machine
            .serial_compute(counters_to_cycles(&self.spec.costs, &parse))?;
        Ok((parsed, parse))
    }

    /// Evaluates `forms` with every `|||` section modeled on the machine:
    /// jobs run one after another on the master interpreter, each job's
    /// own counters are priced, and the machine times the section. A
    /// machine failure (livelock, stopped kernel) is a
    /// [`crate::RuntimeError::Device`].
    pub(crate) fn eval_modeled(&mut self, forms: &[NodeId], parse: Counters) -> Result<Evaluated> {
        let mut hook = ModeledHook {
            machine: &mut *self.machine,
            costs: &self.spec.costs,
            jobs: Counters::default(),
            sections: Vec::new(),
            sim_error: None,
            job_cycles: &mut *self.job_cycles,
        };
        let (value, total) = eval_forms(self.interp, &mut hook, forms);
        if let Some(e) = hook.sim_error {
            return Err(e.into());
        }
        Ok(Evaluated {
            value,
            counters: CommandCounters {
                parse,
                eval_master: total.delta_since(&hook.jobs),
                jobs: hook.jobs,
                print: Counters::default(),
            },
            sections: hook.sections,
        })
    }

    /// The tail of every command on every backend: charges the master's
    /// evaluate work plus `dispatch_overhead` (the REPL's spin-wake, loop
    /// re-entry and signalling), prints the value, charges the print,
    /// then collects garbage and builds the reply. A failed evaluation or
    /// print becomes an `ok == false` reply carrying the work metered up
    /// to the failure. Transfer and wall-clock time stay zero for the
    /// caller to fill in.
    pub(crate) fn finish(self, evaluated: Evaluated, dispatch_overhead: u64) -> Result<Reply> {
        let Evaluated {
            value,
            mut counters,
            sections,
        } = evaluated;
        let costs = self.spec.costs;
        self.machine.serial_compute(
            counters_to_cycles(&costs, &counters.eval_master) + dispatch_overhead,
        )?;
        let m = self.interp.meter.snapshot();
        let printed = match value {
            Ok(Some(node)) => culi_core::printer::print_to_string(self.interp, node),
            Ok(None) => Ok(String::new()),
            Err(e) => return Ok(self.fail(e, counters)),
        };
        counters.print = self.interp.meter.snapshot().delta_since(&m);
        let output = match printed {
            Ok(output) => output,
            Err(e) => return Ok(self.fail(e, counters)),
        };
        self.machine
            .serial_compute(counters_to_cycles(&costs, &counters.print))?;
        let section_cycles = sections
            .iter()
            .map(SectionReport::total_cycles)
            .sum::<u64>();
        Ok(self.reply(
            Ok(output),
            counters,
            sections,
            section_cycles + dispatch_overhead,
        ))
    }

    /// The reply of a command that failed with `e` after the metered work
    /// in `counters`, which the caller has already charged.
    pub(crate) fn fail(self, e: CuliError, counters: CommandCounters) -> Reply {
        self.reply(Err(e), counters, Vec::new(), 0)
    }

    /// Collects garbage and builds the reply. `extra_eval_cycles` is
    /// device time the evaluate phase spent beyond the master's counters.
    fn reply(
        self,
        outcome: std::result::Result<String, CuliError>,
        counters: CommandCounters,
        sections: Vec<SectionReport>,
        extra_eval_cycles: u64,
    ) -> Reply {
        culi_core::gc::collect(self.interp, self.gc_roots);
        let (output, code) = match outcome {
            Ok(output) => (output, ErrorCode::Ok),
            Err(e) => (format!("error: {e}"), e.code()),
        };
        let cycles = |c: &Counters| counters_to_cycles(&self.spec.costs, c);
        Reply {
            output,
            ok: code == ErrorCode::Ok,
            code,
            phases: PhaseBreakdown {
                parse_cycles: cycles(&counters.parse),
                eval_cycles: cycles(&counters.eval_master) + extra_eval_cycles,
                print_cycles: cycles(&counters.print),
                transfer_ns: 0,
                clock_mhz: self.spec.clock_mhz,
            },
            counters,
            sections,
            wall_ns: 0,
        }
    }
}

/// Evaluates `forms` in order through `hook`. Returns the last value
/// (`None` for an empty command) or the first error, plus the master
/// meter's delta over the whole phase — `|||` jobs metered on the master
/// included; the caller subtracts those.
pub(crate) fn eval_forms(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    forms: &[NodeId],
) -> (culi_core::Result<Option<NodeId>>, Counters) {
    let m = interp.meter.snapshot();
    let mut value = Ok(None);
    for &form in forms {
        value = eval(interp, hook, form, interp.global, 0).map(Some);
        if value.is_err() {
            break;
        }
    }
    (value, interp.meter.snapshot().delta_since(&m))
}

/// A command after its evaluate phase, ready for [`Master::finish`].
#[derive(Debug)]
pub(crate) struct Evaluated {
    /// The last form's value, or the first error.
    pub(crate) value: culi_core::Result<Option<NodeId>>,
    /// Parse, master-eval and job counters (`print` is still zero).
    pub(crate) counters: CommandCounters,
    /// One report per modeled `|||` section (none on real threads).
    pub(crate) sections: Vec<SectionReport>,
}

/// The one modeled `|||` backend, for every [`Machine`].
struct ModeledHook<'m> {
    machine: &'m mut dyn Machine,
    costs: &'m CostTable,
    /// Counters of every job's own work (nested sections counted once).
    jobs: Counters,
    sections: Vec<SectionReport>,
    sim_error: Option<SimError>,
    job_cycles: &'m mut Vec<u64>,
}

impl ParallelHook for ModeledHook<'_> {
    fn execute(
        &mut self,
        interp: &mut Interp,
        jobs: &[NodeId],
        parent_env: culi_core::EnvId,
        results: &mut Vec<NodeId>,
    ) -> culi_core::Result<()> {
        // Swap the pooled buffer out for this section: a nested ||| inside
        // a job re-enters execute and must not clobber the outer section's
        // cycles (the nested level starts from a fresh buffer instead).
        let mut cycles = std::mem::take(self.job_cycles);
        cycles.clear();
        for (w, &job) in jobs.iter().enumerate() {
            let env = interp.envs.push(Some(parent_env));
            let before = interp.meter.snapshot();
            let nested_before = self.jobs;
            let value = match eval(interp, self, job, env, 0) {
                Ok(v) => v,
                Err(e) => {
                    *self.job_cycles = cycles;
                    return Err(CuliError::WorkerFailed {
                        worker: w,
                        message: e.to_string(),
                    });
                }
            };
            // A nested ||| inside this job already accounted its own
            // workers; bill only this job's own operations.
            let nested = self.jobs.delta_since(&nested_before);
            let own = interp
                .meter
                .snapshot()
                .delta_since(&before)
                .delta_since(&nested);
            self.jobs.add(&own);
            cycles.push(counters_to_cycles(self.costs, &own));
            results.push(value);
        }
        let outcome = self.machine.parallel_section(&cycles);
        *self.job_cycles = cycles;
        match outcome {
            Ok(report) => {
                self.sections.push(report);
                Ok(())
            }
            Err(e) => {
                let msg = e.to_string();
                self.sim_error = Some(e);
                Err(CuliError::Backend(msg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culi_gpu_sim::device::gtx1080;

    #[test]
    fn counters_to_cycles_is_linear() {
        let costs = gtx1080().costs;
        let a = Counters {
            chars_scanned: 10,
            ..Default::default()
        };
        let b = Counters {
            chars_scanned: 20,
            ..Default::default()
        };
        assert_eq!(
            2 * counters_to_cycles(&costs, &a),
            counters_to_cycles(&costs, &b)
        );
        assert_eq!(counters_to_cycles(&costs, &Counters::default()), 0);
    }

    #[test]
    fn proportions_sum_to_one() {
        let p = PhaseBreakdown {
            parse_cycles: 500,
            eval_cycles: 300,
            print_cycles: 200,
            transfer_ns: 0,
            clock_mhz: 1000,
        };
        let (a, b, c) = p.proportions();
        assert!((a + b + c - 1.0).abs() < 1e-12);
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ms_conversion_uses_clock() {
        let p = PhaseBreakdown {
            parse_cycles: 1_000_000,
            eval_cycles: 0,
            print_cycles: 0,
            transfer_ns: 500_000,
            clock_mhz: 1000, // 1 GHz → 1e6 cycles = 1 ms
        };
        assert!((p.parse_ms() - 1.0).abs() < 1e-9);
        assert!((p.runtime_ms() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_has_zero_proportions() {
        let p = PhaseBreakdown {
            clock_mhz: 1000,
            ..Default::default()
        };
        assert_eq!(p.proportions(), (0.0, 0.0, 0.0));
    }
}
