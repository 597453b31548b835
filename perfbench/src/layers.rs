//! Per-layer arms of the traced run.
//!
//! Each arm replays the workload's own command stream (the first commands
//! of every client, in the order the clients hand them over) through one
//! layer's public functions and times those calls from here. Arms are
//! fixed work, so their counts repeat exactly for a seed; every reply an
//! arm produces is checked against the generator's expected output.

use crate::drive::{Checks, Span};
use crate::gen::{section_parts, Client, Cmd, Workload};
use culi_core::effects::stageable_parallel_section;
use culi_core::structhash::StructKey;
use culi_core::{eval, gc, parser, printer, Interp, InterpConfig, NodeId, SequentialHook};
use culi_gpu_sim::device::{intel_e5_2620, tesla_k20};
use culi_runtime::{
    CacheConfig, CommandCache, GpuRepl, GpuReplConfig, Reply, Session, TenantSessionConfig,
    WorkerPool,
};
use std::hint::black_box;

/// Commands per client each arm replays.
fn arm_len(workload: Workload) -> usize {
    match workload {
        Workload::ServeLight => 128,
        Workload::PoolFib => 512,
        // Eight whole sweeps and five commands of the next, so modeled
        // device time depends on the seed.
        Workload::GpuPaper => 13 * 8 + 5,
    }
}

/// The workload's clients and the first `per_client` commands of each.
fn streams(workload: Workload, seed: u64, per_client: usize) -> (Vec<Client>, Vec<Vec<Cmd>>) {
    let mut clients = workload.clients(seed);
    let cmds = clients
        .iter_mut()
        .map(|c| (0..per_client).map(|_| c.next_cmd()).collect())
        .collect();
    (clients, cmds)
}

/// Visits the streams the way the clients hand them over: one batch of
/// each client in turn.
fn interleaved<'a>(
    workload: Workload,
    cmds: &'a [Vec<Cmd>],
) -> impl Iterator<Item = (usize, &'a [Cmd])> + 'a {
    let b = workload.batch_len();
    let per_client = cmds.first().map_or(0, Vec::len);
    (0..per_client.div_ceil(b)).flat_map(move |k| {
        cmds.iter()
            .enumerate()
            .map(move |(c, s)| (c, &s[k * b..((k + 1) * b).min(s.len())]))
    })
}

/// The interpreter limits the workload's sessions run with.
fn interp_config(workload: Workload) -> InterpConfig {
    match workload {
        Workload::ServeLight => {
            let tenant = TenantSessionConfig::default();
            InterpConfig {
                arena_capacity: tenant.arena_capacity,
                fuel_budget: tenant.fuel_budget,
                heap_limit: tenant.heap_limit,
                ..Default::default()
            }
        }
        _ => InterpConfig::default(),
    }
}

/// A bare interpreter per client with its prelude evaluated.
fn prelude_interps(workload: Workload, clients: &[Client], checks: &mut Checks) -> Vec<Interp> {
    clients
        .iter()
        .map(|client| {
            let mut interp = Interp::new(interp_config(workload));
            for cmd in &client.prelude {
                eval_checked(&mut interp, cmd, checks);
            }
            interp
        })
        .collect()
}

fn eval_checked(interp: &mut Interp, cmd: &Cmd, checks: &mut Checks) {
    checks.printed(&interp.eval_str(&cmd.text), &cmd.expected);
}

/// The interpreter's own layers and the bare `Interp::eval_str` floor.
#[derive(Debug, Default)]
pub struct CoreArm {
    /// `Interp::eval_str` (parse + eval + print, no runtime around it).
    pub floor: Span,
    /// `parser::parse`.
    pub parse: Span,
    /// `StructKey::of_forms`.
    pub structhash: Span,
    /// `effects::stageable_parallel_section`.
    pub effects: Span,
    /// `eval::eval` over the parsed forms.
    pub eval: Span,
    /// `printer::print_to_string`.
    pub print: Span,
    /// `gc::collect` after each command.
    pub gc: Span,
    /// Commands replayed.
    pub cmds: u64,
    /// Input bytes parsed.
    pub bytes_in: u64,
    /// Output bytes printed.
    pub bytes_out: u64,
    /// Commands classified as stageable `|||` sections.
    pub stageable: u64,
    /// Nodes freed by the collector.
    pub freed: u64,
    /// Output checks of both passes.
    pub checks: Checks,
}

/// Replays the stream twice on bare interpreters: once through
/// `Interp::eval_str` (the floor), once layer by layer.
pub fn core_arm(workload: Workload, seed: u64) -> CoreArm {
    let (clients, cmds) = streams(workload, seed, arm_len(workload));
    let mut arm = CoreArm::default();
    let mut floor = prelude_interps(workload, &clients, &mut arm.checks);
    let mut split = prelude_interps(workload, &clients, &mut arm.checks);
    for (c, batch) in interleaved(workload, &cmds) {
        for cmd in batch {
            let interp = &mut floor[c];
            let out = arm.floor.time(|| interp.eval_str(&cmd.text));
            arm.checks.printed(&out, &cmd.expected);
            gc::collect(interp, &[]);

            let interp = &mut split[c];
            let out = layer_by_layer(&mut arm, interp, cmd);
            arm.checks.printed(&out, &cmd.expected);
            let stats = arm.gc.time(|| gc::collect(interp, &[]));
            arm.freed += stats.freed as u64;
            arm.cmds += 1;
            arm.bytes_in += cmd.text.len() as u64;
        }
    }
    arm
}

fn layer_by_layer(arm: &mut CoreArm, interp: &mut Interp, cmd: &Cmd) -> culi_core::Result<String> {
    let forms = arm
        .parse
        .time(|| parser::parse(interp, cmd.text.as_bytes()))?;
    black_box(arm.structhash.time(|| StructKey::of_forms(interp, &forms)));
    let global = interp.global;
    if arm.effects.time(|| {
        forms
            .iter()
            .all(|&f| stageable_parallel_section(interp, global, f))
    }) {
        arm.stageable += 1;
    }
    let mut last = None;
    for &form in &forms {
        last = Some(
            arm.eval
                .time(|| eval(interp, &mut SequentialHook, form, global, 0))?,
        );
    }
    let out = match last {
        Some(node) => arm.print.time(|| printer::print_to_string(interp, node))?,
        None => String::new(),
    };
    arm.bytes_out += out.len() as u64;
    Ok(out)
}

/// The two session routes over isolated sessions.
#[derive(Debug, Default)]
pub struct SessionArm {
    /// `Session::submit_batch`, one call per client batch.
    pub batch: Span,
    /// `Session::submit_reference`, one call per command.
    pub reference: Span,
    /// Commands replayed on each route.
    pub cmds: u64,
    /// Output checks of both routes.
    pub checks: Checks,
}

fn isolated_session(workload: Workload) -> Session {
    match workload {
        Workload::ServeLight => Session::tenant(intel_e5_2620(), &TenantSessionConfig::default()),
        Workload::PoolFib => Session::cpu_threaded(intel_e5_2620(), 2),
        Workload::GpuPaper => Session::for_device(tesla_k20()),
    }
}

/// Replays each client's stream on the batch route and on the reference
/// route, each in its own isolated session (clients one after another,
/// so at most one pool is alive).
pub fn session_arm(workload: Workload, seed: u64) -> SessionArm {
    let (clients, cmds) = streams(workload, seed, arm_len(workload));
    let mut arm = SessionArm::default();
    let b = workload.batch_len();
    for (client, stream) in clients.iter().zip(&cmds) {
        let mut batched = isolated_session(workload);
        let mut reference = isolated_session(workload);
        for cmd in &client.prelude {
            arm.checks
                .submitted(&batched.submit(&cmd.text), &cmd.expected);
            arm.checks
                .submitted(&reference.submit(&cmd.text), &cmd.expected);
        }
        // The first quarter of each client's batches is an untimed
        // warm-up: it forks the batch session's pool (a one-time cost
        // `pool.launch_ms` reports) and touches fresh arena pages.
        let warm_batches = stream.len().div_ceil(b) / 4;
        let (mut batch, mut one_by_one) = (Span::default(), Span::default());
        for (k, chunk) in stream.chunks(b).enumerate() {
            if k == warm_batches {
                (batch, one_by_one) = (Span::default(), Span::default());
            }
            let refs: Vec<&str> = chunk.iter().map(|c| c.text.as_str()).collect();
            match batch.time(|| batched.submit_batch(&refs)) {
                Ok(replies) => {
                    for (reply, cmd) in replies.iter().zip(chunk) {
                        arm.checks.reply(reply, &cmd.expected);
                    }
                }
                Err(e) => {
                    for cmd in chunk {
                        arm.checks.record(false, &e.to_string(), &cmd.expected);
                    }
                }
            }
            for cmd in chunk {
                let reply = one_by_one.time(|| reference.submit_reference(&cmd.text));
                arm.checks.submitted(&reply, &cmd.expected);
            }
            if k >= warm_batches {
                arm.cmds += chunk.len() as u64;
            }
        }
        arm.batch.add(batch);
        arm.reference.add(one_by_one);
        batched.shutdown();
        reference.shutdown();
    }
    arm
}

/// The worker pool driven directly: fork, stage, collect.
#[derive(Debug, Default)]
pub struct PoolArm {
    /// `WorkerPool::launch` (forks two warm interpreters).
    pub launch: Span,
    /// `WorkerPool::stage_run`, one call per run.
    pub stage: Span,
    /// `WorkerPool::collect_next` for every section of a run, one span
    /// entry per run.
    pub collect: Span,
    /// Sections staged.
    pub sections: u64,
    /// Output checks of sections and master-side commands.
    pub checks: Checks,
}

/// Worker threads of every pool the benchmark forks (the box's core count
/// the issue fixes for all workloads).
const POOL_THREADS: usize = 2;

/// Replays each client's stream on a master interpreter plus a directly
/// driven [`WorkerPool`], coalescing consecutive `|||` sections of a
/// client batch into runs of at most `MAX_RUN_SECTIONS` like the batch
/// scheduler does; every other command runs on the master.
pub fn pool_arm(workload: Workload, seed: u64) -> PoolArm {
    let (clients, cmds) = streams(workload, seed, arm_len(workload));
    let mut arm = PoolArm::default();
    let launches = (8 / clients.len()).max(1);
    let b = workload.batch_len();
    for (client, stream) in clients.iter().zip(&cmds) {
        let mut interp = prelude_interps(workload, std::slice::from_ref(client), &mut arm.checks)
            .pop()
            .expect("one interpreter per client");
        let mut pool = None;
        for _ in 0..launches {
            drop(pool.take());
            pool = Some(
                arm.launch
                    .time(|| WorkerPool::launch(&interp, POOL_THREADS)),
            );
        }
        let mut pool = pool.expect("at least one launch");
        for chunk in stream.chunks(b) {
            let mut run: Vec<&Cmd> = Vec::new();
            for cmd in chunk {
                if section_parts(&cmd.text).is_some() && run.len() < WorkerPool::MAX_RUN_SECTIONS {
                    run.push(cmd);
                    continue;
                }
                flush_run(&mut arm, &mut pool, &mut interp, &mut run);
                if section_parts(&cmd.text).is_some() {
                    run.push(cmd);
                } else {
                    eval_checked(&mut interp, cmd, &mut arm.checks);
                    gc::collect(&mut interp, &[]);
                }
            }
            flush_run(&mut arm, &mut pool, &mut interp, &mut run);
        }
    }
    arm
}

/// Stages `run` as one pooled run and collects it. The section operands
/// are resolved on the master first, as the runtime's staging mirror does,
/// so each job is `(f value)`.
fn flush_run(arm: &mut PoolArm, pool: &mut WorkerPool, interp: &mut Interp, run: &mut Vec<&Cmd>) {
    if run.is_empty() {
        return;
    }
    let mut sections: Vec<Vec<NodeId>> = Vec::with_capacity(run.len());
    for cmd in run.iter() {
        let (func, args) = section_parts(&cmd.text).expect("run holds only sections");
        let mut jobs = Vec::with_capacity(args.len());
        for arg in &args {
            let value = interp.eval_str(arg).expect("section operands evaluate");
            let job =
                parser::parse(interp, format!("({func} {value})").as_bytes()).expect("job parses");
            jobs.push(job[0]);
        }
        sections.push(jobs);
    }
    let refs: Vec<&[NodeId]> = sections.iter().map(Vec::as_slice).collect();
    let global = interp.global;
    arm.stage.time(|| pool.stage_run(interp, &refs, global));
    let mut results: Vec<Vec<NodeId>> = vec![Vec::new(); run.len()];
    let outcome = arm.collect.time(|| {
        results
            .iter_mut()
            .map(|r| pool.collect_next(interp, r))
            .collect::<Vec<_>>()
    });
    for ((cmd, result), nodes) in run.iter().zip(outcome).zip(&results) {
        let printed: culi_core::Result<Vec<String>> = result.and_then(|()| {
            nodes
                .iter()
                .map(|&n| printer::print_to_string(interp, n))
                .collect()
        });
        let listed = printed.map(|items| format!("({})", items.join(" ")));
        arm.checks.printed(&listed, &cmd.expected);
    }
    arm.sections += run.len() as u64;
    run.clear();
    gc::collect(interp, &[]);
}

/// The reply tier of the command cache, probed directly.
#[derive(Debug, Default)]
pub struct CacheArm {
    /// `CommandCache::reply_lookup`.
    pub probe: Span,
    /// Probes that hit.
    pub hits: u64,
}

/// Probes a fresh fleet cache (one tenant view per client, as the server
/// hands out) with every command of the stream: a miss on a read inserts
/// its reply, a write advances the client's epoch.
pub fn cache_arm(workload: Workload, seed: u64) -> CacheArm {
    let (_, cmds) = streams(workload, seed, arm_len(workload));
    let mut arm = CacheArm::default();
    let fleet = CommandCache::new(CacheConfig::default());
    let views: Vec<CommandCache> = cmds.iter().map(|_| fleet.tenant_view()).collect();
    let mut epochs = vec![0u64; cmds.len()];
    let mut scratch = Interp::new(InterpConfig {
        arena_capacity: 1 << 18,
        ..Default::default()
    });
    for (c, batch) in interleaved(workload, &cmds) {
        for cmd in batch {
            let forms = parser::parse(&mut scratch, cmd.text.as_bytes()).expect("stream parses");
            let key = StructKey::of_forms(&scratch, &forms);
            let (view, epoch) = (&views[c], epochs[c]);
            let hit = arm.probe.time(|| view.reply_lookup(&key, &cmd.text, epoch));
            match hit {
                Some(_) => arm.hits += 1,
                None if cmd.write => epochs[c] += 1,
                None => {
                    let reply = Reply {
                        output: cmd.expected.clone(),
                        ok: true,
                        ..Default::default()
                    };
                    view.reply_insert(key, &cmd.text, epoch, reply);
                }
            }
            gc::collect(&mut scratch, &[]);
        }
    }
    arm
}

/// The stream on simulated Tesla K20 REPLs.
#[derive(Debug, Default)]
pub struct GpuArm {
    /// `GpuRepl::submit`.
    pub submit: Span,
    /// Modeled device nanoseconds.
    pub device_ns: f64,
    /// Simulated spin-wait iterations.
    pub spin_iters: u64,
    /// Simulated atomic operations.
    pub atomic_ops: u64,
    /// `|||` jobs the simulated devices executed.
    pub jobs: u64,
    /// Output checks.
    pub checks: Checks,
}

/// Replays each client's stream on its own `GpuRepl` (one at a time).
pub fn gpu_arm(workload: Workload, seed: u64) -> GpuArm {
    let (clients, cmds) = streams(workload, seed, arm_len(workload));
    let mut arm = GpuArm::default();
    for (client, stream) in clients.iter().zip(&cmds) {
        let mut repl = GpuRepl::launch(tesla_k20(), GpuReplConfig::default());
        for cmd in &client.prelude {
            arm.checks.submitted(&repl.submit(&cmd.text), &cmd.expected);
        }
        let stats0 = repl.stats();
        let device0 = repl.elapsed_device_ns();
        for cmd in stream {
            let reply = arm.submit.time(|| repl.submit(&cmd.text));
            arm.checks.submitted(&reply, &cmd.expected);
        }
        let stats = repl.stats();
        arm.device_ns += repl.elapsed_device_ns() - device0;
        arm.spin_iters += stats.spin_iterations - stats0.spin_iterations;
        arm.atomic_ops += stats.atomic_ops - stats0.atomic_ops;
        arm.jobs += stats.jobs_executed - stats0.jobs_executed;
        repl.shutdown();
    }
    arm
}
