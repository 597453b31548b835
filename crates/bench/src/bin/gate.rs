//! `gate` — the bench-regression gate: re-measures every gated claim of
//! the runtime and checks it against one committed baseline.
//!
//! ```text
//! cargo run --release -p culi-bench --bin gate -- <out.json>
//! ```
//!
//! Each arm re-runs one claim's workload, asserts the claim's correctness
//! conditions (zero warm interpreter clones, byte-identical replies,
//! bit-identical counters, prompt hung-worker recovery) and records one
//! fresh metric per [`RULES`] entry. Every metric is then checked:
//!
//! * [`Kind::Higher`]: `fresh ≥ max(baseline / BAND, floor)`;
//! * [`Kind::Lower`]: `fresh ≤ max(baseline × BAND, allowance)`;
//! * [`Kind::Floor`] and [`Kind::Ceiling`]: absolute bars, no baseline.
//!
//! The baselines are `BENCH_gate.json`, compiled in. Each value is copied
//! verbatim from the `BENCH_prN.json` that first recorded it; those files
//! stay as the history of every informational row this gate no longer
//! measures. The fresh metrics are written to `<out.json>` before the
//! checks run, so a failing gate still leaves its numbers. The argument
//! is required and may not name a committed `BENCH_*.json`.
//! `CULI_BENCH_FAST=1` shortens the command-cache streams.

use culi_bench::jsonout::{Json, JsonValue};
use culi_bench::workload;
use culi_core::cost::FUEL_UNLIMITED;
use culi_core::fault::{FaultKind, FaultPlan, FaultSite};
use culi_core::{Interp, InterpConfig};
use culi_runtime::scheduler::{BatchScheduler, ExecQueue, Verdict};
use culi_runtime::{
    CacheConfig, CommandCache, CpuMode, CpuRepl, CpuReplConfig, GpuRepl, GpuReplConfig, Reply,
    ServerConfig, Session, SessionServer, TenantSessionConfig, ThreadedHook,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// How a fresh metric is held to its bound.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// Higher is better: `fresh ≥ max(baseline / BAND, floor)`.
    Higher,
    /// Lower is better: `fresh ≤ max(baseline × BAND, allowance)`.
    Lower,
    /// Absolute floor, no baseline: `fresh ≥ floor`.
    Floor,
    /// Absolute ceiling, no baseline: `fresh ≤ allowance`.
    Ceiling,
}

/// Tolerance for baseline-relative metrics: CI runners are noisier than
/// the machines that recorded the baselines.
const BAND: f64 = 1.6;

/// One entry per gated metric: key, kind, and the floor (`Higher`,
/// `Floor`) or allowance (`Lower`, `Ceiling`).
const RULES: &[(&str, Kind, f64)] = &[
    // Consecutive pooled sections share one rendezvous per run.
    ("pipelined_speedup_vs_rendezvous", Kind::Floor, 2.0),
    // Computed-operand sections pipeline instead of barriering.
    ("effects_speedup_vs_syntactic", Kind::Higher, 2.0),
    ("computed_count_speedup_vs_syntactic", Kind::Higher, 2.0),
    // Modeled and deterministic: batched GPU command buffers.
    ("gpu_transfer_saved_ratio", Kind::Higher, 1.05),
    // Modeled and deterministic: four devices vs one.
    ("multi_device_speedup", Kind::Higher, 2.0),
    ("sched_overhead_ns", Kind::Lower, 0.0),
    // The fuel check is one integer compare: anything above noise is a
    // regression, whatever the baseline read.
    ("fuel_overhead_pct", Kind::Ceiling, 2.0),
    ("multi_tenant_speedup", Kind::Higher, 2.0),
    // The allowance absorbs scheduler jitter on sub-millisecond p99s.
    ("noisy_p99_ratio", Kind::Lower, 3.0),
    // The hit-rate floor keeps the speedup from coming from a disabled
    // cache.
    ("zipf_speedup", Kind::Higher, 5.0),
    ("reply_hit_rate", Kind::Higher, 0.50),
    ("miss_overhead", Kind::Lower, 1.5),
    // The allowance absorbs jitter on the ~50 ms watchdog recovery.
    ("hung_recovery_ms", Kind::Lower, 500.0),
];

const BASELINE: &str = include_str!("../../../../BENCH_gate.json");

/// Checks one fresh metric against its rule; `Ok` and `Err` both carry
/// the report line. A baseline-relative rule whose key the baseline
/// lacks fails.
fn check(rule: (&str, Kind, f64), fresh: f64, baseline: &JsonValue) -> Result<String, String> {
    let (key, kind, limit) = rule;
    let base = || {
        baseline
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("  FAIL {key}: BENCH_gate.json has no baseline for it"))
    };
    let (pass, op, bound) = match kind {
        Kind::Higher => {
            let bound = (base()? / BAND).max(limit);
            (fresh >= bound, ">=", bound)
        }
        Kind::Lower => {
            let bound = (base()? * BAND).max(limit);
            (fresh <= bound, "<=", bound)
        }
        Kind::Floor => (fresh >= limit, ">=", limit),
        Kind::Ceiling => (fresh <= limit, "<=", limit),
    };
    let line = format!("{key}: fresh {fresh:.3} (required {op} {bound:.3})");
    if pass {
        Ok(format!("  ok   {line}"))
    } else {
        Err(format!("  FAIL {line}"))
    }
}

/// Checks every rule against `fresh`; a metric `fresh` lacks fails.
fn gate(fresh: &[(&str, f64)], baseline: &JsonValue) -> Vec<Result<String, String>> {
    RULES
        .iter()
        .map(|&rule| match fresh.iter().find(|(key, _)| *key == rule.0) {
            Some(&(_, value)) => check(rule, value, baseline),
            None => Err(format!("  FAIL {}: not measured", rule.0)),
        })
        .collect()
}

/// The one argument: where to write the fresh metrics. Refuses a missing
/// or extra argument and any `BENCH_*.json`, so a run never overwrites
/// the committed baselines or their history.
fn out_path(mut args: impl Iterator<Item = String>) -> Result<String, String> {
    let (Some(path), None) = (args.next(), args.next()) else {
        return Err("usage: gate <out.json>".into());
    };
    let name = Path::new(&path).file_name().and_then(|n| n.to_str());
    if name.is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json")) {
        return Err(format!("refusing to overwrite the committed {path}"));
    }
    Ok(path)
}

fn main() {
    let out = out_path(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let baseline = JsonValue::parse(BASELINE).expect("BENCH_gate.json is valid JSON");

    // First, before any pool has run in this process: the scheduler's
    // nanosecond-scale cost, right after the multi-device arm as when its
    // baseline was recorded (measured first, it read ~7% higher), then
    // fuel.
    let mut fresh = vec![
        ("multi_device_speedup", multi_device_speedup()),
        ("sched_overhead_ns", sched_overhead_ns()),
        ("fuel_overhead_pct", fuel_overhead_pct()),
    ];
    assert_pooled_sections_do_not_clone();
    assert_warm_batch_does_not_clone(
        &[
            "(||| 8 fib (4 4 4 4 4 4 4 4))",
            "(||| 8 bump (1 2 3 4 5 6 7 8))",
        ]
        .repeat(32),
    );
    fresh.push((
        "pipelined_speedup_vs_rendezvous",
        batch_speedup("(||| 8 + (1 2 3 4 5 6 7 8) (1 2 3 4 5 6 7 8))"),
    ));
    let list_operand = "(||| 8 + (1 2 3 4 5 6 7 8) (list c c c c c c c c))";
    let computed_count = "(||| (+ 4 4) sq (1 2 3 4 5 6 7 8))";
    assert_warm_batch_does_not_clone(&[list_operand, computed_count].repeat(BATCH_LEN / 2));
    fresh.push(("effects_speedup_vs_syntactic", batch_speedup(list_operand)));
    fresh.push((
        "computed_count_speedup_vs_syntactic",
        batch_speedup(computed_count),
    ));
    fresh.push(("gpu_transfer_saved_ratio", gpu_transfer_saved_ratio()));
    let (multi_tenant_speedup, noisy_p99_ratio) = serving();
    fresh.push(("multi_tenant_speedup", multi_tenant_speedup));
    fresh.push(("noisy_p99_ratio", noisy_p99_ratio));
    let (zipf_speedup, reply_hit_rate, miss_overhead) = command_cache();
    fresh.push(("zipf_speedup", zipf_speedup));
    fresh.push(("reply_hit_rate", reply_hit_rate));
    fresh.push(("miss_overhead", miss_overhead));
    // Last: the hung seat sleeps past its deadline and must not overlap
    // a timed arm.
    fresh.push(("hung_recovery_ms", hung_recovery_ms()));

    let doc = Json::Obj(fresh.iter().map(|&(k, v)| (k, Json::Num(v))).collect());
    std::fs::write(&out, doc.pretty() + "\n").expect("write the fresh metrics");
    println!("wrote {out}\nbench gate vs BENCH_gate.json (band {BAND}):");
    let mut failed = false;
    for line in gate(&fresh, &baseline) {
        failed |= line.is_err();
        println!("{}", line.unwrap_or_else(|e| e));
    }
    if failed {
        eprintln!("bench-regression gate FAILED");
        std::process::exit(1);
    }
    println!("bench-regression gate passed");
}

/// Runs `f` repeatedly, returning the median ns per call over 9 batches
/// sized to take roughly a millisecond each.
fn measure<O>(mut f: impl FnMut() -> O) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        if t.elapsed().as_micros() >= 1000 || batch >= 1 << 22 {
            break;
        }
        batch *= 2;
    }
    let mut times: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

// --- Pooled sections and batches -----------------------------------------

const BATCH_LEN: usize = 32;
/// `fib` and the dirtying `bump` for the pipelining arms, `c` and `sq`
/// for the computed-operand arms.
const PRELUDE: &[&str] = &[
    workload::FIB_DEFUN,
    "(setq total 100)",
    "(defun bump (x) (progn (setq total (+ total x)) total))",
    "(setq c 3)",
    "(defun sq (x) (* x x))",
];

/// A warm-prelude session on an 8-seat pool.
fn pooled() -> CpuRepl {
    let mut repl = CpuRepl::launch(
        culi_gpu_sim::device::intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 16,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads: 8 },
            ..Default::default()
        },
    );
    for line in PRELUDE {
        assert!(repl.submit(line).unwrap().ok, "{line}");
    }
    repl
}

/// 64 warm sections through the raw pooled hook, collecting after each,
/// never clone the interpreter.
fn assert_pooled_sections_do_not_clone() {
    let mut i = Interp::new(InterpConfig {
        arena_capacity: 1 << 16,
        ..Default::default()
    });
    i.eval_str(workload::FIB_DEFUN).unwrap();
    let section = "(||| 8 fib (4 4 4 4 4 4 4 4))";
    let mut hook = ThreadedHook::new(8);
    i.eval_str_with(section, &mut hook).unwrap(); // fork the pool
    let before = i.clone_count();
    for _ in 0..64 {
        i.eval_str_with(section, &mut hook).unwrap();
        culi_core::gc::collect(&mut i, &[]);
    }
    assert_eq!(
        i.clone_count() - before,
        0,
        "warm pooled sections must not clone"
    );
}

/// A warm 8-seat pool runs `batch` again, dirty seats included, without
/// cloning the interpreter.
fn assert_warm_batch_does_not_clone(batch: &[&str]) {
    let mut repl = pooled();
    repl.submit_batch(batch).unwrap();
    let before = repl.interp_mut().clone_count();
    for reply in repl.submit_batch(batch).unwrap() {
        assert!(reply.ok, "{}", reply.output);
    }
    let clones = repl.interp_mut().clone_count() - before;
    assert_eq!(clones, 0, "warm batches must not clone the interpreter");
}

/// Per-command time of a warm `submit` loop (one rendezvous per command)
/// over a warm `submit_batch` (one rendezvous per run of stageable
/// commands), on `BATCH_LEN` copies of `section` and 8 seats.
fn batch_speedup(section: &str) -> f64 {
    let batch = vec![section; BATCH_LEN];
    let mut looped = pooled();
    for line in &batch {
        looped.submit(line).unwrap();
    }
    let looped_ns = measure(|| {
        batch
            .iter()
            .map(|line| looped.submit(line).unwrap())
            .count()
    });
    let mut batched = pooled();
    batched.submit_batch(&batch).unwrap();
    looped_ns / measure(|| batched.submit_batch(&batch).unwrap())
}

/// Modeled transfer time of a computed-operand stream on the simulated
/// GPU, submit loop over batch: a batch uploads one command buffer and
/// waits for one reply handshake per run.
fn gpu_transfer_saved_ratio() -> f64 {
    let inputs: Vec<&str> = std::iter::once("(setq c 3)")
        .chain(std::iter::repeat_n("(||| 2 + (1 2) (list c c))", BATCH_LEN))
        .collect();
    let transfer = |batched: bool| {
        let mut repl = GpuRepl::launch(culi_gpu_sim::device::gtx1080(), GpuReplConfig::default());
        let replies = if batched {
            repl.submit_batch(&inputs).unwrap()
        } else {
            inputs.iter().map(|s| repl.submit(s).unwrap()).collect()
        };
        assert!(replies.iter().all(|r| r.ok));
        let transfer_ns: u64 = replies.iter().map(|r| r.phases.transfer_ns).sum();
        (transfer_ns as f64, repl.elapsed_device_ns())
    };
    let (loop_transfer, loop_device_ns) = transfer(false);
    let (batch_transfer, batch_device_ns) = transfer(true);
    assert!(
        batch_device_ns < loop_device_ns,
        "batched GPU runs must also amortize the dispatch overhead"
    );
    loop_transfer / batch_transfer
}

// --- Batch scheduler and multi-device sharding ---------------------------

/// Modeled makespan of 64 device-bound sections (16 fib-7 jobs each) on
/// one simulated device over four. Sharding may only move modeled time
/// between device clocks, so every reply must be bit-identical.
fn multi_device_speedup() -> f64 {
    let makespan = |devices: usize| {
        let mut repl = GpuRepl::launch(
            culi_gpu_sim::device::gtx1080(),
            GpuReplConfig {
                device_count: devices,
                ..Default::default()
            },
        );
        repl.submit(workload::FIB_DEFUN).unwrap();
        let section = "(||| 16 fib (7 7 7 7 7 7 7 7 7 7 7 7 7 7 7 7))";
        let inputs = vec![section; 4 * GpuRepl::MAX_RUN_COMMANDS];
        let before = repl.device_elapsed_ns();
        let replies = repl.submit_batch(&inputs).unwrap();
        let after = repl.device_elapsed_ns();
        assert!(replies.iter().all(|r| r.ok));
        let ns = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .fold(0.0, f64::max);
        (ns, replies)
    };
    let (t1, replies1) = makespan(1);
    let (t4, replies4) = makespan(4);
    for (k, (a, b)) in replies1.iter().zip(&replies4).enumerate() {
        assert_eq!(a.output, b.output, "cmd {k}: output diverged across shards");
        assert_eq!(
            a.counters, b.counters,
            "cmd {k}: per-command counters must be bit-identical across device counts"
        );
    }
    t1 / t4
}

/// A queue whose operations are pure bookkeeping: measures the scheduler
/// state machine itself.
struct NullQueue;

impl<'i> ExecQueue<'i> for NullQueue {
    type Staged = (usize, &'i str);
    type Barrier = &'i str;
    type Run = Vec<(usize, &'i str)>;

    fn max_run_len(&self) -> usize {
        16
    }

    fn pipeline_depth(&self) -> usize {
        2
    }

    fn classify_and_stage(
        &mut self,
        input: &'i str,
        slot: usize,
    ) -> culi_runtime::Result<Verdict<Self::Staged, Self::Barrier>> {
        Ok(if input.as_bytes()[0] == b'b' {
            Verdict::Barrier(input)
        } else {
            Verdict::Stage((slot, input))
        })
    }

    fn dispatch(&mut self, run: Vec<Self::Staged>) -> culi_runtime::Result<Self::Run> {
        Ok(run)
    }

    fn collect(
        &mut self,
        run: Self::Run,
        replies: &mut [Option<Reply>],
    ) -> culi_runtime::Result<()> {
        for (slot, _) in run {
            replies[slot] = Some(ok_reply());
        }
        Ok(())
    }

    fn run_sequential(
        &mut self,
        _input: &'i str,
        _slot: usize,
        _replies: &mut [Option<Reply>],
    ) -> culi_runtime::Result<()> {
        // Only reached for slots surfaced by `take_failed`; the default
        // impl reports none, so the null queue never degrades.
        unreachable!("NullQueue never degrades")
    }

    fn run_barrier(
        &mut self,
        _barrier: &'i str,
        slot: usize,
        replies: &mut [Option<Reply>],
    ) -> culi_runtime::Result<()> {
        replies[slot] = Some(ok_reply());
        Ok(())
    }
}

fn ok_reply() -> Reply {
    Reply {
        ok: true,
        ..Default::default()
    }
}

/// The scheduler's own ns per command over [`NullQueue`]: classify, run
/// assembly, pipeline accounting and re-sequencing, with one barrier per
/// 8 commands so the drain path is on the hot loop too.
fn sched_overhead_ns() -> f64 {
    let sources: Vec<String> = (0..256)
        .map(|k| {
            if k % 8 == 7 {
                format!("b{k}")
            } else {
                format!("s{k}")
            }
        })
        .collect();
    let inputs: Vec<&str> = sources.iter().map(String::as_str).collect();
    measure(|| BatchScheduler::submit_batch(&mut NullQueue, &inputs).unwrap()) / inputs.len() as f64
}

// --- Runaway containment -------------------------------------------------

/// Wall-clock cost of a finite fuel budget on `(fib 15)`, in percent of
/// the unlimited run. Both configurations do identical work, collect
/// between evaluations, and interleave so frequency drift hits both.
fn fuel_overhead_pct() -> f64 {
    let fib15_ns = |fuel_budget: u64| {
        let mut i = Interp::new(InterpConfig {
            arena_capacity: 1 << 17,
            fuel_budget,
            ..Default::default()
        });
        i.eval_str(workload::FIB_DEFUN).unwrap();
        assert_eq!(i.eval_str("(fib 15)").unwrap(), "610");
        measure(|| {
            let out = i.eval_str("(fib 15)").unwrap();
            culi_core::gc::collect(&mut i, &[]);
            out
        })
    };
    let (mut unlimited, mut fueled) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        unlimited = unlimited.min(fib15_ns(FUEL_UNLIMITED));
        fueled = fueled.min(fib15_ns(1_000_000));
    }
    (fueled / unlimited - 1.0) * 100.0
}

/// Wall-clock ms of the submit during which a scripted worker hang fires
/// and the session recovers: watchdog write-off at the 50 ms deadline,
/// seat respawn and a sequential re-run. The reply must still be the
/// correct successful one.
fn hung_recovery_ms() -> f64 {
    let plan = FaultPlan::single(FaultSite::WorkerSection, FaultKind::Hang, 2);
    let mut repl = CpuRepl::launch(
        culi_gpu_sim::device::intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads: 2 },
            reply_deadline: Duration::from_millis(50),
            fault_plan: plan.clone(),
            ..Default::default()
        },
    );
    assert!(repl.submit(workload::FIB_DEFUN).unwrap().ok);
    let mut recovery = None;
    // The hang is scripted at a fixed accept-event index; loop a few
    // sections so the measurement is robust to where sync messages land.
    for _ in 0..8 {
        let fired_before = plan.injected_count() >= 1;
        let t = Instant::now();
        let reply = repl.submit("(||| 2 fib (10 11))").unwrap();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(reply.ok, "degraded submit must succeed: {}", reply.output);
        assert_eq!(reply.output, "(55 89)");
        if !fired_before && plan.injected_count() >= 1 {
            recovery = Some(ms);
        }
    }
    let ms = recovery.expect("the scripted hang never fired");
    assert_eq!(plan.injected_count(), 1, "exactly one scripted injection");
    assert!(
        ms < 5000.0,
        "hung-worker recovery must be prompt, took {ms:.0} ms"
    );
    ms
}

// --- Multi-tenant serving ------------------------------------------------

/// Best-of-3 runs per side, so one scheduler hiccup cannot fail the gate.
const REPS: usize = 3;

/// The per-tenant command stream: definition, env mutation, one `|||`
/// section (this is what forks a pool in the naive arm), scalar reads.
fn tenant_stream(t: usize) -> Vec<String> {
    vec![
        "(defun sq (x) (* x x))".to_string(),
        format!("(setq v {})", t % 50),
        "(||| 2 sq (2 3))".to_string(),
        "(+ v 9)".to_string(),
        "(list v v)".to_string(),
        "(* v 3)".to_string(),
    ]
}

fn tenant_cfg() -> TenantSessionConfig {
    TenantSessionConfig {
        arena_capacity: 1 << 13,
        ..Default::default()
    }
}

/// Server throughput over one pooled session per tenant at 256 tenants,
/// and healthy tenants' p99 completion beside a fuel-exhausting noisy
/// neighbor over the same 64 tenants alone.
fn serving() -> (f64, f64) {
    let (mut naive, mut server) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        naive = naive.min(run_naive(256));
        server = server.min(run_server(256, false).0);
    }
    let (mut alone, mut beside) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        alone = alone.min(run_server(64, false).1);
        beside = beside.min(run_server(64, true).1);
    }
    (naive / server, beside / alone)
}

/// Total wall ns of the naive arm: one session (own interpreter, own
/// worker pool) per tenant, served round-robin. Session boot is untimed;
/// the pool fork of each tenant's first `|||` is timed, since that fork
/// is the cost the server amortizes away.
fn run_naive(sessions: usize) -> f64 {
    let spec = culi_gpu_sim::device::intel_e5_2620();
    let streams: Vec<Vec<String>> = (0..sessions).map(tenant_stream).collect();
    let mut pool: Vec<Session> = (0..sessions)
        .map(|_| Session::tenant(spec, &tenant_cfg()))
        .collect();
    let t0 = Instant::now();
    for k in 0..streams[0].len() {
        for (stream, session) in streams.iter().zip(pool.iter_mut()) {
            let reply = session.submit(&stream[k]).expect("naive submit");
            assert!(reply.ok, "{}", reply.output);
        }
    }
    let total_ns = t0.elapsed().as_nanos() as f64;
    for mut s in pool {
        s.shutdown();
    }
    total_ns
}

/// Total wall ns and healthy tenants' p99 completion ns of the same
/// population on one [`SessionServer`]. `extra_noisy` admits one
/// tightly fueled tenant whose whole stream is runaway loops. Three
/// sampled healthy tenants must match isolated sessions byte for byte.
fn run_server(sessions: usize, extra_noisy: bool) -> (f64, f64) {
    let spec = culi_gpu_sim::device::intel_e5_2620();
    let cfg = tenant_cfg();
    let streams: Vec<Vec<String>> = (0..sessions).map(tenant_stream).collect();
    let len = streams[0].len();
    let mut srv = SessionServer::new(
        spec,
        ServerConfig {
            queue_capacity: len,
            global_queue_capacity: (sessions + 1) * len,
            // A small quantum spreads each tenant's stream over several
            // rounds, so completion timestamps (stamped per round) show
            // real p50/p99 structure instead of one global barrier.
            quantum: 2,
            ..Default::default()
        },
    );
    let ids: Vec<_> = (0..sessions).map(|_| srv.admit(cfg.clone())).collect();
    let noisy = extra_noisy.then(|| {
        srv.admit(TenantSessionConfig {
            // Tight budget: each runaway aborts in interpreter time,
            // keeping the healthy-p99 shift small and stable.
            fuel_budget: 2_000,
            ..tenant_cfg()
        })
    });
    let sampled = [0, sessions / 2, sessions - 1];
    let mut sampled_replies: Vec<Vec<Reply>> = sampled.iter().map(|_| Vec::new()).collect();
    let mut completions_ns = Vec::with_capacity(sessions * len);
    let t0 = Instant::now();
    for k in 0..len {
        for (stream, id) in streams.iter().zip(&ids) {
            assert!(srv.enqueue(*id, &stream[k]).is_none(), "refused");
        }
        if let Some(noisy) = noisy {
            assert!(srv
                .enqueue(noisy, "(dotimes (j 1000000000) (* j j))")
                .is_none());
        }
    }
    loop {
        let round = srv.pump_round();
        if round.is_empty() {
            break;
        }
        let now_ns = t0.elapsed().as_nanos() as f64;
        for (id, reply) in round {
            if Some(id) == noisy {
                assert!(!reply.ok, "runaways must abort");
                continue;
            }
            assert!(reply.ok, "{}", reply.output);
            completions_ns.push(now_ns);
            if let Some(s) = sampled.iter().position(|&t| ids[t] == id) {
                sampled_replies[s].push(reply);
            }
        }
    }
    let total_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(completions_ns.len(), sessions * len);
    srv.shutdown();
    for (replies, &t) in sampled_replies.iter().zip(&sampled) {
        let mut isolated = Session::tenant(spec, &cfg);
        assert_eq!(replies.len(), len);
        for (got, src) in replies.iter().zip(&streams[t]) {
            let want = isolated.submit(src).expect("reference submit");
            assert_eq!(got.output, want.output, "{src}");
            assert_eq!(got.ok, want.ok, "{src}");
            assert_eq!(got.code, want.code, "{src}");
            assert_eq!(got.counters, want.counters, "{src}");
        }
        isolated.shutdown();
    }
    completions_ns.sort_by(|a, b| a.total_cmp(b));
    let p99 = completions_ns[((completions_ns.len() - 1) as f64 * 0.99).round() as usize];
    (total_ns, p99)
}

// --- Command cache -------------------------------------------------------

/// splitmix64 — deterministic stream synthesis.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const CACHE_PRELUDE: &[&str] = &[
    workload::FIB_DEFUN,
    "(defun plus (a b) (+ a b))",
    "(defun addg (x) (+ x g))",
    "(defun fibj (x) (fib (+ 8 (mod x 4))))",
    "(setq g 1)",
    "(setq xs (list 3 4 5 6 7 8))",
];

/// `n` distinct pure commands, each with real execution cost so a served
/// reply actually saves work. Rank 0 is the hottest under the Zipf skew.
fn universe(n: usize) -> Vec<String> {
    (0..n)
        .map(|k| match k % 4 {
            0 => format!(
                "(||| 4 fibj ({} {} {} {}))",
                k % 8,
                (k + 3) % 8,
                (k + 5) % 8,
                (k + 6) % 8
            ),
            1 => format!("(||| 3 fibj ({k} {} {}))", k + 1, k + 2),
            2 => format!("(||| 2 fibj ({k} {}))", k + 7),
            _ => format!("(+ {k} (* {} g))", k % 13),
        })
        .collect()
}

/// A Zipf(s)-skewed index stream over `n` ranks: rank `k` is drawn with
/// probability proportional to `1 / (k+1)^s`.
fn zipf_stream(n: usize, s: f64, len: usize, rng: &mut Rng) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 0..n {
        acc += 1.0 / ((k + 1) as f64).powf(s);
        cdf.push(acc);
    }
    (0..len)
        .map(|_| {
            let r = rng.f64() * acc;
            cdf.partition_point(|&c| c < r).min(n - 1)
        })
        .collect()
}

/// One cache arm: prelude via `submit` (untimed), then the stream through
/// `submit_batch` in 64-command chunks (timed) on a 4-seat pool. Returns
/// total ns and every reply in submission order.
fn run_arm(cache: Option<CommandCache>, stream: &[&str]) -> (f64, Vec<Reply>) {
    let mut repl = CpuRepl::launch(
        culi_gpu_sim::device::intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads: 4 },
            cache,
            ..Default::default()
        },
    );
    for line in CACHE_PRELUDE {
        assert!(repl.submit(line).expect("prelude").ok);
    }
    let mut replies = Vec::with_capacity(stream.len());
    let t0 = Instant::now();
    for chunk in stream.chunks(64) {
        replies.extend(repl.submit_batch(chunk).expect("batch"));
    }
    (t0.elapsed().as_nanos() as f64, replies)
}

/// Everything the paper model observes must match; only wall-clock and
/// modeled phase timings may differ on served replies.
fn assert_identical(uncached: &[Reply], cached: &[Reply], arm: &str) {
    assert_eq!(uncached.len(), cached.len());
    for (k, (want, got)) in uncached.iter().zip(cached).enumerate() {
        assert_eq!(want.output, got.output, "{arm} cmd {k}");
        assert_eq!(want.ok, got.ok, "{arm} cmd {k}");
        assert_eq!(want.code, got.code, "{arm} cmd {k}");
        assert_eq!(want.counters, got.counters, "{arm} cmd {k} charges");
    }
}

/// Uncached over cached time on a Zipf(0.99) stream, the reply hit rate
/// on it, and cached over uncached time on an all-distinct stream (the
/// pure cost of probing a cache that never hits). Best of 3 per arm;
/// every sample must be byte-identical and within the byte budget.
fn command_cache() -> (f64, f64, f64) {
    let fast = std::env::var("CULI_BENCH_FAST").is_ok_and(|v| v == "1");
    let (stream_len, universe_n) = if fast { (1024, 128) } else { (4096, 256) };
    let commands = universe(universe_n);
    let ranks = zipf_stream(universe_n, 0.99, stream_len, &mut Rng(0x5eed_c0de));
    let zipf: Vec<&str> = ranks.iter().map(|&k| commands[k].as_str()).collect();
    let distinct: Vec<String> = (0..stream_len)
        .map(|k| format!("(||| 2 plus ({k} {}) ({} 4))", k + 1, k % 9))
        .collect();
    let distinct: Vec<&str> = distinct.iter().map(String::as_str).collect();

    let (mut uncached, mut cached, mut hit_rate) = (f64::INFINITY, f64::INFINITY, 0.0);
    for _ in 0..REPS {
        let (uncached_ns, uncached_replies) = run_arm(None, &zipf);
        let cache = CommandCache::new(CacheConfig::default());
        let (cached_ns, cached_replies) = run_arm(Some(cache.clone()), &zipf);
        assert_identical(&uncached_replies, &cached_replies, "zipf");
        assert!(uncached_replies.iter().all(|r| r.ok));
        uncached = uncached.min(uncached_ns);
        cached = cached.min(cached_ns);
        let reply = cache.stats().reply;
        hit_rate = reply.hits as f64 / (reply.hits + reply.misses) as f64;
        assert!(
            cache.retained_bytes() <= CacheConfig::default().reply_byte_budget,
            "cache retained {} bytes over budget",
            cache.retained_bytes()
        );
    }
    let (mut miss_uncached, mut miss_cached) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let (a_ns, a) = run_arm(None, &distinct);
        let cache = CommandCache::new(CacheConfig::default());
        let (b_ns, b) = run_arm(Some(cache), &distinct);
        assert_identical(&a, &b, "distinct");
        miss_uncached = miss_uncached.min(a_ns);
        miss_cached = miss_cached.min(b_ns);
    }
    (uncached / cached, hit_rate, miss_cached / miss_uncached)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(key: &str) -> (&'static str, Kind, f64) {
        *RULES.iter().find(|r| r.0 == key).unwrap()
    }

    fn baseline_of(key: &str, value: f64) -> JsonValue {
        JsonValue::Obj(vec![(key.to_string(), JsonValue::Num(value))])
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn higher_passes_exactly_at_its_bound_and_fails_just_below() {
        let r = rule("zipf_speedup");
        // Above the floor the band decides; below it the floor does.
        for base in [8.337945233631242, 6.0] {
            let bound = (base / 1.6f64).max(5.0);
            let baseline = baseline_of(r.0, base);
            assert!(check(r, bound, &baseline).is_ok(), "{base}");
            assert!(check(r, next_down(bound), &baseline).is_err(), "{base}");
        }
    }

    #[test]
    fn lower_passes_exactly_at_its_bound_and_fails_just_above() {
        let r = rule("hung_recovery_ms");
        // Above the allowance the band decides; below it the allowance does.
        for base in [400.0, 52.455945] {
            let bound = (base * 1.6f64).max(500.0);
            let baseline = baseline_of(r.0, base);
            assert!(check(r, bound, &baseline).is_ok(), "{base}");
            assert!(check(r, next_up(bound), &baseline).is_err(), "{base}");
        }
    }

    #[test]
    fn fuel_ceiling_ignores_the_baseline() {
        let r = rule("fuel_overhead_pct");
        assert_eq!(r.1, Kind::Ceiling);
        for baseline in [
            baseline_of(r.0, 100.0),
            baseline_of(r.0, -50.0),
            JsonValue::Null,
        ] {
            assert!(check(r, 2.0, &baseline).is_ok());
            assert!(check(r, next_up(2.0), &baseline).is_err());
        }
    }

    fn baseline_fields() -> Vec<(String, JsonValue)> {
        match JsonValue::parse(BASELINE).unwrap() {
            JsonValue::Obj(fields) => fields,
            other => panic!("BENCH_gate.json is not an object: {other:?}"),
        }
    }

    #[test]
    fn a_key_missing_from_the_baseline_fails_the_gate() {
        let fields = baseline_fields();
        // Each metric reads its baseline, or its bar where it has none:
        // every rule passes against the full file.
        let fresh: Vec<(&str, f64)> = RULES
            .iter()
            .map(|&(key, _, limit)| {
                let base = fields.iter().find(|(k, _)| k == key);
                (key, base.and_then(|(_, v)| v.as_f64()).unwrap_or(limit))
            })
            .collect();
        let full = JsonValue::Obj(fields.clone());
        assert!(gate(&fresh, &full).iter().all(Result::is_ok));
        for (missing, _) in &fields {
            let partial = fields.iter().filter(|(k, _)| k != missing).cloned();
            let failed: Vec<String> = gate(&fresh, &JsonValue::Obj(partial.collect()))
                .into_iter()
                .filter_map(Result::err)
                .collect();
            assert_eq!(failed.len(), 1, "{missing}: {failed:?}");
            assert!(failed[0].contains(missing.as_str()), "{failed:?}");
        }
        // A metric the run never measured fails too.
        assert!(gate(&[], &full).iter().all(Result::is_err));
    }

    #[test]
    fn rules_and_baseline_name_the_same_keys() {
        let fields = baseline_fields();
        let mut in_file: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let mut relative: Vec<&str> = RULES
            .iter()
            .filter(|r| matches!(r.1, Kind::Higher | Kind::Lower))
            .map(|r| r.0)
            .collect();
        in_file.sort_unstable();
        relative.sort_unstable();
        assert_eq!(in_file, relative);
    }

    #[test]
    fn baseline_values_are_copied_verbatim_from_their_sources() {
        let sources = [
            include_str!("../../../../BENCH_pr4.json"),
            include_str!("../../../../BENCH_pr5.json"),
            include_str!("../../../../BENCH_pr6.json"),
            include_str!("../../../../BENCH_pr7.json"),
            include_str!("../../../../BENCH_pr8.json"),
        ];
        let raw = |text: &'static str, key: &str| {
            let prefix = format!("\"{key}\":");
            text.lines()
                .find_map(|l| Some(l.trim().strip_prefix(&prefix)?.trim().trim_end_matches(',')))
        };
        for (key, _) in &baseline_fields() {
            let found: Vec<&str> = sources.iter().filter_map(|s| raw(s, key)).collect();
            assert_eq!(
                found.len(),
                1,
                "{key} must come from exactly one BENCH_prN.json"
            );
            assert_eq!(raw(BASELINE, key), Some(found[0]), "{key}");
        }
    }

    #[test]
    fn the_output_path_is_required_and_never_a_committed_baseline() {
        let args = |a: &[&str]| {
            a.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert_eq!(
            out_path(args(&["/tmp/bench_gate.json"])),
            Ok("/tmp/bench_gate.json".into())
        );
        for bad in [
            &[][..],
            &["/tmp/a.json", "/tmp/b.json"],
            &["BENCH_gate.json"],
            &["./BENCH_pr4.json"],
            &["/some/checkout/BENCH_pr8.json"],
        ] {
            assert!(out_path(args(bad)).is_err(), "{bad:?}");
        }
    }
}
