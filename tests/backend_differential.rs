//! Cross-backend differential harness: seedable randomly generated
//! programs — global defines and overwrites, shadowing redefinitions,
//! `|||` sections (nested ones included, plus computed worker counts,
//! `(list …)` operands and conditional operands that exercise the
//! effect-analysis staging rule), worker errors, short-list errors and
//! GC-pressure loops — run through every `|||` backend:
//!
//! 1. **sequential** — the modeled CPU pipeline (jobs evaluate inline on
//!    the master, separated by the model hook): the reference;
//! 2. **pooled** — the persistent worker pool, one rendezvous per
//!    command (`submit` loop);
//! 3. **pipelined** — the same pool driven through the shared
//!    `BatchScheduler` (`submit_batch`);
//! 4. **gpu×{1,2,4}** — the simulated-GPU session's batched command
//!    buffers at one, two and four sharded devices (PR 5: round-robined
//!    runs must be bit-identical to the single-device path and to the
//!    modeled-sequential reference — sharding may only move modeled
//!    time between device clocks);
//! 5. **cache arms** — the pipelined and GPU batch paths with a shared
//!    `CommandCache`, cold and warm.
//!
//! Every command's printed reply (error text included) must be
//! byte-identical across all arms, and every *successful* command's
//! paper-model meter charges ([`culi::runtime::CommandCounters`]) must
//! be bit-identical too — parse, master-eval, per-job and print counters
//! alike. (Failed commands stop at backend-dependent points — a chunked
//! worker keeps evaluating its own jobs past the globally-first error —
//! so only their replies and parse counters are comparable.)

use culi::core::fault::{FaultKind, FaultPlan, FaultSite};
use culi::core::{ErrorCode, InterpConfig};
use culi::runtime::{
    CacheConfig, CommandCache, CpuMode, CpuRepl, CpuReplConfig, GpuRepl, GpuReplConfig, Reply,
};
use culi::sim::device::{gtx1080, intel_e5_2620};
use std::time::Duration;

/// splitmix64: deterministic seedable program generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.below((hi - lo) as u64)) as i64
    }
}

const PRELUDE: &[&str] = &[
    "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
    "(defun plus (a b) (+ a b))",
    "(defun addg (x) (+ x g))",
    "(defun fibj (x) (fib (mod x 8)))",
    "(defun boom (x) (/ 100 x))",
    "(defun nest (x) (||| 2 plus (list x g) (3 4)))",
    "(setq g 1)",
    "(setq xs (list 3 4 5 6 7 8))",
];

/// One generated command. Jobs never mutate persistent state: the
/// sequential reference runs them on the master interpreter, where a
/// mutation would (by design) behave differently from the isolated
/// worker backends.
fn command(rng: &mut Rng) -> String {
    match rng.below(16) {
        // Global overwrite between sections.
        0 => format!("(setq g {})", rng.int(-50, 50)),
        // Fresh definition (sync-log growth).
        1 => format!("(setq v{} {})", rng.below(24), rng.int(0, 1000)),
        // Shadowing redefinition (structure-faithfulness stress).
        2 => {
            let op = if rng.below(2) == 0 { "+" } else { "-" };
            format!("(defun addg (x) ({op} x g))")
        }
        // GC-pressure loop: transient garbage inside one command.
        3 => format!("(dotimes (k {}) (fib (mod k 7)))", rng.int(4, 12)),
        // A burst of definitions in one multi-form command: pushes the
        // sync log over the compaction threshold, stranding cold seats
        // behind the faithfulness frontier.
        4 => (0..70)
            .map(|i| format!("(setq b{i} {})", rng.int(0, 9)))
            .collect::<Vec<_>>()
            .join(" "),
        // Section over the global list (symbol operand).
        5 => format!("(||| {} addg xs)", rng.int(1, 6)),
        // Worker errors: boom divides by its argument.
        6 => {
            let n = rng.int(1, 5);
            let args: Vec<String> = (0..n).map(|_| rng.int(0, 3).to_string()).collect();
            format!("(||| {n} boom ({}))", args.join(" "))
        }
        // Short argument list (master-side section error).
        7 => "(||| 5 plus (1 2 3) (1 2 3 4 5))".to_string(),
        // Nested ||| inside each worker.
        8 => {
            let n = rng.int(1, 4);
            let args: Vec<String> = (0..n).map(|_| rng.int(-8, 8).to_string()).collect();
            format!("(||| {n} nest ({}))", args.join(" "))
        }
        // Computed worker count: a pure arithmetic expression the effect
        // classifier stages.
        12 => {
            let k = rng.int(1, 4);
            let args: Vec<String> = (0..=k).map(|_| rng.int(-8, 8).to_string()).collect();
            format!("(||| (+ 1 {k}) fibj ({}))", args.join(" "))
        }
        // Computed argument lists: `(list …)` constructors reading the
        // global `g` (stageable under effect analysis).
        13 => {
            let n = rng.int(1, 5);
            let args: Vec<String> = (0..n)
                .map(|_| {
                    if rng.below(3) == 0 {
                        "g".to_string()
                    } else {
                        rng.int(-8, 8).to_string()
                    }
                })
                .collect();
            let second: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            format!(
                "(||| {n} plus (list {}) ({}))",
                args.join(" "),
                second.join(" ")
            )
        }
        // Conditional operand over the global state (stageable).
        14 => {
            let t = rng.int(-20, 20);
            format!("(||| 2 fibj (if (< g {t}) (1 2) (3 4)))")
        }
        // An operand that *calls a user form*: impure, so the pipelined
        // dispatcher must barrier — and the reply must still match.
        15 => {
            let a = rng.int(-5, 5);
            format!("(||| 2 plus (list (plus {a} 1) 2) (3 4))")
        }
        // Plain sections over the pure prelude functions.
        _ => {
            let n = rng.int(1, 6);
            let args: Vec<String> = (0..n).map(|_| rng.int(-8, 8).to_string()).collect();
            let list = args.join(" ");
            match rng.below(3) {
                0 => {
                    let second: Vec<String> = (0..n).map(|i| i.to_string()).collect();
                    format!("(||| {n} plus ({list}) ({}))", second.join(" "))
                }
                1 => format!("(||| {n} fibj ({list}))"),
                _ => format!("(||| {n} addg ({list}))"),
            }
        }
    }
}

fn repl(mode: CpuMode) -> CpuRepl {
    CpuRepl::launch(
        intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            mode,
            ..Default::default()
        },
    )
}

fn gpu_repl(devices: usize) -> GpuRepl {
    GpuRepl::launch(
        gtx1080(),
        GpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            device_count: devices,
            ..Default::default()
        },
    )
}

/// A pipelined CPU arm with the PR 8 structural-hash command cache
/// enabled. The cache handle is passed in so arms can take
/// [`CommandCache::tenant_view`]s of one fleet cache, the way the session
/// server hands them to tenants.
fn repl_cached(cache: CommandCache) -> CpuRepl {
    CpuRepl::launch(
        intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads: 4 },
            cache: Some(cache),
            ..Default::default()
        },
    )
}

fn gpu_repl_cached(cache: CommandCache) -> GpuRepl {
    GpuRepl::launch(
        gtx1080(),
        GpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            device_count: 1,
            cache: Some(cache),
            ..Default::default()
        },
    )
}

fn check_program(seed: u64) {
    let mut rng = Rng(seed);
    let len = 4 + rng.below(8) as usize;
    let commands: Vec<String> = (0..len).map(|_| command(&mut rng)).collect();

    let mut sequential = repl(CpuMode::Modeled);
    let mut pooled = repl(CpuMode::Threaded { threads: 4 });
    let mut pipelined = repl(CpuMode::Threaded { threads: 4 });
    let mut gpus: Vec<GpuRepl> = [1, 2, 4].map(gpu_repl).into_iter().collect();
    // Cache arms: one fleet cache, tenant views per backend — the
    // CPU and GPU arms keep private reply stores and share only the
    // fleet counters, exactly like server tenants.
    let shared_cache = CommandCache::new(CacheConfig::default());
    let mut cached = repl_cached(shared_cache.tenant_view());
    let mut cached_gpu = gpu_repl_cached(shared_cache.tenant_view());
    for line in PRELUDE {
        sequential.submit(line).unwrap();
        pooled.submit(line).unwrap();
        pipelined.submit(line).unwrap();
        cached.submit(line).unwrap();
        cached_gpu.submit(line).unwrap();
        for gpu in &mut gpus {
            gpu.submit(line).unwrap();
        }
    }

    let inputs: Vec<&str> = commands.iter().map(String::as_str).collect();
    let batched = pipelined.submit_batch(&inputs).unwrap();
    assert_eq!(batched.len(), inputs.len());
    let gpu_batches: Vec<Vec<Reply>> = gpus
        .iter_mut()
        .map(|gpu| gpu.submit_batch(&inputs).unwrap())
        .collect();
    // Cache arms run the stream twice: the cold pass is compared against
    // the sequential reference, the warm pass (served from the cache
    // wherever commands repeat or recur across passes) is compared
    // against a second uncached pass over the same state.
    let cached_cold = cached.submit_batch(&inputs).unwrap();
    let cached_gpu_cold = cached_gpu.submit_batch(&inputs).unwrap();
    let batched_warm = pipelined.submit_batch(&inputs).unwrap();
    let gpu_warm = gpus[0].submit_batch(&inputs).unwrap();
    let cached_warm = cached.submit_batch(&inputs).unwrap();
    let cached_gpu_warm = cached_gpu.submit_batch(&inputs).unwrap();

    for (k, src) in inputs.iter().enumerate() {
        let a = sequential.submit(src).unwrap();
        let c = pooled.submit(src).unwrap();
        let tag = |name: &str| format!("seed {seed} cmd {k} [{name}]: {src}");
        compare_replies(&a, &c, &tag("pooled"));
        compare_replies(&a, &batched[k], &tag("pipelined"));
        compare_replies(&a, &cached_cold[k], &tag("pipelined+cache cold"));
        compare_modeled(&a, &cached_gpu_cold[k], &tag("gpu+cache cold"));
        compare_replies(
            &batched_warm[k],
            &cached_warm[k],
            &tag("pipelined+cache warm"),
        );
        compare_replies(&gpu_warm[k], &cached_gpu_warm[k], &tag("gpu+cache warm"));
        for (devices, replies) in [1usize, 2, 4].iter().zip(&gpu_batches) {
            compare_modeled(&a, &replies[k], &tag(&format!("gpu x{devices}")));
        }
    }
}

fn compare_replies(reference: &Reply, got: &Reply, context: &str) {
    assert_eq!(reference.output, got.output, "{context}");
    assert_eq!(reference.ok, got.ok, "{context}");
    // Parse work is backend-independent even on failures. The rest of a
    // failed command's work is not on the real-threads arms: chunks on
    // other seats run past the failing job.
    assert_eq!(
        reference.counters.parse, got.counters.parse,
        "parse charges — {context}"
    );
    if reference.ok {
        assert_eq!(
            reference.counters, got.counters,
            "paper-model charges — {context}"
        );
    }
}

/// The modeled arms share the reference's sequential `|||` hook and
/// lifecycle, so even failed commands carry identical counters.
fn compare_modeled(reference: &Reply, got: &Reply, context: &str) {
    compare_replies(reference, got, context);
    assert_eq!(
        reference.counters, got.counters,
        "paper-model charges — {context}"
    );
}

/// Seeds to run, configurable for CI depth: `CULI_DIFF_SEEDS` (default
/// 100, minimum 4). The work is split into four chunks so the default
/// test runner parallelizes them; CI's deep job sets `CULI_DIFF_SEEDS=500`.
fn seed_count() -> u64 {
    std::env::var("CULI_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
        .max(4)
}

fn check_chunk(chunk: u64) {
    let n = seed_count();
    for seed in (chunk * n / 4)..((chunk + 1) * n / 4) {
        check_program(seed);
    }
}

#[test]
fn differential_seeds_chunk_0_of_4() {
    check_chunk(0);
}

#[test]
fn differential_seeds_chunk_1_of_4() {
    check_chunk(1);
}

#[test]
fn differential_seeds_chunk_2_of_4() {
    check_chunk(2);
}

#[test]
fn differential_seeds_chunk_3_of_4() {
    check_chunk(3);
}

// --------------------------------------------------------------------
// Fault sweep (PR 6): the same generated command streams run through
// fault-injected sessions. Injected infrastructure failures — worker
// panics, hangs past the watchdog deadline, garbled and dropped replies,
// dropped GPU reply handshakes — must be *invisible* in the reply
// stream: byte-identical output/ok/counters in submission order against
// the un-faulted sequential reference. Only `Reply::code` may differ
// (deliberately: `Degraded` marks answers produced by the fallback).

/// A real-threads CPU session with a scripted fault plan and a watchdog
/// deadline short enough to keep injected hangs cheap.
fn faulted_cpu(plan: FaultPlan, cache: Option<CommandCache>) -> CpuRepl {
    CpuRepl::launch(
        intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads: 4 },
            reply_deadline: Duration::from_millis(100),
            fault_plan: plan,
            cache,
            ..Default::default()
        },
    )
}

fn faulted_gpu(plan: FaultPlan) -> GpuRepl {
    GpuRepl::launch(
        gtx1080(),
        GpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            fault_plan: plan,
            ..Default::default()
        },
    )
}

/// Replies must match in everything *except* `code`: a degraded slot
/// carries the same bytes with `ErrorCode::Degraded`.
fn compare_faulted(reference: &Reply, got: &Reply, context: &str) {
    compare_replies(reference, got, context);
    assert!(
        got.code == reference.code || got.code == ErrorCode::Degraded,
        "unexpected code {:?} — {context}",
        got.code
    );
}

/// One seeded program through a fault-injected CPU batch (and, when the
/// plan has device triggers, a fault-injected GPU batch) against the
/// un-faulted sequential reference.
fn check_faulted_program(seed: u64, cpu_plan: FaultPlan, gpu_plan: FaultPlan) {
    let mut rng = Rng(seed);
    let len = 4 + rng.below(8) as usize;
    let commands: Vec<String> = (0..len).map(|_| command(&mut rng)).collect();
    let inputs: Vec<&str> = commands.iter().map(String::as_str).collect();

    let mut reference = repl(CpuMode::Modeled);
    let mut cpu = faulted_cpu(cpu_plan, None);
    // Cache arm: its own seed-derived plan (plans share trigger state
    // across clones, so the primary arm's plan cannot be reused) and the
    // PR 8 command cache enabled. Faults may land at different events —
    // cache hits skip pool work — but must stay just as invisible.
    let mut cpu_cached = faulted_cpu(
        FaultPlan::from_seed(seed ^ 0xca54_e0e5),
        Some(CommandCache::new(CacheConfig::default())),
    );
    let mut gpu = faulted_gpu(gpu_plan);
    for line in PRELUDE {
        reference.submit(line).unwrap();
        cpu.submit(line).unwrap();
        cpu_cached.submit(line).unwrap();
        gpu.submit(line).unwrap();
    }
    let cpu_batch = cpu.submit_batch(&inputs).unwrap();
    let gpu_batch = gpu.submit_batch(&inputs).unwrap();
    // Two passes through the cached arm: cold, then warm from the cache.
    let cached_cold = cpu_cached.submit_batch(&inputs).unwrap();
    let cached_warm = cpu_cached.submit_batch(&inputs).unwrap();
    assert_eq!(cpu_batch.len(), inputs.len());
    assert_eq!(gpu_batch.len(), inputs.len());
    for (k, src) in inputs.iter().enumerate() {
        let want = reference.submit(src).unwrap();
        let tag = |name: &str| format!("fault seed {seed} cmd {k} [{name}]: {src}");
        compare_faulted(&want, &cpu_batch[k], &tag("cpu faulted"));
        compare_faulted(&want, &gpu_batch[k], &tag("gpu faulted"));
        compare_faulted(&want, &cached_cold[k], &tag("cpu faulted+cache cold"));
    }
    // Warm pass: the reference re-runs the stream from the same state the
    // cached arm reached after its cold pass.
    for (k, src) in inputs.iter().enumerate() {
        let want = reference.submit(src).unwrap();
        let tag = format!("fault seed {seed} cmd {k} [cpu faulted+cache warm]: {src}");
        compare_faulted(&want, &cached_warm[k], &tag);
    }
}

/// Seeded sweep: scripted fault plans (kind, site and event index all
/// seed-derived) over the generated program space. `CULI_FAULT_SEEDS`
/// deepens it in CI (default 12, minimum 4).
#[test]
fn fault_sweep_seeded_plans_are_invisible_in_replies() {
    let n: u64 = std::env::var("CULI_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
        .max(4);
    for seed in 0..n {
        check_faulted_program(
            seed,
            FaultPlan::from_seed(seed),
            FaultPlan::from_seed(seed ^ 0x5eed),
        );
    }
}

/// Directed sweep: every worker fault kind at several early section
/// events, so each recovery path (panic respawn, watchdog detach,
/// garbled-reply write-off, dropped-reply write-off) provably runs.
#[test]
fn fault_sweep_every_worker_fault_kind_and_site() {
    let mut injected = 0;
    for kind in [
        FaultKind::Panic,
        FaultKind::Hang,
        FaultKind::Garbage,
        FaultKind::DropReply,
    ] {
        for at in [0, 1, 3] {
            let plan = FaultPlan::single(FaultSite::WorkerSection, kind, at);
            check_faulted_program(7, plan.clone(), FaultPlan::none());
            injected += plan.injected_count();
        }
    }
    assert!(
        injected >= 8,
        "directed plans barely fired ({injected}); sweep lost its teeth"
    );
}

/// Directed GPU arm: a drop burst longer than the handshake retry budget
/// forces the scheduler's sequential fallback on the device path.
#[test]
fn fault_sweep_gpu_drop_burst_degrades_and_matches() {
    let plan = FaultPlan::burst(FaultSite::DeviceReply, FaultKind::DropReply, 0, 4);
    check_faulted_program(11, FaultPlan::none(), plan.clone());
    assert!(plan.injected_count() >= 3, "{}", plan.injected_count());
}

/// A deliberate runaway under a fuel budget comes back as a prompt,
/// well-formed fuel error — the session survives and the abort happens
/// in interpreter time, far inside the watchdog deadline.
#[test]
fn runaway_under_fuel_budget_is_contained_promptly() {
    let mut cpu = CpuRepl::launch(
        intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                fuel_budget: 100_000,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads: 4 },
            ..Default::default()
        },
    );
    let started = std::time::Instant::now();
    let reply = cpu.submit("(dotimes (i 1000000000) (+ i i))").unwrap();
    assert!(!reply.ok);
    assert_eq!(reply.code, ErrorCode::Fuel);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "containment latency {:?}",
        started.elapsed()
    );
    assert_eq!(cpu.submit("(+ 1 2)").unwrap().output, "3");
}

/// Server arm of the fault sweep (PR 7): three tenants share one
/// [`culi::runtime::SessionServer`] under warm-set churn (immediate
/// promotion, one warm slot), with tenant 0 carrying a seeded
/// tenant-scoped fault plan that substitutes hostile commands (runaway
/// fuel, oversized payloads, unbounded loops) for its own stream. The
/// healthy tenants' replies must stay **byte-identical** — output, ok,
/// code and full counters — and in submission order against isolated
/// [`culi::runtime::Session::tenant`] reference sessions: tenant-scoped
/// faults may never leak across the admission boundary.
#[test]
fn fault_sweep_server_healthy_tenants_stay_byte_identical() {
    use culi::runtime::{ServerConfig, Session, SessionServer, TenantSessionConfig};

    let n: u64 = std::env::var("CULI_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
        .max(4);
    for seed in 0..n {
        let mut rng = Rng(seed ^ 0x07e4_a4e7);
        let healthy_cfg = TenantSessionConfig {
            fuel_budget: 10_000_000,
            arena_capacity: 1 << 17,
            ..Default::default()
        };
        let noisy_plan = FaultPlan::from_seed_tenant(seed);
        let noisy_cfg = TenantSessionConfig {
            // Tight budgets keep substituted runaways cheap to contain
            // (the arena bound caps oversized-payload churn, the fuel
            // bound caps compute runaways) while still letting the
            // prelude and most generated commands through.
            fuel_budget: 60_000,
            arena_capacity: 1 << 15,
            fault_plan: noisy_plan.clone(),
            ..Default::default()
        };
        let mut srv = SessionServer::new(
            intel_e5_2620(),
            ServerConfig {
                // Immediate promotion + a single warm slot: every tenant
                // rides the pooled route and they continually evict each
                // other, so re-warm transparency is under test too.
                promote_after: 0,
                warm_limit: 1,
                ..Default::default()
            },
        );
        let noisy = srv.admit(noisy_cfg);
        let healthy: Vec<_> = (0..2).map(|_| srv.admit(healthy_cfg.clone())).collect();

        let streams: Vec<Vec<String>> = (0..3)
            .map(|_| {
                let len = 4 + rng.below(8) as usize;
                let mut stream: Vec<String> = PRELUDE.iter().map(|s| s.to_string()).collect();
                stream.extend((0..len).map(|_| command(&mut rng)));
                stream
            })
            .collect();
        let ids = [noisy, healthy[0], healthy[1]];
        // Interleave submissions so every round mixes tenants.
        let longest = streams.iter().map(Vec::len).max().unwrap();
        for k in 0..longest {
            for (t, stream) in streams.iter().enumerate() {
                if let Some(cmd) = stream.get(k) {
                    assert!(srv.enqueue(ids[t], cmd).is_none(), "seed {seed}");
                }
            }
        }
        let mut replies: Vec<Vec<Reply>> = vec![Vec::new(); 3];
        for (id, r) in srv.drain() {
            let t = ids.iter().position(|i| *i == id).unwrap();
            replies[t].push(r);
        }
        assert!(
            noisy_plan.injected_count() >= 1,
            "seed {seed}: tenant plan never fired"
        );

        for (t, id) in ids.iter().enumerate().skip(1) {
            assert_eq!(replies[t].len(), streams[t].len(), "seed {seed}");
            let mut isolated = Session::tenant(intel_e5_2620(), &healthy_cfg);
            for (k, src) in streams[t].iter().enumerate() {
                let want = isolated.submit(src).unwrap();
                let got = &replies[t][k];
                let tag = format!("fault seed {seed} tenant {id} cmd {k} [server]: {src}");
                compare_replies(&want, got, &tag);
                assert_eq!(want.code, got.code, "{tag}");
            }
            isolated.shutdown();
        }
        srv.shutdown();
    }
}

/// A directed worst case the generator only sometimes hits: definition
/// bursts past the compaction threshold with shadowing redefinitions,
/// then sections on every backend — cold seats must resynchronize via
/// snapshot and still charge identically.
#[test]
fn differential_survives_compaction_and_snapshot_resync() {
    let burst: String = (0..80).map(|i| format!("(setq c{i} {i}) ")).collect();
    let program = [
        "(||| 2 fibj (1 2))",
        burst.as_str(),
        "(defun addg (x) (* x g))",
        "(defun addg (x) (+ x g))",
        "(||| 5 addg (1 2 3 4 5))",
        "(||| 1 addg (9))",
        "(||| (+ 2 3) addg (list g 2 g 4 5))", // computed count + operand
        "(||| 5 fibj (1 2 3 4 5))",
    ];
    let mut sequential = repl(CpuMode::Modeled);
    let mut pooled = repl(CpuMode::Threaded { threads: 4 });
    let mut pipelined = repl(CpuMode::Threaded { threads: 4 });
    for line in PRELUDE {
        sequential.submit(line).unwrap();
        pooled.submit(line).unwrap();
        pipelined.submit(line).unwrap();
    }
    let batched = pipelined.submit_batch(&program).unwrap();
    for (k, src) in program.iter().enumerate() {
        let a = sequential.submit(src).unwrap();
        let c = pooled.submit(src).unwrap();
        compare_replies(&a, &c, &format!("cmd {k} [pooled]"));
        compare_replies(&a, &batched[k], &format!("cmd {k} [pipelined]"));
    }
}
