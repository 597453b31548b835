//! End-to-end correctness of the PR 8 structural-hash command cache:
//! cache-on sessions must be observably indistinguishable from cache-off
//! sessions — byte-identical output, status, code and paper-model
//! counters — across the CPU threaded and simulated-GPU backends, while
//! the cache's own stats prove it actually served traffic. Both backends
//! run one shared batch cache policy, so the same stream must also hit
//! and miss the reply tier identically on either. Directed tests pin
//! the hazardous edges: reply entries must never survive an env
//! sync-epoch advance (a redefined global must never be answered with a
//! stale reply), one tenant's epoch advance must neither leak into nor
//! retire another tenant's entries on a shared server, and forced hash
//! collisions (narrowed [`CacheConfig::hash_mask`]) must fall back to
//! the full canonical-encoding compare rather than serve a wrong entry.

use culi_core::InterpConfig;
use culi_gpu_sim::device::{gtx1080, intel_e5_2620};
use culi_runtime::{
    CacheConfig, CommandCache, CpuMode, CpuRepl, CpuReplConfig, GpuRepl, GpuReplConfig, Reply,
    ServerConfig, Session, SessionServer, TenantId, TenantSessionConfig,
};

const PRELUDE: &[&str] = &[
    "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
    "(defun plus (a b) (+ a b))",
    "(defun addg (x) (+ x g))",
    "(defun fibj (x) (fib (mod x 8)))",
    "(setq g 1)",
    "(setq xs (list 3 4 5 6 7 8))",
];

/// A repeat-heavy stream: in-batch repeats, cross-pass repeats, both
/// stageable sections and plain pure commands. Deliberately epoch-stable
/// (no defines) so repeated passes hit the reply tier — the epoch-advance
/// discipline has its own directed test below.
const STREAM: &[&str] = &[
    "(||| 2 plus (1 2) (3 4))",
    "(||| 3 fibj (1 2 3))",
    "(||| 2 plus (1 2) (3 4))",
    "(||| 2 addg (1 2))",
    "(||| 2 addg (1 2))",
    "(+ 1 2)",
    "(||| 4 addg xs)",
];

fn cpu(mode: CpuMode, cache: Option<CommandCache>) -> CpuRepl {
    CpuRepl::launch(
        intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            mode,
            cache,
            ..Default::default()
        },
    )
}

fn gpu(cache: Option<CommandCache>) -> GpuRepl {
    GpuRepl::launch(
        gtx1080(),
        GpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            cache,
            ..Default::default()
        },
    )
}

/// Prelude via `submit`, then `passes` rounds of `submit_batch` over the
/// stream, replies concatenated in submission order.
fn run_cpu(repl: &mut CpuRepl, stream: &[&str], passes: usize) -> Vec<Reply> {
    for line in PRELUDE {
        repl.submit(line).unwrap();
    }
    let mut out = Vec::new();
    for _ in 0..passes {
        out.extend(repl.submit_batch(stream).unwrap());
    }
    out
}

fn run_gpu(repl: &mut GpuRepl, stream: &[&str], passes: usize) -> Vec<Reply> {
    for line in PRELUDE {
        repl.submit(line).unwrap();
    }
    let mut out = Vec::new();
    for _ in 0..passes {
        out.extend(repl.submit_batch(stream).unwrap());
    }
    out
}

/// Cache-on vs cache-off must match in everything the paper model can
/// observe: bytes, status, error code and meter counters (wall-clock and
/// modeled phase times are timing, not semantics).
fn assert_identical(uncached: &[Reply], cached: &[Reply], arm: &str) {
    assert_eq!(uncached.len(), cached.len(), "{arm}: reply count");
    for (k, (want, got)) in uncached.iter().zip(cached).enumerate() {
        let ctx = format!("{arm} cmd {k}");
        assert_eq!(want.output, got.output, "{ctx}");
        assert_eq!(want.ok, got.ok, "{ctx}");
        assert_eq!(want.code, got.code, "{ctx}");
        assert_eq!(want.counters, got.counters, "charges — {ctx}");
    }
}

#[test]
fn cache_on_off_bit_identity_cpu_threaded() {
    let cache = CommandCache::new(CacheConfig::default());
    let mut plain = cpu(CpuMode::Threaded { threads: 4 }, None);
    let mut memo = cpu(CpuMode::Threaded { threads: 4 }, Some(cache.clone()));
    let a = run_cpu(&mut plain, STREAM, 3);
    let b = run_cpu(&mut memo, STREAM, 3);
    assert_identical(&a, &b, "cpu threaded");
    let stats = cache.stats();
    assert!(
        stats.reply.hits >= STREAM.len() as u64,
        "cache never served: {stats:?}"
    );
}

#[test]
fn cache_on_off_bit_identity_gpu() {
    let cache = CommandCache::new(CacheConfig::default());
    let mut plain = gpu(None);
    let mut memo = gpu(Some(cache.clone()));
    let a = run_gpu(&mut plain, STREAM, 3);
    let b = run_gpu(&mut memo, STREAM, 3);
    assert_identical(&a, &b, "gpu");
    assert!(
        cache.stats().reply.hits >= STREAM.len() as u64,
        "{:?}",
        cache.stats()
    );
}

/// One cache policy for both backends: a seeded stream with repeats and a
/// mid-stream `setq` (an epoch advance) must produce the same reply-tier
/// hits and misses through a CPU tenant view as through a GPU one.
#[test]
fn cpu_and_gpu_tenant_views_agree_on_reply_tier_hits_and_misses() {
    const SHAPES: &[&str] = &[
        "(||| 2 plus (1 2) (3 4))",
        "(||| 3 fibj (1 2 3))",
        "(||| 2 addg (1 2))",
        "(||| 4 addg xs)",
        "(+ g 2)",
        "(car xs)",
    ];
    // splitmix64 over a fixed seed.
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let stream: Vec<&str> = (0..40)
        .map(|k| {
            if k == 20 {
                "(setq g 5)"
            } else {
                SHAPES[(next() % SHAPES.len() as u64) as usize]
            }
        })
        .collect();
    let cpu_cache = CommandCache::new(CacheConfig::default());
    let gpu_cache = CommandCache::new(CacheConfig::default());
    let mut on_cpu = cpu(
        CpuMode::Threaded { threads: 4 },
        Some(cpu_cache.tenant_view()),
    );
    let mut on_gpu = gpu(Some(gpu_cache.tenant_view()));
    let a = run_cpu(&mut on_cpu, &stream, 2);
    let b = run_gpu(&mut on_gpu, &stream, 2);
    for (k, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.output, y.output, "cmd {k}: {}", stream[k % stream.len()]);
    }
    let (c, g) = (cpu_cache.stats().reply, gpu_cache.stats().reply);
    assert_eq!(
        (c.hits, c.misses),
        (g.hits, g.misses),
        "cpu {c:?} vs gpu {g:?}"
    );
    assert!(
        c.hits > 0 && c.misses > 0,
        "stream must both hit and miss: {c:?}"
    );
}

/// The stale-reply hazard, end to end: a pure command whose answer
/// depends on a global, repeated across redefinitions of that global.
/// Every repeat after a `setq` is a *new* epoch — the cache must miss,
/// re-execute and answer with the fresh binding. The cache-off twin
/// catches any stale serve byte-for-byte, and the direct output check
/// makes the expectation readable on failure.
#[test]
fn reply_entries_never_survive_epoch_advance_end_to_end() {
    let stream = &[
        "(||| 2 addg (1 2))", // g=1 → (2 3)
        "(||| 2 addg (1 2))", // same epoch: cache may serve this one
        "(setq g 100)",
        "(||| 2 addg (1 2))", // g=100 → (101 102): stale (2 3) is wrong
        "(setq g 7)",
        "(||| 2 addg (1 2))", // g=7 → (8 9)
    ];
    let cache = CommandCache::new(CacheConfig::default());
    let mut plain = cpu(CpuMode::Threaded { threads: 4 }, None);
    let mut memo = cpu(CpuMode::Threaded { threads: 4 }, Some(cache.clone()));
    let a = run_cpu(&mut plain, stream, 2);
    let b = run_cpu(&mut memo, stream, 2);
    assert_identical(&a, &b, "epoch advance");
    let outputs: Vec<&str> = b.iter().map(|r| r.output.as_str()).collect();
    assert_eq!(outputs[0], outputs[1], "same-epoch repeat must agree");
    assert_ne!(outputs[1], outputs[3], "post-setq repeat must re-execute");
    assert_ne!(outputs[3], outputs[5], "each rebinding must be visible");
    let stats = cache.stats();
    assert!(
        stats.reply.hits >= 1,
        "repeat at same epoch never hit: {stats:?}"
    );
    assert!(
        stats.reply.evictions >= 1,
        "epoch advances never retired entries: {stats:?}"
    );
}

/// Enqueues `cmds` for tenant `id` alone and drains the server,
/// returning the tenant's replies in submission order.
fn serve(srv: &mut SessionServer, id: TenantId, cmds: &[&str]) -> Vec<Reply> {
    for cmd in cmds {
        assert!(srv.enqueue(id, cmd).is_none(), "refused: {cmd}");
    }
    srv.drain()
        .into_iter()
        .map(|(from, reply)| {
            assert_eq!(from, id);
            reply
        })
        .collect()
}

/// Per-tenant epoch isolation on one server: two tenants (one fleet
/// cache, a private reply store each) repeat the same pure command, then
/// tenant A rebinds the global that command reads. A's next repeat must
/// miss and re-execute against the new binding; B's epoch never moved,
/// so B's repeat must still hit. Every reply of both tenants must match
/// an isolated cache-off session byte for byte.
#[test]
fn tenant_epoch_advance_leaves_other_tenants_hits_intact() {
    const QUERY: &str = "(||| 2 addg (1 2))";
    let spec = intel_e5_2620();
    let mut srv = SessionServer::new(
        spec,
        ServerConfig {
            // Warm from the first command: the warm route is the batch
            // path that consults the cache.
            promote_after: 0,
            ..Default::default()
        },
    );
    let cfg = TenantSessionConfig::default();
    let (a, b) = (srv.admit(cfg.clone()), srv.admit(cfg.clone()));
    let mut got_a = serve(&mut srv, a, PRELUDE);
    let mut got_b = serve(&mut srv, b, PRELUDE);
    // One query per drain: a repeat inside one batch is classified
    // before its twin's reply is stored, so it cannot hit.
    for _ in 0..2 {
        got_a.extend(serve(&mut srv, a, &[QUERY]));
        got_b.extend(serve(&mut srv, b, &[QUERY]));
    }
    let reply_stats = |srv: &SessionServer| srv.server_stats().cache.reply;
    let warmed = reply_stats(&srv);
    assert_eq!(
        warmed.hits, 2,
        "each tenant's second query hits: {warmed:?}"
    );

    // A's write and repeat: both probes miss.
    got_a.extend(serve(&mut srv, a, &["(setq g 100)"]));
    got_a.extend(serve(&mut srv, a, &[QUERY]));
    let after_write = reply_stats(&srv);
    assert_eq!(after_write.hits, warmed.hits, "A served a stale reply");
    assert_eq!(after_write.misses, warmed.misses + 2);
    assert_eq!(got_a.last().unwrap().output, "(101 102)");

    // B's repeat still hits, with B's own (untouched) binding.
    got_b.extend(serve(&mut srv, b, &[QUERY]));
    let after_b = reply_stats(&srv);
    assert_eq!(after_b.hits, after_write.hits + 1, "B lost its entry");
    assert_eq!(after_b.misses, after_write.misses);
    assert_eq!(got_b.last().unwrap().output, "(2 3)");

    let after_a_write = [PRELUDE, &[QUERY, QUERY, "(setq g 100)", QUERY]].concat();
    let b_only = [PRELUDE, &[QUERY, QUERY, QUERY]].concat();
    for (stream, got, who) in [(&after_a_write, &got_a, "A"), (&b_only, &got_b, "B")] {
        let mut isolated = Session::tenant(spec, &cfg);
        let want: Vec<Reply> = stream.iter().map(|c| isolated.submit(c).unwrap()).collect();
        isolated.shutdown();
        assert_identical(&want, got, &format!("tenant {who}"));
    }
    srv.shutdown();
}

/// Forced collisions end to end: with `hash_mask: 0` every command's key
/// lands in one bucket, so *only* the canonical-encoding compare keeps
/// distinct commands from stealing each other's replies. The session
/// must still be bit-identical to the uncached twin while genuinely
/// serving hits from the colliding store.
#[test]
fn forced_hash_collision_end_to_end_stays_bit_identical() {
    let cache = CommandCache::new(CacheConfig {
        hash_mask: 0,
        ..Default::default()
    });
    let mut plain = cpu(CpuMode::Threaded { threads: 4 }, None);
    let mut memo = cpu(CpuMode::Threaded { threads: 4 }, Some(cache.clone()));
    let a = run_cpu(&mut plain, STREAM, 3);
    let b = run_cpu(&mut memo, STREAM, 3);
    assert_identical(&a, &b, "hash_mask=0");
    let stats = cache.stats();
    assert!(
        stats.reply.hits >= STREAM.len() as u64,
        "colliding cache never served: {stats:?}"
    );
}

/// A narrow (but non-degenerate) mask gets the same treatment: partial
/// collisions across a wider key population.
#[test]
fn narrow_hash_mask_end_to_end_stays_bit_identical() {
    let commands: Vec<String> = (0..24)
        .map(|k| format!("(||| 2 plus ({k} {}) (3 4))", k + 1))
        .collect();
    let stream: Vec<&str> = commands.iter().map(String::as_str).collect();
    let cache = CommandCache::new(CacheConfig {
        hash_mask: 0x3,
        ..Default::default()
    });
    let mut plain = cpu(CpuMode::Threaded { threads: 4 }, None);
    let mut memo = cpu(CpuMode::Threaded { threads: 4 }, Some(cache.clone()));
    let a = run_cpu(&mut plain, &stream, 2);
    let b = run_cpu(&mut memo, &stream, 2);
    assert_identical(&a, &b, "hash_mask=0x3");
    assert!(
        cache.stats().reply.hits >= stream.len() as u64,
        "{:?}",
        cache.stats()
    );
}

/// The byte budget holds under a flood of distinct commands — retained
/// bytes stay under the configured ceiling and the LRU eviction counter
/// proves entries were actually dropped, not just never stored.
#[test]
fn cache_memory_stays_bounded_under_flood() {
    let config = CacheConfig {
        reply_byte_budget: 2048,
        hash_mask: u64::MAX,
    };
    let cache = CommandCache::new(config.clone());
    let mut memo = cpu(CpuMode::Threaded { threads: 4 }, Some(cache.clone()));
    let commands: Vec<String> = (0..120)
        .map(|k| format!("(||| 2 plus ({k} {}) ({} {}))", k + 1, k % 9, k % 7))
        .collect();
    let stream: Vec<&str> = commands.iter().map(String::as_str).collect();
    let replies = run_cpu(&mut memo, &stream, 1);
    assert!(replies.iter().all(|r| r.ok));
    assert!(
        cache.retained_bytes() <= config.reply_byte_budget,
        "retained {} over budget",
        cache.retained_bytes()
    );
    let stats = cache.stats();
    assert!(stats.reply.evictions >= 1, "flood never evicted: {stats:?}");
}
