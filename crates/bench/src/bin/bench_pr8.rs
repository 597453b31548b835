//! `bench_pr8` — emits the PR-8 structural-hash command-cache baseline
//! as JSON, and acts as the CI bench-regression gate for the cache.
//!
//! Production command traffic is heavily repetitive: the same preludes,
//! query shapes and sections arrive over and over across tenants. The
//! bench drives a **Zipf(0.99)-skewed stream** over a universe of
//! distinct pure commands through two identically configured
//! [`culi_runtime::CpuRepl`] batch sessions — one with the
//! [`culi_runtime::CommandCache`] enabled, one without — and asserts the
//! replies are **byte-identical** (output, ok, code and full paper-model
//! counters) before reporting a single timing number. The cache has one
//! tier: whole replies of pure commands, keyed on structure, source text
//! and env epoch, in a byte-budgeted store per session.
//!
//! * **`zipf_speedup`** — per-command wall time, uncached ÷ cached, on
//!   the skewed stream. Hard floor **≥ 5×** (the PR's acceptance bar:
//!   repeated traffic must shed at least that much per-command overhead),
//!   plus a downward baseline-relative regression band.
//! * **`reply_hit_rate`** — reply hits ÷ probes on the skewed stream;
//!   gated against the baseline with an absolute 0.50 floor so the
//!   speedup can never be bought by quietly disabling the cache.
//! * **`miss_overhead`** — per-command wall time, cached ÷ uncached, on
//!   an **all-distinct** stream (every probe misses). This is the pure
//!   cost of hashing, probing and storing replies that are never reused;
//!   gated upward against `max(baseline × band, 1.5)` so cold traffic
//!   never pays a large tax.
//!
//! Every sample also asserts the store stays within its
//! `reply_byte_budget`.
//!
//! ```text
//! cargo run --release -p culi-bench --bin bench_pr8 [out.json]
//! cargo run --release -p culi-bench --bin bench_pr8 [out.json] --gate BENCH_pr8.json [band]
//! ```

use culi_bench::jsonout::{Json, JsonValue, ToJson};
use culi_runtime::{CacheConfig, CommandCache, CpuMode, CpuRepl, CpuReplConfig, Reply};
use std::time::Instant;

struct BenchRow {
    name: String,
    median_ns: f64,
    samples: usize,
}

impl ToJson for BenchRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("median_ns", Json::Num(self.median_ns)),
            ("samples", Json::UInt(self.samples as u64)),
        ])
    }
}

fn fast_mode() -> bool {
    std::env::var("CULI_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

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

const PRELUDE: &[&str] = &[
    "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
    "(defun plus (a b) (+ a b))",
    "(defun addg (x) (+ x g))",
    "(defun fibj (x) (fib (+ 8 (mod x 4))))",
    "(setq g 1)",
    "(setq xs (list 3 4 5 6 7 8))",
];

/// The command universe: `n` distinct pure commands (sections over the
/// prelude functions plus scalar reads), each with real execution cost
/// so a served reply actually saves work. Rank 0 is the hottest shape
/// under the Zipf skew.
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
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cdf.push(acc);
    }
    (0..len)
        .map(|_| {
            let r = rng.f64() * acc;
            cdf.partition_point(|&c| c < r).min(n - 1)
        })
        .collect()
}

fn repl(cache: Option<CommandCache>) -> CpuRepl {
    CpuRepl::launch(
        culi_gpu_sim::device::intel_e5_2620(),
        CpuReplConfig {
            interp: culi_core::InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads: 4 },
            cache,
            ..Default::default()
        },
    )
}

/// Runs one arm: prelude via `submit` (untimed), then the stream through
/// `submit_batch` in serving-sized chunks (timed). Returns total ns and
/// every reply in submission order.
fn run_arm(cache: Option<CommandCache>, stream: &[&str]) -> (f64, Vec<Reply>) {
    let mut repl = repl(cache);
    for line in PRELUDE {
        assert!(repl.submit(line).expect("prelude").ok);
    }
    let mut replies = Vec::with_capacity(stream.len());
    let t0 = Instant::now();
    for chunk in stream.chunks(64) {
        replies.extend(repl.submit_batch(chunk).expect("batch"));
    }
    let total_ns = t0.elapsed().as_nanos() as f64;
    (total_ns, replies)
}

/// Byte-identity: everything the paper model observes must match; only
/// wall-clock and modeled phase timings may differ on served replies.
fn assert_identical(uncached: &[Reply], cached: &[Reply], arm: &str) {
    assert_eq!(uncached.len(), cached.len());
    for (k, (want, got)) in uncached.iter().zip(cached).enumerate() {
        assert_eq!(want.output, got.output, "{arm} cmd {k}");
        assert_eq!(want.ok, got.ok, "{arm} cmd {k}");
        assert_eq!(want.code, got.code, "{arm} cmd {k}");
        assert_eq!(want.counters, got.counters, "{arm} cmd {k} charges");
    }
}

/// Fresh metrics the gate compares; returned alongside the JSON rows.
struct Metrics {
    zipf_speedup: f64,
    reply_hit_rate: f64,
    miss_overhead: f64,
}

fn run_benchmarks(rows: &mut Vec<BenchRow>, samples: usize) -> Metrics {
    let (stream_len, universe_n) = if fast_mode() {
        (1024, 128)
    } else {
        (4096, 256)
    };
    let commands = universe(universe_n);
    let mut rng = Rng(0x5eed_c0de);
    let ranks = zipf_stream(universe_n, 0.99, stream_len, &mut rng);
    let zipf: Vec<&str> = ranks.iter().map(|&k| commands[k].as_str()).collect();

    // --- Skewed repeated traffic: cached vs uncached -------------------
    // Best-of-N per arm so one scheduler hiccup cannot fail CI. Byte
    // identity is asserted on every sample, not just the best one.
    let mut uncached_best = f64::INFINITY;
    let mut cached_best = f64::INFINITY;
    let mut hit_rate = 0.0;
    for _ in 0..samples {
        let (uncached_ns, uncached_replies) = run_arm(None, &zipf);
        let cache = CommandCache::new(CacheConfig::default());
        let (cached_ns, cached_replies) = run_arm(Some(cache.clone()), &zipf);
        assert_identical(&uncached_replies, &cached_replies, "zipf");
        assert!(uncached_replies.iter().all(|r| r.ok));
        uncached_best = uncached_best.min(uncached_ns);
        cached_best = cached_best.min(cached_ns);
        let stats = cache.stats();
        hit_rate = stats.reply.hits as f64 / (stats.reply.hits + stats.reply.misses) as f64;
        // The acceptance criterion "cache memory stays bounded": the
        // budget discipline must hold at the end of every sample.
        let config = CacheConfig::default();
        assert!(
            cache.retained_bytes() <= config.reply_byte_budget,
            "cache retained {} bytes over budget",
            cache.retained_bytes()
        );
    }
    let zipf_speedup = uncached_best / cached_best;
    let per_cmd = stream_len as f64;
    rows.push(BenchRow {
        name: "zipf/uncached_ns_per_cmd".into(),
        median_ns: uncached_best / per_cmd,
        samples,
    });
    rows.push(BenchRow {
        name: "zipf/cached_ns_per_cmd".into(),
        median_ns: cached_best / per_cmd,
        samples,
    });

    // --- All-distinct traffic: the probe tax on pure misses ------------
    let distinct: Vec<String> = (0..stream_len)
        .map(|k| format!("(||| 2 plus ({k} {}) ({} 4))", k + 1, k % 9))
        .collect();
    let distinct_refs: Vec<&str> = distinct.iter().map(String::as_str).collect();
    let mut miss_uncached = f64::INFINITY;
    let mut miss_cached = f64::INFINITY;
    for _ in 0..samples {
        let (a_ns, a) = run_arm(None, &distinct_refs);
        let (b_ns, b) = run_arm(
            Some(CommandCache::new(CacheConfig::default())),
            &distinct_refs,
        );
        assert_identical(&a, &b, "distinct");
        miss_uncached = miss_uncached.min(a_ns);
        miss_cached = miss_cached.min(b_ns);
    }
    let miss_overhead = miss_cached / miss_uncached;
    rows.push(BenchRow {
        name: "distinct/uncached_ns_per_cmd".into(),
        median_ns: miss_uncached / per_cmd,
        samples,
    });
    rows.push(BenchRow {
        name: "distinct/cached_ns_per_cmd".into(),
        median_ns: miss_cached / per_cmd,
        samples,
    });

    Metrics {
        zipf_speedup,
        reply_hit_rate: hit_rate,
        miss_overhead,
    }
}

fn run_gate(baseline_path: &str, baseline: &JsonValue, band: f64, metrics: &Metrics) {
    println!("bench gate vs {baseline_path} (band {band:.2}):");
    let mut failed = false;

    // Speedup: the 5x acceptance floor is absolute; the downward
    // baseline-relative band catches cache regressions well above it.
    match baseline.get("zipf_speedup").and_then(JsonValue::as_f64) {
        Some(base) => {
            let required = (base / band).max(5.0);
            if metrics.zipf_speedup >= required {
                println!(
                    "  ok   zipf_speedup: fresh {:.2}x vs baseline {base:.2}x \
                     (required >= {required:.2}x)",
                    metrics.zipf_speedup
                );
            } else {
                println!(
                    "  FAIL zipf_speedup: fresh {:.2}x fell below {required:.2}x \
                     (baseline {base:.2}x, band {band:.2}, floor 5.00x)",
                    metrics.zipf_speedup
                );
                failed = true;
            }
        }
        None => {
            println!("  FAIL baseline is missing zipf_speedup");
            failed = true;
        }
    }

    // Hit rate: a ratio in [0, 1] — the band divides, the 0.50 absolute
    // floor keeps the speedup honest (it cannot come from a disabled
    // cache plus a lucky timing run).
    match baseline.get("reply_hit_rate").and_then(JsonValue::as_f64) {
        Some(base) => {
            let required = (base / band).max(0.50);
            if metrics.reply_hit_rate >= required {
                println!(
                    "  ok   reply_hit_rate: fresh {:.3} vs baseline {base:.3} \
                     (required >= {required:.3})",
                    metrics.reply_hit_rate
                );
            } else {
                println!(
                    "  FAIL reply_hit_rate: fresh {:.3} fell below {required:.3} \
                     (baseline {base:.3}, band {band:.2}, floor 0.500)",
                    metrics.reply_hit_rate
                );
                failed = true;
            }
        }
        None => {
            println!("  FAIL baseline is missing reply_hit_rate");
            failed = true;
        }
    }

    // Miss overhead: upward band with an absolute allowance — pure-miss
    // traffic pays hashing + probing; the gate catches that tax growing
    // past half again the uncached cost.
    match baseline.get("miss_overhead").and_then(JsonValue::as_f64) {
        Some(base) => {
            let allowed = (base * band).max(1.5);
            if metrics.miss_overhead <= allowed {
                println!(
                    "  ok   miss_overhead: fresh {:.3} vs baseline {base:.3} \
                     (allowed <= {allowed:.3})",
                    metrics.miss_overhead
                );
            } else {
                println!(
                    "  FAIL miss_overhead: fresh {:.3} grew past {allowed:.3} \
                     (baseline {base:.3}, band {band:.2})",
                    metrics.miss_overhead
                );
                failed = true;
            }
        }
        None => {
            println!("  FAIL baseline is missing miss_overhead");
            failed = true;
        }
    }

    if failed {
        eprintln!("bench-regression gate FAILED");
        std::process::exit(1);
    }
    println!("bench-regression gate passed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr8.json".to_string());
    let gate_baseline = args.iter().position(|a| a == "--gate").map(|i| {
        args.get(i + 1)
            .expect("--gate needs a baseline path")
            .clone()
    });
    let band = std::env::var("CULI_BENCH_GATE_BAND")
        .ok()
        .and_then(|s| s.parse().ok())
        .or_else(|| {
            gate_baseline.as_ref().and_then(|_| {
                args.iter()
                    .position(|a| a == "--gate")
                    .and_then(|i| args.get(i + 2))
                    .and_then(|s| s.parse().ok())
            })
        })
        .unwrap_or(1.6);

    // Load the baseline up front: `[out.json]` defaults to the committed
    // baseline's own name, so reading after the write below could
    // silently compare fresh-vs-fresh.
    let baseline = gate_baseline.as_ref().map(|path| {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        JsonValue::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
    });

    let samples = 3;
    let mut rows = Vec::new();
    let metrics = run_benchmarks(&mut rows, samples);

    let doc = Json::Obj(vec![
        ("baseline", Json::Str("pr8".to_string())),
        ("unit", Json::Str("nanoseconds (median)".to_string())),
        (
            "cache_workload",
            Json::Str(
                "Zipf(0.99) stream over a universe of distinct pure commands (fibj/plus/addg \
                 sections, scalar reads) through CpuRepl submit_batch in 64-command chunks, \
                 threaded x4, intel_e5_2620; cached arm = CommandCache with default budgets"
                    .to_string(),
            ),
        ),
        ("zipf_speedup", Json::Num(metrics.zipf_speedup)),
        ("reply_hit_rate", Json::Num(metrics.reply_hit_rate)),
        ("miss_overhead", Json::Num(metrics.miss_overhead)),
        (
            "rows",
            Json::Arr(rows.iter().map(ToJson::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, doc.pretty() + "\n").expect("write baseline json");
    println!("wrote {out_path}");
    for r in &rows {
        println!("{:<56} {:>14.1} ns", r.name, r.median_ns);
    }
    println!(
        "repeated-traffic speedup (Zipf 0.99): {:.2}x",
        metrics.zipf_speedup
    );
    println!("reply-tier hit rate: {:.3}", metrics.reply_hit_rate);
    println!("pure-miss overhead: {:.3}", metrics.miss_overhead);
    assert!(
        metrics.zipf_speedup >= 5.0,
        "the cache must shed >= 5x per-command cost on Zipf(0.99) traffic, measured {:.2}x",
        metrics.zipf_speedup
    );

    if let (Some(baseline_path), Some(baseline)) = (gate_baseline, baseline) {
        run_gate(&baseline_path, &baseline, band, &metrics);
    }
}
