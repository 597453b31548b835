//! `bench_pr4` — emits the PR-4 performance baseline as JSON, and acts as
//! the CI bench-regression gate.
//!
//! Measures the effect-analysis batch classification: command streams of
//! `|||` sections with **computed operands** (`(list c …)` constructors,
//! computed worker counts) coalesce into pipelined multi-section runs
//! instead of paying one full postbox rendezvous per command. The
//! headline `effects_speedup_vs_syntactic` compares a warm `submit_batch`
//! against a warm `submit` loop over the identical stream and must be
//! ≥ 2× (asserted, with zero warm interpreter clones). The metric keys
//! keep the names of the committed baseline, which measured a purely
//! syntactic classifier: that classifier barriered every one of these
//! commands, so it ran exactly the synchronous `submit` path timed here.
//! Also records the classifier's own cost per verdict and the
//! simulated-GPU command-buffer batching win (deterministic modeled
//! transfer nanoseconds, same effect-analysis rule).
//!
//! ```text
//! cargo run --release -p culi-bench --bin bench_pr4 [out.json]
//! cargo run --release -p culi-bench --bin bench_pr4 [out.json] --gate BENCH_pr4.json [band]
//! ```
//!
//! With `--gate`, key fresh metrics are compared against the committed
//! baseline: ratio metrics must stay within `band` (default 1.6, env
//! `CULI_BENCH_GATE_BAND`) of the baseline — i.e. `fresh ≥ baseline /
//! band` — on top of the hard acceptance floors. Any regression exits
//! non-zero so CI fails.

use culi_bench::jsonout::{Json, JsonValue, ToJson};
use culi_core::{effects, InterpConfig};
use culi_runtime::{CpuMode, CpuRepl, CpuReplConfig, GpuRepl, GpuReplConfig};
use std::hint::black_box;
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

/// Runs `f` repeatedly, returning the median ns per call over `samples`
/// batches sized to take roughly a millisecond each.
fn measure<O>(samples: usize, mut f: impl FnMut() -> O) -> f64 {
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
    let mut times: Vec<f64> = (0..samples)
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

const BATCH_LEN: usize = 32;
const PRELUDE: &[&str] = &["(setq c 3)", "(defun sq (x) (* x x))"];

fn threaded(threads: usize) -> CpuRepl {
    let mut repl = CpuRepl::launch(
        culi_gpu_sim::device::intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 16,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads },
            ..Default::default()
        },
    );
    for line in PRELUDE {
        repl.submit(line).unwrap();
    }
    repl
}

/// Median per-command ns over `BATCH_LEN` copies of `section`: a warm
/// `submit` loop (one synchronous rendezvous per command) and a warm
/// `submit_batch` (the effect analysis pipelines every command).
fn loop_and_batch(threads: usize, section: &str, samples: usize) -> (f64, f64) {
    let batch: Vec<&str> = vec![section; BATCH_LEN];
    let mut looped = threaded(threads);
    for line in &batch {
        looped.submit(line).unwrap();
    }
    let looped_ns = measure(samples, || {
        batch
            .iter()
            .map(|line| looped.submit(line).unwrap())
            .count()
    }) / BATCH_LEN as f64;

    let mut analyzed = threaded(threads);
    analyzed.submit_batch(&batch).unwrap();
    let pipelined = measure(samples, || analyzed.submit_batch(&batch).unwrap()) / BATCH_LEN as f64;
    (looped_ns, pipelined)
}

/// Fresh metrics the gate compares; returned alongside the JSON doc.
struct Metrics {
    effects_speedup: f64,
    count_speedup: f64,
    gpu_transfer_saved: f64,
    warm_clones: u64,
}

fn run_benchmarks(rows: &mut Vec<BenchRow>, samples: usize) -> Metrics {
    // Headline: a `(list …)` operand reading a global — the canonical
    // previously-barriered shape.
    let section_list = "(||| 8 + (1 2 3 4 5 6 7 8) (list c c c c c c c c))";
    let (barriered, pipelined) = loop_and_batch(8, section_list, samples);
    rows.push(BenchRow {
        name: "effects/submit_loop_per_command_8w_list_operand".into(),
        median_ns: barriered,
        samples,
    });
    rows.push(BenchRow {
        name: "effects/pipelined_per_command_8w_list_operand".into(),
        median_ns: pipelined,
        samples,
    });
    let effects_speedup = barriered / pipelined;

    // Computed worker count, the other previously-barriered shape.
    let section_count = "(||| (+ 4 4) sq (1 2 3 4 5 6 7 8))";
    let (b_count, p_count) = loop_and_batch(8, section_count, samples);
    rows.push(BenchRow {
        name: "effects/submit_loop_per_command_computed_count".into(),
        median_ns: b_count,
        samples,
    });
    rows.push(BenchRow {
        name: "effects/pipelined_per_command_computed_count".into(),
        median_ns: p_count,
        samples,
    });
    let count_speedup = b_count / p_count;

    // The classifier's own cost per verdict (charge-free bookkeeping on
    // the staging path — must stay trivially small next to a rendezvous).
    let classify_ns = {
        let mut interp = culi_core::Interp::default();
        for line in PRELUDE {
            interp.eval_str(line).unwrap();
        }
        let forms = culi_core::parser::parse(&mut interp, section_list.as_bytes()).unwrap();
        let global = interp.global;
        measure(samples, || {
            effects::stageable_parallel_section(&interp, global, forms[0])
        })
    };
    rows.push(BenchRow {
        name: "effects/classify_section_verdict".into(),
        median_ns: classify_ns,
        samples,
    });

    // Zero-clone acceptance over warm computed-operand batches.
    let warm_clones = {
        let mut repl = threaded(8);
        let batch: Vec<&str> = [section_list, section_count]
            .into_iter()
            .cycle()
            .take(BATCH_LEN)
            .collect();
        repl.submit_batch(&batch).unwrap(); // warm
        let before = repl.interp_mut().clone_count();
        for reply in repl.submit_batch(&batch).unwrap() {
            assert!(reply.ok, "{}", reply.output);
        }
        repl.interp_mut().clone_count() - before
    };

    // Simulated GPU: the same effect-analysis rule batches command
    // buffers — one upload + one reply handshake per run. The modeled
    // transfer cost is deterministic (byte counts and flag visibility),
    // so the saving is a noise-free gate metric.
    let gpu_section = "(||| 2 + (1 2) (list c c))";
    let gpu_inputs: Vec<&str> = std::iter::once("(setq c 3)")
        .chain(std::iter::repeat_n(gpu_section, BATCH_LEN))
        .collect();
    let gpu_transfer = |batched: bool| -> (u64, f64) {
        let mut repl = GpuRepl::launch(culi_gpu_sim::device::gtx1080(), GpuReplConfig::default());
        let replies = if batched {
            repl.submit_batch(&gpu_inputs).unwrap()
        } else {
            gpu_inputs.iter().map(|s| repl.submit(s).unwrap()).collect()
        };
        assert!(replies.iter().all(|r| r.ok));
        let transfer: u64 = replies.iter().map(|r| r.phases.transfer_ns).sum();
        (transfer, repl.elapsed_device_ns())
    };
    let (loop_transfer, loop_device_ns) = gpu_transfer(false);
    let (batch_transfer, batch_device_ns) = gpu_transfer(true);
    rows.push(BenchRow {
        name: "gpu/rendezvous_transfer_ns_per_command".into(),
        median_ns: loop_transfer as f64 / gpu_inputs.len() as f64,
        samples: 1,
    });
    rows.push(BenchRow {
        name: "gpu/batched_transfer_ns_per_command".into(),
        median_ns: batch_transfer as f64 / gpu_inputs.len() as f64,
        samples: 1,
    });
    let gpu_transfer_saved = loop_transfer as f64 / batch_transfer as f64;
    assert!(
        batch_device_ns < loop_device_ns,
        "batched GPU runs must also amortize the dispatch overhead"
    );

    Metrics {
        effects_speedup,
        count_speedup,
        gpu_transfer_saved,
        warm_clones,
    }
}

/// One gated ratio metric: fresh must stay within `band` of baseline and
/// above its hard floor.
fn gate_metric(
    baseline: &JsonValue,
    key: &str,
    fresh: f64,
    floor: f64,
    band: f64,
) -> Result<String, String> {
    let base = baseline
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("baseline is missing {key}"))?;
    let required = (base / band).max(floor);
    if fresh >= required {
        Ok(format!(
            "  ok   {key}: fresh {fresh:.2} vs baseline {base:.2} (required >= {required:.2})"
        ))
    } else {
        Err(format!(
            "  FAIL {key}: fresh {fresh:.2} regressed below {required:.2} \
             (baseline {base:.2}, band {band:.2}, floor {floor:.2})"
        ))
    }
}

fn run_gate(baseline_path: &str, baseline: &JsonValue, band: f64, metrics: &Metrics) {
    println!("bench gate vs {baseline_path} (band {band:.2}):");
    let checks = [
        gate_metric(
            baseline,
            "effects_speedup_vs_syntactic",
            metrics.effects_speedup,
            2.0,
            band,
        ),
        gate_metric(
            baseline,
            "computed_count_speedup_vs_syntactic",
            metrics.count_speedup,
            2.0,
            band,
        ),
        gate_metric(
            baseline,
            "gpu_transfer_saved_ratio",
            metrics.gpu_transfer_saved,
            1.05,
            band,
        ),
    ];
    let mut failed = false;
    for check in checks {
        match check {
            Ok(line) => println!("{line}"),
            Err(line) => {
                println!("{line}");
                failed = true;
            }
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
        .unwrap_or_else(|| "BENCH_pr4.json".to_string());
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

    // Load the baseline up front: `[out.json]` is optional and defaults
    // to the committed baseline's own name, so reading after the write
    // below could silently compare fresh-vs-fresh.
    let baseline = gate_baseline.as_ref().map(|path| {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        JsonValue::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
    });

    let samples = 9;
    let mut rows = Vec::new();
    let metrics = run_benchmarks(&mut rows, samples);

    let doc = Json::Obj(vec![
        ("baseline", Json::Str("pr4".to_string())),
        ("unit", Json::Str("nanoseconds (median)".to_string())),
        (
            "batch_workload",
            Json::Str(format!(
                "{BATCH_LEN} warm computed-operand ||| commands per batch, 8 workers"
            )),
        ),
        (
            "effects_speedup_vs_syntactic",
            Json::Num(metrics.effects_speedup),
        ),
        (
            "computed_count_speedup_vs_syntactic",
            Json::Num(metrics.count_speedup),
        ),
        (
            "gpu_transfer_saved_ratio",
            Json::Num(metrics.gpu_transfer_saved),
        ),
        (
            "warm_interp_clones_over_computed_operand_batches",
            Json::UInt(metrics.warm_clones),
        ),
        (
            "rows",
            Json::Arr(rows.iter().map(ToJson::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, doc.pretty() + "\n").expect("write baseline json");
    println!("wrote {out_path}");
    for r in &rows {
        println!("{:<56} {:>12.1} ns", r.name, r.median_ns);
    }
    println!(
        "effects-classifier speedup vs submit loop (list operand): {:.2}x",
        metrics.effects_speedup
    );
    println!(
        "effects-classifier speedup vs submit loop (computed count): {:.2}x",
        metrics.count_speedup
    );
    println!(
        "gpu batched-command-buffer transfer saving: {:.2}x",
        metrics.gpu_transfer_saved
    );
    println!(
        "warm interp clones over computed-operand batches: {}",
        metrics.warm_clones
    );
    assert_eq!(
        metrics.warm_clones, 0,
        "warm computed-operand batches must not clone the interpreter"
    );
    assert!(
        metrics.effects_speedup >= 2.0,
        "computed-operand batches must pipeline >=2x over the submit loop \
         (got {:.2}x)",
        metrics.effects_speedup
    );
    assert!(
        metrics.count_speedup >= 2.0,
        "computed-worker-count batches must pipeline >=2x over the submit loop \
         (got {:.2}x)",
        metrics.count_speedup
    );

    if let (Some(baseline_path), Some(baseline)) = (gate_baseline, baseline) {
        run_gate(&baseline_path, &baseline, band, &metrics);
    }
}
