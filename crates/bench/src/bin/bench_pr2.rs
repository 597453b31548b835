//! `bench_pr2` — emits the PR-2 performance baseline as JSON.
//!
//! Measures the `|||` parallel path this PR rearchitected: median
//! wall-clock time per warm section on the persistent pooled backend vs.
//! the sequential reference, the flat-codec encode/decode cost, the
//! pooled printer, and the
//! high-water-bounded GC sweep (same row name as `BENCH_pr1.json` for a
//! side-by-side read). Also records the whole-interpreter clone count of
//! a 64-section warm pooled run — the PR's zero-clone acceptance number.
//! The fork-per-section baseline this PR replaced has been deleted; its
//! recorded speedup stays in the committed `BENCH_pr2.json`.
//!
//! ```text
//! cargo run --release -p culi-bench --bin bench_pr2 [out.json]
//! ```

use culi_bench::jsonout::{Json, ToJson};
use culi_bench::workload;
use culi_core::eval::SequentialHook;
use culi_core::{Interp, InterpConfig};
use culi_runtime::ThreadedHook;
use std::hint::black_box;
use std::time::Instant;

struct BenchRow {
    name: &'static str,
    median_ns: f64,
    samples: usize,
}

impl ToJson for BenchRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name", Json::Str(self.name.to_string())),
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

const SECTION: &str = "(||| 8 fib (4 4 4 4 4 4 4 4))";

fn session() -> Interp {
    let mut i = Interp::new(InterpConfig {
        arena_capacity: 1 << 16,
        ..Default::default()
    });
    i.eval_str(workload::FIB_DEFUN).unwrap();
    i
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr2.json".to_string());
    let samples = 9;
    let mut rows = Vec::new();

    // Warm pooled sections: persistent workers, incremental sync, flat
    // postbox job/result batches, collection after each command.
    {
        let mut i = session();
        let mut hook = ThreadedHook::new(8);
        i.eval_str_with(SECTION, &mut hook).unwrap(); // fork the pool
        let median = measure(samples, || {
            i.eval_str_with(SECTION, &mut hook).unwrap();
            culi_core::gc::collect(&mut i, &[]);
        });
        rows.push(BenchRow {
            name: "parallel_section/pooled_8_workers",
            median_ns: median,
            samples,
        });
    }

    // Sequential reference for scale.
    {
        let mut i = session();
        let median = measure(samples, || {
            i.eval_str_with(SECTION, &mut SequentialHook).unwrap();
            culi_core::gc::collect(&mut i, &[]);
        });
        rows.push(BenchRow {
            name: "parallel_section/sequential",
            median_ns: median,
            samples,
        });
    }

    // Zero-clone acceptance: 64 warm sections, clone delta must be 0.
    let warm_clones = {
        let mut i = session();
        let mut hook = ThreadedHook::new(8);
        i.eval_str_with(SECTION, &mut hook).unwrap();
        let before = i.clone_count();
        for _ in 0..64 {
            i.eval_str_with(SECTION, &mut hook).unwrap();
            culi_core::gc::collect(&mut i, &[]);
        }
        i.clone_count() - before
    };

    // Flat codec: encode+decode a job-sized expression batch (8 jobs).
    {
        let mut master = session();
        let forms = culi_core::parser::parse(&mut master, b"(fib 4)").unwrap();
        let mut replica = master.clone();
        let mut buf = culi_core::postbox::FlatTree::default();
        let median = measure(samples, || {
            buf.clear();
            for _ in 0..8 {
                buf.push_tree(&master, forms[0]);
            }
            for j in 0..8 {
                black_box(buf.decode(j, &mut replica).unwrap());
            }
            culi_core::gc::collect(&mut replica, &[]);
        });
        rows.push(BenchRow {
            name: "postbox/encode_decode_8_jobs",
            median_ns: median,
            samples,
        });
    }

    // Printer with the pooled output buffer (warm).
    {
        let mut i = Interp::default();
        let forms =
            culi_core::parser::parse(&mut i, format!("({})", "12345 ".repeat(64)).as_bytes())
                .unwrap();
        culi_core::printer::print_to_string(&mut i, forms[0]).unwrap(); // warm the pool
        let median = measure(samples, || {
            black_box(culi_core::printer::print_to_string(&mut i, forms[0]).unwrap())
        });
        rows.push(BenchRow {
            name: "printer/print_64_int_list_warm",
            median_ns: median,
            samples,
        });
    }

    // Full collection on a loaded 1 Mi-slot arena — same row as PR 1, now
    // bounded by the high-water slot instead of capacity.
    {
        let mut i = Interp::default();
        i.eval_str(workload::FIB_DEFUN).unwrap();
        i.eval_str("(fib 15)").unwrap();
        let median = measure(samples, || culi_core::gc::collect(&mut i, &[]));
        rows.push(BenchRow {
            name: "gc/collect_1mi_arena",
            median_ns: median,
            samples,
        });
    }

    let doc = Json::Obj(vec![
        ("baseline", Json::Str("pr2".to_string())),
        ("unit", Json::Str("nanoseconds (median)".to_string())),
        (
            "section_workload",
            Json::Str("64 warm ||| sections x 8 workers (fib 4 jobs)".to_string()),
        ),
        (
            "warm_interp_clones_over_64_sections",
            Json::UInt(warm_clones),
        ),
        (
            "rows",
            Json::Arr(rows.iter().map(ToJson::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, doc.pretty() + "\n").expect("write baseline json");
    println!("wrote {out_path}");
    for r in &rows {
        println!("{:<48} {:>12.1} ns", r.name, r.median_ns);
    }
    println!("warm interp clones over 64 sections: {warm_clones}");
    assert_eq!(warm_clones, 0, "warm pooled sections must not clone");
}
