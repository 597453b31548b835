//! `|||` section throughput across CPU backends (real wall time): the
//! persistent pooled backend vs. the sequential reference. Sections run through `eval_str_with` followed by
//! a collection, mirroring a REPL's per-command cycle; the pooled backend
//! is warmed before timing so the numbers show steady-state sections.

use criterion::{criterion_group, criterion_main, Criterion};
use culi_core::eval::SequentialHook;
use culi_core::{Interp, InterpConfig};
use culi_runtime::ThreadedHook;
use std::hint::black_box;

const SECTION: &str = "(||| 8 fib (4 4 4 4 4 4 4 4))";

fn session() -> Interp {
    // Small arena: far above the workload's needs.
    let mut i = Interp::new(InterpConfig {
        arena_capacity: 1 << 16,
        ..Default::default()
    });
    i.eval_str(culi_bench::workload::FIB_DEFUN).unwrap();
    i
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_section");
    group.sample_size(20);

    {
        let mut i = session();
        let mut hook = ThreadedHook::new(8);
        i.eval_str_with(SECTION, &mut hook).unwrap(); // fork the pool
        group.bench_function("pooled_8_workers", |b| {
            b.iter(|| {
                black_box(i.eval_str_with(SECTION, &mut hook).unwrap());
                culi_core::gc::collect(&mut i, &[]);
            })
        });
    }

    {
        let mut i = session();
        group.bench_function("sequential", |b| {
            b.iter(|| {
                black_box(i.eval_str_with(SECTION, &mut SequentialHook).unwrap());
                culi_core::gc::collect(&mut i, &[]);
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
