//! Equivalence of the pipelined batch dispatcher against PR 2's
//! synchronous per-command rendezvous: `submit_batch` over a randomized
//! command stream must produce byte-identical replies *and* identical
//! per-command paper-model counters to a `submit` loop on an identically
//! configured session — including worker errors mid-batch, global-
//! mutating jobs that dirty a seat while the next section is already
//! staged in the double buffer, defines acting as barriers, computed
//! operands and worker counts that the effect analysis stages, and
//! operands invoking user forms that it must refuse.

use culi_core::InterpConfig;
use culi_runtime::{CpuMode, CpuRepl, CpuReplConfig};
use proptest::prelude::*;

const PRELUDE: &[&str] = &[
    "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
    "(defun plus (a b) (+ a b))",
    "(defun addg (x) (+ x g))",
    "(defun fibj (x) (fib (mod x 8)))",
    "(defun boom (x) (/ 100 x))",
    "(defun nest (x) (||| 2 plus (list x g) (3 4)))",
    "(defun bump (x) (progn (setq total (+ total x)) total))",
    "(setq g 1)",
    "(setq total 100)",
    "(setq xs (list 4 5 6 7 8 9))",
];

/// One statement of a generated program.
#[derive(Debug, Clone)]
enum Stmt {
    /// `(setq g V)` — a barrier in the pipelined dispatcher.
    SetG(i64),
    /// Redefine `addg` — a barrier plus a shadowing global define.
    Redef(bool),
    /// A `|||` section over one of the prelude functions with literal
    /// argument lists (pipeline-stageable for pure functions).
    Section { func: u8, n: u8, args: Vec<i64> },
    /// A section over the global list `xs` (stageable symbol operand).
    SymbolArgSection(u8),
    /// A section with a `(list …)` operand reading the global `g` (a
    /// computed operand the effect analysis stages).
    ListOperandSection(u8),
    /// A section whose worker count is computed (stageable).
    ComputedCountSection(u8),
    /// A section whose argument list is a conditional over `g`
    /// (stageable).
    ConditionalOperandSection,
    /// A section whose operand calls a user form — impure, so the
    /// effect classifier must barrier it.
    FormOperandSection,
}

fn stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (-100i64..100).prop_map(Stmt::SetG),
        any::<bool>().prop_map(Stmt::Redef),
        (0u8..6, 1u8..6, prop::collection::vec(-8i64..8, 0..8))
            .prop_map(|(func, n, args)| Stmt::Section { func, n, args }),
        (1u8..6).prop_map(Stmt::SymbolArgSection),
        (1u8..4).prop_map(Stmt::ListOperandSection),
        (1u8..5).prop_map(Stmt::ComputedCountSection),
        Just(Stmt::ConditionalOperandSection),
        Just(Stmt::FormOperandSection),
    ]
}

fn render(s: &Stmt) -> String {
    match s {
        Stmt::SetG(v) => format!("(setq g {v})"),
        Stmt::Redef(add) => {
            let op = if *add { "+" } else { "-" };
            format!("(defun addg (x) ({op} x g))")
        }
        Stmt::Section { func, n, args } => {
            let list: Vec<String> = args.iter().map(i64::to_string).collect();
            let list = list.join(" ");
            match func {
                0 => {
                    let second: Vec<String> = (0..*n).map(|i| i.to_string()).collect();
                    format!("(||| {n} plus ({list}) ({}))", second.join(" "))
                }
                1 => format!("(||| {n} addg ({list}))"),
                2 => format!("(||| {n} fibj ({list}))"),
                // boom divides by its argument: zeros → worker errors.
                3 => format!("(||| {n} boom ({list}))"),
                // nested ||| inside each worker, reading the global g.
                4 => format!("(||| {n} nest ({list}))"),
                // bump mutates the worker's global state: dirty seats,
                // snapshot resyncs, refused staged sections.
                _ => format!("(||| {n} bump ({list}))"),
            }
        }
        Stmt::SymbolArgSection(n) => format!("(||| {n} addg xs)"),
        Stmt::ListOperandSection(n) => format!("(||| {n} plus (list g g g) (7 8 9))"),
        Stmt::ComputedCountSection(n) => {
            format!("(||| (+ 1 {n}) fibj (1 2 3 4 5 6))")
        }
        Stmt::ConditionalOperandSection => {
            "(||| 2 plus (if (< g 0) (1 2) (3 4)) (10 20))".to_string()
        }
        Stmt::FormOperandSection => "(||| 2 plus (list (plus g 1) 2) (5 6))".to_string(),
    }
}

fn threaded_repl(threads: usize) -> CpuRepl {
    CpuRepl::launch(
        culi_gpu_sim::device::intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 16,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads },
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// submit_batch ≡ submit loop over whole randomized programs: same
    /// outputs, same ok flags, same per-command counters.
    #[test]
    fn pipelined_batch_matches_rendezvous_loop(stmts in prop::collection::vec(stmt(), 1..12)) {
        let mut rendezvous = threaded_repl(4);
        let mut pipelined = threaded_repl(4);
        for line in PRELUDE {
            rendezvous.submit(line).unwrap();
            pipelined.submit(line).unwrap();
        }
        let sources: Vec<String> = stmts.iter().map(render).collect();
        let inputs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let batched = pipelined.submit_batch(&inputs).unwrap();
        prop_assert_eq!(batched.len(), inputs.len());
        for (k, (src, got)) in inputs.iter().zip(&batched).enumerate() {
            let want = rendezvous.submit(src).unwrap();
            prop_assert_eq!(&want.output, &got.output, "stmt {}: {}", k, src);
            prop_assert_eq!(want.ok, got.ok, "stmt {}: {}", k, src);
            prop_assert_eq!(want.counters, got.counters, "stmt {}: {}", k, src);
        }
    }
}

/// Directed: a seat is dirtied by a mutating section while the next
/// section is already staged; the refused message is re-armed with a
/// snapshot and the batch stays value- and counter-identical.
#[test]
fn dirty_seat_mid_batch_matches_rendezvous() {
    let mut rendezvous = threaded_repl(2);
    let mut pipelined = threaded_repl(2);
    for line in PRELUDE {
        rendezvous.submit(line).unwrap();
        pipelined.submit(line).unwrap();
    }
    let inputs = [
        "(||| 2 bump (1 2))",
        "(||| 2 bump (3 4))",
        "(||| 2 addg (1 2))",
        "(||| 2 bump (5 6))",
        "(||| 2 fibj (3 4))",
    ];
    let batched = pipelined.submit_batch(&inputs).unwrap();
    for (src, got) in inputs.iter().zip(&batched) {
        let want = rendezvous.submit(src).unwrap();
        assert_eq!(want.output, got.output, "{src}");
        assert_eq!(want.counters, got.counters, "{src}");
    }
    // Neither path clones the interpreter for dirty-seat recovery.
    assert_eq!(
        rendezvous.interp_mut().clone_count(),
        pipelined.interp_mut().clone_count()
    );
}

/// Directed: worker errors inside a pipelined batch surface on the right
/// command, with the right global job index, and the pipeline keeps
/// going.
#[test]
fn worker_error_mid_batch_matches_rendezvous() {
    let mut rendezvous = threaded_repl(3);
    let mut pipelined = threaded_repl(3);
    for line in PRELUDE {
        rendezvous.submit(line).unwrap();
        pipelined.submit(line).unwrap();
    }
    let inputs = [
        "(||| 4 boom (1 2 5 10))",
        "(||| 4 boom (1 0 5 0))", // worker 1 fails first
        "(||| 4 boom (2 4 5 10))",
    ];
    let batched = pipelined.submit_batch(&inputs).unwrap();
    for (src, got) in inputs.iter().zip(&batched) {
        let want = rendezvous.submit(src).unwrap();
        assert_eq!(want.output, got.output, "{src}");
        assert_eq!(want.ok, got.ok, "{src}");
        assert_eq!(want.counters, got.counters, "{src}");
    }
    assert!(!batched[1].ok);
    assert!(
        batched[1].output.contains("worker 1"),
        "{}",
        batched[1].output
    );
}

/// A warm pipelined batch of pure sections performs zero interpreter
/// clones — the PR 3 acceptance invariant, now also holding for
/// mutating workloads (snapshot resync replaced the dirty re-fork).
#[test]
fn warm_batches_keep_the_zero_clone_invariant() {
    let mut repl = threaded_repl(4);
    for line in PRELUDE {
        repl.submit(line).unwrap();
    }
    repl.submit("(||| 4 fibj (1 2 3 4))").unwrap(); // warm the pool
    let clones = repl.interp_mut().clone_count();
    let mixed: Vec<&str> = vec![
        "(||| 4 fibj (1 2 3 4))",
        "(||| 4 bump (1 2 3 4))", // dirties every seat
        "(||| 4 addg (1 2 3 4))", // forces snapshot re-arms
    ]
    .into_iter()
    .cycle()
    .take(30)
    .collect();
    let replies = repl.submit_batch(&mixed).unwrap();
    assert!(replies.iter().all(|r| r.ok));
    assert_eq!(
        repl.interp_mut().clone_count(),
        clones,
        "warm pipelined batches (dirty seats included) must not clone"
    );
}
