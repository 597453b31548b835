//! Failure injection: resource exhaustion and limit violations in the
//! middle of realistic work, and the session's recovery behavior.

use culi::prelude::*;
use culi::sim::device;

#[test]
fn arena_exhaustion_mid_parallel_section_is_recoverable() {
    // An arena big enough for the builtins and small programs, but far too
    // small for a 256-worker section.
    let cfg = GpuReplConfig {
        interp: InterpConfig {
            arena_capacity: 2000,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut repl = GpuRepl::launch(device::gtx1080(), cfg);
    repl.submit("(defun burn (x) (list x x x x x x x x))")
        .unwrap();
    let args = vec!["9"; 256].join(" ");
    let reply = repl.submit(&format!("(||| 256 burn ({args}))")).unwrap();
    assert!(!reply.ok, "section must exhaust the arena");
    assert!(reply.output.contains("arena"), "{}", reply.output);
    // GC between commands reclaims the partial allocations; the session
    // keeps working at a size that fits.
    let reply = repl.submit("(||| 4 burn (1 2 3 4))").unwrap();
    assert!(reply.ok, "{}", reply.output);
}

#[test]
fn worker_recursion_limit_reports_the_worker() {
    let cfg = GpuReplConfig {
        interp: InterpConfig {
            max_depth: 48,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut repl = GpuRepl::launch(device::gtx680(), cfg);
    repl.submit("(defun spin (n) (if (< n 1) 0 (spin (- n 1))))")
        .unwrap();
    // Worker 1 gets a depth that exceeds the limit; worker 0 stays shallow.
    let reply = repl.submit("(||| 2 spin (1 500))").unwrap();
    assert!(!reply.ok);
    assert!(reply.output.contains("worker 1"), "{}", reply.output);
    assert!(reply.output.contains("recursion"), "{}", reply.output);
    assert_eq!(
        repl.submit("(spin 3)").unwrap().output,
        "0",
        "session survives"
    );
}

#[test]
fn output_buffer_overflow_is_a_printed_error() {
    let cfg = GpuReplConfig {
        interp: InterpConfig {
            output_capacity: 64,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut repl = GpuRepl::launch(device::tesla_m40(), cfg);
    let reply = repl
        .submit(&format!("(list {})", vec!["7"; 200].join(" ")))
        .unwrap();
    assert!(!reply.ok);
    assert!(reply.output.contains("output buffer"), "{}", reply.output);
    assert_eq!(repl.submit("(+ 1 1)").unwrap().output, "2");
}

#[test]
fn print_overflow_reports_the_same_counters_on_every_route() {
    // A print that overruns the output buffer fails after metered print
    // work; every route keeps that work in the reply's counters and phases.
    let interp = InterpConfig {
        output_capacity: 64,
        ..Default::default()
    };
    let cpu = |mode| {
        let cfg = CpuReplConfig {
            interp: interp.clone(),
            mode,
            ..Default::default()
        };
        CpuRepl::launch(device::intel_e5_2620(), cfg)
    };
    let input = format!("(list {})", vec!["7"; 200].join(" "));
    let mut gpu = GpuRepl::launch(
        device::tesla_m40(),
        GpuReplConfig {
            interp: interp.clone(),
            ..Default::default()
        },
    );
    let gpu_reply = gpu.submit(&input).unwrap();
    let modeled = cpu(CpuMode::Modeled).submit(&input).unwrap();
    let threaded = cpu(CpuMode::Threaded { threads: 2 })
        .submit(&input)
        .unwrap();
    let batched = cpu(CpuMode::Threaded { threads: 2 })
        .submit_batch(&[input.as_str()])
        .unwrap()
        .remove(0);
    assert_eq!(modeled.code, culi::core::ErrorCode::Limit);
    assert!(modeled.counters.print.output_bytes > 0, "{modeled:?}");
    for (name, reply) in [
        ("gpu", &gpu_reply),
        ("threaded", &threaded),
        ("batched", &batched),
    ] {
        assert_eq!(reply.code, modeled.code, "{name}");
        assert_eq!(reply.counters, modeled.counters, "{name}");
    }
    // CPU routes price on the same device, so their phases match exactly.
    assert!(modeled.phases.print_cycles > 0);
    assert_eq!(threaded.phases, modeled.phases);
    assert_eq!(batched.phases, modeled.phases);
    let gpu_print = culi::runtime::counters_to_cycles(&gpu.spec().costs, &gpu_reply.counters.print);
    assert_eq!(gpu_reply.phases.print_cycles, gpu_print);
}

#[test]
fn reply_exceeding_the_command_buffer_is_a_device_error() {
    // Misconfiguration: the interpreter's output fits its own buffer but
    // not the shared command buffer — a protocol violation, not a Lisp
    // error.
    let cfg = GpuReplConfig {
        cmdbuf_capacity: 4096,
        ..Default::default()
    };
    let mut repl = GpuRepl::launch(device::gtx480(), cfg);
    // Build a >4 KB result from a tiny input so only the reply overflows.
    repl.submit("(setq xs nil)").unwrap();
    repl.submit("(dotimes (i 600) (setq xs (cons 12345678 xs)))")
        .unwrap();
    match repl.submit("xs") {
        Err(RuntimeError::Device(culi::sim::SimError::Protocol(_))) => {}
        other => panic!("expected protocol violation, got {other:?}"),
    }
}

#[test]
fn parse_depth_limit_guards_pathological_nesting() {
    let cfg = GpuReplConfig {
        interp: InterpConfig {
            max_depth: 32,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut repl = GpuRepl::launch(device::gtx1080(), cfg);
    let deep = format!("{}1{}", "(".repeat(100), ")".repeat(100));
    let reply = repl.submit(&deep).unwrap();
    assert!(!reply.ok);
    assert!(reply.output.contains("recursion"), "{}", reply.output);
}

#[test]
fn threaded_backend_survives_a_failing_chunk() {
    let mut session = Session::cpu_threaded(device::intel_e5_2620(), 3);
    session.submit("(defun risky (x) (/ 100 x))").unwrap();
    let reply = session.submit("(||| 5 risky (1 2 0 4 5))").unwrap();
    assert!(!reply.ok);
    assert!(reply.output.contains("worker 2"), "{}", reply.output);
    assert_eq!(session.submit("(risky 4)").unwrap().output, "25");
}

#[test]
fn gc_restores_capacity_after_repeated_failures() {
    let cfg = GpuReplConfig {
        interp: InterpConfig {
            arena_capacity: 1500,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut repl = GpuRepl::launch(device::gtx1080(), cfg);
    for round in 0..50 {
        // Alternate failing oversized work with small successes.
        let too_big = format!("(list {})", vec!["1"; 2000].join(" "));
        let reply = repl.submit(&too_big).unwrap();
        assert!(!reply.ok, "round {round} should exhaust");
        let ok = repl.submit("(+ 1 2 3)").unwrap();
        assert_eq!(ok.output, "6", "round {round} should recover");
    }
}

#[test]
fn empty_parallel_argument_lists() {
    let mut session = Session::for_device(device::amd_6272());
    let reply = session.submit("(||| 1 + () ())").unwrap();
    assert!(
        !reply.ok,
        "empty lists cannot feed 1 worker: {}",
        reply.output
    );
    assert!(reply.output.contains("|||"));
}
