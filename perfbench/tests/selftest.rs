//! Self-tests of the benchmark: its counts repeat exactly for a seed, its
//! seeds change the stream but not its shape, and its expected outputs
//! are what a bare interpreter prints.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use culi_perfbench::drive::{setup, timed_pass, Checks, Plan, Window};
use culi_perfbench::gen::{Cmd, Workload};
use culi_perfbench::report::server_arm;
use std::collections::HashSet;

/// A small plan. Tenants move to the warm route after 32 commands: the
/// `serve-light` window (4 commands a round) crosses that point, so it
/// sees forks and evictions; the `gpu-paper` server tenant (one command a
/// round) is past it before its window.
fn small_plan(workload: Workload) -> Plan {
    let sweep = culi_bench::workload::thread_counts().len();
    let (warm_units, window_units) = match workload {
        Workload::ServeLight => (4, 8),
        Workload::PoolFib => (4, 8),
        Workload::GpuPaper => (32, sweep + 3),
    };
    Plan {
        setups: 1,
        warm_units,
        window_units,
        cycle_units: 1,
    }
}

/// The count windows of a traced main pass and of the server pass.
fn counts(workload: Workload, seed: u64) -> (Window, Window) {
    let plan = small_plan(workload);
    let mut checks = Checks::default();
    let (mut rig, _) = setup(workload, seed, &plan, &mut checks);
    let mut main = timed_pass(&mut rig, &plan, 0.0, true);
    rig.finish(&mut main.checks);
    checks.absorb(&main.checks);
    let server = match workload {
        Workload::ServeLight => main.window.clone(),
        _ => server_arm(workload, seed, &plan, &mut checks).window,
    };
    assert!(
        checks.clean(),
        "{}: {:?}",
        workload.name(),
        checks.first_wrong
    );
    (main.window, server)
}

#[test]
fn count_metrics_repeat_exactly_for_a_seed() {
    for workload in Workload::ALL {
        let first = counts(workload, 42);
        let second = counts(workload, 42);
        assert_eq!(first, second, "{}", workload.name());
        let (main, server) = first;
        assert!(main.cmds > 0 && main.model_ms > 0.0, "{}", workload.name());
        assert!(server.server_rounds > 0, "{}", workload.name());
        let probes = server.cache.reply.hits + server.cache.reply.misses;
        assert!(
            probes > 0,
            "{}: the server cache saw no probes",
            workload.name()
        );
    }
    // The serve-light window crosses promotion: warm forks are made and
    // evicted, and some tenants start rounds cold.
    let (main, _) = counts(Workload::ServeLight, 42);
    assert!(main.evictions > 0 && main.cold_cmds > 0);
}

/// The first `n` commands of every client, client after client.
fn stream(workload: Workload, seed: u64, n: usize) -> Vec<Cmd> {
    workload
        .clients(seed)
        .iter_mut()
        .flat_map(|c| (0..n).map(|_| c.next_cmd()).collect::<Vec<_>>())
        .collect()
}

/// Write share and distinct-command share of a stream.
fn shape(cmds: &[Cmd]) -> (f64, f64) {
    let writes = cmds.iter().filter(|c| c.write).count();
    let distinct: HashSet<&str> = cmds.iter().map(|c| c.text.as_str()).collect();
    let n = cmds.len() as f64;
    (writes as f64 / n, distinct.len() as f64 / n)
}

#[test]
fn another_seed_changes_the_stream_but_not_its_shape() {
    for (workload, n) in [
        (Workload::ServeLight, 256),
        (Workload::PoolFib, 4096),
        (Workload::GpuPaper, 13 * 64),
    ] {
        let a = stream(workload, 1, n);
        let b = stream(workload, 2, n);
        assert_ne!(
            a,
            b,
            "{}: seeds 1 and 2 gave the same stream",
            workload.name()
        );
        let (wa, da) = shape(&a);
        let (wb, db) = shape(&b);
        assert!(
            (wa - wb).abs() < 0.01,
            "{}: write share {wa} vs {wb}",
            workload.name()
        );
        assert!(
            (da - db).abs() <= 0.05 * da.max(db),
            "{}: distinct share {da} vs {db}",
            workload.name()
        );
    }
}

#[test]
fn expected_outputs_match_a_bare_interpreter() {
    for (workload, n) in [
        (Workload::ServeLight, 64),
        (Workload::PoolFib, 64),
        (Workload::GpuPaper, 13),
    ] {
        for mut client in workload.clients(7).into_iter().take(4) {
            let mut interp = culi_core::Interp::default();
            let stream: Vec<Cmd> = (0..n).map(|_| client.next_cmd()).collect();
            for cmd in client.prelude.iter().chain(&stream) {
                let out = interp
                    .eval_str(&cmd.text)
                    .expect("generated commands evaluate");
                assert_eq!(out, cmd.expected, "{}: {}", workload.name(), cmd.text);
                culi_core::gc::collect(&mut interp, &[]);
            }
        }
    }
}
