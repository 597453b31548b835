//! The two runs — untraced end-to-end and traced per-layer — and the
//! metrics they print.

use crate::drive::{percentile, setup, timed_pass, Checks, Pass, Plan, Rig, ServeRig, Window};
use crate::gen::Workload;
use crate::layers;
use culi_core::InterpConfig;
use culi_gpu_sim::device::{intel_e5_2620, tesla_k20};
use culi_runtime::{TenantSessionConfig, TierStats};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run prints as its last line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output checked and equal to the expected one.
    pub correct: bool,
    /// Commands attempted.
    pub attempted: u64,
    /// Commands whose reply was refused, an error, or wrong.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Side facts for the human-readable summary (sample counts).
    pub notes: Vec<String>,
    /// The first wrong reply, if any.
    pub first_wrong: Option<String>,
}

impl Report {
    fn new(checks: &Checks, metrics: Vec<Metric>, notes: Vec<String>) -> Self {
        Self {
            correct: checks.clean() && checks.attempted > 0,
            attempted: checks.attempted,
            failed: checks.attempted - checks.ok,
            metrics,
            notes,
            first_wrong: checks.first_wrong.clone(),
        }
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{:<32} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        out.push_str(&format!(
            "# correct={} attempted={} failed={}\n",
            self.correct, self.attempted, self.failed
        ));
        if let Some(w) = &self.first_wrong {
            out.push_str(&format!("# first wrong reply: {w}\n"));
        }
        out
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn mean_per_cmd(total: f64, window: &Window) -> f64 {
    ratio(total, window.cmds as f64)
}

/// The untraced run: set-up (median of several), one timed pass, and the
/// end-to-end metrics.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Report {
    let plan = Plan::for_workload(workload);
    let mut checks = Checks::default();
    let (mut rig, setup_s) = setup(workload, seed, &plan, &mut checks);
    let mut pass = timed_pass(&mut rig, &plan, seconds, false);
    rig.finish(&mut pass.checks);
    let samples = pass.latencies_ns.len();
    let metrics = vec![
        m("throughput_cps", pass.throughput(), "1/s"),
        m("latency_p50_ms", pass.latency_ms(50.0), "ms"),
        m("setup_s", setup_s, "s"),
        m(
            "ok_frac",
            ratio(pass.checks.ok as f64, pass.checks.attempted as f64),
            "frac",
        ),
        m(
            "model_ms_per_cmd",
            mean_per_cmd(pass.window.model_ms, &pass.window),
            "ms",
        ),
        m("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    let notes = vec![
        format!(
            "latency samples: {samples} (timed pass {:.2} s, {} units)",
            pass.elapsed_s, pass.units
        ),
        format!(
            "count window: {} units, {} commands; set-up: median of {}",
            plan.window_units, pass.window.cmds, plan.setups
        ),
    ];
    checks.absorb(&pass.checks);
    let mut report = Report::new(&checks, metrics, notes);
    report.attempted = pass.checks.attempted;
    report.failed = pass.checks.attempted - pass.checks.ok;
    report
}

/// Share of the traced run's seconds given to each of the traced and the
/// untraced main pass.
const PASS_SHARE: f64 = 0.3;
/// Alternating traced/untraced slice pairs the main passes are cut into.
const PASS_PAIRS: usize = 3;

/// The server arm's plan for workloads that do not serve through the
/// server themselves: their own warm-up, then a fixed number of traced
/// pump rounds.
pub fn server_plan(workload: Workload) -> Plan {
    let rounds = match workload {
        Workload::ServeLight => 0,
        Workload::PoolFib => 64,
        Workload::GpuPaper => 104,
    };
    Plan {
        setups: 1,
        window_units: rounds,
        cycle_units: 1,
        ..Plan::for_workload(workload)
    }
}

/// The workload's clients served by a default [`culi_runtime::SessionServer`]:
/// `plan.warm_units` rounds of warm-up, then `plan.window_units` traced
/// rounds.
pub fn server_arm(workload: Workload, seed: u64, plan: &Plan, checks: &mut Checks) -> Pass {
    // A 4096-job sweep section needs the full-size arena of the paper's
    // configuration, not the small default tenant arena.
    let (spec, tenant) = match workload {
        Workload::GpuPaper => (
            tesla_k20(),
            TenantSessionConfig {
                arena_capacity: InterpConfig::default().arena_capacity,
                ..Default::default()
            },
        ),
        _ => (intel_e5_2620(), TenantSessionConfig::default()),
    };
    let mut rig = Rig::Serve(ServeRig::boot(
        spec,
        &tenant,
        workload.clients(seed),
        workload.batch_len(),
        checks,
    ));
    let mut scratch = Vec::new();
    for _ in 0..plan.warm_units {
        rig.unit(checks, &mut scratch, None, None);
    }
    let mut pass = timed_pass(&mut rig, plan, 0.0, true);
    rig.finish(&mut pass.checks);
    pass
}

fn hit_rate(t: &TierStats) -> f64 {
    ratio(t.hits as f64, (t.hits + t.misses) as f64)
}

/// The traced run: one set-up, alternating traced and untraced passes on
/// the same system, then every per-layer arm over the workload's stream.
pub fn per_layer(workload: Workload, seed: u64, seconds: f64) -> Report {
    let plan = Plan {
        setups: 1,
        ..Plan::for_workload(workload)
    };
    let mut checks = Checks::default();
    let (mut rig, _) = setup(workload, seed, &plan, &mut checks);
    // Traced and untraced slices alternate, so a slow stretch of the
    // machine falls on both and `trace.overhead_frac` compares like with
    // like. Traced goes first: its count window then starts right after
    // the deterministic set-up.
    let slice = PASS_SHARE * seconds / PASS_PAIRS as f64;
    let later = Plan {
        window_units: 0,
        ..plan
    };
    let mut traced = timed_pass(&mut rig, &plan, slice, true);
    let mut untraced = timed_pass(&mut rig, &later, slice, false);
    for _ in 1..PASS_PAIRS {
        traced.extend(timed_pass(&mut rig, &later, slice, true));
        untraced.extend(timed_pass(&mut rig, &later, slice, false));
    }
    rig.finish(&mut untraced.checks);
    checks.absorb(&traced.checks);
    checks.absorb(&untraced.checks);

    let server = match workload {
        Workload::ServeLight => traced.clone(),
        _ => server_arm(workload, seed, &server_plan(workload), &mut checks),
    };
    let core = layers::core_arm(workload, seed);
    let session = layers::session_arm(workload, seed);
    let pool = layers::pool_arm(workload, seed);
    let cache = layers::cache_arm(workload, seed);
    let gpu = layers::gpu_arm(workload, seed);
    for c in [&core.checks, &session.checks, &pool.checks, &gpu.checks] {
        checks.absorb(c);
    }

    let sw = &server.window;
    let cache_stats = &sw.cache;
    let cache_evictions = cache_stats.verdict.evictions
        + cache_stats.template.evictions
        + cache_stats.reply.evictions;
    let mut waits = sw.wait_rounds.clone();
    let cmds = core.cmds as f64;
    let floor_ns = ratio(core.floor.ns as f64, cmds);
    let route_ns = ratio(1e9, untraced.throughput());
    let tw = &traced.window;
    let mut both = traced.clone();
    both.extend(untraced.clone());
    let metrics = vec![
        // The tail is set by stalls of the shared machine more than by the
        // program, so it is reported here rather than gated end to end.
        // Both main passes count, for enough samples beyond the 99th
        // percentile; tracing costs far less than the tail it measures.
        m("latency_p99_ms", both.latency_ms(99.0), "ms"),
        m(
            "server.pump_round_ms",
            server.trace.pump_round.mean_ns() / 1e6,
            "ms",
        ),
        m("server.enqueue_ns", server.trace.enqueue.mean_ns(), "ns"),
        m(
            "server.queue_wait_rounds_p50",
            percentile(&mut waits, 50.0) as f64,
            "count",
        ),
        m(
            "server.cold_frac",
            mean_per_cmd(sw.cold_cmds as f64, sw),
            "frac",
        ),
        m(
            "server.evictions_per_kcmd",
            1000.0 * mean_per_cmd(sw.evictions as f64, sw),
            "count",
        ),
        m(
            "session.batch_ns_per_cmd",
            ratio(session.batch.ns as f64, session.cmds as f64),
            "ns",
        ),
        m(
            "session.reference_ns_per_cmd",
            ratio(session.reference.ns as f64, session.cmds as f64),
            "ns",
        ),
        m("pool.launch_ms", pool.launch.mean_ns() / 1e6, "ms"),
        m("pool.stage_run_ns", pool.stage.mean_ns(), "ns"),
        m("pool.collect_wait_ns", pool.collect.mean_ns(), "ns"),
        m(
            "pool.sections_per_run",
            ratio(pool.sections as f64, pool.stage.calls as f64),
            "count",
        ),
        m("cache.reply_hit_rate", hit_rate(&cache_stats.reply), "frac"),
        m(
            "cache.verdict_hit_rate",
            hit_rate(&cache_stats.verdict),
            "frac",
        ),
        m(
            "cache.template_hit_rate",
            hit_rate(&cache_stats.template),
            "frac",
        ),
        m(
            "cache.evictions_per_kcmd",
            1000.0 * mean_per_cmd(cache_evictions as f64, sw),
            "count",
        ),
        m("cache.reply_probe_ns", cache.probe.mean_ns(), "ns"),
        m("parser.ns_per_cmd", ratio(core.parse.ns as f64, cmds), "ns"),
        m(
            "parser.bytes_per_cmd",
            ratio(core.bytes_in as f64, cmds),
            "B",
        ),
        m(
            "effects.ns_per_cmd",
            ratio(core.effects.ns as f64, cmds),
            "ns",
        ),
        m(
            "effects.stageable_frac",
            ratio(core.stageable as f64, cmds),
            "frac",
        ),
        m(
            "structhash.ns_per_cmd",
            ratio(core.structhash.ns as f64, cmds),
            "ns",
        ),
        m("eval.ns_per_cmd", ratio(core.eval.ns as f64, cmds), "ns"),
        m("eval.floor_ns_per_cmd", floor_ns, "ns"),
        m("eval.floor_ratio", ratio(route_ns, floor_ns), "ratio"),
        m(
            "printer.ns_per_cmd",
            ratio(core.print.ns as f64, cmds),
            "ns",
        ),
        m(
            "printer.bytes_per_cmd",
            ratio(core.bytes_out as f64, cmds),
            "B",
        ),
        m("gc.ns_per_cmd", ratio(core.gc.ns as f64, cmds), "ns"),
        m(
            "gc.freed_nodes_per_cmd",
            ratio(core.freed as f64, cmds),
            "count",
        ),
        m(
            "gpu.device_ms_per_cmd",
            ratio(gpu.device_ns / 1e6, gpu.submit.calls as f64),
            "ms",
        ),
        m(
            "gpu.spin_iters_per_cmd",
            ratio(gpu.spin_iters as f64, gpu.submit.calls as f64),
            "count",
        ),
        m(
            "gpu.atomic_ops_per_cmd",
            ratio(gpu.atomic_ops as f64, gpu.submit.calls as f64),
            "count",
        ),
        m(
            "gpu.wall_ns_per_job",
            ratio(gpu.submit.ns as f64, gpu.jobs as f64),
            "ns",
        ),
        m("model.parse_ms", mean_per_cmd(tw.parse_ms, tw), "ms"),
        m("model.eval_ms", mean_per_cmd(tw.eval_ms, tw), "ms"),
        m("model.print_ms", mean_per_cmd(tw.print_ms, tw), "ms"),
        m(
            "process.cpu_us_per_cmd",
            ratio(untraced.cpu_s * 1e6, untraced.latencies_ns.len() as f64),
            "us",
        ),
        m(
            "trace.overhead_frac",
            ratio(traced.throughput(), untraced.throughput()) - 1.0,
            "frac",
        ),
    ];
    let notes = vec![
        format!("latency samples: {}", both.latencies_ns.len()),
        format!(
            "traced pass {:.0} cmd/s, untraced pass {:.0} cmd/s, route {:.0} ns/cmd vs floor {:.0} ns/cmd",
            traced.throughput(),
            untraced.throughput(),
            route_ns,
            floor_ns
        ),
        format!(
            "arms: core {} cmds, session {} cmds/route, pool {} sections, cache {} probes ({} hits), gpu {} cmds",
            core.cmds, session.cmds, pool.sections, cache.probe.calls, cache.hits, gpu.submit.calls
        ),
    ];
    Report::new(&checks, metrics, notes)
}
