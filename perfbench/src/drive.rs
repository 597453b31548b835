//! The three workload loops, their set-up, and the timed passes that give
//! the end-to-end metrics.
//!
//! A *unit* is one step of a workload loop: one server pump round
//! (`serve-light`), one 16-command batch (`pool-fib`) or one REPL line
//! (`gpu-paper`). Wall metrics cover a whole timed pass. Count metrics
//! (model time, cache and server counters) cover only the pass's first
//! [`Plan::window_units`] units, which are fixed work: for one seed they
//! repeat exactly, whatever the machine's speed.

use crate::gen::{Client, Cmd, Workload};
use culi_gpu_sim::device::{intel_e5_2620, tesla_k20};
use culi_gpu_sim::DeviceSpec;
use culi_runtime::{
    CacheStats, GpuRepl, GpuReplConfig, Reply, ServerConfig, Session, SessionServer, TenantId,
    TenantSessionConfig,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Accumulated wall time and call count of one traced span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    /// Total nanoseconds spent inside the span.
    pub ns: u64,
    /// Times the span was entered.
    pub calls: u64,
}

impl Span {
    /// Runs `f` inside the span.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// Adds another span's time and calls into this one.
    pub fn add(&mut self, other: Span) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Mean nanoseconds per call (0 before the first call).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Set-ups per run; `setup_s` is their median, the last one is kept.
    pub setups: usize,
    /// Units run during set-up to bring caches, pools and the warm set to
    /// steady state.
    pub warm_units: usize,
    /// Leading units of a timed pass whose counts are reported (a timed
    /// pass always runs at least this many).
    pub window_units: usize,
    /// A timed pass ends only after a whole number of these units: one
    /// sweep of the 13 sizes for `gpu-paper`, so every pass carries the
    /// same mix of sizes.
    pub cycle_units: usize,
}

impl Plan {
    /// The benchmark's plan for `workload`.
    pub fn for_workload(workload: Workload) -> Self {
        let sweep = culi_bench::workload::thread_counts().len();
        let (setups, warm_units, window_units, cycle_units) = match workload {
            Workload::ServeLight => (3, 24, 30, 1),
            Workload::PoolFib => (5, 150, 150, 1),
            // 20 whole sweeps and 7 commands of the next: the partial
            // sweep makes the window's model time depend on the seed.
            Workload::GpuPaper => (5, 4 * sweep, 20 * sweep + 7, sweep),
        };
        Self {
            setups,
            warm_units,
            window_units,
            cycle_units,
        }
    }
}

/// Correctness bookkeeping: every reply is checked against the
/// generator's expected output.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Commands attempted (replied to or refused).
    pub attempted: u64,
    /// Replies that were ok and equal to the expected output.
    pub ok: u64,
    /// The first wrong reply, for the report.
    pub first_wrong: Option<String>,
}

impl Checks {
    /// Checks one reply.
    pub fn record(&mut self, ok: bool, output: &str, expected: &str) {
        self.attempted += 1;
        if ok && output == expected {
            self.ok += 1;
        } else if self.first_wrong.is_none() {
            self.first_wrong = Some(format!(
                "expected {:?}, got {:?}",
                clip(expected),
                clip(output)
            ));
        }
    }

    /// Checks one runtime reply.
    pub fn reply(&mut self, reply: &Reply, expected: &str) {
        self.record(reply.ok, &reply.output, expected);
    }

    /// Checks one runtime submit; an error counts as a wrong reply.
    pub fn submitted(&mut self, result: &culi_runtime::Result<Reply>, expected: &str) {
        match result {
            Ok(reply) => self.reply(reply, expected),
            Err(e) => self.record(false, &e.to_string(), expected),
        }
    }

    /// Checks what a bare interpreter printed; an error counts as wrong.
    pub fn printed(&mut self, result: &culi_core::Result<String>, expected: &str) {
        match result {
            Ok(out) => self.record(true, out, expected),
            Err(e) => self.record(false, &e.to_string(), expected),
        }
    }

    /// Adds another set of checks into this one.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        if self.first_wrong.is_none() {
            self.first_wrong.clone_from(&other.first_wrong);
        }
    }

    /// `true` when nothing went wrong.
    pub fn clean(&self) -> bool {
        self.first_wrong.is_none() && self.ok == self.attempted
    }
}

fn clip(s: &str) -> &str {
    match s.char_indices().nth(80) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Count metrics over a pass's first [`Plan::window_units`] units.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Window {
    /// Replies received in the window.
    pub cmds: u64,
    /// Sum of `PhaseBreakdown::runtime_ms` (paper-model time).
    pub model_ms: f64,
    /// Sum of `PhaseBreakdown::parse_ms`.
    pub parse_ms: f64,
    /// Sum of `PhaseBreakdown::eval_ms`.
    pub eval_ms: f64,
    /// Sum of `PhaseBreakdown::print_ms`.
    pub print_ms: f64,
    /// Server pump rounds completed since boot at the window's end.
    pub server_rounds: u64,
    /// Warm-fork evictions in the window.
    pub evictions: u64,
    /// Command-cache counter deltas over the window.
    pub cache: CacheStats,
    /// Replies from tenants that held no warm forks when the round began
    /// (traced passes only).
    pub cold_cmds: u64,
    /// Pump rounds from each command's enqueue to its reply, counting the
    /// round that served it (traced passes only).
    pub wait_rounds: Vec<u64>,
}

impl Window {
    fn reply(&mut self, reply: &Reply) {
        self.cmds += 1;
        self.model_ms += reply.phases.runtime_ms();
        self.parse_ms += reply.phases.parse_ms();
        self.eval_ms += reply.phases.eval_ms();
        self.print_ms += reply.phases.print_ms();
    }
}

/// Spans recorded by a traced pass around calls into the runtime.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// `SessionServer::pump_round`.
    pub pump_round: Span,
    /// `SessionServer::enqueue`.
    pub enqueue: Span,
}

/// Everything one timed pass measured.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Output checks of every reply in the pass.
    pub checks: Checks,
    /// Wall latency of every reply in the timed phase, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Wall seconds of the timed phase.
    pub elapsed_s: f64,
    /// Process CPU seconds (user + system) of the timed phase.
    pub cpu_s: f64,
    /// Units run.
    pub units: usize,
    /// Count metrics of the leading units.
    pub window: Window,
    /// Spans (empty unless traced).
    pub trace: Trace,
}

impl Pass {
    /// Replies completed per wall second.
    pub fn throughput(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.elapsed_s
    }

    /// Nearest-rank latency percentile `p` (0–100), milliseconds.
    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile(&mut self.latencies_ns.clone(), p) as f64 / 1e6
    }

    /// Appends a later pass on the same system (its count window is
    /// dropped: the window belongs to the first pass).
    pub fn extend(&mut self, later: Pass) {
        self.checks.absorb(&later.checks);
        self.latencies_ns.extend(later.latencies_ns);
        self.elapsed_s += later.elapsed_s;
        self.cpu_s += later.cpu_s;
        self.units += later.units;
        self.trace.pump_round.add(later.trace.pump_round);
        self.trace.enqueue.add(later.trace.enqueue);
    }
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// A booted workload, ready for timed passes.
// A run boots a handful of rigs; the size gap (the CPU session embeds its
// machine model inline) is not worth an indirection.
#[allow(clippy::large_enum_variant)]
pub enum Rig {
    /// `serve-light` (and the server arm of the other workloads).
    Serve(ServeRig),
    /// `pool-fib`.
    Fib(FibRig),
    /// `gpu-paper`.
    Gpu(GpuRig),
}

impl Rig {
    /// Boots the workload's system and runs its preludes.
    pub fn boot(workload: Workload, seed: u64, checks: &mut Checks) -> Self {
        let clients = workload.clients(seed);
        match workload {
            Workload::ServeLight => Rig::Serve(ServeRig::boot(
                intel_e5_2620(),
                &TenantSessionConfig::default(),
                clients,
                workload.batch_len(),
                checks,
            )),
            Workload::PoolFib => Rig::Fib(FibRig::boot(clients, checks)),
            Workload::GpuPaper => Rig::Gpu(GpuRig::boot(clients, checks)),
        }
    }

    /// Runs one unit. `window` receives the unit's counts when given;
    /// `trace` receives spans when given (the server is the only layer
    /// the main loops trace; the other layers have arms of their own).
    pub fn unit(
        &mut self,
        checks: &mut Checks,
        latencies: &mut Vec<u64>,
        window: Option<&mut Window>,
        trace: Option<&mut Trace>,
    ) {
        match self {
            Rig::Serve(r) => r.round(checks, latencies, window, trace),
            Rig::Fib(r) => r.batch(checks, latencies, window),
            Rig::Gpu(r) => r.line(checks, latencies, window),
        }
    }

    fn server_counts(&self) -> Option<(u64, u64, CacheStats)> {
        match self {
            Rig::Serve(r) => Some(r.counts()),
            _ => None,
        }
    }

    /// Finishes outstanding work (checked, untimed) and stops the system.
    pub fn finish(&mut self, checks: &mut Checks) {
        match self {
            Rig::Serve(r) => r.finish(checks),
            Rig::Fib(r) => {
                r.session.shutdown();
            }
            Rig::Gpu(r) => {
                r.repl.shutdown();
            }
        }
    }
}

/// Boots `plan.setups` times, runs the warm-up each time, and returns the
/// last rig with the median set-up seconds.
pub fn setup(workload: Workload, seed: u64, plan: &Plan, checks: &mut Checks) -> (Rig, f64) {
    let mut times = Vec::with_capacity(plan.setups);
    let mut kept = None;
    for _ in 0..plan.setups.max(1) {
        if let Some(mut old) = kept.take() {
            Rig::finish(&mut old, checks);
        }
        let t0 = Instant::now();
        let mut rig = Rig::boot(workload, seed, checks);
        let mut scratch = Vec::new();
        for _ in 0..plan.warm_units {
            rig.unit(checks, &mut scratch, None, None);
        }
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(rig);
    }
    (kept.expect("at least one set-up ran"), median(&mut times))
}

/// Runs one timed pass of at least `seconds` and `plan.window_units`.
pub fn timed_pass(rig: &mut Rig, plan: &Plan, seconds: f64, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut trace = Trace::default();
    let before = rig.server_counts();
    let limit = Duration::from_secs_f64(seconds);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    loop {
        let in_window = pass.units < plan.window_units;
        rig.unit(
            &mut pass.checks,
            &mut pass.latencies_ns,
            in_window.then_some(&mut pass.window),
            traced.then_some(&mut trace),
        );
        pass.units += 1;
        if pass.units == plan.window_units {
            if let (Some(b), Some(a)) = (before, rig.server_counts()) {
                pass.window.server_rounds = a.0;
                pass.window.evictions = a.1 - b.1;
                pass.window.cache = cache_delta(&a.2, &b.2);
            }
        }
        if pass.units >= plan.window_units
            && pass.units % plan.cycle_units.max(1) == 0
            && t0.elapsed() >= limit
        {
            break;
        }
    }
    pass.elapsed_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = cpu_seconds() - cpu0;
    pass.trace = trace;
    pass
}

fn cache_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    let tier = |a: culi_runtime::TierStats, b: culi_runtime::TierStats| culi_runtime::TierStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        evictions: a.evictions - b.evictions,
    };
    CacheStats {
        verdict: tier(after.verdict, before.verdict),
        template: tier(after.template, before.template),
        reply: tier(after.reply, before.reply),
    }
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values` (sorted in place).
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// One outstanding command: what it must print, when it was enqueued,
/// and how many pump rounds had run by then.
type Outstanding = (String, Instant, u64);

/// A [`SessionServer`] with one closed-loop REPL client per tenant.
pub struct ServeRig {
    srv: SessionServer,
    ids: Vec<TenantId>,
    clients: Vec<Client>,
    pending: Vec<VecDeque<Outstanding>>,
    rounds: u64,
}

impl ServeRig {
    /// Admits one `tenant`-configured tenant per client on `spec`, runs the
    /// preludes, and fills every client's window of `outstanding`
    /// commands.
    pub fn boot(
        spec: DeviceSpec,
        tenant: &TenantSessionConfig,
        clients: Vec<Client>,
        outstanding: usize,
        checks: &mut Checks,
    ) -> Self {
        let mut srv = SessionServer::new(spec, ServerConfig::default());
        let ids: Vec<TenantId> = clients.iter().map(|_| srv.admit(tenant.clone())).collect();
        let mut expected: Vec<VecDeque<String>> = vec![VecDeque::new(); clients.len()];
        for (t, client) in clients.iter().enumerate() {
            for cmd in &client.prelude {
                match srv.enqueue(ids[t], &cmd.text) {
                    Some(refused) => checks.reply(&refused, &cmd.expected),
                    None => expected[t].push_back(cmd.expected.clone()),
                }
            }
        }
        for (tid, reply) in srv.drain() {
            let want = expected[tid.index()].pop_front().unwrap_or_default();
            checks.reply(&reply, &want);
        }
        let mut rig = Self {
            srv,
            ids,
            pending: vec![VecDeque::new(); clients.len()],
            clients,
            rounds: 0,
        };
        for t in 0..rig.clients.len() {
            for _ in 0..outstanding {
                rig.issue(t, checks, None);
            }
        }
        rig
    }

    /// Enqueues client `t`'s next command.
    fn issue(&mut self, t: usize, checks: &mut Checks, span: Option<&mut Span>) {
        let cmd = self.clients[t].next_cmd();
        let at = Instant::now();
        let srv = &mut self.srv;
        let id = self.ids[t];
        let refused = match span {
            Some(span) => span.time(|| srv.enqueue(id, &cmd.text)),
            None => srv.enqueue(id, &cmd.text),
        };
        match refused {
            Some(refusal) => checks.reply(&refusal, &cmd.expected),
            None => self.pending[t].push_back((cmd.expected, at, self.rounds)),
        }
    }

    /// One pump round; every replied client issues its next command.
    fn round(
        &mut self,
        checks: &mut Checks,
        latencies: &mut Vec<u64>,
        mut window: Option<&mut Window>,
        mut trace: Option<&mut Trace>,
    ) {
        let cold: Option<Vec<bool>> = match (&window, &trace) {
            (Some(_), Some(_)) => Some(
                self.srv
                    .server_stats()
                    .tenants
                    .iter()
                    .map(|t| !t.warm)
                    .collect(),
            ),
            _ => None,
        };
        let srv = &mut self.srv;
        let replies = match trace.as_deref_mut() {
            Some(tr) => tr.pump_round.time(|| srv.pump_round()),
            None => srv.pump_round(),
        };
        let done = Instant::now();
        self.rounds += 1;
        for (tid, reply) in &replies {
            let t = tid.index();
            let (want, at, enqueued_round) = self.pending[t]
                .pop_front()
                .expect("every reply answers an outstanding command");
            checks.reply(reply, &want);
            latencies.push(done.duration_since(at).as_nanos() as u64);
            if let Some(w) = window.as_deref_mut() {
                w.reply(reply);
                if let Some(cold) = &cold {
                    w.cold_cmds += u64::from(cold[t]);
                    w.wait_rounds.push(self.rounds - enqueued_round);
                }
            }
        }
        for (tid, _) in &replies {
            self.issue(
                tid.index(),
                checks,
                trace.as_deref_mut().map(|tr| &mut tr.enqueue),
            );
        }
    }

    /// Server rounds, total warm-fork evictions and cache counters.
    fn counts(&self) -> (u64, u64, CacheStats) {
        let stats = self.srv.server_stats();
        let evictions = stats.tenants.iter().map(|t| t.stats.evictions).sum();
        (stats.rounds, evictions, stats.cache)
    }

    /// Drains every outstanding command (checked) and shuts down.
    fn finish(&mut self, checks: &mut Checks) {
        for (tid, reply) in self.srv.drain() {
            let (want, _, _) = self.pending[tid.index()]
                .pop_front()
                .expect("every reply answers an outstanding command");
            checks.reply(&reply, &want);
        }
        self.srv.shutdown();
    }
}

/// One two-thread pooled session driven in batches.
pub struct FibRig {
    session: Session,
    client: Client,
}

impl FibRig {
    fn boot(mut clients: Vec<Client>, checks: &mut Checks) -> Self {
        let client = clients.pop().expect("pool-fib has one client");
        let mut session = Session::cpu_threaded(intel_e5_2620(), 2);
        for cmd in &client.prelude {
            checks.submitted(&session.submit(&cmd.text), &cmd.expected);
        }
        Self { session, client }
    }

    fn batch(
        &mut self,
        checks: &mut Checks,
        latencies: &mut Vec<u64>,
        mut window: Option<&mut Window>,
    ) {
        let cmds: Vec<Cmd> = (0..crate::gen::FIB_BATCH)
            .map(|_| self.client.next_cmd())
            .collect();
        let refs: Vec<&str> = cmds.iter().map(|c| c.text.as_str()).collect();
        let t0 = Instant::now();
        let result = self.session.submit_batch(&refs);
        let lat = t0.elapsed().as_nanos() as u64;
        match result {
            Ok(replies) => {
                for (reply, cmd) in replies.iter().zip(&cmds) {
                    checks.reply(reply, &cmd.expected);
                    latencies.push(lat);
                    if let Some(w) = window.as_deref_mut() {
                        w.reply(reply);
                    }
                }
            }
            Err(e) => {
                for cmd in &cmds {
                    checks.record(false, &e.to_string(), &cmd.expected);
                }
            }
        }
    }
}

/// The paper's REPL loop on one simulated Tesla K20.
pub struct GpuRig {
    repl: GpuRepl,
    client: Client,
}

impl GpuRig {
    fn boot(mut clients: Vec<Client>, checks: &mut Checks) -> Self {
        let client = clients.pop().expect("gpu-paper has one client");
        let mut repl = GpuRepl::launch(tesla_k20(), GpuReplConfig::default());
        for cmd in &client.prelude {
            checks.submitted(&repl.submit(&cmd.text), &cmd.expected);
        }
        Self { repl, client }
    }

    fn line(&mut self, checks: &mut Checks, latencies: &mut Vec<u64>, window: Option<&mut Window>) {
        let cmd = self.client.next_cmd();
        let t0 = Instant::now();
        let result = self.repl.submit(&cmd.text);
        latencies.push(t0.elapsed().as_nanos() as u64);
        if let (Ok(reply), Some(w)) = (&result, window) {
            w.reply(reply);
        }
        checks.submitted(&result, &cmd.expected);
    }
}
