//! Seeded command streams and their expected outputs.
//!
//! Every workload is a set of REPL clients. A client has a prelude and a
//! deterministic command generator; the runtime only ever sees the
//! generated command text. Each command carries the output a correct
//! runtime must print, computed here in Rust from the client's own model
//! of its state — never by CuLi itself.

use culi_bench::workload;

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 tenants of light commands on the session server.
    ServeLight,
    /// `fibj` sections batched through one two-thread pooled session.
    PoolFib,
    /// The paper's `(||| n fib (5 … 5))` sweep on one simulated Tesla K20.
    GpuPaper,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::ServeLight, Workload::PoolFib, Workload::GpuPaper];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLight => "serve-light",
            Workload::PoolFib => "pool-fib",
            Workload::GpuPaper => "gpu-paper",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Commands one client hands to the runtime at once: the outstanding
    /// window of a `serve-light` tenant, a `pool-fib` batch, one
    /// `gpu-paper` REPL line.
    pub fn batch_len(self) -> usize {
        match self {
            Workload::ServeLight => SERVE_OUTSTANDING,
            Workload::PoolFib => FIB_BATCH,
            Workload::GpuPaper => 1,
        }
    }

    /// The workload's clients for `seed`.
    pub fn clients(self, seed: u64) -> Vec<Client> {
        match self {
            Workload::ServeLight => {
                let shapes = ServeShapes::new(seed);
                (0..SERVE_TENANTS)
                    .map(|t| Client::serve(seed, t as u64, shapes.clone()))
                    .collect()
            }
            Workload::PoolFib => vec![Client::fib(seed)],
            Workload::GpuPaper => vec![Client::sweep(seed)],
        }
    }
}

/// Tenants on the `serve-light` server.
pub const SERVE_TENANTS: usize = 64;
/// Commands each `serve-light` tenant keeps outstanding.
pub const SERVE_OUTSTANDING: usize = 4;
/// Distinct light command shapes the Zipf stream draws from.
pub const SERVE_SHAPES: usize = 256;
/// Shape families (see [`serve_shape`]); each has 32 constants.
pub const SERVE_FAMILIES: usize = 8;
/// Zipf exponent of the shape popularity.
pub const SERVE_ZIPF: f64 = 0.99;
/// Share of `serve-light` commands that are `setq` writes.
pub const SERVE_WRITE_SHARE: f64 = 0.05;
/// Commands per `pool-fib` batch: 15 sections and one write.
pub const FIB_BATCH: usize = 16;

/// One generated command and the output a correct runtime prints for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cmd {
    /// The REPL input line.
    pub text: String,
    /// The expected printed reply.
    pub expected: String,
    /// `true` for commands that mutate global state (`setq`, `defun`).
    pub write: bool,
}

impl Cmd {
    fn new(text: String, expected: String, write: bool) -> Self {
        Self {
            text,
            expected,
            write,
        }
    }
}

/// Renders integers as a CuLi list.
fn list(items: impl IntoIterator<Item = i64>) -> String {
    let parts: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
    format!("({})", parts.join(" "))
}

/// Zipf popularity over the `serve-light` shapes. Rank `r` is always a
/// shape of family `r % 8`, so every seed gives each family the same share
/// of the traffic; the seed decides which constants are hot.
#[derive(Debug, Clone)]
pub struct ServeShapes {
    cdf: Vec<f64>,
    rank_to_shape: Vec<usize>,
}

impl ServeShapes {
    fn new(seed: u64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..SERVE_SHAPES)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(SERVE_ZIPF);
                acc
            })
            .collect();
        let mut rng = Rng::new(seed ^ 0x5a1f);
        let per_family = SERVE_SHAPES / SERVE_FAMILIES;
        let constants: Vec<Vec<usize>> = (0..SERVE_FAMILIES)
            .map(|_| {
                let mut c: Vec<usize> = (0..per_family).collect();
                rng.shuffle(&mut c);
                c
            })
            .collect();
        let rank_to_shape = (0..SERVE_SHAPES)
            .map(|r| {
                let family = r % SERVE_FAMILIES;
                constants[family][r / SERVE_FAMILIES] * SERVE_FAMILIES + family
            })
            .collect();
        Self { cdf, rank_to_shape }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("shape table is not empty");
        let r = rng.unit() * total;
        let rank = self.cdf.partition_point(|&c| c < r).min(SERVE_SHAPES - 1);
        self.rank_to_shape[rank]
    }
}

/// A client's model of its own interpreter state.
#[derive(Debug, Clone)]
enum State {
    /// A `serve-light` tenant: its globals `v` and `xs`.
    Serve {
        shapes: ServeShapes,
        v: i64,
        xs: [i64; 4],
    },
    /// The `pool-fib` client: position in the current batch, where its
    /// write goes, and the last section argument handed out.
    Fib {
        pos: usize,
        write_at: usize,
        last_arg: u64,
    },
    /// The `gpu-paper` client: the current shuffled round of sweep sizes.
    Sweep { round: Vec<usize> },
}

/// One REPL client: a prelude, then an endless deterministic stream.
#[derive(Debug, Clone)]
pub struct Client {
    /// Commands run once before the stream (definitions, initial state).
    pub prelude: Vec<Cmd>,
    rng: Rng,
    state: State,
}

impl Client {
    fn serve(seed: u64, tenant: u64, shapes: ServeShapes) -> Self {
        let mut rng = Rng::new(seed.wrapping_mul(0x1000_0001).wrapping_add(tenant + 1));
        let v = 1 + rng.below(40) as i64;
        let xs = [0; 4].map(|_| rng.below(20) as i64);
        let prelude = vec![
            Cmd::new("(defun sq (x) (* x x))".into(), "sq".into(), true),
            Cmd::new(format!("(setq v {v})"), v.to_string(), true),
            Cmd::new(format!("(setq xs (list {}))", join(&xs)), list(xs), true),
        ];
        Self {
            prelude,
            rng,
            state: State::Serve { shapes, v, xs },
        }
    }

    fn fib(seed: u64) -> Self {
        let prelude = vec![
            Cmd::new(workload::FIB_DEFUN.into(), "fib".into(), true),
            Cmd::new(
                "(defun fibj (x) (fib (+ 8 (mod x 4))))".into(),
                "fibj".into(),
                true,
            ),
            Cmd::new("(setq g 0)".into(), "0".into(), true),
        ];
        Self {
            prelude,
            rng: Rng::new(seed ^ 0xf1b),
            state: State::Fib {
                pos: 0,
                write_at: 0,
                last_arg: 0,
            },
        }
    }

    fn sweep(seed: u64) -> Self {
        let prelude = vec![Cmd::new(workload::FIB_DEFUN.into(), "fib".into(), true)];
        Self {
            prelude,
            rng: Rng::new(seed ^ 0x6b20),
            state: State::Sweep { round: Vec::new() },
        }
    }

    /// The next command of this client's stream.
    pub fn next_cmd(&mut self) -> Cmd {
        let rng = &mut self.rng;
        match &mut self.state {
            State::Serve { shapes, v, xs } => {
                if rng.unit() < SERVE_WRITE_SHARE {
                    if rng.below(2) == 0 {
                        *v = 1 + rng.below(40) as i64;
                        Cmd::new(format!("(setq v {v})"), v.to_string(), true)
                    } else {
                        *xs = [0; 4].map(|_| rng.below(20) as i64);
                        Cmd::new(format!("(setq xs (list {}))", join(xs)), list(*xs), true)
                    }
                } else {
                    serve_shape(shapes.draw(rng), *v, xs)
                }
            }
            State::Fib {
                pos,
                write_at,
                last_arg,
            } => {
                if *pos == 0 {
                    *write_at = rng.below(FIB_BATCH as u64) as usize;
                }
                let cmd = if *pos == *write_at {
                    let k = rng.below(1000);
                    Cmd::new(format!("(setq g {k})"), k.to_string(), true)
                } else {
                    let w = 2 + rng.below(3);
                    let args: Vec<u64> = (0..w)
                        .map(|_| {
                            *last_arg += 1 + rng.below(3);
                            *last_arg
                        })
                        .collect();
                    let text = format!("(||| {w} fibj ({}))", join(&args));
                    let expected = list(args.iter().map(|&a| workload::fib(8 + a % 4) as i64));
                    Cmd::new(text, expected, false)
                };
                *pos = (*pos + 1) % FIB_BATCH;
                cmd
            }
            State::Sweep { round } => {
                if round.is_empty() {
                    *round = workload::thread_counts();
                    rng.shuffle(round);
                }
                let n = round.pop().expect("round refilled above");
                Cmd::new(workload::fib_input(n), workload::expected_output(n), false)
            }
        }
    }
}

fn join<T: ToString>(items: &[T]) -> String {
    items.iter().map(T::to_string).collect::<Vec<_>>().join(" ")
}

/// The 256 light shapes: eight families (scalar arithmetic, list ops, a
/// two-way `|||` over `sq`, conditionals) × 32 constants. Family
/// `shape % 8` is listed by popularity rank modulo 8.
fn serve_shape(shape: usize, v: i64, xs: &[i64; 4]) -> Cmd {
    let c = (shape / SERVE_FAMILIES) as i64;
    let (text, expected) = match shape % SERVE_FAMILIES {
        0 => (format!("(+ v {c})"), (v + c).to_string()),
        1 => (format!("(||| 2 sq (v {c}))"), list([v * v, c * c])),
        2 => {
            let i = (c % 4) as usize;
            (format!("(+ {c} (nth {i} xs))"), (c + xs[i]).to_string())
        }
        3 => {
            let out = if v < c + 1 { c } else { v - c };
            (
                format!("(if (< v {}) {c} (- v {c}))", c + 1),
                out.to_string(),
            )
        }
        4 => (format!("(* v {})", c + 1), (v * (c + 1)).to_string()),
        5 => (
            format!("(cons {c} (cdr xs))"),
            list([c, xs[1], xs[2], xs[3]]),
        ),
        6 => (
            format!("(||| 2 sq ((car xs) {c}))"),
            list([xs[0] * xs[0], c * c]),
        ),
        _ => (
            format!("(if (> (car xs) {c}) (car xs) {c})"),
            xs[0].max(c).to_string(),
        ),
    };
    Cmd::new(text, expected, false)
}

/// Splits a top-level `(||| w f (a1 a2 …))` command into its function
/// name and argument expressions; `None` for any other command.
pub fn section_parts(text: &str) -> Option<(String, Vec<String>)> {
    let items = split_list(text)?;
    if items.len() != 4 || items[0] != "|||" {
        return None;
    }
    Some((
        items[2].to_string(),
        split_list(items[3])?
            .into_iter()
            .map(str::to_string)
            .collect(),
    ))
}

/// The top-level items of one parenthesized list (atoms or balanced
/// sub-lists).
fn split_list(text: &str) -> Option<Vec<&str>> {
    let inner = text.trim().strip_prefix('(')?.strip_suffix(')')?;
    let bytes = inner.as_bytes();
    let mut items = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b' ' {
            i += 1;
            continue;
        }
        let start = i;
        if bytes[i] == b'(' {
            let mut depth = 0;
            while i < bytes.len() {
                match bytes[i] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        } else {
            while i < bytes.len() && bytes[i] != b' ' {
                i += 1;
            }
        }
        items.push(&inner[start..i]);
    }
    Some(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_split_into_function_and_argument_expressions() {
        assert_eq!(
            section_parts("(||| 2 sq ((car xs) 7))"),
            Some(("sq".into(), vec!["(car xs)".into(), "7".into()]))
        );
        assert_eq!(section_parts("(+ v 3)"), None);
    }

    #[test]
    fn every_serve_shape_is_distinct() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..SERVE_SHAPES {
            assert!(seen.insert(serve_shape(s, 5, &[1, 2, 3, 4]).text));
        }
    }
}
