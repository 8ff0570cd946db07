//! Seeded input generators: one per workload, turning `--seed` into
//! workload-spec TOML text (and, for `serve-mix`, the request stream).
//!
//! The measured program only ever sees the generated text. Every draw
//! comes from one `SplitMix64` stream over the seed and a per-workload
//! salt, so the same seed gives byte-identical text and another seed
//! gives other text.
//!
//! Specs are built as small key/value trees ([`Spec`]) and rendered two
//! ways: [`Spec::text`] is the plain spelling, [`Spec::respelled`]
//! reorders keys, swaps inline-table field order and sprinkles comments
//! — the same spec to the parser, other bytes on the wire, which is what
//! the serve cache's canonicalization must see through.

use ants_rng::{Rng64, SplitMix64};
use std::fmt::Write as _;

/// A draw source over one seed.
pub struct Draw(SplitMix64);

impl Draw {
    /// A stream over `seed` and a workload salt.
    pub fn new(seed: u64, salt: u64) -> Draw {
        Draw(SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// A raw 64-bit draw.
    pub fn word(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.word() % (hi - lo + 1)
    }

    /// One element of `xs`.
    pub fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[(self.word() % xs.len() as u64) as usize].clone()
    }

    /// Shuffle `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.word() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }

    /// `k` distinct elements of `xs`, in `xs` order.
    pub fn subset<T: Clone>(&mut self, xs: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        for i in 0..k.min(xs.len()) {
            let j = i + (self.word() % (xs.len() - i) as u64) as usize;
            idx.swap(i, j);
        }
        let mut chosen = idx[..k.min(xs.len())].to_vec();
        chosen.sort_unstable();
        chosen.into_iter().map(|i| xs[i].clone()).collect()
    }
}

/// A spec value.
#[derive(Debug, Clone)]
pub enum Val {
    /// An integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A list of strings.
    Strs(Vec<String>),
    /// A list of integers.
    Ints(Vec<u64>),
    /// An inline table.
    Table(Vec<(&'static str, Val)>),
    /// A list of inline tables.
    Tables(Vec<Vec<(&'static str, Val)>>),
}

impl Val {
    fn render(&self, respell: bool, out: &mut String) {
        match self {
            Val::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Val::Str(s) => {
                let _ = write!(out, "\"{s}\"");
            }
            Val::Strs(xs) => {
                let items: Vec<String> = xs.iter().map(|s| format!("\"{s}\"")).collect();
                let _ = write!(out, "[{}]", items.join(", "));
            }
            Val::Ints(xs) => {
                let items: Vec<String> = xs.iter().map(u64::to_string).collect();
                let sep = if respell { "," } else { ", " };
                let _ = write!(out, "[{}]", items.join(sep));
            }
            Val::Table(kvs) => render_table(kvs, respell, out),
            Val::Tables(ts) => {
                out.push('[');
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_table(t, respell, out);
                }
                out.push(']');
            }
        }
    }
}

fn render_table(kvs: &[(&'static str, Val)], respell: bool, out: &mut String) {
    out.push_str(if respell { "{" } else { "{ " });
    let order: Vec<&(&str, Val)> =
        if respell { kvs.iter().rev().collect() } else { kvs.iter().collect() };
    for (i, (k, v)) in order.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{k} = ");
        v.render(respell, out);
    }
    out.push_str(if respell { "}" } else { " }" });
}

/// One `[[cells]]` entry: scalar keys plus the weighted population.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Keys in their plain order (`name` first).
    pub keys: Vec<(&'static str, Val)>,
    /// `(strategy, weight)` entries, in population order.
    pub population: Vec<(String, u64)>,
}

impl Cell {
    /// A cell with just its name.
    pub fn named(name: &str) -> Cell {
        Cell { keys: vec![("name", Val::Str(name.to_string()))], population: Vec::new() }
    }

    /// Add a key.
    pub fn key(mut self, k: &'static str, v: Val) -> Cell {
        self.keys.push((k, v));
        self
    }

    /// Add a population entry.
    pub fn member(mut self, strategy: impl Into<String>, weight: u64) -> Cell {
        self.population.push((strategy.into(), weight));
        self
    }
}

/// A generated workload spec.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Top-level keys (`name`, `description`, `metrics`).
    pub top: Vec<(&'static str, Val)>,
    /// `[defaults]` keys.
    pub defaults: Vec<(&'static str, Val)>,
    /// The cells, in document order.
    pub cells: Vec<Cell>,
}

impl Spec {
    /// A spec named `name`.
    pub fn named(name: &str, description: &str) -> Spec {
        Spec {
            top: vec![
                ("name", Val::Str(name.to_string())),
                ("description", Val::Str(description.to_string())),
            ],
            defaults: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// The plain spelling.
    pub fn text(&self) -> String {
        self.render(None)
    }

    /// Spelling number `variant` of the same spec: reordered keys,
    /// reordered inline-table fields and comments. Parses to the same
    /// plan as [`Spec::text`].
    pub fn respelled(&self, variant: u64) -> String {
        self.render(Some(variant))
    }

    fn render(&self, variant: Option<u64>) -> String {
        let respell = variant.is_some();
        let mut out = String::new();
        if let Some(v) = variant {
            let _ = writeln!(out, "# respelled submission, variant {v}");
        }
        let ordered = |kvs: &[(&'static str, Val)], keep_first: bool| -> Vec<(&'static str, Val)> {
            let mut kvs = kvs.to_vec();
            if respell {
                let skip = usize::from(keep_first && !kvs.is_empty());
                kvs[skip..].reverse();
            }
            kvs
        };
        for (k, v) in ordered(&self.top, false) {
            let _ = write!(out, "{k} = ");
            v.render(respell, &mut out);
            out.push('\n');
        }
        if !self.defaults.is_empty() {
            out.push_str("\n[defaults]\n");
            for (k, v) in ordered(&self.defaults, false) {
                let _ = write!(out, "{k} = ");
                v.render(respell, &mut out);
                out.push('\n');
            }
        }
        for (ci, cell) in self.cells.iter().enumerate() {
            out.push_str("\n[[cells]]\n");
            if respell && ci % 2 == 0 {
                out.push_str("# cell keys in reverse order\n");
            }
            for (k, v) in ordered(&cell.keys, true) {
                let _ = write!(out, "{k} = ");
                v.render(respell, &mut out);
                out.push('\n');
            }
            out.push_str("population = [\n");
            for (s, w) in &cell.population {
                if respell {
                    let _ = writeln!(out, "    {{weight = {w}, strategy = \"{s}\"}}, # member");
                } else {
                    let _ = writeln!(out, "  {{ strategy = \"{s}\", weight = {w} }},");
                }
            }
            out.push_str("]\n");
        }
        out
    }
}

fn target(model: &str, dist: u64) -> Vec<(&'static str, Val)> {
    vec![("model", Val::Str(model.to_string())), ("dist", Val::Int(dist))]
}

fn fixed(x: i64, y: i64) -> Val {
    // Fixed targets are rendered through their integer coordinates; the
    // generators only place them in the positive quadrant.
    Val::Table(vec![
        ("model", Val::Str("fixed".to_string())),
        ("x", Val::Int(x as u64)),
        ("y", Val::Int(y as u64)),
    ])
}

const SALT_MC_TRADEOFF: u64 = 0x6d63_7472;
const SALT_MC_WIDE: u64 = 0x6d63_7769;
const SALT_DP_EXACT: u64 = 0x6470_6578;
const SALT_SERVE_MIX: u64 = 0x7365_7276;

/// `mc-tradeoff`: the paper's headline grid — (n, D, target) sweeps over
/// the mixed χ-trade-off population at tens of trials per cell, plus one
/// observed spec (coverage and first visits at horizon D², as in
/// Theorem 4.1).
///
/// The grid's shape is fixed; the seed draws the trial seeds, the cell
/// and target order, and which cells run the coin-driven members at
/// `ℓ = 1` or `ℓ = 2` (balanced, so every seed carries the same mix).
/// Move budgets of 16·D² keep one trial's cost bounded, so a pass's
/// total work varies little from seed to seed.
pub fn mc_tradeoff(seed: u64) -> Vec<Spec> {
    let mut d = Draw::new(seed, SALT_MC_TRADEOFF);
    let mut specs = Vec::new();
    for k in 0..3 {
        let mut spec =
            Spec::named(&format!("mc-tradeoff-{k}"), "generated (n, D, target) trade-off grid");
        spec.defaults.push(("trials", Val::Int(48)));
        spec.defaults.push(("seed", Val::Int(d.word() % 1_000_000)));
        let mut dists = vec![6u64, 8, 10, 12];
        d.shuffle(&mut dists);
        let mut ells = vec![1u64, 1, 2, 2];
        d.shuffle(&mut ells);
        for (dist, ell) in dists.into_iter().zip(ells) {
            let mut models = vec!["ball", "corner", "ring"];
            d.shuffle(&mut models);
            let targets = models.iter().map(|m| target(m, dist)).collect();
            let cell = tradeoff_population(Cell::named(&format!("zoo-d{dist}")), ell)
                .key("move_budget", Val::Int(16 * dist * dist))
                .key(
                    "sweep",
                    Val::Table(vec![
                        ("agents", Val::Ints(vec![4, 16])),
                        ("target", Val::Tables(targets)),
                    ]),
                );
            spec.cells.push(cell);
        }
        specs.push(spec);
    }
    let mut spec = Spec::named("mc-tradeoff-observe", "coverage and first visits at horizon D^2");
    spec.top.push(("metrics", Val::Strs(vec!["coverage".into(), "first_visit".into()])));
    spec.defaults.push(("trials", Val::Int(48)));
    spec.defaults.push(("seed", Val::Int(d.word() % 1_000_000)));
    let mut dists = vec![8u64, 12, 16];
    d.shuffle(&mut dists);
    for (c, dist) in dists.into_iter().enumerate() {
        let cell = tradeoff_population(Cell::named(&format!("thm41-d{dist}")), 1 + c as u64 % 2)
            .key("move_budget", Val::Int(dist * dist))
            .key("target", Val::Table(target("ball", dist)))
            .key("sweep", Val::Table(vec![("agents", Val::Ints(vec![4, 16]))]));
        spec.cells.push(cell);
    }
    specs.push(spec);
    specs
}

/// The χ-trade-off zoo population (weights 2:2:2:1:1:2), with the coin
/// resolution `ell` for the coin-driven members.
fn tradeoff_population(cell: Cell, ell: u64) -> Cell {
    cell.member("nonuniform(dist)", 2)
        .member(format!("coin(dist, {ell})"), 2)
        .member(format!("uniform({ell}, agents, 2)"), 2)
        .member("harmonic(agents)", 1)
        .member(format!("automaton(alg1, {})", 2 + ell), 1)
        .member("randomwalk", 2)
}

/// Cells per `mc-wide` spec, and trials per cell: 6 trials keep each
/// spec's sweep below the pool-saturation threshold on two workers, so
/// the scheduler splits them into agent chunks.
const WIDE_CELLS: usize = 3;
const WIDE_TRIALS: u64 = 2;

/// `mc-wide`: one or two trials per cell, 48–256 agents, guess
/// ceilings and a phase-based member — cells the scheduler must split
/// into agent chunks. Many small specs (each its own sweep) keep the
/// pass's total work steady across seeds. Four control specs hold eight
/// trials each and so stay at trial level, and one tiny cell sits under
/// the split weight: the split rule is exercised on both sides.
pub fn mc_wide(seed: u64) -> Vec<Spec> {
    let mut d = Draw::new(seed, SALT_MC_WIDE);
    // Balanced cell slots: every (agents, D, target, ℓ) combination the
    // same number of times, in a seed-shuffled order.
    let mut slots = Vec::new();
    for &agents in &[48u64, 64, 96, 128, 192, 256] {
        for &dist in &[12u64, 16] {
            for model in ["ball", "ring"] {
                for ell in [1u64, 2] {
                    slots.push((agents, dist, model, ell));
                }
            }
        }
    }
    let mut slots: Vec<_> = (0..4).flat_map(|_| slots.iter().copied()).collect();
    d.shuffle(&mut slots);
    let wide_cell = |name: String, (agents, dist, model, ell): (u64, u64, &str, u64)| {
        Cell::named(&name)
            .key("agents", Val::Int(agents))
            .key("move_budget", Val::Int(4 * dist * dist))
            .key("guess_move_ceiling", Val::Int(2 * dist * dist))
            .key("target", Val::Table(target(model, dist)))
            .member(format!("uniform({ell}, agents, 2)"), 2)
            .member("nonuniform(dist)", 1)
            .member("levy(2.0, 256)", 1)
            .member(format!("coin(dist, {ell})"), 1)
    };
    let mut specs = Vec::new();
    for (k, chunk) in slots.chunks(WIDE_CELLS).enumerate() {
        let mut spec = Spec::named(&format!("mc-wide-{k}"), "many-agent few-trial cells");
        spec.defaults.push(("trials", Val::Int(WIDE_TRIALS)));
        spec.defaults.push(("seed", Val::Int(d.word() % 1_000_000)));
        for (c, &slot) in chunk.iter().enumerate() {
            spec.cells.push(wide_cell(format!("wide{c}-n{}", slot.0), slot));
        }
        if k == 0 {
            // Under the split weight: 12 agents x 256 moves < 2^12.
            spec.cells.push(
                Cell::named("narrow")
                    .key("agents", Val::Int(12))
                    .key("trials", Val::Int(1))
                    .key("move_budget", Val::Int(256))
                    .key("target", Val::Table(target("ring", 4)))
                    .member("nonuniform(dist)", 1)
                    .member("randomwalk", 1),
            );
        }
        specs.push(spec);
    }
    for k in 0..4u64 {
        // Eight trials per sweep saturate two workers: trial level.
        let mut spec = Spec::named(&format!("mc-wide-control-{k}"), "saturated wide cells");
        spec.defaults.push(("trials", Val::Int(WIDE_TRIALS)));
        spec.defaults.push(("seed", Val::Int(d.word() % 1_000_000)));
        for c in 0..4u64 {
            let slot = (48 + 16 * (c % 2), 12, if c < 2 { "ball" } else { "ring" }, 1 + k % 2);
            spec.cells.push(wide_cell(format!("control{c}"), slot));
        }
        specs.push(spec);
    }
    specs
}

/// A random-PFA zoo entry whose exact kernel collapses to `states`
/// states (redrawing the PFA seed until it does), so every seed's PFA
/// cells cost the same to solve.
fn vetted_pfa(d: &mut Draw, states: usize) -> String {
    for _ in 0..256 {
        let entry = format!("automaton(pfa, {states}, 1, {})", d.word() % 100_000);
        let kernel = ants_workload::ZooStrategy::parse(&entry)
            .and_then(|z| z.resolve(8, 1))
            .and_then(|r| r.kernel());
        if kernel.is_ok_and(|k| ants_dp::collapse(&k).is_ok_and(|c| c.rows.len() == states)) {
            return entry;
        }
    }
    "automaton(drift, 4)".to_string()
}

/// `dp-exact`: Markovian cells on `backend = "dp"` — random PFAs, coin,
/// nonuniform, uniform, mortal wrappers and random walks at budgets on
/// both sides of the dense/sparse break-even, half of them swept over
/// `agents` (so the cross-cell memo hits), and one spec with round-axis
/// metrics. No cell forces a `dp_mode`.
///
/// Every spec holds the same kernel slots at the same budgets, so every
/// seed costs the same to solve; the seed draws the agent counts, the
/// fixed-target positions, the random PFA (vetted to one collapsed
/// size) and the cell order.
pub fn dp_exact(seed: u64) -> Vec<Spec> {
    let mut d = Draw::new(seed, SALT_DP_EXACT);
    let mut specs = Vec::new();
    for k in 0..3 {
        let mut spec = Spec::named(&format!("dp-exact-{k}"), "exact Markovian cells");
        spec.defaults.push(("trials", Val::Int(64)));
        spec.defaults.push(("backend", Val::Str("dp".to_string())));
        let near = |d: &mut Draw| fixed(d.range(1, 2) as i64, d.range(0, 2) as i64);
        // (strategy, budget, target, swept over agents, mixed with a walk)
        let mut slots = vec![
            ("randomwalk".to_string(), 36, Val::Table(target("ring", 2)), true, false),
            ("coin(8, 1)".to_string(), 32, near(&mut d), false, true),
            ("nonuniform(8)".to_string(), 32, Val::Table(target("corner", 2)), true, false),
            ("uniform(1, 4, 2)".to_string(), 24, near(&mut d), false, false),
            (vetted_pfa(&mut d, 3), 16, near(&mut d), true, false),
            ("mortal(randomwalk, 12)".to_string(), 28, Val::Table(target("ring", 1)), false, true),
            ("mortal(randomwalk, 240)".to_string(), 32, near(&mut d), true, false),
            ("automaton(drift, 4)".to_string(), 32, near(&mut d), false, false),
        ];
        d.shuffle(&mut slots);
        for (c, (strategy, budget, tgt, swept, mixed)) in slots.into_iter().enumerate() {
            let mut cell = Cell::named(&format!("k{c}"))
                .key("move_budget", Val::Int(budget))
                .key("target", tgt)
                .member(strategy, 2);
            if mixed {
                // A mixed population: one more independent kernel.
                cell = cell.member("randomwalk", 1);
            }
            cell = if swept {
                // Same kernel, target and budget at several n: memo hits.
                let agents = d.subset(&[1u64, 2, 3, 4, 6], 3);
                cell.key("sweep", Val::Table(vec![("agents", Val::Ints(agents))]))
            } else {
                cell.key("agents", Val::Int(d.range(1, 4)))
            };
            spec.cells.push(cell);
        }
        specs.push(spec);
    }
    let mut spec = Spec::named("dp-exact-rounds", "round-axis metrics on the exact backend");
    spec.top.push(("metrics", Val::Strs(vec!["coverage".into(), "found_round".into()])));
    spec.defaults.push(("trials", Val::Int(64)));
    spec.defaults.push(("backend", Val::Str("dp".to_string())));
    spec.cells.push(
        Cell::named("thm41")
            .key("agents", Val::Int(d.range(2, 4)))
            .key("move_budget", Val::Int(32))
            .key("target", Val::Table(target("ball", 2)))
            .member("randomwalk", 1),
    );
    spec.cells.push(
        Cell::named("coin-rounds")
            .key("agents", Val::Int(d.range(2, 4)))
            .key("move_budget", Val::Int(20))
            .key("target", Val::Table(target("ring", 1)))
            .member("coin(4, 1)", 1),
    );
    specs.push(spec);
    specs
}

/// One request of the `serve-mix` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeReq {
    /// Resubmit warmed spec `i` in its plain spelling.
    Hit(usize),
    /// Resubmit warmed spec `i` respelled (spelling `variant`).
    Respelled(usize, u64),
    /// Submit fresh spec `i` under an unused seed: compute, stream and
    /// persist.
    Fresh(usize, u64),
    /// A `stats` request.
    Stats,
}

/// The `serve-mix` inputs: the specs the cache is warmed with, the
/// small specs fresh submissions draw from, and the request stream.
pub struct ServeMix {
    /// Specs submitted once during set-up.
    pub warm: Vec<Spec>,
    /// Small MC and DP specs for fresh-seed submissions.
    pub fresh: Vec<Spec>,
    stream_seed: u64,
}

/// Warmed entries in the `serve-mix` cache.
pub const SERVE_WARM: usize = 200;

/// Per-mille shares of the request stream: fresh submissions, `stats`
/// requests and respelled resubmissions (the rest are plain hits).
pub const SERVE_FRESH_PERMILLE: u64 = 180;
/// See [`SERVE_FRESH_PERMILLE`].
pub const SERVE_STATS_PERMILLE: u64 = 20;
/// See [`SERVE_FRESH_PERMILLE`].
pub const SERVE_RESPELL_PERMILLE: u64 = 200;

/// `serve-mix`: [`SERVE_WARM`] small specs of six expanded cells (every
/// fifth one exact), eight fixed-size fresh specs, and a stream that
/// mostly resubmits warmed specs.
pub fn serve_mix(seed: u64) -> ServeMix {
    let mut d = Draw::new(seed, SALT_SERVE_MIX);
    let mut warm = Vec::new();
    for i in 0..SERVE_WARM {
        let exact = i % 5 == 4;
        let mut spec = Spec::named(&format!("warm-{i}"), "warmed serve entry");
        spec.defaults.push(("trials", Val::Int(4)));
        spec.defaults.push(("seed", Val::Int(d.word() % 1_000_000)));
        if exact {
            spec.defaults.push(("backend", Val::Str("dp".to_string())));
        }
        for c in 0..3 {
            let dist = d.range(2, 4);
            let mut cell = Cell::named(&format!("c{c}"))
                .key(
                    "move_budget",
                    Val::Int(if exact { d.range(8, 16) } else { d.range(100, 400) }),
                )
                .key(
                    "target",
                    if exact {
                        fixed(d.range(1, 2) as i64, d.range(0, 1) as i64)
                    } else {
                        Val::Table(target(d.pick(&["ball", "ring", "corner"]), dist))
                    },
                )
                .key(
                    "sweep",
                    Val::Table(vec![("agents", Val::Ints(d.subset(&[1u64, 2, 3, 4], 2)))]),
                );
            let family = ["randomwalk", "nonuniform(dist)", "coin(dist, 1)"];
            let n_members = d.range(1, 2) as usize;
            for s in d.subset(&family, n_members) {
                let s = if exact { s.replace("dist", "4") } else { s.to_string() };
                cell = cell.member(s, d.range(1, 2));
            }
            spec.cells.push(cell);
        }
        warm.push(spec);
    }
    let mut fresh = Vec::new();
    for k in 0..8 {
        let mut spec = Spec::named(&format!("fresh-{k}"), "fresh-seed smoke submission");
        spec.defaults.push(("trials", Val::Int(12)));
        if k % 4 == 3 {
            spec.defaults.push(("backend", Val::Str("dp".to_string())));
            spec.cells.push(
                Cell::named("exact")
                    .key("agents", Val::Int(3))
                    .key("move_budget", Val::Int(24))
                    .key("target", Val::Table(target("ring", 2)))
                    .member("randomwalk", 1),
            );
        } else {
            for (c, agents) in [4u64, 8].into_iter().enumerate() {
                spec.cells.push(
                    Cell::named(&format!("mc{c}"))
                        .key("agents", Val::Int(agents))
                        .key("move_budget", Val::Int(10_000))
                        .key("target", Val::Table(target(d.pick(&["ball", "ring"]), 6)))
                        .member("nonuniform(dist)", 2)
                        .member("randomwalk", 1),
                );
            }
        }
        fresh.push(spec);
    }
    ServeMix { warm, fresh, stream_seed: d.word() }
}

impl ServeMix {
    /// Request `i` of the stream — a pure function of the seed and `i`,
    /// so the stream is the same whichever client thread claims it.
    pub fn request(&self, i: u64) -> ServeReq {
        let mut d = Draw::new(self.stream_seed, i);
        let roll = d.range(0, 999);
        let warm = (d.word() % self.warm.len() as u64) as usize;
        if roll < SERVE_FRESH_PERMILLE {
            // Seeds 1.. are never used by the warm-up (seed 0), and `i`
            // is unique per request, so every fresh submission misses.
            ServeReq::Fresh((d.word() % self.fresh.len() as u64) as usize, i + 1)
        } else if roll < SERVE_FRESH_PERMILLE + SERVE_STATS_PERMILLE {
            ServeReq::Stats
        } else if roll < SERVE_FRESH_PERMILLE + SERVE_STATS_PERMILLE + SERVE_RESPELL_PERMILLE {
            ServeReq::Respelled(warm, d.range(1, 3))
        } else {
            ServeReq::Hit(warm)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ants_bench::{RunConfig, WorkloadExperiment};
    use ants_dp::{
        Backend, DpMode, DENSE_BREAKEVEN_ENTRIES, MAX_FRONTIER_ENTRIES, MAX_SOLVE_STATES,
    };
    use ants_workload::{WorkloadPlan, WorkloadSpec};

    fn all_texts(seed: u64) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for specs in [mc_tradeoff(seed), mc_wide(seed), dp_exact(seed)] {
            out.extend(specs.iter().map(Spec::text));
        }
        let mix = serve_mix(seed);
        out.extend(mix.warm.iter().map(Spec::text));
        out.extend(mix.warm.iter().map(|s| s.respelled(2)));
        out.extend(mix.fresh.iter().map(Spec::text));
        out.push(format!("{:?}", (0..2000).map(|i| mix.request(i)).collect::<Vec<_>>()));
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_text() {
        for seed in [0u64, 1, 7, 12345] {
            assert_eq!(all_texts(seed), all_texts(seed), "seed {seed}");
        }
    }

    #[test]
    fn another_seed_gives_other_text() {
        for (a, b) in [(0u64, 1u64), (1, 2), (7, 12345)] {
            let (ta, tb) = (all_texts(a), all_texts(b));
            for name in ["mc-tradeoff", "mc-wide", "dp-exact"] {
                let pick = |t: &[String]| -> Vec<String> {
                    t.iter().filter(|s| s.contains(&format!("\"{name}"))).cloned().collect()
                };
                assert_ne!(pick(&ta), pick(&tb), "{name}: seeds {a} and {b}");
            }
            assert_ne!(ta.last(), tb.last(), "request streams for seeds {a} and {b}");
        }
    }

    fn plan_of(text: &str) -> WorkloadPlan {
        let spec = WorkloadSpec::parse(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        WorkloadPlan::expand(&spec).unwrap_or_else(|e| panic!("{e}\n{text}"))
    }

    #[test]
    fn every_generated_spec_expands_and_validates() {
        for seed in 0..6u64 {
            let mix = serve_mix(seed);
            let specs = mc_tradeoff(seed)
                .into_iter()
                .chain(mc_wide(seed))
                .chain(dp_exact(seed))
                .chain(mix.warm.iter().cloned())
                .chain(mix.fresh.iter().cloned());
            for spec in specs {
                let plan = plan_of(&spec.text());
                let hash = plan.content_hash();
                for v in 1..=3 {
                    let again = plan_of(&spec.respelled(v));
                    assert_eq!(again.content_hash(), hash, "respelling moved the plan");
                }
                let exp = WorkloadExperiment::new(plan);
                exp.validate_backends(&RunConfig::standard())
                    .unwrap_or_else(|e| panic!("{e}\n{}", spec.text()));
            }
        }
    }

    /// Auto's pick for every DP solve a cell induces stays inside the
    /// guards: collapse within `MAX_SOLVE_STATES`, and the predicted
    /// table within the frontier cap, so neither the dense nor the
    /// sparse guard can refuse. Every cell then evaluates cleanly.
    #[test]
    fn no_dp_cell_auto_resolves_past_a_guard() {
        let mut dense = 0;
        let mut sparse = 0;
        for seed in 0..3u64 {
            let mix = serve_mix(seed);
            let specs: Vec<Spec> = dp_exact(seed)
                .into_iter()
                .chain(mix.warm.iter().cloned())
                .chain(mix.fresh.iter().cloned())
                .collect();
            for spec in specs {
                let plan = plan_of(&spec.text());
                for cell in plan.cells.iter().filter(|c| c.backend == Backend::Dp) {
                    assert_eq!(cell.dp_mode, DpMode::Auto, "generators never force a mode");
                    for (_, s) in &cell.population {
                        let kernel = s.kernel().expect("Markovian");
                        let collapsed = ants_dp::collapse(&kernel).expect("collapses");
                        let states = collapsed.rows.len();
                        assert!(states <= MAX_SOLVE_STATES);
                        let width = (2 * cell.move_budget as u128 + 1).pow(2);
                        let entries = states as u128 * width;
                        match DpMode::Auto.resolve(states, cell.move_budget) {
                            DpMode::Dense => {
                                assert!(entries <= DENSE_BREAKEVEN_ENTRIES as u128);
                                dense += 1;
                            }
                            _ => {
                                assert!(entries <= MAX_FRONTIER_ENTRIES as u128, "{}", cell.label);
                                sparse += 1;
                            }
                        }
                    }
                    ants_workload::dp::evaluate_cell_with(cell, false, plan.metrics, None, None)
                        .unwrap_or_else(|e| panic!("{e}"));
                }
            }
        }
        assert!(
            dense > 0 && sparse > 0,
            "both sides of the break-even: {dense} dense, {sparse} sparse"
        );
    }

    #[test]
    fn request_stream_has_every_kind() {
        let mix = serve_mix(3);
        let reqs: Vec<ServeReq> = (0..5000).map(|i| mix.request(i)).collect();
        let count = |f: &dyn Fn(&ServeReq) -> bool| reqs.iter().filter(|r| f(r)).count();
        assert!(count(&|r| matches!(r, ServeReq::Hit(_))) > 2500);
        assert!(count(&|r| matches!(r, ServeReq::Respelled(..))) > 500);
        assert!(count(&|r| matches!(r, ServeReq::Fresh(..))) > 200);
        assert!(count(&|r| matches!(r, ServeReq::Stats)) > 40);
    }
}
