//! Exact evaluation of one workload cell.
//!
//! [`evaluate`] is the DP backend's counterpart of "run `trials` Monte
//! Carlo trials and aggregate": it combines the per-strategy absorption
//! curves into the exact law of the trial statistic and emits the same
//! row vocabulary as the simulator-backed `WorkloadExperiment`.
//!
//! The combination is closed-form because agents are independent and a
//! mixed population assigns each agent a strategy iid with probability
//! `wᵢ / Σw`: the per-agent find CDF against a target `t` is the
//! mixture `F̄_t(m) = Σᵢ pᵢ F_{i,t}(m)`, and the trial statistic —
//! the minimum find over `n` agents — has CDF
//! `H_t(m) = 1 − (1 − F̄_t(m))ⁿ`. Target placements enumerate to a
//! finite support ([`target_support`]), so the cell's law is the finite
//! mixture `H(m) = Σ_t w_t H_t(m)` — evaluated exactly, in a fixed
//! summation order, on one thread.
//!
//! ## Exact columns vs. exact-expectation proxies
//!
//! `success`, `median moves`, `mean moves`, `found@R` and
//! `mean found round` are *laws of the reported statistic*: the MC
//! column estimates exactly the quantity the DP computes. Three metric
//! columns aggregate per-trial ratios whose exact law is not a function
//! of per-cell marginals; for these the DP reports the standard
//! exact-expectation proxy and documents the difference:
//!
//! * `coverage` — exact *expected* coverage fraction (MC averages
//!   per-trial fractions; identical in expectation, so Wilson-style
//!   agreement still holds);
//! * `adversarial left` — true iff the *expected* number of unvisited
//!   bounds cells is ≥ 1 (MC reports "every trial left a cell");
//! * `mean first visit` — ratio of expectations
//!   `Σ_c E[first-visit · visited] / Σ_c P(visited)` (MC averages
//!   per-trial ratios);
//! * `max chi` / `chi obs` — the χ *support* statistic: the largest
//!   footprint reached with probability above
//!   [`crate::CHI_MASS_FLOOR`] (MC reports the per-run running max).

use crate::absorb::absorption_cdf_mode;
use crate::collapse::{collapse, CollapsedKernel};
use crate::error::DpError;
use crate::kernel::{kernel_fingerprint, MarkovKernel, TableKernel};
use crate::rounds::{chi_support, step_absorption_cdf_mode};
use crate::DpMode;
use ants_grid::{Point, Rect, TargetPlacement};
use std::sync::Arc;

/// One population entry: a weighted kernel.
#[derive(Debug, Clone)]
pub struct DpStrategy {
    /// Assignment weight (each agent runs this kernel with probability
    /// `weight / Σ weights`).
    pub weight: u64,
    /// The strategy's exact kernel.
    pub kernel: TableKernel,
}

/// Which observation metrics to evaluate, against which bounds/horizon.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpMetrics {
    /// Coverage fraction + adversarial-cell columns.
    pub coverage: bool,
    /// Mean first-visit column.
    pub first_visit: bool,
    /// `cover@R/4` / `cover@R/2` columns.
    pub round_trace: bool,
    /// Observed-χ column.
    pub chi: bool,
    /// `found@R` / `mean found round` columns.
    pub found_round: bool,
    /// Max-norm radius of the observation bounds (`Rect::ball`).
    pub bounds_radius: u64,
    /// The observation horizon in rounds.
    pub rounds: u64,
}

impl DpMetrics {
    fn needs_survival(&self) -> bool {
        self.coverage || self.first_visit || self.round_trace
    }
}

/// One cell's exact evaluation request.
#[derive(Debug, Clone)]
pub struct DpRequest {
    /// Number of independent agents per trial.
    pub agents: u64,
    /// The per-agent move budget.
    pub move_budget: u64,
    /// Trial count of the MC twin — only used to scale the `found`
    /// column to an expected count.
    pub trials: u64,
    /// The weighted population.
    pub population: Vec<DpStrategy>,
    /// Enumerated target support with probabilities (see
    /// [`target_support`]).
    pub targets: Vec<(Point, f64)>,
    /// Observation metrics to evaluate, if any.
    pub metrics: Option<DpMetrics>,
    /// Table representation for every DP in the cell (see
    /// [`DpMode::resolve`] for how `Auto` picks per solve).
    pub mode: DpMode,
}

/// A cross-cell cache for solved DP curves.
///
/// The exact backend solves one curve per `(kernel, point, clock,
/// mode)`; sweeps re-solve the same curves cell after cell whenever only
/// the agent count or trial count varies. Implementations (the workload
/// layer's `DpMemo`) store the solved curves keyed by a string that
/// starts from [`kernel_fingerprint`], so a hit is guaranteed to return
/// exactly the bytes a fresh solve would produce — memoization can never
/// change a report.
pub trait SolveCache {
    /// Look up a previously stored curve.
    fn get(&self, key: &str) -> Option<Arc<Vec<f64>>>;
    /// Store a freshly solved curve.
    fn put(&self, key: &str, value: Arc<Vec<f64>>);
}

/// The exact cell report, mirroring the MC row vocabulary.
#[derive(Debug, Clone)]
pub struct DpCellReport {
    /// Exact trial success probability within the move budget.
    pub success: f64,
    /// Expected number of successful trials (`success × trials`).
    pub found: f64,
    /// Conditional median of the winning move count (NaN if success 0).
    pub median_moves: f64,
    /// Conditional mean of the winning move count (NaN if success 0).
    pub mean_moves: f64,
    /// χ support statistic over the move budget.
    pub max_chi: f64,
    /// Expected coverage fraction of the bounds.
    pub coverage: Option<f64>,
    /// Expected unvisited bounds cells ≥ 1.
    pub adversarial_left: Option<bool>,
    /// Ratio-of-expectations mean first-visit round.
    pub mean_first_visit: Option<f64>,
    /// Expected coverage at rounds `⌈R/4⌉` and `⌈R/2⌉`.
    pub round_trace: Option<(f64, f64)>,
    /// χ support statistic over the observation horizon.
    pub chi_obs: Option<f64>,
    /// `(found@R, mean found round)` against the round clock.
    pub found_round: Option<(f64, f64)>,
}

/// Work guard for the per-cell survival sweep: the product
/// `bounds area × states × horizon³` must stay below this (the sweep
/// runs one step-clock forward DP per bounds cell, each up to
/// `states × horizon²` entries per round on the dense table).
pub(crate) const MAX_METRIC_WORK: u128 = 1 << 33;

/// Enumerate a target placement's exact support: every candidate point
/// with its placement probability. Mirrors `TargetPlacement::place`
/// point for point.
pub fn target_support(placement: &TargetPlacement) -> Result<Vec<(Point, f64)>, DpError> {
    match *placement {
        TargetPlacement::Fixed(p) => {
            if p == Point::ORIGIN {
                return Err(DpError::Unsupported {
                    what: "a fixed target at the origin".into(),
                    reason: "targets are never placed on the origin".into(),
                });
            }
            Ok(vec![(p, 1.0)])
        }
        TargetPlacement::Corner { distance } => {
            Ok(vec![(Point::new(distance as i64, distance as i64), 1.0)])
        }
        TargetPlacement::UniformInBall { distance } => {
            let d = distance as i64;
            let count = ((2 * distance + 1).pow(2) - 1) as usize;
            let w = 1.0 / count as f64;
            let mut pts = Vec::with_capacity(count);
            for y in -d..=d {
                for x in -d..=d {
                    let p = Point::new(x, y);
                    if p != Point::ORIGIN {
                        pts.push((p, w));
                    }
                }
            }
            Ok(pts)
        }
        TargetPlacement::Ring { distance } => {
            let d = distance as i64;
            let count = 8 * distance as usize;
            let w = 1.0 / count as f64;
            let pts = (0..count as i64)
                .map(|idx| {
                    let side = idx / (2 * d);
                    let off = idx % (2 * d) - d;
                    let p = match side {
                        0 => Point::new(off + 1, d),
                        1 => Point::new(off, -d),
                        2 => Point::new(-d, off + 1),
                        _ => Point::new(d, off),
                    };
                    (p, w)
                })
                .collect();
            Ok(pts)
        }
    }
}

/// Normalised population weights.
fn weights(population: &[DpStrategy]) -> Result<Vec<f64>, DpError> {
    let total: u64 = population.iter().map(|s| s.weight).sum();
    if population.is_empty() || total == 0 {
        return Err(DpError::Unsupported {
            what: "an empty population".into(),
            reason: "at least one positively weighted strategy is required".into(),
        });
    }
    Ok(population.iter().map(|s| s.weight as f64 / total as f64).collect())
}

/// Conditional median/mean of a CDF `h` (already the law of the trial
/// statistic): smallest `m` with `h[m] ≥ success/2`, and
/// `Σ m·Δh(m) / success`. Both NaN when `success` is zero.
fn conditional_moments(h: &[f64]) -> (f64, f64) {
    let success = *h.last().expect("non-empty CDF");
    if success <= 0.0 {
        return (f64::NAN, f64::NAN);
    }
    let half = success / 2.0;
    let median = h.iter().position(|&p| p >= half).expect("success/2 <= success is reached") as f64;
    let mut mean = 0.0;
    for m in 1..h.len() {
        mean += m as f64 * (h[m] - h[m - 1]);
    }
    (median, mean / success)
}

/// Collapse `kernel` into `slot` on first use; later calls return the
/// cached collapse. A fully memoized cell never pays for the collapse.
fn collapsed_of<'a>(
    slot: &'a mut Option<CollapsedKernel>,
    kernel: &TableKernel,
) -> Result<&'a CollapsedKernel, DpError> {
    if slot.is_none() {
        *slot = Some(collapse(kernel)?);
    }
    Ok(slot.as_ref().expect("just filled"))
}

/// Look `key` up in `cache` (when present), solving and storing on a
/// miss. The returned `Arc` is exactly the fresh solve's output, so a
/// hit can never change a report.
fn cached_curve(
    cache: Option<&dyn SolveCache>,
    key: String,
    solve: impl FnOnce() -> Result<Vec<f64>, DpError>,
) -> Result<Arc<Vec<f64>>, DpError> {
    if let Some(c) = cache {
        if let Some(hit) = c.get(&key) {
            return Ok(hit);
        }
    }
    let curve = Arc::new(solve()?);
    if let Some(c) = cache {
        c.put(&key, Arc::clone(&curve));
    }
    Ok(curve)
}

/// Evaluate one cell exactly.
///
/// # Errors
///
/// Any [`DpError`] from the collapse, the DPs, or the guards; the error
/// names the strategy or knob responsible.
pub fn evaluate(req: &DpRequest) -> Result<DpCellReport, DpError> {
    evaluate_with(req, None)
}

/// [`evaluate`] with an optional cross-cell curve cache: every
/// move-clock absorption curve and step-clock first-passage curve is
/// looked up before solving and stored after solving (the survival
/// sweep and the found-round columns share the step-clock curves). Cache keys start from
/// [`kernel_fingerprint`], so two cells sharing a strategy, a point,
/// a clock and a [`DpMode`] share the solve — byte-identically.
///
/// # Errors
///
/// As [`evaluate`].
pub fn evaluate_with(
    req: &DpRequest,
    cache: Option<&dyn SolveCache>,
) -> Result<DpCellReport, DpError> {
    if req.agents == 0 {
        return Err(DpError::Unsupported {
            what: "a cell with zero agents".into(),
            reason: "at least one agent is required".into(),
        });
    }
    if req.targets.is_empty() {
        return Err(DpError::Unsupported {
            what: "a cell with an empty target support".into(),
            reason: "the target placement enumerated to no candidate points".into(),
        });
    }
    let p_strat = weights(&req.population)?;
    let n = req.agents as f64;
    let budget = req.move_budget as usize;

    // --- Base columns: the exact law of the trial statistic. ---
    // Per strategy, collapse once (lazily — a fully memoized cell skips
    // it); per (strategy, target), one absorption DP or cache hit.
    let mode = req.mode;
    let fps: Vec<u128> = req.population.iter().map(|s| kernel_fingerprint(&s.kernel)).collect();
    let mut collapsed: Vec<Option<CollapsedKernel>> = req.population.iter().map(|_| None).collect();
    let mut h_mix = vec![0.0f64; budget + 1];
    for &(target, tw) in &req.targets {
        let mut f_bar = vec![0.0f64; budget + 1];
        for (si, strat) in req.population.iter().enumerate() {
            let key =
                format!("a|{:032x}|{},{}|{}|{mode}", fps[si], target.x, target.y, req.move_budget);
            let cdf = cached_curve(cache, key, || {
                let c = collapsed_of(&mut collapsed[si], &strat.kernel)?;
                absorption_cdf_mode(c, strat.kernel.label(), target, req.move_budget, mode)
                    .map(|curve| curve.cdf)
            })?;
            for (fb, &c) in f_bar.iter_mut().zip(cdf.iter()) {
                *fb += p_strat[si] * c;
            }
        }
        for (h, &fb) in h_mix.iter_mut().zip(f_bar.iter()) {
            *h += tw * (1.0 - (1.0 - fb).powf(n));
        }
    }
    let success = *h_mix.last().expect("budget + 1 entries");
    let (median_moves, mean_moves) = conditional_moments(&h_mix);
    // The population's χ support statistic over `horizon` steps.
    let chi_over = |horizon: u64| {
        req.population
            .iter()
            .map(|s| {
                if s.kernel.chi_is_static() {
                    s.kernel.chi(s.kernel.start()).chi()
                } else {
                    chi_support(&s.kernel, horizon)
                }
            })
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let max_chi = chi_over(req.move_budget);

    // --- Metric columns against the round clock. ---
    let mut report = DpCellReport {
        success,
        found: success * req.trials as f64,
        median_moves,
        mean_moves,
        max_chi,
        coverage: None,
        adversarial_left: None,
        mean_first_visit: None,
        round_trace: None,
        chi_obs: None,
        found_round: None,
    };
    let Some(metrics) = req.metrics else {
        return Ok(report);
    };
    let horizon = metrics.rounds;
    let hz = horizon as usize;
    // The step-clock first-passage CDF of strategy `si` on `point`: the
    // survival sweep reads `1 − F`, the found-round columns read `F`, so
    // a target inside the bounds is solved once per cell.
    let round_cdf = |si: usize, point: Point| {
        let key = format!("r|{:032x}|{},{}|{horizon}|{mode}", fps[si], point.x, point.y);
        let k = &req.population[si].kernel;
        cached_curve(cache, key, || step_absorption_cdf_mode(k, k.label(), point, horizon, mode))
    };

    if metrics.needs_survival() {
        let bounds = Rect::ball(metrics.bounds_radius);
        let area = bounds.area();
        let states: usize = req.population.iter().map(|s| s.kernel.num_states()).max().unwrap();
        let work = area as u128 * states as u128 * (horizon as u128).pow(3);
        if work > MAX_METRIC_WORK {
            return Err(DpError::Guard {
                what: format!(
                    "coverage/first-visit sweep (bounds area {area} x {states} states x \
                     horizon {horizon}^3 step-DP work)"
                ),
                limit: MAX_METRIC_WORK as usize,
                hint: "shrink the bounds or horizon, drop the survival metrics, or use \
                       backend = \"mc\""
                    .into(),
            });
        }
        // Per bounds cell: population survival q̄^n at every round.
        let mut sum_unvisited_h = 0.0f64; // Σ_c q̄_c(H)^n
        let mut cover_q = 0.0f64; // Σ_c v_c(⌈R/4⌉)
        let mut cover_half = 0.0f64; // Σ_c v_c(⌈R/2⌉)
        let mut fv_num = 0.0f64; // Σ_c Σ_r r·Δv_c(r)
        let mut fv_den = 0.0f64; // Σ_c v_c(H)
        let at_q = horizon.div_ceil(4) as usize;
        let at_h = horizon.div_ceil(2) as usize;
        for cell in bounds.points() {
            let mut q_bar = vec![0.0f64; hz + 1];
            // The origin is visited at spawn (round 0): its survival is
            // identically zero.
            if cell != Point::ORIGIN {
                for (si, &p) in p_strat.iter().enumerate() {
                    let f = round_cdf(si, cell)?;
                    for r in 0..=hz {
                        q_bar[r] += p * (1.0 - f[r]);
                    }
                }
            }
            let v: Vec<f64> = q_bar.iter().map(|&q| 1.0 - q.powf(n)).collect();
            sum_unvisited_h += 1.0 - v[hz];
            cover_q += v[at_q];
            cover_half += v[at_h];
            fv_den += v[hz];
            for r in 1..=hz {
                fv_num += r as f64 * (v[r] - v[r - 1]);
            }
        }
        if metrics.coverage {
            report.coverage = Some((area as f64 - sum_unvisited_h) / area as f64);
            report.adversarial_left = Some(sum_unvisited_h >= 1.0);
        }
        if metrics.round_trace {
            report.round_trace = Some((cover_q / area as f64, cover_half / area as f64));
        }
        if metrics.first_visit {
            report.mean_first_visit = Some(if fv_den > 0.0 { fv_num / fv_den } else { f64::NAN });
        }
    }
    if metrics.chi {
        report.chi_obs = Some(chi_over(horizon));
    }
    if metrics.found_round {
        let mut found_at = 0.0f64;
        let mut mean_num = 0.0f64;
        for &(target, tw) in &req.targets {
            let mut f_bar = vec![0.0f64; hz + 1];
            for (si, &p) in p_strat.iter().enumerate() {
                let f = round_cdf(si, target)?;
                for r in 0..=hz {
                    f_bar[r] += p * f[r];
                }
            }
            let g: Vec<f64> = f_bar.iter().map(|&f| 1.0 - (1.0 - f).powf(n)).collect();
            found_at += tw * g[hz];
            for r in 1..=hz {
                mean_num += tw * r as f64 * (g[r] - g[r - 1]);
            }
        }
        let mean_round = if found_at > 0.0 { mean_num / found_at } else { f64::NAN };
        report.found_round = Some((found_at, mean_round));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{nonuniform_kernel, randomwalk_kernel};
    use std::collections::HashMap;
    use std::sync::Mutex;

    fn walk_req(agents: u64, budget: u64, targets: Vec<(Point, f64)>) -> DpRequest {
        DpRequest {
            agents,
            move_budget: budget,
            trials: 1000,
            population: vec![DpStrategy { weight: 1, kernel: randomwalk_kernel() }],
            targets,
            metrics: None,
            mode: DpMode::Auto,
        }
    }

    #[test]
    fn single_agent_single_target_matches_absorption() {
        let req = walk_req(1, 8, vec![(Point::new(1, 0), 1.0)]);
        let rep = evaluate(&req).unwrap();
        let c = collapse(&randomwalk_kernel()).unwrap();
        let curve = absorption_cdf_mode(&c, "rw", Point::new(1, 0), 8, DpMode::Dense).unwrap();
        assert_eq!(rep.success, *curve.cdf.last().unwrap());
        assert_eq!(rep.found, rep.success * 1000.0);
    }

    #[test]
    fn more_agents_strictly_better() {
        let t = vec![(Point::new(2, 1), 1.0)];
        let one = evaluate(&walk_req(1, 16, t.clone())).unwrap();
        let four = evaluate(&walk_req(4, 16, t)).unwrap();
        assert!(four.success > one.success);
        // Exact independence: 1 - (1-p)^4.
        let expect = 1.0 - (1.0 - one.success).powi(4);
        assert!((four.success - expect).abs() < 1e-12);
    }

    #[test]
    fn mixture_interpolates_success() {
        let target = vec![(Point::new(1, 1), 1.0)];
        let walk = DpStrategy { weight: 1, kernel: randomwalk_kernel() };
        let nu = DpStrategy { weight: 1, kernel: nonuniform_kernel(2).unwrap() };
        let mk = |population| DpRequest {
            agents: 1,
            move_budget: 24,
            trials: 100,
            population,
            targets: target.clone(),
            metrics: None,
            mode: DpMode::Auto,
        };
        let a = evaluate(&mk(vec![walk.clone()])).unwrap();
        let b = evaluate(&mk(vec![nu.clone()])).unwrap();
        let mixed = evaluate(&mk(vec![walk, nu])).unwrap();
        let expect = 0.5 * a.success + 0.5 * b.success;
        assert!((mixed.success - expect).abs() < 1e-12, "{} vs {expect}", mixed.success);
    }

    #[test]
    fn target_support_enumerations() {
        assert_eq!(
            target_support(&TargetPlacement::Corner { distance: 3 }).unwrap(),
            vec![(Point::new(3, 3), 1.0)]
        );
        let ball = target_support(&TargetPlacement::UniformInBall { distance: 2 }).unwrap();
        assert_eq!(ball.len(), 24);
        assert!(ball.iter().all(|&(p, w)| p != Point::ORIGIN && (w - 1.0 / 24.0).abs() < 1e-15));
        let ring = target_support(&TargetPlacement::Ring { distance: 2 }).unwrap();
        assert_eq!(ring.len(), 16);
        let set: std::collections::HashSet<Point> = ring.iter().map(|&(p, _)| p).collect();
        assert_eq!(set.len(), 16, "ring points must be distinct");
        assert!(set.iter().all(|p| p.norm_max() == 2));
        assert!(target_support(&TargetPlacement::Fixed(Point::ORIGIN)).is_err());
    }

    #[test]
    fn conditional_moments_of_point_mass() {
        // All success at exactly move 3.
        let h = vec![0.0, 0.0, 0.0, 0.8, 0.8];
        let (median, mean) = conditional_moments(&h);
        assert_eq!(median, 3.0);
        assert!((mean - 3.0).abs() < 1e-15);
        let (nan_med, nan_mean) = conditional_moments(&[0.0, 0.0]);
        assert!(nan_med.is_nan() && nan_mean.is_nan());
    }

    #[test]
    fn coverage_metrics_for_tiny_walk_cell() {
        let mut req = walk_req(2, 8, vec![(Point::new(1, 0), 1.0)]);
        req.metrics = Some(DpMetrics {
            coverage: true,
            first_visit: true,
            round_trace: true,
            chi: true,
            found_round: true,
            bounds_radius: 1,
            rounds: 8,
        });
        let rep = evaluate(&req).unwrap();
        let coverage = rep.coverage.unwrap();
        assert!(coverage > 0.0 && coverage <= 1.0);
        let (q, h) = rep.round_trace.unwrap();
        assert!(q <= h + 1e-15, "coverage is monotone in the round: {q} vs {h}");
        let mfv = rep.mean_first_visit.unwrap();
        assert!((0.0..=8.0).contains(&mfv), "{mfv}");
        assert_eq!(rep.chi_obs.unwrap(), rep.max_chi);
        let (found_at, mean_round) = rep.found_round.unwrap();
        // Every step of a random walk is a move, so the round clock and
        // the move clock coincide.
        assert!((found_at - rep.success).abs() < 1e-12);
        assert!(mean_round > 0.0 && mean_round <= 8.0);
    }

    /// A map cache counting `(hits, misses)`.
    #[derive(Default)]
    struct MapCache {
        map: Mutex<HashMap<String, Arc<Vec<f64>>>>,
        gets: Mutex<(u64, u64)>,
    }

    impl SolveCache for MapCache {
        fn get(&self, key: &str) -> Option<Arc<Vec<f64>>> {
            let hit = self.map.lock().unwrap().get(key).cloned();
            let mut g = self.gets.lock().unwrap();
            if hit.is_some() {
                g.0 += 1;
            } else {
                g.1 += 1;
            }
            hit
        }
        fn put(&self, key: &str, value: Arc<Vec<f64>>) {
            self.map.lock().unwrap().insert(key.to_string(), value);
        }
    }

    /// Every column of `a` and `b` holds the same bits.
    fn assert_bit_identical(a: &DpCellReport, b: &DpCellReport) {
        let bits = |r: &DpCellReport| {
            let opt = |v: Option<f64>| v.map(f64::to_bits);
            let pair = |v: Option<(f64, f64)>| v.map(|(x, y)| (x.to_bits(), y.to_bits()));
            (
                [r.success, r.found, r.median_moves, r.mean_moves, r.max_chi].map(f64::to_bits),
                [opt(r.coverage), opt(r.mean_first_visit), opt(r.chi_obs)],
                r.adversarial_left,
                [pair(r.round_trace), pair(r.found_round)],
            )
        };
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn found_round_shares_the_survival_solves() {
        // Both targets lie in the radius-1 bounds, so `found_round` reads
        // step-clock curves the survival sweep already solved.
        let mut req = walk_req(3, 8, vec![(Point::new(1, 0), 0.5), (Point::new(-1, 1), 0.5)]);
        req.population.push(DpStrategy { weight: 2, kernel: nonuniform_kernel(2).unwrap() });
        let coverage =
            DpMetrics { coverage: true, bounds_radius: 1, rounds: 8, ..Default::default() };
        let misses = |metrics: DpMetrics| {
            let cache = MapCache::default();
            let rep =
                evaluate_with(&DpRequest { metrics: Some(metrics), ..req.clone() }, Some(&cache));
            let (_, misses) = *cache.gets.lock().unwrap();
            (rep.unwrap(), misses)
        };
        // 2 strategies × (2 absorption curves + 8 non-origin bounds
        // cells); the origin is never looked up.
        assert_eq!(misses(coverage).1, 2 * (2 + 8));
        let found = DpMetrics { found_round: true, ..coverage };
        let (shared, found_misses) = misses(found);
        assert_eq!(found_misses, 2 * (2 + 8), "found_round must add no solve");
        assert!(shared.found_round.is_some());
        let fresh = evaluate(&DpRequest { metrics: Some(found), ..req }).unwrap();
        assert_bit_identical(&fresh, &shared);
    }

    #[test]
    fn memoized_reports_are_byte_identical() {
        let mut req = walk_req(3, 8, vec![(Point::new(1, 0), 1.0), (Point::new(2, 1), 1.0 / 2.0)]);
        req.metrics = Some(DpMetrics {
            coverage: true,
            first_visit: true,
            round_trace: true,
            chi: true,
            found_round: true,
            bounds_radius: 1,
            rounds: 8,
        });
        let fresh = evaluate(&req).unwrap();
        let cache = MapCache::default();
        let cold = evaluate_with(&req, Some(&cache)).unwrap();
        let warm = evaluate_with(&req, Some(&cache)).unwrap();
        let (hits, misses) = *cache.gets.lock().unwrap();
        assert!(hits >= misses, "second pass must hit every key: {hits} hits / {misses} misses");
        for rep in [&cold, &warm] {
            assert_bit_identical(&fresh, rep);
        }
    }

    #[test]
    fn metric_work_guard_trips() {
        let mut req = walk_req(1, 400, vec![(Point::new(1, 0), 1.0)]);
        req.metrics = Some(DpMetrics {
            coverage: true,
            bounds_radius: 200,
            rounds: 400,
            ..Default::default()
        });
        let err = evaluate(&req).unwrap_err();
        assert!(matches!(err, DpError::Guard { .. }), "{err}");
    }
}
