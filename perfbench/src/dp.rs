//! Exact-backend layers of the traced `dp-exact` run (the timed phase
//! is the engine-workload loop in [`crate::mc`]).
//!
//! Per DP cell: each population kernel is collapsed under a span and its
//! `DpMode::Auto` resolution recorded (the `DENSE_BREAKEVEN_ENTRIES`
//! decision); the cell is solved fresh, solved again against a warm
//! `DpMemo`, and — where the spec carries metrics — solved without them
//! to split off the round-axis share.

use crate::trace::{mean, ratio, Tracer};
use crate::Outcome;
use ants_dp::{Backend, DpMode};
use ants_sim::MetricSet;
use ants_workload::dp::{evaluate_cell_with, DpMemo};
use ants_workload::WorkloadPlan;
use std::time::Instant;

/// Fill the `dp.*` and `decide.dp_*` metrics.
pub fn layers(plans: &[&WorkloadPlan], tracer: &mut Tracer, out: &mut Outcome) {
    let (mut dense, mut sparse) = (0u64, 0u64);
    let (mut dense_ms, mut sparse_ms, mut memo_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut total_ns, mut metric_ns) = (0.0, 0.0);
    for plan in plans {
        for cell in plan.cells.iter().filter(|c| c.backend == Backend::Dp) {
            let mut cell_dense = true;
            for (_, s) in &cell.population {
                let kernel = s.kernel().expect("validated in set-up");
                let collapsed = tracer
                    .span("dp.collapse", |_| ants_dp::collapse(&kernel))
                    .expect("generated kernels collapse");
                if DpMode::Auto.resolve(collapsed.rows.len(), cell.move_budget) == DpMode::Dense {
                    dense += 1;
                } else {
                    sparse += 1;
                    cell_dense = false;
                }
            }
            let timed = |tracer: &mut Tracer, metrics: MetricSet, memo: Option<&DpMemo>| {
                let t0 = Instant::now();
                tracer
                    .span("dp.evaluate_cell_with", |_| {
                        evaluate_cell_with(cell, false, metrics, None, memo)
                    })
                    .expect("validated in set-up");
                t0.elapsed().as_nanos() as f64
            };
            let full = timed(tracer, plan.metrics, None);
            total_ns += full;
            if !plan.metrics.is_empty() {
                metric_ns += (full - timed(tracer, MetricSet::empty(), None)).max(0.0);
            }
            if cell_dense { &mut dense_ms } else { &mut sparse_ms }.push(full / 1e6);
            let memo = DpMemo::new();
            timed(tracer, plan.metrics, Some(&memo));
            memo_us.push(timed(tracer, plan.metrics, Some(&memo)) / 1e3);
        }
    }
    if dense + sparse == 0 {
        return;
    }
    out.set("dp.collapse_us", mean(&tracer.durations("dp.collapse")) / 1e3);
    out.set("dp.solve_ms.dense", mean(&dense_ms));
    out.set("dp.solve_ms.sparse", mean(&sparse_ms));
    out.set("dp.auto_dense_frac", dense as f64 / (dense + sparse) as f64);
    out.set("dp.memo_eval_us", mean(&memo_us));
    out.set("dp.metric_share", ratio(metric_ns, total_ns));
    out.set("decide.dp_dense", dense as f64);
    out.set("decide.dp_sparse", sparse as f64);
}
