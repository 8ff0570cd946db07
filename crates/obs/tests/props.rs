//! Property battery for the telemetry snapshot algebra.
//!
//! [`Snapshot::merge`] must be a commutative, associative fold with the
//! empty snapshot as identity, adding plan-decision counts — that is what
//! makes aggregation order (shards, runs, processes) irrelevant — and the
//! NDJSON serialization must round-trip exactly, including full-range
//! `u64` counters that a double would round.

use ants_obs::{Counter, Gauge, Phase, PlanDecision, PlanLog, Snapshot, HIST_BUCKETS};
use proptest::collection::vec;
use proptest::prelude::*;

fn plan_strategy() -> impl Strategy<Value = PlanDecision> {
    ((0u64..8, 0u8..3, 1u64..256, 0u64..=u64::MAX), (0u64..512, 1u64..64, 1u64..32, 0u64..=1 << 13))
        .prop_map(|((job, gran, agents, weight), (sweep_trials, threads, chunk, split))| {
            PlanDecision {
                job,
                granularity: ["serial", "trial", "agent"][gran as usize].to_string(),
                agents,
                weight,
                sweep_trials,
                threads,
                chunk,
                split_weight: split,
                saturation: 4,
            }
        })
}

fn snapshot_strategy() -> impl Strategy<Value = Snapshot> {
    (
        (
            0u64..=u64::MAX,
            vec(0u64..=u64::MAX, Counter::COUNT),
            vec(0u64..=u64::MAX, 0..6),
            vec(0u64..=u64::MAX, 0..6),
            vec(0u64..=u64::MAX, 0..6),
        ),
        (
            vec(0u64..=u64::MAX, 0..6),
            vec(0u64..=u64::MAX, 0..6),
            vec(0u64..=u64::MAX, Phase::COUNT),
            vec(0u64..1 << 20, Phase::COUNT),
        ),
        (
            vec(0u64..1 << 30, 0..HIST_BUCKETS + 1),
            vec(0u64..1 << 30, 0..HIST_BUCKETS + 1),
            vec(0u64..=u64::MAX, Gauge::COUNT),
            vec((plan_strategy(), 1u64..4), 0..4),
        ),
    )
        .prop_map(
            |((uptime, counters, wu, ws, wp), (wb, wi, pns, pcount), (hh, mh, gauges, plans))| {
                let mut s = Snapshot { uptime_ns: uptime, ..Snapshot::default() };
                s.counters.copy_from_slice(&counters);
                s.worker_units = wu;
                s.worker_steals = ws;
                s.worker_polls = wp;
                s.worker_busy_ns = wb;
                s.worker_idle_ns = wi;
                s.phase_ns.copy_from_slice(&pns);
                s.phase_count.copy_from_slice(&pcount);
                s.hit_latency[..hh.len()].copy_from_slice(&hh);
                s.miss_latency[..mh.len()].copy_from_slice(&mh);
                s.gauges.copy_from_slice(&gauges);
                // Counted plan multisets, repeats included.
                for (decision, count) in plans {
                    s.plans.add(decision, count);
                }
                s
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(a in snapshot_strategy(), b in snapshot_strategy()) {
        prop_assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn merge_is_associative(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
        c in snapshot_strategy(),
    ) {
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    }

    #[test]
    fn empty_snapshot_is_merge_identity(a in snapshot_strategy()) {
        let zero = Snapshot::default();
        prop_assert_eq!(a.merge(&zero), a.clone());
        prop_assert_eq!(zero.merge(&a), a);
    }

    #[test]
    fn merge_adds_plan_counts(a in snapshot_strategy(), b in snapshot_strategy()) {
        let m = a.merge(&b);
        prop_assert_eq!(m.plans.len(), a.plans.len() + b.plans.len());
        for (decision, n) in m.plans.counts() {
            let count = |log: &PlanLog| log.counts().find(|&(d, _)| d == decision).map_or(0, |(_, n)| n);
            prop_assert_eq!(n, count(&a.plans) + count(&b.plans));
        }
    }

    #[test]
    fn ndjson_round_trips_exactly(a in snapshot_strategy()) {
        let text = a.to_ndjson();
        let back = Snapshot::parse_ndjson(&text)
            .unwrap_or_else(|e| panic!("snapshot failed to parse: {e}\n{text}"));
        prop_assert_eq!(back, a);
    }

    #[test]
    fn inline_json_parses_and_agrees_on_totals(a in snapshot_strategy()) {
        let doc = ants_obs::json::Json::parse(&a.to_inline_json()).expect("inline parses");
        let pool = doc.get("pool").expect("pool block");
        prop_assert_eq!(
            pool.get("units").and_then(ants_obs::json::Json::as_u64),
            Some(a.counter(Counter::PoolUnits))
        );
        let serve = doc.get("serve").expect("serve block");
        prop_assert_eq!(
            serve.get("hits").and_then(ants_obs::json::Json::as_u64),
            Some(a.counter(Counter::ServeHits))
        );
    }
}
