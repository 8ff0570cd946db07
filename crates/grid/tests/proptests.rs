//! Property-based tests for the grid substrate.

use ants_grid::{Direction, Point, Rect, TargetPlacement};
use ants_rng::{SeedableRng64, Xoshiro256PlusPlus};
use proptest::prelude::*;

fn point() -> impl Strategy<Value = Point> {
    (-200i64..=200, -200i64..=200).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn metric_axioms_max_norm(a in point(), b in point(), c in point()) {
        // Identity.
        prop_assert_eq!(a.dist_max(&a), 0);
        // Symmetry.
        prop_assert_eq!(a.dist_max(&b), b.dist_max(&a));
        // Triangle inequality.
        prop_assert!(a.dist_max(&c) <= a.dist_max(&b) + b.dist_max(&c));
    }

    #[test]
    fn metric_axioms_l1(a in point(), b in point(), c in point()) {
        prop_assert_eq!(a.dist_l1(&a), 0);
        prop_assert_eq!(a.dist_l1(&b), b.dist_l1(&a));
        prop_assert!(a.dist_l1(&c) <= a.dist_l1(&b) + b.dist_l1(&c));
    }

    #[test]
    fn norm_equivalence(p in point()) {
        // max <= l1 <= 2 * max (the paper's constant-factor claim).
        prop_assert!(p.norm_max() <= p.norm_l1());
        prop_assert!(p.norm_l1() <= 2 * p.norm_max());
    }

    #[test]
    fn step_changes_l1_by_one(p in point(), dir_idx in 0usize..4) {
        let d = Direction::ALL[dir_idx];
        let q = p.step(d);
        prop_assert_eq!(p.dist_l1(&q), 1);
        prop_assert_eq!(q.step(d.opposite()), p);
    }

    #[test]
    fn rect_ball_area_formula(d in 0u64..500) {
        let r = Rect::ball(d);
        prop_assert_eq!(r.area(), (2 * d + 1) * (2 * d + 1));
    }

    #[test]
    fn targets_never_origin_and_in_region(seed in any::<u64>(), d in 1u64..100) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        for t in [
            TargetPlacement::Corner { distance: d },
            TargetPlacement::UniformInBall { distance: d },
            TargetPlacement::Ring { distance: d },
        ] {
            let p = t.place(&mut rng);
            prop_assert_ne!(p, Point::ORIGIN);
            prop_assert!(t.region().contains(&p));
            prop_assert!(p.norm_max() <= t.max_distance());
        }
    }

    #[test]
    fn ring_targets_exactly_at_distance(seed in any::<u64>(), d in 1u64..100) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let p = TargetPlacement::Ring { distance: d }.place(&mut rng);
        prop_assert_eq!(p.norm_max(), d);
    }
}
