//! Points, directions and rectangles on `Z²`.

use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A lattice point in `Z²`.
///
/// `i64` coordinates stand in for the paper's infinite grid: every
/// experiment in this workspace keeps agents within `O(D · polylog D)` of
/// the origin with `D ≤ 2^40`, so overflow is structurally impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Point {
    /// Horizontal coordinate (positive = right).
    pub x: i64,
    /// Vertical coordinate (positive = up).
    pub y: i64,
}

impl Point {
    /// The origin `(0, 0)` — where all agents start.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };

    /// Create a point.
    pub const fn new(x: i64, y: i64) -> Self {
        Self { x, y }
    }

    /// Max-norm (Chebyshev) distance from the origin — the paper's `D`.
    ///
    /// Section 2: "distance (measured in terms of the max-norm) … gives a
    /// constant-factor approximation of the actual hop distance."
    pub fn norm_max(&self) -> u64 {
        self.x.unsigned_abs().max(self.y.unsigned_abs())
    }

    /// L1 (Manhattan) norm — the exact hop distance from the origin.
    pub fn norm_l1(&self) -> u64 {
        self.x.unsigned_abs() + self.y.unsigned_abs()
    }

    /// Max-norm distance to another point.
    pub fn dist_max(&self, other: &Point) -> u64 {
        (*self - *other).norm_max()
    }

    /// L1 distance to another point.
    pub fn dist_l1(&self, other: &Point) -> u64 {
        (*self - *other).norm_l1()
    }

    /// The adjacent point one step in `dir`.
    pub fn step(&self, dir: Direction) -> Point {
        let (dx, dy) = dir.delta();
        Point::new(self.x + dx, self.y + dy)
    }

    /// Reflect through the origin.
    pub fn antipode(&self) -> Point {
        -*self
    }

    /// The four grid neighbours in [`Direction::ALL`] order.
    pub fn neighbors(&self) -> [Point; 4] {
        [
            self.step(Direction::Up),
            self.step(Direction::Down),
            self.step(Direction::Left),
            self.step(Direction::Right),
        ]
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// One of the four grid moves.
///
/// Matches the paper's labelling function range (minus `origin`/`none`,
/// which are *state* labels, not geometric moves — they live in
/// `ants-automaton`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// `y + 1`.
    Up,
    /// `y − 1`.
    Down,
    /// `x − 1`.
    Left,
    /// `x + 1`.
    Right,
}

impl Direction {
    /// All four directions, in declaration order.
    pub const ALL: [Direction; 4] =
        [Direction::Up, Direction::Down, Direction::Left, Direction::Right];

    /// The coordinate delta `(dx, dy)` of one step.
    pub fn delta(&self) -> (i64, i64) {
        match self {
            Direction::Up => (0, 1),
            Direction::Down => (0, -1),
            Direction::Left => (-1, 0),
            Direction::Right => (1, 0),
        }
    }

    /// The opposite direction.
    pub fn opposite(&self) -> Direction {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
            Direction::Left => Direction::Right,
            Direction::Right => Direction::Left,
        }
    }

    /// Is this a vertical move?
    pub fn is_vertical(&self) -> bool {
        matches!(self, Direction::Up | Direction::Down)
    }

    /// Index in `ALL` (stable; used by dense per-direction tallies).
    pub fn index(&self) -> usize {
        match self {
            Direction::Up => 0,
            Direction::Down => 1,
            Direction::Left => 2,
            Direction::Right => 3,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::Up => "up",
            Direction::Down => "down",
            Direction::Left => "left",
            Direction::Right => "right",
        };
        f.write_str(s)
    }
}

/// A closed axis-aligned rectangle `[x_min, x_max] × [y_min, y_max]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    x_min: i64,
    x_max: i64,
    y_min: i64,
    y_max: i64,
}

impl Rect {
    /// Create a rectangle from inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if `x_min > x_max` or `y_min > y_max`.
    pub fn new(x_min: i64, x_max: i64, y_min: i64, y_max: i64) -> Self {
        assert!(x_min <= x_max && y_min <= y_max, "degenerate rectangle bounds");
        Self { x_min, x_max, y_min, y_max }
    }

    /// The max-norm ball of radius `d` centred at the origin: the square
    /// `[-d, d]²` containing every candidate target at distance ≤ `d`.
    pub fn ball(d: u64) -> Self {
        let d = d as i64;
        Self::new(-d, d, -d, d)
    }

    /// Inclusive x-range.
    pub fn x_range(&self) -> (i64, i64) {
        (self.x_min, self.x_max)
    }

    /// Inclusive y-range.
    pub fn y_range(&self) -> (i64, i64) {
        (self.y_min, self.y_max)
    }

    /// Width (number of columns).
    pub fn width(&self) -> u64 {
        (self.x_max - self.x_min) as u64 + 1
    }

    /// Height (number of rows).
    pub fn height(&self) -> u64 {
        (self.y_max - self.y_min) as u64 + 1
    }

    /// Total number of lattice points.
    pub fn area(&self) -> u64 {
        self.width() * self.height()
    }

    /// Does the rectangle contain `p`?
    pub fn contains(&self, p: &Point) -> bool {
        (self.x_min..=self.x_max).contains(&p.x) && (self.y_min..=self.y_max).contains(&p.y)
    }

    /// Iterate over all lattice points, row-major from the bottom-left.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        let (x_min, x_max) = self.x_range();
        (self.y_min..=self.y_max).flat_map(move |y| (x_min..=x_max).map(move |x| Point::new(x, y)))
    }

    /// Clamp a point into the rectangle.
    pub fn clamp(&self, p: &Point) -> Point {
        Point::new(p.x.clamp(self.x_min, self.x_max), p.y.clamp(self.y_min, self.y_max))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}] x [{}, {}]", self.x_min, self.x_max, self.y_min, self.y_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        let p = Point::new(3, -4);
        assert_eq!(p.norm_max(), 4);
        assert_eq!(p.norm_l1(), 7);
        assert_eq!(Point::ORIGIN.norm_max(), 0);
    }

    #[test]
    fn max_norm_is_constant_factor_of_l1() {
        // Section 2's claim: max-norm approximates hop distance within 2x.
        for x in -10..=10i64 {
            for y in -10..=10i64 {
                let p = Point::new(x, y);
                assert!(p.norm_max() <= p.norm_l1());
                assert!(p.norm_l1() <= 2 * p.norm_max());
            }
        }
    }

    #[test]
    fn step_deltas() {
        assert_eq!(Point::ORIGIN.step(Direction::Up), Point::new(0, 1));
        assert_eq!(Point::ORIGIN.step(Direction::Down), Point::new(0, -1));
        assert_eq!(Point::ORIGIN.step(Direction::Left), Point::new(-1, 0));
        assert_eq!(Point::ORIGIN.step(Direction::Right), Point::new(1, 0));
    }

    #[test]
    fn step_then_opposite_roundtrips() {
        let p = Point::new(5, 7);
        for d in Direction::ALL {
            assert_eq!(p.step(d).step(d.opposite()), p);
        }
    }

    #[test]
    fn adjacency() {
        let p = Point::new(2, 2);
        for n in p.neighbors() {
            assert_eq!(p.dist_l1(&n), 1);
        }
        assert_ne!(p.dist_l1(&p), 1);
        assert_ne!(p.dist_l1(&Point::new(3, 3)), 1);
    }

    #[test]
    fn arithmetic() {
        let a = Point::new(1, 2);
        let b = Point::new(-3, 4);
        assert_eq!(a + b, Point::new(-2, 6));
        assert_eq!(a - b, Point::new(4, -2));
        assert_eq!(-a, Point::new(-1, -2));
        assert_eq!(a.antipode(), -a);
    }

    #[test]
    fn direction_indices_are_distinct() {
        let mut seen = [false; 4];
        for d in Direction::ALL {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
        }
    }

    #[test]
    fn rect_ball_contains_exactly_the_max_norm_ball() {
        let r = Rect::ball(3);
        for x in -5..=5i64 {
            for y in -5..=5i64 {
                let p = Point::new(x, y);
                assert_eq!(r.contains(&p), p.norm_max() <= 3, "{p}");
            }
        }
        assert_eq!(r.area(), 49);
    }

    #[test]
    fn rect_points_enumerates_area() {
        let r = Rect::new(-1, 1, 0, 2);
        let pts: Vec<Point> = r.points().collect();
        assert_eq!(pts.len() as u64, r.area());
        // All distinct:
        let set: std::collections::HashSet<_> = pts.iter().collect();
        assert_eq!(set.len(), pts.len());
        // All contained:
        assert!(pts.iter().all(|p| r.contains(p)));
    }

    #[test]
    fn rect_clamp() {
        let r = Rect::new(-2, 2, -2, 2);
        assert_eq!(r.clamp(&Point::new(10, -10)), Point::new(2, -2));
        assert_eq!(r.clamp(&Point::new(0, 1)), Point::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rect_rejects_inverted_bounds() {
        let _ = Rect::new(1, 0, 0, 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Point::new(1, -2).to_string(), "(1, -2)");
        assert_eq!(Direction::Up.to_string(), "up");
        assert_eq!(Rect::new(0, 1, 2, 3).to_string(), "[0, 1] x [2, 3]");
    }
}
