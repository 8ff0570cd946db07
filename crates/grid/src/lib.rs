//! # ants-grid — the two-dimensional lattice substrate
//!
//! The ANTS problem (Lenzen, Lynch, Newport, Radeva; PODC 2014) is played on
//! the infinite grid `Z²`: `n` agents start at the origin and look for a
//! target at max-norm distance at most `D`. This crate is the geometry
//! substrate shared by every other crate in the workspace:
//!
//! * [`Point`] / [`Direction`] / [`Rect`] — coordinates, the four grid
//!   moves, and axis-aligned regions, with the paper's max-norm metric
//!   ([`Point::norm_max`]) as the primary distance;
//! * [`DenseGrid`] — bounded visit-count grids used for coverage
//!   measurements in the lower-bound experiments;
//! * [`TargetPlacement`] — the target models used by the experiments
//!   (fixed, adversarial corner, uniform in the `2D × 2D` square, ring);
//! * [`oracle`] — the model's return-to-origin oracle: a shortest grid path
//!   that hugs the straight segment back to the origin (Section 2 of the
//!   paper);
//! * [`render`] — ASCII heat-maps for the examples and for debugging.
//!
//! ## Example
//!
//! ```
//! use ants_grid::{Direction, Point};
//! let p = Point::ORIGIN.step(Direction::Up).step(Direction::Right);
//! assert_eq!(p, Point::new(1, 1));
//! assert_eq!(p.norm_max(), 1); // the paper measures distance in max-norm
//! assert_eq!(p.norm_l1(), 2); // hop distance
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
pub mod oracle;
mod point;
pub mod render;
mod target;

pub use dense::DenseGrid;
pub use point::{Direction, Point, Rect};
pub use target::TargetPlacement;
