//! The ULB grid: dimensions, coordinates, distances and iteration.

use crate::FabricError;

/// Coordinate of a Universal Logic Block on the fabric, 0-based.
///
/// The paper indexes ULBs 1-based (`x ∈ [1, a]`, Eq. 5); this crate uses
/// 0-based coordinates internally and the LEQA coverage code performs the
/// 1-based summation itself, so no conversion leaks into user code.
///
/// # Examples
///
/// ```
/// use leqa_fabric::Ulb;
///
/// let u = Ulb::new(2, 3);
/// assert_eq!(u.manhattan_distance(Ulb::new(5, 1)), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ulb {
    /// Column, 0-based.
    pub x: u32,
    /// Row, 0-based.
    pub y: u32,
}

impl Ulb {
    /// Creates a ULB coordinate.
    #[inline]
    pub const fn new(x: u32, y: u32) -> Self {
        Ulb { x, y }
    }

    /// Manhattan (L1) distance to another ULB, in grid steps.
    ///
    /// One grid step corresponds to one routing-channel traversal, which the
    /// physical model charges `T_move` for.
    #[inline]
    pub fn manhattan_distance(self, other: Ulb) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// Whether `other` is one of the (at most four) grid neighbours.
    #[inline]
    pub fn is_adjacent(self, other: Ulb) -> bool {
        self.manhattan_distance(other) == 1
    }
}

impl std::fmt::Display for Ulb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Dimensions of the TQA: an `a × b` grid of 1×1 ULBs (so the fabric area
/// `A = a·b` equals the ULB count, Eq. 3).
///
/// # Examples
///
/// ```
/// use leqa_fabric::{FabricDims, Ulb};
///
/// # fn main() -> Result<(), leqa_fabric::FabricError> {
/// let dims = FabricDims::new(4, 3)?;
/// assert_eq!(dims.area(), 12);
/// assert!(dims.contains(Ulb::new(3, 2)));
/// assert!(!dims.contains(Ulb::new(4, 0)));
/// assert_eq!(dims.ulbs().count(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FabricDims {
    width: u32,
    height: u32,
}

impl FabricDims {
    /// Creates fabric dimensions of `width` (the paper's `a`) by `height`
    /// (the paper's `b`).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::ZeroDimension`] if either dimension is 0.
    pub fn new(width: u32, height: u32) -> Result<Self, FabricError> {
        if width == 0 || height == 0 {
            return Err(FabricError::ZeroDimension);
        }
        Ok(FabricDims { width, height })
    }

    /// The fabric used throughout the paper's evaluation: 60 × 60 = 3600 ULBs.
    pub fn dac13() -> Self {
        FabricDims {
            width: 60,
            height: 60,
        }
    }

    /// Grid width (the paper's `a`).
    #[inline]
    pub const fn width(self) -> u32 {
        self.width
    }

    /// Grid height (the paper's `b`).
    #[inline]
    pub const fn height(self) -> u32 {
        self.height
    }

    /// Total ULB count `A = a·b`.
    #[inline]
    pub const fn area(self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Whether a coordinate lies on the fabric.
    #[inline]
    pub fn contains(self, ulb: Ulb) -> bool {
        ulb.x < self.width && ulb.y < self.height
    }

    /// Checks a coordinate, returning it on success.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::OutOfBounds`] if the coordinate is off-fabric.
    pub fn check(self, ulb: Ulb) -> Result<Ulb, FabricError> {
        if self.contains(ulb) {
            Ok(ulb)
        } else {
            Err(FabricError::OutOfBounds {
                x: ulb.x,
                y: ulb.y,
                width: self.width,
                height: self.height,
            })
        }
    }

    /// Dense row-major index of a ULB (for flat occupancy vectors).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the ULB is off-fabric.
    #[inline]
    pub fn index_of(self, ulb: Ulb) -> usize {
        debug_assert!(self.contains(ulb));
        ulb.y as usize * self.width as usize + ulb.x as usize
    }

    /// Inverse of [`index_of`](Self::index_of).
    #[inline]
    pub fn ulb_at(self, index: usize) -> Ulb {
        Ulb::new(
            (index % self.width as usize) as u32,
            (index / self.width as usize) as u32,
        )
    }

    /// Iterates over every ULB in row-major order.
    pub fn ulbs(self) -> UlbIter {
        UlbIter {
            dims: self,
            next: 0,
        }
    }

    /// The (up to four) grid neighbours of a ULB, clipped to the fabric.
    pub fn neighbors(self, ulb: Ulb) -> impl Iterator<Item = Ulb> {
        let dims = self;
        let candidates = [
            (ulb.x.checked_sub(1), Some(ulb.y)),
            (ulb.x.checked_add(1), Some(ulb.y)),
            (Some(ulb.x), ulb.y.checked_sub(1)),
            (Some(ulb.x), ulb.y.checked_add(1)),
        ];
        candidates
            .into_iter()
            .filter_map(move |(x, y)| match (x, y) {
                (Some(x), Some(y)) if dims.contains(Ulb::new(x, y)) => Some(Ulb::new(x, y)),
                _ => None,
            })
    }

    /// Iterates over ULBs in order of increasing Manhattan distance from
    /// `center` (ring by ring), clipped to the fabric.
    ///
    /// Used by the detailed mapper to find the nearest free ULB for a
    /// one-qubit operation, the behaviour the paper's `L_g^avg = 2·T_move`
    /// empirical value abstracts.
    pub fn rings(self, center: Ulb) -> impl Iterator<Item = Ulb> {
        let dims = self;
        let max_radius = dims.width + dims.height;
        (0..=max_radius).flat_map(move |r| {
            ring_offsets(r).filter_map(move |(dx, dy)| {
                let x = center.x as i64 + dx;
                let y = center.y as i64 + dy;
                if x >= 0 && y >= 0 {
                    let u = Ulb::new(x as u32, y as u32);
                    dims.contains(u).then_some(u)
                } else {
                    None
                }
            })
        })
    }
}

/// Offsets at exactly Manhattan radius `r`, deterministic order.
fn ring_offsets(r: u32) -> impl Iterator<Item = (i64, i64)> {
    let r = r as i64;
    (0..(if r == 0 { 1 } else { 4 * r })).map(move |k| {
        if r == 0 {
            (0, 0)
        } else {
            // Walk the diamond perimeter: start at (r, 0), go counter-clockwise.
            let side = k / r;
            let step = k % r;
            match side {
                0 => (r - step, step),
                1 => (-step, r - step),
                2 => (step - r, -step),
                _ => (step, step - r),
            }
        }
    })
}

/// Iterator over the ULBs of a fabric in row-major order.
#[derive(Debug, Clone)]
pub struct UlbIter {
    dims: FabricDims,
    next: usize,
}

impl Iterator for UlbIter {
    type Item = Ulb;

    fn next(&mut self) -> Option<Ulb> {
        if (self.next as u64) < self.dims.area() {
            let u = self.dims.ulb_at(self.next);
            self.next += 1;
            Some(u)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = (self.dims.area() as usize).saturating_sub(self.next);
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for UlbIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dims() {
        assert_eq!(FabricDims::new(0, 5), Err(FabricError::ZeroDimension));
        assert_eq!(FabricDims::new(5, 0), Err(FabricError::ZeroDimension));
    }

    #[test]
    fn dac13_is_60_by_60() {
        let d = FabricDims::dac13();
        assert_eq!((d.width(), d.height()), (60, 60));
        assert_eq!(d.area(), 3600);
    }

    #[test]
    fn manhattan_distance_is_symmetric_and_zero_on_self() {
        let a = Ulb::new(1, 7);
        let b = Ulb::new(4, 2);
        assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        assert_eq!(a.manhattan_distance(a), 0);
        assert_eq!(a.manhattan_distance(b), 3 + 5);
    }

    #[test]
    fn index_roundtrip() {
        let d = FabricDims::new(7, 5).unwrap();
        for u in d.ulbs() {
            assert_eq!(d.ulb_at(d.index_of(u)), u);
        }
    }

    #[test]
    fn ulb_iteration_covers_fabric_once() {
        let d = FabricDims::new(4, 3).unwrap();
        let all: Vec<Ulb> = d.ulbs().collect();
        assert_eq!(all.len(), 12);
        assert_eq!(all[0], Ulb::new(0, 0));
        assert_eq!(all[11], Ulb::new(3, 2));
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 12);
    }

    #[test]
    fn neighbors_clip_to_fabric() {
        let d = FabricDims::new(3, 3).unwrap();
        let corner: Vec<Ulb> = d.neighbors(Ulb::new(0, 0)).collect();
        assert_eq!(corner.len(), 2);
        let center: Vec<Ulb> = d.neighbors(Ulb::new(1, 1)).collect();
        assert_eq!(center.len(), 4);
    }

    #[test]
    fn check_rejects_out_of_bounds() {
        let d = FabricDims::new(2, 2).unwrap();
        assert!(d.check(Ulb::new(1, 1)).is_ok());
        assert!(matches!(
            d.check(Ulb::new(2, 0)),
            Err(FabricError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn rings_enumerate_by_distance() {
        let d = FabricDims::new(9, 9).unwrap();
        let center = Ulb::new(4, 4);
        let ordered: Vec<Ulb> = d.rings(center).take(30).collect();
        // Distances must be non-decreasing.
        let dist: Vec<u32> = ordered
            .iter()
            .map(|u| u.manhattan_distance(center))
            .collect();
        assert!(dist.windows(2).all(|w| w[0] <= w[1]));
        // Radius-1 ring has 4 cells, radius-2 has 8.
        assert_eq!(dist.iter().filter(|&&x| x == 1).count(), 4);
        assert_eq!(dist.iter().filter(|&&x| x == 2).count(), 8);
    }

    #[test]
    fn rings_cover_whole_fabric_exactly_once() {
        let d = FabricDims::new(5, 4).unwrap();
        let mut seen: Vec<Ulb> = d.rings(Ulb::new(0, 0)).collect();
        assert_eq!(seen.len() as u64, d.area());
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len() as u64, d.area());
    }

    #[test]
    fn adjacency() {
        assert!(Ulb::new(1, 1).is_adjacent(Ulb::new(1, 2)));
        assert!(!Ulb::new(1, 1).is_adjacent(Ulb::new(2, 2)));
        assert!(!Ulb::new(1, 1).is_adjacent(Ulb::new(1, 1)));
    }
}
