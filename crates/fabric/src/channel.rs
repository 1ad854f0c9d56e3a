//! Routing channels between adjacent ULBs.
//!
//! The TQA separates ULBs by routing channels (Fig. 1); a logical qubit moving
//! from one ULB to an adjacent one traverses exactly one channel, taking
//! `T_move`. A channel is *uncongested* while at most `N_c` qubits occupy it
//! (§3.1); beyond that, qubits pipeline through it.

use crate::{FabricDims, FabricError, Ulb};

/// Orientation of a channel on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelOrientation {
    /// Connects `(x, y)` with `(x + 1, y)`.
    Horizontal,
    /// Connects `(x, y)` with `(x, y + 1)`.
    Vertical,
}

/// A routing channel between two adjacent ULBs, stored in normalized form
/// (the lexicographically smaller endpoint plus an orientation).
///
/// # Examples
///
/// ```
/// use leqa_fabric::{Channel, Ulb};
///
/// # fn main() -> Result<(), leqa_fabric::FabricError> {
/// let c = Channel::between(Ulb::new(2, 1), Ulb::new(1, 1))?;
/// assert_eq!(c, Channel::between(Ulb::new(1, 1), Ulb::new(2, 1))?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    origin: Ulb,
    orientation: ChannelOrientation,
}

impl Channel {
    /// The channel between two adjacent ULBs (in either order).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::NotAdjacent`] if the ULBs are not grid
    /// neighbours.
    pub fn between(a: Ulb, b: Ulb) -> Result<Self, FabricError> {
        if !a.is_adjacent(b) {
            return Err(FabricError::NotAdjacent);
        }
        let (origin, orientation) = if a.y == b.y {
            (Ulb::new(a.x.min(b.x), a.y), ChannelOrientation::Horizontal)
        } else {
            (Ulb::new(a.x, a.y.min(b.y)), ChannelOrientation::Vertical)
        };
        Ok(Channel {
            origin,
            orientation,
        })
    }

    /// The lexicographically smaller endpoint.
    #[inline]
    pub fn origin(self) -> Ulb {
        self.origin
    }

    /// The other endpoint.
    #[inline]
    pub fn far_end(self) -> Ulb {
        match self.orientation {
            ChannelOrientation::Horizontal => Ulb::new(self.origin.x + 1, self.origin.y),
            ChannelOrientation::Vertical => Ulb::new(self.origin.x, self.origin.y + 1),
        }
    }

    /// The channel's orientation.
    #[inline]
    pub fn orientation(self) -> ChannelOrientation {
        self.orientation
    }

    /// Dense index of this channel on a fabric, for flat occupancy vectors.
    ///
    /// Horizontal channels occupy indices `0 .. (a-1)·b`, vertical channels
    /// follow. See [`ChannelId::count`] for the total.
    pub fn id(self, dims: FabricDims) -> ChannelId {
        match self.orientation {
            ChannelOrientation::Horizontal => {
                debug_assert!(self.origin.x + 1 < dims.width());
                ChannelId::horizontal(dims, self.origin)
            }
            ChannelOrientation::Vertical => {
                debug_assert!(self.origin.y + 1 < dims.height());
                ChannelId::vertical(dims, self.origin)
            }
        }
    }
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}–{}", self.origin(), self.far_end())
    }
}

/// Dense index of a [`Channel`] on a specific fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub usize);

impl ChannelId {
    /// The horizontal channel whose left end is `origin`. Consecutive
    /// channels along a row have consecutive ids.
    #[inline]
    pub(crate) fn horizontal(dims: FabricDims, origin: Ulb) -> ChannelId {
        let a = dims.width() as usize;
        ChannelId(origin.y as usize * (a - 1) + origin.x as usize)
    }

    /// The vertical channel whose upper end is `origin`. Consecutive
    /// channels down a column are `width` ids apart.
    #[inline]
    pub(crate) fn vertical(dims: FabricDims, origin: Ulb) -> ChannelId {
        let a = dims.width() as usize;
        let b = dims.height() as usize;
        ChannelId((a - 1) * b + origin.y as usize * a + origin.x as usize)
    }

    /// Total number of channels on a fabric:
    /// `(a-1)·b` horizontal plus `a·(b-1)` vertical.
    pub fn count(dims: FabricDims) -> usize {
        let a = dims.width() as usize;
        let b = dims.height() as usize;
        (a - 1) * b + a * (b - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_is_order_independent() {
        let a = Ulb::new(3, 4);
        let b = Ulb::new(3, 5);
        assert_eq!(
            Channel::between(a, b).unwrap(),
            Channel::between(b, a).unwrap()
        );
    }

    #[test]
    fn rejects_non_adjacent() {
        assert_eq!(
            Channel::between(Ulb::new(0, 0), Ulb::new(1, 1)),
            Err(FabricError::NotAdjacent)
        );
        assert_eq!(
            Channel::between(Ulb::new(0, 0), Ulb::new(0, 0)),
            Err(FabricError::NotAdjacent)
        );
    }

    #[test]
    fn endpoints() {
        let c = Channel::between(Ulb::new(2, 2), Ulb::new(3, 2)).unwrap();
        assert_eq!(c.origin(), Ulb::new(2, 2));
        assert_eq!(c.far_end(), Ulb::new(3, 2));
        assert_eq!(c.orientation(), ChannelOrientation::Horizontal);
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let dims = FabricDims::new(5, 4).unwrap();
        let mut seen = vec![false; ChannelId::count(dims)];
        for u in dims.ulbs() {
            for n in dims.neighbors(u) {
                let id = Channel::between(u, n).unwrap().id(dims).0;
                assert!(id < seen.len(), "id {id} out of range");
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every id must be hit");
    }

    #[test]
    fn channel_count_formula() {
        let dims = FabricDims::new(3, 3).unwrap();
        // 2*3 horizontal + 3*2 vertical = 12
        assert_eq!(ChannelId::count(dims), 12);
    }
}
