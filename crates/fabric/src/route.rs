//! Deterministic dimension-ordered (XY) routing on the ULB grid.
//!
//! The detailed mapper moves logical qubits along X-then-Y paths, one channel
//! traversal per grid step. XY routing is the routing discipline used by the
//! tile-based quantum microarchitectures the paper builds on (QLA-style
//! fabrics); it is deadlock-free and makes paths reproducible, which keeps the
//! ground-truth oracle deterministic.
//!
//! Routes come in two forms: as [`Channel`] lists ([`xy_channels`],
//! [`yx_channels`] and their `_into` forms), and as [`ChannelIds`] walks
//! ([`xy_channel_ids`], [`yx_channel_ids`]) that yield the dense ids of the
//! same channels by arithmetic and allocate nothing.

use crate::{Channel, ChannelId, FabricDims, Ulb};

/// The sequence of ULBs visited when moving from `from` to `to` with
/// X-then-Y routing, **excluding** `from`, **including** `to`.
///
/// An empty vector means the qubit is already at its destination.
///
/// # Examples
///
/// ```
/// use leqa_fabric::{route, Ulb};
///
/// let hops = route::xy_route(Ulb::new(0, 0), Ulb::new(2, 1));
/// assert_eq!(
///     hops,
///     vec![Ulb::new(1, 0), Ulb::new(2, 0), Ulb::new(2, 1)]
/// );
/// ```
pub fn xy_route(from: Ulb, to: Ulb) -> Vec<Ulb> {
    let mut hops = Vec::with_capacity(from.manhattan_distance(to) as usize);
    let mut cur = from;
    while cur.x != to.x {
        cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        hops.push(cur);
    }
    while cur.y != to.y {
        cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        hops.push(cur);
    }
    hops
}

/// The channels traversed by the XY route from `from` to `to`, in order.
///
/// # Examples
///
/// ```
/// use leqa_fabric::{route, Ulb};
///
/// let channels = route::xy_channels(Ulb::new(0, 0), Ulb::new(0, 2));
/// assert_eq!(channels.len(), 2);
/// ```
pub fn xy_channels(from: Ulb, to: Ulb) -> Vec<Channel> {
    let mut channels = Vec::with_capacity(from.manhattan_distance(to) as usize);
    xy_channels_into(from, to, &mut channels);
    channels
}

/// Fills `out` with the channels of the XY route from `from` to `to`, in
/// order, clearing it first — the allocation-free form of
/// [`xy_channels`] for hot loops that reuse one route buffer.
pub fn xy_channels_into(from: Ulb, to: Ulb, out: &mut Vec<Channel>) {
    out.clear();
    out.reserve(from.manhattan_distance(to) as usize);
    let mut prev = from;
    let mut cur = from;
    while cur.x != to.x {
        cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        out.push(Channel::between(prev, cur).expect("consecutive xy hops are adjacent"));
        prev = cur;
    }
    while cur.y != to.y {
        cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        out.push(Channel::between(prev, cur).expect("consecutive xy hops are adjacent"));
        prev = cur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_route_on_self() {
        assert!(xy_route(Ulb::new(3, 3), Ulb::new(3, 3)).is_empty());
        assert!(xy_channels(Ulb::new(3, 3), Ulb::new(3, 3)).is_empty());
    }

    #[test]
    fn route_goes_x_first() {
        let hops = xy_route(Ulb::new(2, 2), Ulb::new(0, 3));
        assert_eq!(hops, vec![Ulb::new(1, 2), Ulb::new(0, 2), Ulb::new(0, 3)]);
    }

    proptest! {
        #[test]
        fn route_length_equals_manhattan_distance(
            fx in 0u32..32, fy in 0u32..32, tx in 0u32..32, ty in 0u32..32
        ) {
            let from = Ulb::new(fx, fy);
            let to = Ulb::new(tx, ty);
            let hops = xy_route(from, to);
            prop_assert_eq!(hops.len() as u32, from.manhattan_distance(to));
            prop_assert_eq!(xy_channels(from, to).len(), hops.len());
        }

        #[test]
        fn route_ends_at_destination_and_steps_are_adjacent(
            fx in 0u32..32, fy in 0u32..32, tx in 0u32..32, ty in 0u32..32
        ) {
            let from = Ulb::new(fx, fy);
            let to = Ulb::new(tx, ty);
            let hops = xy_route(from, to);
            let mut prev = from;
            for &h in &hops {
                prop_assert!(prev.is_adjacent(h));
                prev = h;
            }
            prop_assert_eq!(prev, to);
        }
    }
}

/// The sequence of ULBs visited when moving from `from` to `to` with
/// Y-then-X routing, **excluding** `from`, **including** `to`.
///
/// The mirror discipline of [`xy_route`]; a router may pick per-transfer
/// between the two to dodge congestion (both are minimal and
/// deadlock-free when used consistently per message).
pub fn yx_route(from: Ulb, to: Ulb) -> Vec<Ulb> {
    let mut hops = Vec::with_capacity(from.manhattan_distance(to) as usize);
    let mut cur = from;
    while cur.y != to.y {
        cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        hops.push(cur);
    }
    while cur.x != to.x {
        cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        hops.push(cur);
    }
    hops
}

/// The channels traversed by the YX route from `from` to `to`, in order.
pub fn yx_channels(from: Ulb, to: Ulb) -> Vec<Channel> {
    let mut channels = Vec::with_capacity(from.manhattan_distance(to) as usize);
    yx_channels_into(from, to, &mut channels);
    channels
}

/// Fills `out` with the channels of the YX route from `from` to `to`, in
/// order, clearing it first — the allocation-free form of
/// [`yx_channels`].
pub fn yx_channels_into(from: Ulb, to: Ulb, out: &mut Vec<Channel>) {
    out.clear();
    out.reserve(from.manhattan_distance(to) as usize);
    let mut prev = from;
    let mut cur = from;
    while cur.y != to.y {
        cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        out.push(Channel::between(prev, cur).expect("consecutive yx hops are adjacent"));
        prev = cur;
    }
    while cur.x != to.x {
        cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        out.push(Channel::between(prev, cur).expect("consecutive yx hops are adjacent"));
        prev = cur;
    }
}

#[cfg(test)]
mod yx_tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn yx_goes_y_first() {
        let hops = yx_route(Ulb::new(2, 2), Ulb::new(0, 3));
        assert_eq!(hops, vec![Ulb::new(2, 3), Ulb::new(1, 3), Ulb::new(0, 3)]);
    }

    proptest! {
        #[test]
        fn yx_is_minimal_and_reaches_destination(
            fx in 0u32..32, fy in 0u32..32, tx in 0u32..32, ty in 0u32..32
        ) {
            let from = Ulb::new(fx, fy);
            let to = Ulb::new(tx, ty);
            let hops = yx_route(from, to);
            prop_assert_eq!(hops.len() as u32, from.manhattan_distance(to));
            prop_assert_eq!(hops.last().copied().unwrap_or(from), to);
            prop_assert_eq!(yx_channels(from, to).len(), hops.len());
        }

        #[test]
        fn xy_and_yx_use_the_same_channel_multiset_only_on_lines(
            fx in 0u32..16, fy in 0u32..16, t in 0u32..16
        ) {
            // On a straight line the two disciplines coincide.
            let from = Ulb::new(fx, fy);
            let to = Ulb::new(t, fy);
            prop_assert_eq!(xy_channels(from, to), yx_channels(from, to));
        }

        #[test]
        fn into_variants_match_and_clear_stale_contents(
            fx in 0u32..16, fy in 0u32..16, tx in 0u32..16, ty in 0u32..16
        ) {
            let from = Ulb::new(fx, fy);
            let to = Ulb::new(tx, ty);
            // Pre-soil the buffer: `_into` must clear before filling.
            let mut buf = xy_channels(Ulb::new(9, 9), Ulb::new(0, 0));
            xy_channels_into(from, to, &mut buf);
            prop_assert_eq!(&buf, &xy_channels(from, to));
            yx_channels_into(from, to, &mut buf);
            prop_assert_eq!(&buf, &yx_channels(from, to));
        }
    }
}

/// The dense ids of the channels of a dimension-ordered route, in travel
/// order, computed by arithmetic and without allocating.
///
/// A route is at most two straight legs. Along a row, consecutive
/// channel ids differ by 1; down a column, by the fabric's width. Built by
/// [`xy_channel_ids`] and [`yx_channel_ids`]; yields exactly the ids of
/// [`xy_channels`] / [`yx_channels`] mapped through [`Channel::id`].
#[derive(Debug, Clone)]
pub struct ChannelIds {
    legs: [Leg; 2],
}

/// One straight leg of a [`ChannelIds`] walk.
#[derive(Debug, Clone, Copy)]
struct Leg {
    /// Id of the next channel.
    next: usize,
    /// Id difference between consecutive channels, as a wrapping offset.
    step: usize,
    /// Channels still to yield.
    left: u32,
}

impl Leg {
    /// The channels along row `y` from column `x0` to column `x1`.
    fn row(dims: FabricDims, y: u32, x0: u32, x1: u32) -> Leg {
        let (first, step) = if x1 >= x0 {
            (x0, 1)
        } else {
            (x0 - 1, 1usize.wrapping_neg())
        };
        Leg {
            next: ChannelId::horizontal(dims, Ulb::new(first, y)).0,
            step,
            left: x0.abs_diff(x1),
        }
    }

    /// The channels down column `x` from row `y0` to row `y1`.
    fn column(dims: FabricDims, x: u32, y0: u32, y1: u32) -> Leg {
        let width = dims.width() as usize;
        let (first, step) = if y1 >= y0 {
            (y0, width)
        } else {
            (y0 - 1, width.wrapping_neg())
        };
        Leg {
            next: ChannelId::vertical(dims, Ulb::new(x, first)).0,
            step,
            left: y0.abs_diff(y1),
        }
    }
}

impl Iterator for ChannelIds {
    type Item = ChannelId;

    #[inline]
    fn next(&mut self) -> Option<ChannelId> {
        let leg = if self.legs[0].left > 0 {
            &mut self.legs[0]
        } else if self.legs[1].left > 0 {
            &mut self.legs[1]
        } else {
            return None;
        };
        let id = leg.next;
        leg.next = id.wrapping_add(leg.step);
        leg.left -= 1;
        Some(ChannelId(id))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.legs[0].left + self.legs[1].left) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ChannelIds {}

/// The channel ids of the XY route from `from` to `to` on `dims`, in
/// order: the id form of [`xy_channels`].
///
/// # Examples
///
/// ```
/// use leqa_fabric::{route, FabricDims, Ulb};
///
/// # fn main() -> Result<(), leqa_fabric::FabricError> {
/// let dims = FabricDims::new(4, 4)?;
/// let (from, to) = (Ulb::new(3, 0), Ulb::new(1, 2));
/// let ids: Vec<_> = route::xy_channel_ids(dims, from, to).collect();
/// let channels: Vec<_> = route::xy_channels(from, to)
///     .into_iter()
///     .map(|c| c.id(dims))
///     .collect();
/// assert_eq!(ids, channels);
/// # Ok(())
/// # }
/// ```
pub fn xy_channel_ids(dims: FabricDims, from: Ulb, to: Ulb) -> ChannelIds {
    ChannelIds {
        legs: [
            Leg::row(dims, from.y, from.x, to.x),
            Leg::column(dims, to.x, from.y, to.y),
        ],
    }
}

/// The channel ids of the YX route from `from` to `to` on `dims`, in
/// order: the id form of [`yx_channels`].
pub fn yx_channel_ids(dims: FabricDims, from: Ulb, to: Ulb) -> ChannelIds {
    ChannelIds {
        legs: [
            Leg::column(dims, from.x, from.y, to.y),
            Leg::row(dims, to.y, from.x, to.x),
        ],
    }
}

#[cfg(test)]
mod id_walk_tests {
    use super::*;
    use proptest::prelude::*;

    fn ids_of(channels: Vec<Channel>, dims: FabricDims) -> Vec<ChannelId> {
        channels.into_iter().map(|c| c.id(dims)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn id_walks_equal_channel_routes_mapped_through_id(
            w in 1u32..40, h in 1u32..40,
            fx in 0u32..1000, fy in 0u32..1000, tx in 0u32..1000, ty in 0u32..1000
        ) {
            let dims = FabricDims::new(w, h).unwrap();
            let from = Ulb::new(fx % w, fy % h);
            let to = Ulb::new(tx % w, ty % h);
            let xy = xy_channel_ids(dims, from, to);
            prop_assert_eq!(xy.len() as u32, from.manhattan_distance(to));
            prop_assert_eq!(xy.collect::<Vec<_>>(), ids_of(xy_channels(from, to), dims));
            let yx = yx_channel_ids(dims, from, to);
            prop_assert_eq!(yx.len() as u32, from.manhattan_distance(to));
            prop_assert_eq!(yx.collect::<Vec<_>>(), ids_of(yx_channels(from, to), dims));
        }
    }
}
