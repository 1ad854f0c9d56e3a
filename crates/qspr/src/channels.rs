//! Channel occupancy tracking: the congestion the router actually pays.
//!
//! Each routing channel can carry `N_c` qubits concurrently (the paper's
//! channel capacity); a traversal occupies one slot for `T_move`. A qubit
//! arriving at a saturated channel waits for the earliest slot — the FCFS
//! pipeline behaviour the paper abstracts as an M/M/1 queue (Fig. 5).

use leqa_fabric::{Channel, ChannelId, FabricDims, FabricMap, Micros};

/// Per-channel slot layout for heterogeneous fabrics: overlay-driven
/// capacity and `T_move` overrides from a
/// [`FabricMap`](leqa_fabric::FabricMap). Absent (the common case), every
/// channel shares the uniform `capacity`/`t_move` and the flat slot
/// arithmetic below stays bit-identical to the pre-overlay code.
#[derive(Debug, Clone)]
struct Hetero {
    /// `n + 1` prefix sums: channel `i` owns slots
    /// `offsets[i]..offsets[i+1]` of `free_at`.
    offsets: Vec<usize>,
    /// Effective traversal time per channel, in µs.
    t_moves: Vec<f64>,
}

/// Occupancy calendars for every channel of a fabric.
///
/// # Examples
///
/// ```
/// use leqa_fabric::{Channel, FabricDims, Micros, Ulb};
/// use qspr::channels::ChannelOccupancy;
///
/// # fn main() -> Result<(), leqa_fabric::FabricError> {
/// let dims = FabricDims::new(4, 4)?;
/// let mut occ = ChannelOccupancy::new(dims, 1, Micros::new(100.0));
/// let ch = Channel::between(Ulb::new(0, 0), Ulb::new(1, 0))?;
///
/// // First qubit passes immediately; the second queues behind it.
/// assert_eq!(occ.traverse(ch, Micros::ZERO), Micros::new(100.0));
/// assert_eq!(occ.traverse(ch, Micros::ZERO), Micros::new(200.0));
/// # Ok(())
/// # }
/// ```
/// Slot bookkeeping: each channel's `N_c` free-at times are kept as a
/// sorted rotating window (ascending from a per-channel head index), so the
/// earliest-free slot is an O(1) read at the head instead of a linear
/// min-scan, and the overwhelmingly common in-order booking is an O(1)
/// head rotation. Only the multiset of free-at times is observable, so this
/// is behaviour-identical (traces byte-identical) to the scan it replaced.
#[derive(Debug, Clone)]
pub struct ChannelOccupancy {
    dims: FabricDims,
    capacity: usize,
    t_move: Micros,
    /// Each channel's server-free times, flattened; a channel's window is
    /// sorted ascending from its `heads` index, wrapping at its end.
    free_at: Vec<f64>,
    /// Rotating index of the earliest-free slot per channel.
    heads: Vec<u32>,
    /// Per-channel traversal counts (the congestion heatmap).
    load: Vec<u64>,
    /// Total time spent queueing (beyond the raw hop time).
    congestion_wait: f64,
    /// Total traversals.
    traversals: u64,
    /// Per-channel capacity/`T_move` overrides; `None` = uniform fabric.
    hetero: Option<Hetero>,
}

impl ChannelOccupancy {
    /// Creates empty calendars for every channel of `dims`.
    pub fn new(dims: FabricDims, capacity: u32, t_move: Micros) -> Self {
        let n = ChannelId::count(dims);
        ChannelOccupancy {
            dims,
            capacity: capacity as usize,
            t_move,
            free_at: vec![0.0; n * capacity as usize],
            heads: vec![0; n],
            load: vec![0; n],
            congestion_wait: 0.0,
            traversals: 0,
            hetero: None,
        }
    }

    /// Like [`new`](Self::new), but honouring a fabric map's per-region
    /// channel-capacity / `T_move` overlays. With no overlays the layout
    /// (and every booking) is identical to the uniform constructor.
    pub fn new_with_map(dims: FabricDims, capacity: u32, t_move: Micros, map: &FabricMap) -> Self {
        let mut occ = ChannelOccupancy::new(dims, capacity, t_move);
        occ.apply_map(map);
        occ
    }

    /// Like [`reset`](Self::reset), but honouring a fabric map's overlays
    /// (see [`new_with_map`](Self::new_with_map)).
    pub fn reset_with_map(
        &mut self,
        dims: FabricDims,
        capacity: u32,
        t_move: Micros,
        map: &FabricMap,
    ) {
        self.reset(dims, capacity, t_move);
        self.apply_map(map);
    }

    /// Builds the heterogeneous slot layout from `map`'s overlays. Dead
    /// channels keep (at least one) slot so the arithmetic stays total —
    /// the router never books them, so their calendars stay empty.
    fn apply_map(&mut self, map: &FabricMap) {
        if map.overlays().is_empty() {
            return; // uniform layout already in place
        }
        let n = ChannelId::count(self.dims);
        let base_cap = self.capacity as u32;
        let base_t = self.t_move.as_f64();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut t_moves = Vec::with_capacity(n);
        let mut total = 0usize;
        offsets.push(0);
        for channel in map.channels() {
            total += map.channel_capacity_at(channel, base_cap).max(1) as usize;
            offsets.push(total);
            t_moves.push(map.channel_t_move_at(channel, base_t));
        }
        self.free_at.clear();
        self.free_at.resize(total, 0.0);
        self.hetero = Some(Hetero { offsets, t_moves });
    }

    /// The `free_at` range and traversal time of channel `id`.
    #[inline]
    fn slots_of(&self, id: usize) -> (usize, usize, f64) {
        match &self.hetero {
            Some(h) => (h.offsets[id], h.offsets[id + 1], h.t_moves[id]),
            None => (
                id * self.capacity,
                (id + 1) * self.capacity,
                self.t_move.as_f64(),
            ),
        }
    }

    /// Re-initializes the tracker for a fresh mapping run, reusing the
    /// slot/head/load allocations whenever the new fabric needs no more
    /// room — the zero-alloc path for repeated `map` calls.
    ///
    /// Equivalent to `*self = ChannelOccupancy::new(dims, capacity,
    /// t_move)` except for allocator traffic.
    pub fn reset(&mut self, dims: FabricDims, capacity: u32, t_move: Micros) {
        let n = ChannelId::count(dims);
        self.dims = dims;
        self.capacity = capacity as usize;
        self.t_move = t_move;
        self.free_at.clear();
        self.free_at.resize(n * capacity as usize, 0.0);
        self.heads.clear();
        self.heads.resize(n, 0);
        self.load.clear();
        self.load.resize(n, 0);
        self.congestion_wait = 0.0;
        self.traversals = 0;
        self.hetero = None;
    }

    /// Sends a qubit through `channel` starting no earlier than `at`;
    /// returns the time it emerges on the far side.
    ///
    /// The qubit takes the earliest-free of the channel's `N_c` slots
    /// (FCFS), waiting if all are busy.
    pub fn traverse(&mut self, channel: Channel, at: Micros) -> Micros {
        Micros::new(self.book(channel.id(self.dims), at.as_f64()))
    }

    /// [`traverse`](Self::traverse) by dense channel id, in µs: the
    /// booking the mapper's transfer kernel runs once per hop.
    pub(crate) fn book(&mut self, id: ChannelId, at: f64) -> f64 {
        let id = id.0;
        let (lo, hi, t_move) = self.slots_of(id);
        let cap = hi - lo;
        let slots = &mut self.free_at[lo..hi];
        let head = self.heads[id] as usize;

        let start = at.max(slots[head]);
        let end = start + t_move;

        // Rebook the head slot at `end` and rotate: the remaining window
        // (head+1 .. head+cap−1, wrapping) is already sorted, and `end`
        // usually belongs after all of it (service time is constant), so
        // the write lands in place. A late straggler bubbles backwards, one
        // wrapping step at a time, at most `cap − 1` steps.
        slots[head] = end;
        let next = head + 1;
        self.heads[id] = if next == cap { 0 } else { next as u32 };
        let mut cur = head;
        for _ in 1..cap {
            let prev = if cur == 0 { cap - 1 } else { cur - 1 };
            if slots[prev] > slots[cur] {
                slots.swap(prev, cur);
                cur = prev;
            } else {
                break;
            }
        }

        self.load[id] += 1;
        self.congestion_wait += start - at;
        self.traversals += 1;
        end
    }

    /// The queue-free time of a route, in µs: the sum of its channels'
    /// `T_move`, or `hops × T_move` on a uniform fabric.
    pub(crate) fn transit(&self, route: impl ExactSizeIterator<Item = ChannelId>) -> f64 {
        match &self.hetero {
            Some(h) => route.map(|id| h.t_moves[id.0]).sum(),
            None => route.len() as f64 * self.t_move.as_f64(),
        }
    }

    /// Total time qubits spent waiting for channel slots.
    pub fn congestion_wait(&self) -> Micros {
        Micros::new(self.congestion_wait)
    }

    /// Total channel traversals (one per hop).
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    /// Per-channel traversal counts, indexed by
    /// [`ChannelId`] — the congestion heatmap.
    pub fn load(&self) -> &[u64] {
        &self.load
    }

    /// Consumes the tracker, returning the heatmap.
    pub fn into_load(self) -> Vec<u64> {
        self.load
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_fabric::Ulb;

    fn setup(capacity: u32) -> (ChannelOccupancy, Channel) {
        let dims = FabricDims::new(4, 4).unwrap();
        let occ = ChannelOccupancy::new(dims, capacity, Micros::new(100.0));
        let ch = Channel::between(Ulb::new(1, 1), Ulb::new(2, 1)).unwrap();
        (occ, ch)
    }

    #[test]
    fn uncongested_traversal_takes_t_move() {
        let (mut occ, ch) = setup(5);
        assert_eq!(occ.traverse(ch, Micros::new(50.0)), Micros::new(150.0));
        assert_eq!(occ.congestion_wait(), Micros::ZERO);
    }

    #[test]
    fn capacity_admits_concurrency() {
        let (mut occ, ch) = setup(3);
        for _ in 0..3 {
            assert_eq!(occ.traverse(ch, Micros::ZERO), Micros::new(100.0));
        }
        // The fourth concurrent qubit queues.
        assert_eq!(occ.traverse(ch, Micros::ZERO), Micros::new(200.0));
        assert_eq!(occ.congestion_wait(), Micros::new(100.0));
    }

    #[test]
    fn queue_drains_in_fcfs_order() {
        let (mut occ, ch) = setup(1);
        let a = occ.traverse(ch, Micros::ZERO);
        let b = occ.traverse(ch, Micros::ZERO);
        let c = occ.traverse(ch, Micros::ZERO);
        assert!(a < b && b < c);
        assert_eq!(c, Micros::new(300.0));
    }

    #[test]
    fn distinct_channels_do_not_interfere() {
        let dims = FabricDims::new(4, 4).unwrap();
        let mut occ = ChannelOccupancy::new(dims, 1, Micros::new(100.0));
        let ch1 = Channel::between(Ulb::new(0, 0), Ulb::new(1, 0)).unwrap();
        let ch2 = Channel::between(Ulb::new(0, 0), Ulb::new(0, 1)).unwrap();
        assert_eq!(occ.traverse(ch1, Micros::ZERO), Micros::new(100.0));
        assert_eq!(occ.traverse(ch2, Micros::ZERO), Micros::new(100.0));
    }

    #[test]
    fn traversal_counter() {
        let (mut occ, ch) = setup(2);
        for _ in 0..5 {
            occ.traverse(ch, Micros::ZERO);
        }
        assert_eq!(occ.traversals(), 5);
    }

    #[test]
    fn reset_is_equivalent_to_new() {
        let dims = FabricDims::new(4, 4).unwrap();
        let other_dims = FabricDims::new(6, 3).unwrap();
        let ch = Channel::between(Ulb::new(1, 1), Ulb::new(2, 1)).unwrap();
        let mut reused = ChannelOccupancy::new(dims, 3, Micros::new(50.0));
        for _ in 0..7 {
            reused.traverse(ch, Micros::ZERO);
        }
        // Reset across a different shape and capacity, then replay a
        // booking pattern against a fresh tracker.
        reused.reset(other_dims, 2, Micros::new(100.0));
        let mut fresh = ChannelOccupancy::new(other_dims, 2, Micros::new(100.0));
        let ch2 = Channel::between(Ulb::new(4, 1), Ulb::new(5, 1)).unwrap();
        for &at in &[0.0, 0.0, 0.0, 250.0, 10.0] {
            assert_eq!(
                reused.traverse(ch2, Micros::new(at)),
                fresh.traverse(ch2, Micros::new(at))
            );
        }
        assert_eq!(reused.congestion_wait(), fresh.congestion_wait());
        assert_eq!(reused.traversals(), fresh.traversals());
        assert_eq!(reused.load(), fresh.load());
    }

    #[test]
    fn late_arrival_does_not_wait() {
        let (mut occ, ch) = setup(1);
        occ.traverse(ch, Micros::ZERO); // busy until 100
                                        // Arriving at 500 finds the channel idle.
        assert_eq!(occ.traverse(ch, Micros::new(500.0)), Micros::new(600.0));
        assert_eq!(occ.congestion_wait(), Micros::ZERO);
    }

    /// Reference implementation of one booking: linear min-scan over a
    /// plain slot array (what `traverse` used before the rotating window).
    fn reference_traverse(slots: &mut [f64], at: f64, t_move: f64) -> f64 {
        let (best, _) = slots
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("capacity >= 1");
        let start = at.max(slots[best]);
        let end = start + t_move;
        slots[best] = end;
        end
    }

    #[test]
    fn rotating_window_matches_min_scan_reference() {
        // Deliberately non-monotone arrival times (late stragglers, idle
        // gaps, bursts) across several capacities: the rotating window must
        // produce the same booking times as the min-scan it replaced.
        for capacity in [1u32, 2, 3, 5, 8] {
            let dims = FabricDims::new(4, 4).unwrap();
            let mut occ = ChannelOccupancy::new(dims, capacity, Micros::new(100.0));
            let ch = Channel::between(Ulb::new(1, 1), Ulb::new(2, 1)).unwrap();
            let mut reference = vec![0.0f64; capacity as usize];
            let arrivals = [
                0.0, 0.0, 950.0, 10.0, 0.0, 2500.0, 30.0, 30.0, 30.0, 1200.0, 5.0, 42.0, 0.0,
                9999.0, 77.0, 77.0,
            ];
            for &at in &arrivals {
                let got = occ.traverse(ch, Micros::new(at));
                let want = reference_traverse(&mut reference, at, 100.0);
                assert_eq!(got, Micros::new(want), "capacity {capacity}, at {at}");
                // The head must keep pointing at the earliest-free slot.
                let min = reference.iter().cloned().fold(f64::INFINITY, f64::min);
                assert_eq!(occ.peek_wait(ch, Micros::ZERO), Micros::new(min.max(0.0)));
            }
        }
    }

    #[test]
    fn rotating_window_matches_min_scan_reference_on_overlay_layout() {
        // Base capacity 3; one overlay narrows a region to 1 slot and slows
        // it, another widens a region to 5 slots: per-channel windows of
        // three sizes side by side in one `free_at`.
        let dims = FabricDims::new(5, 4).unwrap();
        let mut map = FabricMap::pristine(dims);
        for (x0, x1, t_move_us, capacity) in [(0, 1, Some(250.0), 1), (3, 4, None, 5)] {
            map.push_overlay(leqa_fabric::RegionOverlay {
                x0,
                y0: 0,
                x1,
                y1: 3,
                t_move_us,
                qubit_speed: None,
                channel_capacity: Some(capacity),
            })
            .unwrap();
        }
        let mut occ = ChannelOccupancy::new_with_map(dims, 3, Micros::new(100.0), &map);
        let channels: Vec<Channel> = map.channels().collect();
        let mut reference: Vec<Vec<f64>> = channels
            .iter()
            .map(|&ch| vec![0.0; map.channel_capacity_at(ch, 3) as usize])
            .collect();
        let widths: Vec<usize> = reference.iter().map(Vec::len).collect();
        assert!(widths.contains(&1) && widths.contains(&3) && widths.contains(&5));

        let arrivals = [
            0.0, 0.0, 950.0, 10.0, 0.0, 2500.0, 30.0, 30.0, 30.0, 1200.0, 5.0, 42.0, 0.0, 9999.0,
            77.0, 77.0, 0.0, 0.0, 0.0, 640.0,
        ];
        // Every channel sees every arrival, interleaved across channels.
        for &at in &arrivals {
            for (i, &ch) in channels.iter().enumerate() {
                let t_move = map.channel_t_move_at(ch, 100.0);
                let got = occ.traverse(ch, Micros::new(at));
                let want = reference_traverse(&mut reference[i], at, t_move);
                assert_eq!(got, Micros::new(want), "channel {ch}, at {at}");
                let min = reference[i].iter().cloned().fold(f64::INFINITY, f64::min);
                assert_eq!(occ.peek_wait(ch, Micros::ZERO), Micros::new(min.max(0.0)));
            }
        }
        assert_eq!(occ.traversals(), (arrivals.len() * channels.len()) as u64);
    }
}

impl ChannelOccupancy {
    /// Estimated queueing wait if a qubit entered `channel` at `at`, in
    /// µs, without booking anything — the adaptive router's probe.
    ///
    /// O(1): the rotating window keeps the earliest-free slot at the head.
    pub fn peek_wait(&self, channel: Channel, at: Micros) -> Micros {
        Micros::new(self.peek(channel.id(self.dims), at.as_f64()))
    }

    /// [`peek_wait`](Self::peek_wait) by dense channel id, in µs.
    pub(crate) fn peek(&self, id: ChannelId, at: f64) -> f64 {
        let (lo, _, _) = self.slots_of(id.0);
        let earliest = self.free_at[lo + self.heads[id.0] as usize];
        (earliest - at).max(0.0)
    }
}

#[cfg(test)]
mod peek_tests {
    use super::*;
    use leqa_fabric::Ulb;

    #[test]
    fn peek_matches_traverse_wait() {
        let dims = FabricDims::new(4, 4).unwrap();
        let mut occ = ChannelOccupancy::new(dims, 1, Micros::new(100.0));
        let ch = Channel::between(Ulb::new(0, 0), Ulb::new(1, 0)).unwrap();
        assert_eq!(occ.peek_wait(ch, Micros::ZERO), Micros::ZERO);
        occ.traverse(ch, Micros::ZERO); // busy until 100
        assert_eq!(occ.peek_wait(ch, Micros::ZERO), Micros::new(100.0));
        assert_eq!(occ.peek_wait(ch, Micros::new(40.0)), Micros::new(60.0));
        assert_eq!(occ.peek_wait(ch, Micros::new(500.0)), Micros::ZERO);
    }

    #[test]
    fn hetero_overlay_changes_capacity_and_t_move() {
        let dims = FabricDims::new(4, 4).unwrap();
        let mut map = FabricMap::pristine(dims);
        // The left half is a slow, narrow region: one slot, 250 µs hops.
        map.push_overlay(leqa_fabric::RegionOverlay {
            x0: 0,
            y0: 0,
            x1: 1,
            y1: 3,
            t_move_us: Some(250.0),
            qubit_speed: None,
            channel_capacity: Some(1),
        })
        .unwrap();
        let mut occ = ChannelOccupancy::new_with_map(dims, 3, Micros::new(100.0), &map);

        // Channel (0,0)->(1,0): origin inside the overlay.
        let slow = Channel::between(Ulb::new(0, 0), Ulb::new(1, 0)).unwrap();
        assert_eq!(occ.traverse(slow, Micros::ZERO), Micros::new(250.0));
        // Capacity 1 ⇒ the second qubit queues.
        assert_eq!(occ.traverse(slow, Micros::ZERO), Micros::new(500.0));

        // Channel (2,0)->(3,0): outside ⇒ base capacity 3, base 100 µs.
        let fast = Channel::between(Ulb::new(2, 0), Ulb::new(3, 0)).unwrap();
        for _ in 0..3 {
            assert_eq!(occ.traverse(fast, Micros::ZERO), Micros::new(100.0));
        }
        assert_eq!(occ.traverse(fast, Micros::ZERO), Micros::new(200.0));
    }

    #[test]
    fn overlay_free_map_is_bit_identical_to_uniform() {
        let dims = FabricDims::new(5, 3).unwrap();
        let mut map = FabricMap::pristine(dims);
        map.disable_cell(Ulb::new(4, 2)).unwrap(); // defects alone change nothing here
        let mut plain = ChannelOccupancy::new(dims, 2, Micros::new(100.0));
        let mut mapped = ChannelOccupancy::new_with_map(dims, 2, Micros::new(100.0), &map);
        let ch = Channel::between(Ulb::new(1, 1), Ulb::new(2, 1)).unwrap();
        for &at in &[0.0, 0.0, 35.0, 0.0, 900.0] {
            assert_eq!(
                plain.traverse(ch, Micros::new(at)),
                mapped.traverse(ch, Micros::new(at))
            );
        }
        assert_eq!(plain.congestion_wait(), mapped.congestion_wait());
        assert_eq!(plain.load(), mapped.load());
    }

    #[test]
    fn reset_with_map_matches_new_with_map() {
        let dims = FabricDims::new(4, 4).unwrap();
        let mut map = FabricMap::pristine(dims);
        map.push_overlay(leqa_fabric::RegionOverlay {
            x0: 0,
            y0: 0,
            x1: 3,
            y1: 1,
            t_move_us: None,
            qubit_speed: None,
            channel_capacity: Some(2),
        })
        .unwrap();
        let mut reused = ChannelOccupancy::new(dims, 5, Micros::new(100.0));
        let ch = Channel::between(Ulb::new(0, 0), Ulb::new(1, 0)).unwrap();
        for _ in 0..4 {
            reused.traverse(ch, Micros::ZERO);
        }
        reused.reset_with_map(dims, 5, Micros::new(100.0), &map);
        let mut fresh = ChannelOccupancy::new_with_map(dims, 5, Micros::new(100.0), &map);
        for &at in &[0.0, 0.0, 0.0, 120.0] {
            assert_eq!(
                reused.traverse(ch, Micros::new(at)),
                fresh.traverse(ch, Micros::new(at))
            );
        }
        assert_eq!(reused.congestion_wait(), fresh.congestion_wait());
    }

    #[test]
    fn peek_does_not_book() {
        let dims = FabricDims::new(4, 4).unwrap();
        let occ = ChannelOccupancy::new(dims, 2, Micros::new(100.0));
        let ch = Channel::between(Ulb::new(1, 1), Ulb::new(1, 2)).unwrap();
        let before = occ.peek_wait(ch, Micros::ZERO);
        let _ = occ.peek_wait(ch, Micros::ZERO);
        assert_eq!(before, occ.peek_wait(ch, Micros::ZERO));
        assert_eq!(occ.traversals(), 0);
    }
}
