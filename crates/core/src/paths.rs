//! The path table: the censuses of routing-aware critical paths
//! (Algorithm 1 line 19) resolved against one program, kept with its
//! [`ProfileData`](crate::ProfileData) for every later query.
//!
//! Eq. 1 reads only the critical path's op census, and the census fixes
//! the path's length line `a + n_CNOT · x` in `x = L_CNOT^avg`, the one
//! scalar through which the critical-path pass depends on the fabric. In
//! exact arithmetic the longest-path length is the upper envelope of
//! these lines, convex and piecewise linear in `x`, so if full passes at
//! two values select the same census, that census is optimal on the whole
//! interval between them.
//!
//! [`PathTable`] keeps, per delay model ([`DelayKey`]), the resolved
//! values as **points** `(x, census)`, ascending, and the distinct
//! censuses they hold. [`PathTable::resolve`] answers a set of values
//! (one for an estimate, `N` for a sweep): an exact point is a hit; a
//! value between two points with one census takes that census, unless a
//! known rival census comes within the [`Work::reusable`] guard; any
//! other value takes a full pass, bisecting unresolved runs. A full pass
//! is the argmax walk, which counts the census on its way back and names
//! no node. Every answer is the census a full pass at that value selects
//! (`tests/differential.rs` pins each estimate against a fresh one across
//! the workload suite, warm tables included), and every answer is
//! recorded.
//!
//! A census's length at `x` is its line ([`OpDelays::line`]), computed
//! where the estimate is assembled, so a point stores no length. Node
//! paths that share a census (exact ties that rounding breaks) are one
//! census to the table, never rivals.
//!
//! The table is bounded by a constant, [`MAX_POINTS`] points per program.
//! At the bound the query still gets its full pass, and nothing is
//! recorded.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use leqa_circuit::{CriticalPathScratch, Qodg};
use leqa_fabric::{Micros, PhysicalParams};

use crate::estimator::{routing_aware_critical_path, Census, OpDelays};
use crate::EstimatorOptions;

/// Resolved points kept per program, over every delay model.
const MAX_POINTS: usize = 4096;

/// The resolved critical-path censuses of one program. A cache: it starts
/// empty in a clone, compares equal to any other table, and is never
/// persisted.
///
/// The lock is held for lookups and inserts only, never across a full
/// pass. Two callers racing on one miss both walk, and both record the
/// same census.
#[derive(Default)]
pub(crate) struct PathTable {
    state: Mutex<TableState>,
    passes: AtomicU64,
}

#[derive(Default)]
struct TableState {
    /// Node count of the QODG the table was filled against (0 until the
    /// first record); a QODG of another size bypasses the table.
    nodes: usize,
    /// Points held, over every model.
    points: usize,
    models: Vec<Regimes>,
}

/// What the table knows under one delay model.
struct Regimes {
    key: DelayKey,
    /// The distinct censuses of `points`.
    censuses: Vec<Census>,
    /// Ascending by `x` (total order), unique.
    points: Vec<(f64, Census)>,
}

/// Everything besides `L_CNOT^avg` that shapes the pass's node delays:
/// the delays at `L_CNOT^avg = 0` (gate times, plus `l_one` = 2·`T_move`
/// after any fabric-map correction when routing is in) and whether
/// routing enters the delays at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DelayKey {
    bits: [u64; 9],
    routing: bool,
}

impl DelayKey {
    fn new(params: &PhysicalParams, options: &EstimatorOptions) -> DelayKey {
        DelayKey {
            bits: OpDelays::new(params, options, Micros::ZERO).bits(),
            routing: options.update_critical_path,
        }
    }
}

impl PathTable {
    /// Full critical-path passes run against this table.
    pub(crate) fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// The census of the routing-aware critical path of `qodg` at each
    /// `L_CNOT^avg` in `xs`, in order: the census a full pass at that
    /// value selects.
    pub(crate) fn resolve(
        &self,
        qodg: &Qodg,
        params: &PhysicalParams,
        options: &EstimatorOptions,
        xs: &[Micros],
    ) -> Vec<Census> {
        // Ablation mode: node delays ignore routing, so the pass does not
        // depend on L_CNOT^avg and one point serves every value.
        let point_of = |x: Micros| {
            if options.update_critical_path {
                x.as_f64()
            } else {
                0.0
            }
        };
        let nodes = qodg.node_count();
        let mut queries: Vec<f64> = xs.iter().map(|&x| point_of(x)).collect();
        queries.sort_by(f64::total_cmp);
        queries.dedup_by(|a, b| a.total_cmp(b).is_eq());
        let mut work = Work {
            entries: queries
                .into_iter()
                .map(|x| Entry {
                    x,
                    census: None,
                    learned: false,
                })
                .collect(),
            censuses: Vec::new(),
            qodg,
            params,
            options,
            passes: &self.passes,
            scratch: CriticalPathScratch::new(),
        };
        let key = DelayKey::new(params, options);
        self.snapshot(key, nodes, &mut work);
        work.fill();
        self.record(key, nodes, &work);
        xs.iter().map(|&x| work.census_at(point_of(x))).collect()
    }

    fn lock(&self) -> MutexGuard<'_, TableState> {
        // Every update leaves the table valid (a count is bumped before
        // the push it covers, so at worst it over-counts), so a guard
        // poisoned by a panicking caller is safe to take over.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Seeds `work` under the lock: resolves its exact points, adds the
    /// table points bracketing each other value as anchors, and takes the
    /// model's censuses.
    fn snapshot(&self, key: DelayKey, nodes: usize, work: &mut Work<'_>) {
        if work.entries.is_empty() {
            return;
        }
        let state = self.lock();
        if state.nodes != 0 && state.nodes != nodes {
            return;
        }
        let Some(model) = state.models.iter().find(|m| m.key == key) else {
            return;
        };
        work.censuses.clone_from(&model.censuses);
        let anchor = |&(x, census): &(f64, Census)| Entry {
            x,
            census: Some(census),
            learned: false,
        };
        let mut anchors = Vec::new();
        for entry in &mut work.entries {
            match model.points.binary_search_by(|p| p.0.total_cmp(&entry.x)) {
                Ok(i) => entry.census = Some(model.points[i].1),
                Err(i) => {
                    anchors.extend(i.checked_sub(1).map(|i| anchor(&model.points[i])));
                    anchors.extend(model.points.get(i).map(anchor));
                }
            }
        }
        drop(state);
        work.entries.extend(anchors);
        work.entries.sort_by(|a, b| a.x.total_cmp(&b.x));
        work.entries.dedup_by(|a, b| a.x.total_cmp(&b.x).is_eq());
    }

    /// Records what `work` learned, as far as the bound allows.
    fn record(&self, key: DelayKey, nodes: usize, work: &Work<'_>) {
        if !work.entries.iter().any(|e| e.learned) {
            return;
        }
        let mut state = self.lock();
        if state.nodes == 0 {
            state.nodes = nodes;
        } else if state.nodes != nodes {
            return;
        }
        let TableState { points, models, .. } = &mut *state;
        let model = match models.iter().position(|m| m.key == key) {
            Some(m) => &mut models[m],
            None => {
                models.push(Regimes {
                    key,
                    censuses: Vec::new(),
                    points: Vec::new(),
                });
                models.last_mut().expect("just pushed")
            }
        };
        for entry in work.entries.iter().filter(|e| e.learned) {
            if *points >= MAX_POINTS {
                break;
            }
            let census = entry.census.expect("learned entries are resolved");
            if let Err(at) = model.points.binary_search_by(|p| p.0.total_cmp(&entry.x)) {
                *points += 1;
                model.points.insert(at, (entry.x, census));
                if !model.censuses.contains(&census) {
                    model.censuses.push(census);
                }
            }
        }
    }
}

impl fmt::Debug for PathTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathTable")
            .field("passes", &self.passes())
            .finish_non_exhaustive()
    }
}

impl Clone for PathTable {
    /// A clone starts empty: the table is a cache of its program.
    fn clone(&self) -> Self {
        PathTable::default()
    }
}

impl PartialEq for PathTable {
    /// Always equal: a cache never distinguishes two profiles.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// One resolve call: its working set, and what a full pass needs.
struct Work<'a> {
    /// Ascending by `x`, unique: the queried values plus table anchors.
    entries: Vec<Entry>,
    /// The known censuses: the model's at snapshot time, then those this
    /// call's full passes found.
    censuses: Vec<Census>,
    qodg: &'a Qodg,
    params: &'a PhysicalParams,
    options: &'a EstimatorOptions,
    passes: &'a AtomicU64,
    scratch: CriticalPathScratch,
}

struct Entry {
    x: f64,
    census: Option<Census>,
    /// Resolved by this call, so not yet in the table.
    learned: bool,
}

impl Work<'_> {
    /// Resolves every open entry: each maximal run of open entries gets a
    /// full pass at any end that has no resolved neighbour, then
    /// [`solve`](Self::solve) between its two resolved ends.
    fn fill(&mut self) {
        let n = self.entries.len();
        let mut i = 0;
        while i < n {
            if self.entries[i].census.is_some() {
                i += 1;
                continue;
            }
            let mut j = i;
            while j + 1 < n && self.entries[j + 1].census.is_none() {
                j += 1;
            }
            let lo = if i == 0 {
                self.full_pass(0);
                0
            } else {
                i - 1
            };
            let hi = if j + 1 == n {
                if self.entries[j].census.is_none() {
                    self.full_pass(j);
                }
                j
            } else {
                j + 1
            };
            self.solve(lo, hi);
            i = j + 1;
        }
    }

    /// Runs the full pass at `entries[i]` and learns its census.
    fn full_pass(&mut self, i: usize) {
        let x = Micros::new(self.entries[i].x);
        let cp =
            routing_aware_critical_path(self.params, self.options, self.qodg, x, &mut self.scratch);
        self.passes.fetch_add(1, Ordering::Relaxed);
        let census = Census::of(&cp);
        if !self.censuses.contains(&census) {
            self.censuses.push(census);
        }
        self.settle(i, census);
    }

    fn settle(&mut self, i: usize, census: Census) {
        let entry = &mut self.entries[i];
        entry.census = Some(census);
        entry.learned = true;
    }

    /// Fills the open entries strictly between `lo` and `hi`, both of
    /// which are resolved.
    fn solve(&mut self, lo: usize, hi: usize) {
        if hi <= lo + 1 {
            return;
        }
        let ends = (self.entries[lo].census, self.entries[hi].census);
        let finite = self.entries[lo].x.is_finite() && self.entries[hi].x.is_finite();
        match ends {
            (Some(a), Some(b)) if a == b && finite => {
                // One census rules the whole interval: each interior value
                // takes it, unless the guard calls for a full pass.
                for mid in lo + 1..hi {
                    if self.reusable(&a, self.entries[mid].x) {
                        self.settle(mid, a);
                    } else {
                        self.full_pass(mid);
                    }
                }
            }
            _ => {
                let mid = lo + (hi - lo) / 2;
                self.full_pass(mid);
                self.solve(lo, mid);
                self.solve(mid, hi);
            }
        }
    }

    /// Whether `chosen` may stand in for a full pass at `x`: its line is
    /// finite there and no other known census reaches (or ULP-grazes) it.
    /// Floats bend the lines by ULPs, so a rival within the margin means
    /// the pass's winner is rounding-determined there. Cheap: most
    /// programs hold one or two censuses.
    fn reusable(&self, chosen: &Census, x: f64) -> bool {
        const REL_MARGIN: f64 = 1e-12;
        let delays = OpDelays::new(self.params, self.options, Micros::new(x));
        let length = delays.line(chosen).as_f64();
        length.is_finite()
            && !self.censuses.iter().any(|census| {
                census != chosen && delays.line(census).as_f64() >= length * (1.0 - REL_MARGIN)
            })
    }

    /// The census at a queried value.
    fn census_at(&self, x: f64) -> Census {
        let i = self
            .entries
            .binary_search_by(|e| e.x.total_cmp(&x))
            .expect("every queried value is an entry");
        self.entries[i].census.expect("fill resolved every entry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_profile_squares;
    use crate::{Estimate, Estimator, ProfileData, ProgramProfile};
    use leqa_circuit::{FtCircuit, QodgNode, QubitId};
    use leqa_fabric::{FabricDims, FabricMap, GateDelays, OneQubitKind, RegionOverlay};
    use std::sync::Arc;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    /// All-pairs CNOTs: every path is a chain of identical delays, so one
    /// census is critical at every `L_CNOT^avg`.
    fn single_path_qodg() -> Qodg {
        let mut ft = FtCircuit::new(20);
        for i in 0..20u32 {
            for j in (i + 1)..20 {
                ft.push_cnot(q(i), q(j)).unwrap();
            }
        }
        Qodg::from_ft_circuit(&ft)
    }

    /// A 200-gate prefix on qubit 0, then three CNOTs from qubit 0 that
    /// each open a tail of T gates (10, 8 and 3 long). The branch through
    /// `k` CNOTs is critical for `L_CNOT^avg` below ~17,350 µs (k = 1),
    /// up to ~50,770 µs (k = 2) and above (k = 3), under Table 1 delays.
    fn three_regime_qodg() -> Qodg {
        let mut ft = FtCircuit::new(4);
        for _ in 0..200 {
            ft.push_one_qubit(OneQubitKind::H, q(0)).unwrap();
        }
        for (branch, tail) in [(1, 10), (2, 8), (3, 3)] {
            ft.push_cnot(q(0), q(branch)).unwrap();
            for _ in 0..tail {
                ft.push_one_qubit(OneQubitKind::T, q(branch)).unwrap();
            }
        }
        Qodg::from_ft_circuit(&ft)
    }

    /// Checks a census against the graph walk at `x`: the same census
    /// exactly, and the census's line within 1e-12 of the walk's length
    /// (the walk adds the same delays in path order).
    fn assert_walk_census(
        qodg: &Qodg,
        params: &PhysicalParams,
        options: &EstimatorOptions,
        x: Micros,
        census: &Census,
    ) {
        let delays = OpDelays::new(params, options, x);
        let walk = qodg.critical_path(|node| match node {
            QodgNode::Op(op) => delays.of(op),
            _ => Micros::ZERO,
        });
        assert_eq!(*census, Census::of(&walk), "census at {x:?}");
        let (line, length) = (delays.line(census).as_f64(), walk.length.as_f64());
        assert!(
            (line - length).abs() <= 1e-12 * length.abs(),
            "line {line} against the walk's {length} at {x:?}"
        );
    }

    fn fresh(qodg: &Qodg, side: u32, options: EstimatorOptions) -> Estimate {
        let dims = FabricDims::new(side, side).unwrap();
        Estimator::with_options(dims, PhysicalParams::dac13(), options)
            .estimate(qodg)
            .unwrap()
    }

    fn warm(qodg: &Qodg, data: &ProfileData, side: u32, options: EstimatorOptions) -> Estimate {
        let dims = FabricDims::new(side, side).unwrap();
        Estimator::with_options(dims, PhysicalParams::dac13(), options)
            .estimate_with_profile(&ProgramProfile::from_data(qodg, data))
            .unwrap()
    }

    fn assert_same(a: &Estimate, b: &Estimate) {
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.l_cnot_avg, b.l_cnot_avg);
        assert_eq!(a.critical, b.critical);
    }

    #[test]
    fn repeat_estimate_at_a_resolved_value_walks_nothing() {
        let qodg = single_path_qodg();
        let data = ProfileData::new(&qodg);
        let opts = EstimatorOptions::default();
        let first = warm(&qodg, &data, 12, opts);
        assert_eq!(data.critical_path_passes(), 1);
        let again = warm(&qodg, &data, 12, opts);
        assert_eq!(data.critical_path_passes(), 1);
        assert_same(&first, &again);
        assert_same(&again, &fresh(&qodg, 12, opts));
        assert!(again.critical.path.is_empty());
        assert_eq!(again.critical.length, again.latency);
    }

    #[test]
    fn sweep_over_resolved_values_walks_nothing() {
        let qodg = three_regime_qodg();
        let data = ProfileData::new(&qodg);
        let profile = ProgramProfile::from_data(&qodg, &data);
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let sides = [2u32, 3, 4, 6, 10];
        let cold = sweep_profile_squares(&profile, &params, opts, sides).unwrap();
        let walked = data.critical_path_passes();
        assert!(walked >= 1);
        let again = sweep_profile_squares(&profile, &params, opts, sides).unwrap();
        for side in sides {
            warm(&qodg, &data, side, opts);
        }
        assert_eq!(data.critical_path_passes(), walked);
        for ((a, b), side) in cold.iter().zip(&again).zip(sides) {
            let (a, b) = (a.estimate.as_ref().unwrap(), b.estimate.as_ref().unwrap());
            assert_same(a, b);
            assert_same(b, &fresh(&qodg, side, opts));
        }
    }

    #[test]
    fn value_inside_a_same_census_interval_walks_nothing() {
        let qodg = single_path_qodg();
        let data = ProfileData::new(&qodg);
        let opts = EstimatorOptions::default();
        let small = warm(&qodg, &data, 6, opts);
        let large = warm(&qodg, &data, 60, opts);
        assert_eq!(data.critical_path_passes(), 2);
        assert_eq!(Census::of(&small.critical), Census::of(&large.critical));

        let mid = warm(&qodg, &data, 15, opts);
        let (lo, hi) = (large.l_cnot_avg, small.l_cnot_avg);
        assert!(
            lo < mid.l_cnot_avg && mid.l_cnot_avg < hi,
            "strictly inside"
        );
        assert_eq!(data.critical_path_passes(), 2);
        assert_same(&mid, &fresh(&qodg, 15, opts));
    }

    #[test]
    fn a_fabric_map_correction_keys_its_own_paths() {
        // A slower `T_move` changes `l_one`, so the corrected estimate may
        // not reuse what the uniform fabric resolved.
        let qodg = three_regime_qodg();
        let data = ProfileData::new(&qodg);
        let opts = EstimatorOptions::default();
        let dims = FabricDims::new(6, 6).unwrap();
        let mut map = FabricMap::pristine(dims);
        map.push_overlay(RegionOverlay {
            x0: 0,
            y0: 0,
            x1: 5,
            y1: 5,
            t_move_us: Some(400.0),
            qubit_speed: None,
            channel_capacity: None,
        })
        .unwrap();
        let mapped = Estimator::with_options(dims, PhysicalParams::dac13(), opts)
            .with_fabric_map(Arc::new(map));

        warm(&qodg, &data, 6, opts);
        let corrected = mapped
            .estimate_with_profile(&ProgramProfile::from_data(&qodg, &data))
            .unwrap();
        assert_eq!(data.critical_path_passes(), 2);
        assert_same(&corrected, &mapped.estimate(&qodg).unwrap());
    }

    #[test]
    fn ablation_mode_serves_every_value_from_one_pass() {
        let qodg = three_regime_qodg();
        let data = ProfileData::new(&qodg);
        let opts = EstimatorOptions {
            update_critical_path: false,
            ..Default::default()
        };
        for side in [2u32, 5, 30] {
            let estimate = warm(&qodg, &data, side, opts);
            assert_same(&estimate, &fresh(&qodg, side, opts));
            assert!(estimate.critical.length < estimate.latency, "bare gates");
        }
        assert_eq!(data.critical_path_passes(), 1);
    }

    #[test]
    fn bisection_finds_a_regime_between_two_others() {
        // The ends select the first and the third census; the second rules
        // only inside, where neither end's census may stand in for it.
        let qodg = three_regime_qodg();
        let table = PathTable::default();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let xs: Vec<Micros> = (0..=10).map(|i| Micros::new(10_000.0 * i as f64)).collect();
        let censuses = table.resolve(&qodg, &params, &opts, &xs);
        for (&x, census) in xs.iter().zip(&censuses) {
            assert_walk_census(&qodg, &params, &opts, x, census);
        }
        let (first, last) = (censuses[0], censuses[10]);
        assert!(censuses.iter().any(|c| *c != first && *c != last));
    }

    #[test]
    fn a_known_rival_census_within_the_guard_forces_a_full_pass() {
        // Integer delays: CNOT 1, H 1 + l_one 1. Branch A (one CNOT, three
        // H) has the line 7 + x, branch B (two CNOTs) 2 + 2x: they cross
        // exactly at x = 5, where the walk keeps A (its wires come first).
        let params = PhysicalParams::dac13()
            .to_builder()
            .gate_delays(GateDelays::from_fn(|_| Micros::new(1.0), Micros::new(1.0)))
            .t_move(Micros::new(0.5))
            .build()
            .unwrap();
        let mut ft = FtCircuit::new(4);
        ft.push_cnot(q(0), q(1)).unwrap();
        for _ in 0..3 {
            ft.push_one_qubit(OneQubitKind::H, q(1)).unwrap();
        }
        ft.push_cnot(q(2), q(3)).unwrap();
        ft.push_cnot(q(3), q(2)).unwrap();
        let qodg = Qodg::from_ft_circuit(&ft);
        let table = PathTable::default();
        let opts = EstimatorOptions::default();
        let resolve = |x: f64| table.resolve(&qodg, &params, &opts, &[Micros::new(x)])[0];

        // A at 0 and at the crossing, B (now a known rival) above it.
        let xs = [0.0, 5.0, 10.0].map(Micros::new);
        let censuses = table.resolve(&qodg, &params, &opts, &xs);
        assert_eq!(table.passes(), 3);
        assert_eq!(censuses[0], censuses[1]);
        assert_ne!(censuses[1], censuses[2]);

        // Far from the crossing A stands in; a hair below it B comes within
        // the guard, so the value takes a full pass.
        assert_eq!(resolve(2.5), censuses[0]);
        assert_eq!(table.passes(), 3);
        let near = 5.0 - 5e-13;
        assert_eq!(resolve(near), censuses[0]);
        assert_eq!(table.passes(), 4);
        for x in [2.5, near] {
            assert_walk_census(&qodg, &params, &opts, Micros::new(x), &censuses[0]);
        }
    }

    #[test]
    fn a_full_point_budget_stops_growth_and_still_answers_bit_identically() {
        let qodg = single_path_qodg();
        let table = PathTable::default();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let xs: Vec<Micros> = (0..MAX_POINTS + 100)
            .map(|i| Micros::new(100.0 + i as f64))
            .collect();
        let censuses = table.resolve(&qodg, &params, &opts, &xs);
        // One census: the two ends walk, the interior takes it.
        assert_eq!(table.passes(), 2);
        assert_eq!(table.lock().points, MAX_POINTS);
        for (&x, census) in xs.iter().zip(&censuses).step_by(61) {
            assert_walk_census(&qodg, &params, &opts, x, census);
        }

        // The unrecorded top end walks on every query; the table stays full.
        let top = *xs.last().unwrap();
        for round in 1..=2 {
            let again = table.resolve(&qodg, &params, &opts, &[top]);
            assert_eq!(table.passes(), 2 + round);
            assert_eq!(again[0], censuses[censuses.len() - 1]);
        }
        assert_eq!(table.lock().points, MAX_POINTS);
        // Recorded values still hit.
        table.resolve(&qodg, &params, &opts, &xs[..MAX_POINTS]);
        assert_eq!(table.passes(), 4);
    }
}
