//! The path table: routing-aware critical paths (Algorithm 1 line 19)
//! resolved against one program, kept with its
//! [`ProfileData`](crate::ProfileData) for every later query.
//!
//! The critical-path pass is the one `O(|V|+|E|)` walk left in the
//! fabric-dependent half, and it depends on the fabric only through the
//! scalar `L_CNOT^avg`. In exact arithmetic the longest-path length is a
//! convex piecewise-linear function of that scalar (each start→end path
//! contributes the line `base + n_CNOT · x`), so if full passes at two
//! values select the same path, that path is optimal on the whole
//! interval between them; interior values only re-accumulate its length.
//!
//! [`PathTable`] keeps what full passes learned, per delay model
//! ([`DelayKey`]):
//!
//! * **templates** — the distinct paths full passes produced, node ids
//!   stored as `u32`;
//! * **points** — resolved `L_CNOT^avg` values, ascending, each mapped to
//!   a template and the path's length there.
//!
//! [`PathTable::resolve`] answers a set of values (one for an estimate,
//! `N` for a sweep): an exact point is a hit; a value between two points
//! holding the same template re-accumulates it in DP order
//! ([`Work::accumulate_along`]) under the [`Work::rival_near`] guard; any
//! other value takes a full pass, bisecting unresolved runs. Every answer
//! is bit-identical to a full pass at that value (`tests/differential.rs`
//! pins it across the workload suite, warm tables included), and every
//! answer is recorded.
//!
//! The table is bounded by constants: template ids per program at most
//! [`IDS_PER_NODE`] times its QODG node count, points at most
//! [`MAX_POINTS`]. At a bound the query still gets its full pass, and
//! nothing is recorded.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use leqa_circuit::{CriticalPath, CriticalPathScratch, NodeId, Qodg, QodgNode};
use leqa_fabric::{Micros, OneQubitKind, PhysicalParams};

use crate::estimator::{routing_aware_critical_path, OpDelays};
use crate::EstimatorOptions;

/// Resolved points kept per program, over every delay model.
const MAX_POINTS: usize = 4096;

/// Template node ids kept per program, as a multiple of its QODG node
/// count: at most 8 bytes per node, against the 12 of the op list the
/// QODG holds.
const IDS_PER_NODE: usize = 2;

/// The resolved critical paths of one program. A cache: it starts empty
/// in a clone, compares equal to any other table, and is never persisted.
///
/// The lock is held for lookups and inserts only, never across a full
/// pass. Two callers racing on one miss both walk, and both record the
/// same bits.
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
    /// Template node ids held, over every model.
    ids: usize,
    /// Points held, over every model.
    points: usize,
    models: Vec<Regimes>,
}

/// What the table knows under one delay model.
struct Regimes {
    key: DelayKey,
    /// Append-only, so indices stay valid across callers.
    templates: Vec<Arc<Template>>,
    /// Ascending by `x` (total order), unique.
    points: Vec<Point>,
}

struct Point {
    x: f64,
    template: u32,
    length: Micros,
}

/// A path a full pass produced, with its op census.
struct Template {
    path: Box<[u32]>,
    cnot_count: u64,
    one_qubit_counts: [u64; 8],
}

impl Template {
    /// Node ids fit `u32`: a [`Qodg`] has no larger ones.
    fn from_pass(cp: &CriticalPath) -> Template {
        Template {
            path: cp.path.iter().map(|id| id.0 as u32).collect(),
            cnot_count: cp.cnot_count,
            one_qubit_counts: cp.one_qubit_counts,
        }
    }

    fn matches(&self, path: &[NodeId]) -> bool {
        self.path.len() == path.len() && self.path.iter().zip(path).all(|(&a, b)| a as usize == b.0)
    }

    /// The [`CriticalPath`] at `length`, on `path` when the caller already
    /// holds this template's nodes, else on a copy of them.
    fn materialize(&self, length: Micros, path: Option<Vec<NodeId>>) -> CriticalPath {
        CriticalPath {
            length,
            cnot_count: self.cnot_count,
            one_qubit_counts: self.one_qubit_counts,
            path: path.unwrap_or_else(|| self.path.iter().map(|&id| NodeId(id as usize)).collect()),
        }
    }
}

/// Everything besides `L_CNOT^avg` that shapes the pass's node delays:
/// the nine gate delays, `l_one` (2·`T_move`, after any fabric-map
/// correction) and whether routing enters the delays at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DelayKey {
    bits: [u64; 10],
    routing: bool,
}

impl DelayKey {
    fn new(params: &PhysicalParams, options: &EstimatorOptions) -> DelayKey {
        let delays = params.gate_delays();
        let mut bits = [0; 10];
        bits[0] = delays.cnot().as_f64().to_bits();
        for kind in OneQubitKind::ALL {
            bits[1 + kind.index()] = delays.one_qubit(kind).as_f64().to_bits();
        }
        bits[9] = params.one_qubit_routing_latency().as_f64().to_bits();
        DelayKey {
            bits,
            routing: options.update_critical_path,
        }
    }
}

impl PathTable {
    /// Full critical-path passes run against this table.
    pub(crate) fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// The routing-aware critical path of `qodg` at each `L_CNOT^avg` in
    /// `xs`, in order — bit-identical to a full pass at each value.
    pub(crate) fn resolve(
        &self,
        qodg: &Qodg,
        params: &PhysicalParams,
        options: &EstimatorOptions,
        xs: &[Micros],
    ) -> Vec<CriticalPath> {
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
                    resolved: None,
                    learned: false,
                })
                .collect(),
            templates: Vec::new(),
            held: 0,
            fresh: Vec::new(),
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
        xs.iter().map(|&x| work.materialize(point_of(x))).collect()
    }

    fn lock(&self) -> MutexGuard<'_, TableState> {
        // Every update leaves the table valid (a count is bumped before
        // the push it covers, so at worst it over-counts), so a guard
        // poisoned by a panicking caller is safe to take over.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Seeds `work` under the lock: resolves its exact points, adds the
    /// table points bracketing each other value as anchors, and takes the
    /// model's templates.
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
        work.templates.clone_from(&model.templates);
        work.held = model.templates.len();
        let anchor = |p: &Point| Entry {
            x: p.x,
            resolved: Some((p.template as usize, p.length)),
            learned: false,
        };
        let mut anchors = Vec::new();
        for entry in &mut work.entries {
            match model.points.binary_search_by(|p| p.x.total_cmp(&entry.x)) {
                Ok(i) => entry.resolved = anchor(&model.points[i]).resolved,
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

    /// Records what `work` learned, as far as the bounds allow.
    fn record(&self, key: DelayKey, nodes: usize, work: &Work<'_>) {
        if !work.entries.iter().any(|e| e.learned) {
            return;
        }
        let mut state = self.lock();
        if state.points >= MAX_POINTS {
            return;
        }
        if state.nodes == 0 {
            state.nodes = nodes;
        } else if state.nodes != nodes {
            return;
        }
        let TableState {
            ids,
            points,
            models,
            ..
        } = &mut *state;
        let model = match models.iter().position(|m| m.key == key) {
            Some(m) => &mut models[m],
            None => {
                models.push(Regimes {
                    key,
                    templates: Vec::new(),
                    points: Vec::new(),
                });
                models.last_mut().expect("just pushed")
            }
        };

        // The table index of each working template; the first `held`
        // already are the table's.
        let mut slots: Vec<Option<u32>> = Vec::with_capacity(work.templates.len());
        for (t, template) in work.templates.iter().enumerate() {
            let later = &model.templates[work.held..];
            let slot = if t < work.held {
                Some(t)
            } else if let Some(k) = later.iter().position(|held| held.path == template.path) {
                // Another caller recorded the same path since the snapshot.
                Some(work.held + k)
            } else if *ids + template.path.len() <= IDS_PER_NODE * nodes {
                *ids += template.path.len();
                model.templates.push(Arc::clone(template));
                Some(model.templates.len() - 1)
            } else {
                None
            };
            slots.push(slot.map(|s| s as u32));
        }
        for entry in work.entries.iter().filter(|e| e.learned) {
            let (t, length) = entry.resolved.expect("learned entries are resolved");
            let Some(template) = slots[t] else { continue };
            if *points >= MAX_POINTS {
                break;
            }
            if let Err(at) = model.points.binary_search_by(|p| p.x.total_cmp(&entry.x)) {
                *points += 1;
                model.points.insert(
                    at,
                    Point {
                        x: entry.x,
                        template,
                        length,
                    },
                );
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
    /// The model's templates at snapshot time (`..held`, at their table
    /// indices), then the paths this call's full passes added.
    templates: Vec<Arc<Template>>,
    held: usize,
    /// The pass's own node path for each template this call added, by
    /// template index: the first value materialized from it takes the
    /// `Vec` instead of a copy.
    fresh: Vec<(usize, Vec<NodeId>)>,
    qodg: &'a Qodg,
    params: &'a PhysicalParams,
    options: &'a EstimatorOptions,
    passes: &'a AtomicU64,
    scratch: CriticalPathScratch,
}

struct Entry {
    x: f64,
    /// `(index into Work::templates, length at x)`.
    resolved: Option<(usize, Micros)>,
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
            if self.entries[i].resolved.is_some() {
                i += 1;
                continue;
            }
            let mut j = i;
            while j + 1 < n && self.entries[j + 1].resolved.is_none() {
                j += 1;
            }
            let lo = if i == 0 {
                self.full_pass(0);
                0
            } else {
                i - 1
            };
            let hi = if j + 1 == n {
                if self.entries[j].resolved.is_none() {
                    self.full_pass(j);
                }
                j
            } else {
                j + 1
            };
            self.solve(lo, hi);
            i = j + 1;
        }
        // Free the pass buffers before the paths are materialized, so the
        // two peaks do not stack.
        self.scratch = CriticalPathScratch::new();
    }

    /// Runs the full pass at `entries[i]`, registering its path as a
    /// template (deduplicated against the known ones).
    fn full_pass(&mut self, i: usize) {
        let x = Micros::new(self.entries[i].x);
        let cp =
            routing_aware_critical_path(self.params, self.options, self.qodg, x, &mut self.scratch);
        self.passes.fetch_add(1, Ordering::Relaxed);
        let template = match self.templates.iter().position(|t| t.matches(&cp.path)) {
            Some(t) => t,
            None => {
                self.templates.push(Arc::new(Template::from_pass(&cp)));
                self.fresh.push((self.templates.len() - 1, cp.path));
                self.templates.len() - 1
            }
        };
        self.settle(i, template, cp.length);
    }

    fn settle(&mut self, i: usize, template: usize, length: Micros) {
        let entry = &mut self.entries[i];
        entry.resolved = Some((template, length));
        entry.learned = true;
    }

    /// Fills the open entries strictly between `lo` and `hi`, both of
    /// which are resolved.
    fn solve(&mut self, lo: usize, hi: usize) {
        if hi <= lo + 1 {
            return;
        }
        let (tpl_lo, len_lo) = self.entries[lo].resolved.expect("endpoint resolved");
        let (tpl_hi, len_hi) = self.entries[hi].resolved.expect("endpoint resolved");
        let finite = [
            self.entries[lo].x,
            self.entries[hi].x,
            len_lo.as_f64(),
            len_hi.as_f64(),
        ]
        .iter()
        .all(|v| v.is_finite());
        if tpl_lo == tpl_hi && finite {
            // One path rules the whole interval: re-accumulate its length
            // at each interior value in DP order. Floats bend the lines by
            // ULPs, so each reuse is guarded: a rival regime within a few
            // ULPs means the full pass's winner is rounding-determined
            // there, so run the full pass instead.
            for mid in lo + 1..hi {
                let x = Micros::new(self.entries[mid].x);
                let length = self.accumulate_along(&self.templates[tpl_lo], x);
                if self.rival_near(tpl_lo, length, x) {
                    self.full_pass(mid);
                } else {
                    self.settle(mid, tpl_lo, length);
                }
            }
        } else {
            let mid = lo + (hi - lo) / 2;
            self.full_pass(mid);
            self.solve(lo, mid);
            self.solve(mid, hi);
        }
    }

    /// Whether any template other than `chosen` reaches (or ULP-grazes)
    /// `length` at `x`. Cheap in the common case: most programs hold a
    /// single path regime, and the loop skips `chosen` itself.
    fn rival_near(&self, chosen: usize, length: Micros, x: Micros) -> bool {
        const REL_MARGIN: f64 = 1e-12;
        self.templates.iter().enumerate().any(|(t, template)| {
            t != chosen
                && self.accumulate_along(template, x).as_f64()
                    >= length.as_f64() * (1.0 - REL_MARGIN)
        })
    }

    /// Re-accumulates a known path's length at a new `L_CNOT^avg`: the
    /// pass's node delays added in first-to-last order — exactly the float
    /// additions the full pass performs along its argmax chain, so the
    /// length is bit-identical to what the pass would return for this
    /// path.
    fn accumulate_along(&self, template: &Template, l_cnot_avg: Micros) -> Micros {
        let delays = OpDelays::new(self.params, self.options, l_cnot_avg);
        let mut length = Micros::ZERO;
        for &id in template.path.iter() {
            if let QodgNode::Op(op) = self.qodg.node(NodeId(id as usize)) {
                length += delays.of(&op);
            }
        }
        length
    }

    /// The owned [`CriticalPath`] at a queried value: at most one path
    /// copy, the only one a caller pays.
    fn materialize(&mut self, x: f64) -> CriticalPath {
        let i = self
            .entries
            .binary_search_by(|e| e.x.total_cmp(&x))
            .expect("every queried value is an entry");
        let (template, length) = self.entries[i].resolved.expect("fill resolved every entry");
        let fresh = self.fresh.iter().position(|&(t, _)| t == template);
        let path = fresh.map(|k| self.fresh.swap_remove(k).1);
        self.templates[template].materialize(length, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_profile_squares;
    use crate::{Estimate, Estimator, ProfileData, ProgramProfile};
    use leqa_circuit::{FtCircuit, QubitId};
    use leqa_fabric::{FabricDims, FabricMap, RegionOverlay};

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    /// All-pairs CNOTs: every path is a chain of identical delays, so one
    /// path is critical at every `L_CNOT^avg`.
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
    /// Each path holds over 200 of the 226 nodes, so two fit the id
    /// budget and the third does not.
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

    fn full_pass(qodg: &Qodg, options: &EstimatorOptions, x: Micros) -> CriticalPath {
        let params = PhysicalParams::dac13();
        routing_aware_critical_path(&params, options, qodg, x, &mut CriticalPathScratch::new())
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
    fn value_inside_a_same_template_interval_walks_nothing() {
        let qodg = single_path_qodg();
        let data = ProfileData::new(&qodg);
        let opts = EstimatorOptions::default();
        let small = warm(&qodg, &data, 6, opts);
        let large = warm(&qodg, &data, 60, opts);
        assert_eq!(data.critical_path_passes(), 2);
        assert_eq!(small.critical.path, large.critical.path);

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
            assert_same(&warm(&qodg, &data, side, opts), &fresh(&qodg, side, opts));
        }
        assert_eq!(data.critical_path_passes(), 1);
    }

    #[test]
    fn bisection_finds_a_regime_between_two_others() {
        // The ends select the first and the third path; the second rules
        // only inside, where neither end's path may stand in for it.
        let qodg = three_regime_qodg();
        let table = PathTable::default();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let xs: Vec<Micros> = (0..=10).map(|i| Micros::new(10_000.0 * i as f64)).collect();
        let paths = table.resolve(&qodg, &params, &opts, &xs);
        for (&x, path) in xs.iter().zip(&paths) {
            assert_eq!(path, &full_pass(&qodg, &opts, x));
        }
        let (first, last) = (&paths[0].path, &paths[10].path);
        assert!(paths.iter().any(|p| &p.path != first && &p.path != last));
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
        let paths = table.resolve(&qodg, &params, &opts, &xs);
        // One path regime: the two ends walk, the interior re-accumulates.
        assert_eq!(table.passes(), 2);
        assert_eq!(table.lock().points, MAX_POINTS);
        for (&x, path) in xs.iter().zip(&paths).step_by(61) {
            assert_eq!(path, &full_pass(&qodg, &opts, x));
        }

        // The unrecorded top end walks on every query; the table stays full.
        let top = *xs.last().unwrap();
        for round in 1..=2 {
            let again = table.resolve(&qodg, &params, &opts, &[top]);
            assert_eq!(table.passes(), 2 + round);
            assert_eq!(again[0], full_pass(&qodg, &opts, top));
        }
        assert_eq!(table.lock().points, MAX_POINTS);
        // Recorded values still hit.
        table.resolve(&qodg, &params, &opts, &xs[..MAX_POINTS]);
        assert_eq!(table.passes(), 4);
    }

    #[test]
    fn templates_past_the_id_budget_are_not_recorded() {
        let qodg = three_regime_qodg();
        let table = PathTable::default();
        let params = PhysicalParams::dac13();
        let opts = EstimatorOptions::default();
        let [low, mid, high] = [0.0, 30_000.0, 100_000.0].map(Micros::new);
        let resolve = |x: Micros| table.resolve(&qodg, &params, &opts, &[x]).remove(0);

        let (p_low, p_mid) = (resolve(low), resolve(mid));
        assert_eq!(table.passes(), 2);
        let ids = table.lock().ids;
        assert_eq!(ids, p_low.path.len() + p_mid.path.len());
        assert!(ids <= IDS_PER_NODE * qodg.node_count());

        for round in 1..=2 {
            let p_high = resolve(high);
            assert_eq!(table.passes(), 2 + round);
            assert_eq!(p_high, full_pass(&qodg, &opts, high));
            assert!(p_high.path != p_low.path && p_high.path != p_mid.path);
        }
        assert_ne!(p_low.path, p_mid.path);
        assert_eq!(table.lock().ids, ids);
        assert_eq!(table.lock().points, 2);
        assert_eq!(resolve(low), p_low);
        assert_eq!(resolve(mid), p_mid);
        assert_eq!(table.passes(), 4);
    }
}
