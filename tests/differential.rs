//! Differential tests: the CSR graph structures and the
//! `ProgramProfile`-based estimation pipeline against a *retained naive
//! reference* — the seed's per-node data structures (hash-map IIG
//! adjacency, nested-`Vec` QODG predecessor lists) and the per-call
//! estimation flow, sharing only the numeric kernels. Every quantity is
//! compared **bit-for-bit** across the full workload suite (QFT, adders,
//! Shor slices, the table suite's families, random circuits), plus a
//! property test over random circuits. A second group runs the suite
//! through one shared, warming `ProfileData` (its path table) in several
//! orders against fresh estimates.

use std::collections::HashMap;

use leqa::coverage::CoverageHistogram;
use leqa::sweep::{sweep_fabrics, sweep_profile};
use leqa::{queue, tsp, Estimate, Estimator, EstimatorOptions, ProfileData, ProgramProfile};
use leqa_circuit::{decompose::lower_to_ft, FtOp, Iig, NodeId, Qodg, QodgNode, QubitId};
use leqa_fabric::{FabricDims, Micros, OneQubitKind, PhysicalParams};
use leqa_workloads::qft::qft;
use leqa_workloads::shor::shor_skeleton;
use leqa_workloads::{adder, random_circuit, Benchmark, RandomCircuitConfig};
use proptest::prelude::*;

// ── The retained naive reference ─────────────────────────────────────────

/// The seed's IIG: one hash map per qubit.
struct NaiveIig {
    adj: Vec<HashMap<QubitId, u64>>,
    total_weight: u64,
}

impl NaiveIig {
    fn from_qodg(qodg: &Qodg) -> Self {
        let mut adj: Vec<HashMap<QubitId, u64>> = vec![HashMap::new(); qodg.num_qubits() as usize];
        let mut total_weight = 0;
        for (_, op) in qodg.op_nodes() {
            if let FtOp::Cnot { control, target } = op {
                *adj[control.index()].entry(target).or_insert(0) += 1;
                *adj[target.index()].entry(control).or_insert(0) += 1;
                total_weight += 1;
            }
        }
        NaiveIig { adj, total_weight }
    }

    fn degree(&self, q: QubitId) -> u64 {
        self.adj[q.index()].len() as u64
    }

    fn strength(&self, q: QubitId) -> u64 {
        self.adj[q.index()].values().sum()
    }

    fn weight(&self, a: QubitId, b: QubitId) -> u64 {
        self.adj[a.index()].get(&b).copied().unwrap_or(0)
    }

    fn edge_count(&self) -> usize {
        self.adj.iter().map(|m| m.len()).sum::<usize>() / 2
    }
}

/// The seed's QODG predecessor lists: one `Vec` per node.
fn naive_preds(qodg: &Qodg) -> Vec<Vec<NodeId>> {
    // Rebuild from the node payloads with the seed's exact merging logic.
    let start = NodeId(0);
    let mut preds: Vec<Vec<NodeId>> = vec![Vec::new()];
    let mut last: Vec<Option<NodeId>> = vec![None; qodg.num_qubits() as usize];
    for (id, op) in qodg.op_nodes() {
        let mut p: Vec<NodeId> = Vec::with_capacity(2);
        for q in op.qubits() {
            let pred = last[q.index()].unwrap_or(start);
            if !p.contains(&pred) {
                p.push(pred);
            }
            last[q.index()] = Some(id);
        }
        preds.push(p);
    }
    let mut end_preds: Vec<NodeId> = Vec::new();
    for l in last.iter().flatten() {
        if !end_preds.contains(l) {
            end_preds.push(*l);
        }
    }
    if end_preds.is_empty() {
        end_preds.push(start);
    }
    preds.push(end_preds);
    preds
}

/// The seed's per-call estimation flow over the naive IIG (shared numeric
/// kernels, naive graph traversals): returns
/// `(latency, l_cnot_avg, d_uncong, esq, zone_side, cnot_census)`.
fn naive_estimate(
    qodg: &Qodg,
    dims: FabricDims,
    params: &PhysicalParams,
    options: EstimatorOptions,
) -> Option<(Micros, Micros, Micros, Vec<f64>, u32, u64)> {
    let qubit_count = qodg.num_qubits() as u64;
    if options.max_esq_terms == 0 || qubit_count > dims.area() {
        return None;
    }
    let iig = NaiveIig::from_qodg(qodg);

    // Eq. 7 over the naive adjacency.
    let mut zone_num = 0.0;
    let mut zone_den = 0.0;
    // Eq. 12 terms, speed factored out (the profile's formulation).
    let mut uncong_num = 0.0;
    for i in 0..qodg.num_qubits() {
        let q = QubitId(i);
        let strength = iig.strength(q) as f64;
        if strength > 0.0 {
            let m = iig.degree(q);
            zone_num += strength * leqa::presence::zone_area(m);
            zone_den += strength;
            uncong_num += strength * (tsp::expected_hamiltonian_path(m) / m as f64);
        }
    }

    let (l_cnot_avg, d_uncong, esq, zone_side) = if zone_den > 0.0 {
        let b = zone_num / zone_den;
        let d_uncong = Micros::new(uncong_num / zone_den / params.qubit_speed());
        let hist = CoverageHistogram::new(dims, b, options.zone_rounding);
        let esq = hist.expected_surfaces(qubit_count, options.max_esq_terms);
        let mut num = 0.0;
        let mut den = 0.0;
        for (k, &e) in esq.iter().enumerate() {
            let q = (k + 1) as u64;
            let d_q = queue::routing_delay(q, params.channel_capacity(), d_uncong);
            num += e * d_q.as_f64();
            den += e;
        }
        let l = if den > 0.0 {
            Micros::new(num / den)
        } else {
            Micros::ZERO
        };
        (l, d_uncong, esq, hist.zone_side())
    } else {
        (Micros::ZERO, Micros::ZERO, Vec::new(), 0)
    };

    let l_one_qubit_avg = params.one_qubit_routing_latency();
    let delays = *params.gate_delays();
    let include_routing = options.update_critical_path;
    let critical = qodg.critical_path(|node| match node {
        QodgNode::Op(FtOp::Cnot { .. }) => {
            delays.cnot()
                + if include_routing {
                    l_cnot_avg
                } else {
                    Micros::ZERO
                }
        }
        QodgNode::Op(FtOp::OneQubit { kind, .. }) => {
            delays.one_qubit(*kind)
                + if include_routing {
                    l_one_qubit_avg
                } else {
                    Micros::ZERO
                }
        }
        _ => Micros::ZERO,
    });

    let mut latency = (delays.cnot() + l_cnot_avg) * critical.cnot_count as f64;
    for kind in OneQubitKind::ALL {
        let n = critical.one_qubit_counts[kind.index()] as f64;
        latency += (delays.one_qubit(kind) + l_one_qubit_avg) * n;
    }
    Some((
        latency,
        l_cnot_avg,
        d_uncong,
        esq,
        zone_side,
        critical.cnot_count,
    ))
}

// ── Workload suite ───────────────────────────────────────────────────────

/// The differential workload suite: QFT, adders, Shor slices, table-suite
/// families, random circuits.
fn workloads() -> Vec<(String, Qodg)> {
    let mut out = Vec::new();
    for n in [16u32, 32, 64] {
        let ft = lower_to_ft(&qft(n, 8)).expect("qft lowers");
        out.push((format!("qft{n}"), Qodg::from_ft_circuit(&ft)));
    }
    let ft = lower_to_ft(&adder::adder8()).expect("adder lowers");
    out.push(("8bitadder".into(), Qodg::from_ft_circuit(&ft)));
    let ft = lower_to_ft(&adder::mod1048576_adder()).expect("adder lowers");
    out.push(("mod2^20adder".into(), Qodg::from_ft_circuit(&ft)));
    for (n, rounds) in [(8u32, 2u32), (12, 3)] {
        let ft = lower_to_ft(&shor_skeleton(n, rounds)).expect("shor lowers");
        out.push((format!("shor{n}x{rounds}"), Qodg::from_ft_circuit(&ft)));
    }
    for name in ["gf2^16mult", "ham15", "hwb15ps"] {
        let bench = Benchmark::by_name(name).expect("known");
        let ft = lower_to_ft(&bench.circuit()).expect("suite lowers");
        out.push((name.into(), Qodg::from_ft_circuit(&ft)));
    }
    for seed in [1u64, 7, 99] {
        let c = random_circuit(RandomCircuitConfig {
            qubits: 24,
            gates: 400,
            seed,
            ..Default::default()
        });
        let ft = lower_to_ft(&c).expect("random lowers");
        out.push((format!("random{seed}"), Qodg::from_ft_circuit(&ft)));
    }
    out
}

fn candidate_dims(qubits: u64) -> Vec<FabricDims> {
    let min_side = (qubits as f64).sqrt().ceil() as u32;
    (0..12)
        .map(|i| min_side + i * 3)
        .map(|s| FabricDims::new(s, s).expect("valid"))
        .collect()
}

// ── Graph differentials ──────────────────────────────────────────────────

fn assert_iig_matches(name: &str, qodg: &Qodg) {
    let csr = Iig::from_qodg(qodg);
    let naive = NaiveIig::from_qodg(qodg);
    assert_eq!(csr.total_weight(), naive.total_weight, "{name}: total");
    assert_eq!(csr.edge_count(), naive.edge_count(), "{name}: edges");
    for i in 0..qodg.num_qubits() {
        let q = QubitId(i);
        assert_eq!(csr.degree(q), naive.degree(q), "{name}: degree q{i}");
        assert_eq!(csr.strength(q), naive.strength(q), "{name}: strength q{i}");
        for (other, w) in csr.neighbors(q) {
            assert_eq!(w, naive.weight(q, other), "{name}: weight q{i}–{other}");
        }
        assert_eq!(
            csr.neighbors(q).count() as u64,
            naive.degree(q),
            "{name}: neighbour count q{i}"
        );
    }
}

fn assert_qodg_matches(name: &str, qodg: &Qodg) {
    let naive = naive_preds(qodg);
    assert_eq!(naive.len(), qodg.node_count(), "{name}: node count");
    let mut edges = 0;
    for (i, expected) in naive.iter().enumerate() {
        assert_eq!(
            qodg.preds(NodeId(i)),
            expected.as_slice(),
            "{name}: preds of node {i}"
        );
        edges += expected.len();
    }
    assert_eq!(qodg.edge_count(), edges, "{name}: edge count");
}

#[test]
fn csr_graphs_match_naive_reference_on_suite() {
    for (name, qodg) in workloads() {
        assert_iig_matches(&name, &qodg);
        assert_qodg_matches(&name, &qodg);
    }
}

// ── Estimate differentials ───────────────────────────────────────────────

fn assert_estimates_match(name: &str, qodg: &Qodg, options: EstimatorOptions) {
    let params = PhysicalParams::dac13();
    let profile = ProgramProfile::new(qodg);
    let candidates = candidate_dims(qodg.num_qubits() as u64);
    let sweep = sweep_fabrics(qodg, &params, options, candidates.clone());

    for (dims, point) in candidates.iter().zip(&sweep) {
        let estimator = Estimator::with_options(*dims, params.clone(), options);
        let direct = estimator.estimate(qodg).ok();
        let via_profile = estimator.estimate_with_profile(&profile).ok();
        let naive = naive_estimate(qodg, *dims, &params, options);

        match (direct, via_profile, &point.estimate, naive) {
            (Some(d), Some(p), Some(s), Some((latency, l_cnot, d_uncong, esq, side, cnots))) => {
                // Direct vs profile-based: bit-identical everywhere.
                assert_eq!(d.latency, p.latency, "{name}@{dims:?}: latency");
                assert_eq!(d.critical, p.critical, "{name}@{dims:?}: critical");
                assert_eq!(d.esq, p.esq, "{name}@{dims:?}: esq");
                // Direct vs sweep engine: bit-identical everywhere.
                assert_eq!(d.latency, s.latency, "{name}@{dims:?}: sweep latency");
                assert_eq!(d.critical, s.critical, "{name}@{dims:?}: sweep critical");
                assert_eq!(d.l_cnot_avg, s.l_cnot_avg, "{name}@{dims:?}: sweep L_CNOT");
                assert_eq!(d.esq, s.esq, "{name}@{dims:?}: sweep esq");
                // Direct vs the retained naive reference: bit-identical.
                assert_eq!(d.latency, latency, "{name}@{dims:?}: naive latency");
                assert_eq!(d.l_cnot_avg, l_cnot, "{name}@{dims:?}: naive L_CNOT");
                assert_eq!(d.d_uncong, d_uncong, "{name}@{dims:?}: naive d_uncong");
                assert_eq!(d.esq, esq, "{name}@{dims:?}: naive esq");
                assert_eq!(d.zone_side, side, "{name}@{dims:?}: naive zone side");
                assert_eq!(
                    d.critical.cnot_count, cnots,
                    "{name}@{dims:?}: naive census"
                );
            }
            (None, None, None, None) => {}
            other => panic!("{name}@{dims:?}: fit disagreement {other:?}"),
        }
    }
}

#[test]
fn estimates_bit_identical_across_suite() {
    for (name, qodg) in workloads() {
        assert_estimates_match(&name, &qodg, EstimatorOptions::default());
    }
}

#[test]
fn estimates_bit_identical_without_critical_path_update() {
    let options = EstimatorOptions {
        update_critical_path: false,
        ..Default::default()
    };
    for (name, qodg) in workloads().into_iter().take(4) {
        assert_estimates_match(&name, &qodg, options);
    }
}

#[test]
fn estimates_bit_identical_with_floor_rounding_and_short_esq() {
    let options = EstimatorOptions {
        max_esq_terms: 7,
        zone_rounding: leqa::ZoneRounding::Floor,
        ..Default::default()
    };
    for (name, qodg) in workloads().into_iter().take(4) {
        assert_estimates_match(&name, &qodg, options);
    }
}

// ── Warm path-table differentials ────────────────────────────────────────

fn assert_same_estimate(at: &str, got: &Option<Estimate>, want: &Option<Estimate>) {
    match (got, want) {
        (Some(g), Some(w)) => {
            assert_eq!(g.latency, w.latency, "{at}: latency");
            assert_eq!(g.l_cnot_avg, w.l_cnot_avg, "{at}: L_CNOT");
            assert_eq!(g.l_one_qubit_avg, w.l_one_qubit_avg, "{at}: L_g");
            assert_eq!(g.d_uncong, w.d_uncong, "{at}: d_uncong");
            assert_eq!(
                g.avg_zone_area.to_bits(),
                w.avg_zone_area.to_bits(),
                "{at}: B"
            );
            assert_eq!(g.zone_side, w.zone_side, "{at}: zone side");
            assert_eq!(g.esq, w.esq, "{at}: esq");
            assert_eq!(g.critical, w.critical, "{at}: critical");
            assert_eq!(g.qubit_count, w.qubit_count, "{at}: qubits");
        }
        (None, None) => {}
        other => panic!("{at}: fit disagreement {other:?}"),
    }
}

/// Estimates `candidates` through shared profiles whose path tables warm
/// as they go, and compares every field with a fresh
/// `Estimator::estimate`. One profile serves ascending sides, then
/// descending sides, then one `sweep_profile`. A second profile starts
/// with a sweep over every other side and then estimates the rest, one
/// by one, so they land between resolved values.
fn assert_warm_tables_match(name: &str, qodg: &Qodg, candidates: &[FabricDims]) {
    let params = PhysicalParams::dac13();
    let options = EstimatorOptions::default();
    let estimator = |dims: FabricDims| Estimator::with_options(dims, params.clone(), options);
    let fresh: Vec<Option<Estimate>> = candidates
        .iter()
        .map(|&dims| estimator(dims).estimate(qodg).ok())
        .collect();
    let check = |order: &str, run: Vec<Option<Estimate>>| {
        for ((dims, got), want) in candidates.iter().zip(&run).zip(&fresh) {
            assert_same_estimate(&format!("{name}@{dims:?} ({order})"), got, want);
        }
    };

    let data = ProfileData::new(qodg);
    let profile = ProgramProfile::from_data(qodg, &data);
    let one = |dims: FabricDims| estimator(dims).estimate_with_profile(&profile).ok();
    check("ascending", candidates.iter().map(|&d| one(d)).collect());
    let mut descending: Vec<_> = candidates.iter().rev().map(|&d| one(d)).collect();
    descending.reverse();
    check("descending", descending);
    let swept = sweep_profile(&profile, &params, options, candidates.iter().copied());
    check("sweep", swept.into_iter().map(|p| p.estimate).collect());

    let data = ProfileData::new(qodg);
    let profile = ProgramProfile::from_data(qodg, &data);
    let every_other = candidates.iter().step_by(2).copied();
    let mut interleaved: Vec<Option<Estimate>> = vec![None; candidates.len()];
    for (i, point) in sweep_profile(&profile, &params, options, every_other)
        .into_iter()
        .enumerate()
    {
        interleaved[2 * i] = point.estimate;
    }
    for i in (1..candidates.len()).step_by(2).rev() {
        interleaved[i] = estimator(candidates[i])
            .estimate_with_profile(&profile)
            .ok();
    }
    check("interleaved", interleaved);
}

#[test]
fn warm_path_tables_bit_identical_across_suite() {
    for (name, qodg) in workloads() {
        assert_warm_tables_match(&name, &qodg, &candidate_dims(qodg.num_qubits() as u64));
    }
}

#[test]
fn warm_path_tables_bit_identical_on_gf2_ties() {
    // `gf2^64mult` selects a different node path at almost every side
    // from 40 to 80, all with one op census: exact ties that float
    // rounding breaks.
    let bench = Benchmark::by_name("gf2^64mult").expect("known");
    let ft = lower_to_ft(&bench.circuit()).expect("suite lowers");
    let qodg = Qodg::from_ft_circuit(&ft);
    let sides: Vec<FabricDims> = (40..=80)
        .map(|s| FabricDims::new(s, s).expect("valid"))
        .collect();
    assert_warm_tables_match("gf2^64mult", &qodg, &sides);
}

// ── Property test over random circuits ───────────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_circuits_are_bit_identical_end_to_end(
        seed in 0u64..500, qubits in 3u32..28, gates in 1u64..120
    ) {
        let c = random_circuit(RandomCircuitConfig {
            qubits,
            gates,
            seed,
            ..Default::default()
        });
        let ft = lower_to_ft(&c).expect("random circuits lower cleanly");
        let qodg = Qodg::from_ft_circuit(&ft);
        assert_iig_matches("prop", &qodg);
        assert_qodg_matches("prop", &qodg);

        let params = PhysicalParams::dac13();
        let options = EstimatorOptions::default();
        let dims = FabricDims::dac13();
        let direct = Estimator::with_options(dims, params.clone(), options)
            .estimate(&qodg)
            .expect("fits the 60x60 fabric");
        let naive = naive_estimate(&qodg, dims, &params, options).expect("fits");
        prop_assert_eq!(direct.latency, naive.0);
        prop_assert_eq!(direct.l_cnot_avg, naive.1);
        prop_assert_eq!(direct.d_uncong, naive.2);

        let sweep = sweep_fabrics(&qodg, &params, options, [dims]);
        let point = sweep[0].estimate.as_ref().expect("fits");
        prop_assert_eq!(point.latency, direct.latency);
        prop_assert_eq!(&point.critical, &direct.critical);
    }
}
