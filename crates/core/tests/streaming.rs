//! Differential suite: the streaming profile builder and estimator must be
//! *bit-identical* to the materialized pipeline on every workload both
//! paths can run, for every chunk size.
//!
//! This is the load-bearing guarantee of `leqa::stream`: the `leqa-api`
//! session silently switches to the streaming path above its op-count
//! threshold, so any divergence — even one ULP in a float — would make an
//! estimate depend on *how* it was computed. Equality here is `==` on
//! `f64`s, never a tolerance.

use leqa::stream::{FnSource, GateSource, StreamingProfileBuilder};
use leqa::{Estimate, Estimator, EstimatorOptions, ProfileData};
use leqa_circuit::{decompose::lower_to_ft, FtCircuit, Qodg, QubitId};
use leqa_fabric::{FabricDims, GateDelays, Micros, PhysicalParams};
use leqa_workloads::{circuit_by_name, stream_by_name, SUITE};
use proptest::prelude::*;

/// The chunk sizes the issue pins: degenerate (every pair its own chunk),
/// prime and misaligned, and larger than most test streams.
const CHUNK_SIZES: [usize; 3] = [1, 7, 4096];

fn ft_by_name(name: &str) -> FtCircuit {
    let circuit = circuit_by_name(name).unwrap_or_else(|| panic!("workload {name}"));
    lower_to_ft(&circuit).expect("suite circuits lower")
}

fn estimator() -> Estimator {
    Estimator::new(FabricDims::dac13(), PhysicalParams::dac13())
}

/// Field-by-field bitwise equality, `critical` whole: both paths carry the
/// critical path's census and its line, and neither names QODG nodes.
fn assert_estimates_identical(streamed: &Estimate, materialized: &Estimate, label: &str) {
    assert_eq!(streamed.latency, materialized.latency, "{label}: latency");
    assert_eq!(
        streamed.l_cnot_avg, materialized.l_cnot_avg,
        "{label}: l_cnot_avg"
    );
    assert_eq!(
        streamed.l_one_qubit_avg, materialized.l_one_qubit_avg,
        "{label}: l_one_qubit_avg"
    );
    assert_eq!(
        streamed.d_uncong, materialized.d_uncong,
        "{label}: d_uncong"
    );
    assert_eq!(
        streamed.avg_zone_area, materialized.avg_zone_area,
        "{label}: avg_zone_area"
    );
    assert_eq!(
        streamed.zone_side, materialized.zone_side,
        "{label}: zone_side"
    );
    assert_eq!(streamed.esq, materialized.esq, "{label}: esq");
    assert_eq!(
        streamed.qubit_count, materialized.qubit_count,
        "{label}: qubit_count"
    );
    assert_eq!(
        streamed.critical, materialized.critical,
        "{label}: critical"
    );
}

/// Streams `ft` through the builder at `chunk` pairs and checks the
/// profile and estimate against the materialized pipeline.
fn check_workload(ft: &FtCircuit, name: &str) {
    let qodg = Qodg::from_ft_circuit(ft);
    let materialized_profile = ProfileData::new(&qodg);
    let est = estimator();
    let materialized = est.estimate(&qodg).expect("suite fits the dac13 fabric");

    for chunk in CHUNK_SIZES {
        let mut builder = StreamingProfileBuilder::with_chunk_pairs(ft.num_qubits(), chunk);
        for op in GateSource::gates(ft) {
            builder.push(op);
        }
        let profile = builder.finish().expect("well-formed stream");
        assert_eq!(
            profile, materialized_profile,
            "{name} chunk={chunk}: ProfileData must be bit-identical"
        );
    }

    let streamed = est.estimate_stream(ft).expect("well-formed stream");
    assert_estimates_identical(&streamed, &materialized, name);
}

#[test]
fn the_whole_suite_is_bit_identical_under_streaming() {
    for bench in &SUITE {
        let ft = lower_to_ft(&bench.circuit()).expect("suite circuits lower");
        check_workload(&ft, bench.name);
    }
}

#[test]
fn parametric_workloads_are_bit_identical_under_streaming() {
    for name in [
        "qft_16",
        "qft_24_8",
        "random_12_200",
        "random_16_400_7",
        "shor_8",
        "shor_16_2",
    ] {
        check_workload(&ft_by_name(name), name);
    }
}

#[test]
fn lazy_shor_stream_estimates_like_the_materialized_circuit() {
    // The api session's exact wiring: a generator-backed FnSource over the
    // lazy shor stream versus lower_to_ft of the materialized skeleton.
    let stream = stream_by_name("shor_12_2").expect("valid shor name");
    let source = FnSource::new(stream.num_qubits(), move || stream.ops());
    let ft = ft_by_name("shor_12_2");
    assert_eq!(source.num_qubits(), ft.num_qubits());

    let est = estimator();
    let streamed = est.estimate_stream(&source).unwrap();
    let materialized = est.estimate(&Qodg::from_ft_circuit(&ft)).unwrap();
    assert_estimates_identical(&streamed, &materialized, "shor_12_2");
}

/// Every gate delay zero and routing left out of the node delays: every
/// path has length 0, so the end node keeps its first candidate, the last
/// op on the first touched wire, and the census is that path's. The
/// stream must pick the same path as the graph walk, not `start`.
#[test]
fn zero_length_critical_paths_stream_like_the_graph_walk() {
    let params = PhysicalParams::dac13()
        .to_builder()
        .gate_delays(GateDelays::from_fn(|_| Micros::ZERO, Micros::ZERO))
        .build()
        .unwrap();
    let options = EstimatorOptions {
        update_critical_path: false,
        ..EstimatorOptions::default()
    };
    let est = Estimator::with_options(FabricDims::dac13(), params, options);

    let mut triangle = FtCircuit::new(3);
    for (c, t) in [(0, 1), (1, 2), (2, 0)] {
        triangle.push_cnot(QubitId(c), QubitId(t)).unwrap();
    }
    for (ft, name) in [
        (triangle, "cnot triangle"),
        (ft_by_name("shor_8"), "shor_8"),
    ] {
        let materialized = est.estimate(&Qodg::from_ft_circuit(&ft)).unwrap();
        assert_eq!(materialized.critical.length, Micros::ZERO, "{name}");
        assert!(materialized.critical.cnot_count > 0, "{name}");
        let streamed = est.estimate_stream(&ft).unwrap();
        assert_estimates_identical(&streamed, &materialized, name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chunking must never change a byte of the profile or the estimate,
    /// whatever the stream looks like.
    #[test]
    fn chunking_never_changes_profile_or_estimate(
        qubits in 3u32..14,
        gates in 0u64..240,
        seed in 0u64..1_000_000,
    ) {
        let circuit = leqa_workloads::random_circuit(leqa_workloads::RandomCircuitConfig {
            qubits,
            gates,
            seed,
            ..Default::default()
        });
        let ft = lower_to_ft(&circuit).expect("random circuits lower");
        let qodg = Qodg::from_ft_circuit(&ft);
        let materialized_profile = ProfileData::new(&qodg);
        let est = estimator();
        let materialized = est.estimate(&qodg).expect("fits");

        for chunk in CHUNK_SIZES {
            let mut builder =
                StreamingProfileBuilder::with_chunk_pairs(ft.num_qubits(), chunk);
            for op in GateSource::gates(&ft) {
                builder.push(op);
            }
            let profile = builder.finish().expect("well-formed");
            prop_assert!(
                profile == materialized_profile,
                "qubits={qubits} gates={gates} seed={seed} chunk={chunk}"
            );
            let streamed = est
                .estimate_stream_with_data(ft.num_qubits(), &profile, GateSource::gates(&ft))
                .expect("well-formed");
            assert_estimates_identical(
                &streamed,
                &materialized,
                &format!("random qubits={qubits} gates={gates} seed={seed} chunk={chunk}"),
            );
        }
    }
}
