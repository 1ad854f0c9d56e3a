//! Golden pins of the mapper's routing and booking kernel.
//!
//! Every case maps one program under one configuration and compares the
//! outcome with a constant: the latency's bits, every `MappingStats` field
//! (the congestion wait as bits), and FNV-1a hashes of the channel
//! heatmap, the placement and the trace. The grid crosses four programs,
//! fabric sides 12 and 60, channel capacity 1 and 5, the three routers,
//! both movement models and three fabric maps: none, a slow capacity-1
//! overlay over the left half, and a seeded 3% defect map. `Unroutable` is
//! a valid pinned outcome.
//!
//! The constants were captured from the mapper as it was before transfers
//! were routed and booked by dense channel id, so they pin that the id
//! kernel schedules bit for bit as the `Vec<Channel>` kernel did. Overlay
//! cases leave `outbound_wait` out of their trace hash: the old kernel
//! counted slow overlay hops as queueing there, which
//! `outbound_wait_counts_only_queueing_on_a_slow_overlay` now rules out.
//!
//! A second table pins `initial_placement` for every strategy on the same
//! programs, sides and maps.
//!
//! On a mismatch the test prints every case's current line, so an
//! intended schedule change is re-pinned by pasting that output here.

use std::sync::Arc;

use leqa_circuit::decompose::lower_to_ft;
use leqa_circuit::{Iig, Qodg};
use leqa_fabric::{FabricDims, FabricMap, PhysicalParams, RegionOverlay, Ulb};
use qspr::{
    initial_placement, MapError, Mapper, MapperConfig, MappingResult, MovementModel,
    PlacementStrategy, RouterStrategy, Trace,
};

const PROGRAMS: [&str; 4] = ["8bitadder", "hwb15ps", "qft_16", "random_24_256_7"];
const SIDES: [u32; 2] = [12, 60];
const CAPACITIES: [u32; 2] = [1, 5];
const ROUTERS: [RouterStrategy; 3] = [
    RouterStrategy::Xy,
    RouterStrategy::Yx,
    RouterStrategy::Adaptive,
];
const MOVEMENTS: [MovementModel; 2] = [MovementModel::HomeBased, MovementModel::Drift];
const MAPS: [&str; 3] = ["none", "overlay", "defect"];
const STRATEGIES: [PlacementStrategy; 3] = [
    PlacementStrategy::IigCluster,
    PlacementStrategy::RowMajor,
    PlacementStrategy::Random,
];

/// FNV-1a over little-endian `u64` words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn qodg(name: &str) -> Qodg {
    let circuit = leqa_workloads::circuit_by_name(name).expect("known workload");
    Qodg::from_ft_circuit(&lower_to_ft(&circuit).expect("lowerable"))
}

fn fabric_map(kind: &str, side: u32) -> Option<FabricMap> {
    let dims = FabricDims::new(side, side).unwrap();
    match kind {
        "none" => None,
        "overlay" => {
            let mut map = FabricMap::pristine(dims);
            map.push_overlay(RegionOverlay {
                x0: 0,
                y0: 0,
                x1: side / 2 - 1,
                y1: side - 1,
                t_move_us: Some(250.0),
                qubit_speed: None,
                channel_capacity: Some(1),
            })
            .unwrap();
            Some(map)
        }
        "defect" => Some(FabricMap::with_random_defects(dims, 0.03, 0.03, 3).unwrap()),
        _ => unreachable!(),
    }
}

fn placement_hash(placement: &[Ulb]) -> u64 {
    fnv(placement
        .iter()
        .map(|u| u64::from(u.x) << 32 | u64::from(u.y)))
}

fn trace_hash(trace: &Trace, with_wait: bool) -> u64 {
    fnv(trace.records().iter().flat_map(|r| {
        [
            r.node.0 as u64,
            r.start.as_f64().to_bits(),
            r.end.as_f64().to_bits(),
            u64::from(r.distance),
            if with_wait {
                r.outbound_wait.as_f64().to_bits()
            } else {
                0
            },
        ]
    }))
}

fn outcome_line(outcome: Result<(MappingResult, Trace), MapError>, with_wait: bool) -> String {
    match outcome {
        Ok((r, trace)) => {
            let s = &r.stats;
            format!(
                "lat={:016x} one={} cnot={} hops={} dist={} wait={:016x} trav={} max={} \
                 load={:016x} place={:016x} trace={:016x}",
                r.latency.as_f64().to_bits(),
                s.one_qubit_ops,
                s.cnot_ops,
                s.total_hops,
                s.total_cnot_distance,
                s.congestion_wait.as_f64().to_bits(),
                s.channel_traversals,
                s.max_channel_load,
                fnv(r.channel_load.iter().copied()),
                placement_hash(&r.placement),
                trace_hash(&trace, with_wait),
            )
        }
        Err(MapError::Unroutable { .. }) => "unroutable".to_string(),
        Err(e) => panic!("unexpected mapping error: {e}"),
    }
}

/// Compares `got` with `want` line by line; on any mismatch prints the
/// whole current table and fails.
fn assert_table(got: &[(String, String)], want: &[(&str, &str)], what: &str) {
    let mismatches: Vec<&str> = got
        .iter()
        .enumerate()
        .filter(|(i, (case, line))| want.get(*i) != Some(&(case.as_str(), line.as_str())))
        .map(|(_, (case, _))| case.as_str())
        .collect();
    if mismatches.is_empty() && got.len() == want.len() {
        return;
    }
    for (case, line) in got {
        eprintln!("    ({case:?}, {line:?}),");
    }
    panic!(
        "{what}: {} of {} cases drifted (pinned {}), first: {:?}",
        mismatches.len(),
        got.len(),
        want.len(),
        mismatches.first()
    );
}

#[test]
fn mapper_kernel_outcomes_are_pinned() {
    let mut got = Vec::new();
    for name in PROGRAMS {
        let program = qodg(name);
        for side in SIDES {
            let dims = FabricDims::new(side, side).unwrap();
            for kind in MAPS {
                let map = fabric_map(kind, side).map(Arc::new);
                for capacity in CAPACITIES {
                    let params = PhysicalParams::dac13()
                        .to_builder()
                        .channel_capacity(capacity)
                        .build()
                        .unwrap();
                    for router in ROUTERS {
                        for movement in MOVEMENTS {
                            let mut mapper = Mapper::with_config(MapperConfig {
                                dims,
                                params: params.clone(),
                                placement: PlacementStrategy::IigCluster,
                                router,
                                movement,
                                seed: 0,
                            });
                            if let Some(map) = &map {
                                mapper = mapper.with_fabric_map(Arc::clone(map));
                            }
                            let case =
                                format!("{name} {side} c{capacity} {router:?} {movement:?} {kind}");
                            let line =
                                outcome_line(mapper.map_with_trace(&program), kind != "overlay");
                            got.push((case, line));
                        }
                    }
                }
            }
        }
    }
    assert_table(&got, KERNEL, "kernel");
}

#[test]
fn initial_placements_are_pinned() {
    let mut got = Vec::new();
    for name in PROGRAMS {
        let iig = Iig::from_qodg(&qodg(name));
        for side in SIDES {
            let dims = FabricDims::new(side, side).unwrap();
            for kind in MAPS {
                let map = fabric_map(kind, side);
                for strategy in STRATEGIES {
                    let placement = initial_placement(&iig, dims, strategy, 7, map.as_ref())
                        .expect("every program fits");
                    got.push((
                        format!("{name} {side} {strategy:?} {kind}"),
                        format!("place={:016x}", placement_hash(&placement)),
                    ));
                }
            }
        }
    }
    assert_table(&got, PLACEMENTS, "placement");
}

const KERNEL: &[(&str, &str)] = &[
    ("8bitadder 12 c1 Xy HomeBased none", "lat=4141d3ed00000000 one=486 cnot=336 hops=2074 dist=1037 wait=417259f1c0000000 trav=2074 max=124 load=7d4cfa1dbf3d6ae5 place=210be7db33aa45a8 trace=caf0e63c527dbcd8"),
    ("8bitadder 12 c1 Xy Drift none", "lat=4141536400000000 one=486 cnot=336 hops=1295 dist=866 wait=4171059b80000000 trav=1295 max=44 load=1cf6807d77be848a place=210be7db33aa45a8 trace=0b28dca6a748b05d"),
    ("8bitadder 12 c1 Yx HomeBased none", "lat=4141c1e600000000 one=486 cnot=336 hops=2074 dist=1037 wait=4173b81600000000 trav=2074 max=124 load=7d4cfa1dbf3d6ae5 place=210be7db33aa45a8 trace=954ec972713a1192"),
    ("8bitadder 12 c1 Yx Drift none", "lat=41415d7300000000 one=486 cnot=336 hops=1294 dist=867 wait=4171cbcbc0000000 trav=1294 max=45 load=5a857e604b7de0d7 place=210be7db33aa45a8 trace=e1e15836039f41cf"),
    ("8bitadder 12 c1 Adaptive HomeBased none", "lat=4141966200000000 one=486 cnot=336 hops=2074 dist=1037 wait=4170798320000000 trav=2074 max=111 load=f940f0679cf3e917 place=210be7db33aa45a8 trace=d874154bb96888aa"),
    ("8bitadder 12 c1 Adaptive Drift none", "lat=4141496400000000 one=486 cnot=336 hops=1295 dist=866 wait=416fe7e400000000 trav=1295 max=43 load=973c2fa7833fde4e place=210be7db33aa45a8 trace=6834f2b826fe19b2"),
    ("8bitadder 12 c5 Xy HomeBased none", "lat=41416de000000000 one=486 cnot=336 hops=2074 dist=1037 wait=4162f77a80000000 trav=2074 max=124 load=7d4cfa1dbf3d6ae5 place=210be7db33aa45a8 trace=e0608d01992da66a"),
    ("8bitadder 12 c5 Xy Drift none", "lat=4141496400000000 one=486 cnot=336 hops=1295 dist=866 wait=4155657380000000 trav=1295 max=43 load=48df150b3b26e0ca place=210be7db33aa45a8 trace=55732899ed83c537"),
    ("8bitadder 12 c5 Yx HomeBased none", "lat=41416de000000000 one=486 cnot=336 hops=2074 dist=1037 wait=41680e5980000000 trav=2074 max=124 load=7d4cfa1dbf3d6ae5 place=210be7db33aa45a8 trace=48c7bf170fd0975f"),
    ("8bitadder 12 c5 Yx Drift none", "lat=4141496400000000 one=486 cnot=336 hops=1295 dist=866 wait=415b9e5280000000 trav=1295 max=45 load=086c0b0afc82643c place=210be7db33aa45a8 trace=405a030374216d16"),
    ("8bitadder 12 c5 Adaptive HomeBased none", "lat=41416de000000000 one=486 cnot=336 hops=2074 dist=1037 wait=415ccfa280000000 trav=2074 max=120 load=64090a3a2a8e78ef place=210be7db33aa45a8 trace=c1451a8d1302c270"),
    ("8bitadder 12 c5 Adaptive Drift none", "lat=4141496400000000 one=486 cnot=336 hops=1295 dist=866 wait=41484a3e00000000 trav=1295 max=43 load=f49d584dd23b5dc8 place=210be7db33aa45a8 trace=8fd1af300c257fa8"),
    ("8bitadder 12 c1 Xy HomeBased overlay", "lat=4141fa3f00000000 one=486 cnot=336 hops=2074 dist=1037 wait=41727fa960000000 trav=2074 max=124 load=7d4cfa1dbf3d6ae5 place=210be7db33aa45a8 trace=ff440b3794956962"),
    ("8bitadder 12 c1 Xy Drift overlay", "lat=4141549000000000 one=486 cnot=336 hops=1293 dist=864 wait=417106e940000000 trav=1293 max=44 load=0a472de83c93250c place=210be7db33aa45a8 trace=7191cce9a2b276db"),
    ("8bitadder 12 c1 Yx HomeBased overlay", "lat=4141fdaf00000000 one=486 cnot=336 hops=2074 dist=1037 wait=4173fdf800000000 trav=2074 max=124 load=7d4cfa1dbf3d6ae5 place=210be7db33aa45a8 trace=93d61ba5cd2a4b47"),
    ("8bitadder 12 c1 Yx Drift overlay", "lat=41415e9f00000000 one=486 cnot=336 hops=1294 dist=867 wait=4171cbf8c0000000 trav=1294 max=45 load=5a857e604b7de0d7 place=210be7db33aa45a8 trace=ee0b0adf406cfbf6"),
    ("8bitadder 12 c1 Adaptive HomeBased overlay", "lat=4141c1dc00000000 one=486 cnot=336 hops=2074 dist=1037 wait=4170a950a0000000 trav=2074 max=110 load=fe13bfb2bc6f2eb5 place=210be7db33aa45a8 trace=9a6ab2d054a8ae88"),
    ("8bitadder 12 c1 Adaptive Drift overlay", "lat=41414a9000000000 one=486 cnot=336 hops=1293 dist=864 wait=416fea7f80000000 trav=1293 max=43 load=8baf7e7ed6f2be96 place=210be7db33aa45a8 trace=21602cc70f9651dc"),
    ("8bitadder 12 c5 Xy HomeBased overlay", "lat=4141be8000000000 one=486 cnot=336 hops=2074 dist=1037 wait=4169ca6700000000 trav=2074 max=124 load=7d4cfa1dbf3d6ae5 place=210be7db33aa45a8 trace=64aa200106363bc4"),
    ("8bitadder 12 c5 Xy Drift overlay", "lat=41414a9000000000 one=486 cnot=336 hops=1293 dist=864 wait=41567e5c00000000 trav=1293 max=43 load=fff01a39e77c274c place=210be7db33aa45a8 trace=5e8566d2f8d5a266"),
    ("8bitadder 12 c5 Yx HomeBased overlay", "lat=4141b83100000000 one=486 cnot=336 hops=2074 dist=1037 wait=416f46be40000000 trav=2074 max=124 load=7d4cfa1dbf3d6ae5 place=210be7db33aa45a8 trace=a7e19a84f72c11f7"),
    ("8bitadder 12 c5 Yx Drift overlay", "lat=41414a9000000000 one=486 cnot=336 hops=1295 dist=866 wait=415fa5c200000000 trav=1295 max=45 load=086c0b0afc82643c place=210be7db33aa45a8 trace=e1131bca99bb628c"),
    ("8bitadder 12 c5 Adaptive HomeBased overlay", "lat=4141af3500000000 one=486 cnot=336 hops=2074 dist=1037 wait=4165224d80000000 trav=2074 max=129 load=94e0e4a34a8b85f7 place=210be7db33aa45a8 trace=ea06e8797f6e02f0"),
    ("8bitadder 12 c5 Adaptive Drift overlay", "lat=41414a9000000000 one=486 cnot=336 hops=1293 dist=864 wait=414b38e300000000 trav=1293 max=43 load=a58837aa79028754 place=210be7db33aa45a8 trace=5e8566d2f8d5a266"),
    ("8bitadder 12 c1 Xy HomeBased defect", "lat=4142277100000000 one=486 cnot=336 hops=2122 dist=1061 wait=4172a438c0000000 trav=2122 max=164 load=b6eeb4f6089ab37b place=210be7db33aa45a8 trace=96542fc494a87a5e"),
    ("8bitadder 12 c1 Xy Drift defect", "lat=41416b3300000000 one=486 cnot=336 hops=1325 dist=886 wait=416f07f340000000 trav=1365 max=51 load=0b654beb3ab25f68 place=210be7db33aa45a8 trace=30e3d20ace83c17e"),
    ("8bitadder 12 c1 Yx HomeBased defect", "lat=4141f62000000000 one=486 cnot=336 hops=2122 dist=1061 wait=417420e900000000 trav=2122 max=164 load=b6eeb4f6089ab37b place=210be7db33aa45a8 trace=2a9794104eb94392"),
    ("8bitadder 12 c1 Yx Drift defect", "lat=414160ca00000000 one=486 cnot=336 hops=1312 dist=881 wait=4171514120000000 trav=1360 max=59 load=6f81cddc8a8ebdab place=210be7db33aa45a8 trace=1fd4ec1c356e328a"),
    ("8bitadder 12 c1 Adaptive HomeBased defect", "lat=4141e7de00000000 one=486 cnot=336 hops=2122 dist=1061 wait=4170d24140000000 trav=2122 max=155 load=7c8f68e78ee505d1 place=210be7db33aa45a8 trace=e4f04503725d648c"),
    ("8bitadder 12 c1 Adaptive Drift defect", "lat=41416b3300000000 one=486 cnot=336 hops=1325 dist=886 wait=416e025800000000 trav=1365 max=49 load=a752c28365e4b642 place=210be7db33aa45a8 trace=15704ce3af350c6f"),
    ("8bitadder 12 c5 Xy HomeBased defect", "lat=41416f0c00000000 one=486 cnot=336 hops=2122 dist=1061 wait=4163edc5c0000000 trav=2122 max=164 load=b6eeb4f6089ab37b place=210be7db33aa45a8 trace=81ddb0fadba4d196"),
    ("8bitadder 12 c5 Xy Drift defect", "lat=414149fa00000000 one=486 cnot=336 hops=1312 dist=881 wait=41578d9980000000 trav=1360 max=59 load=0bb7bbcc71441597 place=210be7db33aa45a8 trace=58539b48b08ebbb2"),
    ("8bitadder 12 c5 Yx HomeBased defect", "lat=41416f0c00000000 one=486 cnot=336 hops=2122 dist=1061 wait=416938af40000000 trav=2122 max=164 load=b6eeb4f6089ab37b place=210be7db33aa45a8 trace=c264013fd1fb4aca"),
    ("8bitadder 12 c5 Yx Drift defect", "lat=414149fa00000000 one=486 cnot=336 hops=1312 dist=881 wait=41609c4540000000 trav=1360 max=59 load=6f81cddc8a8ebdab place=210be7db33aa45a8 trace=7c7243d950621890"),
    ("8bitadder 12 c5 Adaptive HomeBased defect", "lat=41416f0c00000000 one=486 cnot=336 hops=2122 dist=1061 wait=416067efc0000000 trav=2122 max=162 load=95d5deb715d16ea3 place=210be7db33aa45a8 trace=f0b65aab9ddd3e23"),
    ("8bitadder 12 c5 Adaptive Drift defect", "lat=414149fa00000000 one=486 cnot=336 hops=1312 dist=881 wait=4155767180000000 trav=1360 max=57 load=9dc07e0700470f1f place=210be7db33aa45a8 trace=9fb0232997e5804e"),
    ("8bitadder 60 c1 Xy HomeBased none", "lat=4141d3ed00000000 one=486 cnot=336 hops=2074 dist=1037 wait=417259f1c0000000 trav=2074 max=124 load=32dce322f91f52e5 place=8da2b791bed6b4b8 trace=caf0e63c527dbcd8"),
    ("8bitadder 60 c1 Xy Drift none", "lat=4141517500000000 one=486 cnot=336 hops=1395 dist=1048 wait=416a22b2c0000000 trav=1395 max=22 load=1987bde2b0cafedc place=8da2b791bed6b4b8 trace=55a6d288bcc1e914"),
    ("8bitadder 60 c1 Yx HomeBased none", "lat=4141c1e600000000 one=486 cnot=336 hops=2074 dist=1037 wait=4173b81600000000 trav=2074 max=124 load=32dce322f91f52e5 place=8da2b791bed6b4b8 trace=954ec972713a1192"),
    ("8bitadder 60 c1 Yx Drift none", "lat=414147d400000000 one=486 cnot=336 hops=1395 dist=1048 wait=41706ac100000000 trav=1395 max=20 load=d48bf0050a345bd0 place=8da2b791bed6b4b8 trace=9e024153548d29f2"),
    ("8bitadder 60 c1 Adaptive HomeBased none", "lat=4141966200000000 one=486 cnot=336 hops=2074 dist=1037 wait=4170798320000000 trav=2074 max=111 load=6580b99217d65f17 place=8da2b791bed6b4b8 trace=d874154bb96888aa"),
    ("8bitadder 60 c1 Adaptive Drift none", "lat=4141480b00000000 one=486 cnot=336 hops=1395 dist=1048 wait=416634bf00000000 trav=1395 max=22 load=201fa3dcb710c55e place=8da2b791bed6b4b8 trace=41ce40ed77ef0c46"),
    ("8bitadder 60 c5 Xy HomeBased none", "lat=41416de000000000 one=486 cnot=336 hops=2074 dist=1037 wait=4162f77a80000000 trav=2074 max=124 load=32dce322f91f52e5 place=8da2b791bed6b4b8 trace=e0608d01992da66a"),
    ("8bitadder 60 c5 Xy Drift none", "lat=4141470c00000000 one=486 cnot=336 hops=1395 dist=1048 wait=4154bb6700000000 trav=1395 max=22 load=1987bde2b0cafedc place=8da2b791bed6b4b8 trace=f0e4d75cba3f1dc0"),
    ("8bitadder 60 c5 Yx HomeBased none", "lat=41416de000000000 one=486 cnot=336 hops=2074 dist=1037 wait=41680e5980000000 trav=2074 max=124 load=32dce322f91f52e5 place=8da2b791bed6b4b8 trace=48c7bf170fd0975f"),
    ("8bitadder 60 c5 Yx Drift none", "lat=4141470c00000000 one=486 cnot=336 hops=1395 dist=1048 wait=4151358700000000 trav=1395 max=20 load=d48bf0050a345bd0 place=8da2b791bed6b4b8 trace=f8a720d21dd40969"),
    ("8bitadder 60 c5 Adaptive HomeBased none", "lat=41416de000000000 one=486 cnot=336 hops=2074 dist=1037 wait=415ccfa280000000 trav=2074 max=120 load=40a6e6ea3d4d14ef place=8da2b791bed6b4b8 trace=c1451a8d1302c270"),
    ("8bitadder 60 c5 Adaptive Drift none", "lat=4141470c00000000 one=486 cnot=336 hops=1395 dist=1048 wait=4131b7b400000000 trav=1395 max=22 load=ef767b1c186bbb0c place=8da2b791bed6b4b8 trace=845e7997d7eb6c5b"),
    ("8bitadder 60 c1 Xy HomeBased overlay", "lat=4141fa3f00000000 one=486 cnot=336 hops=2074 dist=1037 wait=41727fa960000000 trav=2074 max=124 load=32dce322f91f52e5 place=8da2b791bed6b4b8 trace=ff440b3794956962"),
    ("8bitadder 60 c1 Xy Drift overlay", "lat=4141517500000000 one=486 cnot=336 hops=1393 dist=1046 wait=416a237980000000 trav=1393 max=22 load=55cb5c66eddfb952 place=8da2b791bed6b4b8 trace=ef86b81372654c11"),
    ("8bitadder 60 c1 Yx HomeBased overlay", "lat=4141fdaf00000000 one=486 cnot=336 hops=2074 dist=1037 wait=4173fdf800000000 trav=2074 max=124 load=32dce322f91f52e5 place=8da2b791bed6b4b8 trace=93d61ba5cd2a4b47"),
    ("8bitadder 60 c1 Yx Drift overlay", "lat=414147d400000000 one=486 cnot=336 hops=1395 dist=1048 wait=417069a5e0000000 trav=1395 max=20 load=d48bf0050a345bd0 place=8da2b791bed6b4b8 trace=b63ca00167dac02a"),
    ("8bitadder 60 c1 Adaptive HomeBased overlay", "lat=4141c1dc00000000 one=486 cnot=336 hops=2074 dist=1037 wait=4170a950a0000000 trav=2074 max=110 load=f0e25e6cbf74c4b5 place=8da2b791bed6b4b8 trace=9a6ab2d054a8ae88"),
    ("8bitadder 60 c1 Adaptive Drift overlay", "lat=4141480b00000000 one=486 cnot=336 hops=1393 dist=1046 wait=41665dff00000000 trav=1393 max=22 load=0cfd7e4a700dbe5c place=8da2b791bed6b4b8 trace=66817d971259f375"),
    ("8bitadder 60 c5 Xy HomeBased overlay", "lat=4141be8000000000 one=486 cnot=336 hops=2074 dist=1037 wait=4169ca6700000000 trav=2074 max=124 load=32dce322f91f52e5 place=8da2b791bed6b4b8 trace=64aa200106363bc4"),
    ("8bitadder 60 c5 Xy Drift overlay", "lat=4141470c00000000 one=486 cnot=336 hops=1393 dist=1046 wait=4155cf2f00000000 trav=1393 max=22 load=55cb5c66eddfb952 place=8da2b791bed6b4b8 trace=e4172ae4790559e2"),
    ("8bitadder 60 c5 Yx HomeBased overlay", "lat=4141b83100000000 one=486 cnot=336 hops=2074 dist=1037 wait=416f46be40000000 trav=2074 max=124 load=32dce322f91f52e5 place=8da2b791bed6b4b8 trace=a7e19a84f72c11f7"),
    ("8bitadder 60 c5 Yx Drift overlay", "lat=4141470c00000000 one=486 cnot=336 hops=1395 dist=1048 wait=4153d46800000000 trav=1395 max=20 load=d48bf0050a345bd0 place=8da2b791bed6b4b8 trace=e187716915a5f5f1"),
    ("8bitadder 60 c5 Adaptive HomeBased overlay", "lat=4141af3500000000 one=486 cnot=336 hops=2074 dist=1037 wait=4165224d80000000 trav=2074 max=129 load=396eea1a6a3533f7 place=8da2b791bed6b4b8 trace=ea06e8797f6e02f0"),
    ("8bitadder 60 c5 Adaptive Drift overlay", "lat=4141470c00000000 one=486 cnot=336 hops=1393 dist=1046 wait=4132006600000000 trav=1393 max=21 load=86993d0258cdd110 place=8da2b791bed6b4b8 trace=e4172ae4790559e2"),
    ("8bitadder 60 c1 Xy HomeBased defect", "lat=4141ce4300000000 one=486 cnot=336 hops=2166 dist=1083 wait=4173bb1260000000 trav=2166 max=130 load=77d5e214e0153c0d place=656844de1c8a0365 trace=f5de89e21fd74baa"),
    ("8bitadder 60 c1 Xy Drift defect", "lat=414159d100000000 one=486 cnot=336 hops=1453 dist=1094 wait=416b1eddc0000000 trav=1473 max=27 load=079eae0421bda05c place=656844de1c8a0365 trace=cbdb18a8fe898653"),
    ("8bitadder 60 c1 Yx HomeBased defect", "lat=4141e18f00000000 one=486 cnot=336 hops=2166 dist=1083 wait=4172a65880000000 trav=2166 max=130 load=77d5e214e0153c0d place=656844de1c8a0365 trace=015ce96d63fbc807"),
    ("8bitadder 60 c1 Yx Drift defect", "lat=41415bca00000000 one=486 cnot=336 hops=1453 dist=1094 wait=417086d480000000 trav=1473 max=27 load=b13d87867a3480cc place=656844de1c8a0365 trace=0e17f697fc06a656"),
    ("8bitadder 60 c1 Adaptive HomeBased defect", "lat=4141ac7900000000 one=486 cnot=336 hops=2166 dist=1083 wait=4171f184a0000000 trav=2166 max=130 load=4f3ea6b4f5d3e589 place=656844de1c8a0365 trace=3564eea5d6ceff59"),
    ("8bitadder 60 c1 Adaptive Drift defect", "lat=4141599f00000000 one=486 cnot=336 hops=1453 dist=1094 wait=416ad30d00000000 trav=1473 max=25 load=b56248bf2951a156 place=656844de1c8a0365 trace=c10f73c8716005b5"),
    ("8bitadder 60 c5 Xy HomeBased defect", "lat=41416fd400000000 one=486 cnot=336 hops=2166 dist=1083 wait=416929e500000000 trav=2166 max=130 load=77d5e214e0153c0d place=656844de1c8a0365 trace=40cc428d2319928f"),
    ("8bitadder 60 c5 Xy Drift defect", "lat=41414a9000000000 one=486 cnot=336 hops=1453 dist=1094 wait=4158eab100000000 trav=1473 max=27 load=079eae0421bda05c place=656844de1c8a0365 trace=fae881760e11e2f1"),
    ("8bitadder 60 c5 Yx HomeBased defect", "lat=41416fd400000000 one=486 cnot=336 hops=2166 dist=1083 wait=41641c2780000000 trav=2166 max=130 load=77d5e214e0153c0d place=656844de1c8a0365 trace=0e50a846a8db4242"),
    ("8bitadder 60 c5 Yx Drift defect", "lat=41414a9000000000 one=486 cnot=336 hops=1453 dist=1094 wait=415dc54000000000 trav=1473 max=27 load=b13d87867a3480cc place=656844de1c8a0365 trace=49981943bb053a61"),
    ("8bitadder 60 c5 Adaptive HomeBased defect", "lat=41416fd400000000 one=486 cnot=336 hops=2166 dist=1083 wait=4163aaed40000000 trav=2166 max=130 load=9a95a4df4f086da5 place=656844de1c8a0365 trace=f8e8fb268ce62fe0"),
    ("8bitadder 60 c5 Adaptive Drift defect", "lat=41414a9000000000 one=486 cnot=336 hops=1453 dist=1094 wait=4158e7a500000000 trav=1473 max=26 load=5a9926c0eef69b46 place=656844de1c8a0365 trace=956e16a20eb898b4"),
    ("hwb15ps 12 c1 Xy HomeBased none", "lat=41689b2180000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=4195c9df78000000 trav=14112 max=568 load=af12b889ac7a5270 place=207dd30d68ee5735 trace=e357c9c9310dd419"),
    ("hwb15ps 12 c1 Xy Drift none", "lat=4168261e80000000 one=2331 cnot=1554 hops=6677 dist=4462 wait=4191081400000000 trav=6677 max=180 load=fd1792234e60bc92 place=207dd30d68ee5735 trace=f6ee02dfd971f8d6"),
    ("hwb15ps 12 c1 Yx HomeBased none", "lat=4168b909c0000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=41950ae370000000 trav=14112 max=568 load=af12b889ac7a5270 place=207dd30d68ee5735 trace=11622c4eae5930b6"),
    ("hwb15ps 12 c1 Yx Drift none", "lat=41682a6a80000000 one=2331 cnot=1554 hops=6844 dist=4534 wait=4191e437a0000000 trav=6844 max=177 load=8aee4d34d1bfd185 place=207dd30d68ee5735 trace=d909a883d07dbfa0"),
    ("hwb15ps 12 c1 Adaptive HomeBased none", "lat=41686f0280000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=41931b0068000000 trav=14112 max=517 load=339d03be43adc029 place=207dd30d68ee5735 trace=533c5ff4574e5b36"),
    ("hwb15ps 12 c1 Adaptive Drift none", "lat=416817e680000000 one=2331 cnot=1554 hops=6704 dist=4456 wait=418f9b1f30000000 trav=6704 max=138 load=4c3684cda9c98e0f place=207dd30d68ee5735 trace=3f54a284756e60bb"),
    ("hwb15ps 12 c5 Xy HomeBased none", "lat=41685ed900000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=41876f8a30000000 trav=14112 max=568 load=af12b889ac7a5270 place=207dd30d68ee5735 trace=10c3ffc7b5829dc9"),
    ("hwb15ps 12 c5 Xy Drift none", "lat=4168127100000000 one=2331 cnot=1554 hops=6706 dist=4457 wait=417861df60000000 trav=6706 max=144 load=f223d41d002ac63b place=207dd30d68ee5735 trace=42dad866a0bc95a2"),
    ("hwb15ps 12 c5 Yx HomeBased none", "lat=41685ed900000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=418543f480000000 trav=14112 max=568 load=af12b889ac7a5270 place=207dd30d68ee5735 trace=90328e09673028f2"),
    ("hwb15ps 12 c5 Yx Drift none", "lat=4168127100000000 one=2331 cnot=1554 hops=6706 dist=4457 wait=4178027fc0000000 trav=6706 max=148 load=dd4cfb0750189b07 place=207dd30d68ee5735 trace=a5ece2fdbe3a48ff"),
    ("hwb15ps 12 c5 Adaptive HomeBased none", "lat=41685ed900000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=4180468790000000 trav=14112 max=550 load=b711db84e187b1ec place=207dd30d68ee5735 trace=cee402e0755188db"),
    ("hwb15ps 12 c5 Adaptive Drift none", "lat=4168127100000000 one=2331 cnot=1554 hops=6706 dist=4457 wait=4169555780000000 trav=6706 max=142 load=31e7950cbec1a267 place=207dd30d68ee5735 trace=35cd82124d004d95"),
    ("hwb15ps 12 c1 Xy HomeBased overlay", "lat=416900bf40000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=4196184b68000000 trav=14112 max=568 load=af12b889ac7a5270 place=207dd30d68ee5735 trace=1d73d06ea90f83ae"),
    ("hwb15ps 12 c1 Xy Drift overlay", "lat=4168580080000000 one=2331 cnot=1554 hops=6704 dist=4448 wait=41917d88c0000000 trav=6704 max=129 load=c29fa92ac4bd10b3 place=207dd30d68ee5735 trace=47c3e681ea17b927"),
    ("hwb15ps 12 c1 Yx HomeBased overlay", "lat=41693b9700000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=4195814970000000 trav=14112 max=568 load=af12b889ac7a5270 place=207dd30d68ee5735 trace=f06b271180051125"),
    ("hwb15ps 12 c1 Yx Drift overlay", "lat=4168564b00000000 one=2331 cnot=1554 hops=6733 dist=4501 wait=4192319798000000 trav=6733 max=137 load=2deba0069e39a142 place=207dd30d68ee5735 trace=b1b993384435d8a6"),
    ("hwb15ps 12 c1 Adaptive HomeBased overlay", "lat=4168e299c0000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=41936a2328000000 trav=14112 max=515 load=3d04b7eebd6b2c97 place=207dd30d68ee5735 trace=419f9df42492f936"),
    ("hwb15ps 12 c1 Adaptive Drift overlay", "lat=4168310c00000000 one=2331 cnot=1554 hops=6610 dist=4273 wait=418e782ee0000000 trav=6610 max=131 load=c8dcbef6da34a3cb place=207dd30d68ee5735 trace=62dfd258abc14f5e"),
    ("hwb15ps 12 c5 Xy HomeBased overlay", "lat=4168f75f40000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=419197dd60000000 trav=14112 max=568 load=af12b889ac7a5270 place=207dd30d68ee5735 trace=2d6346885f3cb08c"),
    ("hwb15ps 12 c5 Xy Drift overlay", "lat=41683056c0000000 one=2331 cnot=1554 hops=6603 dist=4270 wait=4180a91ae0000000 trav=6603 max=141 load=88a98d0bef003846 place=207dd30d68ee5735 trace=5a38046bf4c67898"),
    ("hwb15ps 12 c5 Yx HomeBased overlay", "lat=4169171100000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=4191ef84c0000000 trav=14112 max=568 load=af12b889ac7a5270 place=207dd30d68ee5735 trace=5f34f6a7762755c0"),
    ("hwb15ps 12 c5 Yx Drift overlay", "lat=4168343c40000000 one=2331 cnot=1554 hops=6603 dist=4271 wait=4181894cf0000000 trav=6603 max=138 load=7d49747931edfcb8 place=207dd30d68ee5735 trace=d4af68ec0f2ee639"),
    ("hwb15ps 12 c5 Adaptive HomeBased overlay", "lat=4168ddfc80000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=418e18f380000000 trav=14112 max=543 load=da7f1ff697b021b0 place=207dd30d68ee5735 trace=a2610dddd29e93eb"),
    ("hwb15ps 12 c5 Adaptive Drift overlay", "lat=41683056c0000000 one=2331 cnot=1554 hops=6612 dist=4274 wait=41796d70e0000000 trav=6612 max=139 load=ad6b65fd09c84031 place=207dd30d68ee5735 trace=e5a4d8f965463a00"),
    ("hwb15ps 12 c1 Xy HomeBased defect", "lat=41689ad680000000 one=2331 cnot=1554 hops=14200 dist=7100 wait=4196966db8000000 trav=14200 max=664 load=715013c5408d8f93 place=5c6219687d87e667 trace=42660e40349c539b"),
    ("hwb15ps 12 c1 Xy Drift defect", "lat=416843a040000000 one=2331 cnot=1554 hops=6909 dist=4608 wait=419254e860000000 trav=7105 max=217 load=4bc0bce767ba53f0 place=5c6219687d87e667 trace=4d6fc87e5e3f667a"),
    ("hwb15ps 12 c1 Yx HomeBased defect", "lat=4168b90b00000000 one=2331 cnot=1554 hops=14200 dist=7100 wait=4195cbe980000000 trav=14200 max=664 load=715013c5408d8f93 place=5c6219687d87e667 trace=ec25222d97e4fb7d"),
    ("hwb15ps 12 c1 Yx Drift defect", "lat=41683c45c0000000 one=2331 cnot=1554 hops=6909 dist=4608 wait=41921830c8000000 trav=7105 max=211 load=9fff91868a704dec place=5c6219687d87e667 trace=3d5e72e183f3fe8a"),
    ("hwb15ps 12 c1 Adaptive HomeBased defect", "lat=41687cf0c0000000 one=2331 cnot=1554 hops=14200 dist=7100 wait=419450e858000000 trav=14200 max=618 load=3dc941b8884fbc65 place=5c6219687d87e667 trace=45acced97d76dd27"),
    ("hwb15ps 12 c1 Adaptive Drift defect", "lat=4168374c00000000 one=2331 cnot=1554 hops=6954 dist=4622 wait=41910c8ad0000000 trav=7162 max=218 load=5874ac27e24b1e7d place=5c6219687d87e667 trace=3d835a8ca10c52c4"),
    ("hwb15ps 12 c5 Xy HomeBased defect", "lat=41685f6f00000000 one=2331 cnot=1554 hops=14200 dist=7100 wait=418a466620000000 trav=14200 max=664 load=715013c5408d8f93 place=5c6219687d87e667 trace=c8b659e1efe66e89"),
    ("hwb15ps 12 c5 Xy Drift defect", "lat=416814fd80000000 one=2331 cnot=1554 hops=6833 dist=4554 wait=417c3af040000000 trav=7045 max=160 load=a9c64ef78ccdd320 place=5c6219687d87e667 trace=8bb9e7b2a02406e3"),
    ("hwb15ps 12 c5 Yx HomeBased defect", "lat=41685f6f00000000 one=2331 cnot=1554 hops=14200 dist=7100 wait=4187d4f9b0000000 trav=14200 max=664 load=715013c5408d8f93 place=5c6219687d87e667 trace=cb816b286f5b81ca"),
    ("hwb15ps 12 c5 Yx Drift defect", "lat=416814fd80000000 one=2331 cnot=1554 hops=6833 dist=4554 wait=417bba4ee0000000 trav=7045 max=163 load=570f3b031293aa50 place=5c6219687d87e667 trace=16210a12da53955d"),
    ("hwb15ps 12 c5 Adaptive HomeBased defect", "lat=41685f6f00000000 one=2331 cnot=1554 hops=14200 dist=7100 wait=4184f70760000000 trav=14200 max=649 load=004ea1f94857e6e3 place=5c6219687d87e667 trace=98e471f5d30734ad"),
    ("hwb15ps 12 c5 Adaptive Drift defect", "lat=416814fd80000000 one=2331 cnot=1554 hops=6833 dist=4554 wait=41767c5c20000000 trav=7045 max=157 load=598e5f02ed9659d8 place=5c6219687d87e667 trace=218b54bc22c969fa"),
    ("hwb15ps 60 c1 Xy HomeBased none", "lat=41689b2180000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=4195c9df78000000 trav=14112 max=568 load=69187b17c1f35870 place=cc69c75c485e6195 trace=e357c9c9310dd419"),
    ("hwb15ps 60 c1 Xy Drift none", "lat=41684762c0000000 one=2331 cnot=1554 hops=8316 dist=6654 wait=418e1d3580000000 trav=8316 max=54 load=40675a26cadaf97f place=cc69c75c485e6195 trace=9174688583a3c487"),
    ("hwb15ps 60 c1 Yx HomeBased none", "lat=4168b909c0000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=41950ae370000000 trav=14112 max=568 load=69187b17c1f35870 place=cc69c75c485e6195 trace=11622c4eae5930b6"),
    ("hwb15ps 60 c1 Yx Drift none", "lat=41683c0ec0000000 one=2331 cnot=1554 hops=8192 dist=6526 wait=418efcaf30000000 trav=8192 max=72 load=53a886e952e0021b place=cc69c75c485e6195 trace=52a7719f13c46c72"),
    ("hwb15ps 60 c1 Adaptive HomeBased none", "lat=41686f0280000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=41931b0068000000 trav=14112 max=517 load=a2d14f3959240c29 place=cc69c75c485e6195 trace=533c5ff4574e5b36"),
    ("hwb15ps 60 c1 Adaptive Drift none", "lat=4168296a40000000 one=2331 cnot=1554 hops=8196 dist=6530 wait=41865595e0000000 trav=8196 max=50 load=4ef6ce86aeabd737 place=cc69c75c485e6195 trace=645db34af0050511"),
    ("hwb15ps 60 c5 Xy HomeBased none", "lat=41685ed900000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=41876f8a30000000 trav=14112 max=568 load=69187b17c1f35870 place=cc69c75c485e6195 trace=10c3ffc7b5829dc9"),
    ("hwb15ps 60 c5 Xy Drift none", "lat=416826e900000000 one=2331 cnot=1554 hops=8196 dist=6530 wait=4173d08460000000 trav=8196 max=53 load=ba6bba1ad891f749 place=cc69c75c485e6195 trace=2fdf2d6e1c151ead"),
    ("hwb15ps 60 c5 Yx HomeBased none", "lat=41685ed900000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=418543f480000000 trav=14112 max=568 load=69187b17c1f35870 place=cc69c75c485e6195 trace=90328e09673028f2"),
    ("hwb15ps 60 c5 Yx Drift none", "lat=416826e900000000 one=2331 cnot=1554 hops=8196 dist=6530 wait=41701ae860000000 trav=8196 max=75 load=aa7d769cdad23475 place=cc69c75c485e6195 trace=060079c6382a1768"),
    ("hwb15ps 60 c5 Adaptive HomeBased none", "lat=41685ed900000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=4180468790000000 trav=14112 max=550 load=3bd96b78d39fddec place=cc69c75c485e6195 trace=cee402e0755188db"),
    ("hwb15ps 60 c5 Adaptive Drift none", "lat=416826e900000000 one=2331 cnot=1554 hops=8196 dist=6530 wait=415d3ec980000000 trav=8196 max=49 load=f85c450e159b79e7 place=cc69c75c485e6195 trace=2a4f467600ecd1f6"),
    ("hwb15ps 60 c1 Xy HomeBased overlay", "lat=416900bf40000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=4196184b68000000 trav=14112 max=568 load=69187b17c1f35870 place=cc69c75c485e6195 trace=1d73d06ea90f83ae"),
    ("hwb15ps 60 c1 Xy Drift overlay", "lat=4168490080000000 one=2331 cnot=1554 hops=8314 dist=6652 wait=418e1d12d0000000 trav=8314 max=54 load=6b288420d9093fa9 place=cc69c75c485e6195 trace=3fc1091e0b6e93e0"),
    ("hwb15ps 60 c1 Yx HomeBased overlay", "lat=41693b9700000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=4195814970000000 trav=14112 max=568 load=69187b17c1f35870 place=cc69c75c485e6195 trace=f06b271180051125"),
    ("hwb15ps 60 c1 Yx Drift overlay", "lat=4168402000000000 one=2331 cnot=1554 hops=8192 dist=6526 wait=418f00cc50000000 trav=8192 max=72 load=53a886e952e0021b place=cc69c75c485e6195 trace=0ed92a1d5ea953d4"),
    ("hwb15ps 60 c1 Adaptive HomeBased overlay", "lat=4168e299c0000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=41936a2328000000 trav=14112 max=515 load=1b8fa49aae90ed97 place=cc69c75c485e6195 trace=419f9df42492f936"),
    ("hwb15ps 60 c1 Adaptive Drift overlay", "lat=41682fa400000000 one=2331 cnot=1554 hops=8194 dist=6528 wait=418661ac40000000 trav=8194 max=50 load=f5a0f555a8e19e15 place=cc69c75c485e6195 trace=afd92d0a8e310ba2"),
    ("hwb15ps 60 c5 Xy HomeBased overlay", "lat=4168f75f40000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=419197dd60000000 trav=14112 max=568 load=69187b17c1f35870 place=cc69c75c485e6195 trace=2d6346885f3cb08c"),
    ("hwb15ps 60 c5 Xy Drift overlay", "lat=41682c9f80000000 one=2331 cnot=1554 hops=8194 dist=6528 wait=4174a44c00000000 trav=8194 max=53 load=4f55a0b848bb2f4d place=cc69c75c485e6195 trace=2256422735b7d5c7"),
    ("hwb15ps 60 c5 Yx HomeBased overlay", "lat=4169171100000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=4191ef84c0000000 trav=14112 max=568 load=69187b17c1f35870 place=cc69c75c485e6195 trace=5f34f6a7762755c0"),
    ("hwb15ps 60 c5 Yx Drift overlay", "lat=41682d4840000000 one=2331 cnot=1554 hops=8196 dist=6530 wait=417060efe0000000 trav=8196 max=75 load=aa7d769cdad23475 place=cc69c75c485e6195 trace=adb10da178517d1f"),
    ("hwb15ps 60 c5 Adaptive HomeBased overlay", "lat=4168ddfc80000000 one=2331 cnot=1554 hops=14112 dist=7056 wait=418e18f380000000 trav=14112 max=543 load=c326dbf323646ab0 place=cc69c75c485e6195 trace=a2610dddd29e93eb"),
    ("hwb15ps 60 c5 Adaptive Drift overlay", "lat=41682c9f80000000 one=2331 cnot=1554 hops=8194 dist=6528 wait=41603ef840000000 trav=8194 max=49 load=5a77c930f193259d place=cc69c75c485e6195 trace=c3de893d40fb67bc"),
    ("hwb15ps 60 c1 Xy HomeBased defect", "lat=4168bde580000000 one=2331 cnot=1554 hops=13816 dist=6908 wait=4195c19890000000 trav=13816 max=624 load=3886415edc64d250 place=eb12f36c459aa53a trace=41df519596924d09"),
    ("hwb15ps 60 c1 Xy Drift defect", "lat=41684d75c0000000 one=2331 cnot=1554 hops=8583 dist=6847 wait=41903054e8000000 trav=8685 max=79 load=4f34629ccd7e0fea place=eb12f36c459aa53a trace=2c98f454e17ca7f9"),
    ("hwb15ps 60 c1 Yx HomeBased defect", "lat=4168b79b80000000 one=2331 cnot=1554 hops=13816 dist=6908 wait=4194e201f8000000 trav=13816 max=624 load=3886415edc64d250 place=eb12f36c459aa53a trace=d34c512902462992"),
    ("hwb15ps 60 c1 Yx Drift defect", "lat=4168516cc0000000 one=2331 cnot=1554 hops=8583 dist=6847 wait=4190535830000000 trav=8685 max=94 load=072dba717b7b4042 place=eb12f36c459aa53a trace=c7e64786c7128383"),
    ("hwb15ps 60 c1 Adaptive HomeBased defect", "lat=4168b8c640000000 one=2331 cnot=1554 hops=13816 dist=6908 wait=4193a13278000000 trav=13816 max=616 load=390b64142653ce41 place=eb12f36c459aa53a trace=b88f4abf7d4b3e29"),
    ("hwb15ps 60 c1 Adaptive Drift defect", "lat=41684cab40000000 one=2331 cnot=1554 hops=8583 dist=6847 wait=418e74e8c0000000 trav=8685 max=83 load=6627b91670e83ec8 place=eb12f36c459aa53a trace=c46c87074b6348f2"),
    ("hwb15ps 60 c5 Xy HomeBased defect", "lat=41685ba000000000 one=2331 cnot=1554 hops=13816 dist=6908 wait=4187be2cd0000000 trav=13816 max=624 load=3886415edc64d250 place=eb12f36c459aa53a trace=32becc8128e4c38d"),
    ("hwb15ps 60 c5 Xy Drift defect", "lat=41682b5a80000000 one=2331 cnot=1554 hops=8471 dist=6750 wait=4175edcaa0000000 trav=8595 max=80 load=12cc78d79acddb6a place=eb12f36c459aa53a trace=a2625aaa014ef6e1"),
    ("hwb15ps 60 c5 Yx HomeBased defect", "lat=41685ba000000000 one=2331 cnot=1554 hops=13816 dist=6908 wait=41874a4540000000 trav=13816 max=624 load=3886415edc64d250 place=eb12f36c459aa53a trace=e1994b3f69a5752e"),
    ("hwb15ps 60 c5 Yx Drift defect", "lat=41682b5a80000000 one=2331 cnot=1554 hops=8471 dist=6750 wait=41769c2960000000 trav=8595 max=94 load=9b1aa4f7db4e51f6 place=eb12f36c459aa53a trace=e764c92cd87e8a42"),
    ("hwb15ps 60 c5 Adaptive HomeBased defect", "lat=41685ba000000000 one=2331 cnot=1554 hops=13816 dist=6908 wait=4184544f20000000 trav=13816 max=620 load=ae7ad531d0591b7d place=eb12f36c459aa53a trace=b0e5702ba21ab6fb"),
    ("hwb15ps 60 c5 Adaptive Drift defect", "lat=41682b5a80000000 one=2331 cnot=1554 hops=8471 dist=6750 wait=4173e59c60000000 trav=8595 max=80 load=0ea0ab4489e809ce place=eb12f36c459aa53a trace=be9ef8f8e5fbd379"),
    ("qft_16 12 c1 Xy HomeBased none", "lat=41520fa200000000 one=1741 cnot=264 hops=1462 dist=731 wait=4174339be0000000 trav=1462 max=108 load=79d6577edf005b51 place=0f6286959dfac42a trace=e46ad6421a0c918b"),
    ("qft_16 12 c1 Xy Drift none", "lat=415209a080000000 one=1741 cnot=264 hops=712 dist=424 wait=4165e9b000000000 trav=712 max=52 load=de28590665d7ade1 place=0f6286959dfac42a trace=9bfec42d69a963a1"),
    ("qft_16 12 c1 Yx HomeBased none", "lat=41521ae200000000 one=1741 cnot=264 hops=1462 dist=731 wait=41735c7de0000000 trav=1462 max=108 load=79d6577edf005b51 place=0f6286959dfac42a trace=b06bb99fa1305657"),
    ("qft_16 12 c1 Yx Drift none", "lat=415209a080000000 one=1741 cnot=264 hops=712 dist=424 wait=416488f400000000 trav=712 max=51 load=d82f8c5de26c5537 place=0f6286959dfac42a trace=a9a34e66887fc4dc"),
    ("qft_16 12 c1 Adaptive HomeBased none", "lat=41520f4800000000 one=1741 cnot=264 hops=1462 dist=731 wait=4172643c20000000 trav=1462 max=109 load=8aef8288be9c43c1 place=0f6286959dfac42a trace=5b108509aececa34"),
    ("qft_16 12 c1 Adaptive Drift none", "lat=415209a080000000 one=1741 cnot=264 hops=712 dist=424 wait=415a699c80000000 trav=712 max=53 load=900231dc746937bb place=0f6286959dfac42a trace=c296c87e10e96d33"),
    ("qft_16 12 c5 Xy HomeBased none", "lat=41520ae580000000 one=1741 cnot=264 hops=1462 dist=731 wait=416e504240000000 trav=1462 max=108 load=79d6577edf005b51 place=0f6286959dfac42a trace=ec8a51d367b9f989"),
    ("qft_16 12 c5 Xy Drift none", "lat=4152096e80000000 one=1741 cnot=264 hops=712 dist=424 wait=4150e2fd00000000 trav=712 max=52 load=de28590665d7ade1 place=0f6286959dfac42a trace=8b45795584a8503e"),
    ("qft_16 12 c5 Yx HomeBased none", "lat=41520ae580000000 one=1741 cnot=264 hops=1462 dist=731 wait=416c62d740000000 trav=1462 max=108 load=79d6577edf005b51 place=0f6286959dfac42a trace=1269c4c2584ef169"),
    ("qft_16 12 c5 Yx Drift none", "lat=4152096e80000000 one=1741 cnot=264 hops=712 dist=424 wait=4149e92500000000 trav=712 max=51 load=d82f8c5de26c5537 place=0f6286959dfac42a trace=ffe11f85c462d330"),
    ("qft_16 12 c5 Adaptive HomeBased none", "lat=41520ae580000000 one=1741 cnot=264 hops=1462 dist=731 wait=41693e65c0000000 trav=1462 max=109 load=37883f6aa2360e59 place=0f6286959dfac42a trace=8167c0928816eb8a"),
    ("qft_16 12 c5 Adaptive Drift none", "lat=4152096e80000000 one=1741 cnot=264 hops=712 dist=424 wait=41340a0000000000 trav=712 max=52 load=79045f0fdfcf0d77 place=0f6286959dfac42a trace=302c475c7ed3fab7"),
    ("qft_16 12 c1 Xy HomeBased overlay", "lat=4152116400000000 one=1741 cnot=264 hops=1462 dist=731 wait=4174419740000000 trav=1462 max=108 load=79d6577edf005b51 place=0f6286959dfac42a trace=d4500b408842ea6f"),
    ("qft_16 12 c1 Xy Drift overlay", "lat=415209a080000000 one=1741 cnot=264 hops=712 dist=424 wait=4165eaa3c0000000 trav=712 max=52 load=de28590665d7ade1 place=0f6286959dfac42a trace=10b8b6abd59d3380"),
    ("qft_16 12 c1 Yx HomeBased overlay", "lat=41521a3a80000000 one=1741 cnot=264 hops=1462 dist=731 wait=41736c7920000000 trav=1462 max=108 load=79d6577edf005b51 place=0f6286959dfac42a trace=887914210b92e96a"),
    ("qft_16 12 c1 Yx Drift overlay", "lat=415209a080000000 one=1741 cnot=264 hops=712 dist=424 wait=41648ac8c0000000 trav=712 max=51 load=d82f8c5de26c5537 place=0f6286959dfac42a trace=6b3e019b36549e1a"),
    ("qft_16 12 c1 Adaptive HomeBased overlay", "lat=41520d2e80000000 one=1741 cnot=264 hops=1462 dist=731 wait=41726e6420000000 trav=1462 max=110 load=70ffd7458d5f594d place=0f6286959dfac42a trace=a7e4c628b80f0ad8"),
    ("qft_16 12 c1 Adaptive Drift overlay", "lat=415209a080000000 one=1741 cnot=264 hops=712 dist=424 wait=415a6b3900000000 trav=712 max=53 load=900231dc746937bb place=0f6286959dfac42a trace=211d4c40bdd0b47e"),
    ("qft_16 12 c5 Xy HomeBased overlay", "lat=41520ca780000000 one=1741 cnot=264 hops=1462 dist=731 wait=416ffe7080000000 trav=1462 max=108 load=79d6577edf005b51 place=0f6286959dfac42a trace=a6e5808df59ad9fb"),
    ("qft_16 12 c5 Xy Drift overlay", "lat=4152096e80000000 one=1741 cnot=264 hops=712 dist=424 wait=4152076900000000 trav=712 max=52 load=de28590665d7ade1 place=0f6286959dfac42a trace=e06cd7905111e784"),
    ("qft_16 12 c5 Yx HomeBased overlay", "lat=41520ca780000000 one=1741 cnot=264 hops=1462 dist=731 wait=416f2ab600000000 trav=1462 max=108 load=79d6577edf005b51 place=0f6286959dfac42a trace=3929edc11cfab968"),
    ("qft_16 12 c5 Yx Drift overlay", "lat=4152096e80000000 one=1741 cnot=264 hops=712 dist=424 wait=414ef07d00000000 trav=712 max=51 load=d82f8c5de26c5537 place=0f6286959dfac42a trace=96d16af1b2dc58ae"),
    ("qft_16 12 c5 Adaptive HomeBased overlay", "lat=41520ca780000000 one=1741 cnot=264 hops=1462 dist=731 wait=416b4dc680000000 trav=1462 max=110 load=2ea3933a2f94ad93 place=0f6286959dfac42a trace=d708c95d5d1848ae"),
    ("qft_16 12 c5 Adaptive Drift overlay", "lat=4152096e80000000 one=1741 cnot=264 hops=712 dist=424 wait=4138970000000000 trav=712 max=52 load=79045f0fdfcf0d77 place=0f6286959dfac42a trace=e06cd7905111e784"),
    ("qft_16 12 c1 Xy HomeBased defect", "lat=41520fa200000000 one=1741 cnot=264 hops=1478 dist=739 wait=4174547400000000 trav=1478 max=111 load=3ae1872837878911 place=0f6286959dfac42a trace=fa00056603ec31b8"),
    ("qft_16 12 c1 Xy Drift defect", "lat=41520e8f00000000 one=1741 cnot=264 hops=729 dist=438 wait=416916d280000000 trav=739 max=52 load=4a2e9464a7a2711c place=0f6286959dfac42a trace=ddd3eb540a35bfdc"),
    ("qft_16 12 c1 Yx HomeBased defect", "lat=41521afb00000000 one=1741 cnot=264 hops=1478 dist=739 wait=417364a240000000 trav=1478 max=111 load=3ae1872837878911 place=0f6286959dfac42a trace=3f91deb51914fab7"),
    ("qft_16 12 c1 Yx Drift defect", "lat=41520e8f00000000 one=1741 cnot=264 hops=729 dist=438 wait=4168de07c0000000 trav=739 max=53 load=e118788c0ea73454 place=0f6286959dfac42a trace=1832fb5907979805"),
    ("qft_16 12 c1 Adaptive HomeBased defect", "lat=41520f4800000000 one=1741 cnot=264 hops=1478 dist=739 wait=4172828900000000 trav=1478 max=113 load=2bf401bb24ad19ab place=0f6286959dfac42a trace=d42e4f2abf135565"),
    ("qft_16 12 c1 Adaptive Drift defect", "lat=41520e8f00000000 one=1741 cnot=264 hops=729 dist=438 wait=41616efa80000000 trav=739 max=52 load=32367e937f00ab40 place=0f6286959dfac42a trace=4a3bea466373e88e"),
    ("qft_16 12 c5 Xy HomeBased defect", "lat=41520ae580000000 one=1741 cnot=264 hops=1478 dist=739 wait=416ee01500000000 trav=1478 max=111 load=3ae1872837878911 place=0f6286959dfac42a trace=e7aeb019027f0b3d"),
    ("qft_16 12 c5 Xy Drift defect", "lat=41520a9a80000000 one=1741 cnot=264 hops=729 dist=438 wait=4158623a00000000 trav=739 max=52 load=4a2e9464a7a2711c place=0f6286959dfac42a trace=bedab4f84c687fdb"),
    ("qft_16 12 c5 Yx HomeBased defect", "lat=41520ae580000000 one=1741 cnot=264 hops=1478 dist=739 wait=416e50d480000000 trav=1478 max=111 load=3ae1872837878911 place=0f6286959dfac42a trace=02e6a9a3121f4502"),
    ("qft_16 12 c5 Yx Drift defect", "lat=41520a9a80000000 one=1741 cnot=264 hops=729 dist=438 wait=41580b7a80000000 trav=739 max=53 load=e118788c0ea73454 place=0f6286959dfac42a trace=14f737c192b4fdd4"),
    ("qft_16 12 c5 Adaptive HomeBased defect", "lat=41520ae580000000 one=1741 cnot=264 hops=1478 dist=739 wait=416c7ef9c0000000 trav=1478 max=113 load=aea570cff3b9a557 place=0f6286959dfac42a trace=45153779c119595f"),
    ("qft_16 12 c5 Adaptive Drift defect", "lat=41520a9a80000000 one=1741 cnot=264 hops=729 dist=438 wait=4149b1bc00000000 trav=739 max=52 load=e3f6a25c15cca886 place=0f6286959dfac42a trace=834831134a50e0b5"),
    ("qft_16 60 c1 Xy HomeBased none", "lat=41520fa200000000 one=1741 cnot=264 hops=1462 dist=731 wait=4174339be0000000 trav=1462 max=108 load=af6487eec9f0cf51 place=a58f79e289d57d5a trace=e46ad6421a0c918b"),
    ("qft_16 60 c1 Xy Drift none", "lat=4152096e80000000 one=1741 cnot=264 hops=729 dist=458 wait=4165e8c140000000 trav=729 max=52 load=2c9cf5e26b48ea36 place=a58f79e289d57d5a trace=f02ef624dce45f3a"),
    ("qft_16 60 c1 Yx HomeBased none", "lat=41521ae200000000 one=1741 cnot=264 hops=1462 dist=731 wait=41735c7de0000000 trav=1462 max=108 load=af6487eec9f0cf51 place=a58f79e289d57d5a trace=b06bb99fa1305657"),
    ("qft_16 60 c1 Yx Drift none", "lat=4152096e80000000 one=1741 cnot=264 hops=729 dist=458 wait=416b2fe0c0000000 trav=729 max=48 load=d831eb449d85e170 place=a58f79e289d57d5a trace=53ffc21718b5f875"),
    ("qft_16 60 c1 Adaptive HomeBased none", "lat=41520f4800000000 one=1741 cnot=264 hops=1462 dist=731 wait=4172643c20000000 trav=1462 max=109 load=daea104f2c9ab7c1 place=a58f79e289d57d5a trace=5b108509aececa34"),
    ("qft_16 60 c1 Adaptive Drift none", "lat=4152096e80000000 one=1741 cnot=264 hops=729 dist=458 wait=415de44900000000 trav=729 max=53 load=9765998ff689a46c place=a58f79e289d57d5a trace=b3efb130e4ec20b2"),
    ("qft_16 60 c5 Xy HomeBased none", "lat=41520ae580000000 one=1741 cnot=264 hops=1462 dist=731 wait=416e504240000000 trav=1462 max=108 load=af6487eec9f0cf51 place=a58f79e289d57d5a trace=ec8a51d367b9f989"),
    ("qft_16 60 c5 Xy Drift none", "lat=4152093c80000000 one=1741 cnot=264 hops=729 dist=458 wait=415bec2500000000 trav=729 max=52 load=2c9cf5e26b48ea36 place=a58f79e289d57d5a trace=74c39eccccc12e35"),
    ("qft_16 60 c5 Yx HomeBased none", "lat=41520ae580000000 one=1741 cnot=264 hops=1462 dist=731 wait=416c62d740000000 trav=1462 max=108 load=af6487eec9f0cf51 place=a58f79e289d57d5a trace=1269c4c2584ef169"),
    ("qft_16 60 c5 Yx Drift none", "lat=4152093c80000000 one=1741 cnot=264 hops=729 dist=458 wait=41635eb9c0000000 trav=729 max=48 load=d831eb449d85e170 place=a58f79e289d57d5a trace=7686105bd91229c2"),
    ("qft_16 60 c5 Adaptive HomeBased none", "lat=41520ae580000000 one=1741 cnot=264 hops=1462 dist=731 wait=41693e65c0000000 trav=1462 max=109 load=018b015f0695d259 place=a58f79e289d57d5a trace=8167c0928816eb8a"),
    ("qft_16 60 c5 Adaptive Drift none", "lat=4152093c80000000 one=1741 cnot=264 hops=729 dist=458 wait=4152bd7380000000 trav=729 max=52 load=a955039843c65a32 place=a58f79e289d57d5a trace=5dd500114dbcc09f"),
    ("qft_16 60 c1 Xy HomeBased overlay", "lat=4152116400000000 one=1741 cnot=264 hops=1462 dist=731 wait=4174419740000000 trav=1462 max=108 load=af6487eec9f0cf51 place=a58f79e289d57d5a trace=d4500b408842ea6f"),
    ("qft_16 60 c1 Xy Drift overlay", "lat=4152096e80000000 one=1741 cnot=264 hops=729 dist=458 wait=4165e96a00000000 trav=729 max=52 load=2c9cf5e26b48ea36 place=a58f79e289d57d5a trace=7334f7437df1c231"),
    ("qft_16 60 c1 Yx HomeBased overlay", "lat=41521a3a80000000 one=1741 cnot=264 hops=1462 dist=731 wait=41736c7920000000 trav=1462 max=108 load=af6487eec9f0cf51 place=a58f79e289d57d5a trace=887914210b92e96a"),
    ("qft_16 60 c1 Yx Drift overlay", "lat=4152096e80000000 one=1741 cnot=264 hops=729 dist=458 wait=416b30af00000000 trav=729 max=48 load=d831eb449d85e170 place=a58f79e289d57d5a trace=22fc0289d24ec3ff"),
    ("qft_16 60 c1 Adaptive HomeBased overlay", "lat=41520d2e80000000 one=1741 cnot=264 hops=1462 dist=731 wait=41726e6420000000 trav=1462 max=110 load=7a68ec78b2181d4d place=a58f79e289d57d5a trace=a7e4c628b80f0ad8"),
    ("qft_16 60 c1 Adaptive Drift overlay", "lat=4152096e80000000 one=1741 cnot=264 hops=729 dist=458 wait=415de4b980000000 trav=729 max=53 load=9765998ff689a46c place=a58f79e289d57d5a trace=5176f208a86180d3"),
    ("qft_16 60 c5 Xy HomeBased overlay", "lat=41520ca780000000 one=1741 cnot=264 hops=1462 dist=731 wait=416ffe7080000000 trav=1462 max=108 load=af6487eec9f0cf51 place=a58f79e289d57d5a trace=a6e5808df59ad9fb"),
    ("qft_16 60 c5 Xy Drift overlay", "lat=4152093c80000000 one=1741 cnot=264 hops=729 dist=458 wait=415d0f3300000000 trav=729 max=52 load=2c9cf5e26b48ea36 place=a58f79e289d57d5a trace=1818171c33b85c09"),
    ("qft_16 60 c5 Yx HomeBased overlay", "lat=41520ca780000000 one=1741 cnot=264 hops=1462 dist=731 wait=416f2ab600000000 trav=1462 max=108 load=af6487eec9f0cf51 place=a58f79e289d57d5a trace=3929edc11cfab968"),
    ("qft_16 60 c5 Yx Drift overlay", "lat=4152093c80000000 one=1741 cnot=264 hops=729 dist=458 wait=4164a01900000000 trav=729 max=48 load=d831eb449d85e170 place=a58f79e289d57d5a trace=2c3e281b64d78941"),
    ("qft_16 60 c5 Adaptive HomeBased overlay", "lat=41520ca780000000 one=1741 cnot=264 hops=1462 dist=731 wait=416b4dc680000000 trav=1462 max=110 load=9734aecfd8082b93 place=a58f79e289d57d5a trace=d708c95d5d1848ae"),
    ("qft_16 60 c5 Adaptive Drift overlay", "lat=4152093c80000000 one=1741 cnot=264 hops=729 dist=458 wait=4153dfeb80000000 trav=729 max=52 load=a955039843c65a32 place=a58f79e289d57d5a trace=1818171c33b85c09"),
    ("qft_16 60 c1 Xy HomeBased defect", "lat=4152192780000000 one=1741 cnot=264 hops=1680 dist=840 wait=4173076c60000000 trav=1680 max=103 load=bb45835f4534855f place=f842bb9f084aad05 trace=7fa2d9defa88e036"),
    ("qft_16 60 c1 Xy Drift defect", "lat=4152098780000000 one=1741 cnot=264 hops=768 dist=488 wait=4167cdf0c0000000 trav=774 max=54 load=05ba9f9daee64975 place=f842bb9f084aad05 trace=3903c3e7f7407252"),
    ("qft_16 60 c1 Yx HomeBased defect", "lat=41521c4000000000 one=1741 cnot=264 hops=1680 dist=840 wait=4172d93ac0000000 trav=1680 max=103 load=bb45835f4534855f place=f842bb9f084aad05 trace=b4062944183db908"),
    ("qft_16 60 c1 Yx Drift defect", "lat=4152098780000000 one=1741 cnot=264 hops=768 dist=488 wait=416ffabf80000000 trav=774 max=55 load=55bfb33c0cfd1075 place=f842bb9f084aad05 trace=e05c6a323ace635e"),
    ("qft_16 60 c1 Adaptive HomeBased defect", "lat=4152192780000000 one=1741 cnot=264 hops=1680 dist=840 wait=4172ba2ae0000000 trav=1680 max=105 load=74fc4d54d2df2c31 place=f842bb9f084aad05 trace=c090470d1797e0ad"),
    ("qft_16 60 c1 Adaptive Drift defect", "lat=4152098780000000 one=1741 cnot=264 hops=768 dist=488 wait=416797e0c0000000 trav=774 max=54 load=c8e658824aa280f7 place=f842bb9f084aad05 trace=d547197f28d83c6b"),
    ("qft_16 60 c5 Xy HomeBased defect", "lat=41520c5c80000000 one=1741 cnot=264 hops=1680 dist=840 wait=416bca4e80000000 trav=1680 max=103 load=bb45835f4534855f place=f842bb9f084aad05 trace=ba1e3977b485e803"),
    ("qft_16 60 c5 Xy Drift defect", "lat=4152095580000000 one=1741 cnot=264 hops=768 dist=488 wait=4162cbc480000000 trav=774 max=54 load=05ba9f9daee64975 place=f842bb9f084aad05 trace=0843e490557379bd"),
    ("qft_16 60 c5 Yx HomeBased defect", "lat=41520c5c80000000 one=1741 cnot=264 hops=1680 dist=840 wait=416c658080000000 trav=1680 max=103 load=bb45835f4534855f place=f842bb9f084aad05 trace=0ca172adde801d9d"),
    ("qft_16 60 c5 Yx Drift defect", "lat=4152095580000000 one=1741 cnot=264 hops=768 dist=488 wait=416516b9c0000000 trav=774 max=55 load=55bfb33c0cfd1075 place=f842bb9f084aad05 trace=db0260be812af0e9"),
    ("qft_16 60 c5 Adaptive HomeBased defect", "lat=41520c5c80000000 one=1741 cnot=264 hops=1680 dist=840 wait=416b45a2c0000000 trav=1680 max=103 load=5675222d30b9735d place=f842bb9f084aad05 trace=58e1ab7c3a4fda59"),
    ("qft_16 60 c5 Adaptive Drift defect", "lat=4152095580000000 one=1741 cnot=264 hops=768 dist=488 wait=4161d611c0000000 trav=774 max=54 load=cb512400abb04371 place=f842bb9f084aad05 trace=bee6f181899d66fe"),
    ("random_24_256_7 12 c1 Xy HomeBased none", "lat=4140461300000000 one=605 cnot=435 hops=2856 dist=1428 wait=416f303800000000 trav=2856 max=157 load=957fd15f46c52d9f place=554a1688ea4e8508 trace=6bb0246dcdbe3df3"),
    ("random_24_256_7 12 c1 Xy Drift none", "lat=413eb45000000000 one=605 cnot=435 hops=1778 dist=1253 wait=4167d51940000000 trav=1778 max=36 load=57838cf6579b5567 place=554a1688ea4e8508 trace=3f4d9e86e0a39116"),
    ("random_24_256_7 12 c1 Yx HomeBased none", "lat=413fb49000000000 one=605 cnot=435 hops=2856 dist=1428 wait=416ff07840000000 trav=2856 max=157 load=957fd15f46c52d9f place=554a1688ea4e8508 trace=ebcf19bae1c22dc5"),
    ("random_24_256_7 12 c1 Yx Drift none", "lat=413eb59a00000000 one=605 cnot=435 hops=1778 dist=1252 wait=4168cfcc00000000 trav=1778 max=31 load=ffaa40bc2078c6f5 place=554a1688ea4e8508 trace=98a2491ee112b21f"),
    ("random_24_256_7 12 c1 Adaptive HomeBased none", "lat=413f62b000000000 one=605 cnot=435 hops=2856 dist=1428 wait=416b886100000000 trav=2856 max=142 load=180ec1f725b24499 place=554a1688ea4e8508 trace=5bb41ca3160c35f7"),
    ("random_24_256_7 12 c1 Adaptive Drift none", "lat=413e73b400000000 one=605 cnot=435 hops=1786 dist=1258 wait=4164f01400000000 trav=1786 max=36 load=d367201bd297fc33 place=554a1688ea4e8508 trace=45edd1d6f1f0c1d7"),
    ("random_24_256_7 12 c5 Xy HomeBased none", "lat=413eb7a200000000 one=605 cnot=435 hops=2856 dist=1428 wait=415c0d4500000000 trav=2856 max=157 load=957fd15f46c52d9f place=554a1688ea4e8508 trace=934fcd26babb05ee"),
    ("random_24_256_7 12 c5 Xy Drift none", "lat=413e6c3e00000000 one=605 cnot=435 hops=1789 dist=1264 wait=4148b2e900000000 trav=1789 max=34 load=e52dccc00c744e02 place=554a1688ea4e8508 trace=8399239069d68872"),
    ("random_24_256_7 12 c5 Yx HomeBased none", "lat=413eb7a200000000 one=605 cnot=435 hops=2856 dist=1428 wait=415b693500000000 trav=2856 max=157 load=957fd15f46c52d9f place=554a1688ea4e8508 trace=abc90338ae9f730e"),
    ("random_24_256_7 12 c5 Yx Drift none", "lat=413e6c3e00000000 one=605 cnot=435 hops=1789 dist=1264 wait=414981e200000000 trav=1789 max=35 load=0a3048259e1e0c8a place=554a1688ea4e8508 trace=f65f3c6c2ca6ad60"),
    ("random_24_256_7 12 c5 Adaptive HomeBased none", "lat=413eb7a200000000 one=605 cnot=435 hops=2856 dist=1428 wait=4156c4ca00000000 trav=2856 max=152 load=8bb632aff6ce888d place=554a1688ea4e8508 trace=ef3ef4d4a379b333"),
    ("random_24_256_7 12 c5 Adaptive Drift none", "lat=413e6c3e00000000 one=605 cnot=435 hops=1789 dist=1264 wait=4142175900000000 trav=1789 max=33 load=772544d178e1c4e4 place=554a1688ea4e8508 trace=1b512924b50dd5aa"),
    ("random_24_256_7 12 c1 Xy HomeBased overlay", "lat=41406fdf00000000 one=605 cnot=435 hops=2856 dist=1428 wait=416f7dcac0000000 trav=2856 max=157 load=957fd15f46c52d9f place=554a1688ea4e8508 trace=886af2a38cb8e69f"),
    ("random_24_256_7 12 c1 Xy Drift overlay", "lat=413ecc9200000000 one=605 cnot=435 hops=1778 dist=1254 wait=416829c300000000 trav=1778 max=36 load=d9064cf5c0311d6d place=554a1688ea4e8508 trace=f2a1d813cac1da36"),
    ("random_24_256_7 12 c1 Yx HomeBased overlay", "lat=41400c3400000000 one=605 cnot=435 hops=2856 dist=1428 wait=41701b2d20000000 trav=2856 max=157 load=957fd15f46c52d9f place=554a1688ea4e8508 trace=3dd5179b3e210ec9"),
    ("random_24_256_7 12 c1 Yx Drift overlay", "lat=413ececc00000000 one=605 cnot=435 hops=1780 dist=1257 wait=41692f0a80000000 trav=1780 max=32 load=9899a8633c475341 place=554a1688ea4e8508 trace=783461effbd16d6e"),
    ("random_24_256_7 12 c1 Adaptive HomeBased overlay", "lat=4140055400000000 one=605 cnot=435 hops=2856 dist=1428 wait=416c036bc0000000 trav=2856 max=143 load=66b67e9eb73f4a31 place=554a1688ea4e8508 trace=bf7c72929e01d9e7"),
    ("random_24_256_7 12 c1 Adaptive Drift overlay", "lat=413e901000000000 one=605 cnot=435 hops=1786 dist=1259 wait=4164f0d840000000 trav=1786 max=36 load=adc535cd882be75b place=554a1688ea4e8508 trace=e0681c67c4aa960b"),
    ("random_24_256_7 12 c5 Xy HomeBased overlay", "lat=4140006300000000 one=605 cnot=435 hops=2856 dist=1428 wait=4165592800000000 trav=2856 max=157 load=957fd15f46c52d9f place=554a1688ea4e8508 trace=2a69adae59700475"),
    ("random_24_256_7 12 c5 Xy Drift overlay", "lat=413e864200000000 one=605 cnot=435 hops=1789 dist=1265 wait=41525f9f80000000 trav=1789 max=34 load=6fcdae939b92f184 place=554a1688ea4e8508 trace=6cadce5c54e6f301"),
    ("random_24_256_7 12 c5 Yx HomeBased overlay", "lat=413f6e1800000000 one=605 cnot=435 hops=2856 dist=1428 wait=41663b9c80000000 trav=2856 max=157 load=957fd15f46c52d9f place=554a1688ea4e8508 trace=3aeb8736024821a8"),
    ("random_24_256_7 12 c5 Yx Drift overlay", "lat=413e8a2000000000 one=605 cnot=435 hops=1789 dist=1265 wait=4154f45380000000 trav=1789 max=35 load=32036bee9fc297d4 place=554a1688ea4e8508 trace=2c3599777b4d9243"),
    ("random_24_256_7 12 c5 Adaptive HomeBased overlay", "lat=413f611600000000 one=605 cnot=435 hops=2856 dist=1428 wait=4162450e40000000 trav=2856 max=147 load=afde5239d0e8c259 place=554a1688ea4e8508 trace=49f0ae5bfebd9a5e"),
    ("random_24_256_7 12 c5 Adaptive Drift overlay", "lat=413e864200000000 one=605 cnot=435 hops=1789 dist=1265 wait=414a4df700000000 trav=1789 max=33 load=a4fec8011c95a84c place=554a1688ea4e8508 trace=c45f39930d61408d"),
    ("random_24_256_7 12 c1 Xy HomeBased defect", "lat=4140185f00000000 one=605 cnot=435 hops=2896 dist=1448 wait=416eb70340000000 trav=2896 max=149 load=eba395e76a45a971 place=554a1688ea4e8508 trace=bc0c19d7d515fc34"),
    ("random_24_256_7 12 c1 Xy Drift defect", "lat=413e843000000000 one=605 cnot=435 hops=1796 dist=1303 wait=4168a2acc0000000 trav=1852 max=52 load=ee8f85300ff906a5 place=554a1688ea4e8508 trace=c95ecfc84c909483"),
    ("random_24_256_7 12 c1 Yx HomeBased defect", "lat=414037d600000000 one=605 cnot=435 hops=2896 dist=1448 wait=41705e82a0000000 trav=2896 max=149 load=eba395e76a45a971 place=554a1688ea4e8508 trace=eb5473a42ebbcf18"),
    ("random_24_256_7 12 c1 Yx Drift defect", "lat=413e9c9000000000 one=605 cnot=435 hops=1794 dist=1302 wait=4169b9bcc0000000 trav=1850 max=58 load=3247824b6fc37927 place=554a1688ea4e8508 trace=cddc1b66c7faad11"),
    ("random_24_256_7 12 c1 Adaptive HomeBased defect", "lat=413fb36e00000000 one=605 cnot=435 hops=2896 dist=1448 wait=416be052c0000000 trav=2896 max=136 load=3ef4d24a8de4c45b place=554a1688ea4e8508 trace=60928bcfc3036f1b"),
    ("random_24_256_7 12 c1 Adaptive Drift defect", "lat=413e843000000000 one=605 cnot=435 hops=1794 dist=1302 wait=4168283580000000 trav=1850 max=53 load=20094eeb32b95a27 place=554a1688ea4e8508 trace=2427f6cedbafd855"),
    ("random_24_256_7 12 c5 Xy HomeBased defect", "lat=413eb86a00000000 one=605 cnot=435 hops=2896 dist=1448 wait=415d1cb980000000 trav=2896 max=149 load=eba395e76a45a971 place=554a1688ea4e8508 trace=412bf5131c91af92"),
    ("random_24_256_7 12 c5 Xy Drift defect", "lat=413e6fc200000000 one=605 cnot=435 hops=1796 dist=1303 wait=414cc24e00000000 trav=1852 max=52 load=ee8f85300ff906a5 place=554a1688ea4e8508 trace=feac4421be3c4b9c"),
    ("random_24_256_7 12 c5 Yx HomeBased defect", "lat=413eb86a00000000 one=605 cnot=435 hops=2896 dist=1448 wait=415bb56100000000 trav=2896 max=149 load=eba395e76a45a971 place=554a1688ea4e8508 trace=28bd6cea18f588c6"),
    ("random_24_256_7 12 c5 Yx Drift defect", "lat=413e6fc200000000 one=605 cnot=435 hops=1796 dist=1303 wait=4146486a00000000 trav=1852 max=58 load=eb01bf48684f33a3 place=554a1688ea4e8508 trace=f2bfc1935bd62c3e"),
    ("random_24_256_7 12 c5 Adaptive HomeBased defect", "lat=413eb86a00000000 one=605 cnot=435 hops=2896 dist=1448 wait=41587abd00000000 trav=2896 max=142 load=94dc914b93326a1b place=554a1688ea4e8508 trace=9edd30b9a17f6f73"),
    ("random_24_256_7 12 c5 Adaptive Drift defect", "lat=413e6fc200000000 one=605 cnot=435 hops=1796 dist=1303 wait=4142f16000000000 trav=1852 max=52 load=dfbfd7f1c15ab8b9 place=554a1688ea4e8508 trace=80dc0f86198cc9e8"),
    ("random_24_256_7 60 c1 Xy HomeBased none", "lat=4140461300000000 one=605 cnot=435 hops=2856 dist=1428 wait=416f303800000000 trav=2856 max=157 load=6215ec077754059f place=37288d33cb568fb8 trace=6bb0246dcdbe3df3"),
    ("random_24_256_7 60 c1 Xy Drift none", "lat=413e894e00000000 one=605 cnot=435 hops=1874 dist=1413 wait=4165346600000000 trav=1874 max=34 load=7cc0a8ab5daafb0b place=37288d33cb568fb8 trace=5b4e06e1d08ec1ff"),
    ("random_24_256_7 60 c1 Yx HomeBased none", "lat=413fb49000000000 one=605 cnot=435 hops=2856 dist=1428 wait=416ff07840000000 trav=2856 max=157 load=6215ec077754059f place=37288d33cb568fb8 trace=ebcf19bae1c22dc5"),
    ("random_24_256_7 60 c1 Yx Drift none", "lat=413eb3b000000000 one=605 cnot=435 hops=1874 dist=1413 wait=4169223f80000000 trav=1874 max=34 load=71667a420dd51533 place=37288d33cb568fb8 trace=4ffefe8f1c9917b6"),
    ("random_24_256_7 60 c1 Adaptive HomeBased none", "lat=413f62b000000000 one=605 cnot=435 hops=2856 dist=1428 wait=416b886100000000 trav=2856 max=142 load=9398535a72608299 place=37288d33cb568fb8 trace=5bb41ca3160c35f7"),
    ("random_24_256_7 60 c1 Adaptive Drift none", "lat=413e715c00000000 one=605 cnot=435 hops=1874 dist=1413 wait=4163087380000000 trav=1874 max=30 load=dd58e3f4a8288517 place=37288d33cb568fb8 trace=f35a474bcb3af8f5"),
    ("random_24_256_7 60 c5 Xy HomeBased none", "lat=413eb7a200000000 one=605 cnot=435 hops=2856 dist=1428 wait=415c0d4500000000 trav=2856 max=157 load=6215ec077754059f place=37288d33cb568fb8 trace=934fcd26babb05ee"),
    ("random_24_256_7 60 c5 Xy Drift none", "lat=413e6fc200000000 one=605 cnot=435 hops=1874 dist=1413 wait=4146b53e00000000 trav=1874 max=34 load=0132f13633df7a95 place=37288d33cb568fb8 trace=eb1e5e8616f679db"),
    ("random_24_256_7 60 c5 Yx HomeBased none", "lat=413eb7a200000000 one=605 cnot=435 hops=2856 dist=1428 wait=415b693500000000 trav=2856 max=157 load=6215ec077754059f place=37288d33cb568fb8 trace=abc90338ae9f730e"),
    ("random_24_256_7 60 c5 Yx Drift none", "lat=413e6fc200000000 one=605 cnot=435 hops=1874 dist=1413 wait=4141989200000000 trav=1874 max=34 load=f827915bd9e2a3f3 place=37288d33cb568fb8 trace=7110c6bf5af20249"),
    ("random_24_256_7 60 c5 Adaptive HomeBased none", "lat=413eb7a200000000 one=605 cnot=435 hops=2856 dist=1428 wait=4156c4ca00000000 trav=2856 max=152 load=c619ce3957394e8d place=37288d33cb568fb8 trace=ef3ef4d4a379b333"),
    ("random_24_256_7 60 c5 Adaptive Drift none", "lat=413e6fc200000000 one=605 cnot=435 hops=1874 dist=1413 wait=412ea33400000000 trav=1874 max=32 load=c7add8ec9cf5ebe9 place=37288d33cb568fb8 trace=c709ac7403b970b9"),
    ("random_24_256_7 60 c1 Xy HomeBased overlay", "lat=41406fdf00000000 one=605 cnot=435 hops=2856 dist=1428 wait=416f7dcac0000000 trav=2856 max=157 load=6215ec077754059f place=37288d33cb568fb8 trace=886af2a38cb8e69f"),
    ("random_24_256_7 60 c1 Xy Drift overlay", "lat=413ea3e800000000 one=605 cnot=435 hops=1874 dist=1414 wait=416592ecc0000000 trav=1874 max=34 load=b6e71789fbd04bcd place=37288d33cb568fb8 trace=d1865a4cbf80bc8a"),
    ("random_24_256_7 60 c1 Yx HomeBased overlay", "lat=41400c3400000000 one=605 cnot=435 hops=2856 dist=1428 wait=41701b2d20000000 trav=2856 max=157 load=6215ec077754059f place=37288d33cb568fb8 trace=3dd5179b3e210ec9"),
    ("random_24_256_7 60 c1 Yx Drift overlay", "lat=413ecdb400000000 one=605 cnot=435 hops=1874 dist=1414 wait=41696b24c0000000 trav=1874 max=34 load=711455d5ed3d7db5 place=37288d33cb568fb8 trace=2a078602b4e7ec9f"),
    ("random_24_256_7 60 c1 Adaptive HomeBased overlay", "lat=4140055400000000 one=605 cnot=435 hops=2856 dist=1428 wait=416c036bc0000000 trav=2856 max=143 load=9eaf6268c8466e31 place=37288d33cb568fb8 trace=bf7c72929e01d9e7"),
    ("random_24_256_7 60 c1 Adaptive Drift overlay", "lat=413e8bf600000000 one=605 cnot=435 hops=1874 dist=1414 wait=4163051280000000 trav=1874 max=30 load=26491bfc4e30cf13 place=37288d33cb568fb8 trace=c7813cb73a35f653"),
    ("random_24_256_7 60 c5 Xy HomeBased overlay", "lat=4140006300000000 one=605 cnot=435 hops=2856 dist=1428 wait=4165592800000000 trav=2856 max=157 load=6215ec077754059f place=37288d33cb568fb8 trace=2a69adae59700475"),
    ("random_24_256_7 60 c5 Xy Drift overlay", "lat=413e8a5c00000000 one=605 cnot=435 hops=1874 dist=1414 wait=415104ae00000000 trav=1874 max=34 load=6ebd940a92f6f053 place=37288d33cb568fb8 trace=0da2949360b2099d"),
    ("random_24_256_7 60 c5 Yx HomeBased overlay", "lat=413f6e1800000000 one=605 cnot=435 hops=2856 dist=1428 wait=41663b9c80000000 trav=2856 max=157 load=6215ec077754059f place=37288d33cb568fb8 trace=3aeb8736024821a8"),
    ("random_24_256_7 60 c5 Yx Drift overlay", "lat=413e8da400000000 one=605 cnot=435 hops=1874 dist=1414 wait=41510b4d00000000 trav=1874 max=34 load=b69f7de56662db79 place=37288d33cb568fb8 trace=fb350c7418d0168f"),
    ("random_24_256_7 60 c5 Adaptive HomeBased overlay", "lat=413f611600000000 one=605 cnot=435 hops=2856 dist=1428 wait=4162450e40000000 trav=2856 max=147 load=a7f7fc3e89d60659 place=37288d33cb568fb8 trace=49f0ae5bfebd9a5e"),
    ("random_24_256_7 60 c5 Adaptive Drift overlay", "lat=413e8a5c00000000 one=605 cnot=435 hops=1874 dist=1414 wait=413e691400000000 trav=1874 max=32 load=e7f6e33076924ab3 place=37288d33cb568fb8 trace=db43f1a409f22919"),
    ("random_24_256_7 60 c1 Xy HomeBased defect", "lat=413fe06e00000000 one=605 cnot=435 hops=3100 dist=1550 wait=4170c2e380000000 trav=3100 max=176 load=2bbf7b790d52cf7b place=3b8e0bf1c90c9565 trace=859eb779a01101fb"),
    ("random_24_256_7 60 c1 Xy Drift defect", "lat=413ebcac00000000 one=605 cnot=435 hops=1879 dist=1404 wait=4166987680000000 trav=1929 max=65 load=755f85762a57b1b4 place=3b8e0bf1c90c9565 trace=4d32cd7273f12a0d"),
    ("random_24_256_7 60 c1 Yx HomeBased defect", "lat=4140534700000000 one=605 cnot=435 hops=3100 dist=1550 wait=4170e11e40000000 trav=3100 max=176 load=2bbf7b790d52cf7b place=3b8e0bf1c90c9565 trace=bd2b643ef38a5c63"),
    ("random_24_256_7 60 c1 Yx Drift defect", "lat=413eb86000000000 one=605 cnot=435 hops=1823 dist=1360 wait=4166d8f980000000 trav=1861 max=49 load=716d405690ca077e place=3b8e0bf1c90c9565 trace=cb06354d463ce50a"),
    ("random_24_256_7 60 c1 Adaptive HomeBased defect", "lat=4140006300000000 one=605 cnot=435 hops=3100 dist=1550 wait=4170194d20000000 trav=3100 max=172 load=1a3c52bdc658031d place=3b8e0bf1c90c9565 trace=8008e0adde114f63"),
    ("random_24_256_7 60 c1 Adaptive Drift defect", "lat=413ebd6000000000 one=605 cnot=435 hops=1825 dist=1360 wait=4165b80a00000000 trav=1863 max=47 load=85b2abf9ec1e0dfe place=3b8e0bf1c90c9565 trace=d5816fd75c425c47"),
    ("random_24_256_7 60 c5 Xy HomeBased defect", "lat=413ec35a00000000 one=605 cnot=435 hops=3100 dist=1550 wait=41618148c0000000 trav=3100 max=176 load=2bbf7b790d52cf7b place=3b8e0bf1c90c9565 trace=04d33d437c59e82c"),
    ("random_24_256_7 60 c5 Xy Drift defect", "lat=413e721a00000000 one=605 cnot=435 hops=1824 dist=1359 wait=414e944300000000 trav=1872 max=61 load=c1f1948216fdce5b place=3b8e0bf1c90c9565 trace=d24f327888f71bda"),
    ("random_24_256_7 60 c5 Yx HomeBased defect", "lat=413ec35a00000000 one=605 cnot=435 hops=3100 dist=1550 wait=4160b74d40000000 trav=3100 max=176 load=2bbf7b790d52cf7b place=3b8e0bf1c90c9565 trace=0e9e8fbac89f406f"),
    ("random_24_256_7 60 c5 Yx Drift defect", "lat=413e721a00000000 one=605 cnot=435 hops=1824 dist=1359 wait=414a18a500000000 trav=1872 max=61 load=dab9d7c26bf17399 place=3b8e0bf1c90c9565 trace=280f404b751aebe8"),
    ("random_24_256_7 60 c5 Adaptive HomeBased defect", "lat=413ec35a00000000 one=605 cnot=435 hops=3100 dist=1550 wait=4160f340c0000000 trav=3100 max=174 load=6a3377020475baf1 place=3b8e0bf1c90c9565 trace=02ec59282cb85307"),
    ("random_24_256_7 60 c5 Adaptive Drift defect", "lat=413e721a00000000 one=605 cnot=435 hops=1824 dist=1359 wait=4146690d00000000 trav=1872 max=61 load=7a732dcfed2697e9 place=3b8e0bf1c90c9565 trace=e6e12b0d236c088b"),
];

const PLACEMENTS: &[(&str, &str)] = &[
    ("8bitadder 12 IigCluster none", "place=210be7db33aa45a8"),
    ("8bitadder 12 RowMajor none", "place=ee31c3380ad82425"),
    ("8bitadder 12 Random none", "place=011de674c461e145"),
    ("8bitadder 12 IigCluster overlay", "place=210be7db33aa45a8"),
    ("8bitadder 12 RowMajor overlay", "place=ee31c3380ad82425"),
    ("8bitadder 12 Random overlay", "place=011de674c461e145"),
    ("8bitadder 12 IigCluster defect", "place=210be7db33aa45a8"),
    ("8bitadder 12 RowMajor defect", "place=ee31c3380ad82425"),
    ("8bitadder 12 Random defect", "place=011de674c461e145"),
    ("8bitadder 60 IigCluster none", "place=8da2b791bed6b4b8"),
    ("8bitadder 60 RowMajor none", "place=c93650ab202b3325"),
    ("8bitadder 60 Random none", "place=58d7aa7694382e05"),
    ("8bitadder 60 IigCluster overlay", "place=8da2b791bed6b4b8"),
    ("8bitadder 60 RowMajor overlay", "place=c93650ab202b3325"),
    ("8bitadder 60 Random overlay", "place=58d7aa7694382e05"),
    ("8bitadder 60 IigCluster defect", "place=656844de1c8a0365"),
    ("8bitadder 60 RowMajor defect", "place=c93650ab202b3325"),
    ("8bitadder 60 Random defect", "place=58d7aa7694382e05"),
    ("hwb15ps 12 IigCluster none", "place=207dd30d68ee5735"),
    ("hwb15ps 12 RowMajor none", "place=dace969a23cf8ffd"),
    ("hwb15ps 12 Random none", "place=f07d9d622c5d2afd"),
    ("hwb15ps 12 IigCluster overlay", "place=207dd30d68ee5735"),
    ("hwb15ps 12 RowMajor overlay", "place=dace969a23cf8ffd"),
    ("hwb15ps 12 Random overlay", "place=f07d9d622c5d2afd"),
    ("hwb15ps 12 IigCluster defect", "place=5c6219687d87e667"),
    ("hwb15ps 12 RowMajor defect", "place=dace969a23cf8ffd"),
    ("hwb15ps 12 Random defect", "place=f07d9d622c5d2afd"),
    ("hwb15ps 60 IigCluster none", "place=cc69c75c485e6195"),
    ("hwb15ps 60 RowMajor none", "place=e13daef271a9f7da"),
    ("hwb15ps 60 Random none", "place=87452884e235119a"),
    ("hwb15ps 60 IigCluster overlay", "place=cc69c75c485e6195"),
    ("hwb15ps 60 RowMajor overlay", "place=e13daef271a9f7da"),
    ("hwb15ps 60 Random overlay", "place=87452884e235119a"),
    ("hwb15ps 60 IigCluster defect", "place=eb12f36c459aa53a"),
    ("hwb15ps 60 RowMajor defect", "place=e13daef271a9f7da"),
    ("hwb15ps 60 Random defect", "place=87452884e235119a"),
    ("qft_16 12 IigCluster none", "place=0f6286959dfac42a"),
    ("qft_16 12 RowMajor none", "place=b6cb280b65935625"),
    ("qft_16 12 Random none", "place=a18ef5f26693d545"),
    ("qft_16 12 IigCluster overlay", "place=0f6286959dfac42a"),
    ("qft_16 12 RowMajor overlay", "place=b6cb280b65935625"),
    ("qft_16 12 Random overlay", "place=a18ef5f26693d545"),
    ("qft_16 12 IigCluster defect", "place=0f6286959dfac42a"),
    ("qft_16 12 RowMajor defect", "place=b6cb280b65935625"),
    ("qft_16 12 Random defect", "place=a18ef5f26693d545"),
    ("qft_16 60 IigCluster none", "place=a58f79e289d57d5a"),
    ("qft_16 60 RowMajor none", "place=8ced64576945df25"),
    ("qft_16 60 Random none", "place=fa93480befca5ac5"),
    ("qft_16 60 IigCluster overlay", "place=a58f79e289d57d5a"),
    ("qft_16 60 RowMajor overlay", "place=8ced64576945df25"),
    ("qft_16 60 Random overlay", "place=fa93480befca5ac5"),
    ("qft_16 60 IigCluster defect", "place=f842bb9f084aad05"),
    ("qft_16 60 RowMajor defect", "place=8ced64576945df25"),
    ("qft_16 60 Random defect", "place=fa93480befca5ac5"),
    (
        "random_24_256_7 12 IigCluster none",
        "place=554a1688ea4e8508",
    ),
    ("random_24_256_7 12 RowMajor none", "place=ee31c3380ad82425"),
    ("random_24_256_7 12 Random none", "place=011de674c461e145"),
    (
        "random_24_256_7 12 IigCluster overlay",
        "place=554a1688ea4e8508",
    ),
    (
        "random_24_256_7 12 RowMajor overlay",
        "place=ee31c3380ad82425",
    ),
    (
        "random_24_256_7 12 Random overlay",
        "place=011de674c461e145",
    ),
    (
        "random_24_256_7 12 IigCluster defect",
        "place=554a1688ea4e8508",
    ),
    (
        "random_24_256_7 12 RowMajor defect",
        "place=ee31c3380ad82425",
    ),
    ("random_24_256_7 12 Random defect", "place=011de674c461e145"),
    (
        "random_24_256_7 60 IigCluster none",
        "place=37288d33cb568fb8",
    ),
    ("random_24_256_7 60 RowMajor none", "place=c93650ab202b3325"),
    ("random_24_256_7 60 Random none", "place=58d7aa7694382e05"),
    (
        "random_24_256_7 60 IigCluster overlay",
        "place=37288d33cb568fb8",
    ),
    (
        "random_24_256_7 60 RowMajor overlay",
        "place=c93650ab202b3325",
    ),
    (
        "random_24_256_7 60 Random overlay",
        "place=58d7aa7694382e05",
    ),
    (
        "random_24_256_7 60 IigCluster defect",
        "place=3b8e0bf1c90c9565",
    ),
    (
        "random_24_256_7 60 RowMajor defect",
        "place=c93650ab202b3325",
    ),
    ("random_24_256_7 60 Random defect", "place=58d7aa7694382e05"),
];
