//! Differential test of the IIG counting kernel (`leqa_circuit::count_edges`)
//! against the construction it replaced: sort the whole CNOT pair stream
//! and run-length-encode it. Random pair streams over 1 to 1,200 qubits
//! are sized on both sides of the kernel's dense/bucketed switch
//! (`Q² ≤ 2·ops`), and every entry point must give the oracle's CSR bit
//! for bit: the kernel itself under either layout, `Iig::from_ft_circuit`,
//! `Iig::from_qodg`, and the streaming `IigAccumulator` at chunk sizes 1,
//! 7 and 64 Ki.

use leqa::stream::{IigAccumulator, DEFAULT_CHUNK_PAIRS};
use leqa_circuit::{count_edges, FtCircuit, FtOp, Iig, Qodg, QubitId};
use leqa_fabric::OneQubitKind;
use proptest::prelude::*;

/// The oracle: sort the normalized pairs, then run-length-encode.
fn sort_rle(pairs: &[(u32, u32)]) -> Vec<(u32, u32, u64)> {
    let mut sorted = pairs.to_vec();
    sorted.sort_unstable();
    let mut run: Vec<(u32, u32, u64)> = Vec::new();
    for (lo, hi) in sorted {
        match run.last_mut() {
            Some((a, b, w)) if (*a, *b) == (lo, hi) => *w += 1,
            _ => run.push((lo, hi, 1)),
        }
    }
    run
}

/// SplitMix64: a seeded stream of draws below `n`.
fn draw(state: &mut u64, n: u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % n
}

/// A random lowered circuit over `qubits` wires with `cnots` CNOTs whose
/// first operand comes from a pool of `pool` wires (a small pool repeats
/// pairs), spread uniformly among one-qubit ops up to `ops` ops in all.
fn random_stream(seed: u64, qubits: u32, cnots: usize, pool: u32, ops: usize) -> FtCircuit {
    let mut state = seed;
    let mut ft = FtCircuit::new(qubits);
    let mut left = cnots;
    for remaining in (1..=ops.max(cnots) as u64).rev() {
        if draw(&mut state, remaining) < left as u64 {
            let a = draw(&mut state, u64::from(pool.min(qubits))) as u32;
            let mut b = draw(&mut state, u64::from(qubits - 1)) as u32;
            if b >= a {
                b += 1;
            }
            ft.push_cnot(QubitId(a), QubitId(b)).unwrap();
            left -= 1;
        } else {
            let kind = OneQubitKind::ALL[draw(&mut state, 8) as usize];
            let target = draw(&mut state, u64::from(qubits)) as u32;
            ft.push_one_qubit(kind, QubitId(target)).unwrap();
        }
    }
    ft
}

fn pairs_of(ft: &FtCircuit) -> Vec<(u32, u32)> {
    ft.ops()
        .iter()
        .filter_map(|op| match *op {
            FtOp::Cnot { control, target } => {
                Some((control.0.min(target.0), control.0.max(target.0)))
            }
            FtOp::OneQubit { .. } => None,
        })
        .collect()
}

fn accumulated(ft: &FtCircuit, chunk: usize) -> Iig {
    let mut acc = IigAccumulator::with_chunk_pairs(ft.num_qubits(), chunk);
    for &op in ft.ops() {
        acc.push(op);
    }
    acc.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn every_entry_point_matches_sort_rle(
        seed in 0u64..u64::MAX,
        qubits in 1u32..=1200,
        cnots in 0usize..=2500,
        pool in 2u32..=1200,
        dense_side in 0u32..2,
    ) {
        // `ops` lands just on one side of the switch `Q² ≤ 2·ops`; a
        // bucketed stream also keeps its CNOTs below the switch.
        let switch = (qubits as usize * qubits as usize).div_ceil(2);
        let cnots = if qubits < 2 { 0 } else { cnots };
        let (cnots, ops) = if dense_side == 1 {
            (cnots, switch.max(cnots))
        } else {
            let below = switch.saturating_sub(1);
            (cnots.min(below), below)
        };
        let ft = random_stream(seed, qubits, cnots, pool, ops);
        let pairs = pairs_of(&ft);
        let oracle = sort_rle(&pairs);
        let expected = Iig::from_weighted_edges(qubits, oracle.clone()).unwrap();

        // The kernel under both layouts: the natural bound, and a bound
        // large enough to force the dense matrix.
        let natural = count_edges(qubits, pairs.len(), || pairs.iter().copied());
        prop_assert_eq!(&natural, &oracle);
        let forced = pairs.len().max(qubits as usize * qubits as usize);
        let dense = count_edges(qubits, forced, || pairs.iter().copied());
        prop_assert_eq!(&dense, &oracle);

        prop_assert_eq!(&Iig::from_ft_circuit(&ft), &expected);
        prop_assert_eq!(&Iig::from_qodg(&Qodg::from_ft_circuit(&ft)), &expected);
        for chunk in [1, 7, DEFAULT_CHUNK_PAIRS] {
            prop_assert_eq!(&accumulated(&ft, chunk), &expected);
        }
    }
}

#[test]
fn edgeless_streams_give_empty_runs() {
    for qubits in [0, 1, 2, 40] {
        assert!(count_edges(qubits, 0, std::iter::empty).is_empty());
        assert!(count_edges(qubits, 1 << 20, std::iter::empty).is_empty());
        let iig = Iig::from_ft_circuit(&FtCircuit::new(qubits));
        assert_eq!(iig, Iig::from_weighted_edges(qubits, []).unwrap());
    }
}
