//! Seeded request generation. The program under test only ever sees the
//! requests made here; the same seed always yields the same requests.

use leqa_api::{CompareRequest, EstimateRequest, ProgramSpec, Request, SweepRequest};
use leqa_workloads::shor::{default_rounds, shor_lowered_qubits};
use leqa_workloads::SUITE;

/// SplitMix64: a tiny, fully specified generator, so request lists do not
/// depend on any crate under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// What a request asks of its program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// `estimate` on a `side × side` fabric.
    Estimate { side: u32 },
    /// `sweep` over square candidates.
    Sweep { sizes: Vec<u32> },
    /// `compare` on a `side × side` fabric.
    Compare { side: u32 },
}

/// One generated request. Requests with equal `(program, op)` must get
/// byte-identical replies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Req {
    pub program: String,
    pub op: Op,
}

impl Req {
    /// The request as the API takes it.
    pub fn request(&self) -> Request {
        let spec = ProgramSpec::bench(self.program.clone());
        match &self.op {
            Op::Estimate { side } => {
                Request::Estimate(EstimateRequest::new(spec).with_fabric(*side, *side))
            }
            Op::Sweep { sizes } => Request::Sweep(SweepRequest::new(spec, sizes.iter().copied())),
            Op::Compare { side } => {
                Request::Compare(CompareRequest::new(spec).with_fabric(*side, *side))
            }
        }
    }

    /// The NDJSON request line (without the newline), written here rather
    /// than by the codec under test.
    pub fn line(&self) -> String {
        let p = &self.program;
        match &self.op {
            Op::Estimate { side } => format!(
                "{{\"schema_version\":1,\"op\":\"estimate\",\"program\":{{\"bench\":\"{p}\"}},\
                 \"fabric\":{{\"width\":{side},\"height\":{side}}}}}"
            ),
            Op::Sweep { sizes } => {
                let sizes: Vec<String> = sizes.iter().map(u32::to_string).collect();
                format!(
                    "{{\"schema_version\":1,\"op\":\"sweep\",\"program\":{{\"bench\":\"{p}\"}},\
                     \"sizes\":[{}]}}",
                    sizes.join(",")
                )
            }
            Op::Compare { side } => format!(
                "{{\"schema_version\":1,\"op\":\"compare\",\"program\":{{\"bench\":\"{p}\"}},\
                 \"fabric\":{{\"width\":{side},\"height\":{side}}}}}"
            ),
        }
    }
}

/// The programs `design_loop` keeps resident.
pub const DESIGN_PROGRAMS: [&str; 6] = [
    "qft_64",
    "gf2^64mult",
    "hwb100ps",
    "shor_64",
    "gf2^128mult",
    "random_16_60000",
];

/// Slots per `design_loop` cycle: each program three times as `estimate`
/// and once as `sweep`, in a seeded order.
const DESIGN_CYCLE: u64 = 24;

/// Request `k` of `design_loop`: a warm `estimate` or `sweep` with its own
/// fabric side (40..=80, every resident program fits at 40).
pub fn design_loop(seed: u64, k: u64) -> Req {
    let cycle = k / DESIGN_CYCLE;
    let mut slots: Vec<u64> = (0..DESIGN_CYCLE).collect();
    Rng::derive(seed, cycle).shuffle(&mut slots);
    let slot = slots[(k % DESIGN_CYCLE) as usize];
    let mut rng = Rng::derive(seed ^ 0xD5, k);
    let program = DESIGN_PROGRAMS[(slot % 6) as usize].to_string();
    let op = if slot / 6 == 3 {
        let start = rng.range(40, 60);
        Op::Sweep {
            sizes: (0..6).map(|i| start + 4 * i).collect(),
        }
    } else {
        Op::Estimate {
            side: rng.range(40, 80),
        }
    };
    Req { program, op }
}

/// Named programs of every `cold_programs` round: the Table 2 suite,
/// `shor_64` (materialized) and `shor_256` (streamed).
pub fn cold_named() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = SUITE.iter().map(|b| b.name).collect();
    names.extend(["shor_64", "shor_256"]);
    names
}

/// Seeded random draws per `cold_programs` round. With the 20 named
/// programs they make a 45-request round, which keeps the 50th and 90th
/// percentiles off the boundary between two requests' ranks.
pub const COLD_RANDOM_PER_ROUND: u32 = 25;

/// Logical qubits after lowering of a `cold_programs` name.
pub fn lowered_qubits(name: &str) -> u32 {
    if let Some(bench) = leqa_workloads::Benchmark::by_name(name) {
        return u32::try_from(bench.paper.qubits).expect("suite widths fit u32");
    }
    if let Some(n) = name.strip_prefix("shor_") {
        let n: u32 = n.parse().expect("shor_N names only");
        return shor_lowered_qubits(n, default_rounds(n)).expect("valid shor width");
    }
    // random_Q_G_S: lowering a random circuit adds no ancillas.
    name.split('_')
        .nth(1)
        .and_then(|q| q.parse().ok())
        .expect("random_Q_G_S names only")
}

/// Round `round` of `cold_programs`: every named program plus
/// [`COLD_RANDOM_PER_ROUND`] fresh `random_Q_G_S` draws (about 20k to 270k
/// lowered ops), in a seeded order, each on a fabric a little larger than
/// it needs.
pub fn cold_round(seed: u64, round: u64) -> Vec<Req> {
    let mut rng = Rng::derive(seed ^ 0xC0, round);
    let mut names: Vec<String> = cold_named().into_iter().map(String::from).collect();
    for _ in 0..COLD_RANDOM_PER_ROUND {
        let qubits = rng.range(12, 40);
        let gates = rng.range(4_500, 60_000);
        let s = rng.next_u64() % 1_000_000_000;
        names.push(format!("random_{qubits}_{gates}_{s}"));
    }
    rng.shuffle(&mut names);
    names
        .into_iter()
        .map(|program| {
            let need = f64::from(lowered_qubits(&program)).sqrt().ceil() as u32;
            let side = need.max(8) + rng.range(2, 20);
            Req {
                program,
                op: Op::Estimate { side },
            }
        })
        .collect()
}

/// The paper's fabric side.
pub const PAPER_SIDE: u32 = 60;

/// Seeded `random_24_256_S` draws `map_compare` compares. With the suite
/// and `qft_64` they make a 25-request cycle, which keeps the 50th, 90th
/// and 99th percentiles inside one program's samples rather than on the
/// boundary between two.
pub const COMPARE_RANDOM: u64 = 6;

/// The programs `map_compare` compares: the Table 2 suite, `qft_64` and
/// [`COMPARE_RANDOM`] seeded `random_24_256_S`.
pub fn compare_programs(seed: u64) -> Vec<String> {
    let mut names: Vec<String> = SUITE.iter().map(|b| b.name.to_string()).collect();
    names.push("qft_64".to_string());
    let first = Rng::derive(seed ^ 0xA1, 0).next_u64() % 1000;
    names.extend((first..first + COMPARE_RANDOM).map(|s| format!("random_24_256_{s}")));
    names
}

/// Request `k` of `map_compare`: cycles over [`compare_programs`], each
/// cycle in its own seeded order, at the paper's 60×60 fabric.
pub fn map_compare(seed: u64, programs: &[String], k: u64) -> Req {
    let n = programs.len() as u64;
    let mut order: Vec<usize> = (0..programs.len()).collect();
    Rng::derive(seed ^ 0x3C, k / n).shuffle(&mut order);
    Req {
        program: programs[order[(k % n) as usize]].clone(),
        op: Op::Compare { side: PAPER_SIDE },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(reqs: &[Req]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in reqs {
            for b in r.line().bytes().chain(std::iter::once(b'\n')) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    fn design(seed: u64) -> Vec<Req> {
        (0..500).map(|k| design_loop(seed, k)).collect()
    }

    fn cold(seed: u64) -> Vec<Req> {
        (0..3).flat_map(|r| cold_round(seed, r)).collect()
    }

    fn compare(seed: u64) -> Vec<Req> {
        let programs = compare_programs(seed);
        (0..200).map(|k| map_compare(seed, &programs, k)).collect()
    }

    #[test]
    fn a_seed_always_yields_the_same_requests() {
        for seed in [1, 2, 77] {
            assert_eq!(design(seed), design(seed));
            assert_eq!(cold(seed), cold(seed));
            assert_eq!(compare(seed), compare(seed));
        }
        assert_ne!(design(1), design(2));
        assert_ne!(cold(1), cold(2));
        assert_ne!(compare(1), compare(2));
    }

    #[test]
    fn request_lists_are_pinned() {
        // Changing any generator changes the workload, and with it every
        // recorded number: such a change is a new benchmark version.
        assert_eq!(fingerprint(&design(1)), 0xcb16_61a8_5221_047d);
        assert_eq!(fingerprint(&cold(1)), 0x14a6_4cf0_a9c1_0d8f);
        assert_eq!(fingerprint(&compare(1)), 0xecc3_269e_a728_3d11);
    }

    #[test]
    fn cycles_hold_the_stated_mix() {
        let reqs = design(5);
        let sweeps = reqs[..480]
            .iter()
            .filter(|r| matches!(r.op, Op::Sweep { .. }))
            .count();
        assert_eq!(sweeps, 120);
        let round = cold_round(5, 0);
        assert_eq!(
            round.len(),
            cold_named().len() + COLD_RANDOM_PER_ROUND as usize
        );
        for name in cold_named() {
            assert_eq!(round.iter().filter(|r| r.program == name).count(), 1);
        }
        let programs = compare_programs(5);
        let cycle = compare(5);
        assert_eq!(programs.len(), 25);
        for p in &programs {
            assert_eq!(cycle[..25].iter().filter(|r| &r.program == p).count(), 1);
        }
    }

    #[test]
    fn named_programs_fit_their_fabrics() {
        for name in cold_named() {
            let qubits = match leqa_workloads::stream_by_name(name) {
                Some(stream) => stream.num_qubits(),
                None => crate::check::lower_fresh(name).num_qubits(),
            };
            assert_eq!(lowered_qubits(name), qubits, "{name}");
        }
    }

    #[test]
    fn lines_are_what_the_codec_would_write() {
        let reqs = [
            design_loop(3, 0),
            Req {
                program: "qft_64".into(),
                op: Op::Sweep {
                    sizes: vec![40, 44],
                },
            },
            map_compare(3, &compare_programs(3), 0),
        ];
        for r in reqs {
            assert_eq!(r.line(), r.request().to_json().encode());
        }
    }
}
