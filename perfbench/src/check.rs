//! Reply checks, run outside the timed region.
//!
//! Every reply is compared bit for bit with a direct engine call on a
//! freshly lowered QODG: `leqa::Estimator` for `estimate` and `sweep`
//! (streamed replies too, so they are checked against the materialized
//! path), and `qspr::Mapper::map` for the `actual_us` of `compare`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use leqa::{Estimate, Estimator, ProfileData, ProgramProfile};
use leqa_api::{CompareResponse, EstimateResponse, Response, SweepResponse};
use leqa_circuit::{decompose::lower_to_ft, Qodg};
use leqa_fabric::PhysicalParams;
use qspr::Mapper;

use crate::gen::{Op, Req, PAPER_SIDE};
use crate::layers::dims;

/// A reply as the caller received it.
#[derive(Debug, Clone)]
pub enum Reply {
    Ok(Response),
    Failed(String),
}

/// Lowers a generated program afresh.
pub fn lower_fresh(name: &str) -> Qodg {
    let circuit = leqa_workloads::circuit_by_name(name).expect("generated names resolve");
    let ft = lower_to_ft(&circuit).expect("generated circuits lower");
    Qodg::from_ft_circuit(&ft)
}

/// One program lowered afresh, with direct estimates and mappings
/// memoized by fabric side.
struct Reference {
    name: String,
    qodg: Qodg,
    data: ProfileData,
    estimates: HashMap<u32, Option<Estimate>>,
    mapped: HashMap<u32, f64>,
}

impl Reference {
    fn new(name: &str) -> Self {
        let qodg = lower_fresh(name);
        let data = ProfileData::new(&qodg);
        Reference {
            name: name.to_string(),
            qodg,
            data,
            estimates: HashMap::new(),
            mapped: HashMap::new(),
        }
    }

    /// The direct estimate, `None` when the program does not fit.
    fn estimate(&mut self, side: u32) -> Option<&Estimate> {
        let (qodg, data) = (&self.qodg, &self.data);
        self.estimates
            .entry(side)
            .or_insert_with(|| {
                Estimator::new(dims(side), PhysicalParams::dac13())
                    .estimate_with_profile(&ProgramProfile::from_data(qodg, data))
                    .ok()
            })
            .as_ref()
    }

    fn mapped_us(&mut self, side: u32) -> f64 {
        let qodg = &self.qodg;
        *self.mapped.entry(side).or_insert_with(|| {
            Mapper::new(dims(side), PhysicalParams::dac13())
                .map(qodg)
                .expect("checked programs fit")
                .latency
                .as_f64()
        })
    }

    fn check(&mut self, req: &Req, reply: &Reply) -> Result<(), String> {
        let resp = match reply {
            Reply::Failed(e) => return Err(format!("request failed: {e}")),
            Reply::Ok(resp) => resp,
        };
        match (&req.op, resp) {
            (Op::Estimate { side }, Response::Estimate(r)) => self.check_estimate(*side, r),
            (Op::Sweep { sizes }, Response::Sweep(r)) => self.check_sweep(sizes, r),
            (Op::Compare { side }, Response::Compare(r)) => self.check_compare(*side, r),
            _ => Err("reply of the wrong kind".to_string()),
        }
    }

    fn check_summary(&self, label: &str, qubits: u64, ops: u64) -> Result<(), String> {
        let want = (
            self.name.as_str(),
            u64::from(self.qodg.num_qubits()),
            self.qodg.op_count() as u64,
        );
        if (label, qubits, ops) != want {
            return Err(format!(
                "program summary {label}/{qubits}/{ops}, want {want:?}"
            ));
        }
        Ok(())
    }

    fn check_estimate(&mut self, side: u32, r: &EstimateResponse) -> Result<(), String> {
        self.check_summary(&r.program.label, r.program.qubits, r.program.ops)?;
        let e = self.estimate(side).ok_or("direct estimate failed")?;
        let same = (r.fabric.width, r.fabric.height) == (side, side)
            && bits(r.latency_us) == bits(e.latency.as_f64())
            && bits(r.l_cnot_avg_us) == bits(e.l_cnot_avg.as_f64())
            && bits(r.l_one_qubit_avg_us) == bits(e.l_one_qubit_avg.as_f64())
            && bits(r.d_uncong_us) == bits(e.d_uncong.as_f64())
            && bits(r.avg_zone_area) == bits(e.avg_zone_area)
            && r.zone_side == e.zone_side
            && r.esq.len() == e.esq.len()
            && r.esq.iter().zip(&e.esq).all(|(a, b)| bits(*a) == bits(*b))
            && r.critical_cnots == e.critical.cnot_count
            && r.critical_one_qubit == e.critical.one_qubit_counts.iter().sum::<u64>();
        if same {
            Ok(())
        } else {
            Err(format!(
                "estimate at side {side}: reply latency {} vs direct {}",
                r.latency_us,
                e.latency.as_f64()
            ))
        }
    }

    fn check_sweep(&mut self, sizes: &[u32], r: &SweepResponse) -> Result<(), String> {
        self.check_summary(&r.program.label, r.program.qubits, r.program.ops)?;
        if r.points.len() != sizes.len() {
            return Err("sweep point count".to_string());
        }
        let mut best: Option<(u32, f64)> = None;
        for (p, &side) in r.points.iter().zip(sizes) {
            let want = self
                .estimate(side)
                .map(|e| (bits(e.l_cnot_avg.as_f64()), e.latency.as_f64()));
            let got = p.l_cnot_avg_us.map(bits).zip(p.latency_us);
            if p.side != side || want.map(|(l, d)| (l, bits(d))) != got.map(|(l, d)| (l, bits(d))) {
                return Err(format!("sweep point at side {side} differs"));
            }
            if let Some((_, d)) = want {
                if best.is_none_or(|(_, b)| d < b) {
                    best = Some((side, d));
                }
            }
        }
        if r.optimal_side != best.map(|(s, _)| s) {
            return Err("sweep optimal side differs".to_string());
        }
        Ok(())
    }

    fn check_compare(&mut self, side: u32, r: &CompareResponse) -> Result<(), String> {
        self.check_summary(&r.program.label, r.program.qubits, r.program.ops)?;
        let estimated = self
            .estimate(side)
            .ok_or("direct estimate failed")?
            .latency
            .as_f64();
        let actual = self.mapped_us(side);
        if bits(r.actual_us) != bits(actual) || bits(r.estimated_us) != bits(estimated) {
            return Err(format!(
                "compare: reply {}/{} vs direct {actual}/{estimated}",
                r.actual_us, r.estimated_us
            ));
        }
        Ok(())
    }

    /// The estimator's error against the mapper at the paper's fabric, %.
    fn error_pct(&mut self) -> f64 {
        let actual = self.mapped_us(PAPER_SIDE);
        let estimated = self
            .estimate(PAPER_SIDE)
            .expect("accuracy programs fit the paper's fabric")
            .latency
            .as_f64();
        100.0 * (estimated - actual).abs() / actual
    }
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// What the checks found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Replies that failed or did not match.
    pub failed: u64,
    /// The first few mismatches, for the report.
    pub messages: Vec<String>,
    /// Estimator error against the mapper at 60×60, % per accuracy program.
    pub error_pct: BTreeMap<String, f64>,
}

/// Threads the checks run on: the cores of the reference machine.
const THREADS: usize = 2;

/// Checks replies, each with the number of times it was received
/// byte-identically, and measures the estimator's error on
/// `accuracy_programs`. Work is spread over [`THREADS`] threads, one
/// program at a time.
pub fn check(replies: &[(Req, Reply, u64)], accuracy_programs: &BTreeSet<String>) -> Outcome {
    let mut by_program: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, (req, _, _)) in replies.iter().enumerate() {
        by_program.entry(req.program.as_str()).or_default().push(i);
    }
    for name in accuracy_programs {
        by_program.entry(name.as_str()).or_default();
    }
    let work: Vec<(&str, Vec<usize>)> = by_program.into_iter().collect();
    let next = AtomicUsize::new(0);
    let outcome = Mutex::new(Outcome::default());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                while let Some((name, indices)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                    check_program(name, indices, replies, accuracy_programs, &outcome);
                }
            });
        }
    });
    let mut outcome = outcome.into_inner().expect("a checker thread panicked");
    outcome.messages.truncate(5);
    outcome
}

/// Checks one program's replies against a fresh lowering of it.
fn check_program(
    name: &str,
    indices: &[usize],
    replies: &[(Req, Reply, u64)],
    accuracy_programs: &BTreeSet<String>,
    outcome: &Mutex<Outcome>,
) {
    let mut reference = Reference::new(name);
    let mut failed = 0;
    let mut messages = Vec::new();
    for &i in indices {
        let (req, reply, count) = &replies[i];
        if let Err(e) = reference.check(req, reply) {
            failed += count;
            messages.push(format!("{name}: {e}"));
        }
    }
    let error = accuracy_programs
        .contains(name)
        .then(|| reference.error_pct());
    let mut out = outcome.lock().expect("a checker thread panicked");
    out.failed += failed;
    out.messages.extend(messages);
    if let Some(e) = error {
        out.error_pct.insert(name.to_string(), e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leqa_api::Session;

    #[test]
    fn session_replies_pass_and_tampered_ones_fail() {
        let session = Session::builder().build().unwrap();
        let reqs = [
            Req {
                program: "qft_16".into(),
                op: Op::Estimate { side: 12 },
            },
            Req {
                program: "qft_16".into(),
                op: Op::Sweep {
                    sizes: vec![3, 8, 12],
                },
            },
            Req {
                program: "8bitadder".into(),
                op: Op::Compare { side: 20 },
            },
        ];
        let mut replies: Vec<(Req, Reply, u64)> = reqs
            .iter()
            .map(|r| {
                let resp = session.execute(&r.request()).unwrap();
                (r.clone(), Reply::Ok(resp), 2)
            })
            .collect();
        let accuracy = BTreeSet::from(["8bitadder".to_string()]);
        let ok = check(&replies, &accuracy);
        assert_eq!(ok.failed, 0, "{:?}", ok.messages);
        assert!(ok.error_pct["8bitadder"] > 0.0);

        if let Reply::Ok(Response::Estimate(e)) = &mut replies[0].1 {
            e.latency_us = f64::from_bits(e.latency_us.to_bits() + 1);
        }
        replies[2].1 = Reply::Failed("boom".into());
        let bad = check(&replies, &BTreeSet::new());
        assert_eq!(bad.failed, 4);
    }
}
