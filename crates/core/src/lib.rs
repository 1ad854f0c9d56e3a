//! LEQA — fast latency estimation for a quantum algorithm mapped to a
//! quantum circuit fabric (reproduction of Dousti & Pedram, DAC 2013).
//!
//! Computing the true latency of a quantum program requires detailed
//! scheduling, placement and routing of every qubit movement on the tiled
//! quantum architecture (the `qspr` baseline crate in this workspace). LEQA
//! instead estimates the latency from *neighbourhood population counts*:
//! each qubit is assigned a hypothetical presence zone sized by its
//! interaction degree, zones are dropped uniformly at random on the fabric,
//! and the expected overlap statistics feed an M/M/1 congestion model that
//! prices the average CNOT routing latency. Adding that price to the gate
//! delays and re-running a critical-path pass over the dependency graph
//! yields the estimate (Eq. 1 / Algorithm 1).
//!
//! # Quick start: the `Session` façade
//!
//! The supported entry point for applications is the request/response
//! layer in the `leqa-api` crate (re-exported as `leqa_repro::api`): a
//! `Session` owns the fabric dimensions, physical parameters and
//! estimator options, caches per-program profiles by content hash, and
//! answers typed requests (see `API.md` at the workspace root):
//!
//! ```text
//! use leqa_api::{ProgramSpec, Session};
//!
//! let session = Session::builder().build()?;          // 60×60, Table 1 params
//! let response = session.estimate(
//!     &leqa_api::EstimateRequest::new(ProgramSpec::bench("8bitadder")),
//! )?;
//! println!("{}", response.to_json().encode());            // versioned JSON
//! ```
//!
//! This crate is the engine underneath: building blocks for callers that
//! need the raw Algorithm 1 pipeline (the `qspr` differential tests, the
//! bench harness, the sweep engine) without the service framing.
//!
//! # Engine-level use
//!
//! ```
//! use leqa::Estimator;
//! use leqa_circuit::{decompose::lower_to_ft, Circuit, Gate, Qodg, QubitId};
//! use leqa_fabric::{FabricDims, PhysicalParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small program: Toffoli then CNOT.
//! let mut c = Circuit::new(3);
//! c.push(Gate::toffoli(QubitId(0), QubitId(1), QubitId(2))?)?;
//! c.push(Gate::cnot(QubitId(0), QubitId(2))?)?;
//! let ft = lower_to_ft(&c)?;
//! let qodg = Qodg::from_ft_circuit(&ft);
//!
//! let estimator = Estimator::new(FabricDims::dac13(), PhysicalParams::dac13());
//! let estimate = estimator.estimate(&qodg)?;
//! assert!(estimate.latency.as_f64() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! Estimating one program on many fabrics? Build a [`ProgramProfile`]
//! once (or cache its owned [`ProfileData`]) and use
//! [`Estimator::estimate_with_profile`] or the amortised engine in
//! [`sweep`].
//!
//! # Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | Eqs. 6–7 (presence zones) | [`presence`] |
//! | Eqs. 4–5 (coverage statistics `P_{x,y}`, `E[S_q]`) | [`coverage`] |
//! | Eqs. 8–11 (M/M/1 channel congestion) | [`queue`] |
//! | Eqs. 13–16 (TSP-bound Hamiltonian path, `d_uncong`) | [`tsp`] |
//! | Eqs. 1–2 + Algorithm 1 | [`Estimator`] |

// `deny` rather than `forbid`: the counting allocator in `meter`
// implements `GlobalAlloc`, which is an unsafe trait; everything else
// stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
mod error;
mod estimator;
pub mod meter;
mod paths;
pub mod pool;
pub mod presence;
mod profile;
pub mod queue;
pub mod report;
pub mod stream;
pub mod sweep;
pub mod tsp;

pub use error::EstimateError;
pub use estimator::{Estimate, Estimator, EstimatorOptions, ZoneRounding};
pub use profile::{ProfileData, ProgramProfile};
pub use stream::{FnSource, GateSource, IigAccumulator, StreamingProfileBuilder};
