//! `leqa-api` — the service-grade request/response façade over the LEQA
//! estimator (the workspace's *only* supported application entry point;
//! re-exported as `leqa_repro::api`).
//!
//! The paper's pitch is that latency estimation is cheap enough to sit
//! inside an optimisation loop. At production scale that means LEQA must
//! be callable as a *service*: typed requests in, versioned
//! machine-readable responses out, one entry point instead of a scatter
//! of free functions. This crate provides exactly that:
//!
//! * [`Session`] — owns fabric dimensions, physical parameters and
//!   estimator options (via [`SessionBuilder`]), and caches each loaded
//!   program's [`leqa::ProfileData`] keyed by a content hash of its
//!   canonical circuit text, so repeat requests never rebuild profiles.
//!   `Send + Sync` with every endpoint on `&self`: one session serves
//!   all your worker threads (sharded cache, atomic counters — see
//!   `API.md`'s threading contract).
//! * Request/response DTOs ([`EstimateRequest`] → [`EstimateResponse`],
//!   sweep/zones/compare/map, and [`Request`]/[`Response`] envelopes) —
//!   plain structs carrying a `schema_version`, encoded and decoded by
//!   the dependency-free [`json`] module.
//! * [`Session::batch`] — N requests in, N result slots out, programs
//!   deduplicated so each profile is built exactly once; fans out over
//!   worker threads with the `parallel` feature.
//! * [`LeqaError`] — the unified error taxonomy ([`ErrorKind`] + context
//!   chain + stable exit codes) every layer's failures converge to.
//! * [`experiment`] — the declarative design-space engine: a
//!   [`ScenarioSpec`] declares a cartesian grid over workloads, fabric
//!   sizes, physical-parameter variants and router/movement variants;
//!   [`Session::batch_experiment`] (or the streaming
//!   [`ExperimentRunner`]) executes it through the profile cache and the
//!   sweep engine, emitting one byte-stable NDJSON row per cell plus a
//!   summary record.
//! * [`server`] — the persistent service daemon behind `leqa serve`:
//!   newline-delimited JSON over stdio or TCP, every connection sharing
//!   one resident [`Session`] (warm cache, persistent worker pool),
//!   with admission control, a `stats` control endpoint and graceful
//!   shutdown. Wire reference in `SERVER.md`.
//!
//! The full wire schema, the error/exit-code table, and a migration
//! guide from the old free functions live in `API.md` at the workspace
//! root.
//!
//! # Example
//!
//! ```
//! use leqa_api::{EstimateRequest, ProgramSpec, Session};
//!
//! # fn main() -> Result<(), leqa_api::LeqaError> {
//! let session = Session::builder().build()?; // 60×60, Table 1 params
//! let response = session.estimate(&EstimateRequest::new(
//!     ProgramSpec::source(".qubits 2\ncnot 0 1\nh 0\n"),
//! ))?;
//! assert!(response.latency_us > 0.0);
//!
//! // Same program again: served from the profile cache.
//! let again = session.estimate(&EstimateRequest::new(
//!     ProgramSpec::source(".qubits 2\ncnot 0 1\nh 0\n"),
//! ))?;
//! assert!(again.profile_cached);
//! assert_eq!(again.latency_us, response.latency_us);
//!
//! // Every DTO speaks versioned JSON.
//! let wire = response.to_json().encode();
//! assert!(wire.starts_with("{\"schema_version\":1,"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod dto;
mod error;
pub mod experiment;
pub mod fabricmap;
pub mod faults;
pub mod frame;
pub mod json;
pub mod render;
pub mod server;
mod session;
pub mod shard;
pub mod store;

pub use experiment::{
    AxisFilter, CellMetrics, CellRow, DensityStats, ExperimentMode, ExperimentPlan,
    ExperimentResponse, ExperimentRunner, ExperimentSummary, FabricEntry, MonteCarloSpec,
    MonteCarloSummary, ParamVariant, ResultSelect, ScenarioSpec,
};
pub use fabricmap::{FabricMapSpec, OverlaySpec, RandomDefects};

pub use dto::{
    BatchRequest, BatchResponse, CompareRequest, CompareResponse, ControlFrame, ErrorFrame,
    EstimateRequest, EstimateResponse, FabricSpec, FrameProto, MapRequest, MapResponse,
    ProgramSpec, ProgramSummary, Request, Response, ShutdownAck, StatsResponse, SweepPointDto,
    SweepRequest, SweepResponse, UpgradeAck, ZoneRowDto, ZonesRequest, ZonesResponse,
    SCHEMA_VERSION,
};
pub use error::{ErrorKind, LeqaError};
pub use faults::{FaultAction, FaultDecision, FaultInjector, FaultPlan};
pub use frame::{write_frame, FrameDecoder, FrameError, FRAME1, MAX_FRAME_PAYLOAD};
pub use server::{BoundServer, Frame, Server, ServerConfig};
pub use session::{
    CacheStats, ProgramHandle, Session, SessionBuilder, StoreStats, DEFAULT_STREAMING_THRESHOLD,
};
pub use shard::{BoundShard, Shard};
pub use store::{ProfileStore, SnapshotError};
