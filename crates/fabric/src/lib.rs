//! Tiled quantum architecture (TQA) substrate for the LEQA reproduction.
//!
//! The paper (Dousti & Pedram, DAC 2013) models the quantum circuit fabric as
//! an `a × b` grid of Universal Logic Blocks (ULBs) separated by routing
//! channels of capacity `N_c` (Fig. 1). This crate provides:
//!
//! * [`FabricDims`] — the grid itself and its geometry,
//! * [`Ulb`] — a ULB coordinate, with Manhattan distance and neighbourhood,
//! * [`Channel`] / [`ChannelId`] — the routing channels between adjacent
//!   ULBs, with a dense index for occupancy bookkeeping,
//! * [`route::xy_route`] — deterministic dimension-ordered (X-then-Y) paths,
//!   also walked as dense channel ids ([`route::xy_channel_ids`]),
//! * [`FabricMap`] — defect/heterogeneity overlay (dead cells and
//!   channels, per-region parameter overrides, defect-avoiding routing),
//! * [`PhysicalParams`] / [`GateDelays`] — the physical parameter set of
//!   Table 1 (\[\[7,1,3\]\] Steane code on an ion-trap fabric),
//! * [`Micros`] — a newtype for latencies in microseconds.
//!
//! # Examples
//!
//! ```
//! use leqa_fabric::{FabricDims, PhysicalParams, Ulb};
//!
//! # fn main() -> Result<(), leqa_fabric::FabricError> {
//! let dims = FabricDims::new(60, 60)?; // the paper's 3600-ULB fabric
//! assert_eq!(dims.area(), 3600);
//!
//! let a = Ulb::new(0, 0);
//! let b = Ulb::new(3, 4);
//! assert_eq!(a.manhattan_distance(b), 7);
//!
//! let params = PhysicalParams::dac13();
//! assert_eq!(params.channel_capacity(), 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod error;
mod grid;
mod map;
mod params;
pub mod route;
mod units;

pub use channel::{Channel, ChannelId, ChannelOrientation};
pub use error::FabricError;
pub use grid::{FabricDims, Ulb, UlbIter};
pub use map::{CellOverrides, FabricMap, RegionOverlay, SplitMix64};
pub use params::{GateDelays, OneQubitKind, PhysicalParams, PhysicalParamsBuilder};
pub use units::Micros;
