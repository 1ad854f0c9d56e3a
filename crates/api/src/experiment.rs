//! The declarative experiment engine: one spec in, a design-space study
//! out.
//!
//! The paper's value proposition is answering design-space questions —
//! how does latency move across fabric dimensions, physical parameters
//! and benchmark circuits — without paying a detailed mapping run per
//! point. A [`ScenarioSpec`] declares a cartesian grid over up to five
//! axes:
//!
//! * **workloads** — suite names and parametric specs (`qft_N[_K]`,
//!   `random_Q_G[_S]`; the [`leqa_workloads::circuit_by_name`] grammar),
//! * **fabrics** — explicit square sides and/or `min..max step` ranges
//!   (overlapping entries are deduplicated, first occurrence wins),
//! * **params** — named physical-parameter override variants
//!   (`t_move_us`, `qubit_speed`, `channel_capacity` over the session's
//!   base parameters),
//! * **routers** / **movements** — QSPR routing/movement variants.
//!
//! plus per-axis filters (workload substring, side bounds, a cell-count
//! guard) and a result selector (`full` rows or `latency`-only rows).
//!
//! The [`ExperimentRunner`] expands the grid with the fabric axis
//! innermost, loads each distinct program **once** through the session's
//! sharded profile cache, and executes:
//!
//! * `estimate` mode — one [`sweep_profile_squares`] call per
//!   (workload, params) group resolves the whole fabric axis through the
//!   program's path table; every cell is bit-identical
//!   to an independent [`Session::estimate`] call (the engine contract,
//!   pinned by `crates/api/tests/experiment.rs`).
//! * `map` / `compare` modes — the remaining cells fan out over the
//!   persistent worker pool (`parallel` feature), one QSPR run per cell.
//!
//! Results stream as NDJSON rows (one per cell, byte-stable key order)
//! followed by one summary record carrying min/max/argmin latency per
//! workload and the cache-hit delta. `leqa experiment --spec file.json`
//! is the CLI adapter; [`Session::batch_experiment`] is the collected
//! API endpoint.

use std::sync::Arc;

use leqa::sweep::{sweep_profile_squares, SweepPoint};
use leqa::{Estimator, ProgramProfile};
use leqa_fabric::{FabricDims, FabricMap, Micros, PhysicalParams, SplitMix64};
use qspr::{Mapper, MapperConfig, MovementModel, PlacementStrategy, RouterStrategy};

use crate::dto::{
    check_schema_version, check_wire_seed, field, json_opt_num, movement_from_name, movement_name,
    opt_f64, opt_u32, opt_u64, reject_removed_mapper_options, router_from_name, router_name,
    str_field, u64_field, ProgramSpec, SCHEMA_VERSION,
};
use crate::error::{ErrorKind, LeqaError};
use crate::json::Json;
use crate::session::{fan_out, CacheStats, ProgramHandle, Session};

/// Hard cap on materialized fabric sides per experiment, enforced by an
/// O(#entries) arithmetic pre-check so even a spec without a
/// `max_cells` guard cannot make `--dry-run` allocate unbounded memory.
/// Far above any meaningful grid (sides are fabric dimensions; real
/// studies use dozens).
pub const MAX_FABRIC_SIDES: u64 = 100_000;

/// The sub-range of `min..=max` (stride `step`, aligned to `min`) that
/// survives the `[min_side, max_side]` filter: `Some((first, hi))` with
/// `first` the smallest aligned side ≥ the filter floor, or `None` when
/// the window is empty. Shared by the arithmetic cell-count pre-check
/// and the expansion loop, so both agree and neither ever walks the
/// unfiltered range.
fn range_window(min: u32, max: u32, step: u32, min_side: u32, max_side: u32) -> Option<(u32, u32)> {
    debug_assert!(step > 0 && min <= max);
    let lo = min.max(min_side);
    let hi = max.min(max_side);
    if lo > hi {
        return None;
    }
    let offset = (u64::from(lo) - u64::from(min)).div_ceil(u64::from(step));
    let first = u64::from(min) + offset * u64::from(step);
    if first > u64::from(hi) {
        None
    } else {
        Some((u32::try_from(first).expect("first <= hi <= u32::MAX"), hi))
    }
}

// ── The spec ─────────────────────────────────────────────────────────────

/// What each cell of the grid runs.
///
/// `#[non_exhaustive]`: future modes (e.g. zones) may be added; match
/// with a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ExperimentMode {
    /// Algorithm 1 per cell (default). The fabric axis runs through the
    /// amortised sweep engine; rows are bit-identical to independent
    /// [`Session::estimate`] calls.
    #[default]
    Estimate,
    /// The detailed QSPR mapper per cell.
    Map,
    /// QSPR mapping *and* the LEQA estimate per cell (Table 2 per cell).
    Compare,
    /// The Monte Carlo percolation-yield study: every cell is expanded
    /// into `densities × trials` seeded QSPR runs on randomly defective
    /// fabrics (see [`MonteCarloSpec`]); the summary reports per-density
    /// routability with a Wilson interval and the interpolated critical
    /// defect density (the percolation knee, after arXiv:1307.2755).
    MonteCarlo,
}

impl ExperimentMode {
    /// The stable wire name (`estimate` / `map` / `compare`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExperimentMode::Estimate => "estimate",
            ExperimentMode::Map => "map",
            ExperimentMode::Compare => "compare",
            ExperimentMode::MonteCarlo => "montecarlo",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "estimate" => ExperimentMode::Estimate,
            "map" => ExperimentMode::Map,
            "compare" => ExperimentMode::Compare,
            "montecarlo" => ExperimentMode::MonteCarlo,
            _ => return None,
        })
    }
}

/// The Monte Carlo axis of a `montecarlo`-mode spec: the defect-density
/// sweep and the trial count per density.
///
/// Each (density, trial) pair of each cell draws an independent
/// [`FabricMap::with_random_defects`] fabric — cells *and* channels are
/// knocked out at the same density — with a per-trial seed derived from
/// `seed` via [`SplitMix64::mix`], so a spec is exactly reproducible.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MonteCarloSpec {
    /// Defect densities to sweep (each in `[0, 1]`; order is preserved
    /// in the rows, the summary sorts ascending for the knee scan).
    pub densities: Vec<f64>,
    /// Seeded trials per density (≥ 1).
    pub trials: u32,
    /// Base RNG seed for the whole study (at most 2^53, the largest
    /// integer JSON carries exactly).
    pub seed: u64,
}

impl MonteCarloSpec {
    /// A study over the given densities with the given trial count.
    #[must_use]
    pub fn new(densities: impl IntoIterator<Item = f64>, trials: u32, seed: u64) -> Self {
        MonteCarloSpec {
            densities: densities.into_iter().collect(),
            trials,
            seed,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "densities",
                Json::Arr(self.densities.iter().map(|&d| Json::Num(d)).collect()),
            ),
            ("trials", Json::num(self.trials)),
            ("seed", Json::Num(self.seed as f64)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let what = "montecarlo section";
        let densities = field(value, "densities", what)?
            .as_arr()
            .ok_or_else(|| LeqaError::new(ErrorKind::Json, "`densities` must be an array"))?
            .iter()
            .map(|d| {
                d.as_f64().ok_or_else(|| {
                    LeqaError::new(ErrorKind::Json, "montecarlo densities must be numbers")
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(MonteCarloSpec {
            densities,
            trials: u64_field(value, "trials", what)?
                .try_into()
                .map_err(|_| LeqaError::new(ErrorKind::Json, "montecarlo `trials` too large"))?,
            seed: u64_field(value, "seed", what)?,
        })
    }
}

/// Which fields each NDJSON cell row carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ResultSelect {
    /// Every per-cell quantity the mode produces (default).
    #[default]
    Full,
    /// Only the headline latency (`latency_us`; `actual_us`/`estimated_us`
    /// in compare mode) — compact rows for wide grids.
    Latency,
}

impl ResultSelect {
    /// The stable wire name (`full` / `latency`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ResultSelect::Full => "full",
            ResultSelect::Latency => "latency",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "full" => ResultSelect::Full,
            "latency" => ResultSelect::Latency,
            _ => return None,
        })
    }
}

/// One entry of the fabric axis: a single square side or an inclusive
/// stepped range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEntry {
    /// One square side.
    Side(u32),
    /// `min, min+step, … ≤ max` (inclusive of `max` when the step lands
    /// on it).
    Range {
        /// First side.
        min: u32,
        /// Inclusive upper bound.
        max: u32,
        /// Stride (must be positive).
        step: u32,
    },
}

impl FabricEntry {
    fn to_json(self) -> Json {
        match self {
            FabricEntry::Side(s) => Json::num(s),
            FabricEntry::Range { min, max, step } => Json::obj(vec![
                ("min", Json::num(min)),
                ("max", Json::num(max)),
                ("step", Json::num(step)),
            ]),
        }
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        if let Some(side) = value.as_u64() {
            let side = u32::try_from(side)
                .map_err(|_| LeqaError::new(ErrorKind::Json, "fabric side out of range for u32"))?;
            return Ok(FabricEntry::Side(side));
        }
        if value.get("min").is_some() {
            let to_u32 = |key: &str| -> Result<u32, LeqaError> {
                u64_field(value, key, "fabric range")?
                    .try_into()
                    .map_err(|_| {
                        LeqaError::new(
                            ErrorKind::Json,
                            format!("fabric range `{key}` out of range"),
                        )
                    })
            };
            return Ok(FabricEntry::Range {
                min: to_u32("min")?,
                max: to_u32("max")?,
                step: to_u32("step")?,
            });
        }
        Err(LeqaError::new(
            ErrorKind::Json,
            "fabric entries must be a side number or a {\"min\",\"max\",\"step\"} range",
        ))
    }
}

/// One named physical-parameter override variant. Fields left `None`
/// keep the session's base value; the variant named `default` with no
/// overrides is the implicit axis when a spec omits `params`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ParamVariant {
    /// Label echoed in every row of this variant (must be unique).
    pub name: String,
    /// Override for `T_move` in microseconds.
    pub t_move_us: Option<f64>,
    /// Override for the qubit speed `v` (ULB edges per microsecond).
    pub qubit_speed: Option<f64>,
    /// Override for the channel capacity `N_c`.
    pub channel_capacity: Option<u32>,
}

impl ParamVariant {
    /// A variant with no overrides (the session's base parameters).
    #[must_use]
    pub fn base(name: impl Into<String>) -> Self {
        ParamVariant {
            name: name.into(),
            t_move_us: None,
            qubit_speed: None,
            channel_capacity: None,
        }
    }

    /// Sets the `T_move` override (microseconds).
    #[must_use]
    pub fn with_t_move_us(mut self, t_move_us: f64) -> Self {
        self.t_move_us = Some(t_move_us);
        self
    }

    /// Sets the qubit-speed override.
    #[must_use]
    pub fn with_qubit_speed(mut self, qubit_speed: f64) -> Self {
        self.qubit_speed = Some(qubit_speed);
        self
    }

    /// Sets the channel-capacity override.
    #[must_use]
    pub fn with_channel_capacity(mut self, capacity: u32) -> Self {
        self.channel_capacity = Some(capacity);
        self
    }

    /// Applies the overrides to a base parameter set.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Invalid`] when an override violates the parameter
    /// rules (negative/non-finite delay, zero capacity or speed).
    pub fn apply(&self, base: &PhysicalParams) -> Result<PhysicalParams, LeqaError> {
        let mut builder = base.to_builder();
        if let Some(t) = self.t_move_us {
            builder = builder.t_move(Micros::new(t));
        }
        if let Some(v) = self.qubit_speed {
            builder = builder.qubit_speed(v);
        }
        if let Some(c) = self.channel_capacity {
            builder = builder.channel_capacity(c);
        }
        builder
            .build()
            .map_err(LeqaError::from)
            .map_err(|e| e.context(format!("experiment params variant `{}`", self.name)))
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("t_move_us", json_opt_num(self.t_move_us)),
            ("qubit_speed", json_opt_num(self.qubit_speed)),
            (
                "channel_capacity",
                self.channel_capacity.map(Json::num).unwrap_or(Json::Null),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let what = "params variant";
        Ok(ParamVariant {
            name: str_field(value, "name", what)?,
            t_move_us: opt_f64(value, "t_move_us", what)?,
            qubit_speed: opt_f64(value, "qubit_speed", what)?,
            channel_capacity: opt_u32(value, "channel_capacity", what)?,
        })
    }
}

/// Per-axis filters applied during grid expansion.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct AxisFilter {
    /// Keep only workloads whose name contains this substring.
    pub workloads: Option<String>,
    /// Keep only fabric sides `≥ min_side`.
    pub min_side: Option<u32>,
    /// Keep only fabric sides `≤ max_side`.
    pub max_side: Option<u32>,
    /// Refuse to run grids larger than this many cells
    /// ([`ErrorKind::Invalid`]; check with `--dry-run` first).
    pub max_cells: Option<u64>,
}

impl AxisFilter {
    /// Whether no filter is set (the default).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self == &AxisFilter::default()
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "workloads",
                self.workloads
                    .as_deref()
                    .map(Json::str)
                    .unwrap_or(Json::Null),
            ),
            (
                "min_side",
                self.min_side.map(Json::num).unwrap_or(Json::Null),
            ),
            (
                "max_side",
                self.max_side.map(Json::num).unwrap_or(Json::Null),
            ),
            (
                "max_cells",
                self.max_cells
                    .map(|n| Json::Num(n as f64))
                    .unwrap_or(Json::Null),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let what = "filter";
        let workloads = match value.get("workloads") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| {
                        LeqaError::new(ErrorKind::Json, "filter `workloads` must be a string")
                    })?
                    .to_string(),
            ),
        };
        Ok(AxisFilter {
            workloads,
            min_side: opt_u32(value, "min_side", what)?,
            max_side: opt_u32(value, "max_side", what)?,
            max_cells: opt_u64(value, "max_cells", what)?,
        })
    }
}

/// A declarative design-space experiment: the cartesian grid over the
/// axes, filters and result selector (see the module docs for semantics
/// and `API.md` for the wire schema).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ScenarioSpec {
    /// Workload axis: names in the [`leqa_workloads::circuit_by_name`]
    /// grammar. Duplicates collapse (first occurrence wins).
    pub workloads: Vec<String>,
    /// Fabric axis: square sides and/or stepped ranges; overlapping
    /// entries collapse (first occurrence wins).
    pub fabrics: Vec<FabricEntry>,
    /// Physical-parameter variants (default: one base variant named
    /// `default`).
    pub params: Vec<ParamVariant>,
    /// Router variants (default: `[xy]`). Affects `map`/`compare` cells;
    /// `estimate` cells echo the label (the estimator is router-blind).
    pub routers: Vec<RouterStrategy>,
    /// Movement variants (default: `[home]`); same applicability as
    /// routers.
    pub movements: Vec<MovementModel>,
    /// What each cell runs.
    pub mode: ExperimentMode,
    /// Which fields each row carries.
    pub select: ResultSelect,
    /// Per-axis filters.
    pub filter: AxisFilter,
    /// The Monte Carlo axis — required when (and only meaningful when)
    /// `mode` is [`ExperimentMode::MonteCarlo`].
    pub montecarlo: Option<MonteCarloSpec>,
}

impl ScenarioSpec {
    /// Creates a spec over the two mandatory axes with every default:
    /// base parameters only, `xy` router, `home` movement, `estimate`
    /// mode, `full` rows, no filters.
    #[must_use]
    pub fn new(
        workloads: impl IntoIterator<Item = impl Into<String>>,
        fabrics: impl IntoIterator<Item = FabricEntry>,
    ) -> Self {
        ScenarioSpec {
            workloads: workloads.into_iter().map(Into::into).collect(),
            fabrics: fabrics.into_iter().collect(),
            params: vec![ParamVariant::base("default")],
            routers: vec![RouterStrategy::Xy],
            movements: vec![MovementModel::HomeBased],
            mode: ExperimentMode::Estimate,
            select: ResultSelect::Full,
            filter: AxisFilter::default(),
            montecarlo: None,
        }
    }

    /// Replaces the parameter-variant axis.
    #[must_use]
    pub fn with_params(mut self, params: impl IntoIterator<Item = ParamVariant>) -> Self {
        self.params = params.into_iter().collect();
        self
    }

    /// Replaces the router axis.
    #[must_use]
    pub fn with_routers(mut self, routers: impl IntoIterator<Item = RouterStrategy>) -> Self {
        self.routers = routers.into_iter().collect();
        self
    }

    /// Replaces the movement axis.
    #[must_use]
    pub fn with_movements(mut self, movements: impl IntoIterator<Item = MovementModel>) -> Self {
        self.movements = movements.into_iter().collect();
        self
    }

    /// Sets the mode.
    #[must_use]
    pub fn with_mode(mut self, mode: ExperimentMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the result selector.
    #[must_use]
    pub fn with_select(mut self, select: ResultSelect) -> Self {
        self.select = select;
        self
    }

    /// Sets the filters.
    #[must_use]
    pub fn with_filter(mut self, filter: AxisFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Sets the Monte Carlo axis and switches the spec into
    /// [`ExperimentMode::MonteCarlo`].
    #[must_use]
    pub fn with_montecarlo(mut self, montecarlo: MonteCarloSpec) -> Self {
        self.montecarlo = Some(montecarlo);
        self.mode = ExperimentMode::MonteCarlo;
        self
    }

    /// Serializes the spec envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("experiment")),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(Json::str).collect()),
            ),
            (
                "fabrics",
                Json::Arr(self.fabrics.iter().map(|f| f.to_json()).collect()),
            ),
            (
                "params",
                Json::Arr(self.params.iter().map(ParamVariant::to_json).collect()),
            ),
            (
                "routers",
                Json::Arr(
                    self.routers
                        .iter()
                        .map(|&r| Json::str(router_name(r)))
                        .collect(),
                ),
            ),
            (
                "movements",
                Json::Arr(
                    self.movements
                        .iter()
                        .map(|&m| Json::str(movement_name(m)))
                        .collect(),
                ),
            ),
            ("mode", Json::str(self.mode.name())),
            ("select", Json::str(self.select.name())),
            ("filter", self.filter.to_json()),
            (
                "montecarlo",
                self.montecarlo
                    .as_ref()
                    .map(MonteCarloSpec::to_json)
                    .unwrap_or(Json::Null),
            ),
        ])
    }

    /// Decodes a spec envelope. `params`, `routers`, `movements`,
    /// `mode`, `select` and `filter` are optional and default like
    /// [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors
    /// (axis *content* is validated later, by
    /// [`plan`](Self::plan)); [`ErrorKind::Invalid`] for a `schedulers`
    /// axis or `passes` spec naming a removed mapper engine.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        reject_removed_mapper_options(value)?;
        let what = "experiment spec";
        let workloads = field(value, "workloads", what)?
            .as_arr()
            .ok_or_else(|| LeqaError::new(ErrorKind::Json, "`workloads` must be an array"))?
            .iter()
            .map(|w| {
                w.as_str().map(str::to_string).ok_or_else(|| {
                    LeqaError::new(ErrorKind::Json, "workload names must be strings")
                })
            })
            .collect::<Result<_, _>>()?;
        let fabrics = field(value, "fabrics", what)?
            .as_arr()
            .ok_or_else(|| LeqaError::new(ErrorKind::Json, "`fabrics` must be an array"))?
            .iter()
            .map(FabricEntry::from_json)
            .collect::<Result<_, _>>()?;
        let params = match value.get("params") {
            None | Some(Json::Null) => vec![ParamVariant::base("default")],
            Some(v) => v
                .as_arr()
                .ok_or_else(|| LeqaError::new(ErrorKind::Json, "`params` must be an array"))?
                .iter()
                .map(ParamVariant::from_json)
                .collect::<Result<_, _>>()?,
        };
        fn named_axis<T>(
            value: &Json,
            key: &str,
            parse: impl Fn(&str) -> Option<T>,
            default: T,
        ) -> Result<Vec<T>, LeqaError> {
            match value.get(key) {
                None | Some(Json::Null) => Ok(vec![default]),
                Some(v) => v
                    .as_arr()
                    .ok_or_else(|| {
                        LeqaError::new(ErrorKind::Json, format!("`{key}` must be an array"))
                    })?
                    .iter()
                    .map(|item| {
                        item.as_str().and_then(&parse).ok_or_else(|| {
                            LeqaError::new(ErrorKind::Json, format!("unknown name in `{key}` axis"))
                        })
                    })
                    .collect(),
            }
        }
        let routers = named_axis(value, "routers", router_from_name, RouterStrategy::Xy)?;
        let movements = named_axis(
            value,
            "movements",
            movement_from_name,
            MovementModel::HomeBased,
        )?;
        let mode = match value.get("mode") {
            None | Some(Json::Null) => ExperimentMode::Estimate,
            Some(v) => v
                .as_str()
                .and_then(ExperimentMode::from_name)
                .ok_or_else(|| {
                    LeqaError::new(
                        ErrorKind::Json,
                        "`mode` must be `estimate`, `map`, `compare` or `montecarlo`",
                    )
                })?,
        };
        let select = match value.get("select") {
            None | Some(Json::Null) => ResultSelect::Full,
            Some(v) => v
                .as_str()
                .and_then(ResultSelect::from_name)
                .ok_or_else(|| {
                    LeqaError::new(ErrorKind::Json, "`select` must be `full` or `latency`")
                })?,
        };
        let filter = match value.get("filter") {
            None | Some(Json::Null) => AxisFilter::default(),
            Some(v) => AxisFilter::from_json(v)?,
        };
        let montecarlo = match value.get("montecarlo") {
            None | Some(Json::Null) => None,
            Some(v) => Some(MonteCarloSpec::from_json(v)?),
        };
        Ok(ScenarioSpec {
            workloads,
            fabrics,
            params,
            routers,
            movements,
            mode,
            select,
            filter,
            montecarlo,
        })
    }

    /// Expands and validates the grid without running anything — the
    /// `--dry-run` entry point.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Invalid`] for empty axes (including axes emptied by a
    /// filter), malformed fabric ranges, duplicate variant names, a
    /// Monte Carlo seed above 2^53, or a grid exceeding
    /// `filter.max_cells`; [`ErrorKind::Usage`] for
    /// workload names outside the grammar.
    pub fn plan(&self) -> Result<ExperimentPlan, LeqaError> {
        let invalid = |msg: String| LeqaError::new(ErrorKind::Invalid, msg);

        // Workload axis: dedupe, filter, validate names.
        if self.workloads.is_empty() {
            return Err(invalid("experiment workload axis is empty".into()));
        }
        let mut workloads: Vec<String> = Vec::new();
        for name in &self.workloads {
            if !workloads.contains(name) {
                workloads.push(name.clone());
            }
        }
        if let Some(pat) = &self.filter.workloads {
            workloads.retain(|w| w.contains(pat.as_str()));
            if workloads.is_empty() {
                return Err(invalid(format!(
                    "workload filter `{pat}` leaves no workloads"
                )));
            }
        }
        for name in &workloads {
            // Parse-only validation: a dry-run must never pay circuit
            // generation just to reject a typo.
            if !leqa_workloads::workload_name_is_known(name) {
                return Err(LeqaError::usage(format!(
                    "unknown workload `{name}`; names follow Table 3 (e.g. gf2^16mult) or the \
                     parametric forms (e.g. qft_64, random_12_200)"
                )));
            }
        }

        // Variant axes (validated before fabric expansion so the
        // per-side cell multiplier is known while ranges expand).
        if self.params.is_empty() {
            return Err(invalid("experiment params axis is empty".into()));
        }
        for (i, variant) in self.params.iter().enumerate() {
            if self.params[..i].iter().any(|v| v.name == variant.name) {
                return Err(invalid(format!(
                    "duplicate params variant name `{}`",
                    variant.name
                )));
            }
        }
        if self.routers.is_empty() {
            return Err(invalid("experiment router axis is empty".into()));
        }
        if self.movements.is_empty() {
            return Err(invalid("experiment movement axis is empty".into()));
        }
        let montecarlo = match (self.mode, &self.montecarlo) {
            (ExperimentMode::MonteCarlo, Some(mc)) => {
                if mc.densities.is_empty() {
                    return Err(invalid("montecarlo `densities` axis is empty".into()));
                }
                for &d in &mc.densities {
                    if !(d.is_finite() && (0.0..=1.0).contains(&d)) {
                        return Err(invalid(format!("montecarlo density {d} is outside [0, 1]")));
                    }
                }
                if mc.trials == 0 {
                    return Err(invalid("montecarlo `trials` must be positive".into()));
                }
                check_wire_seed(mc.seed, "montecarlo")?;
                Some(mc.clone())
            }
            (ExperimentMode::MonteCarlo, None) => {
                return Err(invalid(
                    "montecarlo mode needs a `montecarlo` section \
                     ({\"densities\": [..], \"trials\": N, \"seed\": S})"
                        .into(),
                ));
            }
            (_, Some(_)) => {
                return Err(invalid(
                    "a `montecarlo` section requires `mode`: `montecarlo`".into(),
                ));
            }
            (_, None) => None,
        };
        let trials_per_cell = montecarlo
            .as_ref()
            .map_or(1, |mc| mc.densities.len() as u64 * u64::from(mc.trials));
        let cells_per_side = workloads.len() as u64
            * self.params.len() as u64
            * self.routers.len() as u64
            * self.movements.len() as u64
            * trials_per_cell;

        // Fabric axis: expand ranges with the side-bound filters applied
        // inline, dedupe overlaps (first occurrence wins). The
        // `max_cells` guard is enforced *while* expanding — a
        // pathological range must be rejected cheaply, not after
        // materializing it — and counts exactly the sides that survive
        // the filters.
        if self.fabrics.is_empty() {
            return Err(invalid("experiment fabric axis is empty".into()));
        }
        let min_side = self.filter.min_side.unwrap_or(0);
        let max_side = self.filter.max_side.unwrap_or(u32::MAX);

        // Arithmetic pre-check before anything is materialized: sum each
        // entry's post-filter candidate count in O(#entries). The sum is
        // an upper bound (overlaps still dedupe below), so rejecting on
        // it never rejects a grid the dedupe pass would have admitted
        // past the cap — it can only reject specs that were oversized
        // entry-by-entry, which MAX_FABRIC_SIDES is far too generous for
        // anyway. This keeps `--dry-run` O(spec size) even for absurd
        // ranges with no `max_cells` set.
        let mut candidate_sides = 0u64;
        for entry in &self.fabrics {
            candidate_sides = candidate_sides.saturating_add(match *entry {
                FabricEntry::Side(s) => u64::from(s >= min_side && s <= max_side),
                FabricEntry::Range { min, max, step } if step > 0 && min <= max => {
                    match range_window(min, max, step, min_side, max_side) {
                        None => 0,
                        Some((first, hi)) => {
                            (u64::from(hi) - u64::from(first)) / u64::from(step) + 1
                        }
                    }
                }
                // Malformed ranges error out in the expansion loop below.
                FabricEntry::Range { .. } => 0,
            });
        }
        if candidate_sides > MAX_FABRIC_SIDES {
            return Err(invalid(format!(
                "fabric axis expands to {candidate_sides} candidate sides (cap \
                 {MAX_FABRIC_SIDES}); narrow the ranges or add side filters"
            )));
        }
        let mut sides: Vec<u32> = Vec::new();
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut push = |side: u32| -> Result<(), LeqaError> {
            if side < min_side || side > max_side || !seen.insert(side) {
                return Ok(());
            }
            if let Some(max_cells) = self.filter.max_cells {
                let cells = (sides.len() as u64 + 1).saturating_mul(cells_per_side);
                if cells > max_cells {
                    return Err(invalid(format!(
                        "experiment expands to over {cells} cells, above the spec's \
                         max_cells {max_cells}"
                    )));
                }
            }
            sides.push(side);
            Ok(())
        };
        for entry in &self.fabrics {
            match *entry {
                FabricEntry::Side(0) => {
                    return Err(invalid("fabric side must be positive".into()));
                }
                FabricEntry::Side(s) => push(s)?,
                FabricEntry::Range { min, max, step } => {
                    if min == 0 {
                        return Err(invalid("fabric range `min` must be positive".into()));
                    }
                    if step == 0 {
                        return Err(invalid("fabric range `step` must be positive".into()));
                    }
                    if min > max {
                        return Err(invalid(format!(
                            "fabric range {min}..{max} is empty (min > max)"
                        )));
                    }
                    // Iterate only the filtered window (aligned to the
                    // range's stride): a huge range narrowed by side
                    // filters must not cost O(range) iterations.
                    let Some((first, hi)) = range_window(min, max, step, min_side, max_side) else {
                        continue;
                    };
                    let mut side = first;
                    loop {
                        push(side)?;
                        side = match side.checked_add(step) {
                            Some(next) if next <= hi => next,
                            _ => break,
                        };
                    }
                }
            }
        }
        if sides.is_empty() {
            return Err(invalid("fabric filter leaves no candidate sides".into()));
        }
        let cells = cells_per_side * sides.len() as u64;

        Ok(ExperimentPlan {
            workloads,
            sides,
            params: self.params.clone(),
            routers: self.routers.clone(),
            movements: self.movements.clone(),
            mode: self.mode,
            select: self.select,
            cells,
            montecarlo,
        })
    }
}

// ── The expanded plan ────────────────────────────────────────────────────

/// A validated, fully expanded grid (axes deduplicated and filtered).
///
/// Cell order is fixed and documented: workloads × params × routers ×
/// movements × sides, fabric innermost — the order an equivalent serial
/// loop of single-cell requests would use.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ExperimentPlan {
    /// Deduplicated, filtered workload names.
    pub workloads: Vec<String>,
    /// Deduplicated, filtered square sides (first-occurrence order).
    pub sides: Vec<u32>,
    /// Parameter variants.
    pub params: Vec<ParamVariant>,
    /// Router variants.
    pub routers: Vec<RouterStrategy>,
    /// Movement variants.
    pub movements: Vec<MovementModel>,
    /// The mode every cell runs.
    pub mode: ExperimentMode,
    /// The row selector.
    pub select: ResultSelect,
    /// Total cell count (product of the axis lengths; in `montecarlo`
    /// mode this includes the `densities × trials` expansion).
    pub cells: u64,
    /// The validated Monte Carlo axis (`montecarlo` mode only).
    pub montecarlo: Option<MonteCarloSpec>,
}

impl ExperimentPlan {
    /// The `experiment_plan` record printed by `--dry-run`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("experiment_plan")),
            ("cells", Json::Num(self.cells as f64)),
            ("workloads", Json::num(self.workloads.len() as u32)),
            ("params", Json::num(self.params.len() as u32)),
            ("routers", Json::num(self.routers.len() as u32)),
            ("movements", Json::num(self.movements.len() as u32)),
            ("sides", Json::num(self.sides.len() as u32)),
            ("mode", Json::str(self.mode.name())),
            ("select", Json::str(self.select.name())),
            (
                "montecarlo",
                self.montecarlo
                    .as_ref()
                    .map(|mc| {
                        Json::obj(vec![
                            ("densities", Json::num(mc.densities.len() as u32)),
                            ("trials", Json::num(mc.trials)),
                        ])
                    })
                    .unwrap_or(Json::Null),
            ),
        ])
    }
}

// ── Rows ─────────────────────────────────────────────────────────────────

/// The mode-specific measurements of one cell. Every field is `None`
/// when the program does not fit the cell's fabric (`fit: false` rows).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CellMetrics {
    /// `estimate` mode quantities (a subset of
    /// [`EstimateResponse`](crate::EstimateResponse)).
    Estimate {
        /// Eq. 1 latency in microseconds.
        latency_us: Option<f64>,
        /// `L_CNOT^avg` (Eq. 2) in microseconds.
        l_cnot_avg_us: Option<f64>,
        /// `d_uncong` (Eq. 12) in microseconds.
        d_uncong_us: Option<f64>,
        /// `B` (Eq. 7).
        avg_zone_area: Option<f64>,
        /// The integer zone side of Eq. 5.
        zone_side: Option<u32>,
        /// CNOTs on the routing-aware critical path.
        critical_cnots: Option<u64>,
    },
    /// `map` mode quantities (a subset of
    /// [`MapResponse`](crate::MapResponse)).
    Map {
        /// The detailed schedule's latency in microseconds.
        latency_us: Option<f64>,
        /// CNOTs routed.
        cnot_ops: Option<u64>,
        /// Average CNOT routing distance in hops.
        avg_cnot_distance: Option<f64>,
        /// Congestion wait summed over qubits, in microseconds.
        congestion_wait_us: Option<f64>,
        /// Traversals through the busiest channel.
        max_channel_load: Option<u64>,
    },
    /// `compare` mode quantities.
    Compare {
        /// QSPR's detailed-schedule latency in microseconds.
        actual_us: Option<f64>,
        /// LEQA's estimate in microseconds.
        estimated_us: Option<f64>,
        /// `|est − actual| / actual` in percent (`None` when unfit or
        /// `actual_us` is 0).
        error_pct: Option<f64>,
    },
    /// `montecarlo` mode quantities: one seeded trial on one randomly
    /// defective fabric.
    MonteCarlo {
        /// Defect density this trial was drawn at.
        density: f64,
        /// Zero-based trial index within the density.
        trial: u32,
        /// Whether every CNOT found a defect-free route (`None` when
        /// the program did not fit the fabric's *live* cells — those
        /// trials are `fit: false` rows and excluded from the
        /// routability rate).
        routable: Option<bool>,
        /// The detailed schedule's latency (`None` unless routable).
        latency_us: Option<f64>,
        /// Congestion wait summed over qubits (`None` unless routable).
        congestion_wait_us: Option<f64>,
        /// Defective cells on this trial's fabric.
        dead_cells: Option<u64>,
        /// Defective channels on this trial's fabric.
        dead_channels: Option<u64>,
    },
}

impl CellMetrics {
    /// The headline latency the summary aggregates (`latency_us`;
    /// `actual_us` in compare mode).
    #[must_use]
    pub fn primary_latency_us(&self) -> Option<f64> {
        match self {
            CellMetrics::Estimate { latency_us, .. }
            | CellMetrics::Map { latency_us, .. }
            | CellMetrics::MonteCarlo { latency_us, .. } => *latency_us,
            CellMetrics::Compare { actual_us, .. } => *actual_us,
        }
    }

    fn fit(&self) -> bool {
        match self {
            // An unroutable trial still *fit* the fabric — the placement
            // succeeded; only the routing percolated. Unfit is reserved
            // for programs larger than the live-cell count.
            CellMetrics::MonteCarlo { routable, .. } => routable.is_some(),
            _ => self.primary_latency_us().is_some(),
        }
    }

    fn push_fields(&self, select: ResultSelect, pairs: &mut Vec<(&'static str, Json)>) {
        match self {
            CellMetrics::Estimate {
                latency_us,
                l_cnot_avg_us,
                d_uncong_us,
                avg_zone_area,
                zone_side,
                critical_cnots,
            } => {
                pairs.push(("latency_us", json_opt_num(*latency_us)));
                if select == ResultSelect::Full {
                    pairs.push(("l_cnot_avg_us", json_opt_num(*l_cnot_avg_us)));
                    pairs.push(("d_uncong_us", json_opt_num(*d_uncong_us)));
                    pairs.push(("avg_zone_area", json_opt_num(*avg_zone_area)));
                    pairs.push(("zone_side", zone_side.map(Json::num).unwrap_or(Json::Null)));
                    pairs.push((
                        "critical_cnots",
                        critical_cnots
                            .map(|n| Json::Num(n as f64))
                            .unwrap_or(Json::Null),
                    ));
                }
            }
            CellMetrics::Map {
                latency_us,
                cnot_ops,
                avg_cnot_distance,
                congestion_wait_us,
                max_channel_load,
            } => {
                pairs.push(("latency_us", json_opt_num(*latency_us)));
                if select == ResultSelect::Full {
                    pairs.push((
                        "cnot_ops",
                        cnot_ops.map(|n| Json::Num(n as f64)).unwrap_or(Json::Null),
                    ));
                    pairs.push(("avg_cnot_distance", json_opt_num(*avg_cnot_distance)));
                    pairs.push(("congestion_wait_us", json_opt_num(*congestion_wait_us)));
                    pairs.push((
                        "max_channel_load",
                        max_channel_load
                            .map(|n| Json::Num(n as f64))
                            .unwrap_or(Json::Null),
                    ));
                }
            }
            CellMetrics::Compare {
                actual_us,
                estimated_us,
                error_pct,
            } => {
                pairs.push(("actual_us", json_opt_num(*actual_us)));
                pairs.push(("estimated_us", json_opt_num(*estimated_us)));
                if select == ResultSelect::Full {
                    pairs.push(("error_pct", json_opt_num(*error_pct)));
                }
            }
            CellMetrics::MonteCarlo {
                density,
                trial,
                routable,
                latency_us,
                congestion_wait_us,
                dead_cells,
                dead_channels,
            } => {
                pairs.push(("density", Json::Num(*density)));
                pairs.push(("trial", Json::num(*trial)));
                pairs.push(("routable", routable.map(Json::Bool).unwrap_or(Json::Null)));
                pairs.push(("latency_us", json_opt_num(*latency_us)));
                if select == ResultSelect::Full {
                    pairs.push(("congestion_wait_us", json_opt_num(*congestion_wait_us)));
                    pairs.push((
                        "dead_cells",
                        dead_cells
                            .map(|n| Json::Num(n as f64))
                            .unwrap_or(Json::Null),
                    ));
                    pairs.push((
                        "dead_channels",
                        dead_channels
                            .map(|n| Json::Num(n as f64))
                            .unwrap_or(Json::Null),
                    ));
                }
            }
        }
    }

    fn from_json(value: &Json, mode: ExperimentMode, what: &str) -> Result<Self, LeqaError> {
        Ok(match mode {
            ExperimentMode::Estimate => CellMetrics::Estimate {
                latency_us: opt_f64(value, "latency_us", what)?,
                l_cnot_avg_us: opt_f64(value, "l_cnot_avg_us", what)?,
                d_uncong_us: opt_f64(value, "d_uncong_us", what)?,
                avg_zone_area: opt_f64(value, "avg_zone_area", what)?,
                zone_side: opt_u32(value, "zone_side", what)?,
                critical_cnots: opt_u64(value, "critical_cnots", what)?,
            },
            ExperimentMode::Map => CellMetrics::Map {
                latency_us: opt_f64(value, "latency_us", what)?,
                cnot_ops: opt_u64(value, "cnot_ops", what)?,
                avg_cnot_distance: opt_f64(value, "avg_cnot_distance", what)?,
                congestion_wait_us: opt_f64(value, "congestion_wait_us", what)?,
                max_channel_load: opt_u64(value, "max_channel_load", what)?,
            },
            ExperimentMode::Compare => CellMetrics::Compare {
                actual_us: opt_f64(value, "actual_us", what)?,
                estimated_us: opt_f64(value, "estimated_us", what)?,
                error_pct: opt_f64(value, "error_pct", what)?,
            },
            ExperimentMode::MonteCarlo => CellMetrics::MonteCarlo {
                density: field(value, "density", what)?.as_f64().ok_or_else(|| {
                    LeqaError::new(ErrorKind::Json, "cell `density` must be a number")
                })?,
                trial: u64_field(value, "trial", what)?
                    .try_into()
                    .map_err(|_| LeqaError::new(ErrorKind::Json, "cell `trial` out of range"))?,
                routable: match value.get("routable") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_bool().ok_or_else(|| {
                        LeqaError::new(ErrorKind::Json, "cell `routable` must be a boolean")
                    })?),
                },
                latency_us: opt_f64(value, "latency_us", what)?,
                congestion_wait_us: opt_f64(value, "congestion_wait_us", what)?,
                dead_cells: opt_u64(value, "dead_cells", what)?,
                dead_channels: opt_u64(value, "dead_channels", what)?,
            },
        })
    }
}

/// One NDJSON row: the cell's coordinates on every axis plus its
/// measurements.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct CellRow {
    /// Zero-based cell index in plan order.
    pub cell: u64,
    /// Workload name.
    pub workload: String,
    /// Parameter-variant name.
    pub params: String,
    /// Router variant.
    pub router: RouterStrategy,
    /// Movement variant.
    pub movement: MovementModel,
    /// Square fabric side.
    pub side: u32,
    /// Whether the program fits this cell's fabric.
    pub fit: bool,
    /// The measurements (every field `None` when `fit` is false).
    pub metrics: CellMetrics,
}

impl CellRow {
    /// Serializes the row (byte-stable key order; the key set depends
    /// only on the spec's mode and selector, never on the cell).
    #[must_use]
    pub fn to_json(&self, select: ResultSelect) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("experiment_cell")),
            ("cell", Json::Num(self.cell as f64)),
            ("workload", Json::str(&self.workload)),
            ("params", Json::str(&self.params)),
            ("router", Json::str(router_name(self.router))),
            ("movement", Json::str(movement_name(self.movement))),
            ("side", Json::num(self.side)),
            ("fit", Json::Bool(self.fit)),
        ];
        self.metrics.push_fields(select, &mut pairs);
        Json::obj(pairs)
    }

    /// Decodes a row emitted by [`to_json`](Self::to_json). Fields the
    /// selector dropped decode as `None`.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json, mode: ExperimentMode) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let what = "experiment cell";
        let metrics = CellMetrics::from_json(value, mode, what)?;
        Ok(CellRow {
            cell: u64_field(value, "cell", what)?,
            workload: str_field(value, "workload", what)?,
            params: str_field(value, "params", what)?,
            router: router_from_name(&str_field(value, "router", what)?).ok_or_else(|| {
                LeqaError::new(ErrorKind::Json, "experiment cell: unknown router")
            })?,
            movement: movement_from_name(&str_field(value, "movement", what)?).ok_or_else(
                || LeqaError::new(ErrorKind::Json, "experiment cell: unknown movement"),
            )?,
            side: u64_field(value, "side", what)?
                .try_into()
                .map_err(|_| LeqaError::new(ErrorKind::Json, "cell side out of range"))?,
            fit: field(value, "fit", what)?
                .as_bool()
                .ok_or_else(|| LeqaError::new(ErrorKind::Json, "cell `fit` must be a boolean"))?,
            metrics,
        })
    }
}

// ── Summary ──────────────────────────────────────────────────────────────

/// Per-workload aggregate of the summary record.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct WorkloadSummary {
    /// The workload name.
    pub workload: String,
    /// Cells of this workload whose program fit the fabric.
    pub fit_cells: u64,
    /// Minimum primary latency over fitting cells.
    pub min_latency_us: Option<f64>,
    /// Maximum primary latency over fitting cells.
    pub max_latency_us: Option<f64>,
    /// Fabric side of the minimum-latency cell (first on ties).
    pub argmin_side: Option<u32>,
    /// Cell index of the minimum-latency cell (first on ties).
    pub argmin_cell: Option<u64>,
}

impl WorkloadSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("fit_cells", Json::Num(self.fit_cells as f64)),
            ("min_latency_us", json_opt_num(self.min_latency_us)),
            ("max_latency_us", json_opt_num(self.max_latency_us)),
            (
                "argmin_side",
                self.argmin_side.map(Json::num).unwrap_or(Json::Null),
            ),
            (
                "argmin_cell",
                self.argmin_cell
                    .map(|n| Json::Num(n as f64))
                    .unwrap_or(Json::Null),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let what = "workload summary";
        Ok(WorkloadSummary {
            workload: str_field(value, "workload", what)?,
            fit_cells: u64_field(value, "fit_cells", what)?,
            min_latency_us: opt_f64(value, "min_latency_us", what)?,
            max_latency_us: opt_f64(value, "max_latency_us", what)?,
            argmin_side: opt_u32(value, "argmin_side", what)?,
            argmin_cell: opt_u64(value, "argmin_cell", what)?,
        })
    }
}

/// Per-density aggregate of a Monte Carlo run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct DensityStats {
    /// The defect density.
    pub density: f64,
    /// Trials whose program fit the fabric's live cells.
    pub trials: u64,
    /// Fitting trials where every CNOT found a defect-free route.
    pub routable: u64,
    /// `routable / trials` (`None` when no trial fit).
    pub routability: Option<f64>,
    /// 95 % Wilson-interval lower bound on the routability.
    pub ci_low: Option<f64>,
    /// 95 % Wilson-interval upper bound on the routability.
    pub ci_high: Option<f64>,
    /// Median latency over routable trials, in microseconds.
    pub p50_latency_us: Option<f64>,
    /// 90th-percentile latency over routable trials, in microseconds.
    pub p90_latency_us: Option<f64>,
}

impl DensityStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("density", Json::Num(self.density)),
            ("trials", Json::Num(self.trials as f64)),
            ("routable", Json::Num(self.routable as f64)),
            ("routability", json_opt_num(self.routability)),
            ("ci_low", json_opt_num(self.ci_low)),
            ("ci_high", json_opt_num(self.ci_high)),
            ("p50_latency_us", json_opt_num(self.p50_latency_us)),
            ("p90_latency_us", json_opt_num(self.p90_latency_us)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let what = "density stats";
        Ok(DensityStats {
            density: field(value, "density", what)?.as_f64().ok_or_else(|| {
                LeqaError::new(ErrorKind::Json, "density stats `density` must be a number")
            })?,
            trials: u64_field(value, "trials", what)?,
            routable: u64_field(value, "routable", what)?,
            routability: opt_f64(value, "routability", what)?,
            ci_low: opt_f64(value, "ci_low", what)?,
            ci_high: opt_f64(value, "ci_high", what)?,
            p50_latency_us: opt_f64(value, "p50_latency_us", what)?,
            p90_latency_us: opt_f64(value, "p90_latency_us", what)?,
        })
    }
}

/// The Monte Carlo block of the summary record: per-density routability
/// with Wilson intervals and the interpolated critical defect density
/// (the percolation knee), with a confidence interval obtained by
/// running the same crossing scan on the Wilson-bound curves — the
/// finite-sampling treatment of percolation-threshold estimation
/// (after arXiv:1307.2755).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MonteCarloSummary {
    /// One aggregate per swept density, sorted ascending by density.
    pub densities: Vec<DensityStats>,
    /// The density where the routability rate crosses 0.5, linearly
    /// interpolated between the bracketing sweep points (`None` when
    /// the sweep never crosses — every density routable, or none).
    pub critical_density: Option<f64>,
    /// Lower confidence bound on the critical density (the 0.5-crossing
    /// of the Wilson *lower*-bound curve; routability falls with
    /// density, so the pessimistic curve crosses earlier). Clamped to
    /// the swept range.
    pub critical_ci_low: Option<f64>,
    /// Upper confidence bound on the critical density (crossing of the
    /// Wilson upper-bound curve), clamped to the swept range.
    pub critical_ci_high: Option<f64>,
}

impl MonteCarloSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "densities",
                Json::Arr(self.densities.iter().map(DensityStats::to_json).collect()),
            ),
            ("critical_density", json_opt_num(self.critical_density)),
            ("critical_ci_low", json_opt_num(self.critical_ci_low)),
            ("critical_ci_high", json_opt_num(self.critical_ci_high)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let what = "montecarlo summary";
        Ok(MonteCarloSummary {
            densities: field(value, "densities", what)?
                .as_arr()
                .ok_or_else(|| {
                    LeqaError::new(ErrorKind::Json, "montecarlo `densities` must be an array")
                })?
                .iter()
                .map(DensityStats::from_json)
                .collect::<Result<_, _>>()?,
            critical_density: opt_f64(value, "critical_density", what)?,
            critical_ci_low: opt_f64(value, "critical_ci_low", what)?,
            critical_ci_high: opt_f64(value, "critical_ci_high", what)?,
        })
    }
}

/// The 95 % Wilson score interval for `successes / trials` — the
/// binomial interval that stays honest at the extremes (rate 0 or 1,
/// small n), where the naive normal interval collapses.
fn wilson_interval(successes: u64, trials: u64) -> Option<(f64, f64)> {
    if trials == 0 {
        return None;
    }
    let z = 1.96_f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    // At the extremes the Wilson bound is exactly the rate; snap past
    // the float noise so `lo ≤ p̂ ≤ hi` holds bit-for-bit.
    let lo = if successes == 0 {
        0.0
    } else {
        (center - half).max(0.0)
    };
    let hi = if successes == trials {
        1.0
    } else {
        (center + half).min(1.0)
    };
    Some((lo, hi))
}

/// Linear-interpolated quantile of an already-sorted sample.
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    match sorted {
        [] => None,
        [one] => Some(*one),
        many => {
            let pos = q * (many.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let hi = (lo + 1).min(many.len() - 1);
            Some(many[lo] + frac * (many[hi] - many[lo]))
        }
    }
}

/// The density where a monotone-decreasing-ish rate curve crosses 0.5,
/// linearly interpolated between the first bracketing pair. `points`
/// must be sorted ascending by density; entries with no rate are
/// skipped.
fn crossing_density(points: &[(f64, Option<f64>)]) -> Option<f64> {
    let known: Vec<(f64, f64)> = points
        .iter()
        .filter_map(|&(d, r)| r.map(|r| (d, r)))
        .collect();
    for pair in known.windows(2) {
        let (d0, r0) = pair[0];
        let (d1, r1) = pair[1];
        if r0 >= 0.5 && r1 < 0.5 {
            // r0 == r1 cannot reach here (r0 >= 0.5 > r1), so the
            // divisor is nonzero.
            return Some(d0 + (r0 - 0.5) / (r0 - r1) * (d1 - d0));
        }
    }
    None
}

/// The session cache-counter delta over one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct CacheDelta {
    /// Profiles built during the run.
    pub profile_builds: u64,
    /// Loads served from the cache.
    pub cache_hits: u64,
    /// Loads that lowered a program.
    pub cache_misses: u64,
    /// Total loads.
    pub loads: u64,
}

impl CacheDelta {
    fn between(before: CacheStats, after: CacheStats) -> Self {
        CacheDelta {
            profile_builds: after.profile_builds.saturating_sub(before.profile_builds),
            cache_hits: after.cache_hits.saturating_sub(before.cache_hits),
            cache_misses: after.cache_misses.saturating_sub(before.cache_misses),
            loads: after.loads.saturating_sub(before.loads),
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("profile_builds", Json::Num(self.profile_builds as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("cache_misses", Json::Num(self.cache_misses as f64)),
            ("loads", Json::Num(self.loads as f64)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let what = "cache delta";
        Ok(CacheDelta {
            profile_builds: u64_field(value, "profile_builds", what)?,
            cache_hits: u64_field(value, "cache_hits", what)?,
            cache_misses: u64_field(value, "cache_misses", what)?,
            loads: u64_field(value, "loads", what)?,
        })
    }
}

/// The final NDJSON record of a run: grid totals, per-workload
/// aggregates, cache-hit accounting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ExperimentSummary {
    /// Total cells executed.
    pub cells: u64,
    /// Cells whose program fit its fabric.
    pub fit_cells: u64,
    /// One aggregate per workload, in axis order.
    pub workloads: Vec<WorkloadSummary>,
    /// Monte Carlo yield statistics (`Some` only in montecarlo mode).
    pub montecarlo: Option<MonteCarloSummary>,
    /// Session cache-counter delta over the run.
    pub cache: CacheDelta,
}

impl ExperimentSummary {
    /// Serializes the summary record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("experiment_summary")),
            ("cells", Json::Num(self.cells as f64)),
            ("fit_cells", Json::Num(self.fit_cells as f64)),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(WorkloadSummary::to_json)
                        .collect(),
                ),
            ),
        ];
        // Emitted only in montecarlo mode: summaries of the other modes
        // stay byte-identical to what they were before the key existed.
        if let Some(mc) = &self.montecarlo {
            fields.push(("montecarlo", mc.to_json()));
        }
        fields.push(("cache", self.cache.to_json()));
        Json::obj(fields)
    }

    /// Decodes a summary record.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let what = "experiment summary";
        Ok(ExperimentSummary {
            cells: u64_field(value, "cells", what)?,
            fit_cells: u64_field(value, "fit_cells", what)?,
            workloads: field(value, "workloads", what)?
                .as_arr()
                .ok_or_else(|| {
                    LeqaError::new(ErrorKind::Json, "summary `workloads` must be an array")
                })?
                .iter()
                .map(WorkloadSummary::from_json)
                .collect::<Result<_, _>>()?,
            montecarlo: match value.get("montecarlo") {
                None | Some(Json::Null) => None,
                Some(mc) => Some(MonteCarloSummary::from_json(mc)?),
            },
            cache: CacheDelta::from_json(field(value, "cache", what)?)?,
        })
    }
}

/// The collected response of [`Session::batch_experiment`]: every row
/// plus the summary, in one envelope.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ExperimentResponse {
    /// The mode the cells ran.
    pub mode: ExperimentMode,
    /// The row selector used.
    pub select: ResultSelect,
    /// One row per cell, in plan order.
    pub rows: Vec<CellRow>,
    /// The final summary record.
    pub summary: ExperimentSummary,
}

impl ExperimentResponse {
    /// Serializes the response envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("experiment_result")),
            ("mode", Json::str(self.mode.name())),
            ("select", Json::str(self.select.name())),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| r.to_json(self.select)).collect()),
            ),
            ("summary", self.summary.to_json()),
        ])
    }

    /// Decodes a response envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let what = "experiment result";
        let mode = str_field(value, "mode", what)?;
        let mode = ExperimentMode::from_name(&mode)
            .ok_or_else(|| LeqaError::new(ErrorKind::Json, "unknown experiment mode"))?;
        let select = str_field(value, "select", what)?;
        let select = ResultSelect::from_name(&select)
            .ok_or_else(|| LeqaError::new(ErrorKind::Json, "unknown experiment selector"))?;
        Ok(ExperimentResponse {
            mode,
            select,
            rows: field(value, "rows", what)?
                .as_arr()
                .ok_or_else(|| LeqaError::new(ErrorKind::Json, "`rows` must be an array"))?
                .iter()
                .map(|r| CellRow::from_json(r, mode))
                .collect::<Result<_, _>>()?,
            summary: ExperimentSummary::from_json(field(value, "summary", what)?)?,
        })
    }
}

/// Writes a run's NDJSON stream (one row per line, then the summary
/// record) to `out`.
///
/// # Errors
///
/// [`ErrorKind::Io`] on write failures.
pub fn write_ndjson(
    response: &ExperimentResponse,
    out: &mut dyn std::io::Write,
) -> Result<(), LeqaError> {
    for row in &response.rows {
        writeln!(out, "{}", row.to_json(response.select).encode()).map_err(LeqaError::from)?;
    }
    writeln!(out, "{}", response.summary.to_json().encode()).map_err(LeqaError::from)?;
    Ok(())
}

// ── The runner ───────────────────────────────────────────────────────────

/// Accumulates the per-workload aggregates while rows stream.
struct SummaryAccumulator {
    workloads: Vec<WorkloadSummary>,
    cells: u64,
    fit_cells: u64,
    montecarlo: Option<MonteCarloSummary>,
}

impl SummaryAccumulator {
    fn new(workloads: &[String]) -> Self {
        SummaryAccumulator {
            workloads: workloads
                .iter()
                .map(|w| WorkloadSummary {
                    workload: w.clone(),
                    fit_cells: 0,
                    min_latency_us: None,
                    max_latency_us: None,
                    argmin_side: None,
                    argmin_cell: None,
                })
                .collect(),
            cells: 0,
            fit_cells: 0,
            montecarlo: None,
        }
    }

    fn observe(&mut self, workload_index: usize, row: &CellRow) {
        self.cells += 1;
        let Some(latency) = row.metrics.primary_latency_us() else {
            return;
        };
        self.fit_cells += 1;
        let agg = &mut self.workloads[workload_index];
        agg.fit_cells += 1;
        if agg.min_latency_us.is_none_or(|best| latency < best) {
            agg.min_latency_us = Some(latency);
            agg.argmin_side = Some(row.side);
            agg.argmin_cell = Some(row.cell);
        }
        if agg.max_latency_us.is_none_or(|worst| latency > worst) {
            agg.max_latency_us = Some(latency);
        }
    }

    fn finish(self, cache: CacheDelta) -> ExperimentSummary {
        ExperimentSummary {
            cells: self.cells,
            fit_cells: self.fit_cells,
            workloads: self.workloads,
            montecarlo: self.montecarlo,
            cache,
        }
    }
}

/// A grid-cell descriptor for the map/compare fan-out phase.
struct MapCell {
    workload_index: usize,
    param_index: usize,
    router: RouterStrategy,
    movement: MovementModel,
    side: u32,
}

/// A trial descriptor for the Monte Carlo fan-out phase. The seed is
/// precomputed from the scenario seed and the cell's plan index so the
/// fan-out order cannot influence which fabric a trial sees.
struct McCell {
    workload_index: usize,
    param_index: usize,
    router: RouterStrategy,
    movement: MovementModel,
    side: u32,
    density: f64,
    trial: u32,
    seed: u64,
}

/// Executes a validated [`ScenarioSpec`] against a [`Session`],
/// streaming one [`CellRow`] per cell in plan order.
pub struct ExperimentRunner<'s> {
    session: &'s Session,
    plan: ExperimentPlan,
}

impl<'s> ExperimentRunner<'s> {
    /// Expands and validates the spec against the session.
    ///
    /// # Errors
    ///
    /// The [`plan`](ScenarioSpec::plan) errors, plus
    /// [`ErrorKind::Invalid`] for parameter overrides that violate the
    /// physical-parameter rules.
    pub fn new(session: &'s Session, spec: &ScenarioSpec) -> Result<Self, LeqaError> {
        let plan = spec.plan()?;
        // Surface bad parameter overrides before any cell runs.
        for variant in &plan.params {
            variant.apply(session.params())?;
        }
        Ok(ExperimentRunner { session, plan })
    }

    /// The expanded grid.
    #[must_use]
    pub fn plan(&self) -> &ExperimentPlan {
        &self.plan
    }

    /// Runs the grid, invoking `sink` once per cell in plan order, and
    /// returns the summary record.
    ///
    /// Distinct programs are loaded once through the session's sharded
    /// profile cache (concurrently under the `parallel` feature); the
    /// fabric axis of `estimate` cells rides one sweep-engine call per
    /// (workload, params) group; `map`/`compare` cells fan out over the
    /// worker pool. Rows are identical to an equivalent serial loop of
    /// single-cell requests regardless of the feature set.
    ///
    /// # Errors
    ///
    /// Load or parameter errors, and whatever `sink` returns (rows
    /// produced so far have already been sunk).
    pub fn run(
        &self,
        sink: &mut dyn FnMut(&CellRow) -> Result<(), LeqaError>,
    ) -> Result<ExperimentSummary, LeqaError> {
        let plan = &self.plan;
        let stats_before = self.session.cache_stats();

        // Warm phase: load every distinct workload through the shared
        // cache (the fan-out is a no-op for already-resident programs).
        let handles: Vec<ProgramHandle> = fan_out(&plan.workloads, |name| {
            self.session.load(&ProgramSpec::bench(name.clone()))
        })
        .into_iter()
        .collect::<Result<_, _>>()?;

        let variant_params: Vec<PhysicalParams> = plan
            .params
            .iter()
            .map(|v| v.apply(self.session.params()))
            .collect::<Result<_, _>>()?;

        let mut acc = SummaryAccumulator::new(&plan.workloads);
        match plan.mode {
            ExperimentMode::Estimate => {
                self.run_estimate(&handles, &variant_params, &mut acc, sink)?
            }
            ExperimentMode::Map | ExperimentMode::Compare => {
                self.run_mapped(&handles, &variant_params, &mut acc, sink)?;
            }
            ExperimentMode::MonteCarlo => {
                self.run_montecarlo(&handles, &variant_params, &mut acc, sink)?;
            }
        }

        let cache = CacheDelta::between(stats_before, self.session.cache_stats());
        Ok(acc.finish(cache))
    }

    /// Estimate mode: one sweep-engine pass per (workload, params) group
    /// covers the whole fabric axis; router/movement variants replay the
    /// group's points (the estimator is router-blind, so the cells are
    /// bit-identical by construction *and* by the sweep-engine contract).
    fn run_estimate(
        &self,
        handles: &[ProgramHandle],
        variant_params: &[PhysicalParams],
        acc: &mut SummaryAccumulator,
        sink: &mut dyn FnMut(&CellRow) -> Result<(), LeqaError>,
    ) -> Result<(), LeqaError> {
        let plan = &self.plan;
        let mut cell = 0u64;
        for (wi, handle) in handles.iter().enumerate() {
            let profile = ProgramProfile::from_data(handle.qodg(), handle.profile_data());
            for (pi, params) in variant_params.iter().enumerate() {
                let points = sweep_profile_squares(
                    &profile,
                    params,
                    *self.session.options(),
                    plan.sides.iter().copied(),
                )
                .map_err(LeqaError::from)?;
                for &router in &plan.routers {
                    for &movement in &plan.movements {
                        for point in &points {
                            let row = estimate_row(
                                cell,
                                &plan.workloads[wi],
                                &plan.params[pi].name,
                                router,
                                movement,
                                point,
                            );
                            acc.observe(wi, &row);
                            sink(&row)?;
                            cell += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Map/compare modes: every cell is an independent QSPR run, fanned
    /// out over the worker pool; rows are emitted in plan order.
    fn run_mapped(
        &self,
        handles: &[ProgramHandle],
        variant_params: &[PhysicalParams],
        acc: &mut SummaryAccumulator,
        sink: &mut dyn FnMut(&CellRow) -> Result<(), LeqaError>,
    ) -> Result<(), LeqaError> {
        let plan = &self.plan;
        let mut cells: Vec<MapCell> = Vec::with_capacity(plan.cells as usize);
        for wi in 0..plan.workloads.len() {
            for pi in 0..variant_params.len() {
                for &router in &plan.routers {
                    for &movement in &plan.movements {
                        for &side in &plan.sides {
                            cells.push(MapCell {
                                workload_index: wi,
                                param_index: pi,
                                router,
                                movement,
                                side,
                            });
                        }
                    }
                }
            }
        }

        let results: Vec<Result<CellMetrics, LeqaError>> = fan_out(&cells, |c| {
            self.run_map_cell(
                c,
                &handles[c.workload_index],
                &variant_params[c.param_index],
            )
        });

        for (i, (cell, metrics)) in cells.iter().zip(results).enumerate() {
            let metrics = metrics?;
            let row = CellRow {
                cell: i as u64,
                workload: plan.workloads[cell.workload_index].clone(),
                params: plan.params[cell.param_index].name.clone(),
                router: cell.router,
                movement: cell.movement,
                side: cell.side,
                fit: metrics.fit(),
                metrics,
            };
            acc.observe(cell.workload_index, &row);
            sink(&row)?;
        }
        Ok(())
    }

    /// One map/compare cell: the QSPR run (and, in compare mode, the
    /// estimate) on this cell's fabric/params/router/movement.
    fn run_map_cell(
        &self,
        cell: &MapCell,
        handle: &ProgramHandle,
        params: &PhysicalParams,
    ) -> Result<CellMetrics, LeqaError> {
        let dims = match FabricDims::new(cell.side, cell.side) {
            Ok(dims) => dims,
            Err(e) => return Err(LeqaError::from(e)),
        };
        let mapper = Mapper::with_config(MapperConfig {
            dims,
            params: params.clone(),
            placement: PlacementStrategy::default(),
            router: cell.router,
            movement: cell.movement,
            seed: 0,
        });
        // Compare cells build the profile for the estimate anyway, so the
        // mapper places from its IIG; map cells count their own.
        let mapped = match self.plan.mode {
            ExperimentMode::Compare => {
                mapper.map_with_iig(handle.qodg(), handle.profile_data().iig())
            }
            _ => mapper.map(handle.qodg()),
        };
        // A program too large for the cell's fabric is an unfit row, not
        // an error: wide grids legitimately span undersized fabrics.
        let mapped = match mapped {
            Ok(result) => Some(result),
            Err(qspr::MapError::FabricTooSmall { .. }) => None,
            Err(other) => return Err(LeqaError::from(other)),
        };
        Ok(match self.plan.mode {
            ExperimentMode::Map => match mapped {
                Some(r) => CellMetrics::Map {
                    latency_us: Some(r.latency.as_f64()),
                    cnot_ops: Some(r.stats.cnot_ops),
                    avg_cnot_distance: Some(r.stats.avg_cnot_distance()),
                    congestion_wait_us: Some(r.stats.congestion_wait.as_f64()),
                    max_channel_load: Some(r.stats.max_channel_load),
                },
                None => CellMetrics::Map {
                    latency_us: None,
                    cnot_ops: None,
                    avg_cnot_distance: None,
                    congestion_wait_us: None,
                    max_channel_load: None,
                },
            },
            ExperimentMode::Compare => {
                let profile = ProgramProfile::from_data(handle.qodg(), handle.profile_data());
                let estimate =
                    Estimator::with_options(dims, params.clone(), *self.session.options())
                        .estimate_with_profile(&profile)
                        .ok();
                let actual_us = mapped.map(|r| r.latency.as_f64());
                let estimated_us = estimate.map(|e| e.latency.as_f64());
                let error_pct = match (actual_us, estimated_us) {
                    (Some(a), Some(e)) if a > 0.0 => Some(100.0 * (e - a).abs() / a),
                    _ => None,
                };
                CellMetrics::Compare {
                    actual_us,
                    estimated_us,
                    error_pct,
                }
            }
            ExperimentMode::Estimate | ExperimentMode::MonteCarlo => {
                unreachable!("estimate and montecarlo cells use their own paths")
            }
        })
    }

    /// Monte Carlo mode: each cell is one seeded defect draw plus a QSPR
    /// run on the defective fabric, fanned out over the worker pool.
    /// Rows are emitted in plan order (density and trial are the two
    /// innermost axes); the per-density yield statistics land on the
    /// summary record.
    fn run_montecarlo(
        &self,
        handles: &[ProgramHandle],
        variant_params: &[PhysicalParams],
        acc: &mut SummaryAccumulator,
        sink: &mut dyn FnMut(&CellRow) -> Result<(), LeqaError>,
    ) -> Result<(), LeqaError> {
        let plan = &self.plan;
        let mc = plan
            .montecarlo
            .as_ref()
            .expect("plan() rejects montecarlo mode without a montecarlo section");

        let mut cells: Vec<McCell> = Vec::with_capacity(plan.cells as usize);
        for wi in 0..plan.workloads.len() {
            for pi in 0..variant_params.len() {
                for &router in &plan.routers {
                    for &movement in &plan.movements {
                        for &side in &plan.sides {
                            for &density in &mc.densities {
                                for trial in 0..mc.trials {
                                    let index = cells.len() as u64;
                                    cells.push(McCell {
                                        workload_index: wi,
                                        param_index: pi,
                                        router,
                                        movement,
                                        side,
                                        density,
                                        trial,
                                        seed: SplitMix64::mix(mc.seed, index),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        let results: Vec<Result<CellMetrics, LeqaError>> = fan_out(&cells, |c| {
            self.run_mc_cell(
                c,
                &handles[c.workload_index],
                &variant_params[c.param_index],
            )
        });

        // Per-density tallies, in spec order: (placed trials, routable
        // trials, latencies of the routable ones).
        let mut tallies: Vec<(u64, u64, Vec<f64>)> = vec![(0, 0, Vec::new()); mc.densities.len()];

        for (i, (cell, metrics)) in cells.iter().zip(results).enumerate() {
            let metrics = metrics?;
            if let CellMetrics::MonteCarlo {
                routable,
                latency_us,
                ..
            } = &metrics
            {
                // Trial is the innermost axis, density the next one out.
                let di = (i / mc.trials as usize) % mc.densities.len();
                let tally = &mut tallies[di];
                if let Some(routable) = routable {
                    tally.0 += 1;
                    if *routable {
                        tally.1 += 1;
                        if let Some(latency) = latency_us {
                            tally.2.push(*latency);
                        }
                    }
                }
            }
            let row = CellRow {
                cell: i as u64,
                workload: plan.workloads[cell.workload_index].clone(),
                params: plan.params[cell.param_index].name.clone(),
                router: cell.router,
                movement: cell.movement,
                side: cell.side,
                fit: metrics.fit(),
                metrics,
            };
            acc.observe(cell.workload_index, &row);
            sink(&row)?;
        }

        acc.montecarlo = Some(montecarlo_summary(&mc.densities, tallies));
        Ok(())
    }

    /// One Monte Carlo trial: draw the seeded defect mask, then map the
    /// program around it. `Unroutable` is a *result* here (a dead
    /// sample), not an error; `FabricTooSmall` (the live area shrank
    /// below the program) is an unfit row, matching map mode.
    fn run_mc_cell(
        &self,
        cell: &McCell,
        handle: &ProgramHandle,
        params: &PhysicalParams,
    ) -> Result<CellMetrics, LeqaError> {
        let dims = FabricDims::new(cell.side, cell.side).map_err(LeqaError::from)?;
        let map = FabricMap::with_random_defects(dims, cell.density, cell.density, cell.seed)
            .map_err(LeqaError::from)?;
        let dead_cells = Some(map.dead_cells());
        let dead_channels = Some(map.dead_channels());
        let mapper = Mapper::with_config(MapperConfig {
            dims,
            params: params.clone(),
            placement: PlacementStrategy::default(),
            router: cell.router,
            movement: cell.movement,
            seed: 0,
        })
        .with_fabric_map(Arc::new(map));
        Ok(match mapper.map(handle.qodg()) {
            Ok(r) => CellMetrics::MonteCarlo {
                density: cell.density,
                trial: cell.trial,
                routable: Some(true),
                latency_us: Some(r.latency.as_f64()),
                congestion_wait_us: Some(r.stats.congestion_wait.as_f64()),
                dead_cells,
                dead_channels,
            },
            Err(qspr::MapError::FabricTooSmall { .. }) => CellMetrics::MonteCarlo {
                density: cell.density,
                trial: cell.trial,
                routable: None,
                latency_us: None,
                congestion_wait_us: None,
                dead_cells,
                dead_channels,
            },
            Err(qspr::MapError::Unroutable { .. }) => CellMetrics::MonteCarlo {
                density: cell.density,
                trial: cell.trial,
                routable: Some(false),
                latency_us: None,
                congestion_wait_us: None,
                dead_cells,
                dead_channels,
            },
            Err(other) => return Err(LeqaError::from(other)),
        })
    }
}

/// Folds the per-density tallies (in spec order, paired with
/// `densities`) into the summary block: Wilson intervals, latency
/// quantiles, and the interpolated critical density with its
/// confidence interval.
fn montecarlo_summary(densities: &[f64], tallies: Vec<(u64, u64, Vec<f64>)>) -> MonteCarloSummary {
    let mut stats: Vec<DensityStats> = densities
        .iter()
        .zip(tallies)
        .map(|(&density, (trials, routable, mut latencies))| {
            latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            let interval = wilson_interval(routable, trials);
            DensityStats {
                density,
                trials,
                routable,
                routability: (trials > 0).then(|| routable as f64 / trials as f64),
                ci_low: interval.map(|(lo, _)| lo),
                ci_high: interval.map(|(_, hi)| hi),
                p50_latency_us: quantile(&latencies, 0.5),
                p90_latency_us: quantile(&latencies, 0.9),
            }
        })
        .collect();
    stats.sort_by(|a, b| {
        a.density
            .partial_cmp(&b.density)
            .expect("plan() rejects non-finite densities")
    });

    let rate: Vec<(f64, Option<f64>)> = stats.iter().map(|s| (s.density, s.routability)).collect();
    let low: Vec<(f64, Option<f64>)> = stats.iter().map(|s| (s.density, s.ci_low)).collect();
    let high: Vec<(f64, Option<f64>)> = stats.iter().map(|s| (s.density, s.ci_high)).collect();

    let critical_density = crossing_density(&rate);
    // Routability falls with density, so the pessimistic (Wilson-lower)
    // curve crosses 0.5 at a smaller density than the optimistic one;
    // a bound curve that never crosses clamps to the swept range.
    let (critical_ci_low, critical_ci_high) = match (critical_density, stats.first(), stats.last())
    {
        (Some(_), Some(first), Some(last)) => (
            Some(crossing_density(&low).unwrap_or(first.density)),
            Some(crossing_density(&high).unwrap_or(last.density)),
        ),
        _ => (None, None),
    };

    MonteCarloSummary {
        densities: stats,
        critical_density,
        critical_ci_low,
        critical_ci_high,
    }
}

/// Builds an estimate-mode row from a sweep point.
fn estimate_row(
    cell: u64,
    workload: &str,
    params: &str,
    router: RouterStrategy,
    movement: MovementModel,
    point: &SweepPoint,
) -> CellRow {
    let metrics = match &point.estimate {
        Some(e) => CellMetrics::Estimate {
            latency_us: Some(e.latency.as_f64()),
            l_cnot_avg_us: Some(e.l_cnot_avg.as_f64()),
            d_uncong_us: Some(e.d_uncong.as_f64()),
            avg_zone_area: Some(e.avg_zone_area),
            zone_side: Some(e.zone_side),
            critical_cnots: Some(e.critical.cnot_count),
        },
        None => CellMetrics::Estimate {
            latency_us: None,
            l_cnot_avg_us: None,
            d_uncong_us: None,
            avg_zone_area: None,
            zone_side: None,
            critical_cnots: None,
        },
    };
    CellRow {
        cell,
        workload: workload.to_string(),
        params: params.to_string(),
        router,
        movement,
        side: point.dims.width(),
        fit: metrics.fit(),
        metrics,
    }
}

impl Session {
    /// Runs a declarative experiment and collects every row plus the
    /// summary — the batch endpoint over the streaming
    /// [`ExperimentRunner`].
    ///
    /// # Errors
    ///
    /// Spec validation errors ([`ErrorKind::Invalid`] /
    /// [`ErrorKind::Usage`]), load errors, or parameter-override errors.
    /// Cells whose program merely does not fit yield `fit: false` rows,
    /// not errors.
    #[must_use = "the response (or its error) is the entire point of the call"]
    pub fn batch_experiment(&self, spec: &ScenarioSpec) -> Result<ExperimentResponse, LeqaError> {
        let runner = ExperimentRunner::new(self, spec)?;
        let mut rows = Vec::with_capacity(runner.plan().cells as usize);
        let summary = runner.run(&mut |row| {
            rows.push(row.clone());
            Ok(())
        })?;
        Ok(ExperimentResponse {
            mode: spec.mode,
            select: spec.select,
            rows,
            summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn spec_3x4() -> ScenarioSpec {
        ScenarioSpec::new(
            ["qft_8", "random_8_40_7"],
            [
                FabricEntry::Side(10),
                FabricEntry::Range {
                    min: 20,
                    max: 40,
                    step: 10,
                },
            ],
        )
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = spec_3x4()
            .with_routers([RouterStrategy::Xy, RouterStrategy::Yx])
            .with_movements([MovementModel::HomeBased, MovementModel::Drift])
            .with_params([
                ParamVariant::base("default"),
                ParamVariant::base("fast")
                    .with_t_move_us(50.0)
                    .with_qubit_speed(0.002)
                    .with_channel_capacity(8),
            ])
            .with_mode(ExperimentMode::Compare)
            .with_select(ResultSelect::Latency)
            .with_filter(AxisFilter {
                workloads: Some("qft".into()),
                min_side: Some(10),
                max_side: Some(30),
                max_cells: Some(1000),
            });
        let back = ScenarioSpec::from_json(&parse(&spec.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn minimal_wire_spec_defaults_every_optional_axis() {
        let doc = parse(
            r#"{"schema_version":1,"op":"experiment",
                "workloads":["qft_8"],"fabrics":[10,{"min":20,"max":30,"step":5}]}"#,
        )
        .unwrap();
        let spec = ScenarioSpec::from_json(&doc).unwrap();
        assert_eq!(spec.params, vec![ParamVariant::base("default")]);
        assert_eq!(spec.routers, vec![RouterStrategy::Xy]);
        assert_eq!(spec.movements, vec![MovementModel::HomeBased]);
        assert_eq!(spec.mode, ExperimentMode::Estimate);
        assert_eq!(spec.select, ResultSelect::Full);
        assert!(spec.filter.is_empty());
        let plan = spec.plan().unwrap();
        assert_eq!(plan.sides, vec![10, 20, 25, 30]);
        assert_eq!(plan.cells, 4);
    }

    #[test]
    fn plan_expands_and_dedupes_overlapping_ranges() {
        let spec = ScenarioSpec::new(
            ["qft_8"],
            [
                FabricEntry::Range {
                    min: 10,
                    max: 30,
                    step: 10,
                },
                FabricEntry::Range {
                    min: 20,
                    max: 50,
                    step: 10,
                },
                FabricEntry::Side(30),
            ],
        );
        let plan = spec.plan().unwrap();
        assert_eq!(plan.sides, vec![10, 20, 30, 40, 50]);
        assert_eq!(plan.cells, 5);
    }

    #[test]
    fn plan_rejects_empty_and_malformed_axes() {
        let empty_workloads = ScenarioSpec::new(Vec::<String>::new(), [FabricEntry::Side(10)]);
        assert_eq!(
            empty_workloads.plan().unwrap_err().kind(),
            ErrorKind::Invalid
        );

        let empty_fabrics = ScenarioSpec::new(["qft_8"], []);
        assert_eq!(empty_fabrics.plan().unwrap_err().kind(), ErrorKind::Invalid);

        let bad_range = ScenarioSpec::new(
            ["qft_8"],
            [FabricEntry::Range {
                min: 30,
                max: 10,
                step: 5,
            }],
        );
        let err = bad_range.plan().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(err.to_string().contains("min > max"), "{err}");

        let zero_step = ScenarioSpec::new(
            ["qft_8"],
            [FabricEntry::Range {
                min: 10,
                max: 30,
                step: 0,
            }],
        );
        assert_eq!(zero_step.plan().unwrap_err().kind(), ErrorKind::Invalid);

        let zero_side = ScenarioSpec::new(["qft_8"], [FabricEntry::Side(0)]);
        assert_eq!(zero_side.plan().unwrap_err().kind(), ErrorKind::Invalid);

        let no_routers = spec_3x4().with_routers([]);
        assert_eq!(no_routers.plan().unwrap_err().kind(), ErrorKind::Invalid);

        let no_movements = spec_3x4().with_movements([]);
        assert_eq!(no_movements.plan().unwrap_err().kind(), ErrorKind::Invalid);

        let no_params = spec_3x4().with_params([]);
        assert_eq!(no_params.plan().unwrap_err().kind(), ErrorKind::Invalid);

        let dup_params = spec_3x4().with_params([
            ParamVariant::base("same"),
            ParamVariant::base("same").with_t_move_us(5.0),
        ]);
        assert_eq!(dup_params.plan().unwrap_err().kind(), ErrorKind::Invalid);
    }

    #[test]
    fn plan_rejects_unknown_workloads_as_usage_errors() {
        let spec = ScenarioSpec::new(["qft_8", "frobnicate"], [FabricEntry::Side(10)]);
        let err = spec.plan().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("frobnicate"), "{err}");
    }

    #[test]
    fn filters_trim_both_axes_and_guard_cell_counts() {
        let spec = ScenarioSpec::new(
            ["qft_8", "random_8_40_7"],
            [FabricEntry::Range {
                min: 10,
                max: 60,
                step: 10,
            }],
        )
        .with_filter(AxisFilter {
            workloads: Some("qft".into()),
            min_side: Some(20),
            max_side: Some(50),
            max_cells: None,
        });
        let plan = spec.plan().unwrap();
        assert_eq!(plan.workloads, vec!["qft_8".to_string()]);
        assert_eq!(plan.sides, vec![20, 30, 40, 50]);
        assert_eq!(plan.cells, 4);

        let guarded = spec.with_filter(AxisFilter {
            max_cells: Some(3),
            ..AxisFilter::default()
        });
        let err = guarded.plan().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(err.to_string().contains("max_cells"), "{err}");

        let all_filtered =
            ScenarioSpec::new(["qft_8"], [FabricEntry::Side(10)]).with_filter(AxisFilter {
                workloads: Some("zzz".into()),
                ..AxisFilter::default()
            });
        assert_eq!(all_filtered.plan().unwrap_err().kind(), ErrorKind::Invalid);

        let no_sides =
            ScenarioSpec::new(["qft_8"], [FabricEntry::Side(10)]).with_filter(AxisFilter {
                min_side: Some(20),
                ..AxisFilter::default()
            });
        assert_eq!(no_sides.plan().unwrap_err().kind(), ErrorKind::Invalid);
    }

    #[test]
    fn pathological_ranges_are_rejected_arithmetically() {
        // The side cap must fire from the O(#entries) pre-check — before
        // anything is materialized — even with no max_cells guard set,
        // and a name like `qft_100000000` must be validated without
        // generating the circuit. Either regression would turn this
        // test from microseconds into a hang/OOM.
        let spec = ScenarioSpec::new(
            ["qft_100000000"],
            [FabricEntry::Range {
                min: 1,
                max: 100_000_000,
                step: 1,
            }],
        );
        let err = spec.plan().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(err.to_string().contains("candidate sides"), "{err}");

        // Side filters count arithmetically too: the same huge range
        // narrowed to a handful of sides passes the cap.
        let narrowed = ScenarioSpec::new(
            ["qft_8"],
            [FabricEntry::Range {
                min: 1,
                max: 100_000_000,
                step: 1,
            }],
        )
        .with_filter(AxisFilter {
            min_side: Some(10),
            max_side: Some(12),
            ..AxisFilter::default()
        });
        assert_eq!(narrowed.plan().unwrap().sides, vec![10, 11, 12]);
    }

    #[test]
    fn max_cells_guard_fires_during_expansion() {
        let spec = ScenarioSpec::new(
            ["qft_8"],
            [FabricEntry::Range {
                min: 1,
                max: 1000,
                step: 1,
            }],
        )
        .with_filter(AxisFilter {
            max_cells: Some(64),
            ..AxisFilter::default()
        });
        let err = spec.plan().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(err.to_string().contains("max_cells"), "{err}");
    }

    #[test]
    fn side_filters_apply_before_the_max_cells_guard() {
        // A wide range narrowed by side bounds counts only surviving
        // sides against the guard.
        let spec = ScenarioSpec::new(
            ["qft_8"],
            [FabricEntry::Range {
                min: 10,
                max: 1000,
                step: 1,
            }],
        )
        .with_filter(AxisFilter {
            min_side: Some(20),
            max_side: Some(22),
            max_cells: Some(3),
            ..AxisFilter::default()
        });
        let plan = spec.plan().unwrap();
        assert_eq!(plan.sides, vec![20, 21, 22]);
        assert_eq!(plan.cells, 3);
    }

    #[test]
    fn single_cell_grid_runs_and_matches_estimate() {
        let session = Session::builder().build().unwrap();
        let spec = ScenarioSpec::new(["qft_8"], [FabricEntry::Side(20)]);
        let response = session.batch_experiment(&spec).unwrap();
        assert_eq!(response.rows.len(), 1);
        let row = &response.rows[0];
        assert!(row.fit);
        let direct = session
            .estimate(&crate::EstimateRequest::new(ProgramSpec::bench("qft_8")).with_fabric(20, 20))
            .unwrap();
        assert_eq!(row.metrics.primary_latency_us(), Some(direct.latency_us));
        assert_eq!(response.summary.cells, 1);
        assert_eq!(response.summary.fit_cells, 1);
        assert_eq!(response.summary.workloads[0].argmin_side, Some(20));
    }

    #[test]
    fn unfit_cells_are_rows_not_errors() {
        let session = Session::builder().build().unwrap();
        // ham15 has 146 qubits: a 10x10 fabric cannot hold it.
        let spec = ScenarioSpec::new(["ham15"], [FabricEntry::Side(10), FabricEntry::Side(60)]);
        let response = session.batch_experiment(&spec).unwrap();
        assert_eq!(response.rows.len(), 2);
        assert!(!response.rows[0].fit);
        assert!(response.rows[1].fit);
        assert_eq!(response.summary.fit_cells, 1);
        assert_eq!(response.summary.workloads[0].argmin_side, Some(60));
    }

    #[test]
    fn rows_and_summary_round_trip_through_json() {
        let session = Session::builder().build().unwrap();
        let spec = spec_3x4().with_routers([RouterStrategy::Xy, RouterStrategy::Yx]);
        let response = session.batch_experiment(&spec).unwrap();
        let back =
            ExperimentResponse::from_json(&parse(&response.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back, response);

        // Rows written while the mapper had a scheduler axis carry a
        // `"scheduler":"greedy"` key; they still decode to the same row.
        let row = &response.rows[0];
        let old = row.to_json(ResultSelect::Full).encode().replacen(
            "\"side\":",
            "\"scheduler\":\"greedy\",\"side\":",
            1,
        );
        let decoded = CellRow::from_json(&parse(&old).unwrap(), ExperimentMode::Estimate).unwrap();
        assert_eq!(&decoded, row);

        // Latency-selected rows drop fields; decode restores them as None.
        let thin = session
            .batch_experiment(&spec_3x4().with_select(ResultSelect::Latency))
            .unwrap();
        let back =
            ExperimentResponse::from_json(&parse(&thin.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back.rows.len(), thin.rows.len());
        for row in &back.rows {
            if let CellMetrics::Estimate { l_cnot_avg_us, .. } = &row.metrics {
                assert_eq!(*l_cnot_avg_us, None);
            } else {
                panic!("estimate metrics expected");
            }
        }
    }

    #[test]
    fn ndjson_row_keys_are_stable() {
        let session = Session::builder().build().unwrap();
        let spec = ScenarioSpec::new(["qft_8"], [FabricEntry::Side(20)]);
        let response = session.batch_experiment(&spec).unwrap();
        let mut out = Vec::new();
        write_ndjson(&response, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        let row = lines.next().unwrap();
        assert!(
            row.starts_with(
                "{\"schema_version\":1,\"op\":\"experiment_cell\",\"cell\":0,\
                 \"workload\":\"qft_8\",\"params\":\"default\",\"router\":\"xy\",\
                 \"movement\":\"home\",\"side\":20,\"fit\":true,\"latency_us\":"
            ),
            "{row}"
        );
        let summary = lines.next().unwrap();
        assert!(
            summary.starts_with("{\"schema_version\":1,\"op\":\"experiment_summary\","),
            "{summary}"
        );
        assert!(lines.next().is_none());
    }

    #[test]
    fn map_mode_honours_router_axis() {
        let session = Session::builder().build().unwrap();
        let spec = ScenarioSpec::new(["random_8_40_7"], [FabricEntry::Side(8)])
            .with_mode(ExperimentMode::Map)
            .with_routers([RouterStrategy::Xy, RouterStrategy::Yx]);
        let response = session.batch_experiment(&spec).unwrap();
        assert_eq!(response.rows.len(), 2);
        assert_eq!(response.rows[0].router, RouterStrategy::Xy);
        assert_eq!(response.rows[1].router, RouterStrategy::Yx);
        for row in &response.rows {
            assert!(row.fit);
            let CellMetrics::Map { latency_us, .. } = &row.metrics else {
                panic!("map metrics expected");
            };
            assert!(latency_us.unwrap() > 0.0);
        }
    }

    #[test]
    fn compare_mode_reports_both_latencies() {
        let session = Session::builder().build().unwrap();
        let spec = ScenarioSpec::new(["random_8_40_7"], [FabricEntry::Side(8)])
            .with_mode(ExperimentMode::Compare);
        let response = session.batch_experiment(&spec).unwrap();
        let CellMetrics::Compare {
            actual_us,
            estimated_us,
            error_pct,
        } = &response.rows[0].metrics
        else {
            panic!("compare metrics expected");
        };
        assert!(actual_us.unwrap() > 0.0);
        assert!(estimated_us.unwrap() > 0.0);
        assert!(error_pct.unwrap() >= 0.0);
    }

    #[test]
    fn bad_param_overrides_fail_before_any_cell_runs() {
        let session = Session::builder().build().unwrap();
        let spec =
            spec_3x4().with_params([ParamVariant::base("broken").with_qubit_speed(f64::NAN)]);
        let err = session.batch_experiment(&spec).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(err.to_string().contains("broken"), "{err}");
    }

    #[test]
    fn experiment_warms_the_shared_cache_exactly_once_per_program() {
        let session = Session::builder().build().unwrap();
        let spec = spec_3x4();
        let first = session.batch_experiment(&spec).unwrap();
        assert_eq!(first.summary.cache.cache_misses, 2);
        assert_eq!(first.summary.cache.profile_builds, 2);
        // Re-running the same spec hits the cache for every program.
        let second = session.batch_experiment(&spec).unwrap();
        assert_eq!(second.summary.cache.cache_misses, 0);
        assert_eq!(second.summary.cache.cache_hits, 2);
        assert_eq!(second.summary.cache.profile_builds, 0);
        // The measurements themselves are unchanged.
        assert_eq!(first.rows, second.rows);
    }

    // ── Monte Carlo mode ─────────────────────────────────────────────

    fn mc_spec(densities: impl IntoIterator<Item = f64>, trials: u32) -> ScenarioSpec {
        ScenarioSpec::new(["qft_8"], [FabricEntry::Side(8)])
            .with_montecarlo(MonteCarloSpec::new(densities, trials, 7))
    }

    #[test]
    fn montecarlo_spec_round_trips_through_json() {
        let spec = mc_spec([0.0, 0.1, 0.25], 4);
        assert_eq!(spec.mode, ExperimentMode::MonteCarlo);
        let back = ScenarioSpec::from_json(&parse(&spec.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn montecarlo_plan_multiplies_the_trial_axes() {
        let plan = mc_spec([0.0, 0.1, 0.25], 4).plan().unwrap();
        assert_eq!(plan.cells, 12); // 1 workload × 1 side × 3 densities × 4 trials
        assert_eq!(plan.montecarlo.as_ref().unwrap().trials, 4);
    }

    #[test]
    fn montecarlo_plan_rejects_malformed_sections() {
        // montecarlo mode without the section.
        let spec = ScenarioSpec::new(["qft_8"], [FabricEntry::Side(8)])
            .with_mode(ExperimentMode::MonteCarlo);
        let err = spec.plan().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(err.to_string().contains("montecarlo"), "{err}");

        // The section without montecarlo mode.
        let mut spec = mc_spec([0.1], 2);
        spec.mode = ExperimentMode::Map;
        assert_eq!(spec.plan().unwrap_err().kind(), ErrorKind::Invalid);

        // Out-of-range, non-finite, and empty densities; zero trials.
        for bad in [
            mc_spec([1.5], 2),
            mc_spec([-0.1], 2),
            mc_spec([f64::NAN], 2),
            mc_spec(Vec::new(), 2),
            mc_spec([0.1], 0),
        ] {
            assert_eq!(bad.plan().unwrap_err().kind(), ErrorKind::Invalid);
        }
    }

    #[test]
    fn montecarlo_seeds_are_capped_at_the_exact_json_range() {
        let with_seed = |seed| {
            ScenarioSpec::new(["qft_8"], [FabricEntry::Side(8)])
                .with_montecarlo(MonteCarloSpec::new([0.1], 2, seed))
        };
        // 2^53 is the largest seed the wire carries exactly.
        let top = with_seed(1 << 53);
        let wire = top.to_json().encode();
        let back = ScenarioSpec::from_json(&parse(&wire).unwrap()).unwrap();
        assert_eq!(back, top);
        assert_eq!(back.to_json().encode(), wire);
        top.plan().unwrap();
        // One above would decode as 2^53, a different study.
        let err = with_seed((1 << 53) + 1).plan().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(err.to_string().contains("montecarlo `seed`"), "{err}");
    }

    #[test]
    fn zero_density_trials_match_plain_map_mode() {
        // Density 0 draws a pristine mask: every trial must reproduce
        // the defect-free map-mode latency bit for bit.
        let session = Session::builder().build().unwrap();
        let mc = session.batch_experiment(&mc_spec([0.0], 3)).unwrap();
        let map = session
            .batch_experiment(
                &ScenarioSpec::new(["qft_8"], [FabricEntry::Side(8)])
                    .with_mode(ExperimentMode::Map),
            )
            .unwrap();
        let CellMetrics::Map { latency_us, .. } = &map.rows[0].metrics else {
            panic!("map metrics expected");
        };
        let baseline = latency_us.unwrap();
        assert_eq!(mc.rows.len(), 3);
        for row in &mc.rows {
            let CellMetrics::MonteCarlo {
                routable,
                latency_us,
                dead_cells,
                dead_channels,
                ..
            } = &row.metrics
            else {
                panic!("montecarlo metrics expected");
            };
            assert_eq!(*routable, Some(true));
            assert_eq!(*dead_cells, Some(0));
            assert_eq!(*dead_channels, Some(0));
            assert_eq!(latency_us.unwrap().to_bits(), baseline.to_bits());
        }
        let mc_summary = mc.summary.montecarlo.as_ref().unwrap();
        assert_eq!(mc_summary.densities[0].routability, Some(1.0));
        assert_eq!(mc_summary.critical_density, None); // never crosses 0.5
    }

    #[test]
    fn montecarlo_runs_report_yield_statistics() {
        let session = Session::builder().build().unwrap();
        let response = session
            .batch_experiment(&mc_spec([0.0, 0.15, 0.45], 6))
            .unwrap();
        assert_eq!(response.rows.len(), 18);
        let mc = response.summary.montecarlo.as_ref().unwrap();
        assert_eq!(mc.densities.len(), 3);
        // Sorted ascending, each with a Wilson interval around its rate.
        for pair in mc.densities.windows(2) {
            assert!(pair[0].density < pair[1].density);
        }
        for d in &mc.densities {
            assert!(d.trials <= 6); // placed trials never exceed the sweep
            assert!(d.routable <= d.trials);
            if let (Some(rate), Some(lo), Some(hi)) = (d.routability, d.ci_low, d.ci_high) {
                assert!((0.0..=1.0).contains(&rate));
                assert!(lo <= rate && rate <= hi, "{lo} ≤ {rate} ≤ {hi}");
            }
        }
        // The pristine end of the sweep is fully routable.
        assert_eq!(mc.densities[0].routability, Some(1.0));
        assert!(mc.densities[0].p50_latency_us.unwrap() > 0.0);
        // Yield cannot improve as defects are added (seeded, so stable).
        let rates: Vec<f64> = mc.densities.iter().filter_map(|d| d.routability).collect();
        for pair in rates.windows(2) {
            assert!(
                pair[0] >= pair[1],
                "routability rose with density: {rates:?}"
            );
        }

        // The whole response (MC rows + summary block) round-trips.
        let back =
            ExperimentResponse::from_json(&parse(&response.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back, response);
    }

    #[test]
    fn montecarlo_ndjson_rows_have_stable_prefixes() {
        let session = Session::builder().build().unwrap();
        let response = session.batch_experiment(&mc_spec([0.0], 1)).unwrap();
        let mut out = Vec::new();
        write_ndjson(&response, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let row = text.lines().next().unwrap();
        assert!(
            row.starts_with(
                "{\"schema_version\":1,\"op\":\"experiment_cell\",\"cell\":0,\
                 \"workload\":\"qft_8\",\"params\":\"default\",\"router\":\"xy\",\
                 \"movement\":\"home\",\"side\":8,\"fit\":true,\"density\":0,\
                 \"trial\":0,\"routable\":true,\"latency_us\":"
            ),
            "{row}"
        );
        let summary = text.lines().last().unwrap();
        assert!(
            summary.contains("\"montecarlo\":{\"densities\":["),
            "{summary}"
        );
        assert!(summary.contains("\"critical_density\":"), "{summary}");
    }

    #[test]
    fn wilson_interval_brackets_the_rate_and_degrades_gracefully() {
        assert_eq!(wilson_interval(1, 0), None);
        let (lo, hi) = wilson_interval(8, 10).unwrap();
        assert!(lo < 0.8 && 0.8 < hi);
        let (lo, hi) = wilson_interval(0, 10).unwrap();
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.5); // zero successes still admit doubt
        let (lo, hi) = wilson_interval(10, 10).unwrap();
        assert!(lo > 0.5 && lo < 1.0);
        assert_eq!(hi, 1.0);
    }

    #[test]
    fn quantiles_interpolate_linearly() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0], 0.9), Some(3.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), Some(3.0));
    }

    #[test]
    fn critical_density_interpolates_the_half_yield_crossing() {
        // Rate falls 1.0 → 0.25 between densities 0.2 and 0.4: the 0.5
        // crossing sits two-thirds of the way across the bracket.
        let points = [(0.0, Some(1.0)), (0.2, Some(1.0)), (0.4, Some(0.25))];
        let crit = crossing_density(&points).unwrap();
        assert!((crit - (0.2 + (0.5 / 0.75) * 0.2)).abs() < 1e-12, "{crit}");

        // Unplaced densities are skipped, not treated as zero yield.
        let gappy = [(0.0, Some(1.0)), (0.2, None), (0.4, Some(0.0))];
        let crit = crossing_density(&gappy).unwrap();
        assert!((crit - 0.2).abs() < 1e-12, "{crit}");

        // No crossing when the sweep never drops below half.
        assert_eq!(
            crossing_density(&[(0.0, Some(1.0)), (0.5, Some(0.9))]),
            None
        );
    }

    #[test]
    fn montecarlo_summary_clamps_the_confidence_interval_to_the_sweep() {
        // One routable trial out of two at every density: the rate
        // curve never crosses 0.5 cleanly... craft tallies instead so
        // the crossing exists but the Wilson bounds straddle the range.
        let densities = [0.0, 0.3];
        let tallies = vec![(4, 4, vec![1.0, 2.0, 3.0, 4.0]), (4, 0, Vec::new())];
        let mc = montecarlo_summary(&densities, tallies);
        let crit = mc.critical_density.unwrap();
        assert!(0.0 < crit && crit < 0.3, "{crit}");
        let lo = mc.critical_ci_low.unwrap();
        let hi = mc.critical_ci_high.unwrap();
        assert!((0.0..=crit).contains(&lo), "{lo}");
        assert!((crit..=0.3).contains(&hi), "{hi}");
        assert_eq!(mc.densities[0].p50_latency_us, Some(2.5));
        assert_eq!(mc.densities[0].p90_latency_us, Some(3.7));
    }
}
