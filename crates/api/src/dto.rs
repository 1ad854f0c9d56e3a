//! The request/response DTOs of the service surface.
//!
//! Plain structs with hand-rolled JSON codecs (see [`crate::json`]); every
//! envelope carries [`SCHEMA_VERSION`] so clients can detect incompatible
//! servers, and every `from_json` rejects versions it does not speak.
//! Requests are built through `new` + `with_*` builder methods because the
//! structs are `#[non_exhaustive]` — fields can be added without breaking
//! callers.

use qspr::{MovementModel, PlacementStrategy, RouterStrategy};

use crate::error::{ErrorKind, LeqaError};
use crate::json::{Json, MAX_EXACT_INT};

/// Version of the wire schema spoken by this build (see `API.md`).
pub const SCHEMA_VERSION: u64 = 1;

/// Checks an envelope's `schema_version` field.
pub(crate) fn check_schema_version(value: &Json) -> Result<(), LeqaError> {
    match value.get("schema_version").and_then(Json::as_u64) {
        Some(SCHEMA_VERSION) => Ok(()),
        Some(other) => Err(LeqaError::new(
            ErrorKind::Json,
            format!("unsupported schema_version {other} (this build speaks {SCHEMA_VERSION})"),
        )),
        None => Err(LeqaError::new(
            ErrorKind::Json,
            "missing numeric `schema_version` field",
        )),
    }
}

pub(crate) fn field<'a>(value: &'a Json, key: &str, what: &str) -> Result<&'a Json, LeqaError> {
    value
        .get(key)
        .ok_or_else(|| LeqaError::new(ErrorKind::Json, format!("{what}: missing field `{key}`")))
}

pub(crate) fn str_field(value: &Json, key: &str, what: &str) -> Result<String, LeqaError> {
    field(value, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| LeqaError::new(ErrorKind::Json, format!("{what}: `{key}` must be a string")))
}

pub(crate) fn u64_field(value: &Json, key: &str, what: &str) -> Result<u64, LeqaError> {
    field(value, key, what)?.as_u64().ok_or_else(|| {
        LeqaError::new(
            ErrorKind::Json,
            format!("{what}: `{key}` must be a non-negative integer"),
        )
    })
}

/// Rejects a seed the wire cannot carry exactly: above 2^53 a spec would
/// decode as a different study, or not at all.
pub(crate) fn check_wire_seed(seed: u64, what: &str) -> Result<(), LeqaError> {
    if seed > MAX_EXACT_INT {
        return Err(LeqaError::new(
            ErrorKind::Invalid,
            format!("{what} `seed` {seed} is above 2^53, the largest integer JSON carries exactly"),
        ));
    }
    Ok(())
}

pub(crate) fn f64_field(value: &Json, key: &str, what: &str) -> Result<f64, LeqaError> {
    field(value, key, what)?
        .as_f64()
        .ok_or_else(|| LeqaError::new(ErrorKind::Json, format!("{what}: `{key}` must be a number")))
}

/// Optional number: absent or `null` is `None`; any other non-number is a
/// typed error, exactly like the required-field accessors.
pub(crate) fn opt_f64(value: &Json, key: &str, what: &str) -> Result<Option<f64>, LeqaError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| {
            LeqaError::new(
                ErrorKind::Json,
                format!("{what}: `{key}` must be a number or null"),
            )
        }),
    }
}

/// Optional unsigned integer: absent or `null` is `None`; any other
/// non-integer is a typed error, like the required-field accessors.
pub(crate) fn opt_u64(value: &Json, key: &str, what: &str) -> Result<Option<u64>, LeqaError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            LeqaError::new(
                ErrorKind::Json,
                format!("{what}: `{key}` must be a non-negative integer or null"),
            )
        }),
    }
}

/// Like [`opt_u64`], additionally requiring the value to fit in `u32`.
pub(crate) fn opt_u32(value: &Json, key: &str, what: &str) -> Result<Option<u32>, LeqaError> {
    opt_u64(value, key, what)?
        .map(|n| {
            u32::try_from(n).map_err(|_| {
                LeqaError::new(
                    ErrorKind::Json,
                    format!("{what}: `{key}` out of range for u32"),
                )
            })
        })
        .transpose()
}

pub(crate) fn json_opt_num(v: Option<f64>) -> Json {
    v.map(Json::Num).unwrap_or(Json::Null)
}

// ── Program specification ────────────────────────────────────────────────

/// How a request names the program to operate on.
///
/// `#[non_exhaustive]`: future sources (registries, URLs) may be added;
/// match with a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProgramSpec {
    /// A named workload: a Table 2/3 suite benchmark or a parametric
    /// generator name like `qft_64` (see
    /// [`leqa_workloads::circuit_by_name`]).
    Bench {
        /// The workload name.
        name: String,
    },
    /// A circuit file on disk in the shared `.qc` text format.
    Path {
        /// Path to the file.
        path: String,
    },
    /// Inline circuit text in the shared `.qc` format.
    Source {
        /// The circuit text.
        text: String,
    },
}

impl ProgramSpec {
    /// A named workload.
    #[must_use]
    pub fn bench(name: impl Into<String>) -> Self {
        ProgramSpec::Bench { name: name.into() }
    }

    /// A circuit file on disk.
    #[must_use]
    pub fn path(path: impl Into<String>) -> Self {
        ProgramSpec::Path { path: path.into() }
    }

    /// Inline circuit text.
    #[must_use]
    pub fn source(text: impl Into<String>) -> Self {
        ProgramSpec::Source { text: text.into() }
    }

    /// Serializes the spec (one single-key object, keyed by source kind).
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            ProgramSpec::Bench { name } => Json::obj(vec![("bench", Json::str(name))]),
            ProgramSpec::Path { path } => Json::obj(vec![("path", Json::str(path))]),
            ProgramSpec::Source { text } => Json::obj(vec![("source", Json::str(text))]),
        }
    }

    /// Decodes a spec serialized by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] when none of the known source keys is present.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        if let Some(name) = value.get("bench").and_then(Json::as_str) {
            Ok(ProgramSpec::bench(name))
        } else if let Some(path) = value.get("path").and_then(Json::as_str) {
            Ok(ProgramSpec::path(path))
        } else if let Some(text) = value.get("source").and_then(Json::as_str) {
            Ok(ProgramSpec::source(text))
        } else {
            Err(LeqaError::new(
                ErrorKind::Json,
                "program spec needs a `bench`, `path` or `source` string",
            ))
        }
    }
}

/// A fabric size on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricSpec {
    /// ULB columns.
    pub width: u32,
    /// ULB rows.
    pub height: u32,
}

impl FabricSpec {
    /// Creates a spec (validated against fabric rules at execution time).
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        FabricSpec { width, height }
    }

    /// Serializes the spec.
    #[must_use]
    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("width", Json::num(self.width)),
            ("height", Json::num(self.height)),
        ])
    }

    /// Decodes a spec.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on missing/ill-typed fields.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let width = u64_field(value, "width", "fabric")?;
        let height = u64_field(value, "height", "fabric")?;
        let to_u32 = |n: u64, what: &str| {
            u32::try_from(n)
                .map_err(|_| LeqaError::new(ErrorKind::Json, format!("fabric {what} out of range")))
        };
        Ok(FabricSpec {
            width: to_u32(width, "width")?,
            height: to_u32(height, "height")?,
        })
    }

    fn opt_from_json(value: &Json, key: &str) -> Result<Option<Self>, LeqaError> {
        match value.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => FabricSpec::from_json(v).map(Some),
        }
    }
}

// ── Requests ─────────────────────────────────────────────────────────────

/// Request: run Algorithm 1 on one program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EstimateRequest {
    /// The program to estimate.
    pub program: ProgramSpec,
    /// Per-request fabric override (session fabric when `None`).
    pub fabric: Option<FabricSpec>,
}

impl EstimateRequest {
    /// Creates a request for the session's configured fabric.
    #[must_use]
    pub fn new(program: ProgramSpec) -> Self {
        EstimateRequest {
            program,
            fabric: None,
        }
    }

    /// Overrides the fabric for this request only.
    #[must_use]
    pub fn with_fabric(mut self, width: u32, height: u32) -> Self {
        self.fabric = Some(FabricSpec::new(width, height));
        self
    }

    /// Serializes the request envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("estimate")),
            ("program", self.program.to_json()),
            (
                "fabric",
                self.fabric.map(FabricSpec::to_json).unwrap_or(Json::Null),
            ),
        ])
    }

    /// Decodes a request envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        Ok(EstimateRequest {
            program: ProgramSpec::from_json(field(value, "program", "estimate request")?)?,
            fabric: FabricSpec::opt_from_json(value, "fabric")?,
        })
    }
}

/// Request: estimate one program across candidate square fabrics.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepRequest {
    /// The program to sweep.
    pub program: ProgramSpec,
    /// Candidate square fabric sides.
    pub sizes: Vec<u32>,
}

impl SweepRequest {
    /// Creates a sweep over the given square fabric sides.
    #[must_use]
    pub fn new(program: ProgramSpec, sizes: impl IntoIterator<Item = u32>) -> Self {
        SweepRequest {
            program,
            sizes: sizes.into_iter().collect(),
        }
    }

    /// Serializes the request envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("sweep")),
            ("program", self.program.to_json()),
            (
                "sizes",
                Json::Arr(self.sizes.iter().map(|&s| Json::num(s)).collect()),
            ),
        ])
    }

    /// Decodes a request envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let sizes = field(value, "sizes", "sweep request")?
            .as_arr()
            .ok_or_else(|| LeqaError::new(ErrorKind::Json, "sweep `sizes` must be an array"))?
            .iter()
            .map(|s| {
                s.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| {
                        LeqaError::new(ErrorKind::Json, "sweep sizes must be u32 integers")
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(SweepRequest {
            program: ProgramSpec::from_json(field(value, "program", "sweep request")?)?,
            sizes,
        })
    }
}

/// Request: the per-qubit presence-zone report.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ZonesRequest {
    /// The program to report on.
    pub program: ProgramSpec,
    /// Row limit (strongest qubits first); `None` or `Some(0)` = all rows.
    pub limit: Option<u64>,
}

impl ZonesRequest {
    /// Creates a request returning every row.
    #[must_use]
    pub fn new(program: ProgramSpec) -> Self {
        ZonesRequest {
            program,
            limit: None,
        }
    }

    /// Bounds the row count (strongest qubits first).
    #[must_use]
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Serializes the request envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("zones")),
            ("program", self.program.to_json()),
            (
                "limit",
                self.limit
                    .map(|l| Json::Num(l as f64))
                    .unwrap_or(Json::Null),
            ),
        ])
    }

    /// Decodes a request envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let limit = match value.get("limit") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                LeqaError::new(
                    ErrorKind::Json,
                    "zones `limit` must be a non-negative integer",
                )
            })?),
        };
        Ok(ZonesRequest {
            program: ProgramSpec::from_json(field(value, "program", "zones request")?)?,
            limit,
        })
    }
}

/// Request: the Table 2 experiment — detailed QSPR mapping next to the
/// LEQA estimate, with the relative error.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct CompareRequest {
    /// The program to compare on.
    pub program: ProgramSpec,
    /// Per-request fabric override (session fabric when `None`).
    pub fabric: Option<FabricSpec>,
}

impl CompareRequest {
    /// Creates a request for the session's configured fabric.
    #[must_use]
    pub fn new(program: ProgramSpec) -> Self {
        CompareRequest {
            program,
            fabric: None,
        }
    }

    /// Overrides the fabric for this request only.
    #[must_use]
    pub fn with_fabric(mut self, width: u32, height: u32) -> Self {
        self.fabric = Some(FabricSpec::new(width, height));
        self
    }

    /// Serializes the request envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("compare")),
            ("program", self.program.to_json()),
            (
                "fabric",
                self.fabric.map(FabricSpec::to_json).unwrap_or(Json::Null),
            ),
        ])
    }

    /// Decodes a request envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        Ok(CompareRequest {
            program: ProgramSpec::from_json(field(value, "program", "compare request")?)?,
            fabric: FabricSpec::opt_from_json(value, "fabric")?,
        })
    }
}

/// Request: run the detailed QSPR mapper (the baseline tool).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MapRequest {
    /// The program to map.
    pub program: ProgramSpec,
    /// Per-request fabric override (session fabric when `None`).
    pub fabric: Option<FabricSpec>,
    /// Longest-running-operation trace rows to include (0 = no trace).
    pub trace_limit: u64,
    /// Initial placement strategy (wire names: `cluster|rowmajor|random`).
    pub placement: PlacementStrategy,
    /// Routing discipline (wire names: `xy|yx|adaptive`).
    pub router: RouterStrategy,
    /// Movement model (wire names: `home|drift`).
    pub movement: MovementModel,
}

pub(crate) fn placement_name(p: PlacementStrategy) -> &'static str {
    match p {
        PlacementStrategy::IigCluster => "cluster",
        PlacementStrategy::RowMajor => "rowmajor",
        PlacementStrategy::Random => "random",
    }
}

pub(crate) fn placement_from_name(name: &str) -> Option<PlacementStrategy> {
    Some(match name {
        "cluster" => PlacementStrategy::IigCluster,
        "rowmajor" => PlacementStrategy::RowMajor,
        "random" => PlacementStrategy::Random,
        _ => return None,
    })
}

pub(crate) fn router_name(r: RouterStrategy) -> &'static str {
    match r {
        RouterStrategy::Xy => "xy",
        RouterStrategy::Yx => "yx",
        RouterStrategy::Adaptive => "adaptive",
    }
}

pub(crate) fn router_from_name(name: &str) -> Option<RouterStrategy> {
    Some(match name {
        "xy" => RouterStrategy::Xy,
        "yx" => RouterStrategy::Yx,
        "adaptive" => RouterStrategy::Adaptive,
        _ => return None,
    })
}

pub(crate) fn movement_name(m: MovementModel) -> &'static str {
    match m {
        MovementModel::HomeBased => "home",
        MovementModel::Drift => "drift",
    }
}

pub(crate) fn movement_from_name(name: &str) -> Option<MovementModel> {
    Some(match name {
        "home" => MovementModel::HomeBased,
        "drift" => MovementModel::Drift,
        _ => return None,
    })
}

/// Rejects the mapper options of engines that were removed from QSPR.
/// Older clients always send `"scheduler":"greedy"` (experiment specs: a
/// `"schedulers":["greedy"]` axis) and `"passes":null`; those still
/// decode and mean what they always meant. Naming the mobility scheduler
/// or any pass pipeline is an [`ErrorKind::Invalid`] error, so such a
/// request never silently runs greedy instead.
pub(crate) fn reject_removed_mapper_options(value: &Json) -> Result<(), LeqaError> {
    let axis = match value.get("schedulers") {
        Some(Json::Arr(items)) => items.as_slice(),
        Some(other) => std::slice::from_ref(other),
        None => &[],
    };
    for name in value.get("scheduler").into_iter().chain(axis) {
        if !matches!(name, Json::Null) && name.as_str() != Some("greedy") {
            return Err(LeqaError::new(
                ErrorKind::Invalid,
                format!(
                    "scheduler {} was removed: `greedy` is the mapper's only engine",
                    name.encode()
                ),
            ));
        }
    }
    match value.get("passes") {
        None | Some(Json::Null) => Ok(()),
        Some(spec) => Err(LeqaError::new(
            ErrorKind::Invalid,
            format!(
                "passes {} was removed: the mapper runs no pass pipeline",
                spec.encode()
            ),
        )),
    }
}

impl MapRequest {
    /// Creates a request for the session's configured fabric, default
    /// mapper strategies, no trace.
    #[must_use]
    pub fn new(program: ProgramSpec) -> Self {
        MapRequest {
            program,
            fabric: None,
            trace_limit: 0,
            placement: PlacementStrategy::default(),
            router: RouterStrategy::default(),
            movement: MovementModel::default(),
        }
    }

    /// Overrides the fabric for this request only.
    #[must_use]
    pub fn with_fabric(mut self, width: u32, height: u32) -> Self {
        self.fabric = Some(FabricSpec::new(width, height));
        self
    }

    /// Includes the N longest-running operations in the response.
    #[must_use]
    pub fn with_trace_limit(mut self, rows: u64) -> Self {
        self.trace_limit = rows;
        self
    }

    /// Sets the initial placement strategy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementStrategy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the routing discipline.
    #[must_use]
    pub fn with_router(mut self, router: RouterStrategy) -> Self {
        self.router = router;
        self
    }

    /// Sets the movement model.
    #[must_use]
    pub fn with_movement(mut self, movement: MovementModel) -> Self {
        self.movement = movement;
        self
    }

    /// Serializes the request envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("map")),
            ("program", self.program.to_json()),
            (
                "fabric",
                self.fabric.map(FabricSpec::to_json).unwrap_or(Json::Null),
            ),
            ("trace_limit", Json::Num(self.trace_limit as f64)),
            ("placement", Json::str(placement_name(self.placement))),
            ("router", Json::str(router_name(self.router))),
            ("movement", Json::str(movement_name(self.movement))),
        ])
    }

    /// Decodes a request envelope. Strategy fields are optional and
    /// default like [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors;
    /// [`ErrorKind::Invalid`] for a `scheduler` other than `greedy` or a
    /// non-null `passes` (engines that were removed; see `API.md`).
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        reject_removed_mapper_options(value)?;
        let trace_limit = match value.get("trace_limit") {
            None | Some(Json::Null) => 0,
            Some(v) => v.as_u64().ok_or_else(|| {
                LeqaError::new(
                    ErrorKind::Json,
                    "map `trace_limit` must be a non-negative integer",
                )
            })?,
        };
        fn strategy<T>(
            value: &Json,
            key: &str,
            parse: impl Fn(&str) -> Option<T>,
            default: T,
        ) -> Result<T, LeqaError> {
            match value.get(key).and_then(Json::as_str) {
                None => Ok(default),
                Some(name) => parse(name).ok_or_else(|| {
                    LeqaError::new(ErrorKind::Json, format!("unknown {key} `{name}`"))
                }),
            }
        }
        Ok(MapRequest {
            program: ProgramSpec::from_json(field(value, "program", "map request")?)?,
            fabric: FabricSpec::opt_from_json(value, "fabric")?,
            trace_limit,
            placement: strategy(value, "placement", placement_from_name, Default::default())?,
            router: strategy(value, "router", router_from_name, Default::default())?,
            movement: strategy(value, "movement", movement_from_name, Default::default())?,
        })
    }
}

/// Any request, tagged by its `op` field on the wire.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// [`EstimateRequest`].
    Estimate(EstimateRequest),
    /// [`SweepRequest`].
    Sweep(SweepRequest),
    /// [`ZonesRequest`].
    Zones(ZonesRequest),
    /// [`CompareRequest`].
    Compare(CompareRequest),
    /// [`MapRequest`].
    Map(MapRequest),
}

impl Request {
    /// The program the request names.
    #[must_use]
    pub fn program(&self) -> &ProgramSpec {
        match self {
            Request::Estimate(r) => &r.program,
            Request::Sweep(r) => &r.program,
            Request::Zones(r) => &r.program,
            Request::Compare(r) => &r.program,
            Request::Map(r) => &r.program,
        }
    }

    /// Serializes the request envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Request::Estimate(r) => r.to_json(),
            Request::Sweep(r) => r.to_json(),
            Request::Zones(r) => r.to_json(),
            Request::Compare(r) => r.to_json(),
            Request::Map(r) => r.to_json(),
        }
    }

    /// Decodes any request by its `op` tag.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] for unknown ops or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        match str_field(value, "op", "request")?.as_str() {
            "estimate" => EstimateRequest::from_json(value).map(Request::Estimate),
            "sweep" => SweepRequest::from_json(value).map(Request::Sweep),
            "zones" => ZonesRequest::from_json(value).map(Request::Zones),
            "compare" => CompareRequest::from_json(value).map(Request::Compare),
            "map" => MapRequest::from_json(value).map(Request::Map),
            other => Err(LeqaError::new(
                ErrorKind::Json,
                format!("unknown request op `{other}`"),
            )),
        }
    }
}

// ── Responses ────────────────────────────────────────────────────────────

/// The program identity echoed in every response.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ProgramSummary {
    /// Display label (benchmark name, `.name` header, or file path).
    pub label: String,
    /// Logical qubits.
    pub qubits: u64,
    /// Fault-tolerant operations.
    pub ops: u64,
}

impl ProgramSummary {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::str(&self.label)),
            ("qubits", Json::Num(self.qubits as f64)),
            ("ops", Json::Num(self.ops as f64)),
        ])
    }

    pub(crate) fn from_json(value: &Json) -> Result<Self, LeqaError> {
        Ok(ProgramSummary {
            label: str_field(value, "label", "program summary")?,
            qubits: u64_field(value, "qubits", "program summary")?,
            ops: u64_field(value, "ops", "program summary")?,
        })
    }
}

/// Response to an [`EstimateRequest`]: Eq. 1 plus every intermediate the
/// paper names.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EstimateResponse {
    /// The program estimated.
    pub program: ProgramSummary,
    /// The fabric used.
    pub fabric: FabricSpec,
    /// `D` (Eq. 1) in microseconds.
    pub latency_us: f64,
    /// `L_CNOT^avg` (Eq. 2) in microseconds.
    pub l_cnot_avg_us: f64,
    /// `L_g^avg = 2·T_move` in microseconds.
    pub l_one_qubit_avg_us: f64,
    /// `d_uncong` (Eq. 12) in microseconds.
    pub d_uncong_us: f64,
    /// `B` (Eq. 7), 0 when no CNOTs exist.
    pub avg_zone_area: f64,
    /// The integer zone side of Eq. 5.
    pub zone_side: u32,
    /// `E[S_q]` terms (Eq. 4).
    pub esq: Vec<f64>,
    /// CNOTs on the routing-aware critical path.
    pub critical_cnots: u64,
    /// One-qubit ops on the routing-aware critical path.
    pub critical_one_qubit: u64,
    /// Whether the session served the program profile from its cache.
    pub profile_cached: bool,
}

impl EstimateResponse {
    /// Serializes the response envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("estimate")),
            ("program", self.program.to_json()),
            ("fabric", self.fabric.to_json()),
            ("latency_us", Json::Num(self.latency_us)),
            ("l_cnot_avg_us", Json::Num(self.l_cnot_avg_us)),
            ("l_one_qubit_avg_us", Json::Num(self.l_one_qubit_avg_us)),
            ("d_uncong_us", Json::Num(self.d_uncong_us)),
            ("avg_zone_area", Json::Num(self.avg_zone_area)),
            ("zone_side", Json::num(self.zone_side)),
            (
                "esq",
                Json::Arr(self.esq.iter().map(|&e| Json::Num(e)).collect()),
            ),
            ("critical_cnots", Json::Num(self.critical_cnots as f64)),
            (
                "critical_one_qubit",
                Json::Num(self.critical_one_qubit as f64),
            ),
            ("profile_cached", Json::Bool(self.profile_cached)),
        ])
    }

    /// Decodes a response envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let what = "estimate response";
        Ok(EstimateResponse {
            program: ProgramSummary::from_json(field(value, "program", what)?)?,
            fabric: FabricSpec::from_json(field(value, "fabric", what)?)?,
            latency_us: f64_field(value, "latency_us", what)?,
            l_cnot_avg_us: f64_field(value, "l_cnot_avg_us", what)?,
            l_one_qubit_avg_us: f64_field(value, "l_one_qubit_avg_us", what)?,
            d_uncong_us: f64_field(value, "d_uncong_us", what)?,
            avg_zone_area: f64_field(value, "avg_zone_area", what)?,
            zone_side: u64_field(value, "zone_side", what)?
                .try_into()
                .map_err(|_| LeqaError::new(ErrorKind::Json, "zone_side out of range"))?,
            esq: field(value, "esq", what)?
                .as_arr()
                .ok_or_else(|| LeqaError::new(ErrorKind::Json, "esq must be an array"))?
                .iter()
                .map(|e| {
                    e.as_f64()
                        .ok_or_else(|| LeqaError::new(ErrorKind::Json, "esq terms must be numbers"))
                })
                .collect::<Result<_, _>>()?,
            critical_cnots: u64_field(value, "critical_cnots", what)?,
            critical_one_qubit: u64_field(value, "critical_one_qubit", what)?,
            profile_cached: field(value, "profile_cached", what)?
                .as_bool()
                .ok_or_else(|| {
                    LeqaError::new(ErrorKind::Json, "profile_cached must be a boolean")
                })?,
        })
    }
}

/// One candidate of a sweep response.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepPointDto {
    /// Candidate side (square fabrics).
    pub side: u32,
    /// `L_CNOT^avg` in microseconds; `None` when the program did not fit.
    pub l_cnot_avg_us: Option<f64>,
    /// Eq. 1 latency in microseconds; `None` when the program did not fit.
    pub latency_us: Option<f64>,
}

impl SweepPointDto {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("side", Json::num(self.side)),
            ("l_cnot_avg_us", json_opt_num(self.l_cnot_avg_us)),
            ("latency_us", json_opt_num(self.latency_us)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        Ok(SweepPointDto {
            side: u64_field(value, "side", "sweep point")?
                .try_into()
                .map_err(|_| LeqaError::new(ErrorKind::Json, "sweep side out of range"))?,
            l_cnot_avg_us: opt_f64(value, "l_cnot_avg_us", "sweep point")?,
            latency_us: opt_f64(value, "latency_us", "sweep point")?,
        })
    }
}

/// Response to a [`SweepRequest`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepResponse {
    /// The program swept.
    pub program: ProgramSummary,
    /// One point per requested size, in request order.
    pub points: Vec<SweepPointDto>,
    /// The latency-minimal fitting side, if any candidate fits.
    pub optimal_side: Option<u32>,
}

impl SweepResponse {
    /// Serializes the response envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("sweep")),
            ("program", self.program.to_json()),
            (
                "points",
                Json::Arr(self.points.iter().map(SweepPointDto::to_json).collect()),
            ),
            (
                "optimal_side",
                self.optimal_side.map(Json::num).unwrap_or(Json::Null),
            ),
        ])
    }

    /// Decodes a response envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let what = "sweep response";
        Ok(SweepResponse {
            program: ProgramSummary::from_json(field(value, "program", what)?)?,
            points: field(value, "points", what)?
                .as_arr()
                .ok_or_else(|| LeqaError::new(ErrorKind::Json, "points must be an array"))?
                .iter()
                .map(SweepPointDto::from_json)
                .collect::<Result<_, _>>()?,
            optimal_side: match value.get("optimal_side") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().and_then(|n| u32::try_from(n).ok()).ok_or_else(
                    || LeqaError::new(ErrorKind::Json, "optimal_side must be a u32"),
                )?),
            },
        })
    }
}

/// One row of a zones response (§3.1–3.2 per-qubit quantities).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ZoneRowDto {
    /// The qubit index.
    pub qubit: u32,
    /// `M_i`: IIG degree.
    pub degree: u64,
    /// Total two-qubit ops involving this qubit.
    pub strength: u64,
    /// `B_i` (Eq. 6).
    pub zone_area: f64,
    /// `E[l_ham,i]` (Eq. 15).
    pub expected_path: f64,
    /// `d_uncong,i` (Eq. 16) in microseconds.
    pub uncongested_delay_us: f64,
}

impl ZoneRowDto {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("qubit", Json::num(self.qubit)),
            ("degree", Json::Num(self.degree as f64)),
            ("strength", Json::Num(self.strength as f64)),
            ("zone_area", Json::Num(self.zone_area)),
            ("expected_path", Json::Num(self.expected_path)),
            ("uncongested_delay_us", Json::Num(self.uncongested_delay_us)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let what = "zone row";
        Ok(ZoneRowDto {
            qubit: u64_field(value, "qubit", what)?
                .try_into()
                .map_err(|_| LeqaError::new(ErrorKind::Json, "qubit index out of range"))?,
            degree: u64_field(value, "degree", what)?,
            strength: u64_field(value, "strength", what)?,
            zone_area: f64_field(value, "zone_area", what)?,
            expected_path: f64_field(value, "expected_path", what)?,
            uncongested_delay_us: f64_field(value, "uncongested_delay_us", what)?,
        })
    }
}

/// Response to a [`ZonesRequest`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ZonesResponse {
    /// The program reported on.
    pub program: ProgramSummary,
    /// The session fabric (the report itself is fabric-independent).
    pub fabric: FabricSpec,
    /// Rows, strongest qubits first, truncated to the request's limit.
    pub rows: Vec<ZoneRowDto>,
    /// Total rows before truncation (= logical qubits).
    pub total_rows: u64,
}

impl ZonesResponse {
    /// Serializes the response envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("zones")),
            ("program", self.program.to_json()),
            ("fabric", self.fabric.to_json()),
            (
                "rows",
                Json::Arr(self.rows.iter().map(ZoneRowDto::to_json).collect()),
            ),
            ("total_rows", Json::Num(self.total_rows as f64)),
        ])
    }

    /// Decodes a response envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let what = "zones response";
        Ok(ZonesResponse {
            program: ProgramSummary::from_json(field(value, "program", what)?)?,
            fabric: FabricSpec::from_json(field(value, "fabric", what)?)?,
            rows: field(value, "rows", what)?
                .as_arr()
                .ok_or_else(|| LeqaError::new(ErrorKind::Json, "rows must be an array"))?
                .iter()
                .map(ZoneRowDto::from_json)
                .collect::<Result<_, _>>()?,
            total_rows: u64_field(value, "total_rows", what)?,
        })
    }
}

/// Response to a [`CompareRequest`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct CompareResponse {
    /// The program compared.
    pub program: ProgramSummary,
    /// The fabric used.
    pub fabric: FabricSpec,
    /// QSPR's detailed-schedule latency in microseconds.
    pub actual_us: f64,
    /// LEQA's estimate in microseconds.
    pub estimated_us: f64,
    /// `|est − actual| / actual` in percent; `None` when actual is 0.
    pub error_pct: Option<f64>,
}

impl CompareResponse {
    /// Serializes the response envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("compare")),
            ("program", self.program.to_json()),
            ("fabric", self.fabric.to_json()),
            ("actual_us", Json::Num(self.actual_us)),
            ("estimated_us", Json::Num(self.estimated_us)),
            ("error_pct", json_opt_num(self.error_pct)),
        ])
    }

    /// Decodes a response envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let what = "compare response";
        Ok(CompareResponse {
            program: ProgramSummary::from_json(field(value, "program", what)?)?,
            fabric: FabricSpec::from_json(field(value, "fabric", what)?)?,
            actual_us: f64_field(value, "actual_us", what)?,
            estimated_us: f64_field(value, "estimated_us", what)?,
            error_pct: opt_f64(value, "error_pct", what)?,
        })
    }
}

/// Response to a [`MapRequest`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MapResponse {
    /// The program mapped.
    pub program: ProgramSummary,
    /// The fabric used.
    pub fabric: FabricSpec,
    /// The detailed schedule's latency in microseconds.
    pub latency_us: f64,
    /// CNOTs routed.
    pub cnot_ops: u64,
    /// Average CNOT routing distance in hops.
    pub avg_cnot_distance: f64,
    /// Congestion wait summed over qubits, in microseconds.
    pub congestion_wait_us: f64,
    /// Traversals through the busiest channel.
    pub max_channel_load: u64,
    /// Preformatted longest-running-operation rows (when requested).
    pub trace: Option<String>,
}

impl MapResponse {
    /// Serializes the response envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("map")),
            ("program", self.program.to_json()),
            ("fabric", self.fabric.to_json()),
            ("latency_us", Json::Num(self.latency_us)),
            ("cnot_ops", Json::Num(self.cnot_ops as f64)),
            ("avg_cnot_distance", Json::Num(self.avg_cnot_distance)),
            ("congestion_wait_us", Json::Num(self.congestion_wait_us)),
            ("max_channel_load", Json::Num(self.max_channel_load as f64)),
            (
                "trace",
                self.trace.as_deref().map(Json::str).unwrap_or(Json::Null),
            ),
        ])
    }

    /// Decodes a response envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let what = "map response";
        Ok(MapResponse {
            program: ProgramSummary::from_json(field(value, "program", what)?)?,
            fabric: FabricSpec::from_json(field(value, "fabric", what)?)?,
            latency_us: f64_field(value, "latency_us", what)?,
            cnot_ops: u64_field(value, "cnot_ops", what)?,
            avg_cnot_distance: f64_field(value, "avg_cnot_distance", what)?,
            congestion_wait_us: f64_field(value, "congestion_wait_us", what)?,
            max_channel_load: u64_field(value, "max_channel_load", what)?,
            trace: match value.get("trace") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| LeqaError::new(ErrorKind::Json, "trace must be a string"))?
                        .to_string(),
                ),
            },
        })
    }
}

/// Any response, tagged by its `op` field on the wire.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// [`EstimateResponse`].
    Estimate(EstimateResponse),
    /// [`SweepResponse`].
    Sweep(SweepResponse),
    /// [`ZonesResponse`].
    Zones(ZonesResponse),
    /// [`CompareResponse`].
    Compare(CompareResponse),
    /// [`MapResponse`].
    Map(MapResponse),
}

impl Response {
    /// Serializes the response envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Response::Estimate(r) => r.to_json(),
            Response::Sweep(r) => r.to_json(),
            Response::Zones(r) => r.to_json(),
            Response::Compare(r) => r.to_json(),
            Response::Map(r) => r.to_json(),
        }
    }

    /// Decodes any response by its `op` tag.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] for unknown ops or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        match str_field(value, "op", "response")?.as_str() {
            "estimate" => EstimateResponse::from_json(value).map(Response::Estimate),
            "sweep" => SweepResponse::from_json(value).map(Response::Sweep),
            "zones" => ZonesResponse::from_json(value).map(Response::Zones),
            "compare" => CompareResponse::from_json(value).map(Response::Compare),
            "map" => MapResponse::from_json(value).map(Response::Map),
            other => Err(LeqaError::new(
                ErrorKind::Json,
                format!("unknown response op `{other}`"),
            )),
        }
    }
}

/// Response to a batch: one slot per request, order preserved, failures
/// carried inline so one bad request cannot sink its batch-mates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct BatchResponse {
    /// Per-request outcomes, in request order.
    pub results: Vec<Result<Response, LeqaError>>,
}

impl BatchResponse {
    /// Serializes the batch envelope: each slot is `{"ok": …}` or
    /// `{"err": …}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("batch")),
            (
                "results",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|slot| match slot {
                            Ok(resp) => Json::obj(vec![("ok", resp.to_json())]),
                            Err(e) => Json::obj(vec![("err", e.to_json())]),
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a batch envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let results = field(value, "results", "batch response")?
            .as_arr()
            .ok_or_else(|| LeqaError::new(ErrorKind::Json, "batch results must be an array"))?
            .iter()
            .map(|slot| {
                if let Some(ok) = slot.get("ok") {
                    Response::from_json(ok).map(Ok)
                } else if let Some(err) = slot.get("err") {
                    LeqaError::from_json(err).map(Err)
                } else {
                    Err(LeqaError::new(
                        ErrorKind::Json,
                        "batch slots must be `{\"ok\": …}` or `{\"err\": …}`",
                    ))
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(BatchResponse { results })
    }
}

// ── Server frames ────────────────────────────────────────────────────────
//
// The persistent daemon (`crate::server`, wire reference in `SERVER.md`)
// speaks newline-delimited JSON. Work frames reuse the [`Request`]
// envelopes above plus the [`BatchRequest`] envelope; operators steer the
// daemon with [`ControlFrame`] lines and read [`StatsResponse`] /
// [`ShutdownAck`] / [`ErrorFrame`] replies.

/// Request: execute a batch of requests as one wire frame
/// (`{"op":"batch","requests":[…]}`); the reply is the
/// [`BatchResponse`] envelope, byte-identical to a direct
/// [`Session::batch`](crate::Session::batch) call.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct BatchRequest {
    /// The requests, executed as one deduplicated batch.
    pub requests: Vec<Request>,
}

impl BatchRequest {
    /// Creates a batch frame.
    #[must_use]
    pub fn new(requests: impl IntoIterator<Item = Request>) -> Self {
        BatchRequest {
            requests: requests.into_iter().collect(),
        }
    }

    /// Serializes the request envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("batch")),
            (
                "requests",
                Json::Arr(self.requests.iter().map(Request::to_json).collect()),
            ),
        ])
    }

    /// Decodes a request envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        Ok(BatchRequest {
            requests: field(value, "requests", "batch request")?
                .as_arr()
                .ok_or_else(|| {
                    LeqaError::new(ErrorKind::Json, "batch `requests` must be an array")
                })?
                .iter()
                .map(Request::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// An operator control line (`{"cmd":"…"}`): steers the daemon instead
/// of running an estimator endpoint. Control frames carry no
/// `schema_version` and bypass admission control — they must stay
/// answerable when the service is saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ControlFrame {
    /// `{"cmd":"stats"}` — reply with a [`StatsResponse`] snapshot.
    Stats,
    /// `{"cmd":"shutdown"}` — acknowledge with a [`ShutdownAck`], stop
    /// accepting work, drain in-flight requests, and exit.
    Shutdown,
    /// `{"cmd":"upgrade","proto":"frame1"}` — acknowledge with an
    /// [`UpgradeAck`] line, then switch this connection to the named
    /// binary framing (see [`crate::frame`]). TCP connections only.
    Upgrade(FrameProto),
}

/// Wire protocols a connection can upgrade to (see
/// [`ControlFrame::Upgrade`]). Today there is exactly one; the enum
/// keeps the negotiation forward-compatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameProto {
    /// `[u32 len][u32 tag][JSON payload]` little-endian framing
    /// ([`crate::frame`]).
    Frame1,
}

impl FrameProto {
    /// The wire name of the protocol.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FrameProto::Frame1 => crate::frame::FRAME1,
        }
    }
}

impl ControlFrame {
    /// The wire name of the command.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ControlFrame::Stats => "stats",
            ControlFrame::Shutdown => "shutdown",
            ControlFrame::Upgrade(_) => "upgrade",
        }
    }

    /// Serializes the control line.
    #[must_use]
    pub fn to_json(self) -> Json {
        let mut entries = vec![("cmd", Json::str(self.name()))];
        if let ControlFrame::Upgrade(proto) = self {
            entries.push(("proto", Json::str(proto.name())));
        }
        Json::obj(entries)
    }

    /// Decodes a control line (any object with a `cmd` key).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] when `cmd` is missing or names no known
    /// command, or when an `upgrade` names no known protocol.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        match str_field(value, "cmd", "control frame")?.as_str() {
            "stats" => Ok(ControlFrame::Stats),
            "shutdown" => Ok(ControlFrame::Shutdown),
            "upgrade" => match str_field(value, "proto", "upgrade frame")?.as_str() {
                crate::frame::FRAME1 => Ok(ControlFrame::Upgrade(FrameProto::Frame1)),
                other => Err(LeqaError::new(
                    ErrorKind::Json,
                    format!("unknown upgrade protocol `{other}` (frame1)"),
                )),
            },
            other => Err(LeqaError::new(
                ErrorKind::Json,
                format!("unknown control command `{other}` (stats|shutdown|upgrade)"),
            )),
        }
    }
}

/// Reply to `{"cmd":"stats"}`: the daemon's atomic counters. Every field
/// is a monotone counter or an instantaneous gauge — deliberately no
/// wall-clock timestamps, so scripted sessions stay byte-stable
/// (`uptime_ticks` counts protocol lines processed instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct StatsResponse {
    /// Connections accepted since startup (stdio counts as one).
    pub connections: u64,
    /// Connections currently open (gauge).
    pub active_connections: u64,
    /// Work frames currently executing (gauge; bounded by
    /// `--max-inflight` when set).
    pub inflight: u64,
    /// `estimate` frames served.
    pub estimate: u64,
    /// `sweep` frames served.
    pub sweep: u64,
    /// `zones` frames served.
    pub zones: u64,
    /// `compare` frames served.
    pub compare: u64,
    /// `map` frames served.
    pub map: u64,
    /// `batch` frames served (each counts once, however many slots).
    pub batch: u64,
    /// `experiment` frames served.
    pub experiment: u64,
    /// Error frames written for reasons other than admission control.
    pub errors: u64,
    /// Admission-control refusals (`overloaded` kind): work frames
    /// refused at the inflight cap or while draining, plus whole
    /// connections refused at the connection cap.
    pub overloaded: u64,
    /// Transport bytes read from clients (NDJSON lines and binary
    /// frames alike). Additive in schema v1: absent on pre-frame
    /// daemons, decoded as 0.
    pub bytes_in: u64,
    /// Transport bytes written to clients (additive, see `bytes_in`).
    pub bytes_out: u64,
    /// Binary frames decoded but not yet answered (gauge; 0 on NDJSON
    /// connections, where the line loop never holds more than one).
    pub frames_in_flight: u64,
    /// Profiles served from the on-disk snapshot store instead of being
    /// rebuilt (`--cache-dir`; additive in schema v1 — absent on older
    /// daemons, decoded as 0).
    pub store_hits: u64,
    /// Snapshot-store lookups that missed (no file, stale, or corrupt)
    /// and fell back to a rebuild (additive, see `store_hits`).
    pub store_misses: u64,
    /// Dead replicas the shard front-end's supervisor restarted
    /// (additive; always 0 on a plain daemon).
    pub replicas_restarted: u64,
    /// Session cache counters at snapshot time (see
    /// [`CacheStats`](crate::CacheStats)).
    pub cache: crate::session::CacheStats,
    /// Protocol lines processed since startup — the daemon's monotone
    /// clock (no wall time on the wire).
    pub uptime_ticks: u64,
}

impl StatsResponse {
    /// Serializes the stats envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("stats")),
            ("connections", Json::Num(self.connections as f64)),
            (
                "active_connections",
                Json::Num(self.active_connections as f64),
            ),
            ("inflight", Json::Num(self.inflight as f64)),
            (
                "requests",
                Json::obj(vec![
                    ("estimate", Json::Num(self.estimate as f64)),
                    ("sweep", Json::Num(self.sweep as f64)),
                    ("zones", Json::Num(self.zones as f64)),
                    ("compare", Json::Num(self.compare as f64)),
                    ("map", Json::Num(self.map as f64)),
                    ("batch", Json::Num(self.batch as f64)),
                    ("experiment", Json::Num(self.experiment as f64)),
                ]),
            ),
            ("errors", Json::Num(self.errors as f64)),
            ("overloaded", Json::Num(self.overloaded as f64)),
            ("bytes_in", Json::Num(self.bytes_in as f64)),
            ("bytes_out", Json::Num(self.bytes_out as f64)),
            ("frames_in_flight", Json::Num(self.frames_in_flight as f64)),
            ("store_hits", Json::Num(self.store_hits as f64)),
            ("store_misses", Json::Num(self.store_misses as f64)),
            (
                "replicas_restarted",
                Json::Num(self.replicas_restarted as f64),
            ),
            (
                "cache",
                Json::obj(vec![
                    (
                        "profile_builds",
                        Json::Num(self.cache.profile_builds as f64),
                    ),
                    ("cache_hits", Json::Num(self.cache.cache_hits as f64)),
                    ("cache_misses", Json::Num(self.cache.cache_misses as f64)),
                    ("loads", Json::Num(self.cache.loads as f64)),
                ]),
            ),
            ("uptime_ticks", Json::Num(self.uptime_ticks as f64)),
        ])
    }

    /// Decodes a stats envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        let what = "stats response";
        let requests = field(value, "requests", what)?;
        let cache = field(value, "cache", what)?;
        Ok(StatsResponse {
            connections: u64_field(value, "connections", what)?,
            active_connections: u64_field(value, "active_connections", what)?,
            inflight: u64_field(value, "inflight", what)?,
            estimate: u64_field(requests, "estimate", what)?,
            sweep: u64_field(requests, "sweep", what)?,
            zones: u64_field(requests, "zones", what)?,
            compare: u64_field(requests, "compare", what)?,
            map: u64_field(requests, "map", what)?,
            batch: u64_field(requests, "batch", what)?,
            experiment: u64_field(requests, "experiment", what)?,
            errors: u64_field(value, "errors", what)?,
            overloaded: u64_field(value, "overloaded", what)?,
            // Additive in schema v1: pre-frame daemons omit these.
            bytes_in: opt_u64(value, "bytes_in", what)?.unwrap_or(0),
            bytes_out: opt_u64(value, "bytes_out", what)?.unwrap_or(0),
            frames_in_flight: opt_u64(value, "frames_in_flight", what)?.unwrap_or(0),
            store_hits: opt_u64(value, "store_hits", what)?.unwrap_or(0),
            store_misses: opt_u64(value, "store_misses", what)?.unwrap_or(0),
            replicas_restarted: opt_u64(value, "replicas_restarted", what)?.unwrap_or(0),
            cache: crate::session::CacheStats {
                profile_builds: u64_field(cache, "profile_builds", what)?,
                cache_hits: u64_field(cache, "cache_hits", what)?,
                cache_misses: u64_field(cache, "cache_misses", what)?,
                loads: u64_field(cache, "loads", what)?,
            },
            uptime_ticks: u64_field(value, "uptime_ticks", what)?,
        })
    }

    /// Accumulates another snapshot into this one — the shard front-end
    /// (`leqa shard`) answers `{"cmd":"stats"}` with the sum over its
    /// replicas. Counters and gauges both add; a summed gauge reads as
    /// "across the fleet".
    pub fn merge(&mut self, other: &StatsResponse) {
        self.connections += other.connections;
        self.active_connections += other.active_connections;
        self.inflight += other.inflight;
        self.estimate += other.estimate;
        self.sweep += other.sweep;
        self.zones += other.zones;
        self.compare += other.compare;
        self.map += other.map;
        self.batch += other.batch;
        self.experiment += other.experiment;
        self.errors += other.errors;
        self.overloaded += other.overloaded;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.frames_in_flight += other.frames_in_flight;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.replicas_restarted += other.replicas_restarted;
        self.cache.profile_builds += other.cache.profile_builds;
        self.cache.cache_hits += other.cache.cache_hits;
        self.cache.cache_misses += other.cache.cache_misses;
        self.cache.loads += other.cache.loads;
        self.uptime_ticks += other.uptime_ticks;
    }
}

/// Reply to `{"cmd":"upgrade","proto":…}`: the last NDJSON line on this
/// connection — every byte after it speaks the acknowledged framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct UpgradeAck {
    /// The protocol now in effect.
    pub proto: FrameProto,
}

impl UpgradeAck {
    /// Serializes the acknowledgement envelope.
    #[must_use]
    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("upgrade")),
            ("proto", Json::str(self.proto.name())),
        ])
    }

    /// Decodes an acknowledgement envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch, a wrong `op`, or
    /// an unknown protocol name.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        match field(value, "op", "upgrade ack")?.as_str() {
            Some("upgrade") => match str_field(value, "proto", "upgrade ack")?.as_str() {
                crate::frame::FRAME1 => Ok(UpgradeAck {
                    proto: FrameProto::Frame1,
                }),
                other => Err(LeqaError::new(
                    ErrorKind::Json,
                    format!("unknown upgrade protocol `{other}` in ack"),
                )),
            },
            _ => Err(LeqaError::new(
                ErrorKind::Json,
                "upgrade ack must carry op `upgrade`",
            )),
        }
    }
}

/// Reply to `{"cmd":"shutdown"}`: the daemon stopped accepting work and
/// is draining in-flight requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ShutdownAck;

impl ShutdownAck {
    /// Serializes the acknowledgement envelope.
    #[must_use]
    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("shutdown")),
            ("draining", Json::Bool(true)),
        ])
    }

    /// Decodes an acknowledgement envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        match field(value, "op", "shutdown ack")?.as_str() {
            Some("shutdown") => Ok(ShutdownAck),
            _ => Err(LeqaError::new(
                ErrorKind::Json,
                "shutdown ack must carry op `shutdown`",
            )),
        }
    }
}

/// A failed frame's reply: the one envelope the daemon writes when a
/// line could not produce its normal response
/// (`{"op":"error","error":{…}}`). The connection survives; only the
/// failing line is answered with it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ErrorFrame {
    /// What went wrong (kind + message + context chain).
    pub error: LeqaError,
}

impl ErrorFrame {
    /// Wraps an error for the wire.
    #[must_use]
    pub fn new(error: LeqaError) -> Self {
        ErrorFrame { error }
    }

    /// Serializes the error envelope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as u32)),
            ("op", Json::str("error")),
            ("error", self.error.to_json()),
        ])
    }

    /// Decodes an error envelope.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on schema-version mismatch or shape errors.
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        check_schema_version(value)?;
        Ok(ErrorFrame {
            error: LeqaError::from_json(field(value, "error", "error frame")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use proptest::prelude::*;

    fn rt_request(req: &Request) {
        let text = req.to_json().encode();
        let back = Request::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(&back, req, "wire text: {text}");
    }

    #[test]
    fn program_specs_round_trip() {
        for spec in [
            ProgramSpec::bench("gf2^16mult"),
            ProgramSpec::path("/tmp/a b\".qc"),
            ProgramSpec::source(".qubits 2\ncnot 0 1\n"),
        ] {
            let back = ProgramSpec::from_json(&parse(&spec.to_json().encode()).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn requests_round_trip() {
        rt_request(&Request::Estimate(
            EstimateRequest::new(ProgramSpec::bench("qft_8")).with_fabric(40, 30),
        ));
        rt_request(&Request::Estimate(EstimateRequest::new(
            ProgramSpec::source("x"),
        )));
        rt_request(&Request::Sweep(SweepRequest::new(
            ProgramSpec::bench("8bitadder"),
            [10, 20, 60],
        )));
        rt_request(&Request::Zones(
            ZonesRequest::new(ProgramSpec::bench("ham15")).with_limit(5),
        ));
        rt_request(&Request::Compare(
            CompareRequest::new(ProgramSpec::path("c.qc")).with_fabric(8, 8),
        ));
        rt_request(&Request::Map(
            MapRequest::new(ProgramSpec::bench("8bitadder"))
                .with_fabric(12, 12)
                .with_trace_limit(3),
        ));
    }

    #[test]
    fn schema_version_is_enforced() {
        let req = EstimateRequest::new(ProgramSpec::bench("x")).to_json();
        let mut text = req.encode();
        text = text.replace("\"schema_version\":1", "\"schema_version\":999");
        let err = EstimateRequest::from_json(&parse(&text).unwrap()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Json);
        assert!(err.to_string().contains("unsupported schema_version 999"));
    }

    #[test]
    fn ill_typed_optional_fields_are_rejected_not_nulled() {
        // Regression: a corrupted producer writing strings where optional
        // numbers belong must raise a Json error, not silently decode to
        // None (which reads as "program did not fit" / "actual was 0").
        let sweep = parse(
            r#"{"schema_version":1,"op":"sweep","program":{"label":"p","qubits":1,"ops":1},
                "points":[{"side":60,"l_cnot_avg_us":"312.5","latency_us":"1.2e6"}],
                "optimal_side":null}"#,
        )
        .unwrap();
        let err = SweepResponse::from_json(&sweep).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Json);
        assert!(err.to_string().contains("l_cnot_avg_us"), "{err}");

        let cmp = parse(
            r#"{"schema_version":1,"op":"compare","program":{"label":"p","qubits":1,"ops":1},
                "fabric":{"width":60,"height":60},"actual_us":1,"estimated_us":2,
                "error_pct":"oops"}"#,
        )
        .unwrap();
        let err = CompareResponse::from_json(&cmp).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Json);
        assert!(err.to_string().contains("error_pct"), "{err}");
    }

    #[test]
    fn unknown_op_is_rejected() {
        let doc = parse(r#"{"schema_version":1,"op":"frobnicate"}"#).unwrap();
        assert!(Request::from_json(&doc).is_err());
        assert!(Response::from_json(&doc).is_err());
    }

    #[test]
    fn batch_request_round_trips() {
        let req = BatchRequest::new([
            Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8"))),
            Request::Zones(ZonesRequest::new(ProgramSpec::source("x")).with_limit(3)),
        ]);
        let text = req.to_json().encode();
        assert!(text.starts_with("{\"schema_version\":1,\"op\":\"batch\",\"requests\":["));
        let back = BatchRequest::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn control_frames_round_trip_and_reject_unknown_commands() {
        for frame in [ControlFrame::Stats, ControlFrame::Shutdown] {
            let back = ControlFrame::from_json(&parse(&frame.to_json().encode()).unwrap()).unwrap();
            assert_eq!(back, frame);
        }
        assert_eq!(
            ControlFrame::from_json(&parse(r#"{"cmd":"stats"}"#).unwrap()).unwrap(),
            ControlFrame::Stats
        );
        let err = ControlFrame::from_json(&parse(r#"{"cmd":"reboot"}"#).unwrap()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Json);
    }

    #[test]
    fn upgrade_control_frame_and_ack_round_trip() {
        let frame = ControlFrame::Upgrade(FrameProto::Frame1);
        let text = frame.to_json().encode();
        assert_eq!(text, "{\"cmd\":\"upgrade\",\"proto\":\"frame1\"}");
        assert_eq!(
            ControlFrame::from_json(&parse(&text).unwrap()).unwrap(),
            frame
        );
        let err = ControlFrame::from_json(&parse(r#"{"cmd":"upgrade","proto":"frame9"}"#).unwrap())
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Json);
        // A bare upgrade without a protocol is malformed.
        assert!(ControlFrame::from_json(&parse(r#"{"cmd":"upgrade"}"#).unwrap()).is_err());

        let ack = UpgradeAck {
            proto: FrameProto::Frame1,
        };
        let text = ack.to_json().encode();
        assert_eq!(
            text,
            "{\"schema_version\":1,\"op\":\"upgrade\",\"proto\":\"frame1\"}"
        );
        assert_eq!(UpgradeAck::from_json(&parse(&text).unwrap()).unwrap(), ack);
    }

    #[test]
    fn stats_response_round_trips_byte_stably() {
        let stats = StatsResponse {
            connections: 3,
            active_connections: 1,
            inflight: 2,
            estimate: 10,
            sweep: 1,
            zones: 2,
            compare: 3,
            map: 4,
            batch: 5,
            experiment: 6,
            errors: 7,
            overloaded: 8,
            bytes_in: 4096,
            bytes_out: 8192,
            frames_in_flight: 3,
            store_hits: 4,
            store_misses: 1,
            replicas_restarted: 2,
            cache: crate::session::CacheStats {
                profile_builds: 2,
                cache_hits: 9,
                cache_misses: 2,
                loads: 11,
            },
            uptime_ticks: 42,
        };
        let text = stats.to_json().encode();
        assert!(text.starts_with("{\"schema_version\":1,\"op\":\"stats\",\"connections\":3,"));
        assert!(text.contains("\"requests\":{\"estimate\":10,"));
        assert!(text.contains("\"cache\":{\"profile_builds\":2,"));
        assert!(
            !text.contains("timestamp") && !text.contains("wall"),
            "no wall-clock on the wire: {text}"
        );
        assert!(text.contains("\"bytes_in\":4096,\"bytes_out\":8192,\"frames_in_flight\":3,"));
        assert!(text.contains(
            "\"frames_in_flight\":3,\"store_hits\":4,\"store_misses\":1,\
             \"replicas_restarted\":2,\"cache\":{"
        ));
        let back = StatsResponse::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn stats_decode_tolerates_pre_frame_snapshots_and_merge_sums() {
        // A PR-5-era daemon omits the byte counters; decode as zero.
        let old = "{\"schema_version\":1,\"op\":\"stats\",\"connections\":1,\
                   \"active_connections\":0,\"inflight\":0,\
                   \"requests\":{\"estimate\":2,\"sweep\":0,\"zones\":0,\"compare\":0,\
                   \"map\":0,\"batch\":0,\"experiment\":0},\
                   \"errors\":0,\"overloaded\":0,\
                   \"cache\":{\"profile_builds\":1,\"cache_hits\":1,\"cache_misses\":1,\"loads\":2},\
                   \"uptime_ticks\":3}";
        let a = StatsResponse::from_json(&parse(old).unwrap()).unwrap();
        assert_eq!(a.bytes_in, 0);
        assert_eq!(a.frames_in_flight, 0);

        let mut total = a;
        let mut b = a;
        b.bytes_in = 100;
        b.estimate = 5;
        total.merge(&b);
        assert_eq!(total.connections, 2);
        assert_eq!(total.estimate, 7);
        assert_eq!(total.bytes_in, 100);
        assert_eq!(total.cache.loads, 4);
        assert_eq!(total.uptime_ticks, 6);
    }

    #[test]
    fn shutdown_ack_and_error_frame_round_trip() {
        let ack = ShutdownAck;
        assert_eq!(
            ack.to_json().encode(),
            "{\"schema_version\":1,\"op\":\"shutdown\",\"draining\":true}"
        );
        ShutdownAck::from_json(&parse(&ack.to_json().encode()).unwrap()).unwrap();

        let frame = ErrorFrame::new(
            LeqaError::new(ErrorKind::Overloaded, "server at capacity").context("request 7"),
        );
        let text = frame.to_json().encode();
        assert!(text.starts_with(
            "{\"schema_version\":1,\"op\":\"error\",\"error\":{\"kind\":\"overloaded\""
        ));
        let back = ErrorFrame::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, frame);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn requests_roundtrip_for_arbitrary_parameters(
            w in 1u32..500, h in 1u32..500,
            terms in 1u64..64,
            sides in 1usize..10,
            base in 2u32..100,
            trace in 0u64..50,
            strategy in 0u32..3,
            spec_kind in 0u32..3,
        ) {
            let spec = match spec_kind {
                0 => ProgramSpec::bench(format!("qft_{base}")),
                1 => ProgramSpec::path(format!("/tmp/{base}/c d\".qc")),
                _ => ProgramSpec::source(format!(".qubits {base}\ncnot 0 1\n")),
            };
            let requests = [
                Request::Estimate(EstimateRequest::new(spec.clone()).with_fabric(w, h)),
                Request::Sweep(SweepRequest::new(
                    spec.clone(),
                    (0..sides).map(|i| base + i as u32),
                )),
                Request::Zones(ZonesRequest::new(spec.clone()).with_limit(terms)),
                Request::Compare(CompareRequest::new(spec.clone()).with_fabric(h, w)),
                Request::Map(
                    MapRequest::new(spec)
                        .with_trace_limit(trace)
                        .with_placement(match strategy {
                            0 => PlacementStrategy::IigCluster,
                            1 => PlacementStrategy::RowMajor,
                            _ => PlacementStrategy::Random,
                        })
                        .with_router(match strategy {
                            0 => RouterStrategy::Xy,
                            1 => RouterStrategy::Yx,
                            _ => RouterStrategy::Adaptive,
                        })
                        .with_movement(if strategy == 0 {
                            MovementModel::HomeBased
                        } else {
                            MovementModel::Drift
                        }),
                ),
            ];
            for req in requests {
                let back = Request::from_json(&parse(&req.to_json().encode()).unwrap()).unwrap();
                prop_assert_eq!(back, req);
            }
        }

        #[test]
        fn estimate_response_roundtrips(
            qubits in 0u32..5000,
            ops in 0u64..100_000,
            w in 1u32..200, h in 1u32..200,
            latency in 0.0f64..1e12,
            l_cnot in 0.0f64..1e9,
            d_uncong in 0.0f64..1e9,
            zone in 0.0f64..4000.0,
            side in 0u32..64,
            esq_len in 0usize..24,
            cnots in 0u64..1_000_000,
            ones in 0u64..1_000_000,
            cached in 0u32..2,
        ) {
            let resp = EstimateResponse {
                program: ProgramSummary {
                    label: format!("prog-{qubits}"),
                    qubits: qubits as u64,
                    ops,
                },
                fabric: FabricSpec::new(w, h),
                latency_us: latency,
                l_cnot_avg_us: l_cnot,
                l_one_qubit_avg_us: 200.0,
                d_uncong_us: d_uncong,
                avg_zone_area: zone,
                zone_side: side,
                esq: (0..esq_len).map(|i| 1.0 / (i as f64 + 1.5)).collect(),
                critical_cnots: cnots,
                critical_one_qubit: ones,
                profile_cached: cached == 1,
            };
            let back = EstimateResponse::from_json(
                &parse(&resp.to_json().encode()).unwrap(),
            ).unwrap();
            prop_assert_eq!(back, resp);
        }

        #[test]
        fn sweep_response_roundtrips(
            sides in 1usize..12,
            base in 4u32..80,
            latency in 1.0f64..1e9,
        ) {
            let points: Vec<SweepPointDto> = (0..sides)
                .map(|i| SweepPointDto {
                    side: base + i as u32,
                    l_cnot_avg_us: if i % 3 == 0 { None } else { Some(latency / (i as f64 + 1.0)) },
                    latency_us: if i % 3 == 0 { None } else { Some(latency * (i as f64 + 1.0)) },
                })
                .collect();
            let resp = SweepResponse {
                program: ProgramSummary { label: "p".into(), qubits: 9, ops: 99 },
                optimal_side: points.iter().find(|p| p.latency_us.is_some()).map(|p| p.side),
                points,
            };
            let back = SweepResponse::from_json(&parse(&resp.to_json().encode()).unwrap()).unwrap();
            prop_assert_eq!(back, resp);
        }

        #[test]
        fn zones_response_roundtrips(rows in 0usize..20, seedq in 0u32..1000) {
            let rows: Vec<ZoneRowDto> = (0..rows)
                .map(|i| ZoneRowDto {
                    qubit: seedq + i as u32,
                    degree: i as u64,
                    strength: (i * 2) as u64,
                    zone_area: i as f64 + 0.25,
                    expected_path: i as f64 / 3.0,
                    uncongested_delay_us: i as f64 * 7.5,
                })
                .collect();
            let resp = ZonesResponse {
                program: ProgramSummary { label: "z".into(), qubits: 3, ops: 4 },
                fabric: FabricSpec::new(60, 60),
                total_rows: rows.len() as u64 + 2,
                rows,
            };
            let back = ZonesResponse::from_json(&parse(&resp.to_json().encode()).unwrap()).unwrap();
            prop_assert_eq!(back, resp);
        }

        #[test]
        fn compare_response_roundtrips(actual in 0.0f64..1e12, est in 0.0f64..1e12) {
            let resp = CompareResponse {
                program: ProgramSummary { label: "c".into(), qubits: 2, ops: 3 },
                fabric: FabricSpec::new(60, 60),
                actual_us: actual,
                estimated_us: est,
                error_pct: (actual > 0.0).then(|| 100.0 * (est - actual).abs() / actual),
            };
            let back =
                CompareResponse::from_json(&parse(&resp.to_json().encode()).unwrap()).unwrap();
            prop_assert_eq!(back, resp);
        }

        #[test]
        fn map_response_roundtrips(
            latency in 0.0f64..1e12,
            cnots in 0u64..1_000_000,
            load in 0u64..100_000,
            with_trace in 0u32..2,
        ) {
            let resp = MapResponse {
                program: ProgramSummary { label: "m".into(), qubits: 5, ops: 6 },
                fabric: FabricSpec::new(10, 12),
                latency_us: latency,
                cnot_ops: cnots,
                avg_cnot_distance: latency.sqrt(),
                congestion_wait_us: latency / 2.0,
                max_channel_load: load,
                trace: (with_trace == 1).then(|| "op  dist\ncnot  7\n".to_string()),
            };
            let back = MapResponse::from_json(&parse(&resp.to_json().encode()).unwrap()).unwrap();
            prop_assert_eq!(back, resp);
        }

        #[test]
        fn batch_response_roundtrips(slots in 0usize..8) {
            let results: Vec<Result<Response, LeqaError>> = (0..slots)
                .map(|i| {
                    if i % 2 == 0 {
                        Ok(Response::Compare(CompareResponse {
                            program: ProgramSummary {
                                label: format!("b{i}"),
                                qubits: i as u64,
                                ops: i as u64 * 3,
                            },
                            fabric: FabricSpec::new(6, 6),
                            actual_us: i as f64,
                            estimated_us: i as f64 * 1.5,
                            error_pct: None,
                        }))
                    } else {
                        Err(LeqaError::new(ErrorKind::Estimate, format!("slot {i}"))
                            .context("batch"))
                    }
                })
                .collect();
            let resp = BatchResponse { results };
            let back =
                BatchResponse::from_json(&parse(&resp.to_json().encode()).unwrap()).unwrap();
            prop_assert_eq!(back, resp);
        }
    }
}
