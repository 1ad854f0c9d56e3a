//! The JSON mask codec for [`FabricMap`]: declarative fabric descriptions
//! for defective and heterogeneous fabrics.
//!
//! A [`FabricMapSpec`] is the wire form of a fabric map — dimensions,
//! explicitly disabled cells and channels, rectangular parameter
//! overlays, and an optional seeded random-defect layer. The grammar is
//! documented in `WORKLOADS.md` ("Fabric mask files"); `leqa fabric
//! --mask FILE` renders one, and [`FabricMapSpec::build`] turns one into
//! the engine-side [`FabricMap`].
//!
//! Layering order is part of the contract: the random layer (when
//! present) is drawn first, then the explicit `dead_cells` /
//! `dead_channels` lists, then the overlays in file order (later
//! overlays win where they overlap, per
//! [`FabricMap::push_overlay`]).

use leqa_fabric::{Channel, FabricDims, FabricMap, RegionOverlay, Ulb};

use crate::dto::{check_wire_seed, field, json_opt_num, opt_f64, opt_u32, u64_field};
use crate::error::{ErrorKind, LeqaError};
use crate::json::Json;

/// The seeded random-defect layer of a mask: cells and channels knocked
/// out independently at the given densities by the fabric crate's
/// [`SplitMix64`](leqa_fabric::SplitMix64) stream (same seed ⇒ same
/// fabric, on any host).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RandomDefects {
    /// Probability each cell is defective (`[0, 1]`).
    pub cell_density: f64,
    /// Probability each channel is defective (`[0, 1]`).
    pub channel_density: f64,
    /// RNG seed (at most 2^53, the largest integer JSON carries exactly).
    pub seed: u64,
}

/// One rectangular parameter overlay of a mask (inclusive corners;
/// `None` fields keep the base physical parameters).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct OverlaySpec {
    /// Left column (inclusive).
    pub x0: u32,
    /// Top row (inclusive).
    pub y0: u32,
    /// Right column (inclusive).
    pub x1: u32,
    /// Bottom row (inclusive).
    pub y1: u32,
    /// `T_move` override in microseconds.
    pub t_move_us: Option<f64>,
    /// Qubit-speed override (ULB edges per microsecond).
    pub qubit_speed: Option<f64>,
    /// Channel-capacity override.
    pub channel_capacity: Option<u32>,
}

impl OverlaySpec {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("x0", Json::num(self.x0)),
            ("y0", Json::num(self.y0)),
            ("x1", Json::num(self.x1)),
            ("y1", Json::num(self.y1)),
            ("t_move_us", json_opt_num(self.t_move_us)),
            ("qubit_speed", json_opt_num(self.qubit_speed)),
            (
                "channel_capacity",
                self.channel_capacity.map(Json::num).unwrap_or(Json::Null),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let what = "fabric overlay";
        let corner = |key| -> Result<u32, LeqaError> {
            u64_field(value, key, what)?
                .try_into()
                .map_err(|_| LeqaError::new(ErrorKind::Json, format!("overlay `{key}` too large")))
        };
        Ok(OverlaySpec {
            x0: corner("x0")?,
            y0: corner("y0")?,
            x1: corner("x1")?,
            y1: corner("y1")?,
            t_move_us: opt_f64(value, "t_move_us", what)?,
            qubit_speed: opt_f64(value, "qubit_speed", what)?,
            channel_capacity: opt_u32(value, "channel_capacity", what)?,
        })
    }
}

/// A disabled channel as its two adjacent cell coordinates.
pub type ChannelEnds = ((u32, u32), (u32, u32));

/// A declarative fabric-map description: the JSON mask grammar of
/// `WORKLOADS.md`. Decode with [`from_json`](Self::from_json), realize
/// with [`build`](Self::build).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FabricMapSpec {
    /// Fabric width in ULBs.
    pub width: u32,
    /// Fabric height in ULBs.
    pub height: u32,
    /// Explicitly disabled cells, as `[x, y]` pairs.
    pub dead_cells: Vec<(u32, u32)>,
    /// Explicitly disabled channels, as `{"from":[x,y],"to":[x,y]}`
    /// pairs of adjacent cells.
    pub dead_channels: Vec<ChannelEnds>,
    /// Parameter overlays, applied in order (later wins on overlap).
    pub overlays: Vec<OverlaySpec>,
    /// Optional seeded random-defect layer, drawn before the explicit
    /// lists.
    pub random: Option<RandomDefects>,
}

impl FabricMapSpec {
    /// A pristine-mask spec over the given dimensions.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        FabricMapSpec {
            width,
            height,
            dead_cells: Vec::new(),
            dead_channels: Vec::new(),
            overlays: Vec::new(),
            random: None,
        }
    }

    /// Serializes the mask document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("width", Json::num(self.width)),
            ("height", Json::num(self.height)),
            (
                "dead_cells",
                Json::Arr(
                    self.dead_cells
                        .iter()
                        .map(|&(x, y)| Json::Arr(vec![Json::num(x), Json::num(y)]))
                        .collect(),
                ),
            ),
            (
                "dead_channels",
                Json::Arr(
                    self.dead_channels
                        .iter()
                        .map(|&((ax, ay), (bx, by))| {
                            Json::obj(vec![
                                ("from", Json::Arr(vec![Json::num(ax), Json::num(ay)])),
                                ("to", Json::Arr(vec![Json::num(bx), Json::num(by)])),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "overlays",
                Json::Arr(self.overlays.iter().map(OverlaySpec::to_json).collect()),
            ),
            (
                "random",
                match &self.random {
                    None => Json::Null,
                    Some(r) => Json::obj(vec![
                        ("cell_density", Json::Num(r.cell_density)),
                        ("channel_density", Json::Num(r.channel_density)),
                        ("seed", Json::Num(r.seed as f64)),
                    ]),
                },
            ),
        ])
    }

    /// Decodes a mask document. `dead_cells`, `dead_channels`,
    /// `overlays` and `random` are all optional; only the dimensions are
    /// mandatory.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Json`] on shape errors (content — bounds, adjacency,
    /// densities — is validated by [`build`](Self::build)).
    pub fn from_json(value: &Json) -> Result<Self, LeqaError> {
        let what = "fabric mask";
        let dim = |key| -> Result<u32, LeqaError> {
            u64_field(value, key, what)?
                .try_into()
                .map_err(|_| LeqaError::new(ErrorKind::Json, format!("mask `{key}` too large")))
        };
        let pair = |v: &Json, what: &str| -> Result<(u32, u32), LeqaError> {
            let bad = || LeqaError::new(ErrorKind::Json, format!("{what} must be an [x, y] pair"));
            let arr = v.as_arr().ok_or_else(bad)?;
            if arr.len() != 2 {
                return Err(bad());
            }
            let coord = |j: &Json| u32::try_from(j.as_u64().ok_or_else(bad)?).map_err(|_| bad());
            Ok((coord(&arr[0])?, coord(&arr[1])?))
        };
        let dead_cells = match value.get("dead_cells") {
            None | Some(Json::Null) => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| LeqaError::new(ErrorKind::Json, "`dead_cells` must be an array"))?
                .iter()
                .map(|c| pair(c, "dead cell"))
                .collect::<Result<_, _>>()?,
        };
        let dead_channels = match value.get("dead_channels") {
            None | Some(Json::Null) => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| LeqaError::new(ErrorKind::Json, "`dead_channels` must be an array"))?
                .iter()
                .map(|c| -> Result<ChannelEnds, LeqaError> {
                    Ok((
                        pair(field(c, "from", "dead channel")?, "channel `from`")?,
                        pair(field(c, "to", "dead channel")?, "channel `to`")?,
                    ))
                })
                .collect::<Result<_, _>>()?,
        };
        let overlays = match value.get("overlays") {
            None | Some(Json::Null) => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| LeqaError::new(ErrorKind::Json, "`overlays` must be an array"))?
                .iter()
                .map(OverlaySpec::from_json)
                .collect::<Result<_, _>>()?,
        };
        let random = match value.get("random") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let what = "random defects";
                let density = |key| -> Result<f64, LeqaError> {
                    field(v, key, what)?.as_f64().ok_or_else(|| {
                        LeqaError::new(ErrorKind::Json, format!("random `{key}` must be a number"))
                    })
                };
                Some(RandomDefects {
                    cell_density: density("cell_density")?,
                    channel_density: density("channel_density")?,
                    seed: u64_field(v, "seed", what)?,
                })
            }
        };
        Ok(FabricMapSpec {
            width: dim("width")?,
            height: dim("height")?,
            dead_cells,
            dead_channels,
            overlays,
            random,
        })
    }

    /// Realizes the spec as an engine-side [`FabricMap`]: random layer
    /// first, then explicit dead cells/channels, then overlays in order.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Invalid`] for zero dimensions, out-of-range
    /// densities, a random seed above 2^53, off-fabric coordinates,
    /// non-adjacent channel endpoints, or overlay values outside the
    /// physical-parameter rules.
    pub fn build(&self) -> Result<FabricMap, LeqaError> {
        let dims = FabricDims::new(self.width, self.height).map_err(LeqaError::from)?;
        let mut map = match &self.random {
            Some(r) => {
                check_wire_seed(r.seed, "random")?;
                FabricMap::with_random_defects(dims, r.cell_density, r.channel_density, r.seed)
                    .map_err(LeqaError::from)?
            }
            None => FabricMap::pristine(dims),
        };
        for &(x, y) in &self.dead_cells {
            map.disable_cell(Ulb::new(x, y))
                .map_err(LeqaError::from)
                .map_err(|e| e.context(format!("mask dead cell ({x}, {y})")))?;
        }
        for &((ax, ay), (bx, by)) in &self.dead_channels {
            let channel = Channel::between(Ulb::new(ax, ay), Ulb::new(bx, by))
                .map_err(LeqaError::from)
                .map_err(|e| e.context(format!("mask dead channel ({ax}, {ay})–({bx}, {by})")))?;
            map.disable_channel(channel)
                .map_err(LeqaError::from)
                .map_err(|e| e.context(format!("mask dead channel ({ax}, {ay})–({bx}, {by})")))?;
        }
        for (i, o) in self.overlays.iter().enumerate() {
            map.push_overlay(RegionOverlay {
                x0: o.x0,
                y0: o.y0,
                x1: o.x1,
                y1: o.y1,
                t_move_us: o.t_move_us,
                qubit_speed: o.qubit_speed,
                channel_capacity: o.channel_capacity,
            })
            .map_err(LeqaError::from)
            .map_err(|e| e.context(format!("mask overlay {i}")))?;
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> FabricMapSpec {
        FabricMapSpec {
            width: 6,
            height: 4,
            dead_cells: vec![(1, 1), (4, 2)],
            dead_channels: vec![((0, 0), (1, 0)), ((2, 1), (2, 2))],
            overlays: vec![OverlaySpec {
                x0: 0,
                y0: 0,
                x1: 2,
                y1: 3,
                t_move_us: Some(250.0),
                qubit_speed: None,
                channel_capacity: Some(2),
            }],
            random: None,
        }
    }

    #[test]
    fn mask_round_trips_through_json() {
        let spec = sample();
        let back = FabricMapSpec::from_json(&parse(&spec.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back, spec);

        let with_random = FabricMapSpec {
            random: Some(RandomDefects {
                cell_density: 0.1,
                channel_density: 0.05,
                seed: 42,
            }),
            ..sample()
        };
        let back =
            FabricMapSpec::from_json(&parse(&with_random.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back, with_random);
    }

    #[test]
    fn minimal_mask_needs_only_dimensions() {
        let doc = parse(r#"{"width":5,"height":3}"#).unwrap();
        let spec = FabricMapSpec::from_json(&doc).unwrap();
        assert_eq!(spec, FabricMapSpec::new(5, 3));
        let map = spec.build().unwrap();
        assert!(map.is_pristine());
    }

    #[test]
    fn build_applies_every_layer() {
        let map = sample().build().unwrap();
        assert_eq!(map.dead_cells(), 2);
        assert_eq!(map.dead_channels(), 2);
        assert!(!map.cell_enabled(Ulb::new(1, 1)));
        assert!(!map.cell_enabled(Ulb::new(4, 2)));
        let ch = Channel::between(Ulb::new(0, 0), Ulb::new(1, 0)).unwrap();
        assert!(!map.channel_enabled(ch));
        assert_eq!(map.overlays().len(), 1);
        assert_eq!(map.overlays()[0].t_move_us, Some(250.0));
    }

    #[test]
    fn random_layer_composes_with_explicit_lists() {
        let spec = FabricMapSpec {
            dead_cells: vec![(0, 0)],
            random: Some(RandomDefects {
                cell_density: 0.0,
                channel_density: 0.0,
                seed: 9,
            }),
            ..FabricMapSpec::new(4, 4)
        };
        let map = spec.build().unwrap();
        assert_eq!(map.dead_cells(), 1);
        assert!(!map.cell_enabled(Ulb::new(0, 0)));
    }

    #[test]
    fn bad_masks_are_invalid_errors() {
        // Off-fabric dead cell.
        let off = FabricMapSpec {
            dead_cells: vec![(9, 9)],
            ..FabricMapSpec::new(4, 4)
        };
        let err = off.build().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(err.to_string().contains("(9, 9)"), "{err}");

        // Non-adjacent channel endpoints.
        let diag = FabricMapSpec {
            dead_channels: vec![((0, 0), (1, 1))],
            ..FabricMapSpec::new(4, 4)
        };
        assert_eq!(diag.build().unwrap_err().kind(), ErrorKind::Invalid);

        // Density out of range.
        let dense = FabricMapSpec {
            random: Some(RandomDefects {
                cell_density: 1.5,
                channel_density: 0.0,
                seed: 0,
            }),
            ..FabricMapSpec::new(4, 4)
        };
        assert_eq!(dense.build().unwrap_err().kind(), ErrorKind::Invalid);
    }

    #[test]
    fn random_seeds_are_capped_at_the_exact_json_range() {
        let with_seed = |seed| FabricMapSpec {
            random: Some(RandomDefects {
                cell_density: 0.1,
                channel_density: 0.1,
                seed,
            }),
            ..FabricMapSpec::new(4, 4)
        };
        // 2^53 is the largest seed the wire carries exactly.
        let top = with_seed(1 << 53);
        let wire = top.to_json().encode();
        let back = FabricMapSpec::from_json(&parse(&wire).unwrap()).unwrap();
        assert_eq!(back, top);
        assert_eq!(back.to_json().encode(), wire);
        top.build().unwrap();
        // One above would decode as 2^53, a different fabric.
        let err = with_seed((1 << 53) + 1).build().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid);
        assert!(err.to_string().contains("`seed`"), "{err}");
    }

    #[test]
    fn shape_errors_are_json_errors() {
        for doc in [
            r#"{"height":3}"#,
            r#"{"width":5,"height":3,"dead_cells":[[1]]}"#,
            r#"{"width":5,"height":3,"dead_cells":"nope"}"#,
            r#"{"width":5,"height":3,"dead_channels":[{"from":[0,0]}]}"#,
            r#"{"width":5,"height":3,"random":{"cell_density":0.1}}"#,
        ] {
            let err = FabricMapSpec::from_json(&parse(doc).unwrap()).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Json, "{doc}");
        }
    }
}
