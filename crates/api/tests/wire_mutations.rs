//! Every key of every request envelope, experiment spec and fabric mask
//! is typed: a value of the wrong JSON type is a `json` error, never a
//! silent default and never a panic.
//!
//! The test encodes envelopes of each kind with every optional section
//! filled in, then, for each key other than `schema_version` and `op`,
//! at every depth, substitutes each JSON type the key does not hold and
//! decodes the result. `null` is neither substituted nor replaced:
//! under the decoding rules (API.md) it reads as an absent key, and a
//! `null` value does not show which type the key takes.

use leqa_api::json::{self, Json};
use leqa_api::{
    AxisFilter, BatchRequest, CompareRequest, ControlFrame, ErrorKind, EstimateRequest,
    ExperimentMode, FabricEntry, FabricMapSpec, Frame, FrameProto, LeqaError, MapRequest,
    MonteCarloSpec, ParamVariant, ProgramSpec, Request, ResultSelect, ScenarioSpec, SweepRequest,
    ZonesRequest,
};
use qspr::{MovementModel, PlacementStrategy, RouterStrategy};

/// Work and control lines, as the daemon's line engine classifies them.
fn frames() -> Vec<Json> {
    let map = MapRequest::new(ProgramSpec::bench("qft_8"))
        .with_fabric(12, 12)
        .with_trace_limit(3)
        .with_placement(PlacementStrategy::RowMajor)
        .with_router(RouterStrategy::Yx)
        .with_movement(MovementModel::Drift);
    let requests = [
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8")).with_fabric(40, 30)),
        Request::Estimate(EstimateRequest::new(ProgramSpec::path("c.qc")).with_fabric(8, 8)),
        Request::Sweep(SweepRequest::new(
            ProgramSpec::source(".qubits 2\n"),
            [10, 20],
        )),
        Request::Zones(ZonesRequest::new(ProgramSpec::bench("ham15")).with_limit(5)),
        Request::Compare(CompareRequest::new(ProgramSpec::bench("qft_8")).with_fabric(8, 8)),
        Request::Map(map.clone()),
    ];
    let mut docs: Vec<Json> = requests.iter().map(Request::to_json).collect();
    docs.push(
        BatchRequest::new([
            Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8"))),
            Request::Map(map),
        ])
        .to_json(),
    );
    docs.push(ControlFrame::Upgrade(FrameProto::Frame1).to_json());
    docs.push(ControlFrame::Stats.to_json());
    docs.push(spec().to_json());
    docs.push(
        ScenarioSpec::new(["qft_8"], [FabricEntry::Side(8)])
            .with_montecarlo(MonteCarloSpec::new([0.0, 0.1], 2, 7))
            .to_json(),
    );
    docs
}

/// An experiment spec with every optional axis and filter set.
fn spec() -> ScenarioSpec {
    let mut filter = AxisFilter::default();
    filter.workloads = Some("qft".into());
    filter.min_side = Some(10);
    filter.max_side = Some(30);
    filter.max_cells = Some(100);
    ScenarioSpec::new(
        ["qft_8", "8bitadder"],
        [
            FabricEntry::Side(10),
            FabricEntry::Range {
                min: 20,
                max: 40,
                step: 10,
            },
        ],
    )
    .with_params([
        ParamVariant::base("default"),
        ParamVariant::base("fast")
            .with_t_move_us(50.0)
            .with_qubit_speed(0.002)
            .with_channel_capacity(8),
    ])
    .with_routers([RouterStrategy::Xy, RouterStrategy::Adaptive])
    .with_movements([MovementModel::Drift])
    .with_mode(ExperimentMode::Compare)
    .with_select(ResultSelect::Latency)
    .with_filter(filter)
}

/// A fabric mask with every layer present, as the codec encodes it.
fn mask() -> Json {
    let doc = json::parse(
        r#"{"width":6,"height":4,"dead_cells":[[1,1]],
            "dead_channels":[{"from":[0,0],"to":[1,0]}],
            "overlays":[{"x0":0,"y0":0,"x1":2,"y1":3,"t_move_us":250,"qubit_speed":0.01,
                         "channel_capacity":2}],
            "random":{"cell_density":0.1,"channel_density":0.05,"seed":42}}"#,
    )
    .unwrap();
    FabricMapSpec::from_json(&doc).unwrap().to_json()
}

/// One value of each non-null JSON type.
fn substitutes() -> [Json; 5] {
    [
        Json::Bool(true),
        Json::Num(7.0),
        Json::str("x"),
        Json::Arr(Vec::new()),
        Json::Obj(Vec::new()),
    ]
}

fn same_type(a: &Json, b: &Json) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// Calls `visit` with every mutated copy of `doc`: the path of the key
/// and the document with that key's value replaced.
fn mutations(doc: &Json, visit: &mut dyn FnMut(&str, Json)) {
    fn walk(
        node: &Json,
        path: &str,
        rebuild: &dyn Fn(Json) -> Json,
        visit: &mut dyn FnMut(&str, Json),
    ) {
        match node {
            Json::Obj(pairs) => {
                for (i, (key, value)) in pairs.iter().enumerate() {
                    let here = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    let replace = |v: Json| {
                        let mut pairs = pairs.clone();
                        pairs[i].1 = v;
                        rebuild(Json::Obj(pairs))
                    };
                    if key != "schema_version" && key != "op" && !value.is_null() {
                        for sub in substitutes() {
                            if !same_type(&sub, value) {
                                visit(&here, replace(sub));
                            }
                        }
                    }
                    walk(value, &here, &replace, visit);
                }
            }
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    let replace = |v: Json| {
                        let mut items = items.clone();
                        items[i] = v;
                        rebuild(Json::Arr(items))
                    };
                    walk(item, &format!("{path}[{i}]"), &replace, visit);
                }
            }
            _ => {}
        }
    }
    walk(doc, "", &|v| v, visit);
}

fn check(
    doc: &Json,
    decode: &dyn Fn(&Json) -> Result<(), LeqaError>,
    accepted: &mut Vec<String>,
) -> usize {
    decode(doc).unwrap_or_else(|e| panic!("the unmutated envelope decodes: {e}\n{}", doc.encode()));
    let mut count = 0;
    mutations(doc, &mut |path, mutated| {
        count += 1;
        match decode(&mutated) {
            Ok(()) => accepted.push(format!("{path}: {}", mutated.encode())),
            Err(e) => assert_eq!(
                e.kind(),
                ErrorKind::Json,
                "{path}: {e}\n{}",
                mutated.encode()
            ),
        }
    });
    count
}

#[test]
fn a_value_of_the_wrong_type_is_a_json_error_for_every_key() {
    let mut accepted = Vec::new();
    let mut mutated = 0;
    for doc in frames() {
        mutated += check(
            &doc,
            &|d| Frame::parse(&d.encode()).map(drop),
            &mut accepted,
        );
    }
    mutated += check(
        &mask(),
        &|d| FabricMapSpec::from_json(d).map(drop),
        &mut accepted,
    );
    println!("{mutated} mutated envelopes");
    assert!(mutated > 300, "the walk reaches every key ({mutated})");
    assert!(
        accepted.is_empty(),
        "{} mutations decoded Ok:\n{}",
        accepted.len(),
        accepted.join("\n")
    );
}
