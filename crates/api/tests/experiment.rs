//! The experiment engine's acceptance contract: NDJSON cell rows must be
//! **bit-identical** to an equivalent serial loop of single-cell
//! [`Session::estimate`] calls — the sweep-engine amortisation and the
//! grid bookkeeping change the cost, never the bytes.

use leqa_api::json::Json;
use leqa_api::{
    EstimateRequest, ExperimentMode, FabricEntry, ParamVariant, ProgramSpec, ScenarioSpec, Session,
};

/// The row bytes an equivalent serial loop would produce for one cell:
/// same keys, same order, values straight from an independent
/// `session.estimate` call.
fn serial_row(
    cell: u64,
    workload: &str,
    params: &str,
    router: &str,
    movement: &str,
    side: u32,
    session: &Session,
) -> String {
    let estimate = session
        .estimate(&EstimateRequest::new(ProgramSpec::bench(workload)).with_fabric(side, side))
        .ok();
    let fit = estimate.is_some();
    let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    Json::obj(vec![
        ("schema_version", Json::num(1u32)),
        ("op", Json::str("experiment_cell")),
        ("cell", Json::Num(cell as f64)),
        ("workload", Json::str(workload)),
        ("params", Json::str(params)),
        ("router", Json::str(router)),
        ("movement", Json::str(movement)),
        ("side", Json::num(side)),
        ("fit", Json::Bool(fit)),
        ("latency_us", opt(estimate.as_ref().map(|e| e.latency_us))),
        (
            "l_cnot_avg_us",
            opt(estimate.as_ref().map(|e| e.l_cnot_avg_us)),
        ),
        ("d_uncong_us", opt(estimate.as_ref().map(|e| e.d_uncong_us))),
        (
            "avg_zone_area",
            opt(estimate.as_ref().map(|e| e.avg_zone_area)),
        ),
        (
            "zone_side",
            estimate
                .as_ref()
                .map(|e| Json::num(e.zone_side))
                .unwrap_or(Json::Null),
        ),
        (
            "critical_cnots",
            estimate
                .as_ref()
                .map(|e| Json::Num(e.critical_cnots as f64))
                .unwrap_or(Json::Null),
        ),
    ])
    .encode()
}

/// The acceptance grid: 3 workloads × 10 fabric sides × 2 routers.
fn acceptance_spec() -> ScenarioSpec {
    ScenarioSpec::new(
        ["qft_8", "8bitadder", "random_10_80_7"],
        [FabricEntry::Range {
            min: 10,
            max: 55,
            step: 5,
        }],
    )
    .with_routers([qspr::RouterStrategy::Xy, qspr::RouterStrategy::Yx])
}

#[test]
fn ndjson_is_bit_identical_to_a_serial_estimate_loop() {
    let session = Session::builder().build().unwrap();
    let response = session.batch_experiment(&acceptance_spec()).unwrap();
    assert_eq!(response.rows.len(), 60);

    // The serial reference runs on its own session so cache state cannot
    // leak between the two executions.
    let reference = Session::builder().build().unwrap();
    let sides: Vec<u32> = (10..=55).step_by(5).collect();
    let mut cell = 0u64;
    let mut expected = Vec::new();
    for workload in ["qft_8", "8bitadder", "random_10_80_7"] {
        for router in ["xy", "yx"] {
            for &side in &sides {
                expected.push(serial_row(
                    cell, workload, "default", router, "home", side, &reference,
                ));
                cell += 1;
            }
        }
    }

    for (row, expected) in response.rows.iter().zip(&expected) {
        let actual = row.to_json(response.select).encode();
        assert_eq!(&actual, expected, "cell {}", row.cell);
    }
}

#[test]
fn unfit_cells_match_the_serial_loop_too() {
    // ham15 (146 qubits) does not fit 10x10: both executions must emit
    // the same all-null row bytes.
    let session = Session::builder().build().unwrap();
    let spec = ScenarioSpec::new(["ham15"], [FabricEntry::Side(10), FabricEntry::Side(60)]);
    let response = session.batch_experiment(&spec).unwrap();

    let reference = Session::builder().build().unwrap();
    for (i, &side) in [10u32, 60].iter().enumerate() {
        let expected = serial_row(i as u64, "ham15", "default", "xy", "home", side, &reference);
        assert_eq!(response.rows[i].to_json(response.select).encode(), expected);
    }
    assert!(!response.rows[0].fit);
    assert!(response.rows[1].fit);
}

#[test]
fn param_variants_match_serial_loops_on_matching_sessions() {
    let session = Session::builder().build().unwrap();
    let fast = ParamVariant::base("fast")
        .with_t_move_us(50.0)
        .with_qubit_speed(0.002);
    let spec = ScenarioSpec::new(
        ["qft_8"],
        [FabricEntry::Range {
            min: 10,
            max: 30,
            step: 10,
        }],
    )
    .with_params([ParamVariant::base("default"), fast.clone()]);
    let response = session.batch_experiment(&spec).unwrap();
    assert_eq!(response.rows.len(), 6);

    // Serial reference: one session per variant, built with the variant's
    // parameters — exactly what the runner derives internally.
    let base = Session::builder().build().unwrap();
    let fast_params = fast.apply(base.params()).unwrap();
    let fast_session = Session::builder().params(fast_params).build().unwrap();

    let mut cell = 0u64;
    for (name, reference) in [("default", &base), ("fast", &fast_session)] {
        for side in [10u32, 20, 30] {
            let expected = serial_row(cell, "qft_8", name, "xy", "home", side, reference);
            assert_eq!(
                response.rows[cell as usize]
                    .to_json(response.select)
                    .encode(),
                expected,
                "variant {name}, side {side}"
            );
            cell += 1;
        }
    }

    // The fast variant genuinely changes the numbers.
    let default_latency = response.rows[0].metrics.primary_latency_us().unwrap();
    let fast_latency = response.rows[3].metrics.primary_latency_us().unwrap();
    assert!(fast_latency < default_latency);
}

#[test]
fn summary_argmin_agrees_with_the_rows() {
    let session = Session::builder().build().unwrap();
    let response = session.batch_experiment(&acceptance_spec()).unwrap();
    for agg in &response.summary.workloads {
        let best = response
            .rows
            .iter()
            .filter(|r| r.workload == agg.workload)
            .filter_map(|r| r.metrics.primary_latency_us().map(|l| (r, l)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("every acceptance workload fits somewhere");
        assert_eq!(agg.min_latency_us, Some(best.1));
        assert_eq!(agg.argmin_cell, Some(best.0.cell));
        assert_eq!(agg.argmin_side, Some(best.0.side));
        let worst = response
            .rows
            .iter()
            .filter(|r| r.workload == agg.workload)
            .filter_map(|r| r.metrics.primary_latency_us())
            .max_by(f64::total_cmp)
            .unwrap();
        assert_eq!(agg.max_latency_us, Some(worst));
    }
    assert_eq!(response.summary.cells, 60);
    // 3 distinct programs: exactly 3 misses, every other load a hit.
    assert_eq!(response.summary.cache.cache_misses, 3);
    assert_eq!(response.summary.cache.profile_builds, 3);
}

#[test]
fn compare_mode_rows_match_single_compare_requests() {
    // Compare cells must agree with the compare endpoint when the
    // router/movement variants are the defaults.
    let session = Session::builder().build().unwrap();
    let spec = ScenarioSpec::new(["random_8_40_7"], [FabricEntry::Side(8)])
        .with_mode(ExperimentMode::Compare);
    let response = session.batch_experiment(&spec).unwrap();
    let row = &response.rows[0];
    let direct = session
        .compare(
            &leqa_api::CompareRequest::new(ProgramSpec::bench("random_8_40_7")).with_fabric(8, 8),
        )
        .unwrap();
    let leqa_api::CellMetrics::Compare {
        actual_us,
        estimated_us,
        error_pct,
    } = &row.metrics
    else {
        panic!("compare metrics expected");
    };
    assert_eq!(*actual_us, Some(direct.actual_us));
    assert_eq!(*estimated_us, Some(direct.estimated_us));
    assert_eq!(*error_pct, direct.error_pct);
}
