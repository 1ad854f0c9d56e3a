//! Golden-file tests: `--format json` output is byte-stable.
//!
//! The JSON envelopes are part of the service contract — object key
//! order is fixed, floats use shortest-round-trip formatting — so the
//! exact bytes for a fixed request must never drift silently. If an
//! intentional schema change lands, regenerate with e.g.
//!
//! ```text
//! cargo run -p leqa-cli --release -- estimate --bench 8bitadder --format json \
//!     > crates/cli/tests/golden/estimate_8bitadder.json
//! ```
//!
//! and bump `SCHEMA_VERSION` if the shape (not just values) changed.

fn run(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    leqa_cli::run(&argv, &mut out).expect("command succeeds");
    String::from_utf8(out).expect("utf8 output")
}

fn assert_golden(actual: &str, golden: &str, name: &str) {
    if actual != golden {
        let mismatch = actual
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| actual.len().min(golden.len()));
        panic!(
            "{name}: output drifted from the golden file at byte {mismatch}\n\
             actual:  …{}…\n\
             golden:  …{}…",
            &actual[mismatch.saturating_sub(40)..(mismatch + 40).min(actual.len())],
            &golden[mismatch.saturating_sub(40)..(mismatch + 40).min(golden.len())],
        );
    }
}

#[test]
fn estimate_json_is_byte_stable() {
    assert_golden(
        &run(&["estimate", "--bench", "8bitadder", "--format", "json"]),
        include_str!("golden/estimate_8bitadder.json"),
        "estimate",
    );
}

#[test]
fn sweep_json_is_byte_stable() {
    assert_golden(
        &run(&[
            "sweep",
            "--bench",
            "8bitadder",
            "--sizes",
            "10,20,60",
            "--format",
            "json",
        ]),
        include_str!("golden/sweep_8bitadder.json"),
        "sweep",
    );
}

#[test]
fn zones_json_is_byte_stable() {
    assert_golden(
        &run(&[
            "zones",
            "--bench",
            "8bitadder",
            "--trace",
            "5",
            "--format",
            "json",
        ]),
        include_str!("golden/zones_8bitadder.json"),
        "zones",
    );
}

#[test]
fn map_json_is_byte_stable() {
    assert_golden(
        &run(&[
            "map",
            "--bench",
            "8bitadder",
            "--trace",
            "3",
            "--format",
            "json",
        ]),
        include_str!("golden/map_8bitadder.json"),
        "map",
    );
}

#[test]
fn map_adaptive_drift_json_is_byte_stable() {
    assert_golden(
        &run(&[
            "map",
            "--bench",
            "random_24_256_7",
            "--fabric",
            "12x12",
            "--router",
            "adaptive",
            "--movement",
            "drift",
            "--format",
            "json",
        ]),
        include_str!("golden/map_random_24_256_7_adaptive_drift.json"),
        "map adaptive drift",
    );
}

#[test]
fn compare_json_is_byte_stable() {
    assert_golden(
        &run(&["compare", "--bench", "8bitadder", "--format", "json"]),
        include_str!("golden/compare_8bitadder.json"),
        "compare",
    );
}

#[test]
fn golden_files_decode_under_the_current_schema() {
    // The stored bytes must themselves be valid, current-version envelopes
    // (guards against committing a stale golden after a schema bump).
    let est = leqa_api::json::parse(include_str!("golden/estimate_8bitadder.json").trim_end())
        .expect("golden estimate parses");
    leqa_api::EstimateResponse::from_json(&est).expect("golden estimate decodes");

    let sweep = leqa_api::json::parse(include_str!("golden/sweep_8bitadder.json").trim_end())
        .expect("golden sweep parses");
    leqa_api::SweepResponse::from_json(&sweep).expect("golden sweep decodes");

    let zones = leqa_api::json::parse(include_str!("golden/zones_8bitadder.json").trim_end())
        .expect("golden zones parses");
    leqa_api::ZonesResponse::from_json(&zones).expect("golden zones decodes");

    for map in [
        include_str!("golden/map_8bitadder.json"),
        include_str!("golden/map_random_24_256_7_adaptive_drift.json"),
    ] {
        let map = leqa_api::json::parse(map.trim_end()).expect("golden map parses");
        leqa_api::MapResponse::from_json(&map).expect("golden map decodes");
    }

    let compare = leqa_api::json::parse(include_str!("golden/compare_8bitadder.json").trim_end())
        .expect("golden compare parses");
    leqa_api::CompareResponse::from_json(&compare).expect("golden compare decodes");
}

/// A path under the workspace's `examples/` directory (tests run from
/// the crate directory).
fn example(name: &str) -> String {
    format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn experiment_estimate_rows_and_summary_are_byte_stable() {
    let spec = example("experiment_small.json");
    let out = run(&["experiment", "--spec", &spec, "--format", "json"]);
    assert_golden(
        &out,
        include_str!("golden/experiment_small.ndjson"),
        "experiment estimate",
    );
    // Every row decodes as an estimate-mode cell and the last line as the
    // summary.
    let lines: Vec<&str> = out.lines().collect();
    let (summary, rows) = lines.split_last().expect("rows and a summary");
    for row in rows {
        let doc = leqa_api::json::parse(row).expect("row parses");
        leqa_api::CellRow::from_json(&doc, leqa_api::ExperimentMode::Estimate)
            .expect("row decodes");
    }
    let doc = leqa_api::json::parse(summary).expect("summary parses");
    leqa_api::ExperimentSummary::from_json(&doc).expect("summary decodes");
}

#[test]
fn experiment_montecarlo_rows_and_summary_are_byte_stable() {
    let spec = example("experiment_montecarlo.json");
    let out = run(&["experiment", "--spec", &spec, "--format", "json"]);
    assert_golden(
        &out,
        include_str!("golden/experiment_montecarlo.ndjson"),
        "experiment montecarlo",
    );
    let summary = out.lines().last().expect("a summary line");
    let doc = leqa_api::json::parse(summary).expect("summary parses");
    let summary = leqa_api::ExperimentSummary::from_json(&doc).expect("summary decodes");
    assert!(
        summary.montecarlo.is_some(),
        "the conditional key is present"
    );
}

#[test]
fn experiment_dry_run_plan_is_byte_stable() {
    let spec = example("experiment_small.json");
    assert_golden(
        &run(&[
            "experiment",
            "--spec",
            &spec,
            "--dry-run",
            "--format",
            "json",
        ]),
        include_str!("golden/experiment_small_plan.json"),
        "experiment plan",
    );
}

#[test]
fn suite_batch_envelope_is_byte_stable() {
    let out = run(&["suite", "--filter", "8bitadder", "--format", "json"]);
    assert_golden(
        &out,
        include_str!("golden/suite_8bitadder.json"),
        "suite batch",
    );
    let doc = leqa_api::json::parse(out.trim_end()).expect("batch parses");
    leqa_api::BatchResponse::from_json(&doc).expect("batch decodes");
}
