//! `leqa experiment` — run a declarative design-space grid from a JSON
//! scenario spec.
//!
//! `--format json` streams NDJSON: one byte-stable record per cell, then
//! one summary record (min/max/argmin latency per workload, cache
//! stats). `--format text` prints a table. `--dry-run` expands and
//! validates the grid, printing only the cell count — the cheap way to
//! check a spec before an expensive run.

use std::io::Write;

use leqa_api::{render, ExperimentRunner, LeqaError as ApiError, ScenarioSpec};

use super::session;
use crate::{CliError, Options, OutputFormat};

/// Reads and decodes the `--spec` file.
fn load_spec(path: &str) -> Result<ScenarioSpec, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(ApiError::from)
        .map_err(|e| e.context(format!("reading experiment spec `{path}`")))?;
    let doc = leqa_api::json::parse(&text)
        .map_err(ApiError::from)
        .map_err(|e| e.context(format!("parsing experiment spec `{path}`")))?;
    ScenarioSpec::from_json(&doc).map_err(|e| e.context(format!("experiment spec `{path}`")))
}

/// Expands the spec against a session built from the shared flags and
/// either prints the plan (`--dry-run`) or streams the run.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let path = opts.spec.as_deref().expect("parser enforced --spec");
    let spec = load_spec(path)?;
    let session = session(opts)?;
    let runner = ExperimentRunner::new(&session, &spec)?;

    if opts.dry_run {
        match opts.format {
            OutputFormat::Json => {
                writeln!(out, "{}", runner.plan().to_json().encode())?;
            }
            OutputFormat::Text => {
                writeln!(
                    out,
                    "dry run: {}",
                    render::experiment_plan_text(runner.plan())
                )?;
            }
        }
        return Ok(());
    }

    let select = runner.plan().select;
    if opts.format == OutputFormat::Text {
        out.write_all(render::experiment_header_text(runner.plan()).as_bytes())?;
    }
    let summary = runner.run(&mut |row| {
        match opts.format {
            OutputFormat::Json => {
                writeln!(out, "{}", row.to_json(select).encode()).map_err(ApiError::from)?;
            }
            OutputFormat::Text => {
                out.write_all(render::experiment_cell_text(row).as_bytes())
                    .map_err(ApiError::from)?;
            }
        }
        Ok(())
    })?;
    match opts.format {
        OutputFormat::Json => writeln!(out, "{}", summary.to_json().encode())?,
        OutputFormat::Text => {
            out.write_all(render::experiment_summary_text(&summary).as_bytes())?
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_util::capture;
    use crate::OutputFormat;

    fn write_spec(name: &str, body: &str) -> String {
        let dir = std::env::temp_dir().join("leqa-cli-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn spec_opts(path: String) -> Options {
        Options {
            spec: Some(path),
            ..Default::default()
        }
    }

    const SMALL_SPEC: &str = r#"{
        "schema_version": 1,
        "op": "experiment",
        "workloads": ["qft_8", "8bitadder"],
        "fabrics": [{"min": 10, "max": 30, "step": 10}],
        "routers": ["xy", "yx"]
    }"#;

    #[test]
    fn dry_run_prints_the_cell_count() {
        let mut opts = spec_opts(write_spec("dry.json", SMALL_SPEC));
        opts.dry_run = true;
        let text = capture(|out| run(&opts, out));
        assert_eq!(
            text,
            "dry run: 12 cells (2 workloads × 1 params × 2 routers × 1 movements × 3 sides), mode estimate\n"
        );

        opts.format = OutputFormat::Json;
        let text = capture(|out| run(&opts, out));
        assert!(
            text.starts_with("{\"schema_version\":1,\"op\":\"experiment_plan\",\"cells\":12,"),
            "{text}"
        );
    }

    #[test]
    fn json_run_streams_rows_and_a_summary() {
        let mut opts = spec_opts(write_spec("run.json", SMALL_SPEC));
        opts.format = OutputFormat::Json;
        let text = capture(|out| run(&opts, out));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 13); // 12 cells + summary
        for row in &lines[..12] {
            assert!(
                row.starts_with("{\"schema_version\":1,\"op\":\"experiment_cell\","),
                "{row}"
            );
        }
        assert!(
            lines[12].starts_with("{\"schema_version\":1,\"op\":\"experiment_summary\","),
            "{}",
            lines[12]
        );
    }

    #[test]
    fn text_run_prints_table_and_summary() {
        let opts = spec_opts(write_spec("text.json", SMALL_SPEC));
        let text = capture(|out| run(&opts, out));
        assert!(text.contains("experiment: 12 cells"));
        assert!(text.contains("qft_8"));
        assert!(text.contains("8bitadder"));
        assert!(text.contains("summary: 12 cells"));
        assert!(text.contains("cache:"));
    }

    #[test]
    fn missing_spec_file_is_an_io_error() {
        let opts = spec_opts("/nonexistent/spec.json".to_string());
        let mut out = Vec::new();
        let err = run(&opts, &mut out).unwrap_err();
        assert_eq!(err.kind(), leqa_api::ErrorKind::Io);
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn malformed_spec_json_is_a_json_error() {
        let opts = spec_opts(write_spec("bad.json", "{not json"));
        let mut out = Vec::new();
        let err = run(&opts, &mut out).unwrap_err();
        assert_eq!(err.kind(), leqa_api::ErrorKind::Json);
        assert_eq!(err.exit_code(), 8);
    }

    #[test]
    fn unknown_workload_is_a_usage_error() {
        let opts = spec_opts(write_spec(
            "unknown.json",
            r#"{"schema_version":1,"op":"experiment","workloads":["frob"],"fabrics":[10]}"#,
        ));
        let mut out = Vec::new();
        let err = run(&opts, &mut out).unwrap_err();
        assert_eq!(err.kind(), leqa_api::ErrorKind::Usage);
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("frob"));
    }

    #[test]
    fn empty_axis_is_an_invalid_error() {
        let opts = spec_opts(write_spec(
            "empty.json",
            r#"{"schema_version":1,"op":"experiment","workloads":[],"fabrics":[10]}"#,
        ));
        let mut out = Vec::new();
        let err = run(&opts, &mut out).unwrap_err();
        assert_eq!(err.kind(), leqa_api::ErrorKind::Invalid);
        assert_eq!(err.exit_code(), 5);
    }
}
