//! `leqa map` — run the detailed mapper and print schedule statistics.

use std::io::Write;

use leqa_api::{render, MapRequest};

use super::{emit, program_spec, session};
use crate::{CliError, Options};

/// Runs the mapper through the API session and emits latency, movement
/// statistics and (with `--trace N`) the N longest-running operations.
pub fn run(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let session = session(opts)?;
    let response = session.map(
        &MapRequest::new(program_spec(opts))
            .with_placement(opts.placement)
            .with_router(opts.router)
            .with_movement(opts.movement)
            .with_trace_limit(opts.trace as u64),
    )?;
    emit(
        out,
        opts.format,
        || response.to_json(),
        || render::map_text(&response),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_util::{bench_opts, capture};
    use crate::OutputFormat;

    #[test]
    fn maps_a_suite_benchmark() {
        let opts = bench_opts("8bitadder");
        let text = capture(|out| run(&opts, out));
        assert!(text.contains("actual latency"));
        assert!(text.contains("CNOTs routed"));
    }

    #[test]
    fn trace_flag_prints_schedule_rows() {
        let mut opts = bench_opts("8bitadder");
        opts.trace = 3;
        let text = capture(|out| run(&opts, out));
        assert!(text.contains("longest-running operations"));
        assert!(text.contains("dist"));
    }

    #[test]
    fn json_format_carries_stats_and_trace() {
        let mut opts = bench_opts("8bitadder");
        opts.trace = 3;
        opts.format = OutputFormat::Json;
        let text = capture(|out| run(&opts, out));
        let doc = leqa_api::json::parse(text.trim_end()).expect("valid json");
        let response = leqa_api::MapResponse::from_json(&doc).expect("valid envelope");
        assert!(response.latency_us > 0.0);
        assert!(response.cnot_ops > 0);
        assert!(response.trace.unwrap().contains("dist"));
    }
}
