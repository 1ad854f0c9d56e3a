//! Subcommand implementations: thin adapters over [`leqa_api`].
//!
//! Every command follows the same shape — resolve the [`Options`] into an
//! API request, run it through a [`Session`], and emit either the
//! machine-readable JSON envelope (`--format json`) or the text rendering
//! from [`leqa_api::render`]. No command touches the estimator or mapper
//! engines directly; the façade is the single entry point.

pub mod compare;
pub mod dot;
pub mod estimate;
pub mod experiment;
pub mod fabric;
pub mod gen;
pub mod map;
pub mod serve;
pub mod suite;
pub mod sweep;
pub mod zones;

use std::io::Write;

use leqa::EstimatorOptions;
use leqa_api::{json::Json, ProgramSpec, Session};

use crate::{CliError, Options, OutputFormat};

/// The program spec the options name: a file path if given, otherwise the
/// `--bench` workload.
pub(crate) fn program_spec(opts: &Options) -> ProgramSpec {
    match &opts.input {
        Some(path) => ProgramSpec::path(path),
        None => ProgramSpec::bench(opts.bench.as_deref().expect("parser enforced input")),
    }
}

/// Builds the session the options describe (fabric, terms, rounding).
pub(crate) fn session(opts: &Options) -> Result<Session, CliError> {
    let mut builder = Session::builder()
        .fabric(opts.fabric)
        .options(EstimatorOptions {
            max_esq_terms: opts.terms,
            zone_rounding: opts.rounding,
            update_critical_path: true,
        });
    if let Some(dir) = &opts.cache_dir {
        builder = builder.cache_dir(dir);
    }
    if let Some(ops) = opts.streaming_threshold {
        builder = builder.streaming_threshold(ops);
    }
    builder.build()
}

/// Writes either the JSON envelope (with a trailing newline) or the text
/// rendering, per `--format`.
pub(crate) fn emit(
    out: &mut dyn Write,
    format: OutputFormat,
    json: impl FnOnce() -> Json,
    text: impl FnOnce() -> String,
) -> Result<(), CliError> {
    match format {
        OutputFormat::Json => {
            out.write_all(json().encode().as_bytes())?;
            out.write_all(b"\n")?;
        }
        OutputFormat::Text => out.write_all(text().as_bytes())?,
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::Options;

    /// Options pointing at a suite benchmark.
    pub fn bench_opts(name: &str) -> Options {
        Options {
            bench: Some(name.to_string()),
            ..Default::default()
        }
    }

    /// Runs a command into a string.
    pub fn capture(
        f: impl FnOnce(&mut dyn std::io::Write) -> Result<(), crate::CliError>,
    ) -> String {
        let mut out = Vec::new();
        f(&mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }
}
