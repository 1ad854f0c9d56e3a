//! Library backing the `leqa` command-line tool.
//!
//! The binary is a thin wrapper around [`run`]; every subcommand is a
//! thin adapter over the [`leqa_api`] session façade (build a request,
//! execute, render), so the CLI, JSON output and any future server share
//! one code path. Output is written to a caller-supplied
//! [`std::io::Write`], never directly to stdout.
//!
//! ```text
//! leqa estimate <circuit.qc> [--fabric AxB] [--terms N] [--rounding ceil|floor|round]
//! leqa map      <circuit.qc> [--fabric AxB] [--placement cluster|rowmajor|random] [--router xy|yx|adaptive] [--trace N]
//! leqa compare  <circuit.qc> | --bench NAME  [--fabric AxB]
//! leqa suite    [--filter SUBSTR] [--fabric AxB]
//! leqa sweep    <circuit.qc> --sizes 20,40,60 [...]
//! leqa gen      --bench NAME
//! leqa experiment --spec FILE.json [--dry-run]
//! leqa serve      (--stdio | --listen ADDR) [--max-connections N] [--max-inflight N]
//! ```
//!
//! Every subcommand accepts `--format json|text`; JSON output is one
//! versioned envelope per invocation (`experiment` streams NDJSON
//! records instead; schema in `API.md`). Failures exit
//! with the stable per-kind codes of
//! [`LeqaError::exit_code`](leqa_api::LeqaError::exit_code).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use std::io::Write;

pub use args::{CliError, Command, Options, OutputFormat};
pub use leqa_api::{ErrorKind, LeqaError};

/// Usage text printed by `leqa help` and on argument errors.
pub const USAGE: &str = "\
leqa — latency estimation for quantum algorithms (DAC'13 reproduction)

USAGE:
  leqa estimate <circuit.qc> [--fabric AxB] [--terms N] [--rounding ceil|floor|round] [--streaming-threshold N]
  leqa map      <circuit.qc> [--fabric AxB] [--placement cluster|rowmajor|random] [--router xy|yx|adaptive] [--movement home|drift] [--trace N]
  leqa compare  (<circuit.qc> | --bench NAME) [--fabric AxB]
  leqa suite    [--filter SUBSTR] [--fabric AxB]
  leqa sweep    <circuit.qc> --sizes 20,40,60 [--fabric ignored]
  leqa gen      --bench NAME
  leqa dot      (<circuit.qc> | --bench NAME) [--graph qodg|iig]
  leqa zones    (<circuit.qc> | --bench NAME) [--trace N]
  leqa experiment --spec FILE.json [--dry-run]
  leqa serve    (--stdio | --listen ADDR) [--max-connections N] [--max-inflight N]
  leqa shard    --listen ADDR (--replicas N | --attach ADDR1,ADDR2) [serve caps]
  leqa fabric   [--fabric AxB] [--mask FILE.json | --density D [--seed N]]
  leqa help

Every command also accepts `--format json|text` (default text); JSON
output is one versioned envelope per invocation — except `experiment`,
which streams NDJSON (one record per grid cell, then a summary record).
See API.md for the schema and the exit-code table.

`experiment` runs a declarative design-space grid: the spec file
declares workloads × fabric sizes × physical-parameter variants ×
router/movement variants, with per-axis filters and a result selector
(see the Experiments section of API.md and examples/experiment_small.json).
`--dry-run` validates the spec and prints the expanded cell count.
With `\"mode\": \"montecarlo\"` the spec sweeps a defect-density grid
over seeded random fabrics and reports per-density routability with
confidence intervals plus the critical (percolation) density — see
examples/experiment_montecarlo.json.

`fabric` renders a fabric's defect map: an ASCII floor plan (`.` live
cell, `X` dead cell, `-`/`|` live channels with gaps for dead ones)
or a JSON inventory. `--mask FILE` loads an explicit mask (grammar in
WORKLOADS.md); `--density D` draws seeded random defects over
`--fabric`.

`serve` keeps one session resident and speaks newline-delimited JSON
over stdin/stdout (`--stdio`) or TCP (`--listen 127.0.0.1:PORT`; port 0
lets the OS pick — the bound address is announced as `listening on
ADDR`). Caps are optional (0 = unlimited); over-cap work is refused
with an `overloaded` error frame (exit/error code 9). Operators steer
the daemon with `{\"cmd\":\"stats\"}` and `{\"cmd\":\"shutdown\"}`
lines; the full wire reference is SERVER.md. A TCP connection can
upgrade to the `frame1` binary protocol (length-prefixed tagged frames,
pipelined out-of-order completion) with `{\"cmd\":\"upgrade\",
\"proto\":\"frame1\"}`. `leqa-client ADDR [LINE...]` is a minimal TCP
client for smoke tests (`--pipeline DEPTH` drives the frame protocol).

`shard` serves the same wire protocols from one listener backed by N
daemon replicas (spawned in-process with `--replicas N`, and/or
already-running daemons via `--attach`). Work routes by a content hash
of the program for cache affinity; `stats` merges across replicas;
replicas that drop out are failed over automatically.

`estimate --bench shor_N` at cryptographic scale streams: above
`--streaming-threshold` ops (default 1,000,000) the profile and critical
path are computed from the gate stream in bounded memory, bit-identical
to the materialized pipeline (see the streaming section of PERF.md).

Circuits use the line-based text format shared by LEQA and QSPR
(`.qubits N`, then one gate per line: h/t/tdg/s/sdg/x/y/z/cnot/toffoli/
fredkin/mct/mcf). `--bench` accepts the Table 3 names (e.g. gf2^16mult)
and parametric generators (e.g. qft_64). Fabric defaults to the paper's
60x60; physical parameters are Table 1's ion-trap/[[7,1,3]] values.
";

/// Parses `argv` (without the program name) and executes the command,
/// writing output to `out`.
///
/// # Errors
///
/// Returns [`LeqaError`] for bad arguments, unreadable files, parse
/// failures, or programs that do not fit the fabric. The caller maps the
/// error kind to an exit code via [`LeqaError::exit_code`].
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let command = args::parse(argv)?;
    match command {
        Command::Help => {
            out.write_all(USAGE.as_bytes()).map_err(CliError::from)?;
            Ok(())
        }
        Command::Estimate(opts) => commands::estimate::run(&opts, out),
        Command::Map(opts) => commands::map::run(&opts, out),
        Command::Compare(opts) => commands::compare::run(&opts, out),
        Command::Suite(opts) => commands::suite::run(&opts, out),
        Command::Sweep(opts) => commands::sweep::run(&opts, out),
        Command::Gen(opts) => commands::gen::run(&opts, out),
        Command::Dot(opts, graph) => commands::dot::run(&opts, graph, out),
        Command::Zones(opts) => commands::zones::run(&opts, out),
        Command::Experiment(opts) => commands::experiment::run(&opts, out),
        Command::Serve(opts) => commands::serve::run(&opts, out),
        Command::Shard(opts) => commands::shard::run(&opts, out),
        Command::Fabric(opts) => commands::fabric::run(&opts, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        let mut out = Vec::new();
        run(&["help".to_string()], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("estimate"));
        assert!(text.contains("--format json|text"));
    }

    #[test]
    fn unknown_command_errors() {
        let mut out = Vec::new();
        let err = run(&["frobnicate".to_string()], &mut out).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        assert_eq!(err.kind(), ErrorKind::Usage);
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn no_command_errors() {
        let mut out = Vec::new();
        assert!(run(&[], &mut out).is_err());
    }
}
