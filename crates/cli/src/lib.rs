//! Library backing the `leqa` command-line tool.
//!
//! The binary is a thin wrapper around [`run`]; every subcommand is a
//! thin adapter over the [`leqa_api`] session façade (build a request,
//! execute, render), so the CLI, JSON output and any future server share
//! one code path. Output is written to a caller-supplied
//! [`std::io::Write`], never directly to stdout. The synopsis of every
//! subcommand and flag is [`USAGE`], which `leqa help` prints.
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
                [--cache-dir DIR] [--chaos SPEC]
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
lines; the full wire reference is SERVER.md. `--cache-dir DIR` keeps
profile snapshots on disk so a restarted daemon comes up warm;
`--chaos SPEC` injects seeded wire faults for drills (grammar in
SERVER.md). A TCP connection can upgrade to the `frame1` binary
protocol (length-prefixed tagged frames, pipelined out-of-order
completion) with `{\"cmd\":\"upgrade\",\"proto\":\"frame1\"}`.
`leqa-client ADDR [LINE...]` is a minimal TCP client for smoke tests
(`--pipeline DEPTH` drives the frame protocol).

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

    /// One sample command line per flag the parser accepts.
    const FLAG_SAMPLES: [(&str, &[&str]); 24] = [
        ("--fabric", &["estimate", "c.qc", "--fabric", "40x30"]),
        ("--terms", &["estimate", "c.qc", "--terms", "10"]),
        ("--rounding", &["estimate", "c.qc", "--rounding", "floor"]),
        (
            "--streaming-threshold",
            &["estimate", "c.qc", "--streaming-threshold", "9"],
        ),
        ("--placement", &["map", "c.qc", "--placement", "rowmajor"]),
        ("--router", &["map", "c.qc", "--router", "adaptive"]),
        ("--movement", &["map", "c.qc", "--movement", "drift"]),
        ("--trace", &["map", "c.qc", "--trace", "3"]),
        ("--bench", &["compare", "--bench", "ham15"]),
        ("--filter", &["suite", "--filter", "gf2"]),
        ("--sizes", &["sweep", "c.qc", "--sizes", "20,40"]),
        ("--graph", &["dot", "c.qc", "--graph", "iig"]),
        ("--format", &["zones", "c.qc", "--format", "json"]),
        ("--spec", &["experiment", "--spec", "s.json"]),
        (
            "--dry-run",
            &["experiment", "--spec", "s.json", "--dry-run"],
        ),
        ("--stdio", &["serve", "--stdio"]),
        ("--listen", &["serve", "--listen", "127.0.0.1:0"]),
        (
            "--max-connections",
            &["serve", "--stdio", "--max-connections", "8"],
        ),
        (
            "--max-inflight",
            &["serve", "--stdio", "--max-inflight", "4"],
        ),
        ("--cache-dir", &["serve", "--stdio", "--cache-dir", "store"]),
        (
            "--chaos",
            &["serve", "--stdio", "--chaos", "seed=7,drop=0.05"],
        ),
        ("--mask", &["fabric", "--mask", "m.json"]),
        ("--density", &["fabric", "--density", "0.1"]),
        ("--seed", &["fabric", "--density", "0.1", "--seed", "9"]),
    ];

    #[test]
    fn usage_names_every_flag_the_parser_accepts() {
        for (flag, line) in FLAG_SAMPLES {
            let argv: Vec<String> = line.iter().map(|s| s.to_string()).collect();
            if let Err(e) = args::parse(&argv) {
                panic!("`leqa {}` does not parse: {e}", line.join(" "));
            }
            assert!(USAGE.contains(flag), "USAGE never names `{flag}`");
        }
        // The table covers the parser: every flag arm of `args::parse`
        // (other than `--help`, which is a command) has a sample line.
        let arms = include_str!("args.rs")
            .lines()
            .filter_map(|line| line.trim().strip_prefix('"')?.split_once("\" =>"))
            .map(|(flag, _)| flag)
            .filter(|flag| flag.starts_with("--") && *flag != "--help");
        for flag in arms {
            assert!(
                FLAG_SAMPLES.iter().any(|&(f, _)| f == flag),
                "no sample line for `{flag}`"
            );
        }
    }

    #[test]
    fn no_command_errors() {
        let mut out = Vec::new();
        assert!(run(&[], &mut out).is_err());
    }
}
