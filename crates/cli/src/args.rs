//! Hand-rolled argument parsing (no external dependencies).
//!
//! Errors are [`LeqaError`]s from the unified taxonomy in `leqa-api`:
//! argument problems carry [`ErrorKind::Usage`](leqa_api::ErrorKind::Usage)
//! and exit with code 2 (see `API.md` for the full table).

use leqa::ZoneRounding;
use leqa_api::LeqaError;
use leqa_fabric::FabricDims;
use qspr::{MovementModel, PlacementStrategy, RouterStrategy};

/// The CLI error type: the workspace-wide taxonomy from `leqa-api`.
pub type CliError = LeqaError;

/// Output encoding selected with `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable tables (the default).
    #[default]
    Text,
    /// One machine-readable JSON document (schema in `API.md`).
    Json,
}

/// Shared options resolved from flags.
#[derive(Debug, Clone)]
pub struct Options {
    /// Circuit file path (None for `--bench`-driven commands).
    pub input: Option<String>,
    /// Named suite benchmark (`--bench`).
    pub bench: Option<String>,
    /// Fabric dimensions (`--fabric AxB`, default 60x60).
    pub fabric: FabricDims,
    /// `E[S_q]` terms (`--terms`, default 20).
    pub terms: usize,
    /// Zone rounding (`--rounding`).
    pub rounding: ZoneRounding,
    /// Mapper placement (`--placement`).
    pub placement: PlacementStrategy,
    /// Mapper routing discipline (`--router`).
    pub router: RouterStrategy,
    /// Mapper movement model (`--movement`).
    pub movement: MovementModel,
    /// Trace rows to print (`--trace N`, 0 = off).
    pub trace: usize,
    /// Suite name filter (`--filter`).
    pub filter: Option<String>,
    /// Fabric sides for `sweep` (`--sizes`).
    pub sizes: Vec<u32>,
    /// Output encoding (`--format json|text`).
    pub format: OutputFormat,
    /// Experiment spec file (`--spec FILE`).
    pub spec: Option<String>,
    /// Expand the experiment grid without running it (`--dry-run`).
    pub dry_run: bool,
    /// Serve the NDJSON protocol over stdin/stdout (`--stdio`).
    pub stdio: bool,
    /// Serve the NDJSON protocol over TCP (`--listen ADDR`, e.g.
    /// `127.0.0.1:0` to let the OS pick a port).
    pub listen: Option<String>,
    /// Connection cap for `serve` (`--max-connections N`, 0 = unlimited).
    pub max_connections: u64,
    /// In-flight work-frame cap for `serve` (`--max-inflight N`,
    /// 0 = unlimited).
    pub max_inflight: u64,
    /// Profile snapshot store directory for `serve`
    /// (`--cache-dir DIR`): restarts come up warm (see SERVER.md).
    pub cache_dir: Option<String>,
    /// Deterministic fault-injection plan for `serve`
    /// (`--chaos SPEC`, e.g. `seed=7,drop=0.05`; grammar in
    /// SERVER.md). Testing aid — faults are injected on the wire.
    pub chaos: Option<String>,
    /// Fabric mask file for `fabric` (`--mask FILE`, JSON; see
    /// `WORKLOADS.md`).
    pub mask: Option<String>,
    /// Random defect density for `fabric` (`--density D`, in [0, 1],
    /// applied to cells and channels alike).
    pub density: Option<f64>,
    /// Seed for random defect draws (`--seed N`).
    pub seed: u64,
    /// Op-count threshold above which generator-backed workloads are
    /// estimated through the memory-bounded streaming pipeline
    /// (`--streaming-threshold N`; default 1,000,000 ops — see PERF.md).
    pub streaming_threshold: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            input: None,
            bench: None,
            fabric: FabricDims::dac13(),
            terms: 20,
            rounding: ZoneRounding::Ceil,
            placement: PlacementStrategy::IigCluster,
            router: RouterStrategy::Xy,
            movement: MovementModel::HomeBased,
            trace: 0,
            filter: None,
            sizes: Vec::new(),
            format: OutputFormat::Text,
            spec: None,
            dry_run: false,
            stdio: false,
            listen: None,
            max_connections: 0,
            max_inflight: 0,
            cache_dir: None,
            chaos: None,
            mask: None,
            density: None,
            seed: 0,
            streaming_threshold: None,
        }
    }
}

/// A parsed command.
#[derive(Debug)]
pub enum Command {
    /// Print usage.
    Help,
    /// `leqa estimate`.
    Estimate(Options),
    /// `leqa map`.
    Map(Options),
    /// `leqa compare`.
    Compare(Options),
    /// `leqa suite`.
    Suite(Options),
    /// `leqa sweep`.
    Sweep(Options),
    /// `leqa gen`.
    Gen(Options),
    /// `leqa dot`.
    Dot(Options, crate::commands::dot::DotGraph),
    /// `leqa zones`.
    Zones(Options),
    /// `leqa experiment`.
    Experiment(Options),
    /// `leqa serve`.
    Serve(Options),
    /// `leqa fabric`.
    Fabric(Options),
}

/// Parses the argument vector (program name excluded).
///
/// # Errors
///
/// Returns a usage-kind [`LeqaError`] for unknown commands/flags, missing
/// values or malformed values.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let mut it = argv.iter();
    let command = it
        .next()
        .ok_or_else(|| LeqaError::usage("missing command; try `leqa help`"))?;

    if command == "help" || command == "--help" || command == "-h" {
        return Ok(Command::Help);
    }

    let mut opts = Options::default();
    let mut graph = crate::commands::dot::DotGraph::Qodg;
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        match arg {
            "--fabric" => {
                opts.fabric = parse_fabric(value(&rest, &mut i, "--fabric")?)?;
            }
            "--terms" => {
                opts.terms = value(&rest, &mut i, "--terms")?
                    .parse()
                    .map_err(|_| LeqaError::usage("--terms needs a positive integer"))?;
            }
            "--rounding" => {
                opts.rounding = match value(&rest, &mut i, "--rounding")?.as_str() {
                    "ceil" => ZoneRounding::Ceil,
                    "floor" => ZoneRounding::Floor,
                    "round" => ZoneRounding::Round,
                    other => {
                        return Err(LeqaError::usage(format!(
                            "unknown rounding `{other}` (ceil|floor|round)"
                        )))
                    }
                };
            }
            "--placement" => {
                opts.placement = match value(&rest, &mut i, "--placement")?.as_str() {
                    "cluster" => PlacementStrategy::IigCluster,
                    "rowmajor" => PlacementStrategy::RowMajor,
                    "random" => PlacementStrategy::Random,
                    other => {
                        return Err(LeqaError::usage(format!(
                            "unknown placement `{other}` (cluster|rowmajor|random)"
                        )))
                    }
                };
            }
            "--router" => {
                opts.router = match value(&rest, &mut i, "--router")?.as_str() {
                    "xy" => RouterStrategy::Xy,
                    "yx" => RouterStrategy::Yx,
                    "adaptive" => RouterStrategy::Adaptive,
                    other => {
                        return Err(LeqaError::usage(format!(
                            "unknown router `{other}` (xy|yx|adaptive)"
                        )))
                    }
                };
            }
            "--movement" => {
                opts.movement = match value(&rest, &mut i, "--movement")?.as_str() {
                    "home" => MovementModel::HomeBased,
                    "drift" => MovementModel::Drift,
                    other => {
                        return Err(LeqaError::usage(format!(
                            "unknown movement model `{other}` (home|drift)"
                        )))
                    }
                };
            }
            "--trace" => {
                opts.trace = value(&rest, &mut i, "--trace")?
                    .parse()
                    .map_err(|_| LeqaError::usage("--trace needs a non-negative integer"))?;
            }
            "--bench" => {
                opts.bench = Some(value(&rest, &mut i, "--bench")?.clone());
            }
            "--filter" => {
                opts.filter = Some(value(&rest, &mut i, "--filter")?.clone());
            }
            "--graph" => {
                graph = match value(&rest, &mut i, "--graph")?.as_str() {
                    "qodg" => crate::commands::dot::DotGraph::Qodg,
                    "iig" => crate::commands::dot::DotGraph::Iig,
                    other => {
                        return Err(LeqaError::usage(format!(
                            "unknown graph `{other}` (qodg|iig)"
                        )))
                    }
                };
            }
            "--format" => {
                opts.format = match value(&rest, &mut i, "--format")?.as_str() {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    other => {
                        return Err(LeqaError::usage(format!(
                            "unknown format `{other}` (text|json)"
                        )))
                    }
                };
            }
            "--spec" => {
                opts.spec = Some(value(&rest, &mut i, "--spec")?.clone());
            }
            "--dry-run" => {
                opts.dry_run = true;
            }
            "--stdio" => {
                opts.stdio = true;
            }
            "--listen" => {
                opts.listen = Some(value(&rest, &mut i, "--listen")?.clone());
            }
            "--max-connections" => {
                opts.max_connections =
                    value(&rest, &mut i, "--max-connections")?
                        .parse()
                        .map_err(|_| {
                            LeqaError::usage("--max-connections needs a non-negative integer")
                        })?;
            }
            "--max-inflight" => {
                opts.max_inflight = value(&rest, &mut i, "--max-inflight")?
                    .parse()
                    .map_err(|_| LeqaError::usage("--max-inflight needs a non-negative integer"))?;
            }
            "--cache-dir" => {
                opts.cache_dir = Some(value(&rest, &mut i, "--cache-dir")?.clone());
            }
            "--chaos" => {
                let spec = value(&rest, &mut i, "--chaos")?;
                // Validate eagerly so a typo fails at startup, not when
                // the first fault would fire.
                leqa_api::FaultPlan::parse(spec)?;
                opts.chaos = Some(spec.clone());
            }
            "--mask" => {
                opts.mask = Some(value(&rest, &mut i, "--mask")?.clone());
            }
            "--density" => {
                let raw = value(&rest, &mut i, "--density")?;
                let d: f64 = raw
                    .parse()
                    .map_err(|_| LeqaError::usage(format!("bad density `{raw}`")))?;
                if !d.is_finite() || !(0.0..=1.0).contains(&d) {
                    return Err(LeqaError::usage("--density must be in [0, 1]"));
                }
                opts.density = Some(d);
            }
            "--seed" => {
                opts.seed = value(&rest, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| LeqaError::usage("--seed needs a non-negative integer"))?;
            }
            "--streaming-threshold" => {
                opts.streaming_threshold = Some(
                    value(&rest, &mut i, "--streaming-threshold")?
                        .parse()
                        .map_err(|_| {
                            LeqaError::usage("--streaming-threshold needs a non-negative integer")
                        })?,
                );
            }
            "--sizes" => {
                let list = value(&rest, &mut i, "--sizes")?;
                opts.sizes = list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u32>()
                            .map_err(|_| LeqaError::usage(format!("bad size `{s}` in --sizes")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            flag if flag.starts_with("--") => {
                return Err(LeqaError::usage(format!("unknown flag `{flag}`")));
            }
            path => {
                if opts.input.is_some() {
                    return Err(LeqaError::usage(format!("unexpected argument `{path}`")));
                }
                opts.input = Some(path.to_string());
            }
        }
        i += 1;
    }

    let need_input = |opts: &Options, what: &str| -> Result<(), CliError> {
        if opts.input.is_none() && opts.bench.is_none() {
            Err(LeqaError::usage(format!(
                "`leqa {what}` needs a circuit file or --bench NAME"
            )))
        } else {
            Ok(())
        }
    };

    match command.as_str() {
        "estimate" => {
            need_input(&opts, "estimate")?;
            Ok(Command::Estimate(opts))
        }
        "map" => {
            need_input(&opts, "map")?;
            Ok(Command::Map(opts))
        }
        "compare" => {
            need_input(&opts, "compare")?;
            Ok(Command::Compare(opts))
        }
        "suite" => Ok(Command::Suite(opts)),
        "sweep" => {
            need_input(&opts, "sweep")?;
            if opts.sizes.is_empty() {
                return Err(LeqaError::usage("`leqa sweep` needs --sizes S1,S2,..."));
            }
            Ok(Command::Sweep(opts))
        }
        "gen" => {
            if opts.bench.is_none() {
                return Err(LeqaError::usage("`leqa gen` needs --bench NAME"));
            }
            Ok(Command::Gen(opts))
        }
        "dot" => {
            need_input(&opts, "dot")?;
            Ok(Command::Dot(opts, graph))
        }
        "zones" => {
            need_input(&opts, "zones")?;
            Ok(Command::Zones(opts))
        }
        "experiment" => {
            if opts.spec.is_none() {
                return Err(LeqaError::usage(
                    "`leqa experiment` needs --spec FILE (a JSON scenario; see API.md)",
                ));
            }
            Ok(Command::Experiment(opts))
        }
        "serve" => {
            if opts.stdio == opts.listen.is_some() {
                return Err(LeqaError::usage(
                    "`leqa serve` needs exactly one transport: --stdio or --listen ADDR",
                ));
            }
            Ok(Command::Serve(opts))
        }
        "fabric" => {
            if opts.mask.is_some() && opts.density.is_some() {
                return Err(LeqaError::usage(
                    "`leqa fabric` takes --mask FILE or --density D, not both",
                ));
            }
            Ok(Command::Fabric(opts))
        }
        other => Err(LeqaError::usage(format!(
            "unknown command `{other}`; try `leqa help`"
        ))),
    }
}

fn value<'a>(rest: &[&'a String], i: &mut usize, flag: &str) -> Result<&'a String, CliError> {
    *i += 1;
    rest.get(*i)
        .copied()
        .ok_or_else(|| LeqaError::usage(format!("{flag} needs a value")))
}

fn parse_fabric(spec: &str) -> Result<FabricDims, CliError> {
    let (a, b) = spec
        .split_once(['x', 'X'])
        .ok_or_else(|| LeqaError::usage(format!("bad fabric `{spec}`; use AxB")))?;
    let a: u32 = a
        .parse()
        .map_err(|_| LeqaError::usage(format!("bad fabric width `{a}`")))?;
    let b: u32 = b
        .parse()
        .map_err(|_| LeqaError::usage(format!("bad fabric height `{b}`")))?;
    FabricDims::new(a, b).map_err(|e| LeqaError::usage(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_estimate_with_flags() {
        let cmd = parse(&argv(&[
            "estimate",
            "c.qc",
            "--fabric",
            "40x30",
            "--terms",
            "10",
            "--rounding",
            "floor",
        ]))
        .unwrap();
        let Command::Estimate(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(opts.input.as_deref(), Some("c.qc"));
        assert_eq!((opts.fabric.width(), opts.fabric.height()), (40, 30));
        assert_eq!(opts.terms, 10);
        assert_eq!(opts.rounding, ZoneRounding::Floor);
        assert_eq!(opts.format, OutputFormat::Text);
    }

    #[test]
    fn parses_map_placement_and_trace() {
        let cmd = parse(&argv(&[
            "map",
            "c.qc",
            "--placement",
            "random",
            "--trace",
            "5",
        ]))
        .unwrap();
        let Command::Map(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(opts.placement, PlacementStrategy::Random);
        assert_eq!(opts.trace, 5);
    }

    #[test]
    fn compare_accepts_bench_instead_of_file() {
        let cmd = parse(&argv(&["compare", "--bench", "ham15"])).unwrap();
        let Command::Compare(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(opts.bench.as_deref(), Some("ham15"));
    }

    #[test]
    fn every_command_accepts_format_json() {
        for args in [
            vec!["estimate", "c.qc", "--format", "json"],
            vec!["map", "c.qc", "--format", "json"],
            vec!["compare", "c.qc", "--format", "json"],
            vec!["suite", "--format", "json"],
            vec!["sweep", "c.qc", "--sizes", "10", "--format", "json"],
            vec!["gen", "--bench", "ham15", "--format", "json"],
            vec!["dot", "c.qc", "--format", "json"],
            vec!["zones", "c.qc", "--format", "json"],
            vec!["experiment", "--spec", "s.json", "--format", "json"],
            vec!["serve", "--listen", "127.0.0.1:0", "--format", "json"],
            vec!["fabric", "--density", "0.1", "--format", "json"],
        ] {
            let cmd = parse(&argv(&args)).unwrap();
            let opts = match &cmd {
                Command::Estimate(o)
                | Command::Map(o)
                | Command::Compare(o)
                | Command::Suite(o)
                | Command::Sweep(o)
                | Command::Gen(o)
                | Command::Dot(o, _)
                | Command::Zones(o)
                | Command::Experiment(o)
                | Command::Serve(o)
                | Command::Fabric(o) => o,
                Command::Help => panic!("wrong command"),
            };
            assert_eq!(opts.format, OutputFormat::Json, "{args:?}");
        }
    }

    #[test]
    fn experiment_requires_spec_and_accepts_dry_run() {
        let err = parse(&argv(&["experiment"])).unwrap_err();
        assert_eq!(err.kind(), leqa_api::ErrorKind::Usage);
        assert!(err.to_string().contains("--spec"));

        let cmd = parse(&argv(&["experiment", "--spec", "grid.json", "--dry-run"])).unwrap();
        let Command::Experiment(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(opts.spec.as_deref(), Some("grid.json"));
        assert!(opts.dry_run);
    }

    #[test]
    fn serve_requires_exactly_one_transport() {
        let err = parse(&argv(&["serve"])).unwrap_err();
        assert_eq!(err.kind(), leqa_api::ErrorKind::Usage);
        assert!(err.to_string().contains("--stdio or --listen"));
        assert!(parse(&argv(&["serve", "--stdio", "--listen", "127.0.0.1:0"])).is_err());

        let cmd = parse(&argv(&["serve", "--stdio"])).unwrap();
        let Command::Serve(opts) = cmd else {
            panic!("wrong command");
        };
        assert!(opts.stdio);

        let cmd = parse(&argv(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--max-connections",
            "8",
            "--max-inflight",
            "4",
        ]))
        .unwrap();
        let Command::Serve(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(opts.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.max_connections, 8);
        assert_eq!(opts.max_inflight, 4);

        assert!(parse(&argv(&["serve", "--stdio", "--max-inflight", "lots"])).is_err());
    }

    #[test]
    fn removed_shard_and_read_poll_flags_are_unknown() {
        for (flag, value) in [
            ("--replicas", "2"),
            ("--attach", "127.0.0.1:7001"),
            ("--read-poll-ms", "25"),
        ] {
            let err = parse(&argv(&["serve", "--listen", "127.0.0.1:0", flag, value])).unwrap_err();
            assert_eq!(err.kind(), leqa_api::ErrorKind::Usage);
            assert!(
                err.to_string().contains(&format!("unknown flag `{flag}`")),
                "{err}"
            );
        }
        let err = parse(&argv(&["shard", "--listen", "127.0.0.1:0"])).unwrap_err();
        assert!(err.to_string().contains("unknown command `shard`"), "{err}");
    }

    #[test]
    fn serve_parses_robustness_flags_and_rejects_bad_chaos() {
        let cmd = parse(&argv(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--cache-dir",
            "/tmp/leqa-cache",
            "--chaos",
            "seed=7,drop=0.05",
        ]))
        .unwrap();
        let Command::Serve(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/leqa-cache"));
        assert_eq!(opts.chaos.as_deref(), Some("seed=7,drop=0.05"));

        for spec in ["drop=2.0", "kill=200"] {
            let err = parse(&argv(&["serve", "--stdio", "--chaos", spec])).unwrap_err();
            assert_eq!(err.kind(), leqa_api::ErrorKind::Usage, "{spec}");
        }
    }

    #[test]
    fn fabric_parses_defect_flags_and_rejects_conflicts() {
        let cmd = parse(&argv(&[
            "fabric",
            "--fabric",
            "12x10",
            "--density",
            "0.25",
            "--seed",
            "9",
        ]))
        .unwrap();
        let Command::Fabric(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!((opts.fabric.width(), opts.fabric.height()), (12, 10));
        assert_eq!(opts.density, Some(0.25));
        assert_eq!(opts.seed, 9);

        let cmd = parse(&argv(&["fabric", "--mask", "m.json"])).unwrap();
        let Command::Fabric(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(opts.mask.as_deref(), Some("m.json"));

        let err = parse(&argv(&["fabric", "--mask", "m.json", "--density", "0.1"])).unwrap_err();
        assert!(err.to_string().contains("not both"), "{err}");
        assert!(parse(&argv(&["fabric", "--density", "1.5"])).is_err());
        assert!(parse(&argv(&["fabric", "--density", "nan"])).is_err());
        assert!(parse(&argv(&["fabric", "--seed", "-3"])).is_err());
    }

    #[test]
    fn streaming_threshold_parses_and_validates() {
        let cmd = parse(&argv(&[
            "estimate",
            "--bench",
            "shor_1024",
            "--streaming-threshold",
            "500000",
        ]))
        .unwrap();
        let Command::Estimate(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(opts.streaming_threshold, Some(500_000));

        let cmd = parse(&argv(&["estimate", "--bench", "shor_64"])).unwrap();
        let Command::Estimate(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(opts.streaming_threshold, None, "default is the session's");

        assert!(parse(&argv(&[
            "estimate",
            "--bench",
            "shor_64",
            "--streaming-threshold",
            "many"
        ]))
        .is_err());
    }

    #[test]
    fn bad_format_is_a_usage_error() {
        let err = parse(&argv(&["estimate", "c.qc", "--format", "xml"])).unwrap_err();
        assert_eq!(err.kind(), leqa_api::ErrorKind::Usage);
        assert!(err.to_string().contains("unknown format"));
    }

    #[test]
    fn sweep_requires_sizes() {
        assert!(parse(&argv(&["sweep", "c.qc"])).is_err());
        let cmd = parse(&argv(&["sweep", "c.qc", "--sizes", "20, 30,40"])).unwrap();
        let Command::Sweep(opts) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(opts.sizes, vec![20, 30, 40]);
    }

    #[test]
    fn gen_requires_bench() {
        assert!(parse(&argv(&["gen"])).is_err());
        assert!(parse(&argv(&["gen", "--bench", "gf2^16mult"])).is_ok());
    }

    #[test]
    fn rejects_bad_fabric() {
        assert!(parse(&argv(&["estimate", "c.qc", "--fabric", "60"])).is_err());
        assert!(parse(&argv(&["estimate", "c.qc", "--fabric", "0x9"])).is_err());
    }

    #[test]
    fn rejects_unknown_flag_and_extra_positional() {
        assert!(parse(&argv(&["estimate", "c.qc", "--wat"])).is_err());
        assert!(parse(&argv(&["estimate", "a.qc", "b.qc"])).is_err());
        // The mapper's removed engine selectors are unknown flags now.
        for flag in ["--scheduler", "--passes"] {
            let err = parse(&argv(&["map", "c.qc", flag, "mobility"])).unwrap_err();
            assert_eq!(err.kind(), leqa_api::ErrorKind::Usage);
        }
    }

    #[test]
    fn missing_input_is_an_error() {
        assert!(parse(&argv(&["estimate"])).is_err());
        assert!(parse(&argv(&["map"])).is_err());
    }
}
