//! The repository benchmark. See `README.md` for every metric's
//! definition and for how to read the output.
//!
//! ```text
//! spn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! spn-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>]    every workload, one child each
//! spn-benchmark --aa [--seconds <s>]                            two sets, compared
//! ```

mod aa;
mod hist;
mod json;
mod layers;
mod measure;
mod names;
mod payload;
mod reference;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub aa: bool,
    /// Add the un-normalised values to the result line (`--aa` asks
    /// its children for them).
    pub with_raw: bool,
    /// Exit when standard input closes (`--aa` holds the other end,
    /// so that no child outlives it).
    pub die_with_parent: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: report::RUN_SECONDS,
            trace: false,
            quick: false,
            aa: false,
            with_raw: false,
            die_with_parent: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value ({what})"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    args.workload = Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload '{name}'"))?,
                    );
                }
                "--seed" => args.seed = parse(value("a whole number")?, flag)?,
                "--seconds" => args.seconds = parse(value("seconds")?, flag)?,
                "--trace" => {
                    args.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    }
                }
                "--quick" => args.quick = true,
                "--aa" => args.aa = true,
                "--with-raw" => args.with_raw = true,
                "--die-with-parent" => args.die_with_parent = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
            return Err(format!("--seconds {} is outside 1..=60", args.seconds));
        }
        if args.aa && args.quick {
            return Err("--aa refuses --quick: quick numbers are not measurements".into());
        }
        Ok(args)
    }
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read '{text}'"))
}

/// The benchmark's own directory, fixed at build time: traces go to
/// `out/` inside it and `BENCHMARK.json` sits beside it.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The contract with the driver, parsed: `--aa` takes its bounds from
/// it and the tests hold the metric tables against it.
pub fn benchmark_json() -> serde_json::Value {
    let path = benchmark_dir().join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spn-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.die_with_parent {
        aa::exit_when_stdin_closes();
    }
    if args.aa {
        return aa::run(&args);
    }
    match args.workload {
        Some(w) => report::run_workload(w, &args),
        None => aa::run_every_workload(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = Args::parse(&argv(
            "--workload bulk_large --seed 42 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::BulkLarge));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 20.0, true));
        assert!(!a.quick && !a.aa);
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--trace 2")).is_err());
        assert!(Args::parse(&argv("--seconds 0")).is_err());
        assert!(Args::parse(&argv("--seconds 61")).is_err());
        assert!(Args::parse(&argv("--seed")).is_err());
        assert!(Args::parse(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn aa_refuses_quick_numbers() {
        let err = Args::parse(&argv("--aa --quick")).unwrap_err();
        assert!(err.contains("refuses"), "{err}");
        assert!(Args::parse(&argv("--aa")).unwrap().aa);
    }
}
