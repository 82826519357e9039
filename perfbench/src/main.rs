//! Command line: `perfbench --workload <name> [--seed N] [--seconds S]
//! [--trace 0|1] [--out DIR]`.
//!
//! Prints a digest line and, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With `--out`,
//! the same line and (with `--trace 1`) every span are also written under
//! `DIR`; without it nothing is written.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::metrics::result_json;
use perfbench::{run, Options, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <replay-sbox|direct-ttable|hardened-walk> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

fn parse() -> Result<(Options, Option<PathBuf>), String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::ReplaySbox,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        trials: None,
    };
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, out))
}

fn write_out(
    dir: &PathBuf,
    stem: &str,
    result: &str,
    spans: &[perfbench::trace::Span],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{stem}.result.json")),
        format!("{result}\n"),
    )?;
    if !spans.is_empty() {
        let lines: String = spans.iter().map(|s| s.json() + "\n").collect();
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), lines)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let (opts, out) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: {problem}");
    }
    println!(
        "digest {} seed {} trials {}: {:#018x}",
        opts.workload.name(),
        opts.seed,
        outcome.trial_digests.len(),
        outcome.digest
    );
    let result = result_json(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    if let Some(dir) = &out {
        let stem = format!(
            "{}-seed{}-trace{}",
            opts.workload.name(),
            opts.seed,
            u8::from(opts.trace)
        );
        if let Err(e) = write_out(dir, &stem, &result, &outcome.spans) {
            eprintln!("perfbench: writing {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}
