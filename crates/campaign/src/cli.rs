//! Shared experiment CLI: `--trials N --seed S --threads T`.
//!
//! Every `exp_*` binary parses the same flags through [`CampaignCli`]. The
//! historic bare positional trial count (`exp_t1_pcp_reuse 500`) is still
//! accepted. Thread resolution order: `--threads` flag, then the
//! `EXPLFRAME_THREADS` environment variable, then the machine's available
//! parallelism.

use std::process::exit;

use crate::runner::Campaign;

/// Environment variable consulted when `--threads` is absent.
pub const THREADS_ENV: &str = "EXPLFRAME_THREADS";

/// Parsed experiment arguments. `None` means "use the binary's default".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignCli {
    /// `--trials N` (or the legacy bare positional count).
    pub trials: Option<u32>,
    /// `--seed S`.
    pub seed: Option<u64>,
    /// `--threads T`.
    pub threads: Option<usize>,
}

impl CampaignCli {
    /// Parses `std::env::args`, printing usage and exiting on `--help`
    /// (status 0) or a malformed argument (status 2). The process-exiting
    /// behavior lives only here; [`Self::from_args`] is the pure core.
    #[must_use]
    pub fn parse() -> Self {
        match Self::from_args(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(CliError::Help) => {
                println!("{USAGE}");
                exit(0)
            }
            Err(CliError::Bad(message)) => {
                eprintln!("error: {message}\n\n{USAGE}");
                exit(2)
            }
        }
    }

    /// Parses an explicit argument list (the testable core of
    /// [`Self::parse`]).
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] when `--help` is requested; [`CliError::Bad`] on
    /// any malformed or unrecognized argument.
    pub fn from_args<I>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut cli = CampaignCli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            // Legacy positional trial count (the whole argument must be a
            // number — `300=5` is rejected, not silently split).
            if !arg.starts_with('-') {
                if cli.trials.is_none() {
                    if let Ok(n) = arg.parse() {
                        cli.trials = Some(n);
                        continue;
                    }
                }
                return Err(CliError::bad(format!("unrecognized argument '{arg}'")));
            }
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            match flag {
                "--help" | "-h" => return Err(CliError::Help),
                "--trials" => {
                    let v = value(inline, &mut args, "--trials")?;
                    cli.trials = Some(parse_num(&v, "--trials")?);
                }
                "--seed" => {
                    let v = value(inline, &mut args, "--seed")?;
                    cli.seed = Some(parse_num(&v, "--seed")?);
                }
                "--threads" => {
                    let v = value(inline, &mut args, "--threads")?;
                    let t: usize = parse_num(&v, "--threads")?;
                    if t == 0 {
                        return Err(CliError::bad("--threads must be at least 1"));
                    }
                    cli.threads = Some(t);
                }
                _ => return Err(CliError::bad(format!("unrecognized argument '{arg}'"))),
            }
        }
        Ok(cli)
    }

    /// Trial count, with the binary's default.
    #[must_use]
    pub fn trials_or(&self, default: u32) -> u32 {
        self.trials.unwrap_or(default)
    }

    /// Campaign seed, with the binary's default.
    #[must_use]
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Builds the [`Campaign`] these arguments describe.
    #[must_use]
    pub fn campaign(&self, default_trials: u32, default_seed: u64) -> Campaign {
        Campaign {
            trials: self.trials_or(default_trials),
            seed: self.seed_or(default_seed),
            threads: self.threads.unwrap_or_else(default_threads),
        }
    }
}

/// Why [`CampaignCli::from_args`] did not return arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h` was requested.
    Help,
    /// A malformed or unrecognized argument, with a diagnostic.
    Bad(String),
}

impl CliError {
    fn bad(message: impl Into<String>) -> Self {
        CliError::Bad(message.into())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => f.write_str("help requested"),
            CliError::Bad(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

const USAGE: &str = "\
Usage: <exp binary> [TRIALS] [--trials N] [--seed S] [--threads T]

  TRIALS        legacy positional trial count (same as --trials)
  --trials N    trials per scenario cell
  --seed S      campaign seed (per-trial seeds derive via SplitMix64)
  --threads T   worker threads (default: $EXPLFRAME_THREADS, then all cores)

Output is byte-identical for every thread count. results/ is written under
$EXPLFRAME_OUT when set, else at the workspace root.";

fn value<I: Iterator<Item = String>>(
    inline: Option<String>,
    args: &mut I,
    flag: &str,
) -> Result<String, CliError> {
    inline
        .or_else(|| args.next())
        .ok_or_else(|| CliError::bad(format!("{flag} requires a value")))
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| CliError::bad(format!("{flag}: cannot parse '{text}'")))
}

/// Worker threads to use when `--threads` is absent: `EXPLFRAME_THREADS` if
/// set and positive, otherwise the machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n >= 1 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CampaignCli {
        CampaignCli::from_args(args.iter().map(ToString::to_string)).expect("no --help")
    }

    #[test]
    fn flags_and_inline_forms_parse() {
        let cli = parse(&["--trials", "50", "--seed=9", "--threads", "4"]);
        assert_eq!(
            cli,
            CampaignCli {
                trials: Some(50),
                seed: Some(9),
                threads: Some(4),
            }
        );
    }

    #[test]
    fn legacy_positional_trials_still_accepted() {
        let cli = parse(&["300"]);
        assert_eq!(cli.trials, Some(300));
        let mixed = parse(&["300", "--threads=2"]);
        assert_eq!((mixed.trials, mixed.threads), (Some(300), Some(2)));
    }

    #[test]
    fn defaults_fill_in() {
        let cli = parse(&[]);
        assert_eq!(cli, CampaignCli::default());
        let campaign = cli.campaign(200, 1000);
        assert_eq!((campaign.trials, campaign.seed), (200, 1000));
        assert!(campaign.threads >= 1);
    }

    #[test]
    fn help_is_reported_not_exited() {
        let err = CampaignCli::from_args(["--help".to_string()]).unwrap_err();
        assert_eq!(err, CliError::Help);
    }

    #[test]
    fn malformed_arguments_are_errors_not_exits() {
        for bad in [
            vec!["--seed", "x"],
            vec!["--trials"],
            vec!["--threads", "0"],
            vec!["--pr"],
            vec!["--pr="],
            vec!["--pr", "7"],
            vec!["--bogus"],
            vec!["300=5"],
            vec!["200", "100"],
        ] {
            let err = CampaignCli::from_args(bad.iter().map(ToString::to_string))
                .expect_err(&bad.join(" "));
            assert!(matches!(err, CliError::Bad(_)), "{bad:?} → {err:?}");
        }
    }
}
