//! Shared command-line handling for the figure-reproduction binaries.
//!
//! Every `src/bin/*` binary accepts the same three scale flags (`--smoke`, `--quick`,
//! `--full`), one flag per runtime knob of [`plinius::KNOBS`] that has one
//! (`--threads`, `--ring`, `--tenants`, `--crypto`, `--gemm`, each as `--flag VALUE`
//! or `--flag=VALUE`), plus optional positional inputs (e.g. a spot-price CSV for
//! `fig10_spot`). A knob flag accepts exactly what its `PLINIUS_*` variable accepts,
//! checked by the same parser, and the binary's entry call ([`init`]) writes it
//! to that variable, so a knob reaches the program the same way from either source.
//! Unknown flags and malformed values are an error: a typo like `--smokee` aborts
//! the run instead of being silently ignored and launching a paper-scale sweep.

use plinius::{Knob, KNOBS};
use std::fmt;

/// Scale of a figure-reproduction run, shared by every `src/bin/*` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Tiny bitrot-guard configuration (`--smoke`, used by the smoke tests).
    Smoke,
    /// Reduced sweep for interactive runs (`--quick`).
    Quick,
    /// The binary's default scale.
    Default,
    /// Paper-scale run (`--full`).
    Full,
}

impl fmt::Display for RunMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunMode::Smoke => "smoke",
            RunMode::Quick => "quick",
            RunMode::Default => "default",
            RunMode::Full => "full",
        };
        f.write_str(s)
    }
}

/// Parsed command line of a bench binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// The selected run scale.
    pub mode: RunMode,
    /// Validated knob flags in command-line order, as `(environment variable,
    /// trimmed value)`.
    pub overrides: Vec<(&'static str, String)>,
    /// Positional (non-flag) arguments, in order.
    pub inputs: Vec<String>,
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument starting with `-` that is not one of the known flags.
    UnknownFlag(String),
    /// A positional argument beyond what the binary takes.
    UnexpectedArgument(String),
    /// A knob flag given no value (e.g. a bare `--threads`).
    MissingValue(String),
    /// A knob flag value its parser rejects (e.g. `--threads 0`).
    InvalidValue {
        /// The flag the value belongs to.
        flag: String,
        /// The rejected value.
        value: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::UnexpectedArgument(arg) => write!(f, "unexpected argument `{arg}`"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` requires a value"),
            CliError::InvalidValue { flag, value } => {
                let expected = knob_of(flag).map_or("a valid value", |k| k.accepts);
                write!(
                    f,
                    "invalid value `{value}` for `{flag}` (expected {expected})"
                )
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The knob whose bench flag is `flag`.
fn knob_of(flag: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.flag == Some(flag))
}

/// The usage string printed on `--help` and after a [`CliError`]; `[FILE]` is shown
/// only for binaries that accept a positional input.
fn usage(accepts_inputs: bool) -> String {
    let (mut synopsis, mut options) = (String::new(), String::new());
    for (knob, flag) in KNOBS.iter().filter_map(|k| k.flag.map(|f| (k, f))) {
        let spec = format!("{flag} V");
        synopsis.push_str(&format!(" [{spec}]"));
        options.push_str(&format!("  {spec:<13}{} ({})\n", knob.about, knob.env));
        let (accepts, default) = (knob.accepts, knob.default);
        options.push_str(&format!("{:15}{accepts}; default {default}\n", ""));
    }
    let files = if accepts_inputs { " [FILE]" } else { "" };
    format!(
        "usage: <binary> [--smoke | --quick | --full]{synopsis}{files}\n\
        \n\
        \x20 --smoke      tiny bitrot-guard configuration (used by the smoke tests)\n\
        \x20 --quick      reduced sweep for interactive runs\n\
        \x20 --full       paper-scale run\n\
        {options}\
        \n\
        With none of the scale flags the binary runs at its default scale. `--smoke`\n\
        wins over `--quick`, which wins over `--full`."
    )
}

/// Parses the arguments of a bench binary (without the program name) that takes at
/// most `max_inputs` positional inputs.
///
/// `--smoke` wins over `--quick`, which wins over `--full`; with none of them the
/// binary runs at its default scale.
///
/// # Errors
///
/// Returns [`CliError::UnknownFlag`] for any unrecognised flag,
/// [`CliError::MissingValue`]/[`CliError::InvalidValue`] for a malformed knob flag
/// and [`CliError::UnexpectedArgument`] for a positional beyond `max_inputs`.
pub fn parse<I>(args: I, max_inputs: usize) -> Result<BenchArgs, CliError>
where
    I: IntoIterator,
    I::Item: Into<String>,
{
    let (mut smoke, mut quick, mut full) = (false, false, false);
    let mut overrides = Vec::new();
    let mut inputs = Vec::new();
    let mut iter = args.into_iter().map(Into::into);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--quick" => quick = true,
            "--full" => full = true,
            s if s.starts_with('-') => {
                let (name, inline) = match s.split_once('=') {
                    Some((name, value)) => (name, Some(value.to_owned())),
                    None => (s, None),
                };
                let knob = knob_of(name).ok_or_else(|| CliError::UnknownFlag(arg.clone()))?;
                let flag = name.to_owned();
                let Some(value) = inline.or_else(|| iter.next()) else {
                    return Err(CliError::MissingValue(flag));
                };
                if !knob.is_valid(&value) {
                    return Err(CliError::InvalidValue { flag, value });
                }
                overrides.push((knob.env, value.trim().to_owned()));
            }
            _ => inputs.push(arg),
        }
    }
    if let Some(stray) = inputs.get(max_inputs) {
        return Err(CliError::UnexpectedArgument(stray.clone()));
    }
    let mode = match (smoke, quick, full) {
        (true, _, _) => RunMode::Smoke,
        (_, true, _) => RunMode::Quick,
        (_, _, true) => RunMode::Full,
        _ => RunMode::Default,
    };
    Ok(BenchArgs {
        mode,
        overrides,
        inputs,
    })
}

/// The entry call of every bench binary, made first in `main`: parses
/// `std::env::args()` for a binary taking at most `max_inputs` positional inputs and
/// writes each knob flag to its environment variable. No other thread exists yet,
/// so nothing reads the environment while it is written. Prints usage and exits on
/// `--help`/`-h` (status 0) and on a rejected command line (status 2).
pub fn init(max_inputs: usize) -> BenchArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let accepts_inputs = max_inputs > 0;
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage(accepts_inputs));
        std::process::exit(0);
    }
    let parsed = parse(args, max_inputs).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", usage(accepts_inputs));
        std::process::exit(2);
    });
    for (var, value) in &parsed.overrides {
        std::env::set_var(var, value);
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use plinius::{CRYPTO_ENV, GEMM_ENV, RING_ENV, TENANTS_ENV};
    use plinius_parallel::THREADS_ENV;

    fn parse_strs(args: &[&str]) -> Result<BenchArgs, CliError> {
        parse(args.iter().copied(), usize::MAX)
    }

    fn overrides(args: &[&str]) -> Vec<(&'static str, String)> {
        parse_strs(args).unwrap().overrides
    }

    /// `flag` takes each of `values` in both spellings, trimmed, for `var`.
    fn accepts(flag: &str, var: &str, values: &[&str]) {
        for value in values {
            let want = vec![(var, value.trim().to_owned())];
            assert_eq!(overrides(&[flag, value]), want, "{flag} {value:?}");
            assert_eq!(overrides(&[&format!("{flag}={value}")]), want);
        }
        assert!(overrides(&["--smoke"]).is_empty());
    }

    /// `flag` without a value, and with each of `bad`, is rejected naming the flag
    /// and what it accepts.
    fn rejects(flag: &str, bad: &[&str]) {
        let missing = parse_strs(&[flag]);
        assert_eq!(missing, Err(CliError::MissingValue(flag.to_owned())));
        assert!(missing.unwrap_err().to_string().contains(flag));
        for value in bad {
            let invalid = Err(CliError::InvalidValue {
                flag: flag.to_owned(),
                value: value.to_string(),
            });
            assert_eq!(parse_strs(&[flag, value]), invalid, "{flag} {value:?}");
            assert_eq!(parse_strs(&[&format!("{flag}={value}")]), invalid);
        }
        let msg = parse_strs(&[flag, bad[0]]).unwrap_err().to_string();
        assert!(msg.contains(flag) && msg.contains(knob_of(flag).unwrap().accepts));
    }

    #[test]
    fn defaults_to_default_mode_with_no_args() {
        let parsed = parse_strs(&[]).unwrap();
        assert_eq!(parsed.mode, RunMode::Default);
        assert!(parsed.inputs.is_empty() && parsed.overrides.is_empty());
    }

    #[test]
    fn parses_each_scale_flag() {
        assert_eq!(parse_strs(&["--smoke"]).unwrap().mode, RunMode::Smoke);
        assert_eq!(parse_strs(&["--quick"]).unwrap().mode, RunMode::Quick);
        assert_eq!(parse_strs(&["--full"]).unwrap().mode, RunMode::Full);
    }

    #[test]
    fn smoke_wins_over_quick_wins_over_full() {
        let mode = |args: &[&str]| parse_strs(args).unwrap().mode;
        assert_eq!(mode(&["--full", "--quick", "--smoke"]), RunMode::Smoke);
        assert_eq!(mode(&["--full", "--quick"]), RunMode::Quick);
    }

    #[test]
    fn positional_inputs_are_collected_in_order() {
        let parsed = parse_strs(&["trace.csv", "--smoke", "more.csv"]).unwrap();
        assert_eq!(parsed.mode, RunMode::Smoke);
        assert_eq!(parsed.inputs, vec!["trace.csv", "more.csv"]);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for flag in ["--smokee", "-x", "--smoke=1", "--threadsx=2", "--pipeline"] {
            let err = parse_strs(&[flag]).unwrap_err();
            assert_eq!(err, CliError::UnknownFlag(flag.to_owned()));
            assert!(err.to_string().contains(flag));
        }
    }

    #[test]
    fn mode_only_parsing_rejects_stray_positionals() {
        assert_eq!(parse(["--smoke"], 0).unwrap().mode, RunMode::Smoke);
        for args in [&["smoke"][..], &["--quick", "trace.csv"]] {
            let stray = args.last().unwrap().to_string();
            assert_eq!(
                parse(args.iter().copied(), 0),
                Err(CliError::UnexpectedArgument(stray))
            );
        }
    }

    #[test]
    fn single_input_parsing_allows_one_positional_at_most() {
        assert!(parse(["--smoke"], 1).unwrap().inputs.is_empty());
        let parsed = parse(["trace.csv", "--full"], 1).unwrap();
        assert_eq!(
            (parsed.mode, &parsed.inputs[..]),
            (RunMode::Full, &["trace.csv".into()][..])
        );
        assert_eq!(
            parse(["trace.csv", "smoke"], 1),
            Err(CliError::UnexpectedArgument("smoke".to_owned()))
        );
    }

    #[test]
    fn threads_flag_parses_space_and_equals_forms() {
        accepts("--threads", THREADS_ENV, &["4", "1", " 2 ", "4096"]);
    }

    #[test]
    fn threads_flag_rejects_missing_and_invalid_values() {
        rejects("--threads", &["0", "many", "", "-1", "--smoke"]);
    }

    #[test]
    fn ring_flag_parses_space_and_equals_forms() {
        accepts("--ring", RING_ENV, &["4", "2"]);
        let parsed = parse_strs(&["--smoke", "--ring", "8", "--threads", "2"]).unwrap();
        assert_eq!(parsed.mode, RunMode::Smoke);
        let want = [(RING_ENV, "8".to_owned()), (THREADS_ENV, "2".to_owned())];
        assert_eq!(parsed.overrides, want);
    }

    #[test]
    fn ring_flag_rejects_missing_and_invalid_values() {
        // A one-deep ring is rejected, not just zero and garbage.
        rejects("--ring", &["1", "0", "two", "-3", ""]);
    }

    #[test]
    fn tenants_flag_parses_space_and_equals_forms() {
        accepts("--tenants", TENANTS_ENV, &["4", "1", "32"]);
    }

    #[test]
    fn tenants_flag_rejects_missing_invalid_and_oversized_values() {
        rejects("--tenants", &["0", "many", "-2", "", "33"]);
    }

    #[test]
    fn crypto_flag_parses_space_and_equals_forms() {
        accepts("--crypto", CRYPTO_ENV, &["scalar", "auto", " scalar"]);
    }

    #[test]
    fn crypto_flag_rejects_missing_and_invalid_values() {
        // An explicit engine must be exact: no aliases, no case folding, and the
        // test-only reference kernels are not an engine.
        rejects("--crypto", &["hw", "", "SCALAR", "aesni", "reference"]);
    }

    #[test]
    fn gemm_flag_parses_space_and_equals_forms() {
        accepts("--gemm", GEMM_ENV, &["scalar", "auto", "fma"]);
    }

    #[test]
    fn gemm_flag_rejects_missing_and_invalid_values() {
        // Engine *names* (avx2, avx512) are not policies: a pasted engine label
        // fails loudly.
        rejects("--gemm", &["avx2", "", "FMA", "avx512", "reference"]);
    }

    #[test]
    fn usage_advertises_inputs_only_where_accepted() {
        assert!(usage(true).contains("[FILE]"));
        assert!(!usage(false).contains("FILE"));
        assert!(usage(false).starts_with("usage:"));
        let knob_flags = KNOBS.iter().filter_map(|k| k.flag);
        for flag in ["--smoke", "--quick", "--full"]
            .into_iter()
            .chain(knob_flags)
        {
            assert!(usage(false).contains(flag), "{flag}");
        }
    }

    #[test]
    fn run_mode_displays_lowercase_names() {
        assert_eq!(RunMode::Smoke.to_string(), "smoke");
        assert_eq!(RunMode::Default.to_string(), "default");
    }
}
