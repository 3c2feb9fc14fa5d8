//! Bitrot guard for the figure-reproduction harness: every `src/bin/*` binary must run
//! end-to-end on a tiny (`--smoke`) configuration without panicking and with output on
//! stdout. Cargo builds the binaries alongside this test and exposes their paths via the
//! `CARGO_BIN_EXE_<name>` environment variables.

use plinius::{Knob, KNOBS};
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(exe)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"))
}

/// Runs `exe` successfully and returns its (non-empty) stdout.
fn run_smoke_with(exe: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let output = run(exe, args, env);
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{exe} {args:?} {env:?} exited with {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(!stdout.is_empty(), "{exe} {args:?} produced no output");
    stdout
}

fn run_smoke(exe: &str, args: &[&str]) {
    run_smoke_with(exe, args, &[]);
}

/// Runs `exe` expecting exit status 2 before the run starts, with every string of
/// `explains` in its stderr.
fn rejected(exe: &str, args: &[&str], explains: &[&str]) {
    let output = run(exe, args, &[]);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{args:?}: {:?}",
        output.status
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    for text in explains {
        assert!(
            stderr.contains(text),
            "{args:?}: stderr lacks {text:?}:\n{stderr}"
        );
    }
    assert!(output.stdout.is_empty(), "a rejected run must not start");
}

macro_rules! smoke_test {
    ($($name:ident => $exe:literal),+ $(,)?) => {$(
        #[test]
        fn $name() {
            run_smoke(env!(concat!("CARGO_BIN_EXE_", $exe)), &["--smoke"]);
        }
    )+};
}

smoke_test! {
    fig2_fio_runs => "fig2_fio",
    fig6_sps_runs => "fig6_sps",
    fleet_bench_runs => "fleet_bench",
    fig7_mirroring_runs => "fig7_mirroring",
    fig8_batch_runs => "fig8_batch",
    fig9_crash_runs => "fig9_crash",
    fig10_spot_runs => "fig10_spot",
    inference_accuracy_runs => "inference_accuracy",
    serve_bench_runs => "serve_bench",
    table1_breakdown_runs => "table1_breakdown",
    tcb_report_runs => "tcb_report",
    vfs_bench_runs => "vfs_bench",
}

#[test]
fn unknown_flags_abort_instead_of_launching_a_default_scale_run() {
    // A typo like `--smokee` used to be silently ignored, turning an intended
    // seconds-long smoke run into the binary's default-scale sweep.
    let exe = env!("CARGO_BIN_EXE_fig7_mirroring");
    rejected(exe, &["--smokee"], &["--smokee", "usage:"]);
}

#[test]
fn stray_positionals_abort_binaries_that_take_no_inputs() {
    // `fig7_mirroring smoke` (dashes forgotten) must not silently run the
    // default-scale sweep.
    let exe = env!("CARGO_BIN_EXE_fig7_mirroring");
    rejected(exe, &["smoke"], &["smoke", "usage:"]);
}

/// The smoke cases of each knob flag: a binary whose smoke run uses the knob, a
/// value the flag accepts, and values it rejects. A one-deep ring is as invalid as
/// garbage; engines take no aliases, no case folding and no `reference`.
#[rustfmt::skip]
const FLAG_CASES: [(&str, &str, &str, &[&str]); 5] = [
    ("--threads", env!("CARGO_BIN_EXE_fig6_sps"), "1", &["0", "many"]),
    ("--ring", env!("CARGO_BIN_EXE_fig9_crash"), "3", &["1", "none"]),
    ("--tenants", env!("CARGO_BIN_EXE_fleet_bench"), "2", &["0", "lots", "33"]),
    ("--crypto", env!("CARGO_BIN_EXE_fig7_mirroring"), "scalar", &["hw", "SCALAR", "reference"]),
    ("--gemm", env!("CARGO_BIN_EXE_fig6_sps"), "scalar", &["avx2", "FMA", "reference"]),
];

fn knob(flag: &str) -> &'static Knob {
    KNOBS.iter().find(|k| k.flag == Some(flag)).unwrap()
}

#[derive(Clone, Copy)]
enum Case {
    Accepted,
    MissingValue,
    InvalidValue,
}

/// Runs one kind of case for the knob behind `flag`, in both flag spellings.
fn check(flag: &str, case: Case) {
    let (_, exe, good, bad) = FLAG_CASES.iter().find(|c| c.0 == flag).unwrap();
    match case {
        Case::Accepted => {
            run_smoke(exe, &["--smoke", flag, good]);
            run_smoke(exe, &["--smoke", &format!("{flag}={good}")]);
        }
        Case::MissingValue => rejected(exe, &["--smoke", flag], &[flag, "usage:"]),
        Case::InvalidValue => {
            let explains = ["invalid value", flag, knob(flag).accepts];
            for value in *bad {
                rejected(exe, &["--smoke", flag, value], &explains);
                rejected(exe, &["--smoke", &format!("{flag}={value}")], &explains);
            }
        }
    }
}

#[test]
fn every_knob_flag_has_smoke_cases() {
    let flags: Vec<&str> = KNOBS.iter().filter_map(|k| k.flag).collect();
    let cased: Vec<&str> = FLAG_CASES.iter().map(|c| c.0).collect();
    assert_eq!(flags, cased);
}

macro_rules! flag_tests {
    ($($flag:literal => $accepted:ident, $missing:ident, $invalid:ident;)+) => {$(
        #[test]
        fn $accepted() {
            check($flag, Case::Accepted);
        }

        #[test]
        fn $missing() {
            check($flag, Case::MissingValue);
        }

        #[test]
        fn $invalid() {
            check($flag, Case::InvalidValue);
        }
    )+};
}

flag_tests! {
    "--threads" => threads_flag_is_accepted_by_the_smoke_run,
        threads_flag_without_a_value_aborts, threads_flag_with_an_invalid_value_aborts;
    "--ring" => ring_flag_is_accepted_by_the_smoke_run,
        ring_flag_without_a_value_aborts, ring_flag_with_an_invalid_value_aborts;
    "--tenants" => tenants_flag_is_accepted_by_the_smoke_run,
        tenants_flag_without_a_value_aborts, tenants_flag_with_an_invalid_value_aborts;
    "--crypto" => crypto_flag_is_accepted_by_the_smoke_run,
        crypto_flag_without_a_value_aborts, crypto_flag_with_an_invalid_value_aborts;
    "--gemm" => gemm_flag_is_accepted_by_the_smoke_run,
        gemm_flag_without_a_value_aborts, gemm_flag_with_an_invalid_value_aborts;
}

/// The smoke-run stdout of `exe` with the knob flags `knobs`, once through the flags
/// and once through the knobs' environment variables.
fn routed(exe: &str, knobs: &[(&str, &str)]) -> [String; 2] {
    let mut args = vec!["--smoke"];
    let mut env = Vec::new();
    for &(flag, value) in knobs {
        args.extend([flag, value]);
        env.push((knob(flag).env, value));
    }
    [
        run_smoke_with(exe, &args, &[]),
        run_smoke_with(exe, &["--smoke"], &env),
    ]
}

#[test]
fn gemm_and_threads_knobs_reach_the_fig6_sweep() {
    let exe = env!("CARGO_BIN_EXE_fig6_sps");
    for out in routed(exe, &[("--gemm", "scalar"), ("--threads", "1")]) {
        assert!(out.contains("on the scalar engine"), "{out}");
        assert!(out.contains("auto = 1 threads"), "{out}");
    }
}

#[test]
fn crypto_knob_reaches_the_fig7_aead_sweep() {
    let exe = env!("CARGO_BIN_EXE_fig7_mirroring");
    for out in routed(exe, &[("--crypto", "scalar")]) {
        assert!(
            out.contains("AEAD engine (wall-clock, this host): scalar"),
            "{out}"
        );
    }
}

#[test]
fn tenants_knob_pins_the_fleet_sweep() {
    let exe = env!("CARGO_BIN_EXE_fleet_bench");
    for out in routed(exe, &[("--tenants", "2")]) {
        // Table rows are the lines that start with a tenant count.
        let rows: Vec<&str> = out
            .lines()
            .filter_map(|line| line.split_whitespace().next())
            .filter(|first| first.parse::<usize>().is_ok())
            .collect();
        assert!(!rows.is_empty() && rows.iter().all(|&t| t == "2"), "{out}");
    }
}

#[test]
fn help_flag_prints_usage_and_exits_cleanly() {
    let output = run(env!("CARGO_BIN_EXE_fig9_crash"), &["--help"], &[]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("--smoke") && stdout.contains("--full"));
    for flag in KNOBS.iter().filter_map(|k| k.flag) {
        assert!(stdout.contains(flag), "--help does not list {flag}");
    }
}
