//! The Plinius benchmark: one workload per run, driven through the program's public
//! API from a single thread, with its outputs checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the run is made twice, untraced and then traced, and the metrics
//! are the per-layer ones plus the tracing overhead. The line before it describes
//! the run: host, pinned knobs, sample counts and every check. See `README.md`.

mod backend;
mod clock;
mod probes;
mod summary;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use summary::{mean, median, percentile};
use trace::Tracer;
use workload::{RunData, Spec, Workload, RING_DEPTH};

/// The seed runs use unless told otherwise.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: perfbench --workload <train|persist-recover|serve-live> \
[--seed N (default 1)] [--seconds N (default 10)] [--trace 0|1 (default 0)]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
            None => (arg, None),
        };
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = inline
            .or_else(|| args.next())
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => {
                seconds = number()?;
                if !(1..=3600).contains(&seconds) {
                    return Err(format!("--seconds must be in 1..=3600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn sum_s(ms: &[f64]) -> f64 {
    ms.iter().sum::<f64>() / 1e3
}

/// End-to-end metrics of an untraced run. `setup_s` is wall time, `cpu_*` units are
/// the process CPU clock (steal time left out) and `sim_*` units the cost model's
/// simulated clock.
fn end_to_end(spec: &Spec, data: &RunData) -> Vec<Metric> {
    let samples = data.iter_cpu_ms.len() as f64 * spec.batch as f64;
    vec![
        metric("setup_s", median(&data.setup_s), "s"),
        metric("peak_rss_mb", data.peak_rss_mb, "MB"),
        metric(
            "train_samples_per_cpu_s",
            samples / sum_s(&data.iter_cpu_ms),
            "samples/cpu_s",
        ),
        metric(
            "iter_cpu_ms_p50",
            percentile(&data.iter_cpu_ms, 0.5),
            "cpu_ms",
        ),
        metric(
            "iter_cpu_ms_p90",
            percentile(&data.iter_cpu_ms, 0.9),
            "cpu_ms",
        ),
        metric("sim_iter_ms", mean(&data.iter_sim_ms), "sim_ms"),
        metric("sim_save_ms", mean(&data.save_sim_ms), "sim_ms"),
        metric(
            "recover_cpu_ms_p50",
            percentile(&data.recover_cpu_ms, 0.5),
            "cpu_ms",
        ),
        metric(
            "recover_cpu_ms_p90",
            percentile(&data.recover_cpu_ms, 0.9),
            "cpu_ms",
        ),
        metric("sim_recover_ms", mean(&data.recover_sim_ms), "sim_ms"),
        metric(
            "serve_req_per_cpu_s",
            data.served_timed as f64 / sum_s(&data.serve_batch_cpu_ms),
            "req/cpu_s",
        ),
        metric(
            "serve_batch_cpu_ms_p50",
            percentile(&data.serve_batch_cpu_ms, 0.5),
            "cpu_ms",
        ),
        metric(
            "serve_batch_cpu_ms_p90",
            percentile(&data.serve_batch_cpu_ms, 0.9),
            "cpu_ms",
        ),
        metric(
            "serve_sim_p50_ms",
            percentile(&data.latency_sim_ms, 0.5),
            "sim_ms",
        ),
        metric(
            "serve_sim_p99_ms",
            percentile(&data.latency_sim_ms, 0.99),
            "sim_ms",
        ),
    ]
}

/// The wall-clock view of the same calls. It is printed for reading but is no
/// metric: on a shared host it moves with the time the hypervisor steals.
fn wall_figures(spec: &Spec, data: &RunData) -> Vec<Metric> {
    let samples = data.iter_ms.len() as f64 * spec.batch as f64;
    vec![
        metric(
            "train_samples_per_s",
            samples / sum_s(&data.iter_ms),
            "samples/s",
        ),
        metric("iter_ms_p50", percentile(&data.iter_ms, 0.5), "ms"),
        metric("iter_ms_p90", percentile(&data.iter_ms, 0.9), "ms"),
        metric("recover_ms_p50", percentile(&data.recover_ms, 0.5), "ms"),
        metric("recover_ms_p90", percentile(&data.recover_ms, 0.9), "ms"),
        metric(
            "serve_rps",
            data.served_timed as f64 / sum_s(&data.serve_batch_ms),
            "req/s",
        ),
        metric(
            "serve_batch_ms_p50",
            percentile(&data.serve_batch_ms, 0.5),
            "ms",
        ),
        metric(
            "serve_batch_ms_p90",
            percentile(&data.serve_batch_ms, 0.9),
            "ms",
        ),
    ]
}

/// Per-layer metrics of a traced run; `untraced` is the same workload run without
/// spans, for the tracing overhead.
fn per_layer(
    tracer: &Tracer,
    data: &RunData,
    untraced: &RunData,
    probes: &probes::ProbeResults,
) -> Vec<Metric> {
    let l = &data.layers;
    let steps = data.iter_ms.len().max(1) as f64;
    let publishes = l.persist.publishes.max(1) as f64;
    let restores = l.persist.restores.max(1) as f64;
    let steps_traced = tracer.self_times_ms("trainer.step");
    let persist_ms = mean(&tracer.durations_ms("mirror.persist"));
    let persist_mib_s = if persist_ms > 0.0 {
        l.model_bytes as f64 / (1 << 20) as f64 / (persist_ms / 1e3)
    } else {
        0.0
    };
    let overhead =
        percentile(&data.iter_cpu_ms, 0.5) / percentile(&untraced.iter_cpu_ms, 0.5) - 1.0;
    vec![
        metric(
            "trainer.step_ms",
            mean(&steps_traced.iter().map(|s| s.0).collect::<Vec<_>>()),
            "ms",
        ),
        metric(
            "trainer.step_self_ms",
            mean(&steps_traced.iter().map(|s| s.1).collect::<Vec<_>>()),
            "ms",
        ),
        metric(
            "pmdata.load_s",
            median(&tracer.durations_ms("pmdata.load")) / 1e3,
            "s",
        ),
        metric(
            "pmdata.decrypt_batch_ms",
            median(&tracer.durations_ms("pmdata.decrypt_batch")),
            "ms",
        ),
        metric(
            "darknet.train_batch_ms",
            median(&tracer.durations_ms("darknet.train_batch")),
            "ms",
        ),
        metric("darknet.gemm_gflops_1t", probes.gemm_gflops_1t, "GFLOP/s"),
        metric("darknet.gemm_gflops_mt", probes.gemm_gflops_mt, "GFLOP/s"),
        metric("parallel.dispatch_us", probes.dispatch_us, "us"),
        metric(
            "parallel.pipeline_roundtrip_us",
            probes.pipeline_roundtrip_us,
            "us",
        ),
        metric("crypto.seal_mib_s", probes.seal_mib_s, "MiB/s"),
        metric("crypto.open_mib_s", probes.open_mib_s, "MiB/s"),
        metric("mirror.persist_ms", persist_ms, "ms"),
        metric("mirror.persist_mib_s", persist_mib_s, "MiB/s"),
        metric(
            "mirror.persist_async_ms",
            mean(&tracer.durations_ms("mirror.persist_async")),
            "ms",
        ),
        metric(
            "mirror.restore_ms",
            median(&tracer.durations_ms("mirror.restore")),
            "ms",
        ),
        metric(
            "romulus.open_ms",
            median(&tracer.durations_ms("romulus.open")),
            "ms",
        ),
        metric("romulus.tx_us", probes.romulus_tx_us, "us"),
        metric("pmem.write_mib_s", probes.pmem_write_mib_s, "MiB/s"),
        metric(
            "pmem.bytes_written_per_persist",
            l.persist.persist.bytes_written as f64 / publishes,
            "bytes",
        ),
        metric(
            "pmem.flushes_per_persist",
            l.persist.persist.flushes as f64 / publishes,
            "count",
        ),
        metric(
            "pmem.fences_per_persist",
            l.persist.persist.fences as f64 / publishes,
            "count",
        ),
        metric(
            "pmem.bytes_read_per_restore",
            l.persist.restore.bytes_read as f64 / restores,
            "bytes",
        ),
        metric(
            "serve.attach_ms",
            median(&tracer.durations_ms("serve.attach")),
            "ms",
        ),
        metric(
            "serve.refresh_ms",
            median(&tracer.durations_ms("serve.refresh_swap")),
            "ms",
        ),
        metric(
            "serve.classify_batch_ms",
            median(&tracer.durations_ms("serve.classify_batch")),
            "ms",
        ),
        metric("serve.swaps", l.swaps as f64, "count"),
        metric(
            "mirror.torn_read_retries",
            l.torn_read_retries as f64,
            "count",
        ),
        metric("sgx.ecalls_per_iter", l.ecalls as f64 / steps, "count"),
        metric(
            "sgx.crypto_bytes_per_iter",
            l.crypto_bytes as f64 / steps,
            "bytes",
        ),
        metric("sgx.epc_page_swaps", l.epc_page_swaps as f64, "count"),
        metric("trace.overhead_pct", overhead * 100.0, "%"),
        metric("trace.spans", tracer.spans().len() as f64, "count"),
    ]
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// `metrics` as one JSON object of `{"value": ..., "unit": ...}` by name.
fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// The description line printed before the result: host, knobs, samples, checks,
/// and the untraced run's wall-clock figures with the share of the machine's CPU
/// time stolen meanwhile (`null` where the kernel does not report it).
fn detail_line(
    args: &Args,
    spec: &Spec,
    scale: &workload::Scale,
    runs: &[&RunData],
    steal_pct: Option<f64>,
) -> String {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let data = runs[runs.len() - 1];
    let checks: Vec<String> = runs
        .iter()
        .flat_map(|r| r.checks.iter())
        .map(|c| {
            format!(
                "{{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                json_string(c.name),
                c.passed,
                json_string(&c.detail)
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
\"host\": {{\"nproc\": {nproc}, \"max_threads\": {}, \"selected_engine\": {}, \"selected_gemm\": {}, \
\"PLINIUS_THREADS\": {}, \"PLINIUS_CRYPTO\": {}, \"PLINIUS_GEMM\": {}, \"steal_pct\": {}}}, \
\"knobs\": {{\"pipeline_mode\": {}, \"ring_depth\": {RING_DEPTH}, \"crypto_engine\": \"auto\", \"gemm_engine\": \"auto\", \
\"model\": {}, \"batch\": {}, \"serve_batch\": {}, \"offered_rps\": {}, \"p99_limit_ms\": {}, \
\"rounds\": {}, \"warmup_rounds\": {}, \"restarts_per_crash\": {}, \"deployments\": {}}}, \
\"samples\": {{\"steps\": {}, \"serve_batches\": {}, \"requests\": {}, \"recoveries\": {}, \"setups\": {}}}, \"rss_excludes_extra_setups\": {}, \
\"wall\": {}, \"checks\": [{}]}}",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plinius_parallel::max_threads(),
        json_string(plinius::selected_engine().name()),
        json_string(plinius::selected_gemm().name()),
        json_string(&env(plinius_parallel::THREADS_ENV)),
        json_string(&env(plinius::CRYPTO_ENV)),
        json_string(&env(plinius::GEMM_ENV)),
        steal_pct.map_or_else(|| "null".to_owned(), json_number),
        json_string(&spec.pipeline.to_string()),
        json_string(&format!("{:?}", spec.model)),
        spec.batch,
        spec.serve_batch,
        spec.offered_rps,
        spec.p99_limit_ms,
        scale.rounds,
        scale.warmup_rounds,
        spec.restarts_per_crash,
        scale.deployments,
        data.iter_ms.len(),
        data.serve_batch_ms.len(),
        data.latency_sim_ms.len(),
        data.recover_ms.len(),
        data.setup_s.len(),
        data.rss_excludes_extra_setups,
        metrics_object(&wall_figures(spec, runs[0])),
        checks.join(", ")
    )
}

/// Where a traced run writes its spans: under the Cargo target directory.
fn trace_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    dir.join("perfbench").join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

/// What one invocation reports on its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = args.workload.spec();
    let scale = spec.scale(args.seconds);
    measure(args, &spec, scale)
}

/// Runs the workload at `scale`: untraced, and with `--trace 1` once more traced.
fn measure(args: &Args, spec: &Spec, scale: workload::Scale) -> Result<Outcome, String> {
    let run_once = |traced: bool| {
        let tracer = Rc::new(Tracer::new(traced, args.seed));
        workload::run(spec, scale, args.seed, &tracer)
            .map(|data| (data, tracer))
            .map_err(|e| format!("{} failed: {e}", args.workload.name()))
    };
    let ticks_before = clock::steal_ticks();
    let (data, _) = run_once(false)?;
    let steal_pct = ticks_before
        .zip(clock::steal_ticks())
        .and_then(|((s0, t0), (s1, t1))| {
            (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
        });
    if !args.trace {
        println!("{}", detail_line(args, spec, &scale, &[&data], steal_pct));
        return Ok(Outcome {
            correct: data.correct(),
            attempted: data.attempted,
            failed: data.failed,
            metrics: end_to_end(spec, &data),
        });
    }
    let (traced, tracer) = run_once(true)?;
    let probes = probes::run(traced.layers.largest_tensor_bytes, args.seed)
        .map_err(|e| format!("layer probes failed: {e}"))?;
    let path = trace_path(args);
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{}",
        detail_line(args, spec, &scale, &[&data, &traced], steal_pct)
    );
    println!("spans written to {}", path.display());
    Ok(Outcome {
        correct: data.correct() && traced.correct(),
        attempted: data.attempted + traced.attempted,
        failed: data.failed + traced.failed,
        metrics: per_layer(&tracer, &traced, &data, &probes),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!(
                "{}",
                result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: a check failed; see the checks above");
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names one section of `BENCHMARK.json` lists.
    fn listed(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let body = &json[json
            .find(&format!("\"{section}\""))
            .expect("section listed")..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_owned())
            .collect()
    }

    /// Runs `workload`, with every check and then the traced mode, at a size that
    /// takes seconds, and compares the metrics printed with `BENCHMARK.json`.
    fn tiny_run(workload: Workload) {
        let spec = workload.spec();
        let scale = workload::Scale {
            warmup_rounds: 1,
            rounds: 1 + 60u64.div_ceil(spec.steps_per_round),
            deployments: 2,
        };
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workload,
                seed: 3,
                seconds: 1,
                trace,
            };
            let outcome = measure(&args, &spec, scale).expect("the run completes");
            assert!(outcome.correct, "{} failed a check", workload.name());
            assert_eq!(outcome.failed, 0);
            let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.to_owned()).collect();
            assert_eq!(names, listed(section), "{}", workload.name());
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
            }
        }
    }

    #[test]
    fn train_at_a_tiny_size() {
        tiny_run(Workload::Train);
    }

    #[test]
    fn persist_recover_at_a_tiny_size() {
        tiny_run(Workload::PersistRecover);
    }

    #[test]
    fn serve_live_at_a_tiny_size() {
        tiny_run(Workload::ServeLive);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let ok = parse(&["--workload", "serve-live", "--seed=7", "--trace", "1"]).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::ServeLive, 7, 10, true)
        );
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "train", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "train", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "train", "--bogus", "1"]).is_err());
    }
}
