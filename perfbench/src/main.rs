//! The iotlan benchmark: three workloads, end-to-end metrics from untraced
//! runs and a per-layer split from a separate traced run. See
//! `BENCHMARK.json` for the contract and `perfbench/METRICS.md` for what
//! each metric means.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload idle_stream --seed 42 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! stamp the run and report its traffic mix. Exit code 0 means every
//! output check passed.

mod checks;
mod heap;
mod metrics;
mod trace;
mod workloads;

use checks::Checks;
use iotlan_core::util::pool;
use std::process::ExitCode;

#[global_allocator]
static HEAP: heap::PeakHeap = heap::PeakHeap;

/// The seed at which outputs are also compared against recorded digests.
pub const DEFAULT_SEED: u64 = 42;

/// What one invocation runs.
pub struct Settings {
    pub seed: u64,
    /// Length of the measuring loop.
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --describe",
        metrics::WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut settings = Settings {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => settings.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                settings.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                settings.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !settings.seconds.is_finite() || settings.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, settings))
}

/// The commit checked out in the working directory, read from `.git` so
/// that nothing outside the checkout is consulted; `none` elsewhere.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(&format!(".git/{name}"))
            .map(|id| id.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?.lines().find_map(|line| {
                    line.strip_suffix(name)?
                        .strip_suffix(' ')
                        .map(str::to_string)
                })
            }),
    };
    match commit {
        Some(id) if !id.is_empty() => id.chars().take(12).collect(),
        _ => "none".to_string(),
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--describe") {
        print!("{}", metrics::describe());
        return ExitCode::SUCCESS;
    }
    if let Err(err) = metrics::check_benchmark_json(include_str!("../../BENCHMARK.json")) {
        eprintln!("perfbench: {err}");
        return ExitCode::from(2);
    }
    let (workload, settings) = match parse_args() {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("perfbench: {err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The pool is pinned to the host's cores, at most two, so runs on bigger
    // hosts measure the same program as on a two-core one.
    let threads = nproc.min(2);
    let mut checks = Checks::new(&workload, settings.seed);
    let outcome = pool::with_threads(threads, || match workload.as_str() {
        "idle_stream" => workloads::idle_stream::run(&settings, &mut checks),
        "control_unicast" => workloads::control_unicast::run(&settings, &mut checks),
        _ => workloads::reproduce::run(&settings, &mut checks),
    });
    println!(
        "{{\"type\": \"stamp\", \"workload\": \"{workload}\", \"git_rev\": \"{}\", \"nproc\": {nproc}, \"pool_threads\": {threads}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"repeats\": {}, \"golden_checked\": {}}}",
        git_revision(),
        settings.seed,
        settings.seconds,
        u8::from(settings.trace),
        outcome.attempted,
        settings.seed == DEFAULT_SEED,
    );
    println!(
        "{{\"type\": \"mix\", \"workload\": \"{workload}\", \"frames\": {}, \"mcast_frame_share\": {:?}, \"mcast_delivery_share\": {:?}}}",
        outcome.mix.frames, outcome.mix.frame_share, outcome.mix.delivery_share
    );
    for failure in checks.failures() {
        eprintln!("perfbench: check failed: {failure}");
    }
    let ok_frac = outcome.ok_frac();
    let mut values = outcome.values;
    let catalogue = if settings.trace {
        metrics::PER_LAYER
    } else {
        values.insert("checks_ok_frac", ok_frac);
        values.insert("peak_heap_mb", heap::peak_mb());
        metrics::END_TO_END
    };
    let correct = outcome.failed == 0 && checks.failures().is_empty();
    println!(
        "{}",
        metrics::result_line(
            catalogue,
            &values,
            correct,
            outcome.attempted,
            outcome.failed
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
