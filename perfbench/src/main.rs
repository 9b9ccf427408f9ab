//! End-to-end and per-layer benchmark of the tapesim stack.
//!
//! One process runs one workload and prints, as its last stdout line, a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`:
//!
//! ```text
//! perfbench --workload <paper_point|sched_campaign|serve_faulted>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones
//! ([`report::END_TO_END`]); with `--trace 1` a separate, traced run
//! reports the per-layer ones ([`report::PER_LAYER`]), prints a flat
//! per-span table with self times and writes the spans as chrome-trace
//! JSON next to the executable. Every run checks the stack's outputs and
//! exits non-zero when a check fails. The workloads are generated from
//! `--seed`; the stack receives only the generated inputs.

mod catalog;
mod paper;
mod report;
mod sched;
mod serve;
mod trace;

use report::{peak_rss_mib, ResultLine, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <paper_point|sched_campaign|serve_faulted> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Environment variables that move the stack off its default path; the
/// benchmark measures the default path only.
const GEAR_KNOBS: [&str; 3] = ["TAPESIM_PARALLEL", "TAPESIM_THREADS", "TAPESIM_SEEK"];

/// The workloads, by command-line name.
const WORKLOADS: [&str; 3] = ["paper_point", "sched_campaign", "serve_faulted"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS.iter().find(|w| **w == value);
                workload = Some(*name.ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A sub-seed of the run's seed for one input stream, so the streams a
/// workload draws are independent of each other and of other seeds.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ salt)
}

/// One step of the SplitMix64 generator: a bijective 64-bit mixer.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(knob) = GEAR_KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        return Err(format!(
            "{knob} is set: unset it, the benchmark measures the default gear only"
        ));
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed {} for {} s, trace {}, available_parallelism {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut tracer = Tracer::new(args.trace, args.workload);
    let mut report = match args.workload {
        "paper_point" => paper::run(args.seed, args.seconds, &mut tracer)?,
        "sched_campaign" => sched::run(args.seed, args.seconds, &mut tracer)?,
        _ => serve::run(args.seed, args.seconds, &mut tracer)?,
    };
    for note in &report.notes {
        println!("  {note}");
    }
    let rows = if args.trace {
        report.set("trace.spans", tracer.len() as f64);
        report.set("host.available_parallelism", threads as f64);
        print!("{}", tracer.render_table());
        let dir = std::env::current_exe()
            .map_err(|e| format!("cannot locate the executable: {e}"))?
            .with_file_name("trace");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        let json = tracer
            .chrome_json()
            .map_err(|e| format!("chrome trace: {e}"))?;
        std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("chrome trace: {}", path.display());
        report.rows(&PER_LAYER, true)?
    } else {
        report.set("peak_rss_mb", peak_rss_mib()?);
        report.rows(&END_TO_END, false)?
    };
    for (name, value, unit) in &rows {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for problem in &report.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    let line = ResultLine {
        correct: report.correct(),
        attempted: report.attempted,
        failed: report.failed,
        rows: &rows,
    };
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(report.correct())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: correctness checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
