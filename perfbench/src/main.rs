//! The repository benchmark. One command runs one named workload from a
//! seed, checks every output against the serial reference, and prints each
//! metric by name with its unit and clock, ending with one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-resnet20-b4 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and the traced
//! run.

mod calib;
mod layers;
mod offline;
mod report;
mod serving;
mod setup;
mod spans;
mod stats;

use report::Report;
use setup::{Repeated, Size};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking a claim after the fact.
pub const HELD_OUT_SEED: u64 = 1009;

pub const WORKLOADS: [&str; 3] = ["engine-resnet20-b4", "bands2-lenet-b4", "serve-lenet-open"];

/// The parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Flip one reference logit before measuring (the benchmark's own
    /// tests use this to show a mismatch is caught).
    pub perturb_reference: bool,
    /// Where the traced run writes its span files.
    pub trace_dir: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        perturb_reference: false,
        trace_dir: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = argv.next() {
        if flag == "--perturb-reference" {
            args.perturb_reference = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("size")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Records the set-up metrics every workload shares.
pub fn record_setup<W>(report: &mut Report, setup: &Repeated<W>) {
    report.set("setup_s", setup.total_s);
    report.set("setup.dataset_s", setup.times.dataset_s);
    report.set("setup.combine_s", setup.times.combine_s);
    report.set("setup.deploy_build_s", setup.times.deploy_build_s);
    report.set("setup.warmup_s", setup.times.warmup_s);
    report.set("deploy.top1_accuracy", setup.built.accuracy);
    if !setup.consistent {
        report
            .inconsistent
            .push("set-ups from one seed disagree on reference logits".into());
    }
}

/// Writes one trace file under `args.trace_dir`; a write failure is
/// reported, not fatal (the metrics are already measured).
pub fn write_trace(args: &Args, report: &mut Report, suffix: &str, body: &str) {
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.{suffix}", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&args.trace_dir).and_then(|()| std::fs::write(&path, body));
    match written {
        Ok(()) => report.note(format!("trace written to {}", path.display())),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) seconds {} trace {} \
         size {:?} host threads {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.size,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    match args.workload.as_str() {
        "engine-resnet20-b4" => offline::run(&args, offline::ENGINE_RESNET20, &mut report),
        "bands2-lenet-b4" => offline::run(&args, offline::BANDS2_LENET, &mut report),
        "serve-lenet-open" => serving::run_open(&args, &mut report),
        _ => unreachable!("checked by parse"),
    }
    report.set("peak_rss_mb", report::peak_rss_mb());
    if report.print(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
