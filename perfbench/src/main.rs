//! The SER suite's benchmark: one workload per run, chosen by name,
//! its inputs generated from a seed.
//!
//! ```text
//! perfbench --workload <analyze|serve|harden> --seed N --seconds S --trace <0|1>
//!           --ser-cli PATH --work-dir DIR
//! ```
//!
//! `perfbench/run.py` builds this binary and `ser-cli` and supplies the
//! last two flags. Human-readable lines come first on stdout; the last
//! line is one JSON object with `correct`, `attempted`, `failed` and the
//! metrics of the mode: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Spans of a traced run are written
//! to `DIR/spans-<workload>-<seed>.jsonl`. See README.md for what each
//! workload does and measures.

mod analyze;
mod common;
mod harden;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;
use trace::Tracer;

/// The measured loop runs as this many consecutive slices. Throughput is
/// the median over slices, so a host slowdown spanning less than half
/// the run does not move it; the traced run splits every slice into an
/// untraced and a traced half, so drift cancels out of the tracing
/// overhead.
pub const SLICES: u32 = 4;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: Duration,
    pub trace: bool,
    /// Threads a whole-circuit sweep uses (the machine's parallelism).
    pub nproc: usize,
    pub ser_cli: PathBuf,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let seconds: u64 = flag("--seconds")?
        .parse()
        .ok()
        .filter(|&s| s > 0)
        .ok_or("--seconds needs a positive whole number")?;
    let trace = match flag("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Ctx {
        workload: flag("--workload")?,
        seed: flag("--seed")?
            .parse()
            .map_err(|_| "--seed needs a whole number")?,
        seconds: Duration::from_secs(seconds),
        trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ser_cli: flag("--ser-cli")?.into(),
        work_dir: flag("--work-dir")?.into(),
    })
}

fn run(ctx: &Ctx) -> Result<(Report, Tracer), String> {
    let mut tracer = Tracer::new(Instant::now(), ctx.trace);
    let report = match ctx.workload.as_str() {
        "analyze" => analyze::run(ctx, &mut tracer),
        "serve" => serve::run(ctx, &mut tracer),
        "harden" => harden::run(ctx, &mut tracer),
        other => Err(format!(
            "unknown workload `{other}` (analyze, serve or harden)"
        )),
    }?;
    Ok((report, tracer))
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut report, tracer) = match run(&ctx) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.trace {
        report.set("trace.spans", tracer.spans().len() as f64);
        for (name, (count, total_ms, self_ms)) in tracer.summary() {
            report.line(format!(
                "span     {name:<28} n={count:<8} total={total_ms:>12.3}ms self={self_ms:>12.3}ms"
            ));
        }
        let path = ctx
            .work_dir
            .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
        if let Err(e) = std::fs::create_dir_all(&ctx.work_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        report.line(format!("spans written to {}", path.display()));
    }
    let json = match report.json(ctx.trace) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "{:<8} operations attempted={} failed={}",
        ctx.workload, report.attempted, report.failed
    );
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{json}");
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
