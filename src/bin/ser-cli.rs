//! `ser-cli` — command-line front end for the SER estimation suite.
//!
//! ```text
//! ser-cli info    <netlist>                   structural summary
//! ser-cli analyze <netlist> [--top N]         whole-circuit SER report
//! ser-cli epp     <netlist> <node>            per-site EPP detail
//! ser-cli advise  <netlist> [--rounds N]      iterative hardening advisor

//! ser-cli batch   <jobs.jsonl>                run a v1 JSONL job file through the service
//! ser-cli serve   [--tcp ADDR]                protocol server on stdin/stdout or TCP
//! ser-cli gen     <profile> [--seed S] [-o F] emit a synthetic benchmark
//! ser-cli convert <in> <out>                  .bench <-> .v conversion
//! ser-cli cache   <stats|clear> --cache-dir D inspect/empty the plan-artifact cache
//! ```
//!
//! Netlists may be ISCAS `.bench` files or structural Verilog (`.v`);
//! the format is chosen by file extension.
//!
//! `serve` speaks the versioned wire protocol documented in
//! [`ser_suite::service::protocol`] — envelope requests, framed
//! streaming replies, structured errors — plus the v1 flat-job shim,
//! on stdin/stdout by default or as a TCP daemon with `--tcp ADDR`
//! (optional `--auth-token`, per-client `--quota`, server-wide
//! `--max-inflight`, idle-connection reaping with `--idle-timeout`).
//! `batch` runs a v1 JSONL job file as one
//! interleaved batch, prints one response line per job, and exits
//! non-zero if any job failed.
//!
//! `batch` and `serve` accept `--cache-dir DIR` to persist compiled
//! cone plans across processes (see [`ser_suite::netlist::PlanCache`])
//! and `--cache-max-bytes N` to cap that directory (least-recently-used
//! entries are evicted at store time); `cache stats` / `cache clear`
//! inspect and empty the directory.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use ser_suite::epp::{
    AnalysisSession, CircuitSerAnalysis, Edit, HardeningCost, HardeningPlan, WhatIfSession,
};
use ser_suite::gen::{profile, synthesize};
use ser_suite::netlist::{
    parse_bench, parse_verilog, write_bench, write_verilog, Circuit, CircuitStats, PlanCache,
};
use ser_suite::service::{
    parse_job_line, serve, v1_response_json, EngineConfig, Job, JobSpec, ProtocolEngine,
    SerService, SerServiceConfig, StdioTransport, TcpTransport, WireError,
};

fn load(path: &str) -> Result<Circuit, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    if path.ends_with(".v") || path.ends_with(".sv") {
        parse_verilog(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))
    } else {
        parse_bench(&text, stem).map_err(|e| format!("cannot parse `{path}`: {e}"))
    }
}

fn cmd_convert(input: &str, output: &str) -> Result<(), String> {
    let c = load(input)?;
    let text = if output.ends_with(".v") || output.ends_with(".sv") {
        write_verilog(&c)
    } else {
        write_bench(&c)
    };
    fs::write(output, text).map_err(|e| format!("cannot write `{output}`: {e}"))?;
    eprintln!("wrote {} ({} nodes) to {output}", c.name(), c.len());
    Ok(())
}

fn cmd_info(path: &str) -> Result<(), String> {
    let c = load(path)?;
    let stats = CircuitStats::compute(&c).map_err(|e| e.to_string())?;
    println!("{stats}");
    println!("  gate mix:");
    for (kind, count) in &stats.by_kind {
        println!("    {kind:<6} {count}");
    }
    Ok(())
}

fn cmd_analyze(path: &str, top: usize, threads: usize) -> Result<(), String> {
    let c = load(path)?;
    // One compiled session per invocation: topo order, observe points
    // and SP are computed once and shared by the whole sweep.
    let session = AnalysisSession::new(&c).map_err(|e| e.to_string())?;
    let outcome = CircuitSerAnalysis::new()
        .with_threads(threads)
        .run_with_session(&session);
    println!(
        "analyzed {} nodes in {:?} (SP: {:?}, {} of {threads} requested threads used)",
        c.len(),
        outcome.epp_time(),
        outcome.sp_time(),
        outcome.threads_used(),
    );
    println!("total SER (unit models): {:.4}\n", outcome.report().total());
    println!("{:<16} {:>12} {:>12}", "node", "P_sens", "SER");
    println!("{}", "-".repeat(42));
    for e in outcome.report().ranking().iter().take(top) {
        println!(
            "{:<16} {:>12.4} {:>12.4}",
            c.node(e.node).name(),
            e.p_sensitized,
            e.ser
        );
    }
    Ok(())
}

fn cmd_epp(path: &str, node_name: &str) -> Result<(), String> {
    let c = load(path)?;
    let site = c
        .find(node_name)
        .ok_or_else(|| format!("no node named `{node_name}` in {path}"))?;
    let session = AnalysisSession::new(&c).map_err(|e| e.to_string())?;
    // Single-site query: the per-site path costs one DFS; compiling the
    // whole circuit's cone plans only pays off for sweeps.
    let r = session.site(site);
    println!(
        "site `{node_name}`: {} on-path gates, P_sensitized = {:.4}",
        r.on_path_gates(),
        r.p_sensitized()
    );
    for p in r.per_point() {
        let kind = if p.point.is_flip_flop() { "FF" } else { "PO" };
        println!(
            "  {kind} at `{}`: {}",
            c.node(p.point.signal()).name(),
            p.value
        );
    }
    Ok(())
}

/// `advise`: the rank → harden → re-rank loop. Each round takes the
/// greedy [`HardeningPlan`]'s top affordable pick, applies the TMR
/// **for real** through the incremental what-if engine, and reports the
/// *measured* SER change next to the plan's stale single-shot
/// prediction — then re-ranks on the edited circuit, so round `k+1`
/// chooses against the circuit that round `k` actually produced
/// instead of the original ranking. Only the dirty region is re-swept
/// per round, which is what makes the loop interactive on large
/// circuits.
fn cmd_advise(
    path: &str,
    rounds: usize,
    budget: f64,
    cost: HardeningCost,
    threads: usize,
) -> Result<(), String> {
    let c = load(path)?;
    let session = AnalysisSession::new(&c).map_err(|e| e.to_string())?;
    // The base circuit's logic gates, each dropped once hardened: its
    // voter keeps the gate's name, and replicas are never candidates.
    let mut candidates: HashSet<String> = c
        .node_ids()
        .filter(|&id| c.node(id).kind().is_logic())
        .map(|id| c.node(id).name().to_owned())
        .collect();
    let mut wf = WhatIfSession::new(session, threads);
    let base_total = wf.total_ser();
    println!(
        "{}: base total SER (unit models) {:.6} over {} sites",
        c.name(),
        base_total,
        wf.circuit().len()
    );
    println!(
        "{:>5} {:<20} {:>8} {:>12} {:>12} {:>12} {:>14} {:>10}",
        "round", "gate", "cost", "predicted", "measured", "total", "dirty/total", "resweep"
    );
    println!("{}", "-".repeat(100));

    let mut remaining = budget;
    let mut applied = 0usize;
    for round in 1..=rounds {
        // Re-rank against the *current* (already hardened) circuit.
        let report = wf.report();
        let circuit = Arc::clone(wf.circuit());
        let plan = HardeningPlan::greedy(&circuit, &report, cost, remaining);
        // TMR applies to logic gates not yet hardened; the plan may
        // also rank inputs, flip-flops, voters and replicas, so skip to
        // the best protectable pick.
        let Some(choice) = plan
            .choices()
            .iter()
            .find(|ch| candidates.contains(circuit.node(ch.node).name()))
            .copied()
        else {
            println!(
                "round {round}: no affordable logic gate left (budget {remaining:.2}); stopping"
            );
            break;
        };
        let name = circuit.node(choice.node).name().to_owned();
        candidates.remove(&name);
        let outcome = wf
            .apply(Edit::Tmr(choice.node))
            .map_err(|e| e.to_string())?;
        applied += 1;
        remaining -= choice.cost;
        // The measured change re-evaluates everything the plan's
        // per-entry estimate ignores: the voter tree's own exposure
        // and every reconvergent site whose P_sensitized shifted.
        let measured = outcome.previous_total - outcome.total;
        println!(
            "{:>5} {:<20} {:>8.2} {:>12.6} {:>12.6} {:>12.6} {:>9}/{:<5} {:>4}p+{:<4}r {:>6.1?}",
            round,
            name,
            choice.cost,
            choice.removed_ser,
            measured,
            outcome.total,
            outcome.dirty_sites,
            outcome.total_sites,
            outcome.resweep_planned,
            outcome.resweep_reference,
            outcome.elapsed
        );
    }
    let final_total = wf.total_ser();
    println!("{}", "-".repeat(100));
    println!(
        "after {applied} hardening edits: total SER {:.6} ({:+.2}% vs base), budget spent {:.2} of {:.2}",
        final_total,
        (final_total - base_total) / base_total * 100.0,
        budget - remaining,
        budget
    );
    Ok(())
}

/// Loads netlists for the service commands, caching by path so a job
/// file naming one netlist many times parses (and hashes) it once.
struct CircuitCache {
    by_path: HashMap<String, Arc<Circuit>>,
}

impl CircuitCache {
    fn new() -> Self {
        CircuitCache {
            by_path: HashMap::new(),
        }
    }

    fn load(&mut self, path: &str) -> Result<Arc<Circuit>, String> {
        if let Some(c) = self.by_path.get(path) {
            return Ok(Arc::clone(c));
        }
        let circuit: Arc<Circuit> = Arc::new(load(path)?);
        self.by_path.insert(path.to_owned(), Arc::clone(&circuit));
        Ok(circuit)
    }
}

/// Renders a failed job as a v1 error line with a structured
/// `{code, message}` error object.
fn error_json(line_no: usize, error: &WireError) -> String {
    format!("{{\"line\": {line_no}, \"error\": {}}}", error.render())
}

fn service_config(args: &[String]) -> Result<SerServiceConfig, String> {
    let mut config = SerServiceConfig::default();
    if let Some(threads) = flag_value(args, "--threads") {
        config.threads = threads
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or_else(|| "bad --threads value (need a positive integer)".to_owned())?;
    }
    if let Some(sessions) = flag_value(args, "--sessions") {
        config.max_sessions = sessions
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or_else(|| "bad --sessions value (need a positive integer)".to_owned())?;
    }
    if let Some(dir) = flag_value(args, "--cache-dir") {
        config.plan_cache_dir = Some(dir.into());
    }
    if let Some(max) = flag_value(args, "--cache-max-bytes") {
        if config.plan_cache_dir.is_none() {
            return Err("--cache-max-bytes needs --cache-dir".to_owned());
        }
        config.plan_cache_max_bytes =
            Some(max.parse().ok().filter(|&n: &u64| n > 0).ok_or_else(|| {
                "bad --cache-max-bytes value (need a positive integer)".to_owned()
            })?);
    }
    Ok(config)
}

/// `cache stats` / `cache clear`: inspect or empty a persistent
/// plan-artifact cache directory.
fn cmd_cache(args: &[String]) -> Result<(), String> {
    let dir = flag_value(args, "--cache-dir")
        .ok_or_else(|| "cache: --cache-dir DIR is required".to_owned())?;
    let cache = PlanCache::new(&dir);
    match args.get(1).map(String::as_str) {
        Some("stats") => {
            let stats = cache.stats().map_err(|e| format!("cache stats: {e}"))?;
            println!(
                "plan cache at {dir}: {} entries, {} bytes (format v{})",
                stats.entries,
                stats.bytes,
                PlanCache::FORMAT_VERSION
            );
            Ok(())
        }
        Some("clear") => {
            let removed = cache.clear().map_err(|e| format!("cache clear: {e}"))?;
            eprintln!("removed {removed} entries from {dir}");
            Ok(())
        }
        _ => Err("usage: ser-cli cache <stats|clear> --cache-dir DIR".to_owned()),
    }
}

/// `batch`: parse the whole job file, submit it as one interleaved
/// batch, print one response line per job in file order. Exits
/// non-zero when any job failed (the error lines still print, so a
/// pipeline sees both the partial results and the failure).
fn cmd_batch(path: &str, config: SerServiceConfig) -> Result<(), String> {
    use std::io::Write as _;

    let text = fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let service = SerService::new(config);
    let mut cache = CircuitCache::new();
    // Parse every line first; a bad line fails the whole batch up front
    // (jobs may take minutes — better to reject early).
    let mut specs: Vec<(usize, JobSpec, Arc<Circuit>)> = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let spec = parse_job_line(line).map_err(|e| format!("line {}: {e}", line_no + 1))?;
        let circuit = cache
            .load(&spec.netlist)
            .map_err(|e| format!("line {}: {e}", line_no + 1))?;
        specs.push((line_no + 1, spec, circuit));
    }
    let jobs = specs
        .iter()
        .map(|(line_no, spec, circuit)| {
            let request = spec
                .to_request(circuit)
                .map_err(|e| format!("line {line_no}: {e}"))?;
            Ok(Job::new(Arc::clone(circuit), request))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let responses = service.submit_batch(jobs);
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let mut failed = 0usize;
    for ((line_no, spec, circuit), response) in specs.iter().zip(responses) {
        let line = match response {
            Ok(r) => v1_response_json(spec.top, circuit, &r),
            Err(e) => {
                failed += 1;
                error_json(*line_no, &WireError::from(e))
            }
        };
        writeln!(w, "{line}").map_err(|e| e.to_string())?;
    }
    drop(w);
    let stats = service.stats();
    eprintln!(
        "served {} jobs ({} warm hits, {} compiles, {} evictions, {} sessions cached; sweep cache {} hits / {} misses, {} cached; plan cache {} hits / {} misses / {} evicted)",
        specs.len(),
        stats.session_hits,
        stats.session_misses,
        stats.evictions,
        stats.sessions_cached,
        stats.sweep_cache_hits,
        stats.sweep_cache_misses,
        stats.sweep_responses_cached,
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.plan_cache_evictions
    );
    if failed > 0 {
        return Err(format!("{failed} of {} jobs failed", specs.len()));
    }
    Ok(())
}

/// `serve`: the protocol server — versioned envelopes with streaming
/// frames plus the v1 shim — on stdin/stdout, or on TCP with `--tcp`.
/// Compiled circuits stay warm in the shared session LRU across
/// requests (and, on TCP, across client connections).
fn cmd_serve(
    config: SerServiceConfig,
    engine_config: EngineConfig,
    tcp: Option<String>,
    idle_timeout: Option<Duration>,
) -> Result<(), String> {
    let service = Arc::new(SerService::new(config));
    let reap_counter = service.idle_reap_counter();
    let engine = Arc::new(ProtocolEngine::new(service, engine_config));
    match tcp {
        None => {
            let mut transport = StdioTransport::new();
            serve(&mut transport, &engine).map_err(|e| e.to_string())
        }
        Some(addr) => {
            let mut transport =
                TcpTransport::bind(&addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
            if let Some(timeout) = idle_timeout {
                // Reaps show up as `idle_reaped` in the stats op.
                transport = transport.with_idle_timeout(timeout, reap_counter);
            }
            eprintln!("ser-service listening on {}", transport.local_addr());
            serve(&mut transport, &engine).map_err(|e| e.to_string())
        }
    }
}

/// The `--idle-timeout SECS` serve flag (TCP only; 0 is rejected —
/// omit the flag to disable reaping).
fn idle_timeout(args: &[String]) -> Result<Option<Duration>, String> {
    match flag_value(args, "--idle-timeout") {
        None => Ok(None),
        Some(secs) => secs
            .parse()
            .ok()
            .filter(|&n: &u64| n > 0)
            .map(|n| Some(Duration::from_secs(n)))
            .ok_or_else(|| {
                "bad --idle-timeout value (need a positive number of seconds)".to_owned()
            }),
    }
}

/// The serve-only flags (`--tcp`, `--auth-token`, `--quota`,
/// `--max-inflight`).
fn engine_config(args: &[String]) -> Result<EngineConfig, String> {
    let mut config = EngineConfig {
        auth_token: flag_value(args, "--auth-token"),
        ..EngineConfig::default()
    };
    if let Some(quota) = flag_value(args, "--quota") {
        config.quota = Some(
            quota
                .parse()
                .ok()
                .filter(|&n: &u64| n > 0)
                .ok_or_else(|| "bad --quota value (need a positive integer)".to_owned())?,
        );
    }
    if let Some(inflight) = flag_value(args, "--max-inflight") {
        config.max_inflight = inflight
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or_else(|| "bad --max-inflight value (need a positive integer)".to_owned())?;
    }
    Ok(config)
}

fn cmd_gen(name: &str, seed: u64, out: Option<&str>) -> Result<(), String> {
    let p = profile(name).ok_or_else(|| {
        format!("unknown profile `{name}` (try s953, s1196, ..., s38417, s298, s344, s386, s526)")
    })?;
    let c = synthesize(&p, seed);
    let text = write_bench(&c);
    match out {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {} ({} nodes) to {path}", c.name(), c.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn usage() -> String {
    "usage:\n  ser-cli info    <netlist>\n  ser-cli analyze <netlist> [--top N] [--threads N]\n  ser-cli epp     <netlist> <node>\n  ser-cli advise  <netlist> [--rounds N] [--budget B] [--cost unit|area] [--threads N]\n  ser-cli batch   <jobs.jsonl> [--threads N] [--sessions N] [--cache-dir DIR] [--cache-max-bytes N]\n  ser-cli serve   [--threads N] [--sessions N] [--cache-dir DIR] [--cache-max-bytes N] [--tcp ADDR] [--auth-token TOKEN] [--quota N] [--max-inflight N] [--idle-timeout SECS]\n  ser-cli gen     <profile> [--seed S] [-o out.bench]\n  ser-cli convert <in.bench|in.v> <out.bench|out.v>\n  ser-cli cache   <stats|clear> --cache-dir DIR"
        .to_owned()
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("info") => cmd_info(args.get(1).ok_or_else(usage)?),
        Some("analyze") => {
            let path = args.get(1).ok_or_else(usage)?;
            let top = flag_value(&args, "--top")
                .map(|v| v.parse().map_err(|_| "bad --top value".to_owned()))
                .transpose()?
                .unwrap_or(15);
            let threads = flag_value(&args, "--threads")
                .map(|v| {
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| "bad --threads value (need a positive integer)".to_owned())
                })
                .transpose()?
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            cmd_analyze(path, top, threads)
        }
        Some("epp") => {
            let path = args.get(1).ok_or_else(usage)?;
            let node = args.get(2).ok_or_else(usage)?;
            cmd_epp(path, node)
        }
        Some("advise") => {
            let path = args.get(1).ok_or_else(usage)?;
            let rounds = flag_value(&args, "--rounds")
                .map(|v| {
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| "bad --rounds value (need a positive integer)".to_owned())
                })
                .transpose()?
                .unwrap_or(5);
            let budget = flag_value(&args, "--budget")
                .map(|v| {
                    v.parse()
                        .ok()
                        .filter(|&b: &f64| b.is_finite() && b > 0.0)
                        .ok_or_else(|| "bad --budget value (need a positive number)".to_owned())
                })
                .transpose()?
                .unwrap_or(f64::from(u32::MAX));
            let cost = match flag_value(&args, "--cost").as_deref() {
                None | Some("unit") => HardeningCost::Unit,
                Some("area") => HardeningCost::AreaProxy,
                Some(other) => return Err(format!("bad --cost value `{other}` (unit or area)")),
            };
            let threads = flag_value(&args, "--threads")
                .map(|v| {
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| "bad --threads value (need a positive integer)".to_owned())
                })
                .transpose()?
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            cmd_advise(path, rounds, budget, cost, threads)
        }
        Some("batch") => {
            let path = args.get(1).ok_or_else(usage)?;
            cmd_batch(path, service_config(&args)?)
        }
        Some("serve") => cmd_serve(
            service_config(&args)?,
            engine_config(&args)?,
            flag_value(&args, "--tcp"),
            idle_timeout(&args)?,
        ),
        Some("convert") => {
            let input = args.get(1).ok_or_else(usage)?;
            let output = args.get(2).ok_or_else(usage)?;
            cmd_convert(input, output)
        }
        Some("cache") => cmd_cache(&args),
        Some("gen") => {
            let name = args.get(1).ok_or_else(usage)?;
            let seed = flag_value(&args, "--seed")
                .map(|v| v.parse().map_err(|_| "bad --seed value".to_owned()))
                .transpose()?
                .unwrap_or(1);
            let out = flag_value(&args, "-o");
            cmd_gen(name, seed, out.as_deref())
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
