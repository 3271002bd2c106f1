//! `analyze`: whole-circuit SER on a generated suite, the paper's use
//! case. Set-up compiles every circuit; the measured loop repeats warm
//! whole-circuit sweeps at `nproc` threads and assembles the SER
//! report, small circuits and large circuits in separate phases.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ser_epp::{AnalysisSession, PlatchedModel, RseuModel, SerReport};
use ser_netlist::{parse_bench, NodeId, TopoArtifacts};
use ser_sp::{IndependentSp, InputProbs, SpEngine};

use crate::common::{self, Accuracy, Rng, Source};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::{Ctx, SLICES};

/// Small profiles, each instantiated at the fixed `ser-gen` seeds
/// [`SMALL_SEEDS`]. Drawn per workload seed, about one instance in
/// thirty-six fails to converge (see the README's "Failures"), so a
/// seed's run would hold a failed operation by lottery.
const SMALL: [&str; 3] = ["s953", "s1196", "s1423"];
const SMALL_SEEDS: [u64; 3] = [1, 2, 3];
/// The large profile, at fixed `ser-gen` seeds. Its two instances hold
/// most of the run's memory and set-up time, so one drawn per workload
/// seed that fails to converge (4 of 10 seeds lost one) moved peak RSS
/// by a fifth and set-up by half between seeds.
const LARGE: &str = "s9234";
const LARGE_SEEDS: [u64; 2] = [1, 2];
/// Set-up is repeated and its median reported.
const SETUP_REPS: usize = 9;
/// Sites per circuit checked against the per-site reference engine.
const CHECK_SITES: usize = 64;
/// Sites per small circuit in the Monte-Carlo accuracy sample.
const MC_SITES: usize = 40;
/// Share of the measured time given to the small-circuit phase.
const SMALL_SHARE: f64 = 0.4;

struct Circ {
    name: String,
    large: bool,
    session: AnalysisSession,
    /// Bits of the checked sweep's total SER; every measured sweep must
    /// reproduce them.
    total_bits: u64,
}

/// One phase of the measured loop.
#[derive(Default)]
struct Phase {
    /// Sweep + report latency per circuit, ms.
    latency_ms: Vec<f64>,
    report_ms: Vec<f64>,
    sites: u64,
    seconds: f64,
    mismatches: usize,
}

fn suite() -> Vec<(Source, bool)> {
    let mut out = Vec::new();
    for profile in SMALL {
        out.extend(
            common::generate(profile, &SMALL_SEEDS)
                .into_iter()
                .map(|s| (s, false)),
        );
    }
    out.extend(
        common::generate(LARGE, &LARGE_SEEDS)
            .into_iter()
            .map(|s| (s, true)),
    );
    out
}

/// Runs warm analyses over `circs` round-robin into `phase` until
/// `budget` has passed and the phase holds at least `min_samples`
/// (giving up at three budgets).
fn measure(
    ctx: &Ctx,
    circs: &[&Circ],
    budget: Duration,
    min_samples: usize,
    tracer: &mut Tracer,
    phase: &mut Phase,
) {
    let start = Instant::now();
    let mut k = phase.latency_ms.len();
    while !circs.is_empty() {
        let elapsed = start.elapsed();
        if (elapsed >= budget && phase.latency_ms.len() >= min_samples) || elapsed >= 3 * budget {
            break;
        }
        let c = circs[k % circs.len()];
        let root = tracer.open("analyze.circuit", k as u64, None);
        let t0 = Instant::now();
        let sweep = c.session.sweep(ctx.nproc);
        let t1 = Instant::now();
        let report = SerReport::assemble(
            c.session.circuit(),
            sweep.p_sensitized(),
            &RseuModel::default(),
            &PlatchedModel::default(),
        );
        let total = std::hint::black_box(report.total());
        let t2 = Instant::now();
        tracer.record("epp.sweep", k as u64, Some(root), t0, t1 - t0);
        tracer.record("epp.report", k as u64, Some(root), t1, t2 - t1);
        tracer.close(root);
        if total.to_bits() != c.total_bits {
            phase.mismatches += 1;
        }
        phase.latency_ms.push((t2 - t0).as_secs_f64() * 1e3);
        phase.report_ms.push((t2 - t1).as_secs_f64() * 1e3);
        phase.sites += sweep.len() as u64;
        k += 1;
    }
    phase.seconds += start.elapsed().as_secs_f64();
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let sources = suite();

    // Set-up: compile the suite, several times; the last compile stays.
    let mut setup_s = Vec::new();
    let mut compiled = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let sessions: Vec<_> = sources
            .iter()
            .map(|(src, _)| common::compile(src))
            .collect();
        setup_s.push(start.elapsed().as_secs_f64());
        compiled = sessions;
        if rep == 0 {
            report.attempted += sources.len() as u64;
        }
    }
    let mut circs = Vec::new();
    for ((src, large), session) in sources.iter().zip(compiled) {
        match session {
            Ok(session) => circs.push(Circ {
                name: src.name.clone(),
                large: *large,
                session,
                total_bits: 0,
            }),
            Err(e) => {
                report.failed += 1;
                report.line(format!("analyze  circuit failed to compile: {e}"));
            }
        }
    }

    // Checks, outside the measured loop: nproc sweep = 1-thread sweep =
    // per-site reference, bitwise; then the accuracy sample.
    let mut accuracy = Accuracy::default();
    for (i, c) in circs.iter_mut().enumerate() {
        let mt = c.session.sweep(ctx.nproc);
        let one = c.session.sweep(1);
        if !common::sweeps_identical(&mt, &one) {
            report.fail_check(format!(
                "{}: {}-thread sweep differs from 1-thread sweep",
                c.name, ctx.nproc
            ));
        }
        let n = c.session.circuit().len();
        let mut rng = Rng::derive(ctx.seed, "analyze.check", i as u64);
        let sites: Vec<NodeId> = rng
            .sample(n, CHECK_SITES)
            .into_iter()
            .map(NodeId::from_index)
            .collect();
        if let Some(site) = common::reference_mismatch(&c.session, &mt, &sites) {
            report.fail_check(format!(
                "{}: sweep differs from the per-site reference at {site}",
                c.name
            ));
        }
        c.total_bits = SerReport::assemble(
            c.session.circuit(),
            mt.p_sensitized(),
            &RseuModel::default(),
            &PlatchedModel::default(),
        )
        .total()
        .to_bits();
        if !c.large {
            let mut rng = Rng::derive(ctx.seed, "analyze.mc", i as u64);
            let sites: Vec<NodeId> = rng
                .sample(n, MC_SITES)
                .into_iter()
                .map(NodeId::from_index)
                .collect();
            accuracy.add(&c.session, &mt, &sites);
        }
    }

    let small: Vec<&Circ> = circs.iter().filter(|c| !c.large).collect();
    let large: Vec<&Circ> = circs.iter().filter(|c| c.large).collect();
    if small.is_empty() || large.is_empty() {
        return Err("no small or no large circuit compiled".into());
    }
    // Each slice runs both phases, so drift between them cancels. The
    // named percentiles need their samples by the last slice; the traced
    // run names none and halves every slice.
    let share = if ctx.trace { 0.5 } else { 1.0 } / f64::from(SLICES);
    let small_budget = ctx.seconds.mul_f64(SMALL_SHARE * share);
    let large_budget = ctx.seconds.mul_f64((1.0 - SMALL_SHARE) * share);
    let mut quiet = Tracer::new(Instant::now(), false);
    let (mut small_phase, mut large_phase) = (Phase::default(), Phase::default());
    let (mut small_traced, mut large_traced) = (Phase::default(), Phase::default());
    let mut slice_rates = Vec::new();
    for slice in 1..=SLICES {
        let (small_min, large_min) = if slice < SLICES || ctx.trace {
            (0, 0)
        } else {
            (stats::required_samples(900), stats::required_samples(500))
        };
        let sites = small_phase.sites + large_phase.sites;
        let seconds = small_phase.seconds + large_phase.seconds;
        measure(
            ctx,
            &small,
            small_budget,
            small_min,
            &mut quiet,
            &mut small_phase,
        );
        measure(
            ctx,
            &large,
            large_budget,
            large_min,
            &mut quiet,
            &mut large_phase,
        );
        slice_rates.push(
            (small_phase.sites + large_phase.sites - sites) as f64
                / (small_phase.seconds + large_phase.seconds - seconds),
        );
        if ctx.trace {
            measure(ctx, &small, small_budget, 0, tracer, &mut small_traced);
            measure(ctx, &large, large_budget, 0, tracer, &mut large_traced);
        }
    }
    let phases = [&small_phase, &large_phase, &small_traced, &large_traced];
    report.attempted += phases
        .iter()
        .map(|p| p.latency_ms.len() as u64)
        .sum::<u64>();
    let mismatches: usize = phases.iter().map(|p| p.mismatches).sum();
    if mismatches > 0 {
        report.fail_check(format!(
            "{mismatches} measured sweeps changed their total SER"
        ));
    }
    report.set("setup_s", stats::median(&setup_s));
    report.set("epp.mc_pct_diff", accuracy.pct_diff());
    if ctx.trace {
        trace_layers(
            ctx,
            &sources,
            &circs,
            &small,
            &large,
            &accuracy,
            phases,
            &mut report,
            tracer,
        )?;
        return Ok(report);
    }

    report.show_percentile(
        "analyze",
        "light_p50_ms",
        &small_phase.latency_ms,
        500,
        "ms",
    )?;
    report.show_percentile(
        "analyze",
        "light_p90_ms",
        &small_phase.latency_ms,
        900,
        "ms",
    )?;
    report.show_percentile(
        "analyze",
        "heavy_p50_ms",
        &large_phase.latency_ms,
        500,
        "ms",
    )?;
    let light = stats::trimmed_mean(&small_phase.latency_ms);
    let heavy = stats::trimmed_mean(&large_phase.latency_ms);
    report.show(
        "analyze",
        "light_mean_ms",
        light,
        "ms",
        small_phase.latency_ms.len(),
    );
    report.show(
        "analyze",
        "heavy_mean_ms",
        heavy,
        "ms",
        large_phase.latency_ms.len(),
    );
    report.set("light_ms", light);
    report.set("heavy_ms", heavy);
    let rss = common::peak_rss_mb(None).ok_or("no VmHWM in /proc/self/status")?;
    report.set("rss_peak_mb", rss);
    report.show(
        "analyze",
        "setup_s",
        stats::median(&setup_s),
        "s",
        setup_s.len(),
    );
    report.show(
        "analyze",
        "small_sites_per_s",
        small_phase.sites as f64 / small_phase.seconds,
        "sites/s",
        small_phase.latency_ms.len(),
    );
    report.show(
        "analyze",
        "large_sites_per_s",
        large_phase.sites as f64 / large_phase.seconds,
        "sites/s",
        large_phase.latency_ms.len(),
    );
    report.show(
        "analyze",
        "epp_mc_pct_diff",
        accuracy.pct_diff(),
        "%",
        accuracy.pairs.len(),
    );
    report.show("analyze", "rss_peak_mb", rss, "MB", 1);
    report.show(
        "analyze",
        "sites_per_s",
        stats::median(&slice_rates),
        "sites/s",
        slice_rates.len(),
    );
    Ok(report)
}

/// The traced run's per-layer figures.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    ctx: &Ctx,
    sources: &[(Source, bool)],
    circs: &[Circ],
    small: &[&Circ],
    large: &[&Circ],
    accuracy: &Accuracy,
    [small_phase, large_phase, small_traced, large_traced]: [&Phase; 4],
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    // Set-up layer by layer, each around its public call.
    let (mut parse_ms, mut topo_ms, mut sp_ms, mut plan_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut arena_bytes, mut stored, mut logical) = (0usize, 0usize, 0u64);
    let base = 1_000_000;
    for (i, (src, _)) in sources.iter().enumerate() {
        let trace = base + i as u64;
        let root = tracer.open("analyze.compile", trace, None);
        let (parsed, d) = tracer.time("netlist.parse", trace, Some(root), || {
            parse_bench(&src.text, &src.name)
        });
        parse_ms += d.as_secs_f64() * 1e3;
        let circuit = parsed.map_err(|e| e.to_string())?;
        let (topo, d) = tracer.time("netlist.topo", trace, Some(root), || {
            TopoArtifacts::compute(&circuit)
        });
        topo_ms += d.as_secs_f64() * 1e3;
        let topo = topo.map_err(|e| e.to_string())?;
        let (sp, d) = tracer.time("sp.compute", trace, Some(root), || {
            IndependentSp::new().compute_with_order(&circuit, &InputProbs::default(), topo.order())
        });
        sp_ms += d.as_secs_f64() * 1e3;
        if sp.is_err() {
            tracer.close(root);
            continue; // counted as failed at set-up
        }
        let (plans, d) = tracer.time("netlist.plan_build", trace, Some(root), || {
            topo.cone_plans(&circuit).map(Arc::clone)
        });
        plan_ms += d.as_secs_f64() * 1e3;
        tracer.close(root);
        if let Some(plans) = plans {
            arena_bytes += plans.arena_bytes();
            stored += plans.stored_members();
            logical += plans.logical_members();
        }
    }
    report.set("netlist.parse_ms", parse_ms);
    report.set("netlist.topo_ms", topo_ms);
    report.set("sp.compute_ms", sp_ms);
    report.set("netlist.plan_build_ms", plan_ms);
    report.set("netlist.plan_arena_mb", arena_bytes as f64 / 1e6);
    report.set(
        "netlist.plan_dedup_factor",
        logical as f64 / stored.max(1) as f64,
    );

    // Sweeps at nproc and at one thread, paired per circuit.
    let class = |circs: &[&Circ], reps: usize| -> (Vec<f64>, Vec<f64>) {
        let (mut mt, mut one) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            for c in circs {
                let t = Instant::now();
                std::hint::black_box(c.session.sweep(ctx.nproc));
                mt.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                std::hint::black_box(c.session.sweep(1));
                one.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        (mt, one)
    };
    let (small_mt, small_1t) = class(small, 10);
    let (large_mt, large_1t) = class(large, 2);
    report.set("epp.sweep_small_ms", stats::median(&small_mt));
    report.set("epp.sweep_small_1t_ms", stats::median(&small_1t));
    report.set("epp.sweep_large_ms", stats::median(&large_mt));
    report.set("epp.sweep_large_1t_ms", stats::median(&large_1t));
    let gain = |one: &[f64], mt: &[f64]| one.iter().sum::<f64>() / mt.iter().sum::<f64>();
    report.set("epp.parallel_gain_small", gain(&small_1t, &small_mt));
    report.set("epp.parallel_gain_large", gain(&large_1t, &large_mt));

    report.set("epp.report_ms", stats::median(&small_traced.report_ms));
    // Overhead per class (seconds per site, traced against untraced),
    // averaged over the two classes.
    let per_site = |p: &Phase| p.seconds / p.sites as f64;
    let overhead: f64 = [(small_traced, small_phase), (large_traced, large_phase)]
        .iter()
        .map(|(t, u)| (per_site(t) - per_site(u)) / per_site(u))
        .sum::<f64>()
        / 2.0;
    report.set("trace.overhead_pct", 100.0 * overhead);

    // The Monte-Carlo baseline, per site, and EPP's speed against it.
    let sites = accuracy.pairs.len().max(1) as f64;
    let mc_ms = accuracy.mc_seconds * 1e3 / sites;
    report.set("sim.mc_ms_per_site", mc_ms);
    report.set(
        "sim.mc_vectors_per_site",
        accuracy.mc_vectors as f64 / sites,
    );
    let small_sites: usize = small.iter().map(|c| c.session.circuit().len()).sum();
    let epp_ms = small_mt.iter().sum::<f64>() / (small_sites * 10) as f64;
    report.set("epp.speedup_vs_mc", mc_ms / epp_ms);
    report.line(format!(
        "analyze  speedup_vs_mc base: sequential MC (eps={}, cap {} vectors) ms/site over warm {}-thread EPP sweep ms/site, {} small circuits",
        Accuracy::TARGET_ERROR,
        Accuracy::MAX_VECTORS,
        ctx.nproc,
        circs.iter().filter(|c| !c.large).count()
    ));
    Ok(())
}
