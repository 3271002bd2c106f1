//! Inputs and checks the workloads share: seeded generation of
//! `.bench` text, circuit compilation, bitwise result comparison, the
//! Monte-Carlo accuracy sample and peak-RSS readings.

use std::time::Instant;

use ser_bench_harness::accuracy::{percent_difference, SitePair};
use ser_epp::{AnalysisSession, PointEpp, SweepResults};
use ser_netlist::{parse_bench, write_bench, Circuit, NodeId};
use ser_sim::SequentialMonteCarlo;
use ser_sp::{InputProbs, SpError};

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose, independent of the others.
    #[must_use]
    pub fn derive(seed: u64, purpose: &str, index: u64) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in purpose.bytes().chain(index.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct picks from `0..n` (all of them when `k >= n`), sorted.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all.sort_unstable();
        all
    }
}

/// One generated circuit as `.bench` text, named after its profile and
/// the seed `ser-gen` synthesized it from.
#[derive(Debug, Clone)]
pub struct Source {
    pub name: String,
    pub text: String,
}

/// Instances of `profile` synthesized from the given `ser-gen` seeds.
#[must_use]
pub fn generate(profile: &'static str, seeds: &[u64]) -> Vec<Source> {
    let p = ser_gen::profile(profile).expect("known ser-gen profile");
    seeds
        .iter()
        .map(|&seed| Source {
            name: format!("{profile}_{seed}"),
            text: write_bench(&ser_gen::synthesize(&p, seed)),
        })
        .collect()
}

/// Parses a source and compiles its session with warm cone plans:
/// parse, topological artifacts, signal probabilities, plans.
///
/// # Errors
///
/// The parse or SP error; a generated circuit whose sequential SP does
/// not converge lands here and counts as a failed operation.
pub fn compile(src: &Source) -> Result<AnalysisSession, String> {
    let circuit = parse_bench(&src.text, &src.name).map_err(|e| format!("{}: {e}", src.name))?;
    let session =
        AnalysisSession::new(circuit).map_err(|e: SpError| format!("{}: {e}", src.name))?;
    // Plans are built on first use; warming them belongs to set-up. A
    // circuit over the plan budget sweeps without them.
    let _ = session.topo().cone_plans(session.circuit());
    Ok(session)
}

fn point_bits(p: &PointEpp) -> [u64; 4] {
    [
        p.value.pa().to_bits(),
        p.value.pa_bar().to_bits(),
        p.value.p0().to_bits(),
        p.value.p1().to_bits(),
    ]
}

fn points_equal(a: &[PointEpp], b: &[PointEpp]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.point == y.point && point_bits(x) == point_bits(y))
}

/// Bitwise equality of two sweeps: sites, `P_sensitized`, on-path gate
/// counts and every per-point four-value tuple.
#[must_use]
pub fn sweeps_identical(a: &SweepResults, b: &SweepResults) -> bool {
    a.len() == b.len()
        && a.sites() == b.sites()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.p_sensitized().to_bits() == y.p_sensitized().to_bits()
                && x.on_path_gates() == y.on_path_gates()
                && points_equal(x.per_point(), y.per_point())
        })
}

/// Compares a whole-circuit sweep with the per-site reference engine
/// (`site_with_workspace`) on the given sites, bitwise. Returns the
/// first mismatching site.
#[must_use]
pub fn reference_mismatch(
    session: &AnalysisSession,
    sweep: &SweepResults,
    sites: &[NodeId],
) -> Option<NodeId> {
    let epp = session.epp();
    let mut ws = ser_epp::SiteWorkspace::new(&epp);
    sites.iter().copied().find(|&site| {
        let reference = epp.site_with_workspace(site, ser_epp::PolarityMode::Tracked, &mut ws);
        let swept = sweep.site(site);
        reference.p_sensitized().to_bits() != swept.p_sensitized().to_bits()
            || reference.on_path_gates() != swept.on_path_gates()
            || !points_equal(reference.per_point(), swept.per_point())
    })
}

/// The accuracy sample: EPP against a fixed-seed sequential
/// Monte-Carlo (Mendo's stopping rule) on `sites`.
#[derive(Debug, Default)]
pub struct Accuracy {
    pub pairs: Vec<SitePair>,
    pub mc_seconds: f64,
    pub mc_vectors: u64,
}

impl Accuracy {
    /// Target normalized error of the sequential rule.
    pub const TARGET_ERROR: f64 = 0.1;
    /// Trial cap per site (bounds dead sites).
    pub const MAX_VECTORS: u64 = 1 << 16;
    /// Simulation seed: fixed, so the figure depends on the inputs only.
    pub const SEED: u64 = 0x5EED_0005;

    pub fn add(&mut self, session: &AnalysisSession, sweep: &SweepResults, sites: &[NodeId]) {
        let mc = SequentialMonteCarlo::new(Self::TARGET_ERROR)
            .with_seed(Self::SEED)
            .with_max_vectors(Self::MAX_VECTORS);
        let sim = session.bit_sim();
        for &site in sites {
            let start = Instant::now();
            let est = mc.estimate_site(sim, site);
            self.mc_seconds += start.elapsed().as_secs_f64();
            self.mc_vectors += est.vectors;
            self.pairs.push(SitePair {
                analytical: sweep.site(site).p_sensitized(),
                monte_carlo: est.p_sensitized,
            });
        }
    }

    /// Table 2's `%Dif`: `100 · Σ|EPP − MC| / Σ MC` over the sample.
    #[must_use]
    pub fn pct_diff(&self) -> f64 {
        percent_difference(&self.pairs)
    }
}

/// Peak resident set of a process in MB (`VmHWM`), or `None` when the
/// kernel does not report it.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// One input distribution, by input name so it applies to edited
/// circuits whose node ids shifted.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    pub default_p: f64,
    pub overrides: Vec<(String, f64)>,
}

impl Dist {
    /// The distribution on `circuit`'s nodes, built the way the wire
    /// protocol builds it: the default, then each override in order.
    #[must_use]
    pub fn probs(&self, circuit: &Circuit) -> InputProbs {
        let mut probs = InputProbs::uniform(self.default_p);
        for (name, p) in &self.overrides {
            let id = circuit.find(name).expect("override names an input");
            probs = probs.with(id, *p);
        }
        probs
    }

    /// The wire form: `{"default": p, "overrides": {"name": p, ...}}`.
    #[must_use]
    pub fn wire(&self) -> String {
        let overrides: Vec<String> = self
            .overrides
            .iter()
            .map(|(name, p)| format!("\"{name}\": {p}"))
            .collect();
        format!(
            "{{\"default\": {}, \"overrides\": {{{}}}}}",
            self.default_p,
            overrides.join(", ")
        )
    }
}

/// The fixed distribution set of one circuit: the customary uniform 0.5
/// first, then two skewed ones, each overriding a seeded eighth of the
/// inputs.
#[must_use]
pub fn distributions(rng: &mut Rng, circuit: &Circuit) -> Vec<Dist> {
    let inputs = circuit.inputs();
    let mut skewed = |default_p: f64, override_p: f64| Dist {
        default_p,
        overrides: rng
            .sample(inputs.len(), inputs.len().div_ceil(8))
            .into_iter()
            .map(|i| (circuit.node(inputs[i]).name().to_owned(), override_p))
            .collect(),
    };
    let low = skewed(0.3, 0.9);
    let high = skewed(0.7, 0.1);
    vec![
        Dist {
            default_p: 0.5,
            overrides: Vec::new(),
        },
        low,
        high,
    ]
}
