//! What one run reports: the correctness verdict, operations attempted
//! and failed, the metrics of `BENCHMARK.json`, and human-readable lines.
//!
//! Every workload reports every metric of the mode it ran in, so the
//! names live here once. A per-layer metric a workload does not exercise
//! reads 0 there.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{self, Permille};

/// End-to-end metrics (`--trace 0`): name and unit. Each workload
/// defines its light and heavy operation; their latencies are trimmed
/// means on analyze and harden and medians on serve. Percentiles and throughput are printed, not gated: on a shared
/// two-core host they swing by more than any allowed bound (see
/// README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("light_ms", "ms"),
    ("heavy_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    // analyze
    ("netlist.parse_ms", "ms"),
    ("netlist.topo_ms", "ms"),
    ("sp.compute_ms", "ms"),
    ("netlist.plan_build_ms", "ms"),
    ("netlist.plan_arena_mb", "MB"),
    ("netlist.plan_dedup_factor", "x"),
    ("epp.sweep_small_ms", "ms"),
    ("epp.sweep_large_ms", "ms"),
    ("epp.sweep_small_1t_ms", "ms"),
    ("epp.sweep_large_1t_ms", "ms"),
    ("epp.parallel_gain_small", "x"),
    ("epp.parallel_gain_large", "x"),
    ("epp.report_ms", "ms"),
    ("sim.mc_ms_per_site", "ms"),
    ("sim.mc_vectors_per_site", "count"),
    ("epp.speedup_vs_mc", "x"),
    ("epp.mc_pct_diff", "%"),
    // serve
    ("protocol.parse_us", "us"),
    ("protocol.engine_site_us", "us"),
    ("protocol.engine_sweep_ms", "ms"),
    ("protocol.engine_chunked_ms", "ms"),
    ("service.submit_site_us", "us"),
    ("service.submit_sweep_ms", "ms"),
    ("epp.site_kernel_us", "us"),
    ("service.site_overhead_us", "us"),
    ("protocol.render_us", "us"),
    ("net.residual_us", "us"),
    ("net.round_trip_site_us", "us"),
    ("net.bytes_per_request", "B"),
    ("service.set_inputs_ms", "ms"),
    ("service.sweep_cache_hit_ratio", "1"),
    ("service.sweep_cache_lookups", "count"),
    ("service.session_hit_ratio", "1"),
    ("service.session_lookups", "count"),
    ("netlist.plan_cache_load_ms", "ms"),
    ("service.plan_cache_hits", "count"),
    // harden
    ("epp.rank_ms", "ms"),
    ("whatif.apply_tmr_ms", "ms"),
    ("whatif.apply_inputs_ms", "ms"),
    ("whatif.dirty_fraction", "1"),
    ("whatif.resweep_planned", "count"),
    ("whatif.resweep_reference", "count"),
    ("whatif.revert_ms", "ms"),
    ("whatif.full_recompute_ms", "ms"),
    ("whatif.incremental_gain", "x"),
    // every workload
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness failures, each a one-line reason. Empty means correct.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines, printed before the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    /// Sets a metric; the name must be one of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not declared"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.metrics.insert(name, value);
    }

    /// Records a correctness failure.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// A human-readable metric line: value, unit and sample count.
    pub fn show(&mut self, workload: &str, name: &str, value: f64, unit: &str, n: usize) {
        self.line(format!(
            "{workload:<8} {name:<24} {value:>14.4} {unit:<7} n={n}"
        ));
    }

    /// Shows a latency percentile named `name`, with the highest
    /// percentile the sample supports next to its count, and returns the
    /// named one.
    ///
    /// # Errors
    ///
    /// Fails when the sample is too small for the named percentile.
    pub fn show_percentile(
        &mut self,
        workload: &str,
        name: &str,
        samples: &[f64],
        level: Permille,
        unit: &str,
    ) -> Result<f64, String> {
        let value = stats::percentile(samples, level).map_err(|e| format!("{name}: {e}"))?;
        let top = stats::highest_level(samples.len()).expect("the named level is supported");
        let top_value = stats::percentile(samples, top).expect("supported level");
        self.line(format!(
            "{workload:<8} {name:<24} {value:>14.4} {unit:<7} n={} {}={top_value:.4}",
            samples.len(),
            stats::label(top)
        ));
        Ok(value)
    }

    /// The final JSON line: every metric of the mode, undeclared ones
    /// refused, unset per-layer ones reported as 0 (layer not exercised).
    ///
    /// # Errors
    ///
    /// Fails when an end-to-end metric was not measured.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        let declared = if trace { PER_LAYER } else { END_TO_END };
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let pairs = ser_service::json::parse_object(&text).expect("BENCHMARK.json parses");
        let get = |key: &str| -> Vec<(String, String)> {
            let (_, list) = pairs.iter().find(|(k, _)| k == key).expect("key present");
            let ser_service::JsonValue::Arr(items) = list else {
                panic!("{key} is not a list")
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(get("end_to_end"), own(END_TO_END));
        assert_eq!(get("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn json_line_has_every_metric_of_its_mode() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = r.json(true).unwrap();
        assert!(traced.contains("\"trace.spans\": {\"value\": 0.0, \"unit\": \"count\"}"));
        let mut missing = Report::default();
        missing.set("setup_s", 1.0);
        assert!(missing.json(false).is_err());
    }
}
