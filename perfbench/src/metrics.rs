//! The metric catalogue — names, units, directions, and for each per-layer
//! metric the layer it measures and the end-to-end metric it should move
//! on which workload — plus the result-line formatting.
//!
//! `BENCHMARK.json` lists the same names, units and directions; a test
//! keeps the two in step.

use std::fmt::Write as _;

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name, `layer.quantity` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// The layer measured (`end_to_end` for the user-visible metrics).
    pub layer: &'static str,
    /// Which end-to-end metric a change here should move, on which
    /// workload.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
        layer: "end_to_end",
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    layer: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
        layer,
        moves,
    }
}

/// The end-to-end metrics, measured by untraced runs.
pub const END_TO_END: [Def; 9] = [
    e2e("setup_s", "s", false),
    e2e("run_s", "s", false),
    e2e("minsns_per_s", "Minsn/s", true),
    e2e("peak_rss_mb", "MB", false),
    e2e("sim_cycles", "cycles", false),
    e2e("ok_share", "share", true),
    e2e("predict_log_err", "ln-ratio", false),
    e2e("lb_tightness_max", "ratio", false),
    e2e("unproven_share", "share", false),
];

const FRONT_END: &str = "setup_s on fan_chain_stats and histogram_full; run_s on dse_sweep \
                         (arena rebuilt per cell); peak_rss_mb on all three";
const CHECK: &str = "run_s on dse_sweep only (the other workloads run unvalidated)";
const ENGINE: &str = "run_s on all three";
const MODEL: &str = "sim_cycles on the workload a model change targets; \
                     unchanged by a simulator-speed change";
const DRIVER: &str = "run_s on dse_sweep only";

/// The per-layer metrics, measured by the traced run.
pub const PER_LAYER: [Def; 45] = [
    layer(
        "workloads.generate_s",
        "s",
        false,
        "workloads",
        "setup_s; the whole of it on dse_sweep",
    ),
    layer("machine.exec_s", "s", false, "machine", FRONT_END),
    layer("trace.section_s", "s", false, "trace", FRONT_END),
    layer("trace.minsns_per_s", "Minsn/s", true, "trace", FRONT_END),
    layer(
        "trace.arena_bytes_per_insn",
        "B/insn",
        false,
        "trace",
        FRONT_END,
    ),
    layer("trace.sections", "count", false, "trace", FRONT_END),
    layer("check.arena_s", "s", false, "check", CHECK),
    layer("check.progress_s", "s", false, "check", CHECK),
    layer("check.schedule_s", "s", false, "check", CHECK),
    layer(
        "placement.assign_s",
        "s",
        false,
        "placement",
        "run_s on fan_chain_stats and on the 1024-core LoadAware cells of dse_sweep; \
         nothing on histogram_full",
    ),
    layer(
        "placement.peak_sections_per_core",
        "count",
        false,
        "placement",
        "run_s on fan_chain_stats and dse_sweep",
    ),
    layer("engine.simulate_s", "s", false, "engine", ENGINE),
    layer("engine.self_s", "s", false, "engine", ENGINE),
    layer("engine.ns_per_tick", "ns", false, "engine", ENGINE),
    layer("engine.ns_per_insn", "ns", false, "engine", ENGINE),
    layer(
        "engine.state_bytes_per_insn",
        "B/insn",
        false,
        "engine",
        "run_s on all three; peak_rss_mb on histogram_full",
    ),
    layer("engine.ticks", "count", false, "engine", ENGINE),
    layer("engine.walks", "count", false, "engine", ENGINE),
    layer("engine.drain_rounds", "count", false, "engine", ENGINE),
    layer("engine.section_begins", "count", false, "engine", ENGINE),
    layer("engine.parks", "count", false, "engine", ENGINE),
    layer("engine.requeues", "count", false, "engine", ENGINE),
    layer("engine.fetch_stalls", "count", false, "engine", ENGINE),
    layer(
        "rename.remote_register_requests",
        "count",
        false,
        "rename",
        MODEL,
    ),
    layer(
        "rename.remote_memory_requests",
        "count",
        false,
        "rename",
        MODEL,
    ),
    layer("rename.dmh_accesses", "count", false, "rename", MODEL),
    layer(
        "rename.fork_copied_sources",
        "count",
        false,
        "rename",
        MODEL,
    ),
    layer("noc.sent", "count", false, "noc", MODEL),
    layer("noc.avg_latency", "cycles", false, "noc", MODEL),
    layer("noc.peak_in_flight", "count", false, "noc", MODEL),
    layer("core.occupancy", "share", true, "core", MODEL),
    layer("core.busy_cycles", "cycles", false, "core", MODEL),
    layer(
        "core.stall_cycles.remote_register",
        "cycles",
        false,
        "core",
        MODEL,
    ),
    layer(
        "core.stall_cycles.remote_memory",
        "cycles",
        false,
        "core",
        MODEL,
    ),
    layer(
        "core.stall_cycles.fork_copy",
        "cycles",
        false,
        "core",
        MODEL,
    ),
    layer(
        "core.stall_cycles.noc_ejection",
        "cycles",
        false,
        "core",
        MODEL,
    ),
    layer("core.stall_cycles.local", "cycles", false, "core", MODEL),
    layer("core.parked_cycles", "cycles", false, "core", MODEL),
    layer("core.idle_cycles", "cycles", false, "core", MODEL),
    layer("driver.workers", "count", true, "driver", DRIVER),
    layer("driver.cells_serial_s", "s", false, "driver", DRIVER),
    layer("driver.parallel_speedup", "ratio", true, "driver", DRIVER),
    layer("driver.frontend_share", "share", false, "driver", DRIVER),
    layer(
        "obs.trace_overhead",
        "ratio",
        false,
        "obs",
        "none: traced wall time over untraced wall time of the same path",
    ),
    layer(
        "obs.unattributed_s",
        "s",
        false,
        "obs",
        "none: traced wall time outside every layer span",
    ),
];

/// Measured values, in catalogue order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records one value; the name must be in `catalogue`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Checks that exactly the metrics of `catalogue` were recorded, once
    /// each, and that every value is a finite number.
    ///
    /// # Errors
    ///
    /// The first missing, unknown, repeated or non-finite metric.
    pub fn complete(&self, catalogue: &[Def]) -> Result<(), String> {
        for def in catalogue {
            match self.0.iter().filter(|(n, _)| *n == def.name).count() {
                0 => return Err(format!("metric {} was not measured", def.name)),
                1 => {}
                _ => return Err(format!("metric {} was recorded twice", def.name)),
            }
        }
        for &(name, value) in &self.0 {
            if !catalogue.iter().any(|d| d.name == name) {
                return Err(format!("metric {name} is not in the catalogue"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
        }
        Ok(())
    }

    /// The members of a JSON `metrics` object, `"name": {"value": v,
    /// "unit": "u"}, …`, names prefixed with `prefix`.
    pub fn json_members(&self, catalogue: &[Def], prefix: &str) -> Vec<String> {
        catalogue
            .iter()
            .filter_map(|def| {
                let value = self.get(def.name)?;
                Some(format!(
                    "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name,
                    json_number(value),
                    def.unit
                ))
            })
            .collect()
    }

    /// One human-readable line per metric: name, value, unit, direction
    /// and, for per-layer metrics, what it should move (printed where it
    /// changes from the line above).
    pub fn table(&self, catalogue: &[Def]) -> String {
        let mut out = String::new();
        let mut last_moves = "";
        for def in catalogue {
            let Some(value) = self.get(def.name) else {
                continue;
            };
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            write!(
                out,
                "  {:<34} {:>16} {:<9} [{better}]",
                def.name,
                format!("{value:.6}"),
                def.unit
            )
            .expect("writing to a String");
            if !def.moves.is_empty() && def.moves != last_moves {
                write!(out, "  {} -> {}", def.layer, def.moves).expect("writing to a String");
            }
            last_moves = def.moves;
            out.push('\n');
        }
        out
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form keeps.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl Iterator<Item = &'static Def> {
        END_TO_END.iter().chain(PER_LAYER.iter())
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root");
        for def in all() {
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                def.name, def.unit
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::Workload::ALL.len()
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let mut values = Values::default();
        values.set("setup_s", 0.812_734_5);
        values.set("sim_cycles", 25_946.0);
        let line = result_line(true, 3, 0, &values.json_members(&END_TO_END, ""));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}, \
             \"sim_cycles\": {\"value\": 25946.0, \"unit\": \"cycles\"}}}"
        );
        assert!(values.complete(&END_TO_END).is_err());
    }
}
