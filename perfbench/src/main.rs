//! The parsecs benchmark: three seeded workloads run from the outside
//! through the public layer entry points (`workloads` → `machine` →
//! `trace` → `check` → placement → event engine → `driver`), every output
//! checked against its Rust oracle.
//!
//! ```text
//! perfbench [--workload fan_chain_stats|histogram_full|dse_sweep|all]
//!           [--seed N] [--seconds S] [--trace 0|1] [--self-check]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics untraced;
//! `--trace 1` makes the traced run that yields the per-layer metrics and
//! writes its spans to `perfbench/out/`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Without `--workload` (or with `all`) every workload runs in both
//! modes. `--self-check` re-runs the traced split on seed 7 and on a
//! held-out seed and checks both against the shape recorded for seed 7.
//! Any failed check makes the command exit with status 1.

mod measure;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use measure::{Gate, Outcome};
use metrics::{END_TO_END, PER_LAYER};
use workloads::Workload;

/// The seed used when none is given, and the one the recorded shape and
/// cycle counts belong to.
const DEFAULT_SEED: u64 = 7;

/// The seed the self-check holds out: never used while the benchmark's
/// shape was recorded.
const HELD_OUT_SEED: u64 = 1009;

/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 24.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where the spans of traced runs are written.
fn spans_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit the benchmark was built from, when the source tree is a git
/// checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The fields every result row carries: what ran, where and how.
fn stamp(
    workload: Workload,
    seed: u64,
    trace: bool,
    workers: usize,
) -> Vec<(&'static str, String)> {
    let engine_threads = parsecs_core::SimConfig::default().effective_threads();
    vec![
        ("workload", workload.name().into()),
        ("seed", seed.to_string()),
        ("trace", u8::from(trace).to_string()),
        (
            "host_cpus",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("engine_threads", engine_threads.to_string()),
        ("sweep_workers", workers.to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("commit", commit()),
    ]
}

/// One measured workload run: its gate and, when it got that far, its
/// outcome.
struct Run {
    workload: Workload,
    trace: bool,
    gate: Gate,
    outcome: Option<Outcome>,
}

impl Run {
    fn catalogue(&self) -> &'static [metrics::Def] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    fn correct(&self) -> bool {
        self.gate.failed == 0 && self.gate.attempted > 0 && self.outcome.is_some()
    }
}

/// Measures one workload and prints its human-readable report.
fn run_workload(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut gate = Gate::default();
    let outcome = measure::run(workload, seed, seconds, trace, &mut gate);
    let mut run = Run {
        workload,
        trace,
        gate,
        outcome: None,
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            run.gate.fail(workload.name(), e);
            report_failures(&run.gate);
            return run;
        }
    };
    if let Err(e) = outcome.values.complete(run.catalogue()) {
        run.gate.fail(workload.name(), e);
    }
    let stamp = stamp(workload, seed, trace, outcome.workers);
    let fields: Vec<String> = stamp.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {}", fields.join(" "));
    for (name, samples) in &outcome.samples {
        println!("  {}", describe_samples(name, samples));
    }
    print!("{}", outcome.values.table(run.catalogue()));
    if trace {
        print!("{}", split_table(&outcome.spans));
        let path = spans_dir().join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        let written = std::fs::create_dir_all(spans_dir())
            .and_then(|()| std::fs::write(&path, spans::to_jsonl(&outcome.spans, &stamp)));
        match written {
            Ok(()) => println!(
                "  spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => run
                .gate
                .fail("spans", format!("cannot write {}: {e}", path.display())),
        }
    }
    let row = stamp
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .chain([format!(
            "\"metrics\": {{{}}}",
            outcome.values.json_members(run.catalogue(), "").join(", ")
        )])
        .collect::<Vec<_>>()
        .join(", ");
    println!("{{\"row\": {{{row}}}}}");
    report_failures(&run.gate);
    run.outcome = Some(outcome);
    run
}

fn report_failures(gate: &Gate) {
    for error in &gate.errors {
        eprintln!("FAIL: {error}");
    }
}

fn describe_samples(name: &str, samples: &[f64]) -> String {
    let mid = stats::median(samples).unwrap_or(f64::NAN);
    let mut line = format!("{name}: median {mid:.4} s over {} samples", samples.len());
    if let (Some([q1, _, q3]), Some(spread)) =
        (stats::quartiles(samples), stats::relative_iqr(samples))
    {
        line.push_str(&format!(
            ", quartiles {q1:.4}..{q3:.4} (spread {:.1}% of the median)",
            100.0 * spread
        ));
    }
    match stats::tail_percentile(samples) {
        Some((p, v)) => line.push_str(&format!(", p{p} {v:.4} s")),
        None => line.push_str(" (too few for a tail percentile)"),
    }
    let all: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
    line.push_str(&format!(": [{}]", all.join(", ")));
    line
}

/// The per-layer split of a traced run: each span name's total and self
/// time, the root's self time as the `unattributed` remainder, and the
/// check that they tile the traced wall time.
fn split_table(spans: &[spans::Span]) -> String {
    let Some(root) = spans.iter().find(|s| s.parent.is_none()) else {
        return String::new();
    };
    let wall = root.duration_ns() as f64;
    let mut out = format!(
        "  {:<22} {:>10} {:>10} {:>7}\n",
        "span", "total s", "self s", "self %"
    );
    let mut tiled = 0;
    for (name, (total, own)) in spans::totals_by_name(spans) {
        let name = if name == root.name {
            "unattributed"
        } else {
            name
        };
        tiled += own;
        out.push_str(&format!(
            "  {name:<22} {:>10.4} {:>10.4} {:>6.1}%\n",
            total as f64 / 1e9,
            own as f64 / 1e9,
            100.0 * own as f64 / wall
        ));
    }
    out.push_str(&format!(
        "  self times + unattributed = {:.6} s; traced wall time = {:.6} s\n",
        tiled as f64 / 1e9,
        wall / 1e9
    ));
    out
}

/// Self-time shares per layer (the span name's first segment; the root's
/// self time is `unattributed`).
fn layer_shares(spans: &[spans::Span]) -> Vec<(&'static str, f64)> {
    let Some(root) = spans.iter().find(|s| s.parent.is_none()) else {
        return Vec::new();
    };
    let wall = root.duration_ns() as f64;
    let mut shares: Vec<(&'static str, f64)> = Vec::new();
    for (name, (_, own)) in spans::totals_by_name(spans) {
        let layer = if name == root.name {
            "unattributed"
        } else {
            name.split('.').next().expect("split yields a first part")
        };
        match shares.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, share)) => *share += own as f64 / wall,
            None => shares.push((layer, own as f64 / wall)),
        }
    }
    shares
}

/// The per-layer self-time shares of seed 7 on the 2-CPU x86-64 host the
/// benchmark was written on, and its simulated cycles, which are the same
/// on every host.
struct Shape {
    workload: Workload,
    cycles: u64,
    shares: &'static [(&'static str, f64)],
}

const SEED7_SHAPES: [Shape; 3] = [
    Shape {
        workload: Workload::FanChainStats,
        cycles: 25_946,
        shares: &[
            ("trace", 0.21),
            ("machine", 0.09),
            ("placement", 0.22),
            ("engine", 0.33),
            ("check", 0.16),
        ],
    },
    Shape {
        workload: Workload::HistogramFull,
        cycles: 675_639,
        shares: &[
            ("trace", 0.29),
            ("machine", 0.09),
            ("placement", 0.01),
            ("engine", 0.42),
            ("check", 0.18),
        ],
    },
    Shape {
        workload: Workload::DseSweep,
        cycles: 14_979_535,
        shares: &[
            ("trace", 0.33),
            ("machine", 0.13),
            ("placement", 0.17),
            ("engine", 0.22),
            ("check", 0.15),
            ("driver", 0.00),
        ],
    },
];

/// How far a layer's self-time share may drift from the recorded shape.
const SHARE_TOLERANCE: f64 = 0.10;

/// Compares a traced run's split with the recorded seed-7 shape.
fn shape_errors(shape: &Shape, seed: u64, outcome: &Outcome) -> Vec<String> {
    let mut errors = Vec::new();
    if seed == DEFAULT_SEED && outcome.sim_cycles != shape.cycles {
        errors.push(format!(
            "seed {seed}: {} simulated cycles, recorded {}",
            outcome.sim_cycles, shape.cycles
        ));
    }
    let shares = layer_shares(&outcome.spans);
    for &(layer, recorded) in shape.shares {
        let share = shares
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |&(_, s)| s);
        if (share - recorded).abs() > SHARE_TOLERANCE {
            errors.push(format!(
                "seed {seed}: layer {layer} takes {:.1}% of the traced wall time, \
                 recorded {:.1}%",
                100.0 * share,
                100.0 * recorded
            ));
        }
    }
    errors
}

fn self_check() -> ExitCode {
    let mut failed = false;
    for shape in &SEED7_SHAPES {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let run = run_workload(shape.workload, seed, 0.0, true);
            let errors = match &run.outcome {
                Some(outcome) if run.correct() => shape_errors(shape, seed, outcome),
                _ => vec![format!("seed {seed}: the traced run failed")],
            };
            if let Some(outcome) = &run.outcome {
                let shares: Vec<String> = layer_shares(&outcome.spans)
                    .iter()
                    .map(|(l, s)| format!("(\"{l}\", {s:.3})"))
                    .collect();
                println!(
                    "  shape {} seed {seed}: [{}]",
                    shape.workload.name(),
                    shares.join(", ")
                );
            }
            for e in &errors {
                eprintln!("FAIL: {}: {e}", shape.workload.name());
            }
            failed |= !errors.is_empty();
        }
    }
    println!("self-check {}", if failed { "FAILED" } else { "passed" });
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    // Every run uses the code's own engine defaults — one engine thread,
    // validation only where a workload asks for it — whatever the
    // caller's environment says. Nothing has read the environment yet.
    std::env::remove_var("PARSECS_THREADS");
    std::env::remove_var("PARSECS_VALIDATE");

    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] \
                 [--trace 0|1] [--self-check]"
            );
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return self_check();
    }

    let runs: Vec<Run> = match args.workload {
        Some(workload) => vec![run_workload(workload, args.seed, args.seconds, args.trace)],
        None => Workload::ALL
            .into_iter()
            .flat_map(|w| {
                [false, true].map(|trace| run_workload(w, args.seed, args.seconds, trace))
            })
            .collect(),
    };
    let correct = runs.iter().all(Run::correct);
    let attempted = runs.iter().map(|r| r.gate.attempted).sum();
    let failed = runs.iter().map(|r| r.gate.failed).sum();
    let single = runs.len() == 1;
    let members: Vec<String> = runs
        .iter()
        .filter(|r| r.correct())
        .flat_map(|r| {
            let prefix = if single {
                String::new()
            } else {
                format!("{}/", r.workload.name())
            };
            r.outcome
                .iter()
                .flat_map(move |o| o.values.json_members(r.catalogue(), &prefix))
        })
        .collect();
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &members)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
