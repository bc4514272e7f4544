//! The measurement procedures: untraced end-to-end runs and the traced
//! per-layer run, with every correctness gate.
//!
//! Warm-up rule: before anything is timed, a process runs its workload's
//! measured operation once, untimed (the first `simulate_arena` of a
//! process pays page faults and allocator growth the later ones do not).
//! The traced run's untraced comparison pass runs in that same warm
//! state, right before the traced pass.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parsecs_core::{
    bound_schedule, check_arena, prove_progress, ChipView, CountingProbe, ManyCoreSim,
    PlacementPolicy, Progress, ScheduleBounds, SectionDeps, SectionSpan, SimConfig, SimError,
    SimStats, StallCause, TraceArena,
};
use parsecs_driver::{
    DriverError, ExecutionBackend, ManyCoreBackend, ReportDetail, RunReport, Sweep, SweepPoint,
};
use parsecs_isa::Program;
use parsecs_machine::{Machine, TraceSink, TraceStep};
use parsecs_noc::CoreId;

use crate::metrics::Values;
use crate::spans::{self, Span, Tracer};
use crate::stats::median;
use crate::workloads::{Grid, SingleCell, Workload};

/// Least set-up time measured per end-to-end run, in seconds: set-up is
/// repeated (at least [`MIN_REPS`] times) until it adds up to this, and
/// `setup_s` is the median.
const SETUP_SECONDS: f64 = 1.0;

/// Fewest timed repetitions of the measured operation per run.
const MIN_REPS: usize = 3;

/// Cells attempted and failed, with the reason of every failure.
#[derive(Debug, Default)]
pub struct Gate {
    /// Cell executions attempted.
    pub attempted: u64,
    /// Cell executions that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Gate {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            self.errors.push(format!("{what}: {reason}"));
        }
    }

    pub fn fail(&mut self, what: &str, reason: String) {
        self.record(what, Err(reason));
    }
}

/// What the measurement also reports beside its metrics.
pub struct Outcome {
    /// The metrics.
    pub values: Values,
    /// Every timed sample, per sample set, for the human-readable summary.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Sweep workers the measured operation ran on.
    pub workers: usize,
    /// The traced run's spans (empty for end-to-end runs).
    pub spans: Vec<Span>,
    /// Simulated cycles, summed over cells.
    pub sim_cycles: u64,
}

/// Checks one cell's result against its oracle, the deadlock detector and,
/// when given, the reference run's statistics.
fn check_cell(
    outputs: &[u64],
    expected: &[u64],
    stats: &SimStats,
    reference: Option<&SimStats>,
) -> Result<(), String> {
    if outputs.len() != expected.len() {
        return Err(format!(
            "{} outputs, the oracle has {}",
            outputs.len(),
            expected.len()
        ));
    }
    if let Some(i) = (0..outputs.len()).find(|&i| outputs[i] != expected[i]) {
        return Err(format!(
            "output {i} is {}, the oracle says {}",
            outputs[i], expected[i]
        ));
    }
    if stats.forced_stall_releases != 0 {
        return Err(format!(
            "{} forced stall releases",
            stats.forced_stall_releases
        ));
    }
    match reference {
        Some(reference) if reference != stats => Err(format!(
            "statistics differ from the reference run ({} vs {} cycles)",
            stats.total_cycles, reference.total_cycles
        )),
        _ => Ok(()),
    }
}

/// The process's peak resident set, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The static verdicts of one cell against its measured cycles.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    cycles: u64,
    predicted: u64,
    lb: u64,
    proven: bool,
}

impl Verdict {
    /// The verdict of a run of `cycles` cycles, refused when the run
    /// undercuts the certified lower bound.
    fn new(cycles: u64, progress: &Progress, schedule: &ScheduleBounds) -> Result<Verdict, String> {
        if cycles < schedule.lb {
            return Err(format!(
                "{cycles} cycles undercut the certified lower bound {}",
                schedule.lb
            ));
        }
        Ok(Verdict {
            cycles,
            predicted: schedule.predicted_cycles,
            lb: schedule.lb,
            proven: progress.is_proven(),
        })
    }
}

/// `predict_log_err`, `lb_tightness_max` and `unproven_share` over cells.
fn verdict_metrics(values: &mut Values, verdicts: &[Verdict]) {
    let log_errs: Vec<f64> = verdicts
        .iter()
        .map(|v| (v.predicted as f64 / v.cycles as f64).ln().abs())
        .collect();
    let tightness = verdicts
        .iter()
        .map(|v| v.cycles as f64 / v.lb as f64)
        .fold(f64::NAN, f64::max);
    let unproven = verdicts.iter().filter(|v| !v.proven).count();
    values.set("predict_log_err", median(&log_errs).unwrap_or(f64::NAN));
    values.set("lb_tightness_max", tightness);
    values.set("unproven_share", unproven as f64 / verdicts.len() as f64);
}

/// Runs `f`, inside a span when a tracer is given.
fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    cell: usize,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, Some(cell), f),
        None => f(),
    }
}

/// Runs the three static passes a validated run makes over a cell — the
/// arena check, then the configuration-aware progress proof and schedule
/// bounds — each inside a span when a tracer is given.
fn verdict(
    arena: &TraceArena,
    core_of: &[CoreId],
    config: &SimConfig,
    cycles: u64,
    tracer: Option<&Tracer>,
    cell: usize,
) -> Result<Verdict, String> {
    let report = maybe_span(tracer, "check.arena", cell, || check_arena(arena));
    if !report.is_clean() {
        return Err(format!("arena fails the static check: {report:?}"));
    }
    let hosts: Vec<usize> = core_of.iter().map(|c| c.0).collect();
    let progress = maybe_span(tracer, "check.progress", cell, || {
        prove_progress(arena, &hosts, config.cores, config.max_sections_per_core)
    });
    let schedule = maybe_span(tracer, "check.schedule", cell, || {
        bound_schedule(arena, &hosts, &config.chip_model())
    });
    Verdict::new(cycles, &progress, &schedule)
}

/// Repeats `op` until at least [`MIN_REPS`] samples and `seconds` of
/// measured time, returning the samples in seconds.
fn repeat(seconds: f64, mut op: impl FnMut() -> Duration) -> Vec<f64> {
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || samples.iter().sum::<f64>() < seconds {
        samples.push(op().as_secs_f64());
    }
    samples
}

/// The untraced end-to-end run of a single-cell workload.
pub fn end_to_end_single(
    cell: &SingleCell,
    seed: u64,
    seconds: f64,
    gate: &mut Gate,
) -> Result<Outcome, String> {
    let expected = cell.kind.expected(seed);
    let label = cell.kind.label();
    let mut arena = None;
    let mut setup_error = None;
    let setup = repeat(SETUP_SECONDS, || {
        drop(arena.take());
        let start = Instant::now();
        let program = cell.kind.program(seed);
        let built = cell.arena(&program);
        let elapsed = start.elapsed();
        match built {
            Ok(built) => arena = Some(built),
            Err(e) => setup_error = Some(e),
        }
        elapsed
    });
    if let Some(e) = setup_error {
        return Err(format!("{label}: {e}"));
    }
    let arena = arena.expect("at least one set-up");
    let sim = ManyCoreSim::new(cell.config.clone());

    // Warm-up: the first simulation of the process, untimed.
    let start = Instant::now();
    let warm = sim
        .simulate_arena(&arena)
        .map_err(|e| format!("{label}: {e}"))?;
    let warm_s = start.elapsed().as_secs_f64();
    gate.record(
        &label,
        check_cell(&warm.outputs, &expected, &warm.stats, None),
    );
    let reference = warm.stats.clone();
    let core_of = warm.core_of.clone();
    drop(warm);

    let mut sim_error = None;
    let run = repeat(seconds, || {
        let start = Instant::now();
        let result = sim.simulate_arena(&arena);
        let elapsed = start.elapsed();
        match result {
            Ok(result) => gate.record(
                &label,
                check_cell(&result.outputs, &expected, &result.stats, Some(&reference)),
            ),
            Err(e) => {
                gate.fail(&label, e.to_string());
                sim_error.get_or_insert(e);
            }
        }
        elapsed
    });
    let peak_mb = peak_rss_mb()?;

    let verdict = verdict(
        &arena,
        &core_of,
        &cell.config,
        reference.total_cycles,
        None,
        0,
    )
    .inspect_err(|e| gate.fail(&label, e.clone()))?;
    if let Some(e) = sim_error {
        return Err(format!("{label}: {e}"));
    }

    let samples = Samples {
        setup,
        warm_s,
        run,
        peak_mb,
    };
    Ok(end_to_end_outcome(
        samples,
        &[reference],
        &[verdict],
        gate,
        1,
    ))
}

/// What an end-to-end run measured: the timed samples in seconds, and the
/// peak resident set read right after the timed repetitions.
struct Samples {
    setup: Vec<f64>,
    warm_s: f64,
    run: Vec<f64>,
    peak_mb: f64,
}

/// The end-to-end metrics from the samples, each cell's reference
/// statistics and static verdicts, and the gate so far.
fn end_to_end_outcome(
    samples: Samples,
    reference: &[SimStats],
    verdicts: &[Verdict],
    gate: &Gate,
    workers: usize,
) -> Outcome {
    let setup_s = median(&samples.setup).expect("at least one set-up");
    let run_s = median(&samples.run).expect("at least one repetition");
    let instructions: u64 = reference.iter().map(|s| s.instructions).sum();
    let sim_cycles: u64 = reference.iter().map(|s| s.total_cycles).sum();
    let mut values = Values::default();
    values.set("setup_s", setup_s);
    values.set("run_s", run_s);
    values.set(
        "minsns_per_s",
        instructions as f64 / (setup_s + run_s) / 1e6,
    );
    values.set("peak_rss_mb", samples.peak_mb);
    values.set("sim_cycles", sim_cycles as f64);
    values.set("ok_share", 1.0 - gate.failed as f64 / gate.attempted as f64);
    verdict_metrics(&mut values, verdicts);
    Outcome {
        values,
        samples: vec![
            ("setup_s", samples.setup),
            ("warm-up", vec![samples.warm_s]),
            ("run_s", samples.run),
        ],
        workers,
        spans: Vec::new(),
        sim_cycles,
    }
}

/// The sweep over `programs` × the grid's configurations, each cell
/// executed by `backend(column)`.
fn sweep_of<B: ExecutionBackend + 'static>(
    grid: &Grid,
    programs: &[Program],
    workers: Option<usize>,
    mut backend: impl FnMut(usize, &SimConfig) -> B,
) -> Sweep {
    let mut sweep = Sweep::new();
    if let Some(workers) = workers {
        sweep = sweep.threads(workers);
    }
    for (kind, program) in grid.kinds.iter().zip(programs) {
        sweep = sweep.program(kind.label(), program.clone());
    }
    for (column, config) in grid.configs.iter().enumerate() {
        sweep = sweep.backend(backend(column, config));
    }
    sweep
}

/// The sweep of validated `ManyCoreBackend` cells the workload measures.
fn plain_sweep(grid: &Grid, programs: &[Program], workers: Option<usize>) -> Sweep {
    sweep_of(grid, programs, workers, |_, config| {
        ManyCoreBackend::new(config.clone())
    })
}

/// Checks every point of a finished sweep and returns each cell's
/// simulation result (`None` for a failed cell).
fn check_points<'p>(
    points: &'p [SweepPoint],
    grid: &Grid,
    expected: &[Vec<u64>],
    reference: Option<&[SimStats]>,
    gate: &mut Gate,
) -> Vec<Option<&'p parsecs_core::SimResult>> {
    points
        .iter()
        .enumerate()
        .map(|(cell, point)| {
            let what = format!("{} @ {}", point.program, point.backend);
            let row = cell / grid.configs.len();
            match &point.outcome {
                Ok(report) => {
                    let Some(sim) = report.sim() else {
                        gate.fail(&what, "not a simulator report".into());
                        return None;
                    };
                    let outcome = check_cell(
                        &report.outputs,
                        &expected[row],
                        &sim.stats,
                        reference.map(|r| &r[cell]),
                    );
                    let ok = outcome.is_ok();
                    gate.record(&what, outcome);
                    ok.then_some(sim)
                }
                Err(e) => {
                    gate.fail(&what, e.to_string());
                    None
                }
            }
        })
        .collect()
}

/// The sweep workers `Sweep` picks by default for `cells` cells.
fn default_workers(cells: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(cells)
        .max(1)
}

/// The untraced end-to-end run of `dse_sweep`.
pub fn end_to_end_grid(
    grid: &Grid,
    seed: u64,
    seconds: f64,
    gate: &mut Gate,
) -> Result<Outcome, String> {
    let expected: Vec<Vec<u64>> = grid.kinds.iter().map(|k| k.expected(seed)).collect();
    let mut programs = Vec::new();
    let setup = repeat(SETUP_SECONDS, || {
        programs.clear();
        let start = Instant::now();
        programs.extend(grid.kinds.iter().map(|k| k.program(seed)));
        start.elapsed()
    });
    let sweep = plain_sweep(grid, &programs, None);
    let workers = default_workers(sweep.len());

    // Warm-up: one untimed sweep.
    let start = Instant::now();
    let warm = sweep.run();
    let warm_s = start.elapsed().as_secs_f64();
    let results = check_points(&warm, grid, &expected, None, gate);
    let mut reference = Vec::new();
    let mut verdicts = Vec::new();
    for (cell, result) in results.iter().enumerate() {
        let Some(result) = result else {
            return Err(format!("cell {cell} failed: {}", gate.errors.join("; ")));
        };
        let report = result.check.as_deref();
        let (Some(progress), Some(schedule)) = (
            report.and_then(|r| r.progress.as_ref()),
            report.and_then(|r| r.schedule.as_ref()),
        ) else {
            return Err(format!("validated cell {cell} carries no verdicts"));
        };
        let verdict = Verdict::new(result.stats.total_cycles, progress, schedule);
        verdicts.push(verdict.inspect_err(|e| gate.fail(&format!("cell {cell}"), e.clone()))?);
        reference.push(result.stats.clone());
    }
    drop(warm);

    let run = repeat(seconds, || {
        let start = Instant::now();
        let points = sweep.run();
        let elapsed = start.elapsed();
        check_points(&points, grid, &expected, Some(&reference), gate);
        elapsed
    });

    let samples = Samples {
        setup,
        warm_s,
        run,
        peak_mb: peak_rss_mb()?,
    };
    Ok(end_to_end_outcome(
        samples, &reference, &verdicts, gate, workers,
    ))
}

/// A placement policy that runs the configured one inside a
/// `placement.assign` span, computing the cross-section dependences
/// itself when the policy asks for them — exactly what the engine's own
/// placement step does — so the span covers `SectionDeps::from_arena` too.
struct TracedPlacement {
    inner: Arc<dyn PlacementPolicy>,
    arena: Arc<TraceArena>,
    tracer: Arc<Tracer>,
    cell: usize,
}

impl std::fmt::Debug for TracedPlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TracedPlacement({:?})", self.inner)
    }
}

impl PlacementPolicy for TracedPlacement {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn assign(&self, sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId> {
        self.tracer.span("placement.assign", Some(self.cell), || {
            if self.inner.wants_dependences() {
                let deps = SectionDeps::from_arena(sections.len(), &self.arena);
                self.inner.assign_with_deps(sections, chip, &deps)
            } else {
                self.inner.assign(sections, chip)
            }
        })
    }
}

/// Simulates `arena` under `config` with a [`CountingProbe`], inside an
/// `engine.simulate` span whose placement step is its own child span.
/// Validation is left to the caller's explicit `check.*` spans.
fn traced_simulate(
    config: &SimConfig,
    arena: TraceArena,
    tracer: &Arc<Tracer>,
    cell: usize,
) -> Result<(parsecs_core::SimResult, CountingProbe, Arc<TraceArena>), SimError> {
    let arena = Arc::new(arena);
    let mut config = config.clone();
    config.validate = false;
    config.placement = Arc::new(TracedPlacement {
        inner: config.placement.clone(),
        arena: arena.clone(),
        tracer: tracer.clone(),
        cell,
    });
    let mut probe = CountingProbe::default();
    let result = tracer.span("engine.simulate", Some(cell), || {
        ManyCoreSim::new(config).simulate_arena_probed(&arena, &mut probe)
    })?;
    Ok((result, probe, arena))
}

/// Discards every retired instruction: the machine layer alone.
struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&mut self, _step: &TraceStep<'_>) {}
}

/// `Machine::load` + `run_with_sink` into a no-op sink, inside a
/// `machine.exec` span: the functional pre-execution without sectioning.
fn machine_exec(program: &Program, fuel: u64, tracer: &Tracer, cell: usize) -> Result<(), String> {
    tracer.span("machine.exec", Some(cell), || {
        let mut machine = Machine::load(program).map_err(|e| e.to_string())?;
        machine
            .run_with_sink(fuel, &mut NoopSink)
            .map(drop)
            .map_err(|e| e.to_string())
    })
}

/// One traced cell's measurements beside its spans.
struct CellTrace {
    stats: SimStats,
    probe: CountingProbe,
    state_bytes: u64,
}

/// A many-core backend that executes each cell through the layer entry
/// points one at a time, each inside a span: `trace.build`,
/// `engine.simulate` (with `placement.assign`), then `check.arena`,
/// `check.progress` and `check.schedule` — the work a validated
/// `ManyCoreBackend` cell does — under a `driver.cell` span.
struct TracedBackend {
    config: SimConfig,
    column: usize,
    columns: usize,
    rows_done: AtomicUsize,
    tracer: Arc<Tracer>,
    cells: Arc<Mutex<Vec<(usize, CellTrace)>>>,
}

impl TracedBackend {
    fn execute_cell(
        &self,
        program: &Program,
        fuel: u64,
        cell: usize,
    ) -> Result<RunReport, DriverError> {
        let tracer = &self.tracer;
        let arena = tracer
            .span("trace.build", Some(cell), || {
                TraceArena::from_program(program, fuel)
            })
            .map_err(SimError::from)?;
        let (result, probe, arena) = traced_simulate(&self.config, arena, tracer, cell)?;
        let cycles = result.stats.total_cycles;
        verdict(
            &arena,
            &result.core_of,
            &self.config,
            cycles,
            Some(tracer),
            cell,
        )
        .map_err(DriverError::Config)?;
        self.cells.lock().expect("no cell recorder panicked").push((
            cell,
            CellTrace {
                stats: result.stats.clone(),
                probe,
                state_bytes: result.sim_state_bytes(),
            },
        ));
        if result.stats.forced_stall_releases > 0 {
            return Err(DriverError::Deadlock {
                forced_stall_releases: result.stats.forced_stall_releases,
            });
        }
        Ok(RunReport {
            backend: self.name(),
            outputs: result.outputs.clone(),
            instructions: result.stats.instructions,
            cycles: result.stats.total_cycles,
            fetch_ipc: result.stats.fetch_ipc,
            retire_ipc: result.stats.retire_ipc,
            detail: ReportDetail::Sim(Box::new(result)),
        })
    }
}

impl ExecutionBackend for TracedBackend {
    fn name(&self) -> String {
        ManyCoreBackend::new(self.config.clone()).name()
    }

    fn execute_fueled(&self, program: &Program, fuel: u64) -> Result<RunReport, DriverError> {
        // A one-worker sweep calls each column's backend once per row,
        // rows in order, so the call count names the cell.
        let row = self.rows_done.fetch_add(1, Ordering::Relaxed);
        let cell = row * self.columns + self.column;
        let tracer = self.tracer.clone();
        tracer.span("driver.cell", Some(cell), || {
            self.execute_cell(program, fuel, cell)
        })
    }

    fn execute(&self, program: &Program) -> Result<RunReport, DriverError> {
        self.execute_fueled(program, self.config.fuel)
    }
}

/// Per-layer metrics shared by both traced procedures, from the spans and
/// the traced cells' statistics and probes.
fn layer_values(spans: &[Span], cells: &[CellTrace], values: &mut Values) {
    let totals = spans::totals_by_name(spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9);
    let own = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e9);
    let sum = |f: &dyn Fn(&CellTrace) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    let instructions = sum(&|c| c.stats.instructions);
    let machine = total("machine.exec");
    values.set("workloads.generate_s", total("workloads.generate"));
    values.set("machine.exec_s", machine);
    values.set("trace.section_s", total("trace.build") - machine);
    values.set(
        "trace.minsns_per_s",
        instructions / total("trace.build") / 1e6,
    );
    values.set(
        "trace.arena_bytes_per_insn",
        sum(&|c| c.stats.trace_arena_bytes) / instructions,
    );
    values.set("trace.sections", sum(&|c| c.stats.sections as u64));
    values.set("check.arena_s", total("check.arena"));
    values.set("check.progress_s", total("check.progress"));
    values.set("check.schedule_s", total("check.schedule"));
    values.set("placement.assign_s", total("placement.assign"));
    values.set(
        "placement.peak_sections_per_core",
        cells
            .iter()
            .map(|c| c.stats.peak_sections_per_core)
            .max()
            .unwrap_or(0) as f64,
    );
    let engine_self = own("engine.simulate");
    let ticks = sum(&|c| c.probe.ticks);
    values.set("engine.simulate_s", total("engine.simulate"));
    values.set("engine.self_s", engine_self);
    values.set("engine.ns_per_tick", engine_self * 1e9 / ticks);
    values.set("engine.ns_per_insn", engine_self * 1e9 / instructions);
    values.set(
        "engine.state_bytes_per_insn",
        sum(&|c| c.state_bytes) / instructions,
    );
    values.set("engine.ticks", ticks);
    values.set("engine.walks", sum(&|c| c.probe.walks));
    values.set("engine.drain_rounds", sum(&|c| c.probe.drain_rounds));
    values.set("engine.section_begins", sum(&|c| c.probe.begins));
    values.set("engine.parks", sum(&|c| c.probe.parks));
    values.set("engine.requeues", sum(&|c| c.probe.requeues));
    values.set("engine.fetch_stalls", sum(&|c| c.probe.stalls));
    values.set(
        "rename.remote_register_requests",
        sum(&|c| c.stats.remote_register_requests),
    );
    values.set(
        "rename.remote_memory_requests",
        sum(&|c| c.stats.remote_memory_requests),
    );
    values.set("rename.dmh_accesses", sum(&|c| c.stats.dmh_accesses));
    values.set(
        "rename.fork_copied_sources",
        sum(&|c| c.stats.fork_copied_sources),
    );
    values.set("noc.sent", sum(&|c| c.stats.noc.sent));
    values.set(
        "noc.avg_latency",
        sum(&|c| c.stats.noc.total_latency) / sum(&|c| c.stats.noc.delivered),
    );
    values.set(
        "noc.peak_in_flight",
        cells
            .iter()
            .map(|c| c.stats.noc.peak_in_flight)
            .max()
            .unwrap_or(0) as f64,
    );
    let breakdown = |f: &dyn Fn(&parsecs_core::CoreBreakdown) -> u64| {
        sum(&|c| c.stats.attribution.iter().map(f).sum())
    };
    let busy = breakdown(&|b| b.busy);
    let budget = sum(&|c| c.stats.attribution.len() as u64 * c.stats.total_cycles);
    values.set("core.occupancy", busy / budget);
    values.set("core.busy_cycles", busy);
    for cause in StallCause::ALL {
        let name = match cause {
            StallCause::RemoteRegister => "core.stall_cycles.remote_register",
            StallCause::RemoteMemory => "core.stall_cycles.remote_memory",
            StallCause::ForkCopy => "core.stall_cycles.fork_copy",
            StallCause::NocEjection => "core.stall_cycles.noc_ejection",
            StallCause::Local => "core.stall_cycles.local",
        };
        values.set(name, breakdown(&|b| b.stalled[cause.index()]));
    }
    values.set("core.parked_cycles", breakdown(&|b| b.parked));
    values.set("core.idle_cycles", breakdown(&|b| b.idle));
    values.set("obs.unattributed_s", own("traced"));
}

/// Checks a traced cell against the untraced reference: the probe must
/// not have changed a single statistic.
fn check_traced(what: &str, traced: &SimStats, reference: &SimStats, gate: &mut Gate) {
    let outcome = if traced == reference {
        Ok(())
    } else {
        Err(format!(
            "the traced run differs from the untraced one ({} vs {} cycles)",
            traced.total_cycles, reference.total_cycles
        ))
    };
    gate.record(&format!("{what} (traced)"), outcome);
}

/// The traced per-layer run of a single-cell workload.
pub fn layers_single(cell: &SingleCell, seed: u64, gate: &mut Gate) -> Result<Outcome, String> {
    let expected = cell.kind.expected(seed);
    let label = cell.kind.label();
    let fail = |e: &dyn std::fmt::Display| format!("{label}: {e}");
    let sim = ManyCoreSim::new(cell.config.clone());

    // Warm-up, then the untraced pass over the same path.
    {
        let program = cell.kind.program(seed);
        let arena = cell.arena(&program).map_err(|e| fail(&e))?;
        sim.simulate_arena(&arena).map_err(|e| fail(&e))?;
    }
    let start = Instant::now();
    let program = cell.kind.program(seed);
    let arena = cell.arena(&program).map_err(|e| fail(&e))?;
    let sim_start = Instant::now();
    let untraced = sim.simulate_arena(&arena).map_err(|e| fail(&e))?;
    let (untraced_s, untraced_run_s) = (
        start.elapsed().as_secs_f64(),
        sim_start.elapsed().as_secs_f64(),
    );
    gate.record(
        &label,
        check_cell(&untraced.outputs, &expected, &untraced.stats, None),
    );
    let reference = untraced.stats.clone();
    drop(untraced);
    drop(arena);

    let tracer = Arc::new(Tracer::new());
    let traced = tracer.span("traced", None, || -> Result<_, String> {
        let program = tracer.span("workloads.generate", None, || cell.kind.program(seed));
        let arena = tracer
            .span("trace.build", Some(0), || cell.arena(&program))
            .map_err(|e| fail(&e))?;
        let (result, probe, arena) =
            traced_simulate(&cell.config, arena, &tracer, 0).map_err(|e| fail(&e))?;
        let state_bytes = result.sim_state_bytes();
        let core_of = result.core_of.clone();
        let cycles = result.stats.total_cycles;
        gate.record(
            &label,
            check_cell(&result.outputs, &expected, &result.stats, None),
        );
        let stats = result.stats.clone();
        drop(result);
        machine_exec(&program, cell.kind.fuel(), &tracer, 0).map_err(|e| fail(&e))?;
        verdict(&arena, &core_of, &cell.config, cycles, Some(&tracer), 0)?;
        Ok(CellTrace {
            stats,
            probe,
            state_bytes,
        })
    })?;
    check_traced(&label, &traced.stats, &reference, gate);

    let spans = Arc::into_inner(tracer)
        .expect("the tracer's users are done")
        .into_spans();
    spans::check_tiling(&spans)?;
    let totals = spans::totals_by_name(&spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9);
    let mut values = Values::default();
    layer_values(&spans, std::slice::from_ref(&traced), &mut values);
    let simulate = total("engine.simulate");
    values.set("driver.workers", 1.0);
    values.set("driver.cells_serial_s", simulate);
    values.set("driver.parallel_speedup", simulate / untraced_run_s);
    values.set("driver.frontend_share", 0.0);
    let traced_path = total("workloads.generate") + total("trace.build") + simulate;
    values.set("obs.trace_overhead", traced_path / untraced_s);
    Ok(Outcome {
        values,
        samples: Vec::new(),
        workers: 1,
        spans,
        sim_cycles: traced.stats.total_cycles,
    })
}

/// The traced per-layer run of `dse_sweep`.
pub fn layers_grid(grid: &Grid, seed: u64, gate: &mut Gate) -> Result<Outcome, String> {
    let expected: Vec<Vec<u64>> = grid.kinds.iter().map(|k| k.expected(seed)).collect();
    let programs: Vec<Program> = grid.kinds.iter().map(|k| k.program(seed)).collect();
    let parallel = plain_sweep(grid, &programs, None);
    let workers = default_workers(parallel.len());

    // Warm-up, then the parallel sweep `run_s` measures, then the
    // untraced one-worker pass the traced pass is compared with.
    let warm = parallel.run();
    let reference: Vec<SimStats> = check_points(&warm, grid, &expected, None, gate)
        .into_iter()
        .map(|r| r.map(|r| r.stats.clone()))
        .collect::<Option<_>>()
        .ok_or_else(|| format!("a warm-up cell failed: {}", gate.errors.join("; ")))?;
    drop(warm);
    let start = Instant::now();
    let points = parallel.run();
    let run_s = start.elapsed().as_secs_f64();
    check_points(&points, grid, &expected, Some(&reference), gate);
    drop(points);
    let start = Instant::now();
    let programs_again: Vec<Program> = grid.kinds.iter().map(|k| k.program(seed)).collect();
    let points = plain_sweep(grid, &programs_again, Some(1)).run();
    let untraced_s = start.elapsed().as_secs_f64();
    check_points(&points, grid, &expected, Some(&reference), gate);
    drop(points);

    let tracer = Arc::new(Tracer::new());
    let cells = Arc::new(Mutex::new(Vec::new()));
    let points = tracer.span("traced", None, || -> Result<_, String> {
        let programs = tracer.span("workloads.generate", None, || {
            grid.kinds
                .iter()
                .map(|k| k.program(seed))
                .collect::<Vec<_>>()
        });
        let columns = grid.configs.len();
        let sweep = sweep_of(grid, &programs, Some(1), |column, config| TracedBackend {
            config: config.clone(),
            column,
            columns,
            rows_done: AtomicUsize::new(0),
            tracer: tracer.clone(),
            cells: cells.clone(),
        });
        let points = tracer.span("driver.sweep", None, || sweep.run());
        // Calibration outside the measured path: the machine layer alone,
        // once per cell, as each cell re-runs it.
        for (row, (kind, program)) in grid.kinds.iter().zip(&programs).enumerate() {
            for column in 0..columns {
                machine_exec(program, kind.fuel(), &tracer, row * columns + column)?;
            }
        }
        Ok(points)
    })?;
    check_points(&points, grid, &expected, None, gate);
    let mut cells = Arc::into_inner(cells)
        .expect("the sweep is done")
        .into_inner()
        .expect("no cell recorder panicked");
    cells.sort_by_key(|(cell, _)| *cell);
    if cells.len() != reference.len() {
        return Err(format!(
            "{} of {} cells were traced",
            cells.len(),
            reference.len()
        ));
    }
    for ((cell, traced), reference) in cells.iter().zip(&reference) {
        check_traced(&format!("cell {cell}"), &traced.stats, reference, gate);
    }
    let cells: Vec<CellTrace> = cells.into_iter().map(|(_, c)| c).collect();
    let sim_cycles = cells.iter().map(|c| c.stats.total_cycles).sum();

    let spans = Arc::into_inner(tracer)
        .expect("the tracer's users are done")
        .into_spans();
    spans::check_tiling(&spans)?;
    let totals = spans::totals_by_name(&spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9);
    let mut values = Values::default();
    layer_values(&spans, &cells, &mut values);
    let serial = total("driver.cell");
    values.set("driver.workers", workers as f64);
    values.set("driver.cells_serial_s", serial);
    values.set("driver.parallel_speedup", serial / run_s);
    values.set("driver.frontend_share", total("trace.build") / serial);
    let traced_path = total("workloads.generate") + total("driver.sweep");
    values.set("obs.trace_overhead", traced_path / untraced_s);
    Ok(Outcome {
        values,
        samples: vec![("run_s", vec![run_s])],
        workers,
        spans,
        sim_cycles,
    })
}

/// Runs one workload in the requested mode.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    gate: &mut Gate,
) -> Result<Outcome, String> {
    match (workload.single(), workload.grid(), traced) {
        (Some(cell), _, false) => end_to_end_single(&cell, seed, seconds, gate),
        (Some(cell), _, true) => layers_single(&cell, seed, gate),
        (None, Some(grid), false) => end_to_end_grid(&grid, seed, seconds, gate),
        (None, Some(grid), true) => layers_grid(&grid, seed, gate),
        (None, None, _) => unreachable!("every workload is single-cell or a grid"),
    }
}
