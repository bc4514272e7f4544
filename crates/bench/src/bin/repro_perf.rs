//! Wall-clock comparison of the event-driven many-core simulator against
//! the retained cycle-stepping reference on the large-scale workloads of
//! `parsecs_workloads::scale` — the artefact behind the repository's
//! simulator performance trajectory.
//!
//! Every cell simulates one pre-sectioned trace with both engines,
//! asserts the two [`SimResult`](parsecs_core::SimResult)s are
//! **bit-identical** (this is the
//! large-scale differential test), checks the functional outputs against
//! the workload's Rust oracle, and records the wall-clock times (best of
//! [`RUNS`] after one warm-up) in `BENCH_sim.json`.
//!
//! The headline cell is the serial `chain_sum` under a latency-stress NoC
//! (a deeply pipelined interconnect charging 96+96 cycles per leg): the
//! run is dominated by cycles in which every core is idle or stalled on a
//! known future event, which the event-driven scheduler skips in O(1) and
//! the cycle stepper scans core by core. The acceptance bar is a ≥5×
//! speedup there at 64 cores on ≥1M dynamic instructions.
//!
//! The functional front-end is the **streaming trace pipeline**: each
//! workload is pre-executed once through [`TraceArena::from_program`]
//! (machine → streaming sectioner → arena, one pass) and both engines
//! simulate the same arena. The pipeline itself is also measured: the
//! `chain_sum` cell times the retired two-pass front-end
//! (`Machine::run_traced` + `SectionedTrace::from_trace`) against the
//! streaming pipeline and records the speedup plus the arena's
//! bytes-per-instruction footprint.
//!
//! The run fails (exit code 1) when any cell reports a forced stall
//! release — the deadlock detector fired, so the timings cannot be
//! trusted — when the headline speedup drops below the 5x bar, or (full
//! mode) when the streaming pipeline's advantage over the two-pass
//! front-end drops below 2x on the 1.2M-instruction chain_sum cell; CI
//! runs the quick grid under the same engine gates.
//!
//! A **validation guard row** always rides along: the stats-only
//! 1024-core `fan_chain` cell is timed with `SimConfig::validate`
//! explicitly off and explicitly on. The off cell is the exact hot path
//! of the pre-validation simulator (one never-taken branch), so its time
//! must stay within noise (±15%, full mode) of the stats-only mode cell
//! measured in the same process — the gate proving the static analyzer
//! is zero-cost when disabled. Both times land in `BENCH_sim.json` so
//! the absolute numbers stay comparable across revisions.
//!
//! A **probe guard row** rides along the same cell: the explicit probed
//! entry point ([`ManyCoreSim::simulate_arena_probed`]) with the
//! compiled-out [`NoopProbe`] must stay within noise (±15%, full mode)
//! of the unprobed stats cell measured in the same process — the gate
//! proving the telemetry layer is zero-cost when disabled — and an
//! enabled [`CountingProbe`] run must be bit-identical to the unprobed
//! one (observers never steer). Every grid row also records the cycle
//! attribution telemetry (occupancy plus busy / stalled-by-cause /
//! parked / idle chip totals) in `BENCH_sim.json`.
//!
//! Usage: `repro_perf [--quick] [--validate] [--json [PATH]]
//! [--trace-out PATH]` — `--quick` shrinks the grid for CI smoke runs
//! (default JSON path `BENCH_sim.json`); `--validate` runs every grid
//! cell with the full static analysis (`parsecs-check`) on, which also
//! disarms the guard rows' noise gates (every cell then pays the
//! analysis by design); `--trace-out`
//! re-runs the headline cell with a streaming
//! [`ChromeTraceWriter`] and writes a
//! Perfetto-loadable Chrome trace to `PATH`.

use std::io::BufWriter;
use std::time::Instant;

use parsecs_bench::{json, AttributionTotals};
use parsecs_core::{
    ChainAffine, ChromeTraceWriter, CountingProbe, ManyCoreSim, NoopProbe, ScheduleBounds,
    SectionedTrace, SimConfig, TraceArena,
};
use parsecs_isa::Program;
use parsecs_noc::NocConfig;
use parsecs_workloads::scale;

/// Timed rounds per cell (after one untimed warm-up); each round times
/// the event-driven engine and the reference back to back, and the best
/// time per engine is recorded, so noisy-machine phases hit both engines
/// rather than biasing one.
const RUNS: usize = 5;

struct Cell {
    workload: String,
    config: String,
    sim: ManyCoreSim,
    trace: std::rc::Rc<TraceArena>,
    expected: Vec<u64>,
    headline: bool,
}

struct Row {
    workload: String,
    config: String,
    cores: usize,
    instructions: u64,
    sections: usize,
    total_cycles: u64,
    fetch_ipc: f64,
    forced_stall_releases: u64,
    arena_bytes_per_insn: f64,
    event_ms: f64,
    reference_ms: f64,
    speedup: f64,
    /// Chip-wide fetch-slot occupancy over all configured cores.
    occupancy: f64,
    /// Chip-wide sums of the per-core cycle attribution table.
    attr: AttributionTotals,
    headline: bool,
}

/// Streaming-vs-two-pass front-end comparison on the headline workload.
struct Pipeline {
    workload: String,
    instructions: u64,
    legacy_ms: f64,
    streaming_ms: f64,
    speedup: f64,
    arena_bytes_per_insn: f64,
}

/// Full-mode vs stats-only comparison on the 1024-core chip-scale cell:
/// what dropping the stage table (and the resolver's three stage
/// columns) buys in wall clock and resident state.
struct ModeRow {
    workload: String,
    cores: usize,
    instructions: u64,
    full_ms: f64,
    stats_ms: f64,
    speedup: f64,
    full_state_bytes_per_insn: f64,
    stats_state_bytes_per_insn: f64,
}

/// Timed rounds for the chip-scale full-vs-stats cell (after one untimed
/// warm-up per mode): the cell simulates 10M+ instructions at 1024
/// cores, so a short best-of keeps the bench's runtime sane.
const MODE_RUNS: usize = 2;

/// The validation guard: the stats-only chip-scale cell with the static
/// analysis explicitly off (the pre-validation hot path) and explicitly
/// on (analysis + simulation).
struct GuardRow {
    workload: String,
    cores: usize,
    instructions: u64,
    validate_off_ms: f64,
    validate_on_ms: f64,
    /// `validate_on_ms / validate_off_ms` — what the full static
    /// analysis costs on top of the simulation when armed.
    overhead: f64,
    /// Measured cycles of the validated run, paired with its schedule
    /// bounds below.
    cycles: u64,
    /// The schedule analyzer's verdict attached by the validated run:
    /// certified lower bound plus the list-schedule prediction.
    schedule: ScheduleBounds,
}

/// Times the stats-only cell with validation off and on. The off
/// configuration pins `validate: false` regardless of `PARSECS_VALIDATE`,
/// so the guard always measures the unvalidated hot path.
fn measure_guard(name: &str, arena: &TraceArena, cores: usize) -> GuardRow {
    let mut off_config = SimConfig::with_cores(cores).stats_only();
    off_config.validate = false;
    let off_sim = ManyCoreSim::new(off_config);
    let on_sim = ManyCoreSim::new(SimConfig::with_cores(cores).stats_only().validated());
    let off = off_sim.simulate_arena(arena).expect("simulates");
    let on = on_sim.simulate_arena(arena).expect("simulates");
    assert_eq!(
        off.stats, on.stats,
        "{name}: validation changed the timing model"
    );
    assert!(on.check.as_ref().is_some_and(|report| report.is_clean()));
    let schedule = on
        .check
        .as_ref()
        .and_then(|report| report.schedule.clone())
        .expect("a validated run attaches schedule bounds");
    let cycles = on.stats.total_cycles;
    assert!(
        cycles >= schedule.lb,
        "{name}: measured {cycles} cycles undercuts the certified bound {}",
        schedule.lb
    );
    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    for _ in 0..MODE_RUNS {
        let (_, ms) = timed(|| off_sim.simulate_arena(arena).expect("simulates"));
        off_ms = off_ms.min(ms);
        let (_, ms) = timed(|| on_sim.simulate_arena(arena).expect("simulates"));
        on_ms = on_ms.min(ms);
    }
    GuardRow {
        workload: name.to_string(),
        cores,
        instructions: arena.len() as u64,
        validate_off_ms: off_ms,
        validate_on_ms: on_ms,
        overhead: on_ms / off_ms,
        cycles,
        schedule,
    }
}

/// Times both stats modes on one arena at `cores` cores and checks the
/// streaming aggregates are bit-identical to the recorded ones.
fn measure_modes(name: &str, arena: &TraceArena, cores: usize, validate: bool) -> ModeRow {
    let mut full_config = SimConfig::with_cores(cores);
    full_config.validate = validate;
    let mut stats_config = SimConfig::with_cores(cores).stats_only();
    stats_config.validate = validate;
    let full_sim = ManyCoreSim::new(full_config);
    let stats_sim = ManyCoreSim::new(stats_config);
    let full = full_sim.simulate_arena(arena).expect("simulates");
    let stats = stats_sim.simulate_arena(arena).expect("simulates");
    assert_eq!(
        full.stats, stats.stats,
        "{name} @{cores}c: stats-only aggregates diverge from full mode"
    );
    assert_eq!(full.outputs, stats.outputs);
    let mut full_ms = f64::INFINITY;
    let mut stats_ms = f64::INFINITY;
    for _ in 0..MODE_RUNS {
        let (_, ms) = timed(|| full_sim.simulate_arena(arena).expect("simulates"));
        full_ms = full_ms.min(ms);
        let (_, ms) = timed(|| stats_sim.simulate_arena(arena).expect("simulates"));
        stats_ms = stats_ms.min(ms);
    }
    let n = arena.len() as f64;
    ModeRow {
        workload: name.to_string(),
        cores,
        instructions: arena.len() as u64,
        full_ms,
        stats_ms,
        speedup: full_ms / stats_ms,
        full_state_bytes_per_insn: full.sim_state_bytes() as f64 / n,
        stats_state_bytes_per_insn: stats.sim_state_bytes() as f64 / n,
    }
}

fn stress_noc() -> SimConfig {
    let mut config = SimConfig::with_cores(64);
    config.noc = NocConfig {
        base_latency: 96,
        per_hop_latency: 96,
        link_bandwidth: None,
    };
    config
}

fn arena_of(program: &Program, fuel: u64) -> std::rc::Rc<TraceArena> {
    std::rc::Rc::new(TraceArena::from_program(program, fuel).expect("workload halts within fuel"))
}

/// Times the two front-ends on one program: the retired two-pass path
/// (materialise the trace, then section it) against the streaming
/// pipeline (best of 3 each).
fn measure_pipeline(name: &str, program: &Program, fuel: u64) -> Pipeline {
    // One untimed warm-up per path, so neither side's first timed round
    // runs cold.
    std::hint::black_box(SectionedTrace::from_program(program, fuel).expect("halts"));
    let mut arena = TraceArena::from_program(program, fuel).expect("halts");
    let mut legacy_ms = f64::INFINITY;
    let mut streaming_ms = f64::INFINITY;
    for _ in 0..3 {
        let (_, ms) = timed(|| SectionedTrace::from_program(program, fuel).expect("halts"));
        legacy_ms = legacy_ms.min(ms);
        let (streamed, ms) = timed(|| TraceArena::from_program(program, fuel).expect("halts"));
        streaming_ms = streaming_ms.min(ms);
        arena = streamed;
    }
    Pipeline {
        workload: name.to_string(),
        instructions: arena.len() as u64,
        legacy_ms,
        streaming_ms,
        speedup: legacy_ms / streaming_ms,
        arena_bytes_per_insn: arena.bytes_per_instruction(),
    }
}

/// Applies the `--validate` flag to one cell configuration.
fn with_validation(mut config: SimConfig, validate: bool) -> SimConfig {
    if validate {
        config.validate = true;
    }
    config
}

fn build_grid(quick: bool, validate: bool) -> Vec<Cell> {
    // ~1M+ dynamic instructions per workload at full scale; ~1/12 of that
    // for the CI smoke grid.
    let (chain_n, hist_n, tree_n) = if quick {
        (8_000, 8_000, 20_000)
    } else {
        (110_000, 100_000, 250_000)
    };
    let seed = 7;
    let buckets = 64;

    let chain = arena_of(
        &scale::chain_sum_program(chain_n, seed),
        scale::chain_sum_fuel(chain_n),
    );
    let histogram = arena_of(
        &scale::histogram_program(hist_n, buckets, seed),
        scale::histogram_fuel(hist_n, buckets),
    );
    let tree = arena_of(
        &scale::tree_sum_program(tree_n, seed),
        scale::tree_sum_fuel(tree_n),
    );

    vec![
        Cell {
            workload: format!("chain_sum-{chain_n}"),
            config: "64c:default".into(),
            sim: ManyCoreSim::new(with_validation(SimConfig::with_cores(64), validate)),
            trace: chain.clone(),
            expected: scale::chain_sum_expected(chain_n, seed),
            headline: false,
        },
        Cell {
            workload: format!("chain_sum-{chain_n}"),
            config: "64c:noc96+96".into(),
            sim: ManyCoreSim::new(with_validation(stress_noc(), validate)),
            trace: chain.clone(),
            expected: scale::chain_sum_expected(chain_n, seed),
            headline: true,
        },
        Cell {
            // The chained-writer co-location policy, measured where the
            // handoff path is long: under the stress NoC each link's
            // renaming round trip to the previous link costs 2×(96+96)
            // cycles unless the two links share a core. Chain-affine
            // placement roughly halves the simulated runtime of this cell
            // versus the round-robin stress cell above.
            workload: format!("chain_sum-{chain_n}"),
            config: "64c:noc96+96:chain-affine".into(),
            sim: ManyCoreSim::new(with_validation(
                stress_noc().with_placement(ChainAffine),
                validate,
            )),
            trace: chain,
            expected: scale::chain_sum_expected(chain_n, seed),
            headline: false,
        },
        Cell {
            workload: format!("histogram-{hist_n}x{buckets}"),
            config: "64c:default".into(),
            sim: ManyCoreSim::new(with_validation(SimConfig::with_cores(64), validate)),
            trace: histogram,
            expected: scale::histogram_expected(hist_n, buckets, seed),
            headline: false,
        },
        Cell {
            workload: format!("tree_sum-{tree_n}"),
            config: "64c:default".into(),
            sim: ManyCoreSim::new(with_validation(SimConfig::with_cores(64), validate)),
            trace: tree,
            expected: scale::tree_sum_expected(tree_n, seed),
            headline: false,
        },
    ]
}

fn timed<T>(run: impl Fn() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = std::hint::black_box(run());
    (result, start.elapsed().as_secs_f64() * 1e3)
}

fn measure(cell: &Cell) -> Row {
    // One untimed warm-up per engine, then RUNS interleaved rounds; keep
    // each engine's best time.
    let event = cell.sim.simulate_arena(&cell.trace).expect("simulates");
    let reference = cell
        .sim
        .simulate_arena_reference(&cell.trace)
        .expect("reference simulates");
    let mut event_ms = f64::INFINITY;
    let mut reference_ms = f64::INFINITY;
    for _ in 0..RUNS {
        let (_, ms) = timed(|| {
            cell.sim
                .simulate_arena_reference(&cell.trace)
                .expect("reference simulates")
        });
        reference_ms = reference_ms.min(ms);
        let (_, ms) = timed(|| cell.sim.simulate_arena(&cell.trace).expect("simulates"));
        event_ms = event_ms.min(ms);
    }
    assert_eq!(
        event, reference,
        "{} [{}]: event-driven and reference results diverge",
        cell.workload, cell.config
    );
    assert_eq!(
        event.outputs, cell.expected,
        "{} [{}]: outputs disagree with the oracle",
        cell.workload, cell.config
    );
    Row {
        workload: cell.workload.clone(),
        config: cell.config.clone(),
        cores: cell.sim.config().cores,
        instructions: event.stats.instructions,
        sections: event.stats.sections,
        total_cycles: event.stats.total_cycles,
        fetch_ipc: event.stats.fetch_ipc,
        forced_stall_releases: event.stats.forced_stall_releases,
        arena_bytes_per_insn: event.stats.trace_bytes_per_instruction(),
        event_ms,
        reference_ms,
        speedup: reference_ms / event_ms,
        occupancy: event.stats.occupancy(),
        attr: AttributionTotals::from_cores(&event.stats.attribution),
        headline: cell.headline,
    }
}

/// The probe guard: the stats-only chip-scale cell through the explicit
/// probed entry point, with the compiled-out [`NoopProbe`] (must sit in
/// the unprobed cell's noise band — the zero-cost contract) and with an
/// enabled [`CountingProbe`] (bit-identical by contract; its cost is
/// recorded for scale, not gated).
struct ProbeRow {
    workload: String,
    cores: usize,
    instructions: u64,
    noop_ms: f64,
    counting_ms: f64,
    /// `counting_ms / noop_ms` — what an enabled every-event observer
    /// costs on top of the bare engine.
    counting_overhead: f64,
    /// Events the counting probe observed in one run.
    events: u64,
}

/// Times the stats-only cell through [`ManyCoreSim::simulate_arena_probed`]
/// with both probes and asserts the counting run is bit-identical to the
/// unprobed one.
fn measure_probe(name: &str, arena: &TraceArena, cores: usize) -> ProbeRow {
    let mut config = SimConfig::with_cores(cores).stats_only();
    config.validate = false;
    let sim = ManyCoreSim::new(config);
    let plain = sim.simulate_arena(arena).expect("simulates");
    let mut counting = CountingProbe::default();
    let counted = sim
        .simulate_arena_probed(arena, &mut counting)
        .expect("simulates");
    assert_eq!(plain, counted, "{name}: an observing probe steered the run");
    assert!(counting.events() > 0, "{name}: the probe observed nothing");
    let mut noop_ms = f64::INFINITY;
    let mut counting_ms = f64::INFINITY;
    for _ in 0..MODE_RUNS {
        let (_, ms) = timed(|| {
            sim.simulate_arena_probed(arena, &mut NoopProbe)
                .expect("simulates")
        });
        noop_ms = noop_ms.min(ms);
        let (_, ms) = timed(|| {
            sim.simulate_arena_probed(arena, &mut CountingProbe::default())
                .expect("simulates")
        });
        counting_ms = counting_ms.min(ms);
    }
    ProbeRow {
        workload: name.to_string(),
        cores,
        instructions: arena.len() as u64,
        noop_ms,
        counting_ms,
        counting_overhead: counting_ms / noop_ms,
        events: counting.events(),
    }
}

fn to_json(
    rows: &[Row],
    pipeline: &Pipeline,
    modes: &ModeRow,
    guard: &GuardRow,
    probe: &ProbeRow,
) -> String {
    let mut body: Vec<String> = rows
        .iter()
        .map(|r| {
            let row = json::Obj::new()
                .str("workload", &r.workload)
                .str("config", &r.config)
                .field("cores", r.cores)
                .field("instructions", r.instructions)
                .field("sections", r.sections)
                .field("total_cycles", r.total_cycles)
                .fixed("fetch_ipc", r.fetch_ipc, 4)
                .field("forced_stall_releases", r.forced_stall_releases)
                .fixed("arena_bytes_per_insn", r.arena_bytes_per_insn, 1)
                .fixed("event_ms", r.event_ms, 3)
                .fixed("reference_ms", r.reference_ms, 3)
                .fixed("speedup", r.speedup, 2);
            r.attr
                .append_fields(row, r.occupancy)
                .field("headline", r.headline)
                .build()
        })
        .collect();
    body.push(
        json::Obj::new()
            .str("workload", &pipeline.workload)
            .str("config", "pipeline")
            .field("instructions", pipeline.instructions)
            .fixed("legacy_ms", pipeline.legacy_ms, 3)
            .fixed("streaming_ms", pipeline.streaming_ms, 3)
            .fixed("pipeline_speedup", pipeline.speedup, 2)
            .fixed("arena_bytes_per_insn", pipeline.arena_bytes_per_insn, 1)
            .build(),
    );
    body.push(
        json::Obj::new()
            .str("workload", &modes.workload)
            .str("config", "full-vs-stats")
            .field("cores", modes.cores)
            .field("instructions", modes.instructions)
            .fixed("full_ms", modes.full_ms, 3)
            .fixed("stats_ms", modes.stats_ms, 3)
            .fixed("stats_speedup", modes.speedup, 2)
            .fixed(
                "full_state_bytes_per_insn",
                modes.full_state_bytes_per_insn,
                1,
            )
            .fixed(
                "stats_state_bytes_per_insn",
                modes.stats_state_bytes_per_insn,
                1,
            )
            .build(),
    );
    body.push(
        json::Obj::new()
            .str("workload", &guard.workload)
            .str("config", "validate-guard")
            .field("cores", guard.cores)
            .field("instructions", guard.instructions)
            .fixed("validate_off_ms", guard.validate_off_ms, 3)
            .fixed("validate_on_ms", guard.validate_on_ms, 3)
            .fixed("validate_overhead", guard.overhead, 3)
            .field("total_cycles", guard.cycles)
            .field("lb_cycles", guard.schedule.lb)
            .field("predicted_cycles", guard.schedule.predicted_cycles)
            .fixed("lb_tightness", guard.schedule.tightness(guard.cycles), 4)
            .build(),
    );
    body.push(
        json::Obj::new()
            .str("workload", &probe.workload)
            .str("config", "probe-guard")
            .field("cores", probe.cores)
            .field("instructions", probe.instructions)
            .fixed("noop_probe_ms", probe.noop_ms, 3)
            .fixed("counting_probe_ms", probe.counting_ms, 3)
            .fixed("counting_overhead", probe.counting_overhead, 3)
            .field("probe_events", probe.events)
            .build(),
    );
    json::array(body)
}

fn print_table(rows: &[Row]) {
    println!(
        "{:<20} {:<16} {:>9} {:>9} {:>11} {:>7} {:>7} {:>10} {:>10} {:>8}",
        "workload",
        "config",
        "insns",
        "sections",
        "cycles",
        "forced",
        "B/insn",
        "event ms",
        "ref ms",
        "speedup"
    );
    for r in rows {
        println!(
            "{:<20} {:<16} {:>9} {:>9} {:>11} {:>7} {:>7.1} {:>10.1} {:>10.1} {:>7.1}x{}",
            r.workload,
            r.config,
            r.instructions,
            r.sections,
            r.total_cycles,
            r.forced_stall_releases,
            r.arena_bytes_per_insn,
            r.event_ms,
            r.reference_ms,
            r.speedup,
            if r.headline { "  <- headline" } else { "" }
        );
    }
}

fn main() {
    let mut quick = false;
    let mut validate = false;
    let mut json_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--validate" => validate = true,
            "--json" => {
                json_path = Some(match args.peek() {
                    Some(path) if !path.starts_with("--") => args.next().expect("peeked"),
                    _ => "BENCH_sim.json".into(),
                });
            }
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out takes a file path"));
            }
            other => {
                eprintln!(
                    "unknown argument '{other}' (supported: --quick --validate \
                     --json [PATH] --trace-out PATH)"
                );
                std::process::exit(2);
            }
        }
    }

    let grid = build_grid(quick, validate);
    eprintln!(
        "measuring {} cells ({} mode{}, best of {RUNS} runs per engine)...",
        grid.len(),
        if quick { "quick" } else { "full" },
        if validate { ", validated" } else { "" }
    );
    let rows: Vec<Row> = grid.iter().map(measure).collect();
    print_table(&rows);

    // Front-end pipeline comparison on the chain_sum workload.
    let chain_n = if quick { 8_000 } else { 110_000 };
    let pipeline = measure_pipeline(
        &format!("chain_sum-{chain_n}"),
        &scale::chain_sum_program(chain_n, 7),
        scale::chain_sum_fuel(chain_n),
    );
    println!(
        "pipeline {:<22} {:>9} insns  legacy {:>7.1} ms  streaming {:>7.1} ms  \
         {:>4.1}x  arena {:>5.1} B/insn",
        pipeline.workload,
        pipeline.instructions,
        pipeline.legacy_ms,
        pipeline.streaming_ms,
        pipeline.speedup,
        pipeline.arena_bytes_per_insn,
    );

    // Full-vs-stats on the 1024-core fan_chain cell: the batched drain
    // plus the dropped stage table must buy a real wall-clock win at the
    // scale where the simulator's own state blows the cache (>=10M
    // instructions in full mode; a ~1M-instruction instance in quick
    // mode, where the gate stays unarmed).
    let (chains, links) = if quick { (1024, 70) } else { (1024, 700) };
    let fan = arena_of(
        &scale::fan_chain_program(chains, links, 7),
        scale::fan_chain_fuel(chains, links),
    );
    let modes = measure_modes(&format!("fan_chain-{chains}x{links}"), &fan, 1024, validate);
    println!(
        "modes    {:<22} {:>9} insns  full {:>9.1} ms  stats {:>9.1} ms  {:>4.2}x  \
         state {:>5.1} -> {:>4.1} B/insn",
        modes.workload,
        modes.instructions,
        modes.full_ms,
        modes.stats_ms,
        modes.speedup,
        modes.full_state_bytes_per_insn,
        modes.stats_state_bytes_per_insn,
    );

    // The validation guard row: the same stats-only chip-scale cell with
    // the static analysis pinned off (the pre-validation hot path) and
    // pinned on.
    let guard = measure_guard(&modes.workload.clone(), &fan, 1024);
    println!(
        "guard    {:<22} {:>9} insns  val-off {:>6.1} ms  val-on {:>6.1} ms  {:>4.2}x",
        guard.workload,
        guard.instructions,
        guard.validate_off_ms,
        guard.validate_on_ms,
        guard.overhead,
    );

    // The probe guard row: the same stats-only chip-scale cell through
    // the explicit probed entry point, compiled-out and enabled.
    let probe = measure_probe(&modes.workload.clone(), &fan, 1024);
    println!(
        "probe    {:<22} {:>9} insns  noop {:>9.1} ms  counting {:>7.1} ms  {:>4.2}x  \
         {} events",
        probe.workload,
        probe.instructions,
        probe.noop_ms,
        probe.counting_ms,
        probe.counting_overhead,
        probe.events,
    );

    // A Perfetto-loadable Chrome trace of the headline cell: section
    // residency spans per core, fork flow arrows, stall markers and
    // sampled chip gauges, one microsecond per simulated cycle.
    if let Some(path) = &trace_out {
        let cell = grid.iter().find(|c| c.headline).expect("headline cell");
        let file = std::fs::File::create(path).expect("create the --trace-out file");
        let mut writer = ChromeTraceWriter::new(BufWriter::new(file));
        let traced = cell
            .sim
            .simulate_arena_probed(&cell.trace, &mut writer)
            .expect("simulates");
        assert_eq!(traced.outputs, cell.expected);
        let events = writer.events();
        writer.finish().expect("flush the Chrome trace");
        eprintln!(
            "wrote {events} trace events for {} [{}] to {path}",
            cell.workload, cell.config
        );
    }

    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&rows, &pipeline, &modes, &guard, &probe))
            .expect("write BENCH_sim.json");
        eprintln!("wrote {} rows to {path}", rows.len() + 4);
    }

    // Hard gates. Any forced stall release means the stall/wake model
    // broke down and every recorded timing is suspect — fail the run (and
    // CI) outright, in quick mode too. The headline event-vs-reference
    // speedup must also hold its >= 5x acceptance bar.
    let mut failed = false;
    for row in &rows {
        if row.forced_stall_releases > 0 {
            eprintln!(
                "FAIL: {} [{}] reports {} forced stall release(s); \
                 the timing model is not trustworthy",
                row.workload, row.config, row.forced_stall_releases
            );
            failed = true;
        }
    }
    let headline = rows.iter().find(|r| r.headline).expect("headline cell");
    if headline.speedup < 5.0 {
        eprintln!(
            "FAIL: headline speedup {:.1}x is below the 5x acceptance bar \
             (machine noise? rerun on an idle machine)",
            headline.speedup
        );
        failed = true;
    }
    // The streaming pipeline must beat the retired two-pass front-end by
    // >=2x on the full-size chain_sum cell (quick-mode instances are too
    // small for a stable ratio, so the gate only arms in full mode).
    if !quick && pipeline.speedup < 2.0 {
        eprintln!(
            "FAIL: streaming pipeline speedup {:.1}x is below the 2x \
             acceptance bar on {}",
            pipeline.speedup, pipeline.workload
        );
        failed = true;
    }
    // Stats-only must beat full mode by >=1.3x on the 10M-instruction
    // 1024-core cell (again full mode only: the quick instance fits in
    // cache, which is precisely the effect being measured).
    if !quick && modes.speedup < 1.3 {
        eprintln!(
            "FAIL: stats-only speedup {:.2}x is below the 1.3x acceptance bar \
             on {} at {} cores",
            modes.speedup, modes.workload, modes.cores
        );
        failed = true;
    }
    // Validation must be zero-cost when disabled: the guard's off cell is
    // the identical workload/mode as the stats cell above, so the two
    // times must agree within machine noise (+-15%). Disarmed in quick
    // mode (sub-100ms cells are all noise) and under --validate (the
    // stats cell then pays the analysis while the off cell never does).
    if !quick && !validate {
        let ratio = guard.validate_off_ms / modes.stats_ms;
        if !(0.85..=1.15).contains(&ratio) {
            eprintln!(
                "FAIL: validation-off stats cell at {:.1} ms deviates {:.0}% from \
                 the stats-only baseline {:.1} ms — the disabled validate path \
                 is not free",
                guard.validate_off_ms,
                (ratio - 1.0).abs() * 100.0,
                modes.stats_ms
            );
            failed = true;
        }
        // The telemetry layer must be zero-cost when compiled out: the
        // NoopProbe cell is the identical workload/mode as the stats
        // cell, with every hook monomorphized to nothing, so its time
        // must also sit in the same ±15% noise band.
        let probe_ratio = probe.noop_ms / modes.stats_ms;
        if !(0.85..=1.15).contains(&probe_ratio) {
            eprintln!(
                "FAIL: NoopProbe stats cell at {:.1} ms deviates {:.0}% from \
                 the stats-only baseline {:.1} ms — the disabled probe layer \
                 is not free",
                probe.noop_ms,
                (probe_ratio - 1.0).abs() * 100.0,
                modes.stats_ms
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
