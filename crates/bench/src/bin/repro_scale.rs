//! The 256–1024-core scale table — the first numbers this repository has
//! beyond 64 cores, now including the 100M-instruction regime.
//!
//! Every cell runs one ≥10M-dynamic-instruction workload (built once per
//! workload through the streaming trace pipeline,
//! [`TraceArena::from_program`]) on the event-driven engine at 256, 512
//! and 1024 cores, checks the functional outputs against the workload's
//! Rust oracle, and records:
//!
//! * the **pipeline** numbers — pre-execution + sectioning wall clock,
//!   sectioning throughput (instructions/s) and the arena footprint in
//!   bytes per instruction (gated at ≤ 120 B/insn; the old
//!   record-per-instruction representation cost ~250–350);
//! * the **simulation** numbers — wall clock, simulated cycles, fetch
//!   IPC, the peak per-core section count, and the **total resident
//!   footprint** (arena + simulator state, B/insn).
//!
//! Cells run in one of two modes. A **full** cell records the
//! per-instruction stage table. A **stats** cell runs stats-only
//! (`SimConfig::record_timings` off) over a *lean* arena
//! ([`TraceArena::from_program_lean`]): aggregates are bit-identical, no
//! stage table is materialised, and the total footprint is gated at
//! **≤ 80 B/insn** — the budget that lets 100M-instruction cells fit.
//!
//! Two cells are acceptance headlines:
//!
//! * `fan_chain` 1024×700 at **1024 cores, ≥10M instructions, full
//!   mode** — the deadlock detector staying silent at full chip width;
//! * `fan_chain` 1024×6600 at **1024 cores, ≥100M instructions,
//!   stats-only** — the run must complete under the 80 B/insn total
//!   budget with zero detector firings.
//!
//! Any forced stall release is reported through [`DriverError::Deadlock`]
//! and fails the run (exit 1), exactly as `ManyCoreBackend` would refuse
//! the report; the footprint gates fail the run the same way.
//!
//! The full grid also gates **chip-size scaling**: the 1024-core
//! `synth_histogram` cell must finish within 1.25× the wall clock of the
//! 512-core cell on the same arena. The pre-SoA engine regressed there —
//! doubling the modeled cores *slowed the simulator down* because the
//! per-core state was a vector of pointer-chasing structs — and this
//! gate keeps that inversion from coming back.
//!
//! Every row also records the run's cycle-attribution telemetry —
//! fetch-slot occupancy plus the chip-wide busy / stalled-by-cause /
//! parked / idle cycle totals — in the same JSON schema as
//! `BENCH_sim.json`.
//!
//! Usage: `repro_scale [--quick] [--validate] [--json [PATH]]
//! [--trace-out PATH]` — `--quick` shrinks the grid to one 256-core,
//! ~2M-instruction workload run in both modes for CI smoke runs
//! (default JSON path `BENCH_scale.json`); `--validate` runs every cell
//! with the full static analysis (`parsecs-check`) on, so a
//! structurally corrupt arena fails the run before it is ever
//! simulated; `--trace-out` re-runs the grid's first workload at
//! its smallest chip size with a streaming
//! [`ChromeTraceWriter`] and writes a
//! Perfetto-loadable Chrome trace to `PATH`.

use std::io::BufWriter;
use std::time::Instant;

use parsecs_bench::{json, AttributionTotals, RunStamp};
use parsecs_core::{ChromeTraceWriter, ManyCoreSim, SimConfig, TraceArena};
use parsecs_driver::DriverError;
use parsecs_isa::Program;
use parsecs_workloads::scale;

/// Arena footprint acceptance bar, in bytes per dynamic instruction.
const ARENA_BYTES_PER_INSN_BAR: f64 = 120.0;

/// Chip-size scaling bar: the 1024-core `synth_histogram` cell may take
/// at most this multiple of the 512-core cell's wall clock.
const SCALING_BAR: f64 = 1.25;

/// Total resident footprint (arena + simulator state) bar for stats-only
/// cells, in bytes per dynamic instruction.
const TOTAL_BYTES_PER_INSN_BAR: f64 = 80.0;

struct Workload {
    name: String,
    program: Program,
    fuel: u64,
    expected: Vec<u64>,
    /// Core counts to simulate this workload at.
    cores: Vec<usize>,
    /// `false` = full mode over a full arena; `true` = stats-only over a
    /// lean arena, gated at ≤ [`TOTAL_BYTES_PER_INSN_BAR`].
    stats_only: bool,
    /// Whether the largest-cores cell is the ≥10M full-mode acceptance
    /// headline.
    headline: bool,
    /// Whether this is the ≥100M stats-only acceptance cell.
    headline_100m: bool,
}

struct Row {
    workload: String,
    mode: &'static str,
    cores: usize,
    instructions: u64,
    sections: usize,
    pre_ms: f64,
    sectioning_insns_per_sec: f64,
    arena_bytes: u64,
    arena_bytes_per_insn: f64,
    sim_ms: f64,
    sim_state_bytes: u64,
    total_bytes_per_insn: f64,
    total_cycles: u64,
    fetch_ipc: f64,
    peak_sections_per_core: usize,
    forced_stall_releases: u64,
    /// Chip-wide fetch-slot occupancy over all configured cores.
    occupancy: f64,
    /// Chip-wide sums of the per-core cycle attribution table.
    attr: AttributionTotals,
    stats_only: bool,
    headline: bool,
    headline_100m: bool,
}

fn build_grid(quick: bool) -> Vec<Workload> {
    let seed = 7;
    if quick {
        // One ~2M-instruction workload at 256 cores for CI, in both
        // modes — the quick run exercises the 80 B/insn stats gate too.
        let (keys, buckets) = (140_000, 1024);
        return [false, true]
            .into_iter()
            .map(|stats_only| Workload {
                name: format!("synth_histogram-{keys}x{buckets}"),
                program: scale::synth_histogram_program(keys, buckets, seed),
                fuel: scale::synth_histogram_fuel(keys, buckets),
                expected: scale::synth_histogram_expected(keys, buckets, seed),
                cores: vec![256],
                stats_only,
                headline: false,
                headline_100m: false,
            })
            .collect();
    }
    let (keys, buckets) = (700_000, 4096);
    let (chains, links) = (1024, 700);
    let big_links = 6600;
    vec![
        Workload {
            name: format!("synth_histogram-{keys}x{buckets}"),
            program: scale::synth_histogram_program(keys, buckets, seed),
            fuel: scale::synth_histogram_fuel(keys, buckets),
            expected: scale::synth_histogram_expected(keys, buckets, seed),
            cores: vec![256, 512, 1024],
            stats_only: false,
            headline: false,
            headline_100m: false,
        },
        Workload {
            name: format!("fan_chain-{chains}x{links}"),
            program: scale::fan_chain_program(chains, links, seed),
            fuel: scale::fan_chain_fuel(chains, links),
            expected: scale::fan_chain_expected(chains, links, seed),
            cores: vec![256, 1024],
            stats_only: false,
            headline: true,
            headline_100m: false,
        },
        // The 100M-instruction regime: only reachable stats-only — a
        // recording run would hold ~150 B/insn of simulator state (15 GB)
        // against the stats-only ~17.
        Workload {
            name: format!("fan_chain-{chains}x{big_links}"),
            program: scale::fan_chain_program(chains, big_links, seed),
            fuel: scale::fan_chain_fuel(chains, big_links),
            expected: scale::fan_chain_expected(chains, big_links, seed),
            cores: vec![1024],
            stats_only: true,
            headline: false,
            headline_100m: true,
        },
    ]
}

fn measure(workload: &Workload, validate: bool) -> Vec<Row> {
    // The pipeline runs once per workload; every chip size simulates the
    // same arena. Stats-only cells use the lean arena (no written-
    // locations columns — the simulators never read them).
    let start = Instant::now();
    let arena = if workload.stats_only {
        TraceArena::from_program_lean(&workload.program, workload.fuel)
    } else {
        TraceArena::from_program(&workload.program, workload.fuel)
    }
    .expect("workload halts within fuel and fits the arena");
    let pre_ms = start.elapsed().as_secs_f64() * 1e3;
    let n = arena.len();

    workload
        .cores
        .iter()
        .map(|&cores| {
            let mut config = SimConfig::with_cores(cores);
            config.record_timings = !workload.stats_only;
            if validate {
                config.validate = true;
            }
            let sim = ManyCoreSim::new(config);
            let start = Instant::now();
            let result = sim.simulate_arena(&arena).expect("simulates");
            let sim_ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                result.outputs, workload.expected,
                "{} @{cores}c: outputs disagree with the oracle",
                workload.name
            );
            Row {
                workload: workload.name.clone(),
                mode: if workload.stats_only { "stats" } else { "full" },
                cores,
                instructions: result.stats.instructions,
                sections: result.stats.sections,
                pre_ms,
                sectioning_insns_per_sec: n as f64 / (pre_ms / 1e3),
                arena_bytes: result.stats.trace_arena_bytes,
                arena_bytes_per_insn: result.stats.trace_bytes_per_instruction(),
                sim_ms,
                sim_state_bytes: result.sim_state_bytes(),
                total_bytes_per_insn: result.total_bytes_per_instruction(),
                total_cycles: result.stats.total_cycles,
                fetch_ipc: result.stats.fetch_ipc,
                peak_sections_per_core: result.stats.peak_sections_per_core,
                forced_stall_releases: result.stats.forced_stall_releases,
                occupancy: result.stats.occupancy(),
                attr: AttributionTotals::from_cores(&result.stats.attribution),
                stats_only: workload.stats_only,
                headline: workload.headline && cores == *workload.cores.iter().max().unwrap(),
                headline_100m: workload.headline_100m,
            }
        })
        .collect()
}

fn to_json(rows: &[Row]) -> String {
    RunStamp::current().array(rows.iter().map(|r| {
        let row = json::Obj::new()
            .str("workload", &r.workload)
            .str("mode", r.mode)
            .field("cores", r.cores)
            .field("instructions", r.instructions)
            .field("sections", r.sections)
            .fixed("pre_ms", r.pre_ms, 3)
            .fixed("sectioning_insns_per_sec", r.sectioning_insns_per_sec, 0)
            .field("arena_bytes", r.arena_bytes)
            .fixed("arena_bytes_per_insn", r.arena_bytes_per_insn, 1)
            .fixed("sim_ms", r.sim_ms, 3)
            .field("sim_state_bytes", r.sim_state_bytes)
            .fixed("total_bytes_per_insn", r.total_bytes_per_insn, 1)
            .field("total_cycles", r.total_cycles)
            .fixed("fetch_ipc", r.fetch_ipc, 4)
            .field("peak_sections_per_core", r.peak_sections_per_core)
            .field("forced_stall_releases", r.forced_stall_releases);
        r.attr
            .append_fields(row, r.occupancy)
            .field("headline", r.headline)
            .field("headline_100m", r.headline_100m)
    }))
}

fn print_table(rows: &[Row]) {
    println!(
        "{:<26} {:>5} {:>6} {:>10} {:>8} {:>8} {:>9} {:>7} {:>7} {:>9} {:>11} {:>9} {:>7}",
        "workload",
        "mode",
        "cores",
        "insns",
        "sections",
        "pre ms",
        "Minsns/s",
        "B/insn",
        "tot B/i",
        "sim ms",
        "cycles",
        "fetchIPC",
        "forced"
    );
    for r in rows {
        println!(
            "{:<26} {:>5} {:>6} {:>10} {:>8} {:>8.0} {:>9.1} {:>7.1} {:>7.1} {:>9.0} {:>11} {:>9.1} {:>7}{}",
            r.workload,
            r.mode,
            r.cores,
            r.instructions,
            r.sections,
            r.pre_ms,
            r.sectioning_insns_per_sec / 1e6,
            r.arena_bytes_per_insn,
            r.total_bytes_per_insn,
            r.sim_ms,
            r.total_cycles,
            r.fetch_ipc,
            r.forced_stall_releases,
            if r.headline || r.headline_100m {
                "  <- headline"
            } else {
                ""
            }
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
                    _ => "BENCH_scale.json".into(),
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

    let grid = build_grid(quick);
    eprintln!(
        "scaling {} workload(s) across 256-1024 cores ({} mode{})...",
        grid.len(),
        if quick { "quick" } else { "full" },
        if validate { ", validated" } else { "" }
    );
    let rows: Vec<Row> = grid.iter().flat_map(|w| measure(w, validate)).collect();
    print_table(&rows);

    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&rows)).expect("write BENCH_scale.json");
        eprintln!("wrote {} rows to {path}", rows.len());
    }

    // A Perfetto-loadable Chrome trace of the grid's first workload at
    // its smallest chip size, stats-only over a lean arena (the
    // telemetry never reads the stage table).
    if let Some(path) = &trace_out {
        let workload = &grid[0];
        let cores = *workload.cores.iter().min().expect("cells exist");
        let arena = TraceArena::from_program_lean(&workload.program, workload.fuel)
            .expect("workload halts within fuel and fits the arena");
        let sim = ManyCoreSim::new(SimConfig::with_cores(cores).stats_only());
        let file = std::fs::File::create(path).expect("create the --trace-out file");
        let mut writer = ChromeTraceWriter::new(BufWriter::new(file));
        let traced = sim
            .simulate_arena_probed(&arena, &mut writer)
            .expect("simulates");
        assert_eq!(traced.outputs, workload.expected);
        let events = writer.events();
        writer.finish().expect("flush the Chrome trace");
        eprintln!(
            "wrote {events} trace events for {} @{cores}c to {path}",
            workload.name
        );
    }

    // Hard gates.
    let mut failed = false;
    for row in &rows {
        if row.forced_stall_releases > 0 {
            // The same refusal ManyCoreBackend encodes: a forced release
            // means the stall/wake model broke down and no timing in this
            // table can be trusted.
            eprintln!(
                "FAIL: {} @{}c: {}",
                row.workload,
                row.cores,
                DriverError::Deadlock {
                    forced_stall_releases: row.forced_stall_releases
                }
            );
            failed = true;
        }
        if row.arena_bytes_per_insn > ARENA_BYTES_PER_INSN_BAR {
            eprintln!(
                "FAIL: {} @{}c: arena footprint {:.1} B/insn exceeds the \
                 {ARENA_BYTES_PER_INSN_BAR} B/insn bar",
                row.workload, row.cores, row.arena_bytes_per_insn
            );
            failed = true;
        }
        if row.stats_only && row.total_bytes_per_insn > TOTAL_BYTES_PER_INSN_BAR {
            eprintln!(
                "FAIL: {} @{}c [stats]: total footprint {:.1} B/insn (arena + sim \
                 state) exceeds the {TOTAL_BYTES_PER_INSN_BAR} B/insn bar",
                row.workload, row.cores, row.total_bytes_per_insn
            );
            failed = true;
        }
    }
    if !quick {
        let headline = rows.iter().find(|r| r.headline).expect("headline cell");
        if headline.cores < 1024 || headline.instructions < 10_000_000 {
            eprintln!(
                "FAIL: headline cell must be >=10M instructions at 1024 cores \
                 (got {} insns at {}c)",
                headline.instructions, headline.cores
            );
            failed = true;
        }
        let big = rows
            .iter()
            .find(|r| r.headline_100m)
            .expect("100M headline cell");
        if big.cores < 1024 || big.instructions < 100_000_000 || !big.stats_only {
            eprintln!(
                "FAIL: the 100M headline must be a >=100M-instruction stats-only \
                 cell at 1024 cores (got {} insns at {}c, mode {})",
                big.instructions, big.cores, big.mode
            );
            failed = true;
        }
        // Chip-size scaling: doubling the modeled cores from 512 to 1024
        // on the same synth_histogram arena must not slow the simulator
        // past the noise band (the pre-SoA inversion).
        let hist_at = |cores: usize| {
            rows.iter()
                .find(|r| r.workload.starts_with("synth_histogram") && r.cores == cores)
        };
        if let (Some(at_512), Some(at_1024)) = (hist_at(512), hist_at(1024)) {
            if at_1024.sim_ms > SCALING_BAR * at_512.sim_ms {
                eprintln!(
                    "FAIL: {} at 1024 cores took {:.0} ms vs {:.0} ms at 512 — \
                     {:.2}x, above the {SCALING_BAR}x chip-size scaling bar",
                    at_1024.workload,
                    at_1024.sim_ms,
                    at_512.sim_ms,
                    at_1024.sim_ms / at_512.sim_ms
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
