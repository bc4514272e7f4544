//! One front-end per program: `Sweep` and `Runner` build each program's
//! trace arena once per fuel budget and share it across the program's
//! backends. Sharing must only save work: every sweep point equals the
//! backend's standalone result, errors included, whether the backend is
//! passed boxed or not, with or without a sweep-wide fuel, on one worker
//! or two. The per-row share counts its builds and lets go of its arenas
//! once the row's last cell finishes.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, Weak};

use parsecs_core::{LoadAware, Placement, SimConfig, SimError, TraceArena};
use parsecs_driver::{
    DriverError, ExecutionBackend, FrontEnd, IlpBackend, ManyCoreBackend, RunReport, Runner,
    SequentialBackend, Sweep,
};
use parsecs_isa::Program;
use parsecs_machine::MachineError;
use parsecs_workloads::{scale, sum};

/// The many-core configurations' own fuel budgets: every configuration
/// runs on `CONFIG_FUEL` except one on `OTHER_CONFIG_FUEL`.
const CONFIG_FUEL: u64 = 20_000;
const OTHER_CONFIG_FUEL: u64 = 30_000;
/// The sweep-wide budget, when one is set.
const SWEEP_FUEL: u64 = 25_000;

/// The starved program: a call-based sum that halts under
/// [`parsecs_driver::DEFAULT_FUEL`] but needs more than every budget
/// above.
fn starved_program() -> Program {
    sum::call_program(&(1..=4_000).collect::<Vec<u64>>())
}

/// The grid's rows: a fork sum, a histogram and the starved program.
fn programs() -> Vec<(&'static str, Program)> {
    vec![
        ("fork-sum", sum::fork_program(&sum::dataset(3, 5))),
        ("histogram", scale::histogram_program(40, 8, 3)),
        ("starved", starved_program()),
    ]
}

/// The many-core columns: full, stats-only, validated, `LoadAware`, a
/// capacity ablation, a second config fuel and an invalid chip.
fn manycore_configs() -> Vec<SimConfig> {
    let fueled = |config: SimConfig, fuel: u64| SimConfig { fuel, ..config };
    vec![
        fueled(SimConfig::with_cores(8), CONFIG_FUEL),
        fueled(SimConfig::with_cores(8).stats_only(), CONFIG_FUEL),
        fueled(SimConfig::with_cores(8).validated(), CONFIG_FUEL),
        fueled(
            SimConfig::with_cores(16).with_placement(LoadAware),
            CONFIG_FUEL,
        ),
        SimConfig {
            max_sections_per_core: 2,
            ..fueled(SimConfig::with_cores(4), CONFIG_FUEL)
        },
        fueled(SimConfig::with_cores(32), OTHER_CONFIG_FUEL),
        fueled(SimConfig::with_cores(0), CONFIG_FUEL),
    ]
}

/// Every column of the grid, in order.
fn backends() -> Vec<Box<dyn ExecutionBackend>> {
    let mut backends: Vec<Box<dyn ExecutionBackend>> = vec![
        Box::new(SequentialBackend),
        Box::new(IlpBackend::parallel_ideal()),
    ];
    for config in manycore_configs() {
        backends.push(Box::new(ManyCoreBackend::new(config)));
    }
    backends
}

/// Adds `backend` to `sweep`, either as itself or already boxed as a
/// `Box<dyn ExecutionBackend>` (which `Sweep` then boxes again).
fn add<B: ExecutionBackend + 'static>(sweep: Sweep, backend: B, boxed: bool) -> Sweep {
    if boxed {
        sweep.backend(Box::new(backend) as Box<dyn ExecutionBackend>)
    } else {
        sweep.backend(backend)
    }
}

/// The grid as a sweep.
fn grid(fuel: Option<u64>, workers: usize, boxed: bool) -> Sweep {
    let mut sweep = Sweep::new().threads(workers);
    if let Some(fuel) = fuel {
        sweep = sweep.fuel(fuel);
    }
    for (label, program) in programs() {
        sweep = sweep.program(label, program);
    }
    sweep = add(sweep, SequentialBackend, boxed);
    sweep = add(sweep, IlpBackend::parallel_ideal(), boxed);
    for config in manycore_configs() {
        sweep = add(sweep, ManyCoreBackend::new(config), boxed);
    }
    sweep
}

/// `backend` run on its own, with no share.
fn standalone(
    backend: &dyn ExecutionBackend,
    program: &Program,
    fuel: Option<u64>,
) -> Result<RunReport, DriverError> {
    match fuel {
        Some(fuel) => backend.execute_fueled(program, fuel),
        None => backend.execute(program),
    }
}

fn is_out_of_fuel(outcome: &Result<RunReport, DriverError>) -> bool {
    matches!(
        outcome,
        Err(DriverError::Sim(SimError::Machine(
            MachineError::OutOfFuel { .. }
        )))
    )
}

#[test]
fn every_sweep_point_equals_the_standalone_run() {
    let programs = programs();
    let backends = backends();
    let invalid = backends.len() - 1;
    for fuel in [None, Some(SWEEP_FUEL)] {
        let expected: Vec<Result<RunReport, DriverError>> = programs
            .iter()
            .flat_map(|(_, program)| {
                backends
                    .iter()
                    .map(move |backend| standalone(backend.as_ref(), program, fuel))
            })
            .collect();
        // The grid exercises what it claims to: the first two rows run on
        // every valid chip, the starved row runs out of fuel on every
        // chip, and the invalid chip is refused on every row.
        for (cell, outcome) in expected.iter().enumerate() {
            let (row, column) = (cell / backends.len(), cell % backends.len());
            if column == invalid {
                assert!(
                    matches!(outcome, Err(DriverError::Sim(SimError::Config(_)))),
                    "cell {cell}: {outcome:?}"
                );
            } else if column >= 2 {
                assert_eq!(row == 2, is_out_of_fuel(outcome), "cell {cell}");
            }
        }
        // A boxed backend runs exactly as the backend it boxes.
        // (The starved row tells a configuration's fuel from the default.)
        let starved = 2 * backends.len();
        for (column, backend) in backends.iter().enumerate() {
            assert_eq!(
                standalone(backend, &programs[2].1, fuel),
                expected[starved + column]
            );
        }
        assert_eq!(
            expected[starved].is_ok(),
            fuel.is_none(),
            "the sequential machine starves only under the sweep fuel"
        );

        for workers in [1, 2] {
            for boxed in [false, true] {
                let points = grid(fuel, workers, boxed).run();
                assert_eq!(points.len(), expected.len());
                for (cell, (point, expected)) in points.iter().zip(&expected).enumerate() {
                    let (row, column) = (cell / backends.len(), cell % backends.len());
                    assert_eq!(point.program, programs[row].0);
                    assert_eq!(point.backend, backends[column].name());
                    assert_eq!(
                        &point.outcome, expected,
                        "{} @ {} (fuel {fuel:?}, {workers} workers, boxed {boxed})",
                        point.program, point.backend
                    );
                }
            }
        }
    }
}

#[test]
fn run_all_matches_standalone_runs() {
    // Every column but the invalid chip, which would end every run.
    let columns = backends().len() - 1;
    for (label, program) in programs() {
        for fuel in [None, Some(SWEEP_FUEL)] {
            let mut runner = Runner::new(&program);
            if let Some(fuel) = fuel {
                runner = runner.fuel(fuel);
            }
            for backend in backends().into_iter().take(columns) {
                runner = runner.on(backend);
            }
            let expected: Result<Vec<RunReport>, DriverError> = backends()
                .iter()
                .take(columns)
                .map(|backend| standalone(backend.as_ref(), &program, fuel))
                .collect();
            assert_eq!(runner.run_all(), expected, "{label}, fuel {fuel:?}");
        }
    }
}

/// What one many-core cell saw of its row's share.
struct Seen {
    row: usize,
    /// The share's build count before and after the cell ran.
    before: usize,
    builds: usize,
    arena: Option<Weak<TraceArena>>,
}

/// A many-core backend that records, around each cell, its share's build
/// count and a weak handle on the arena it simulated.
struct Recording {
    inner: ManyCoreBackend,
    programs: Arc<Vec<Program>>,
    seen: Arc<Mutex<Vec<Seen>>>,
}

impl ExecutionBackend for Recording {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn execute_fueled(&self, program: &Program, fuel: u64) -> Result<RunReport, DriverError> {
        self.inner.execute_fueled(program, fuel)
    }

    fn execute(&self, program: &Program) -> Result<RunReport, DriverError> {
        self.inner.execute(program)
    }

    fn execute_in(
        &self,
        front: &FrontEnd<'_>,
        fuel: Option<u64>,
    ) -> Result<RunReport, DriverError> {
        let before = front.builds();
        let outcome = self.inner.execute_in(front, fuel);
        let row = self
            .programs
            .iter()
            .position(|program| program == front.program())
            .expect("a grid row");
        // Only a valid chip has built (or found) an arena, so only then
        // does asking for it again leave the build count alone.
        let arena = self.inner.config().validate().ok().and_then(|()| {
            let budget = fuel.unwrap_or(self.inner.config().fuel);
            front.arena(budget).ok().map(|arena| Arc::downgrade(&arena))
        });
        self.seen.lock().unwrap().push(Seen {
            row,
            before,
            builds: front.builds(),
            arena,
        });
        outcome
    }
}

/// Runs `configs` over `programs` through [`Recording`] backends and
/// checks, as each point streams out, that a finished row's share holds
/// no arena. Returns the total arena builds over all rows.
fn recorded_builds(
    programs: &[Program],
    configs: &[SimConfig],
    fuel: Option<u64>,
    workers: usize,
) -> usize {
    let shared = Arc::new(programs.to_vec());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut sweep = Sweep::new().threads(workers);
    if let Some(fuel) = fuel {
        sweep = sweep.fuel(fuel);
    }
    for (row, program) in programs.iter().enumerate() {
        sweep = sweep.program(format!("row-{row}"), program.clone());
    }
    for config in configs {
        sweep = sweep.backend(Recording {
            inner: ManyCoreBackend::new(config.clone()),
            programs: shared.clone(),
            seen: seen.clone(),
        });
    }
    let mut cell = 0;
    sweep.run_with(|point| {
        let row = cell / configs.len();
        cell += 1;
        if cell % configs.len() == 0 {
            // Grid order: every cell of `row` has finished.
            let seen = seen.lock().unwrap();
            for entry in seen.iter().filter(|entry| entry.row == row) {
                if let Some(arena) = &entry.arena {
                    assert!(
                        arena.upgrade().is_none(),
                        "{}: the finished row still holds its arena",
                        point.program
                    );
                }
            }
        }
    });
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), programs.len() * configs.len());
    // A cell reads the count after its own build, so the last reader of
    // each row saw every build of that row.
    let row_builds = |row: usize| {
        let row = seen.iter().filter(|entry| entry.row == row);
        let last = row.clone().map(|entry| entry.builds).max().unwrap_or(0);
        // One worker runs a row's cells one after another: the builds
        // they caused one by one add up to what the last one saw — which
        // only holds if they all counted on one share.
        if workers == 1 {
            let caused: usize = row.map(|entry| entry.builds - entry.before).sum();
            assert_eq!(caused, last, "the row's cells did not share one front-end");
        }
        last
    };
    (0..programs.len()).map(row_builds).sum()
}

#[test]
fn one_arena_per_row_and_fuel_freed_after_the_rows_last_cell() {
    let programs: Vec<Program> = programs().into_iter().map(|(_, p)| p).collect();
    let configs = manycore_configs();
    for workers in [1, 2] {
        for fuel in [None, Some(SWEEP_FUEL)] {
            // Distinct (row, budget) pairs among the runnable chips.
            let budgets: BTreeSet<u64> = configs
                .iter()
                .filter(|config| config.validate().is_ok())
                .map(|config| fuel.unwrap_or(config.fuel))
                .collect();
            assert_eq!(
                recorded_builds(&programs, &configs, fuel, workers),
                programs.len() * budgets.len(),
                "fuel {fuel:?}, {workers} workers"
            );
        }
    }
}

#[test]
fn run_all_builds_one_arena_for_all_its_backends() {
    let program = sum::fork_program(&sum::dataset(3, 5));
    let programs = Arc::new(vec![program.clone()]);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut runner = Runner::new(&program).on(SequentialBackend);
    for cores in [1, 4, 16] {
        runner = runner.on(Recording {
            inner: ManyCoreBackend::with_cores(cores),
            programs: programs.clone(),
            seen: seen.clone(),
        });
    }
    let reports = runner.run_all().unwrap();
    assert!(reports.iter().all(|r| r.outputs == reports[0].outputs));
    // The first many-core backend builds; the other two find its arena.
    let builds: Vec<(usize, usize)> = seen
        .lock()
        .unwrap()
        .iter()
        .map(|s| (s.before, s.builds))
        .collect();
    assert_eq!(builds, vec![(0, 1), (1, 1), (1, 1)]);
    // `run_all` has returned, so its share is gone with the arena.
    assert!(seen.lock().unwrap().iter().all(|s| s
        .arena
        .as_ref()
        .is_some_and(|arena| arena.upgrade().is_none())));
}

#[test]
fn an_invalid_chip_never_builds_an_arena() {
    let programs: Vec<Program> = programs().into_iter().map(|(_, p)| p).collect();
    let invalid = [SimConfig::with_cores(0)];
    for workers in [1, 2] {
        assert_eq!(recorded_builds(&programs, &invalid, None, workers), 0);
    }
}

#[test]
fn a_dse_shaped_sweep_builds_one_arena_per_program() {
    // dse_sweep's shape: 3 programs × {3 chip sizes} × {LoadAware,
    // round-robin}, validated and stats-only — 3 builds per run, not 18.
    let programs = vec![
        sum::fork_program(&sum::dataset(3, 7)),
        sum::fork_program(&sum::dataset(4, 9)),
        scale::histogram_program(60, 8, 7),
    ];
    let configs: Vec<SimConfig> = [64, 16, 4]
        .into_iter()
        .flat_map(|cores| {
            let base = SimConfig::with_cores(cores).stats_only().validated();
            [
                base.clone().with_placement(LoadAware),
                base.with_placement(Placement::RoundRobin),
            ]
        })
        .collect();
    assert_eq!(configs.len(), 6);
    for workers in [1, 2] {
        assert_eq!(recorded_builds(&programs, &configs, None, workers), 3);
    }
}
