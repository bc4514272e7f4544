//! Design-space sweeps: fan programs across backend configurations on a
//! bounded thread pool, streaming results out in grid order.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use parsecs_isa::Program;

use crate::{DriverError, ExecutionBackend, FrontEnd, ManyCoreBackend, RunReport};

/// One cell of a sweep: a `(program, backend)` pair and its outcome.
#[derive(Debug)]
pub struct SweepPoint {
    /// Label of the program swept.
    pub program: String,
    /// Name of the backend configuration.
    pub backend: String,
    /// The run's report, or the error that stopped it.
    pub outcome: Result<RunReport, DriverError>,
}

impl SweepPoint {
    /// The report, when the run succeeded.
    pub fn report(&self) -> Option<&RunReport> {
        self.outcome.as_ref().ok()
    }

    /// This point as one JSON object.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"program\":{}", json_string(&self.program)),
            format!("\"backend\":{}", json_string(&self.backend)),
            format!("\"ok\":{}", self.outcome.is_ok()),
        ];
        match &self.outcome {
            Ok(report) => {
                let outputs: Vec<String> = report.outputs.iter().map(u64::to_string).collect();
                fields.push(format!("\"outputs\":[{}]", outputs.join(",")));
                fields.push(format!("\"instructions\":{}", report.instructions));
                fields.push(format!("\"cycles\":{}", report.cycles));
                fields.push(format!("\"fetch_cycles\":{}", report.fetch_cycles()));
                fields.push(format!("\"fetch_ipc\":{}", json_f64(report.fetch_ipc)));
                fields.push(format!("\"retire_ipc\":{}", json_f64(report.retire_ipc)));
                if let Some(schedule) = report.schedule_bounds() {
                    fields.push(format!("\"lb_cycles\":{}", schedule.lb));
                    fields.push(format!(
                        "\"predicted_cycles\":{}",
                        schedule.predicted_cycles
                    ));
                    fields.push(format!(
                        "\"lb_tightness\":{}",
                        json_f64(schedule.tightness(report.cycles))
                    ));
                }
            }
            Err(e) => fields.push(format!("\"error\":{}", json_string(&e.to_string()))),
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// Renders sweep results as one pretty-printed JSON array (one object per
/// line, ready for `BENCH_sweep.json`-style artefacts).
pub fn sweep_to_json(points: &[SweepPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| format!("  {}", p.to_json()))
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Fans a list of labelled programs across a list of backend
/// configurations, executing the cells concurrently on scoped OS threads,
/// and returns one [`SweepPoint`] per `(program, backend)` cell in grid
/// order (programs outermost).
///
/// Each program row shares one [`FrontEnd`]: its trace arena is built
/// once per fuel budget by the row's first many-core cell, read by the
/// rest of the row, and freed as soon as the row's last cell finishes.
/// A grid of 3 programs × 6 many-core chips builds 3 arenas, not 18, and
/// every point equals the backend's standalone `execute`/`execute_fueled`
/// result.
///
/// ```
/// use parsecs_driver::{Sweep};
/// use parsecs_workloads::sum;
///
/// let points = Sweep::new()
///     .fuel(100_000)
///     .program("sum-5", sum::fork_program(&[4, 2, 6, 4, 5]))
///     .manycore_cores(&[1, 4])
///     .run();
/// assert_eq!(points.len(), 2);
/// assert!(points.iter().all(|p| p.report().unwrap().outputs == vec![21]));
/// ```
#[derive(Default)]
pub struct Sweep {
    fuel: Option<u64>,
    threads: Option<usize>,
    programs: Vec<(String, Program)>,
    backends: Vec<Box<dyn ExecutionBackend>>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Sweep {
        Sweep::default()
    }

    /// Sets an explicit fuel for every cell. Without it, each backend
    /// runs with its own default budget ([`crate::DEFAULT_FUEL`], or the
    /// configuration's `fuel` for a [`ManyCoreBackend`]).
    pub fn fuel(mut self, fuel: u64) -> Sweep {
        self.fuel = Some(fuel);
        self
    }

    /// Caps the number of worker threads (default: available parallelism).
    pub fn threads(mut self, threads: usize) -> Sweep {
        self.threads = Some(threads.max(1));
        self
    }

    /// Adds one labelled program (call repeatedly for a workload ×
    /// dataset-size grid).
    pub fn program(mut self, label: impl Into<String>, program: Program) -> Sweep {
        self.programs.push((label.into(), program));
        self
    }

    /// Adds one backend configuration.
    pub fn backend(mut self, backend: impl ExecutionBackend + 'static) -> Sweep {
        self.backends.push(Box::new(backend));
        self
    }

    /// Adds one default-configured [`ManyCoreBackend`] per core count —
    /// the chip-size axis of the paper's design space.
    pub fn manycore_cores(mut self, counts: &[usize]) -> Sweep {
        for &cores in counts {
            self.backends
                .push(Box::new(ManyCoreBackend::with_cores(cores)));
        }
        self
    }

    /// Number of cells the sweep will run.
    pub fn len(&self) -> usize {
        self.programs.len() * self.backends.len()
    }

    /// Whether the sweep has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs every cell and returns the points in grid order.
    pub fn run(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.len());
        self.run_with(|point| points.push(point));
        points
    }

    /// Runs every cell on a bounded worker pool (at most
    /// `available_parallelism` threads unless capped tighter with
    /// [`Sweep::threads`]) and hands each finished [`SweepPoint`] to
    /// `on_point` **in grid order, as soon as it is ready**. Unlike
    /// [`Sweep::run`], nothing is retained after the callback returns,
    /// and workers do not claim cells more than a small window ahead of
    /// the emission front, so a large grid's memory footprint is bounded
    /// by that window instead of the whole result set — a `RunReport` of
    /// the many-core backend carries the full per-instruction stage
    /// table, so this matters. Arenas are held only for rows with an
    /// unfinished cell: a row's [`FrontEnd`] lets go of them when its
    /// last cell finishes.
    ///
    /// Returns the number of cells run.
    pub fn run_with(&self, mut on_point: impl FnMut(SweepPoint)) -> usize {
        let cells = self.len();
        if cells == 0 {
            return 0;
        }
        let hardware = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = self.threads.unwrap_or(hardware).min(cells).max(1);
        // At most this many finished-but-unemitted points exist at once:
        // a worker does not claim a cell further than the window ahead of
        // the emission front. The worker on the front cell itself is
        // never gated (its cell index equals the front), so the pipeline
        // cannot stall.
        let window = 2 * workers;

        // One front-end per program row, shared by the row's cells, with
        // the count of the row's unfinished cells.
        let columns = self.backends.len();
        let rows: Vec<(FrontEnd<'_>, AtomicUsize)> = self
            .programs
            .iter()
            .map(|(_, program)| (FrontEnd::new(program), AtomicUsize::new(columns)))
            .collect();
        let rows = &rows;

        let next = AtomicUsize::new(0);
        let next = &next;
        let emitted = AtomicUsize::new(0);
        let emitted = &emitted;
        let (tx, rx) = mpsc::sync_channel::<(usize, SweepPoint)>(workers);
        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let cell = next.fetch_add(1, Ordering::Relaxed);
                    if cell >= cells {
                        break;
                    }
                    // Backpressure: wait for the emission front before
                    // running far-ahead cells, so a slow front cell (or a
                    // slow consumer) cannot make the reorder buffer grow
                    // toward the whole grid.
                    while cell > emitted.load(Ordering::Acquire) + window {
                        thread::park_timeout(std::time::Duration::from_millis(1));
                    }
                    let row = cell / columns;
                    let backend = &self.backends[cell % columns];
                    let (front, unfinished) = &rows[row];
                    let outcome = backend.execute_in(front, self.fuel);
                    // The row's last cell to finish frees its arenas.
                    if unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
                        front.release();
                    }
                    let point = SweepPoint {
                        program: self.programs[row].0.clone(),
                        backend: backend.name(),
                        outcome,
                    };
                    if tx.send((cell, point)).is_err() {
                        break; // receiver gone: the scope is unwinding
                    }
                });
            }
            drop(tx);

            // Reorder buffer: emit points in grid order as soon as the
            // next expected cell has arrived.
            let mut pending: BTreeMap<usize, SweepPoint> = BTreeMap::new();
            let mut next_emit = 0usize;
            for (cell, point) in rx {
                pending.insert(cell, point);
                while let Some(point) = pending.remove(&next_emit) {
                    on_point(point);
                    next_emit += 1;
                    emitted.store(next_emit, Ordering::Release);
                }
            }
            debug_assert!(pending.is_empty());
        });
        cells
    }

    /// Runs every cell, streaming each point's JSON row to `out` as soon
    /// as it is ready (one object per line, a well-formed JSON array once
    /// the sweep finishes). Combined with the bounded pool this keeps the
    /// memory footprint of arbitrarily large grids flat: no point is
    /// buffered after its row is written.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    pub fn run_json<W: Write>(&self, out: W) -> io::Result<usize> {
        self.run_json_with(out, |_| {})
    }

    /// Like [`Sweep::run_json`], but also hands each point to `on_point`
    /// (still in grid order, before its row is written) — the hook a
    /// repro binary uses to print a progress table while the artefact
    /// streams, without duplicating the array framing.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    pub fn run_json_with<W: Write>(
        &self,
        mut out: W,
        mut on_point: impl FnMut(&SweepPoint),
    ) -> io::Result<usize> {
        out.write_all(b"[\n")?;
        let mut write_error = None;
        let mut emitted = 0usize;
        let cells = self.run_with(|point| {
            on_point(&point);
            if write_error.is_some() {
                return;
            }
            let row = point.to_json();
            let result = if emitted == 0 {
                write!(out, "  {row}")
            } else {
                write!(out, ",\n  {row}")
            }
            .and_then(|()| out.flush());
            if let Err(e) = result {
                write_error = Some(e);
            }
            emitted += 1;
        });
        if let Some(e) = write_error {
            return Err(e);
        }
        out.write_all(b"\n]\n")?;
        out.flush()?;
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IlpBackend, SequentialBackend};
    use parsecs_workloads::sum;

    #[test]
    fn grid_order_is_programs_outermost() {
        let points = Sweep::new()
            .fuel(100_000)
            .program("a", sum::fork_program(&[1, 2]))
            .program("b", sum::fork_program(&[3, 4]))
            .backend(SequentialBackend)
            .manycore_cores(&[4])
            .run();
        let labels: Vec<(String, String)> = points
            .iter()
            .map(|p| (p.program.clone(), p.backend.clone()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("a".into(), "sequential".into()),
                ("a".into(), "manycore:4c:round-robin".into()),
                ("b".into(), "sequential".into()),
                ("b".into(), "manycore:4c:round-robin".into()),
            ]
        );
        assert_eq!(points[0].report().unwrap().outputs, vec![3]);
        assert_eq!(points[2].report().unwrap().outputs, vec![7]);
    }

    #[test]
    fn all_three_engines_sweep_concurrently_and_agree() {
        let data: Vec<u64> = (1..=16).collect();
        let points = Sweep::new()
            .fuel(1_000_000)
            .program("sum-16", sum::fork_program(&data))
            .backend(SequentialBackend)
            .backend(IlpBackend::parallel_ideal())
            .manycore_cores(&[1, 2, 8])
            .run();
        assert_eq!(points.len(), 5);
        for point in &points {
            assert_eq!(
                point.report().unwrap().outputs,
                vec![136],
                "{}",
                point.backend
            );
        }
    }

    #[test]
    fn failing_cells_report_errors_without_poisoning_the_rest() {
        let points = Sweep::new()
            .fuel(4)
            .program(
                "starved",
                sum::call_program(&(1..=64).collect::<Vec<u64>>()),
            )
            .backend(SequentialBackend)
            .run();
        assert_eq!(points.len(), 1);
        assert!(points[0].outcome.is_err());
        let json = sweep_to_json(&points);
        assert!(json.contains("\"ok\":false"));
        assert!(json.contains("\"error\""));
    }

    #[test]
    fn json_escapes_and_shapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(f64::INFINITY), "null");
        let points = Sweep::new()
            .fuel(10_000)
            .program("sum", sum::fork_program(&[4, 2, 6, 4, 5]))
            .manycore_cores(&[4])
            .run();
        let json = sweep_to_json(&points);
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"fetch_cycles\""));
        assert!(json.contains("\"outputs\":[21]"));
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(Sweep::new().is_empty());
        assert!(Sweep::new().run().is_empty());
        assert_eq!(Sweep::new().run_with(|_| panic!("no cells")), 0);
        let mut out = Vec::new();
        assert_eq!(Sweep::new().run_json(&mut out).unwrap(), 0);
        assert_eq!(String::from_utf8(out).unwrap(), "[\n\n]\n");
    }

    #[test]
    fn run_with_streams_points_in_grid_order() {
        let sweep = Sweep::new()
            .fuel(100_000)
            .program("a", sum::fork_program(&[1, 2]))
            .program("b", sum::fork_program(&[3, 4]))
            .backend(SequentialBackend)
            .manycore_cores(&[2, 4]);
        let mut seen = Vec::new();
        let cells = sweep.run_with(|point| {
            seen.push((point.program.clone(), point.backend.clone()));
        });
        assert_eq!(cells, 6);
        assert_eq!(seen.len(), 6);
        // Grid order: programs outermost, backends in registration order.
        assert_eq!(
            seen,
            vec![
                ("a".into(), "sequential".into()),
                ("a".into(), "manycore:2c:round-robin".into()),
                ("a".into(), "manycore:4c:round-robin".into()),
                ("b".into(), "sequential".into()),
                ("b".into(), "manycore:2c:round-robin".into()),
                ("b".into(), "manycore:4c:round-robin".into()),
            ]
        );
    }

    #[test]
    fn run_json_streams_the_same_array_sweep_to_json_builds() {
        let build = || {
            Sweep::new()
                .fuel(100_000)
                .program("sum", sum::fork_program(&[4, 2, 6, 4, 5]))
                .backend(SequentialBackend)
                .manycore_cores(&[4])
        };
        let mut streamed = Vec::new();
        build().run_json(&mut streamed).unwrap();
        let streamed = String::from_utf8(streamed).unwrap();
        let buffered = sweep_to_json(&build().run());
        assert_eq!(streamed, buffered);
        assert!(streamed.contains("\"outputs\":[21]"));
    }
}
