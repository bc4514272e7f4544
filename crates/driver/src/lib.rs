//! # parsecs-driver — one API over the three engines
//!
//! The paper's evaluation runs the *same* programs through three engines:
//! the sequential reference machine (Figures 2–4), the trace-based ILP
//! limit analyzer (Figure 7), and the many-core sectioned simulator
//! (Figure 10, §5). This crate gives those engines one uniform surface:
//!
//! * [`ExecutionBackend`] — `execute(&Program) -> RunReport`, implemented
//!   by [`SequentialBackend`], [`IlpBackend`] and [`ManyCoreBackend`];
//! * [`RunReport`] — the shared result shape (outputs, dynamic
//!   instruction count, cycles, fetch/retire IPC) plus a typed
//!   [`ReportDetail`] carrying each engine's extras;
//! * [`Runner`] — a builder for running one program on one or more
//!   backends;
//! * [`Sweep`] — a design-space sweep fanning programs across backend
//!   configurations on a thread pool, with JSON emission
//!   ([`sweep_to_json`]) for benchmark artefacts;
//! * [`FrontEnd`] — one program's configuration-independent front-end,
//!   shared by every backend that runs it.
//!
//! ## One front-end per program
//!
//! The sectioned trace a many-core run simulates depends only on the
//! program and its fuel, never on the chip. [`Runner`] and [`Sweep`]
//! therefore build each program's [`parsecs_core::TraceArena`] once per
//! fuel budget and share it read-only across all of that program's
//! many-core backends ([`ExecutionBackend::execute_in`]); a sweep frees a
//! program's arenas as soon as the last cell of its row finishes. A
//! `dse_sweep`-shaped grid of 3 programs × 6 chips builds 3 arenas, not 18.
//!
//! ## Example: one program, all three engines
//!
//! ```
//! use parsecs_driver::{IlpBackend, ManyCoreBackend, Runner, SequentialBackend};
//! use parsecs_workloads::sum;
//!
//! let program = sum::fork_program(&[4, 2, 6, 4, 5]);
//! let reports = Runner::new(&program)
//!     .fuel(100_000)
//!     .on(SequentialBackend)
//!     .on(IlpBackend::parallel_ideal())
//!     .on(ManyCoreBackend::with_cores(8))
//!     .run_all()?;
//! for report in &reports {
//!     println!("{report}");
//!     assert_eq!(report.outputs, vec![21]);
//! }
//! # Ok::<(), parsecs_driver::DriverError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod error;
mod front;
mod report;
mod runner;
mod sweep;

pub use backend::{ExecutionBackend, IlpBackend, ManyCoreBackend, SequentialBackend, DEFAULT_FUEL};
pub use error::DriverError;
pub use front::FrontEnd;
pub use report::{ReportDetail, RunReport};
pub use runner::Runner;
pub use sweep::{sweep_to_json, Sweep, SweepPoint};
