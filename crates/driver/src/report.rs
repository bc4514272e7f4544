//! The shared run report every backend produces.

use std::fmt;

use parsecs_core::{CheckReport, CoreBreakdown, InstTiming, Progress, ScheduleBounds, SimResult};
use parsecs_ilp::IlpResult;
use parsecs_machine::Trace;

/// Engine-specific extras attached to a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReportDetail {
    /// The dynamic trace recorded by the sequential reference machine.
    Trace(Trace),
    /// The schedule produced by the ILP limit analyzer.
    Ilp(IlpResult),
    /// The full per-instruction timing of the many-core simulator
    /// (boxed: a `SimResult` carries the whole stage table and would
    /// otherwise dominate the size of every report). For a **stats-only**
    /// run (`SimConfig::record_timings` off) the stage table inside is
    /// empty — aggregate statistics are exact, but the per-row accessors
    /// ([`RunReport::timings`], `SimResult::section_timings`) return
    /// `None`/empty views.
    Sim(Box<SimResult>),
}

/// What every backend reports about one program execution.
///
/// The shared fields mean the same thing across engines — `outputs` are
/// the values emitted by `out` instructions, `instructions` the dynamic
/// instruction count, `cycles` the number of cycles to the last
/// retirement under that engine's timing model — so reports from
/// different backends are directly comparable. Engine-specific extras
/// live in [`RunReport::detail`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the backend that produced the report.
    pub backend: String,
    /// Values emitted by `out` instructions, in program order.
    pub outputs: Vec<u64>,
    /// Number of dynamic instructions executed.
    pub instructions: u64,
    /// Cycles to the last retirement under the backend's timing model.
    pub cycles: u64,
    /// Instructions fetched per cycle.
    pub fetch_ipc: f64,
    /// Instructions retired per cycle.
    pub retire_ipc: f64,
    /// Engine-specific extras.
    pub detail: ReportDetail,
}

impl RunReport {
    /// Cycles to the last *fetch*: the many-core simulator distinguishes
    /// fetch completion from retirement; the other engines fetch one
    /// instruction per modelled cycle.
    pub fn fetch_cycles(&self) -> u64 {
        match &self.detail {
            ReportDetail::Sim(sim) => sim.stats.fetch_cycles,
            ReportDetail::Trace(_) => self.instructions,
            ReportDetail::Ilp(_) => self.cycles,
        }
    }

    /// The dynamic trace, when the backend recorded one.
    pub fn trace(&self) -> Option<&Trace> {
        match &self.detail {
            ReportDetail::Trace(t) => Some(t),
            _ => None,
        }
    }

    /// The ILP schedule, when the backend is the analyzer.
    pub fn ilp(&self) -> Option<&IlpResult> {
        match &self.detail {
            ReportDetail::Ilp(r) => Some(r),
            _ => None,
        }
    }

    /// The simulator result, when the backend is the many-core model.
    pub fn sim(&self) -> Option<&SimResult> {
        match &self.detail {
            ReportDetail::Sim(r) => Some(r.as_ref()),
            _ => None,
        }
    }

    /// The per-instruction stage table, when the backend is the many-core
    /// model **and** the run recorded one. `None` both for the other
    /// backends and for stats-only simulations
    /// (`SimConfig::record_timings` off), whose aggregate statistics are
    /// exact but whose stage rows were never materialised.
    pub fn timings(&self) -> Option<&[InstTiming]> {
        self.sim()
            .filter(|r| r.timings_recorded)
            .map(|r| r.timings.as_slice())
    }

    /// Modeled resident bytes of the simulator's own per-run state
    /// (`None` for the other backends) — see
    /// [`SimResult::sim_state_bytes`]. Together with
    /// [`RunReport::trace_arena_bytes`] this is the run's total resident
    /// footprint.
    pub fn sim_state_bytes(&self) -> Option<u64> {
        self.sim().map(SimResult::sim_state_bytes)
    }

    /// Total resident footprint — trace arena plus simulator state — per
    /// simulated instruction (`None` for the other backends). The number
    /// the chip-scale benchmarks gate: a stats-only run over a lean arena
    /// holds well under 80 B/instruction, which is what lets
    /// 100M-instruction cells fit.
    pub fn total_bytes_per_instruction(&self) -> Option<f64> {
        self.sim().map(SimResult::total_bytes_per_instruction)
    }

    /// Bytes held by the streaming trace arena the many-core run was
    /// simulated from (`None` for the other backends, which do not build
    /// one). This is the functional front-end's resident footprint — the
    /// number that caps how many instructions a chip-scale run can
    /// pre-execute.
    pub fn trace_arena_bytes(&self) -> Option<u64> {
        self.sim().map(|r| r.stats.trace_arena_bytes)
    }

    /// [`RunReport::trace_arena_bytes`] per simulated instruction.
    pub fn trace_bytes_per_instruction(&self) -> Option<f64> {
        self.sim().map(|r| r.stats.trace_bytes_per_instruction())
    }

    /// The pre-simulation static analysis report, when the backend is
    /// the many-core model **and** the run was validated
    /// (`SimConfig::validate` on, e.g. via
    /// [`crate::ManyCoreBackend::validated`]). Always a clean report —
    /// a run whose arena fails validation produces no report at all
    /// ([`crate::DriverError::Sim`] wrapping
    /// `parsecs_core::SimError::Invariant`).
    pub fn check(&self) -> Option<&CheckReport> {
        self.sim().and_then(|r| r.check.as_deref())
    }

    /// The configuration-aware progress verdict for this run's
    /// (placement × chip) cell: [`Progress::Proven`] with the longest
    /// wait chain, or [`Progress::PotentialCycle`] with a concrete
    /// section cycle. `None` when the run was not validated (the
    /// engines attach it alongside the rest of the report — see
    /// [`RunReport::check`]).
    pub fn progress(&self) -> Option<&Progress> {
        self.check().and_then(|report| report.progress.as_ref())
    }

    /// The configuration-aware schedule bounds for this run's
    /// (placement × chip) cell: the certified NoC-weighted lower bound
    /// and the list-schedule prediction. `None` unless the run was
    /// validated on the simulator backend.
    pub fn schedule_bounds(&self) -> Option<&ScheduleBounds> {
        self.check().and_then(|report| report.schedule.as_ref())
    }

    /// The per-core cycle attribution table, when the backend is the
    /// many-core model: one additive busy / stalled-by-cause / parked /
    /// idle breakdown per *configured* core, each summing to the run's
    /// `total_cycles` (see [`parsecs_core::SimStats::attribution`]).
    /// `None` for the other backends, which model no chip.
    pub fn attribution(&self) -> Option<&[CoreBreakdown]> {
        self.sim().map(|r| r.stats.attribution.as_slice())
    }

    /// Chip-wide fetch-slot occupancy in `[0, 1]` over all configured
    /// cores (`None` for the other backends) — see
    /// [`parsecs_core::SimStats::occupancy`].
    pub fn occupancy(&self) -> Option<f64> {
        self.sim().map(|r| r.stats.occupancy())
    }

    /// How many times the many-core simulator's deadlock *detector*
    /// forcibly released a stalled fetch stage (`None` for the other
    /// backends, which have no such machinery). Under the in-order
    /// fetch-stall handoff model every stall has an explicit release
    /// event, so this is zero on every well-formed run —
    /// [`crate::ManyCoreBackend`] refuses to produce a report at all
    /// (returning [`crate::DriverError::Deadlock`]) when it is not.
    pub fn forced_stall_releases(&self) -> Option<u64> {
        self.sim().map(|r| r.stats.forced_stall_releases)
    }
}

impl fmt::Display for RunReport {
    /// One line: backend, instruction count, cycles, IPCs and outputs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:>10} insns {:>9} cycles  fetch IPC {:>8.2}  retire IPC {:>8.2}  outputs {:?}",
            self.backend,
            self.instructions,
            self.cycles,
            self.fetch_ipc,
            self.retire_ipc,
            self.outputs
        )
    }
}
