//! The retained two-pass sequential analysis — the oracle the streaming
//! sectioner is checked against.
//!
//! A *section* (§4.1 of the paper) is a run of dynamically contiguous
//! instructions: it starts when a `fork` creates it and ends at the first
//! `endfork` it reaches. Control-flow instructions do not end a section —
//! the same section continues through jumps, calls and the callee path of
//! its own forks. Sections are **totally ordered**; concatenating them in
//! that order rebuilds the sequential trace of the run, which is what lets
//! renaming match every consumer with the closest preceding producer.
//!
//! Production code builds the sectioned trace in one pass
//! ([`TraceArena::from_program`]). [`SectionedTrace`] keeps the original
//! algorithm — materialise the whole trace, find the section boundaries,
//! then resolve every source against a hashed last-writer map — as an
//! independent implementation: the workspace differential compares its
//! [`SectionedTrace::to_arena`] with the streaming arena column for
//! column, and the benchmarks time it as the front-end baseline.

use std::collections::HashMap;

use parsecs_isa::Program;
use parsecs_machine::{Location, Machine, MachineError, Trace, TraceKind};
use parsecs_trace::TraceArena;

// The section and dependence vocabulary moved to `parsecs-trace` (the
// streaming pipeline produces it, this crate consumes it); re-exported
// here so downstream paths are unchanged.
pub use parsecs_trace::{SectionId, SectionSpan, SourceDep, SourceKind};

/// One dynamic instruction annotated with its section and dependences.
#[derive(Debug, Clone)]
struct InstRecord {
    ip: usize,
    mnemonic: &'static str,
    section: SectionId,
    kind: TraceKind,
    is_control: bool,
    /// Register and flags sources, needed when the instruction executes.
    reg_sources: Vec<SourceDep>,
    /// Memory-word sources, needed at the memory-access stage.
    mem_sources: Vec<SourceDep>,
    writes: Vec<Location>,
}

/// The sectioned, dependence-annotated trace of one program run.
#[derive(Debug, Clone)]
pub struct SectionedTrace {
    records: Vec<InstRecord>,
    sections: Vec<SectionSpan>,
    outputs: Vec<u64>,
}

impl SectionedTrace {
    /// Runs `program` functionally (with the reference machine's
    /// depth-first fork semantics), splits the trace into sections and
    /// resolves every source to its producer.
    ///
    /// # Errors
    ///
    /// Returns an error if the functional execution fails or does not halt
    /// within `fuel` instructions.
    pub fn from_program(program: &Program, fuel: u64) -> Result<SectionedTrace, MachineError> {
        let mut machine = Machine::load(program)?;
        let (outcome, trace) = machine.run_traced(fuel)?;
        Ok(SectionedTrace::from_trace(&trace, outcome.outputs))
    }

    /// Splits an existing trace (obtained from [`Machine::run_traced`])
    /// into sections.
    pub fn from_trace(trace: &Trace, outputs: Vec<u64>) -> SectionedTrace {
        let events = trace.events();
        let mut sections: Vec<SectionSpan> = Vec::new();
        let mut records: Vec<InstRecord> = Vec::with_capacity(events.len());

        // --- pass 1: section boundaries -------------------------------
        // The reference machine's depth-first order visits sections exactly
        // in their total order, each as one contiguous range.
        let mut pending: Vec<(SectionId, usize)> = Vec::new();
        let mut current_start = 0usize;
        let mut current_creator: Option<(SectionId, usize)> = None;
        let mut section_of: Vec<SectionId> = vec![SectionId(0); events.len()];

        for (i, event) in events.iter().enumerate() {
            let current_id = SectionId(sections.len());
            section_of[i] = current_id;
            match event.kind {
                TraceKind::Fork => {
                    pending.push((current_id, i));
                }
                TraceKind::EndFork | TraceKind::Halt => {
                    sections.push(SectionSpan {
                        id: current_id,
                        start: current_start,
                        end: i + 1,
                        creator: current_creator,
                        start_ip: events[current_start].ip,
                    });
                    current_start = i + 1;
                    current_creator = match event.kind {
                        TraceKind::EndFork => pending.pop(),
                        _ => None,
                    };
                    if current_creator.is_none() && event.kind == TraceKind::Halt {
                        // A halt ends the whole run; anything still pending
                        // was functionally executed before the halt.
                        break;
                    }
                }
                _ => {}
            }
        }
        // Close a trailing section if the trace ended without a terminator
        // (does not happen for halting programs, kept for robustness).
        if current_start < events.len()
            && sections.last().map(|s| s.end).unwrap_or(0) < events.len()
        {
            sections.push(SectionSpan {
                id: SectionId(sections.len()),
                start: current_start,
                end: events.len(),
                creator: current_creator,
                start_ip: events[current_start].ip,
            });
        }

        // --- pass 2: dependence resolution -----------------------------
        let creator_fork_of = |id: SectionId| -> Option<usize> {
            sections
                .get(id.0)
                .and_then(|s| s.creator.map(|(_, seq)| seq))
        };
        let mut last_writer: HashMap<Location, usize> = HashMap::new();

        for (i, event) in events.iter().enumerate() {
            if i >= sections.last().map(|s| s.end).unwrap_or(0) {
                break;
            }
            let section = section_of[i];
            let mut reg_sources = Vec::new();
            let mut mem_sources = Vec::new();
            for loc in &event.reads {
                let kind = match last_writer.get(loc) {
                    Some(&producer) => {
                        let producer_section = section_of[producer];
                        if producer_section == section {
                            SourceKind::Local { producer }
                        } else {
                            // The stack pointer and the paper's non-volatile
                            // registers are copied into the section-creation
                            // message, so a forked section reads them from
                            // its own register file — no renaming request is
                            // sent, and the value is the fork-time value
                            // (which is also what the reference machine's
                            // depth-first semantics restores at `endfork`).
                            let copied = match loc {
                                Location::Reg(r) => r.is_fork_copied(),
                                _ => false,
                            };
                            if copied && creator_fork_of(section).is_some() {
                                SourceKind::ForkCopy
                            } else {
                                SourceKind::Remote {
                                    producer,
                                    producer_section,
                                }
                            }
                        }
                    }
                    None => match loc {
                        Location::Mem(_) => SourceKind::InitialMemory,
                        _ => SourceKind::InitialRegister,
                    },
                };
                let dep = SourceDep {
                    location: *loc,
                    kind,
                };
                if loc.is_mem() {
                    mem_sources.push(dep);
                } else {
                    reg_sources.push(dep);
                }
            }
            records.push(InstRecord {
                ip: event.ip,
                mnemonic: event.mnemonic,
                section,
                kind: event.kind,
                is_control: event.is_control,
                reg_sources,
                mem_sources,
                writes: event.writes.clone(),
            });
            for loc in &event.writes {
                last_writer.insert(*loc, i);
            }
        }

        SectionedTrace {
            records,
            sections,
            outputs,
        }
    }

    /// Converts the trace into the flat [`TraceArena`] representation (no
    /// re-resolution — the records already carry every dependence), the
    /// form in which it is compared with the streaming pipeline.
    pub fn to_arena(&self) -> TraceArena {
        let mut arena = TraceArena::new();
        for record in &self.records {
            arena.push_record(
                record.ip,
                record.mnemonic,
                record.section,
                record.kind,
                record.is_control,
                &record.reg_sources,
                &record.mem_sources,
                &record.writes,
            );
        }
        for span in &self.sections {
            arena.push_section(span.clone());
        }
        arena.set_outputs(self.outputs.clone());
        arena.shrink_to_fit();
        arena
    }
}
