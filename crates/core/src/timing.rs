//! Per-instruction stage timings and aggregate statistics.

use std::fmt::Write as _;
use std::mem::size_of;

use parsecs_noc::{CoreId, NocStats};
use parsecs_obs::CoreBreakdown;
use parsecs_trace::TraceArena;

use crate::drain::INCOMPLETE;
use crate::{SectionId, SimResult};

/// The cycle at which one dynamic instruction is handled by each pipeline
/// stage — one row of the paper's Figure 10 tables.
///
/// The six columns follow the paper's naming: `fd` (fetch-decode), `rr`
/// (register-rename), `ew` (execute-write-back), `ar` (address-rename),
/// `ma` (memory-access) and `ret` (retire). `ar`/`ma` are `None` for
/// instructions that do not access data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstTiming {
    /// Position in the sequential trace.
    pub seq: usize,
    /// Position within the section (0-based; the paper writes `s-i` with
    /// `i` 1-based — see [`InstTiming::name`]).
    pub index_in_section: usize,
    /// Static instruction index.
    pub ip: usize,
    /// Mnemonic.
    pub mnemonic: &'static str,
    /// Section of the instruction.
    pub section: SectionId,
    /// Core hosting that section.
    pub core: CoreId,
    /// Fetch-decode cycle.
    pub fd: u64,
    /// Register-rename cycle.
    pub rr: u64,
    /// Execute / write-back cycle (equals `fd` when the instruction is
    /// computed in the fetch stage, as the paper's design does for simple
    /// in-order-computable instructions).
    pub ew: u64,
    /// Address-rename cycle (memory instructions only).
    pub ar: Option<u64>,
    /// Memory-access cycle (memory instructions only).
    pub ma: Option<u64>,
    /// Retirement cycle.
    pub ret: u64,
}

impl InstTiming {
    /// The paper's `s-i` name of the instruction (1-based), e.g. `"2-13"`.
    /// Derived on demand — a simulation of millions of instructions does
    /// not pay for millions of row-label allocations.
    pub fn name(&self) -> String {
        format!("{}-{}", self.section.0 + 1, self.index_in_section + 1)
    }

    /// The cycle at which the instruction's result is available to
    /// consumers.
    pub fn completion(&self) -> u64 {
        self.ma.unwrap_or(self.ew)
    }
}

/// The per-instruction stage table of a full-mode run — the paper's
/// Figure 10 for every instruction — stored as columns and read as
/// [`InstTiming`] rows built on demand.
///
/// The stage columns are the resolver's own `fd`/`ew`/`ret`/completion
/// vectors, taken by move when the run finishes. The only copies are the
/// arena columns a row reads (static index, mnemonic id, section, the
/// memory flag and the mnemonic table) plus each section's start and
/// core. `rr`, `ar`, `ma`, `core` and `index_in_section` are derived per
/// row: renaming is the cycle after fetch, address-rename the cycle
/// after execute, and a memory instruction's access completes its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTable {
    fd: Vec<u64>,
    ew: Vec<u64>,
    ret: Vec<u64>,
    /// Completion cycle: `ma` of a memory instruction.
    complete: Vec<u64>,
    ip: Vec<u32>,
    mnemonic_id: Vec<u16>,
    section: Vec<u32>,
    memory: Vec<bool>,
    mnemonics: Vec<&'static str>,
    /// First trace position of each section, plus the instruction count
    /// as a trailing sentinel (sections tile the trace in total order).
    starts: Vec<usize>,
    core_of: Vec<CoreId>,
}

impl StageTable {
    /// Assembles the table of a finished run from the resolver's stage
    /// columns (one entry per instruction of `arena`). Returns `None` when
    /// any entry still holds a sentinel (`UNKNOWN`, or the tagged
    /// `INCOMPLETE | fd` completion): the instruction was left unresolved
    /// and the table would report made-up cycles.
    pub(crate) fn from_resolved(
        arena: &TraceArena,
        [fd, ew, ret, complete]: [Vec<u64>; 4],
        core_of: &[CoreId],
    ) -> Option<StageTable> {
        // Every sentinel has the top bit set and no reachable cycle does,
        // so one OR per instruction checks all four columns.
        let resolved = fd
            .iter()
            .zip(&ew)
            .zip(&ret)
            .zip(&complete)
            .all(|(((f, e), r), c)| f | e | r | c < INCOMPLETE);
        if !resolved {
            return None;
        }
        let raw = arena.raw();
        let n = arena.len();
        Some(StageTable {
            fd,
            ew,
            ret,
            complete,
            ip: raw.ip.to_vec(),
            mnemonic_id: raw.mnemonic_id.to_vec(),
            section: raw.section.to_vec(),
            memory: (0..n)
                .map(|seq| arena.is_load(seq) || arena.is_store(seq))
                .collect(),
            mnemonics: raw.mnemonics.to_vec(),
            starts: arena
                .sections()
                .iter()
                .map(|span| span.start)
                .chain([n])
                .collect(),
            core_of: core_of.to_vec(),
        })
    }

    /// Number of rows (dynamic instructions).
    pub fn len(&self) -> usize {
        self.fd.len()
    }

    /// Whether the run had no instructions.
    pub fn is_empty(&self) -> bool {
        self.fd.is_empty()
    }

    /// The row of the instruction at trace position `seq`, or `None`
    /// past the end.
    pub fn get(&self, seq: usize) -> Option<InstTiming> {
        (seq < self.len()).then(|| self.row(seq))
    }

    /// Every row, in sequential trace order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = InstTiming> + '_ {
        (0..self.len()).map(move |seq| self.row(seq))
    }

    /// The rows of one section, in fetch order — the section's contiguous
    /// span of the sequential order. Empty when `id` names no section of
    /// the run.
    pub fn section(&self, id: SectionId) -> impl ExactSizeIterator<Item = InstTiming> + '_ {
        let span = match (self.starts.get(id.0), self.starts.get(id.0 + 1)) {
            (Some(&start), Some(&end)) => start..end,
            _ => 0..0,
        };
        span.map(move |seq| self.row(seq))
    }

    /// Resident bytes of the table's columns (logical sizes: every column
    /// is allocated exactly).
    pub fn memory_bytes(&self) -> u64 {
        let bytes = (self.fd.len() + self.ew.len() + self.ret.len() + self.complete.len())
            * size_of::<u64>()
            + self.ip.len() * size_of::<u32>()
            + self.mnemonic_id.len() * size_of::<u16>()
            + self.section.len() * size_of::<u32>()
            + self.memory.len() * size_of::<bool>()
            + self.mnemonics.len() * size_of::<&'static str>()
            + self.starts.len() * size_of::<usize>()
            + self.core_of.len() * size_of::<CoreId>();
        bytes as u64
    }

    fn row(&self, seq: usize) -> InstTiming {
        let section = self.section[seq] as usize;
        let (fd, ew) = (self.fd[seq], self.ew[seq]);
        let memory = self.memory[seq];
        InstTiming {
            seq,
            index_in_section: seq - self.starts[section],
            ip: self.ip[seq] as usize,
            mnemonic: self.mnemonics[self.mnemonic_id[seq] as usize],
            section: SectionId(section),
            core: self.core_of[section],
            fd,
            rr: fd + 1,
            ew,
            ar: memory.then(|| ew + 1),
            ma: memory.then_some(self.complete[seq]),
            ret: self.ret[seq],
        }
    }
}

/// Aggregate statistics of one many-core simulation.
///
/// Every field is accumulated **streaming** during the simulation (the
/// resolver's `max_fd`/`max_ret` accumulators, the renaming counters,
/// the NoC's own counters), never derived from the per-instruction stage
/// table — so a stats-only run ([`crate::SimConfig::record_timings`]
/// off) reports statistics bit-identical to a recording run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Number of dynamic instructions simulated.
    pub instructions: u64,
    /// Number of sections.
    pub sections: usize,
    /// Number of distinct cores that hosted at least one section.
    ///
    /// This counts *hosting* cores only; the per-core
    /// [`SimStats::attribution`] table covers **every** core of the
    /// configured chip (its length is the chip's core count), so cores
    /// that never host a section still contribute their all-idle rows to
    /// [`SimStats::occupancy`] — chip-wide occupancy stays well-defined
    /// at 1024 cores instead of silently renormalizing to the used
    /// subset.
    pub cores_used: usize,
    /// Cycle at which the last instruction was fetched.
    pub fetch_cycles: u64,
    /// Cycle at which the last instruction retired.
    pub total_cycles: u64,
    /// `instructions / fetch_cycles` — the paper's headline fetch
    /// parallelism metric (§5).
    pub fetch_ipc: f64,
    /// `instructions / total_cycles`.
    pub retire_ipc: f64,
    /// Renaming requests served by a remote section (register sources).
    pub remote_register_requests: u64,
    /// Renaming requests served by a remote section (memory sources).
    pub remote_memory_requests: u64,
    /// Register sources satisfied by the fork-copied registers.
    pub fork_copied_sources: u64,
    /// Memory sources served by the loader / data memory hierarchy.
    pub dmh_accesses: u64,
    /// Times the deadlock *detector* forcibly released a stalled fetch
    /// stage (one count per section released). Under the in-order
    /// fetch-stall handoff model a stall with an unknown release parks
    /// its section and is requeued by an explicit wake event, so every
    /// well-formed trace completes with this at zero — provably: every
    /// stalled control instruction waits only on earlier-trace producers,
    /// which the freed fetch slot keeps fetching. Any firing therefore
    /// flags a malformed trace (or a simulator bug) and makes the
    /// reported timings untrustworthy; the driver layer surfaces it as
    /// `DriverError::Deadlock` instead of producing a report.
    pub forced_stall_releases: u64,
    /// Largest number of sections hosted by a single core.
    pub peak_sections_per_core: usize,
    /// Bytes held by the [`parsecs_trace::TraceArena`] the run was
    /// simulated from (allocated capacity of every column — the
    /// functional front-end's resident footprint).
    pub trace_arena_bytes: u64,
    /// Statistics of the underlying NoC model.
    pub noc: NocStats,
    /// Exact per-core cycle attribution: one additive busy /
    /// stalled-by-cause / parked / idle breakdown per *configured* core
    /// (not just hosting cores), each summing to
    /// [`SimStats::total_cycles`]. Accumulated always-on from the
    /// deterministic section/stall event stream, so it is part of the
    /// engines' bit-identity contract (see [`parsecs_obs::attribution`]).
    pub attribution: Vec<CoreBreakdown>,
}

impl SimStats {
    /// [`SimStats::trace_arena_bytes`] per simulated instruction.
    pub fn trace_bytes_per_instruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.trace_arena_bytes as f64 / self.instructions as f64
        }
    }

    /// Chip-wide fetch-slot occupancy in `[0, 1]`: the busy fraction of
    /// the whole chip's cycle budget, `Σ busy / (cores × total_cycles)`,
    /// over **all** configured cores ([`SimStats::attribution`] is the
    /// denominator, not [`SimStats::cores_used`]). 0.0 on an empty run.
    pub fn occupancy(&self) -> f64 {
        let budget = self.attribution.len() as u64 * self.total_cycles;
        if budget == 0 {
            return 0.0;
        }
        let busy: u64 = self.attribution.iter().map(|b| b.busy).sum();
        busy as f64 / budget as f64
    }
}

/// Formats the per-core timing tables in the layout of the paper's
/// Figure 10: one table per core, one row per instruction, the six stage
/// columns `fd rr ew ar ma ret`. A stats-only run has no stage rows, so
/// its table is empty.
pub fn format_figure10(result: &SimResult) -> String {
    let mut out = String::new();
    let Some(table) = &result.timings else {
        return out;
    };
    // A core's rows in trace order are its non-empty sections' spans in
    // section order; a stable sort by core keeps that order per core.
    let mut hosted: Vec<usize> = (0..table.core_of.len())
        .filter(|&s| table.starts[s] < table.starts[s + 1])
        .collect();
    hosted.sort_by_key(|&s| table.core_of[s]);
    for sections in hosted.chunk_by(|&a, &b| table.core_of[a] == table.core_of[b]) {
        let _ = writeln!(out, "{} pipeline", table.core_of[sections[0]]);
        let _ = writeln!(
            out,
            "{:>6} {:>22} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
            "insn", "mnemonic", "fd", "rr", "ew", "ar", "ma", "ret"
        );
        for t in sections.iter().flat_map(|&s| table.section(SectionId(s))) {
            let ar = t.ar.map(|c| c.to_string()).unwrap_or_default();
            let ma = t.ma.map(|c| c.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{:>6} {:>22} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
                t.name(),
                t.mnemonic,
                t.fd,
                t.rr,
                t.ew,
                ar,
                ma,
                t.ret
            );
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use parsecs_noc::{NocConfig, Topology};
    use parsecs_workloads::{scale, sum};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    use super::*;
    use crate::{ChainAffine, LoadAware, ManyCoreSim, NoopProbe, Placement, SimConfig};

    #[test]
    fn completion_prefers_memory_access() {
        let mut t = InstTiming {
            seq: 0,
            index_in_section: 0,
            ip: 0,
            mnemonic: "movq",
            section: SectionId(0),
            core: CoreId(0),
            fd: 1,
            rr: 2,
            ew: 3,
            ar: None,
            ma: None,
            ret: 4,
        };
        assert_eq!(t.completion(), 3);
        assert_eq!(t.name(), "1-1");
        t.ar = Some(4);
        t.ma = Some(7);
        assert_eq!(t.completion(), 7);
    }

    /// One small program of a random workload family: forks, memory
    /// traffic, cross-section writer chains, or a single call section.
    fn random_program(rng: &mut TestRng) -> (parsecs_isa::Program, u64) {
        let seed = rng.next_u64();
        match rng.index(6) {
            0 => {
                let data: Vec<u64> = (0..1 + rng.index(40))
                    .map(|_| rng.next_u64() % 100)
                    .collect();
                (sum::fork_program(&data), 100_000)
            }
            1 => {
                let data: Vec<u64> = (0..1 + rng.index(12))
                    .map(|_| rng.next_u64() % 100)
                    .collect();
                (sum::call_program(&data), 100_000)
            }
            2 => {
                let (keys, buckets) = (1 + rng.index(60), 1 + rng.index(8));
                let fuel = scale::histogram_fuel(keys, buckets);
                (scale::histogram_program(keys, buckets, seed), fuel)
            }
            3 => {
                let (chains, links) = (1 + rng.index(8), 1 + rng.index(6));
                let fuel = scale::fan_chain_fuel(chains, links);
                (scale::fan_chain_program(chains, links, seed), fuel)
            }
            4 => {
                let elements = 1 + rng.index(60);
                let fuel = scale::tree_sum_fuel(elements);
                (scale::tree_sum_program(elements, seed), fuel)
            }
            _ => {
                let elements = 1 + rng.index(30);
                let fuel = scale::chain_sum_fuel(elements);
                (scale::chain_sum_program(elements, seed), fuel)
            }
        }
    }

    fn random_config(rng: &mut TestRng) -> SimConfig {
        let cores = [1usize, 2, 3, 4, 8, 16, 64][rng.index(7)];
        let config = SimConfig::with_cores(cores);
        let mut config = match rng.index(4) {
            0 => config.with_placement(Placement::RoundRobin),
            1 => config.with_placement(Placement::LeastLoaded),
            2 => config.with_placement(LoadAware),
            _ => config.with_placement(ChainAffine),
        };
        config.noc = NocConfig {
            base_latency: rng.index(4) as u64,
            per_hop_latency: rng.index(4) as u64,
            link_bandwidth: [None, Some(1), Some(2)][rng.index(3)],
        };
        if cores == 16 && rng.index(2) == 0 {
            config.topology = Some(Topology::mesh(4, 4));
        }
        config.max_sections_per_core = [1usize, 2, 8][rng.index(3)];
        config.dmh_latency = 1 + rng.index(7) as u64;
        config.per_section_hop = rng.index(3) as u64;
        config.fetch_stalls_on_unresolved_control = rng.index(4) != 0;
        config
    }

    proptest! {
        /// The table's on-demand rows — in full, by position and by
        /// section — and the Figure 10 text it formats equal what the
        /// materialised row table gave, on random programs × random chips
        /// × both engines.
        #[test]
        fn stage_table_rows_match_the_row_building_oracle(seed in any::<u64>()) {
            let mut rng = TestRng::deterministic(&seed.to_string());
            let (program, fuel) = random_program(&mut rng);
            let arena = TraceArena::from_program(&program, fuel).expect("halts");
            for _ in 0..2 {
                let sim = ManyCoreSim::new(random_config(&mut rng));
                let event = sim.simulate_arena(&arena).expect("event engine simulates");
                let reference = sim
                    .simulate_arena_reference(&arena, &mut NoopProbe)
                    .expect("reference engine simulates");
                for result in [&event, &reference] {
                    let table = result.timings.as_ref().expect("full mode");
                    let rows = oracle::rows(&arena, table, &result.core_of);
                    prop_assert_eq!(table.len(), rows.len());
                    prop_assert_eq!(table.is_empty(), rows.is_empty());
                    prop_assert_eq!(table.iter().collect::<Vec<_>>(), rows.clone());
                    for (seq, row) in rows.iter().enumerate() {
                        prop_assert_eq!(table.get(seq).as_ref(), Some(row));
                    }
                    prop_assert_eq!(table.get(rows.len()), None);
                    for span in &result.sections {
                        prop_assert_eq!(
                            table.section(span.id).collect::<Vec<_>>(),
                            rows[span.start..span.end].to_vec()
                        );
                        prop_assert_eq!(
                            result.section_timings(span.id).collect::<Vec<_>>(),
                            rows[span.start..span.end].to_vec()
                        );
                    }
                    prop_assert_eq!(table.section(SectionId(result.sections.len())).len(), 0);
                    prop_assert_eq!(format_figure10(result), oracle::figure10(&rows));
                }
                prop_assert_eq!(&event, &reference);
            }
        }
    }

    #[test]
    fn stats_only_runs_and_empty_programs_format_nothing() {
        let program = sum::fork_program(&[4, 2, 6, 4, 5]);
        let stats = ManyCoreSim::new(SimConfig::with_cores(4).stats_only())
            .run(&program)
            .expect("simulates");
        assert!(stats.timings.is_none());
        assert_eq!(format_figure10(&stats), "");
        let empty = crate::StreamingSectioner::new()
            .finish(vec![])
            .expect("fits");
        let full = ManyCoreSim::new(SimConfig::with_cores(4))
            .simulate_arena(&empty)
            .expect("simulates");
        assert_eq!(full.timings.as_ref().map(StageTable::len), Some(0));
        assert_eq!(format_figure10(&full), oracle::figure10(&[]));
    }
}

/// The materialised row table the [`StageTable`] replaced: the row
/// built per instruction from the arena and the stage columns, and
/// Figure 10 formatted by scanning those rows once per core. The oracle
/// the table's on-demand rows must match row for row and byte for byte.
#[cfg(test)]
mod oracle {
    use super::*;

    pub fn rows(arena: &TraceArena, table: &StageTable, core_of: &[CoreId]) -> Vec<InstTiming> {
        (0..arena.len())
            .map(|seq| {
                let section = arena.section(seq);
                let fd = table.fd[seq];
                let ew = table.ew[seq];
                let complete = table.complete[seq];
                let ret = table.ret[seq];
                let is_mem = arena.is_load(seq) || arena.is_store(seq);
                InstTiming {
                    seq,
                    index_in_section: arena.index_in_section(seq),
                    ip: arena.ip(seq),
                    mnemonic: arena.mnemonic(seq),
                    section,
                    core: core_of[section.0],
                    fd,
                    rr: fd + 1,
                    ew,
                    ar: is_mem.then(|| ew + 1),
                    ma: is_mem.then_some(complete),
                    ret,
                }
            })
            .collect()
    }

    pub fn figure10(timings: &[InstTiming]) -> String {
        let mut out = String::new();
        let mut cores: Vec<CoreId> = timings.iter().map(|t| t.core).collect();
        cores.sort();
        cores.dedup();
        for core in cores {
            let _ = writeln!(out, "{core} pipeline");
            let _ = writeln!(
                out,
                "{:>6} {:>22} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
                "insn", "mnemonic", "fd", "rr", "ew", "ar", "ma", "ret"
            );
            for t in timings.iter().filter(|t| t.core == core) {
                let ar = t.ar.map(|c| c.to_string()).unwrap_or_default();
                let ma = t.ma.map(|c| c.to_string()).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{:>6} {:>22} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
                    t.name(),
                    t.mnemonic,
                    t.fd,
                    t.rr,
                    t.ew,
                    ar,
                    ma,
                    t.ret
                );
            }
            let _ = writeln!(out);
        }
        out
    }
}
