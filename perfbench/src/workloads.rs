//! The three benchmark workloads: their programs, oracles and chip
//! configurations. Inputs are generated from the seed alone.

use parsecs_core::{LoadAware, Placement, SimConfig, TraceArena, TraceError};
use parsecs_isa::Program;
use parsecs_workloads::scale;

/// One program generator of `parsecs_workloads::scale`, at the size the
/// benchmark runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fan_chain_program(1024, 700)`: 1024 latency-bound handoff chains.
    FanChain,
    /// `synth_histogram_program(700_000, 4096)`: in-program LCG keys.
    SynthHistogram,
    /// `histogram_program(100_000, 64)`.
    Histogram,
    /// `tree_sum_program(250_000)`.
    TreeSum,
    /// `chain_sum_program(110_000)`.
    ChainSum,
}

const FAN_CHAINS: usize = 1024;
const FAN_LINKS: usize = 700;
const SYNTH_KEYS: usize = 700_000;
const SYNTH_BUCKETS: usize = 4096;
const HIST_KEYS: usize = 100_000;
const HIST_BUCKETS: usize = 64;
const TREE_ELEMENTS: usize = 250_000;
const CHAIN_ELEMENTS: usize = 110_000;

impl Kind {
    /// The label the program carries in reports, `generator-size`.
    pub fn label(self) -> String {
        match self {
            Kind::FanChain => format!("fan_chain-{FAN_CHAINS}x{FAN_LINKS}"),
            Kind::SynthHistogram => format!("synth_histogram-{SYNTH_KEYS}x{SYNTH_BUCKETS}"),
            Kind::Histogram => format!("histogram-{HIST_KEYS}x{HIST_BUCKETS}"),
            Kind::TreeSum => format!("tree_sum-{TREE_ELEMENTS}"),
            Kind::ChainSum => format!("chain_sum-{CHAIN_ELEMENTS}"),
        }
    }

    /// Generates (and assembles) the program.
    pub fn program(self, seed: u64) -> Program {
        match self {
            Kind::FanChain => scale::fan_chain_program(FAN_CHAINS, FAN_LINKS, seed),
            Kind::SynthHistogram => scale::synth_histogram_program(SYNTH_KEYS, SYNTH_BUCKETS, seed),
            Kind::Histogram => scale::histogram_program(HIST_KEYS, HIST_BUCKETS, seed),
            Kind::TreeSum => scale::tree_sum_program(TREE_ELEMENTS, seed),
            Kind::ChainSum => scale::chain_sum_program(CHAIN_ELEMENTS, seed),
        }
    }

    /// The Rust oracle of the program's outputs.
    pub fn expected(self, seed: u64) -> Vec<u64> {
        match self {
            Kind::FanChain => scale::fan_chain_expected(FAN_CHAINS, FAN_LINKS, seed),
            Kind::SynthHistogram => {
                scale::synth_histogram_expected(SYNTH_KEYS, SYNTH_BUCKETS, seed)
            }
            Kind::Histogram => scale::histogram_expected(HIST_KEYS, HIST_BUCKETS, seed),
            Kind::TreeSum => scale::tree_sum_expected(TREE_ELEMENTS, seed),
            Kind::ChainSum => scale::chain_sum_expected(CHAIN_ELEMENTS, seed),
        }
    }

    /// The functional pre-execution budget the generator derives.
    pub fn fuel(self) -> u64 {
        match self {
            Kind::FanChain => scale::fan_chain_fuel(FAN_CHAINS, FAN_LINKS),
            Kind::SynthHistogram => scale::synth_histogram_fuel(SYNTH_KEYS, SYNTH_BUCKETS),
            Kind::Histogram => scale::histogram_fuel(HIST_KEYS, HIST_BUCKETS),
            Kind::TreeSum => scale::tree_sum_fuel(TREE_ELEMENTS),
            Kind::ChainSum => scale::chain_sum_fuel(CHAIN_ELEMENTS),
        }
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One stats-only 1024-core round-robin cell over a lean arena.
    FanChainStats,
    /// One full-mode (stage-table recording) 256-core cell.
    HistogramFull,
    /// Three programs × six validated stats-only configurations through
    /// `driver::Sweep`.
    DseSweep,
}

/// A single-cell workload: one program simulated once per repetition by
/// `ManyCoreSim::simulate_arena`, outside the driver.
pub struct SingleCell {
    /// The program generator.
    pub kind: Kind,
    /// Whether the arena drops its written-location columns.
    pub lean: bool,
    /// The chip configuration.
    pub config: SimConfig,
}

impl SingleCell {
    /// Sections the program into the arena this cell simulates.
    ///
    /// # Errors
    ///
    /// The pre-execution or sectioning error.
    pub fn arena(&self, program: &Program) -> Result<TraceArena, TraceError> {
        if self.lean {
            TraceArena::from_program_lean(program, self.kind.fuel())
        } else {
            TraceArena::from_program(program, self.kind.fuel())
        }
    }
}

/// The design-space grid: programs × configurations.
pub struct Grid {
    /// The programs, one sweep row each.
    pub kinds: Vec<Kind>,
    /// The configurations, one sweep column each.
    pub configs: Vec<SimConfig>,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::FanChainStats,
        Workload::HistogramFull,
        Workload::DseSweep,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FanChainStats => "fan_chain_stats",
            Workload::HistogramFull => "histogram_full",
            Workload::DseSweep => "dse_sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The single cell, for the two single-cell workloads.
    pub fn single(self) -> Option<SingleCell> {
        match self {
            Workload::FanChainStats => Some(SingleCell {
                kind: Kind::FanChain,
                lean: true,
                config: SimConfig::with_cores(1024).stats_only(),
            }),
            Workload::HistogramFull => Some(SingleCell {
                kind: Kind::SynthHistogram,
                lean: false,
                config: SimConfig::with_cores(256),
            }),
            Workload::DseSweep => None,
        }
    }

    /// The sweep grid, for `dse_sweep`.
    ///
    /// Rows and columns are ordered heaviest first (the chain sum, the
    /// 1024-core chip, `LoadAware`): the sweep's workers take cells in grid
    /// order, so a heavy cell left for last would run alone and set the
    /// makespan by itself; heaviest-first keeps the two-worker run time
    /// from swinging with which worker draws it.
    pub fn grid(self) -> Option<Grid> {
        (self == Workload::DseSweep).then(|| Grid {
            kinds: vec![Kind::ChainSum, Kind::TreeSum, Kind::Histogram],
            configs: [1024, 256, 64]
                .into_iter()
                .flat_map(|cores| {
                    let base = SimConfig::with_cores(cores).stats_only().validated();
                    [
                        base.clone().with_placement(LoadAware),
                        base.with_placement(Placement::RoundRobin),
                    ]
                })
                .collect(),
        })
    }
}
