//! Section-to-core placement policies.
//!
//! The paper leaves the hosting-core choice out of scope ("we assume the 5
//! sections can be hosted in 5 different cores"), so the simulator makes
//! the policy pluggable: anything implementing [`PlacementPolicy`] can
//! decide which core hosts each section. The built-in policies are the
//! closed set the simulator historically offered ([`Placement`]) plus a
//! load- and communication-aware heuristic ([`LoadAware`]) in the spirit
//! of the AMTHA task-to-processor assignment algorithm (De Giusti et al.):
//! each section goes to the core where it is estimated to *finish*
//! earliest, accounting for the NoC latency between the creator's core and
//! the candidate core.

use std::collections::HashMap;
use std::fmt;

use parsecs_noc::{CoreId, NocConfig, Topology};

use crate::{SectionId, SectionSpan, SourceKind};

/// A static description of the chip a placement decides over.
#[derive(Debug, Clone)]
pub struct ChipView {
    /// Number of cores available for hosting.
    pub cores: usize,
    /// Soft per-core section capacity (`max_section` in the paper).
    /// Policies should prefer cores below this limit but may exceed it
    /// when every core is full, so that runs always complete.
    pub max_sections_per_core: usize,
    /// The interconnect topology.
    pub topology: Topology,
    /// The interconnect timing.
    pub noc: NocConfig,
}

impl ChipView {
    /// One-way message latency between two cores under the chip's NoC
    /// timing.
    pub fn link_latency(&self, from: CoreId, to: CoreId) -> u64 {
        self.noc.base_latency + self.noc.per_hop_latency * self.topology.hops(from, to) as u64
    }
}

/// The cross-section dependence summary of a run, as a placement policy
/// sees it: for every consumer section, which earlier sections produce
/// its remote operands and with what weight (number of renaming requests
/// the timing model will charge between the pair).
///
/// Renaming always matches a consumer with the closest *preceding*
/// producer, so every edge points backward in the section total order —
/// when a policy walks sections in order, each edge's producer is already
/// placed.
#[derive(Debug, Clone, Default)]
pub struct SectionDeps {
    /// Per consumer section: `(producer section, request count)`, sorted
    /// by producer id.
    producers: Vec<Vec<(SectionId, u32)>>,
}

impl SectionDeps {
    /// Builds the summary from an arena-backed trace, counting one edge
    /// weight per remote register or memory source.
    pub fn from_arena(sections: usize, arena: &parsecs_trace::TraceArena) -> SectionDeps {
        let mut weights: Vec<HashMap<usize, u32>> = vec![HashMap::new(); sections];
        for seq in 0..arena.len() {
            for dep in arena.sources(seq) {
                if let SourceKind::Remote {
                    producer_section, ..
                } = dep.kind()
                {
                    *weights[arena.section(seq).0]
                        .entry(producer_section.0)
                        .or_insert(0) += 1;
                }
            }
        }
        let producers = weights
            .into_iter()
            .map(|map| {
                let mut edges: Vec<(SectionId, u32)> = map
                    .into_iter()
                    .map(|(section, weight)| (SectionId(section), weight))
                    .collect();
                edges.sort_unstable();
                edges
            })
            .collect();
        SectionDeps { producers }
    }

    /// The remote-operand producers of `section`, with request counts.
    pub fn producers(&self, section: SectionId) -> &[(SectionId, u32)] {
        &self.producers[section.0]
    }
}

/// Decides which core hosts each section of a run.
///
/// Policies see the full totally-ordered section list up front (the
/// simulator replays a functional pre-execution, so the section structure
/// is known before timing starts) and return one [`CoreId`] per section.
/// The returned vector must be the same length as `sections` and every
/// core id must be below `chip.cores`; the simulator validates both.
pub trait PlacementPolicy: fmt::Debug + Send + Sync {
    /// A short, stable, human-readable policy name (used in reports,
    /// sweep labels and configuration equality).
    fn name(&self) -> &str;

    /// Assigns a hosting core to every section.
    fn assign(&self, sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId>;

    /// Whether the simulator should compute the [`SectionDeps`] summary
    /// and call [`PlacementPolicy::assign_with_deps`] instead of
    /// [`PlacementPolicy::assign`]. Defaults to `false`; communication-
    /// aware policies opt in.
    fn wants_dependences(&self) -> bool {
        false
    }

    /// Assigns a hosting core to every section, with the run's
    /// cross-section dependences available. The default ignores them and
    /// delegates to [`PlacementPolicy::assign`].
    fn assign_with_deps(
        &self,
        sections: &[SectionSpan],
        chip: &ChipView,
        _deps: &SectionDeps,
    ) -> Vec<CoreId> {
        self.assign(sections, chip)
    }
}

/// The built-in placement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Sections are assigned to cores in creation order, round robin,
    /// spilling to the next core with free capacity. This is the policy
    /// implied by the paper's example ("we assume the 5 sections can be
    /// hosted in 5 different cores").
    #[default]
    RoundRobin,
    /// Each new section goes to the core with the fewest instructions
    /// currently assigned (a simple load-balancing heuristic).
    LeastLoaded,
}

impl PlacementPolicy for Placement {
    fn name(&self) -> &str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::LeastLoaded => "least-loaded",
        }
    }

    fn assign(&self, sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId> {
        let cores = chip.cores;
        let mut slots = Slots::new(cores, chip.max_sections_per_core);
        match self {
            Placement::RoundRobin => sections
                .iter()
                .map(|s| {
                    // Spill to the next core with room; once the chip is
                    // full every core has room, so `preferred` takes it.
                    let preferred = s.id.0 % cores;
                    let chosen = (preferred..cores)
                        .chain(0..preferred)
                        .find(|&c| slots.room[c] > 0)
                        .expect("a core with room");
                    slots.host(chosen);
                    CoreId(chosen)
                })
                .collect(),
            Placement::LeastLoaded => {
                let mut load = vec![0usize; cores];
                sections
                    .iter()
                    .map(|s| {
                        // The least-loaded core (the first on ties) below
                        // the soft section capacity, or of the whole chip
                        // once it is full (the same rule RoundRobin applies).
                        let core = (0..cores)
                            .filter(|&c| slots.room[c] > 0)
                            .min_by_key(|&c| load[c])
                            .expect("at least one core");
                        load[core] += s.len();
                        slots.host(core);
                        CoreId(core)
                    })
                    .collect()
            }
        }
    }
}

/// Free section slots per core under the soft capacity. A full core never
/// regains room, so the count of `open` cores only falls; when it hits
/// zero the whole chip is full and the limit is relaxed for good: every
/// core has room from then on.
struct Slots {
    room: Vec<usize>,
    open: usize,
}

impl Slots {
    fn new(cores: usize, limit: usize) -> Slots {
        let open = if limit == 0 { 0 } else { cores };
        Slots {
            room: vec![limit.max(1); cores],
            open,
        }
    }

    /// Records one more section on `core`, which must have room.
    fn host(&mut self, core: usize) {
        if self.open > 0 {
            self.room[core] -= 1;
            if self.room[core] == 0 {
                self.open -= 1;
                if self.open == 0 {
                    self.room.fill(1);
                }
            }
        }
    }
}

/// An AMTHA-inspired, load- and communication-aware policy: each section
/// is placed on the core where its estimated *finish time* is earliest.
///
/// The estimate models what the timing simulator charges: a section
/// cannot start before its creator's fork has run and the section-creation
/// message has crossed the NoC from the creator's core, and a core runs
/// the sections queued on it one after another (one instruction per
/// cycle). Ties go to the lowest core id, which keeps small runs compact
/// and deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadAware;

impl PlacementPolicy for LoadAware {
    fn name(&self) -> &str {
        "load-aware"
    }

    fn assign(&self, sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId> {
        earliest_finish(sections, chip, None)
    }
}

/// A chained-writer co-location policy: each section is placed to
/// minimise its estimated finish time *plus* the renaming round trips it
/// will pay to the cores hosting its remote-operand producers.
///
/// This targets the workload class where writers of the same datum are
/// chained across sections (the histogram's bucket counters, the chain
/// sum's accumulator): the consumer of a chained value stalls its fetch
/// stage until the producer's value crosses the NoC, so shortening the
/// consumer→producer path shortens the handoff critical path directly.
/// The load term (the same one [`LoadAware`] uses) keeps chains from
/// collapsing onto a single overloaded core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainAffine;

impl PlacementPolicy for ChainAffine {
    fn name(&self) -> &str {
        "chain-affine"
    }

    /// Without dependences the policy degrades to [`LoadAware`].
    fn assign(&self, sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId> {
        earliest_finish(sections, chip, None)
    }

    fn wants_dependences(&self) -> bool {
        true
    }

    fn assign_with_deps(
        &self,
        sections: &[SectionSpan],
        chip: &ChipView,
        deps: &SectionDeps,
    ) -> Vec<CoreId> {
        earliest_finish(sections, chip, Some(deps))
    }
}

/// The earliest-finish kernel behind [`LoadAware`] (`deps` is `None`) and
/// [`ChainAffine`]: each section goes to the eligible core minimising its
/// estimated start plus its length, plus, with `deps`, the round trips
/// from that core to every remote producer's host. The queueing estimate
/// excludes that communication charge: a core is busy for the section's
/// fetch span only.
fn earliest_finish(
    sections: &[SectionSpan],
    chip: &ChipView,
    deps: Option<&SectionDeps>,
) -> Vec<CoreId> {
    let (cores, topology) = (chip.cores, chip.topology);
    let (base, per_hop) = (chip.noc.base_latency, chip.noc.per_hop_latency);
    let mut slots = Slots::new(cores, chip.max_sections_per_core);
    // When each core becomes free, and each section's estimated start.
    let mut free_at = vec![0u64; cores];
    let mut start_at: Vec<u64> = Vec::with_capacity(sections.len());
    let mut core_of: Vec<CoreId> = Vec::with_capacity(sections.len());
    // Hop rows from the creator's and a producer's core; the per-core
    // communication charge stays zero without `deps`.
    let mut creator_hops = vec![0u64; cores];
    let mut producer_hops = vec![0u64; cores];
    let mut comm = vec![0u64; cores];

    for span in sections {
        let len = span.len() as u64;
        // The section becomes available on core `c` at `sent + slope *
        // creator_hops[c]`: once its creator has fetched the fork and the
        // creation message has crossed the NoC to `c`.
        let (sent, slope) = match span.creator {
            Some((SectionId(creator), fork_seq)) => {
                let fork_offset = fork_seq.saturating_sub(sections[creator].start) as u64 + 1;
                topology.hops_from(core_of[creator], &mut creator_hops);
                (start_at[creator] + fork_offset + base, per_hop)
            }
            None => (0, 0),
        };
        if let Some(deps) = deps {
            comm.fill(0);
            for &(producer, weight) in deps.producers(span.id) {
                topology.hops_from(core_of[producer.0], &mut producer_hops);
                for (charge, hops) in comm.iter_mut().zip(&producer_hops) {
                    *charge += 2 * weight as u64 * (base + per_hop * hops);
                }
            }
        }
        // (score, core, start) of the best core with room; scanning down
        // with `<=` leaves ties at the lowest core id.
        let mut best = (u64::MAX, usize::MAX, 0);
        let rows = slots
            .room
            .iter()
            .zip(&creator_hops)
            .zip(&free_at)
            .zip(&comm);
        for (c, (((&room, &hops), &free), &charge)) in rows.enumerate().rev() {
            if room == 0 {
                continue;
            }
            let start = (sent + slope * hops).max(free);
            let score = start + charge + len;
            if score <= best.0 {
                best = (score, c, start);
            }
        }
        let (_, chosen, begun) = best;
        free_at[chosen] = begun + len;
        slots.host(chosen);
        start_at.push(begun);
        core_of.push(CoreId(chosen));
    }
    core_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn chip(cores: usize) -> ChipView {
        ChipView {
            cores,
            max_sections_per_core: 8,
            topology: Topology::Crossbar { size: cores },
            noc: NocConfig {
                base_latency: 1,
                per_hop_latency: 1,
                link_bandwidth: None,
            },
        }
    }

    fn spans(sizes: &[usize]) -> Vec<SectionSpan> {
        let mut start = 0;
        sizes
            .iter()
            .enumerate()
            .map(|(i, len)| {
                let span = SectionSpan {
                    id: SectionId(i),
                    start,
                    end: start + len,
                    creator: if i == 0 {
                        None
                    } else {
                        Some((SectionId(0), 0))
                    },
                    start_ip: 0,
                };
                start += len;
                span
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_over_cores() {
        let assigned = Placement::RoundRobin.assign(&spans(&[4, 4, 4, 4]), &chip(2));
        assert_eq!(assigned, vec![CoreId(0), CoreId(1), CoreId(0), CoreId(1)]);
    }

    #[test]
    fn round_robin_respects_capacity_until_full() {
        let mut c = chip(2);
        c.max_sections_per_core = 1;
        let assigned = Placement::RoundRobin.assign(&spans(&[1, 1, 1]), &c);
        // Two sections fit; the third relaxes the limit at its preferred
        // core (2 mod 2) rather than failing.
        assert_eq!(assigned, vec![CoreId(0), CoreId(1), CoreId(0)]);
    }

    #[test]
    fn least_loaded_balances_instruction_counts() {
        let assigned = Placement::LeastLoaded.assign(&spans(&[10, 1, 1, 1]), &chip(2));
        // The big first section claims core 0, the small rest pile on 1.
        assert_eq!(assigned[0], CoreId(0));
        assert!(assigned[1..].iter().all(|c| *c == CoreId(1)));
    }

    #[test]
    fn least_loaded_prefers_under_capacity_cores() {
        // Core 0 carries one huge section; with a capacity of 2 the small
        // sections must move to core 0 once core 1 is full, even though
        // core 1 has much less instruction load.
        let mut c = chip(2);
        c.max_sections_per_core = 2;
        let assigned = Placement::LeastLoaded.assign(&spans(&[10, 1, 1, 1]), &c);
        assert_eq!(
            assigned,
            vec![CoreId(0), CoreId(1), CoreId(1), CoreId(0)],
            "the fourth section must respect core 1's capacity"
        );
    }

    #[test]
    fn least_loaded_relaxes_capacity_only_when_the_chip_is_full() {
        let mut c = chip(2);
        c.max_sections_per_core = 1;
        let assigned = Placement::LeastLoaded.assign(&spans(&[4, 2, 2]), &c);
        // Two sections fit under the limit; the third relaxes it and goes
        // back to the least-loaded core.
        assert_eq!(assigned, vec![CoreId(0), CoreId(1), CoreId(1)]);
        let mut per_core = [0usize; 2];
        for core in &assigned {
            per_core[core.0] += 1;
        }
        assert_eq!(per_core.iter().sum::<usize>(), 3, "every section is placed");
    }

    #[test]
    fn load_aware_spreads_across_idle_cores() {
        let assigned = LoadAware.assign(&spans(&[8, 8, 8, 8]), &chip(4));
        let mut distinct: Vec<CoreId> = assigned.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            4,
            "equal sections on an idle chip spread out: {assigned:?}"
        );
    }

    #[test]
    fn load_aware_avoids_the_busy_creator_core() {
        // One very long section forks short ones early: the short ones
        // should pay the NoC hop to the idle core rather than queue for
        // ~100 cycles behind their creator.
        let assigned = LoadAware.assign(&spans(&[100, 2, 2, 2]), &chip(2));
        assert_eq!(assigned[0], CoreId(0));
        assert!(
            assigned[1..].iter().all(|c| *c == CoreId(1)),
            "{assigned:?}"
        );
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(Placement::RoundRobin.name(), "round-robin");
        assert_eq!(Placement::LeastLoaded.name(), "least-loaded");
        assert_eq!(LoadAware.name(), "load-aware");
        assert_eq!(ChainAffine.name(), "chain-affine");
    }

    use crate::section::SourceDep;
    use parsecs_trace::TraceArena;

    /// An arena of sections of the given sizes whose only dependences are
    /// `remote` register sources, one per `(consumer section, producer
    /// section)` pair, all on the consumer section's first record.
    fn arena(sizes: &[usize], remote: &[(usize, usize)]) -> TraceArena {
        let spans = spans(sizes);
        let mut arena = TraceArena::new();
        for span in &spans {
            let deps: Vec<SourceDep> = remote
                .iter()
                .filter(|&&(consumer, _)| consumer == span.id.0)
                .map(|&(_, producer)| SourceDep {
                    location: parsecs_machine::Location::Flags,
                    kind: SourceKind::Remote {
                        producer: spans[producer].start,
                        producer_section: SectionId(producer),
                    },
                })
                .collect();
            for seq in span.start..span.end {
                let sources = if seq == span.start { &deps[..] } else { &[] };
                let kind = parsecs_machine::TraceKind::Other;
                arena.push_record(0, "movq", span.id, kind, false, sources, &[], &[]);
            }
        }
        for span in spans {
            arena.push_section(span);
        }
        arena
    }

    #[test]
    fn section_deps_count_remote_edges_per_producer() {
        let arena = arena(&[1, 1, 1], &[(1, 0), (1, 0), (2, 1), (2, 0)]);
        let deps = SectionDeps::from_arena(3, &arena);
        assert!(deps.producers(SectionId(0)).is_empty());
        assert_eq!(deps.producers(SectionId(1)), &[(SectionId(0), 2)]);
        assert_eq!(
            deps.producers(SectionId(2)),
            &[(SectionId(0), 1), (SectionId(1), 1)]
        );
    }

    #[test]
    fn chain_affine_co_locates_a_chained_consumer_under_an_expensive_noc() {
        // Section 2 reads section 1's value heavily; with a costly link,
        // the round trips dominate the load estimate, so the consumer
        // must land on its producer's core.
        let mut c = chip(4);
        c.noc.base_latency = 50;
        c.noc.per_hop_latency = 50;
        let sections = spans(&[4, 4, 4]);
        let deps = SectionDeps::from_arena(3, &arena(&[4, 4, 4], &[(2, 1); 4]));
        let assigned = ChainAffine.assign_with_deps(&sections, &c, &deps);
        assert_eq!(
            assigned[2], assigned[1],
            "the chained consumer shares its producer's core: {assigned:?}"
        );
    }

    proptest! {
        #[test]
        fn single_pass_policies_match_the_full_chip_scans(
            cores in 1usize..71,
            capacity in prop_oneof![Just(0usize), Just(1), Just(2), Just(3), Just(8)],
            latency in (0u64..4, 0u64..4),
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::deterministic(&seed.to_string());
            // Up to four times the chip's slots, so most chips fill and
            // relax the capacity limit part-way through (a zero limit is
            // relaxed from the start).
            let count = 1 + rng.index(4 * cores * capacity.max(1));
            let sizes: Vec<usize> = (0..count).map(|_| 1 + rng.index(12)).collect();
            let mut sections = spans(&sizes);
            for i in 1..count {
                // Backward creators forking inside their own span; now
                // and then a section with no creator at all.
                sections[i].creator = (rng.index(8) != 0).then(|| {
                    let creator = &sections[rng.index(i)];
                    (creator.id, creator.start + rng.index(creator.len()))
                });
            }
            let mut remote = Vec::new();
            for consumer in 1..count {
                for _ in 0..rng.index(3) {
                    remote.push((consumer, rng.index(consumer)));
                }
            }
            let deps = SectionDeps::from_arena(count, &arena(&sizes, &remote));
            let width = 1 + rng.index(cores);
            let topologies = [
                Topology::crossbar(cores + rng.index(3)),
                Topology::ring(cores + rng.index(3)),
                Topology::mesh(width, cores.div_ceil(width) + rng.index(2)),
            ];
            for topology in topologies {
                let chip = ChipView {
                    cores,
                    max_sections_per_core: capacity,
                    topology,
                    noc: NocConfig {
                        base_latency: latency.0,
                        per_hop_latency: latency.1,
                        link_bandwidth: None,
                    },
                };
                prop_assert_eq!(
                    Placement::RoundRobin.assign(&sections, &chip),
                    oracle::round_robin(&sections, &chip)
                );
                prop_assert_eq!(
                    Placement::LeastLoaded.assign(&sections, &chip),
                    oracle::least_loaded(&sections, &chip)
                );
                let load_aware = oracle::load_aware(&sections, &chip);
                prop_assert_eq!(LoadAware.assign(&sections, &chip), load_aware.clone());
                prop_assert_eq!(ChainAffine.assign(&sections, &chip), load_aware);
                prop_assert_eq!(
                    ChainAffine.assign_with_deps(&sections, &chip, &deps),
                    oracle::chain_affine(&sections, &chip, &deps)
                );
            }
        }
    }

    #[test]
    fn chain_affine_without_deps_degrades_to_load_aware() {
        let sections = spans(&[100, 2, 2, 2]);
        assert_eq!(
            ChainAffine.assign(&sections, &chip(2)),
            LoadAware.assign(&sections, &chip(2))
        );
        assert!(ChainAffine.wants_dependences());
        assert!(!LoadAware.wants_dependences());
    }
}

/// Each built-in policy's rule in its direct form, rescanning the whole
/// chip for every section: the oracle the built-in policies must match
/// assignment for assignment.
#[cfg(test)]
mod oracle {
    use super::*;

    pub fn round_robin(sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId> {
        let cores = chip.cores;
        let capacity = chip.max_sections_per_core;
        let mut hosted = vec![0usize; cores];
        sections
            .iter()
            .map(|s| {
                let preferred = s.id.0 % cores;
                // Spill to the next core with free capacity; relax
                // the limit when the whole chip is full.
                let chosen = (0..cores)
                    .map(|offset| (preferred + offset) % cores)
                    .find(|c| hosted[*c] < capacity)
                    .unwrap_or(preferred);
                hosted[chosen] += 1;
                CoreId(chosen)
            })
            .collect()
    }

    pub fn least_loaded(sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId> {
        let capacity = chip.max_sections_per_core;
        let mut load = vec![0usize; chip.cores];
        let mut hosted = vec![0usize; chip.cores];
        sections
            .iter()
            .map(|s| {
                // Prefer the least-loaded core that is still below
                // the soft section capacity; relax the limit only
                // when the whole chip is full, so runs always
                // complete (the same rule RoundRobin applies).
                let core = (0..chip.cores)
                    .filter(|c| hosted[*c] < capacity)
                    .min_by_key(|c| (load[*c], *c))
                    .unwrap_or_else(|| {
                        (0..chip.cores)
                            .min_by_key(|c| (load[*c], *c))
                            .expect("at least one core")
                    });
                load[core] += s.len();
                hosted[core] += 1;
                CoreId(core)
            })
            .collect()
    }

    pub fn load_aware(sections: &[SectionSpan], chip: &ChipView) -> Vec<CoreId> {
        let cores = chip.cores;
        let capacity = chip.max_sections_per_core;
        // Per-core time at which the core becomes free, per-core hosted
        // count, and per-section estimated fetch-start time.
        let mut free_at = vec![0u64; cores];
        let mut hosted = vec![0usize; cores];
        let mut start_at: Vec<u64> = Vec::with_capacity(sections.len());
        let mut core_of: Vec<CoreId> = Vec::with_capacity(sections.len());

        for span in sections {
            // A section becomes available once its creator has fetched the
            // fork (sections run concurrently with their creator from that
            // point on) and the section-creation message has crossed the
            // NoC to the candidate core.
            let candidate = |c: usize| -> u64 {
                let ready = match span.creator {
                    Some((SectionId(creator), fork_seq)) => {
                        let fork_offset =
                            fork_seq.saturating_sub(sections[creator].start) as u64 + 1;
                        let creator_core = core_of[creator];
                        start_at[creator] + fork_offset + chip.link_latency(creator_core, CoreId(c))
                    }
                    None => 0,
                };
                ready.max(free_at[c])
            };
            // Prefer cores below the capacity limit; relax when full.
            let pool: Vec<usize> = {
                let below: Vec<usize> = (0..cores).filter(|c| hosted[*c] < capacity).collect();
                if below.is_empty() {
                    (0..cores).collect()
                } else {
                    below
                }
            };
            let chosen = pool
                .into_iter()
                .min_by_key(|c| (candidate(*c) + span.len() as u64, *c))
                .expect("at least one core");
            let begun = candidate(chosen);
            free_at[chosen] = begun + span.len() as u64;
            hosted[chosen] += 1;
            start_at.push(begun);
            core_of.push(CoreId(chosen));
        }
        core_of
    }

    pub fn chain_affine(
        sections: &[SectionSpan],
        chip: &ChipView,
        deps: &SectionDeps,
    ) -> Vec<CoreId> {
        let cores = chip.cores;
        let capacity = chip.max_sections_per_core;
        let mut free_at = vec![0u64; cores];
        let mut hosted = vec![0usize; cores];
        let mut start_at: Vec<u64> = Vec::with_capacity(sections.len());
        let mut core_of: Vec<CoreId> = Vec::with_capacity(sections.len());

        for span in sections {
            let producers = deps.producers(span.id);
            // Estimated fetch-start time on candidate core `c` (the
            // LoadAware model: creator's fork, the creation message's NoC
            // crossing, and the core's queue).
            let start_on = |c: usize| -> u64 {
                let ready = match span.creator {
                    Some((SectionId(creator), fork_seq)) => {
                        let fork_offset =
                            fork_seq.saturating_sub(sections[creator].start) as u64 + 1;
                        let creator_core = core_of[creator];
                        start_at[creator] + fork_offset + chip.link_latency(creator_core, CoreId(c))
                    }
                    None => 0,
                };
                ready.max(free_at[c])
            };
            // The selection score adds the renaming round trips charged
            // from `c` to every remote producer's host core.
            let candidate = |c: usize| -> u64 {
                let comm: u64 = producers
                    .iter()
                    .map(|&(p, w)| 2 * w as u64 * chip.link_latency(core_of[p.0], CoreId(c)))
                    .sum();
                start_on(c) + comm
            };
            let pool: Vec<usize> = {
                let below: Vec<usize> = (0..cores).filter(|c| hosted[*c] < capacity).collect();
                if below.is_empty() {
                    (0..cores).collect()
                } else {
                    below
                }
            };
            let chosen = pool
                .into_iter()
                .min_by_key(|c| (candidate(*c) + span.len() as u64, *c))
                .expect("at least one core");
            // The queueing estimate excludes the communication charge:
            // the core is busy for the section's fetch span only.
            let begun = start_on(chosen);
            free_at[chosen] = begun + span.len() as u64;
            hosted[chosen] += 1;
            start_at.push(begun);
            core_of.push(CoreId(chosen));
        }
        core_of
    }
}
