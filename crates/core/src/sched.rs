//! Event scheduling and the fetch-decode walk of the event engine.
//!
//! The [`Scheduler`] owns the chip's two-level calendar queue
//! ([`WakeQueue`]) and its intrusive run list ([`RunList`]), and
//! [`walk`] steps the cores that act in a simulated cycle in ascending
//! order — the order of the reference loop's core-by-core scan, so both
//! engines fetch, send fork messages and begin or end sections in the
//! same sequence.

use std::collections::HashMap;

use parsecs_machine::TraceKind;
use parsecs_noc::{CoreId, Network};
use parsecs_obs::{CycleAttribution, SimProbe};
use parsecs_trace::TraceArena;

use crate::chip::{ChipState, StallTable, NO_SECTION, NO_STALL, NO_WAKE};
use crate::drain::{fetch_computable, Resolver};
use crate::SectionId;

/// Near-term window of the event scheduler's calendar queue, in cycles.
/// Almost every wake-up is `cycle + 1` (the fetch continuation each
/// instruction schedules) or `cycle + 2`; those land in a ring of vectors
/// instead of paying a binary-heap push per fetched instruction.
const NEAR_WINDOW: u64 = 8;

/// Two-level per-core wake-up queue: a calendar ring for events within
/// [`NEAR_WINDOW`] cycles of the clock and a binary heap for the far
/// future. Entries are `(cycle, core)`; an entry is *stale* when
/// the core's `wake_at` no longer matches (a sooner wake-up replaced it)
/// and is dropped when its cycle is visited. The clock never jumps past a
/// queued entry, so each ring slot only ever holds entries for the single
/// in-window cycle it maps to.
pub(crate) struct WakeQueue {
    near: [Vec<(u64, usize)>; NEAR_WINDOW as usize],
    far: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// Number of entries across the `near` ring, so the common empty-ring
    /// case skips the slot scan.
    near_entries: usize,
    /// Current clock; all queued entries are at cycles `>= horizon`.
    horizon: u64,
}

impl WakeQueue {
    fn new() -> WakeQueue {
        WakeQueue {
            near: std::array::from_fn(|_| Vec::new()),
            far: std::collections::BinaryHeap::new(),
            near_entries: 0,
            horizon: 0,
        }
    }

    pub(crate) fn push(&mut self, at: u64, idx: usize) {
        debug_assert!(at >= self.horizon);
        if at < self.horizon + NEAR_WINDOW {
            self.near[(at % NEAR_WINDOW) as usize].push((at, idx));
            self.near_entries += 1;
        } else {
            self.far.push(std::cmp::Reverse((at, idx)));
        }
    }

    /// Number of queued entries (stale ones included) — the calendar
    /// depth gauge the probe layer samples.
    pub(crate) fn len(&self) -> usize {
        self.near_entries + self.far.len()
    }

    /// The earliest cycle holding a queued entry (possibly a stale one —
    /// visiting a stale cycle is a no-op that discards it).
    pub(crate) fn next_at(&self) -> Option<u64> {
        let mut best = self.far.peek().map(|&std::cmp::Reverse((at, _))| at);
        if self.near_entries > 0 {
            for cycle in self.horizon..self.horizon + NEAR_WINDOW {
                if !self.near[(cycle % NEAR_WINDOW) as usize].is_empty() {
                    best = Some(best.map_or(cycle, |b| b.min(cycle)));
                    break;
                }
            }
        }
        best
    }

    /// Advances the clock to `cycle`; subsequent pushes map into the ring
    /// relative to it.
    fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.horizon);
        self.horizon = cycle;
    }

    /// Drains every entry due at `cycle` into `due` (unsorted core
    /// indices; stale entries — whose core no longer wakes at `cycle` —
    /// are filtered by the caller's `wake_at` check).
    fn drain_due(&mut self, cycle: u64, due: &mut Vec<usize>) {
        if self.near_entries > 0 {
            let slot = &mut self.near[(cycle % NEAR_WINDOW) as usize];
            debug_assert!(slot.iter().all(|&(at, _)| at == cycle));
            self.near_entries -= slot.len();
            due.extend(slot.drain(..).map(|(_, idx)| idx));
        }
        while let Some(&std::cmp::Reverse((at, idx))) = self.far.peek() {
            if at > cycle {
                break;
            }
            self.far.pop();
            due.push(idx);
        }
    }
}

/// The sorted set of cores that act on every cycle (fetching,
/// dequeuing, or releasing a next-cycle stall), kept as an intrusive
/// doubly-linked list over core indices so that the overwhelmingly
/// common case — a core fetching straight-line code — costs *zero*
/// scheduling work per cycle: the core simply stays in the list. Cores
/// join when a calendar wake-up makes them act and leave when they go
/// idle or wait on a far event.
pub(crate) struct RunList {
    head: usize,
    next: Vec<usize>,
    prev: Vec<usize>,
    pub(crate) len: usize,
    /// Whether `head`/`next`/`prev` reflect the membership flags. Dense
    /// cycles scan the core columns and skip link maintenance entirely
    /// (membership is just the per-core flag plus `len`); the links are
    /// rebuilt in one pass when a sparse cycle needs to walk them again.
    links_valid: bool,
}

pub(crate) const NO_CORE: usize = usize::MAX;

impl RunList {
    fn new(cores: usize) -> RunList {
        RunList {
            head: NO_CORE,
            next: vec![NO_CORE; cores],
            prev: vec![NO_CORE; cores],
            len: 0,
            links_valid: true,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops link maintenance until [`RunList::ensure_links`] (a dense
    /// cycle is about to mutate membership through the flags alone).
    fn invalidate_links(&mut self) {
        self.links_valid = false;
    }

    /// Rebuilds the links from the membership flags if needed.
    fn ensure_links(&mut self, running: &[bool]) {
        if self.links_valid {
            return;
        }
        self.head = NO_CORE;
        let mut last = NO_CORE;
        for (idx, &member) in running.iter().enumerate() {
            if member {
                self.prev[idx] = last;
                self.next[idx] = NO_CORE;
                if last == NO_CORE {
                    self.head = idx;
                } else {
                    self.next[last] = idx;
                }
                last = idx;
            }
        }
        self.links_valid = true;
    }

    /// Inserts `idx`, keeping the links (when live) sorted by core index.
    pub(crate) fn insert(&mut self, running: &mut [bool], idx: usize) {
        debug_assert!(!running[idx]);
        running[idx] = true;
        self.len += 1;
        if !self.links_valid {
            return;
        }
        let mut after = NO_CORE;
        let mut cursor = self.head;
        while cursor != NO_CORE && cursor < idx {
            after = cursor;
            cursor = self.next[cursor];
        }
        self.next[idx] = cursor;
        self.prev[idx] = after;
        if cursor != NO_CORE {
            self.prev[cursor] = idx;
        }
        if after == NO_CORE {
            self.head = idx;
        } else {
            self.next[after] = idx;
        }
    }

    pub(crate) fn remove(&mut self, running: &mut [bool], idx: usize) {
        debug_assert!(running[idx]);
        running[idx] = false;
        self.len -= 1;
        if !self.links_valid {
            return;
        }
        let (p, n) = (self.prev[idx], self.next[idx]);
        if p == NO_CORE {
            self.head = n;
        } else {
            self.next[p] = n;
        }
        if n != NO_CORE {
            self.prev[n] = p;
        }
    }
}

/// The event engine's scheduling state: the calendar queue, the run
/// list and the walk's scratch buffers.
pub(crate) struct Scheduler {
    pub(crate) wakes: WakeQueue,
    pub(crate) running: RunList,
    /// Calendar wake-ups due this cycle (drained at the top of the walk).
    due: Vec<usize>,
    /// Run-list membership changes deferred by the walk (`true` = join).
    membership: Vec<(usize, bool)>,
    /// Cores that entered a fetch stall this cycle; the post-drain
    /// dispatch parks or reschedules them.
    pub(crate) newly_stalled: Vec<u32>,
}

impl Scheduler {
    pub(crate) fn new(cores: usize) -> Scheduler {
        Scheduler {
            wakes: WakeQueue::new(),
            running: RunList::new(cores),
            due: Vec::new(),
            membership: Vec::new(),
            newly_stalled: Vec::new(),
        }
    }

    /// Registers `at` as core `idx`'s next wake-up cycle (keeping the
    /// earlier one when the core already has a sooner event).
    pub(crate) fn schedule(&mut self, chip: &mut ChipState, idx: usize, at: u64) {
        let existing = chip.wake_at[idx];
        if existing == NO_WAKE || existing > at {
            chip.wake_at[idx] = at;
            self.wakes.push(at, idx);
        }
    }
}

/// What one cycle's walk touches besides the chip columns and the
/// scheduler.
pub(crate) struct WalkCtx<'w, 'a, P> {
    pub(crate) arena: &'a TraceArena,
    pub(crate) created_by: &'w HashMap<usize, SectionId>,
    pub(crate) core_of: &'w [CoreId],
    /// Takes the cycle's fetches.
    pub(crate) resolver: &'w mut Resolver<'a>,
    /// Carries the fork messages.
    pub(crate) network: &'w mut Network<SectionId>,
    /// Holds the resume points of parked sections.
    pub(crate) stalls: &'w mut StallTable,
    pub(crate) attr: &'w mut CycleAttribution,
    pub(crate) probe: &'w mut P,
    pub(crate) fetch_stalls: bool,
    pub(crate) cycle: u64,
}

/// The fetch-decode phase of one cycle: drains the due calendar
/// wake-ups, steps every acting core in ascending order (dense scan or
/// sparse run-list merge), and applies the deferred run-list membership
/// changes.
pub(crate) fn walk<P: SimProbe>(
    sched: &mut Scheduler,
    chip: &mut ChipState,
    ctx: WalkCtx<'_, '_, P>,
) {
    let WalkCtx {
        arena,
        created_by,
        core_of,
        resolver,
        network,
        stalls,
        attr,
        probe,
        fetch_stalls,
        cycle,
    } = ctx;
    let sections = arena.sections();
    sched.wakes.advance_to(cycle);
    let mut due = std::mem::take(&mut sched.due);
    due.clear();
    sched.wakes.drain_due(cycle, &mut due);

    macro_rules! step_core {
        ($core:expr, $is_member:expr) => {{
            let core: usize = $core;
            let is_member: bool = $is_member;

            if chip.current[core] == NO_SECTION {
                // Dequeuing the next ready section consumes this cycle;
                // fetch starts on the next one.
                if let Some(head) = chip.queue_pop(core) {
                    let resumed = stalls.begin_section(chip, core, sections, head);
                    attr.begin(core, cycle);
                    if P::ENABLED {
                        probe.on_section_begin(core, head, cycle, resumed);
                    }
                    if !is_member {
                        sched.membership.push((core, true));
                    }
                } else if is_member {
                    sched.membership.push((core, false));
                }
                continue;
            }
            if chip.stall_on[core] != NO_STALL {
                match resolver.completion(chip.stall_on[core] as usize) {
                    Some(c) if c < cycle => {
                        chip.stall_on[core] = NO_STALL;
                    }
                    Some(c) => {
                        // The stall releases once the control
                        // instruction's completion is past.
                        if c + 1 == cycle + 1 {
                            if !is_member {
                                sched.membership.push((core, true));
                            }
                        } else {
                            if is_member {
                                sched.membership.push((core, false));
                            }
                            chip.wake_at[core] = c + 1;
                            sched.wakes.push(c + 1, core);
                        }
                        continue;
                    }
                    // A stall with an unknown completion parks at the end
                    // of its stall cycle; it never holds the fetch slot
                    // across cycles.
                    None => unreachable!("an in-place stall has a known completion"),
                }
            }
            let sid = chip.current[core];
            let span = &sections[sid as usize];
            if chip.next_seq[core] as usize >= span.end {
                chip.current[core] = NO_SECTION;
                attr.end_nofetch(core, cycle);
                if P::ENABLED {
                    probe.on_section_end(core, sid, cycle, false);
                }
                if chip.queue_head[core] == NO_SECTION {
                    if is_member {
                        sched.membership.push((core, false));
                    }
                } else if !is_member {
                    sched.membership.push((core, true));
                }
                continue;
            }
            let seq = chip.next_seq[core] as usize;
            let kind = arena.kind(seq);
            resolver.fetch(seq, cycle);
            chip.next_seq[core] += 1;

            // A fork sends a section-creation message to the host core of
            // the created section.
            if kind == TraceKind::Fork {
                if let Some(&child) = created_by.get(&seq) {
                    let dst = core_of[child.0];
                    network.send(CoreId(core), dst, child, cycle);
                    if P::ENABLED {
                        probe.on_noc_send(core, dst.0, child.0 as u32, cycle);
                    }
                }
            }

            let ends_section = kind == TraceKind::EndFork
                || kind == TraceKind::Halt
                || chip.next_seq[core] as usize >= span.end;
            if ends_section {
                chip.current[core] = NO_SECTION;
                attr.end_fetch(core, cycle);
                if P::ENABLED {
                    probe.on_section_end(core, sid, cycle, true);
                }
                if chip.queue_head[core] == NO_SECTION {
                    if is_member {
                        sched.membership.push((core, false));
                    }
                } else if !is_member {
                    sched.membership.push((core, true));
                }
            } else if fetch_stalls
                && arena.is_control(seq)
                && !fetch_computable(arena, seq, &resolver.complete, cycle)
            {
                // The fetch stage could not compute this control
                // instruction (empty sources): the IP stays empty until
                // the instruction executes. Tentatively keep the core
                // running; the post-drain dispatch parks or reschedules
                // it if the stall spans cycles.
                chip.stall_on[core] = seq as u32;
                sched.newly_stalled.push(core as u32);
                if !is_member {
                    sched.membership.push((core, true));
                }
            } else if !is_member {
                // Fetch continuation: members stay in the run list at
                // zero cost, joiners enter it.
                sched.membership.push((core, true));
            }
        }};
    }

    if 2 * sched.running.len >= chip.current.len() {
        // Dense path: most cores act every cycle, so a linear scan of the
        // columns (the reference loop's shape, minus the idle-core queue
        // probes) beats walking the list. Calendar wake-ups due now are
        // exactly the non-members whose `wake_at` matches, so the scan
        // covers them in index order and the drained entries are dropped.
        // Membership updates go through the flags alone; the links are
        // rebuilt when a sparse cycle next needs them.
        sched.running.invalidate_links();
        for core in 0..chip.current.len() {
            let is_member = chip.running[core];
            if !is_member {
                if chip.wake_at[core] != cycle {
                    continue;
                }
                chip.wake_at[core] = NO_WAKE;
            }
            step_core!(core, is_member);
        }
    } else {
        // Sparse path: walk the run-list members, merging in the calendar
        // wake-ups (rare) by a two-pointer pass.
        sched.running.ensure_links(&chip.running);
        due.sort_unstable();
        let mut di = 0usize;
        let mut cursor = sched.running.head;
        loop {
            // Pick the smaller of the next due core and the next member;
            // a due entry for a member is stale (skipped).
            let (core, is_member) = match (due.get(di), cursor) {
                (Some(&d), cur) if cur == NO_CORE || d <= cur => {
                    di += 1;
                    if chip.wake_at[d] != cycle {
                        continue; // stale entry
                    }
                    chip.wake_at[d] = NO_WAKE;
                    (d, false)
                }
                (_, cur) if cur != NO_CORE => {
                    cursor = sched.running.next[cur];
                    (cur, true)
                }
                _ => break,
            };
            step_core!(core, is_member);
        }
    }
    due.clear();
    sched.due = due;

    // Apply the walk's membership changes before anything after the walk
    // consults or edits the run list.
    let mut membership = std::mem::take(&mut sched.membership);
    for &(core, join) in &membership {
        if join {
            sched.running.insert(&mut chip.running, core);
        } else {
            sched.running.remove(&mut chip.running, core);
        }
    }
    membership.clear();
    sched.membership = membership;
}
