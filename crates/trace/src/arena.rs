//! The struct-of-arrays trace arena.
//!
//! [`TraceArena`] holds a sectioned, dependence-annotated dynamic trace in
//! flat columns instead of one heap object per instruction: every
//! per-record field is one `Vec` indexed by trace position, and the
//! variable-length parts — source dependences and written locations — are
//! flattened into **one shared slice each**, indexed by `(offset, len)`
//! ranges. Nothing in the arena is pointer-chased and nothing allocates
//! per instruction, which is what lets 10M+-instruction runs fit:
//! the arena costs well under 120 bytes per instruction where the
//! record-per-instruction representation costs ~250–350.
//!
//! A [`PackedDep`] squeezes a full source dependence (architectural
//! location, producer, producer section, provenance) into 16 bytes:
//! data addresses are 8-aligned so a [`Location`] packs into a single
//! `u64` with a tag in the low three bits, and the provenance tag shares
//! a word with the producer's section id.

use parsecs_isa::Reg;
use parsecs_machine::{Location, TraceKind};

use crate::{SectionId, SectionSpan, SourceDep, SourceKind, TraceError};

/// A [`Location`] packed into one word: memory addresses are 8-aligned,
/// so the low three bits carry the variant tag.
const LOC_MEM: u64 = 0;
const LOC_REG: u64 = 1;
const LOC_FLAGS: u64 = 2;

#[inline]
fn pack_location(loc: Location) -> u64 {
    match loc {
        Location::Mem(addr) => {
            // Release builds rely on the machine's quadword alignment (and
            // on `parsecs-check` detecting a corrupted tag after the
            // fact); the low three bits must be free for the variant tag.
            debug_assert!(
                addr & 7 == 0,
                "trace arena requires 8-aligned data addresses, got {addr:#x}"
            );
            addr | LOC_MEM
        }
        Location::Reg(r) => ((r.index() as u64) << 3) | LOC_REG,
        Location::Flags => LOC_FLAGS,
    }
}

#[inline]
fn unpack_location(packed: u64) -> Location {
    match packed & 7 {
        LOC_MEM => Location::Mem(packed),
        LOC_REG => Location::Reg(Reg::ALL[(packed >> 3) as usize]),
        _ => Location::Flags,
    }
}

/// [`SourceKind`] provenance tags (low three bits of
/// [`PackedDep::section_kind`]).
const KIND_LOCAL: u32 = 0;
const KIND_REMOTE: u32 = 1;
const KIND_FORK_COPY: u32 = 2;
const KIND_INITIAL_REG: u32 = 3;
const KIND_INITIAL_MEM: u32 = 4;

/// Sections a producer tag can name: 29 bits (the other three carry the
/// provenance tag).
const MAX_SECTIONS: usize = (1 << 29) - 1;

/// Records the arena can hold (`u32` trace indices, one sentinel spare).
const MAX_RECORDS: u64 = u32::MAX as u64 - 1;

/// Entries the shared dependence slice can hold (`u32` offsets).
const MAX_DEPS: u64 = u32::MAX as u64;

/// Entries the shared write slice can hold (`u32` offsets).
const MAX_WRITES: u64 = u32::MAX as u64;

/// Checks prospective column totals against the arena's packed-index
/// capacities. A free function over plain counts so the overflow
/// behaviour is unit-testable without materialising billions of records.
pub(crate) fn check_capacity(
    records: u64,
    deps: u64,
    writes: u64,
    sections: u64,
) -> Result<(), TraceError> {
    if records > MAX_RECORDS {
        return Err(TraceError::CapacityExceeded {
            resource: "instructions",
            limit: MAX_RECORDS,
        });
    }
    if sections > MAX_SECTIONS as u64 {
        return Err(TraceError::CapacityExceeded {
            resource: "sections",
            limit: MAX_SECTIONS as u64,
        });
    }
    if deps > MAX_DEPS {
        return Err(TraceError::CapacityExceeded {
            resource: "dependences",
            limit: MAX_DEPS,
        });
    }
    if writes > MAX_WRITES {
        return Err(TraceError::CapacityExceeded {
            resource: "writes",
            limit: MAX_WRITES,
        });
    }
    Ok(())
}

/// One source dependence in 16 bytes: the packed location, the producer's
/// trace index and `(producer_section << 3) | provenance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedDep {
    loc: u64,
    producer: u32,
    section_kind: u32,
}

impl PackedDep {
    /// Packs a [`SourceDep`].
    ///
    /// Producers past `u32::MAX` and sections past 2^29 cannot be packed;
    /// the streaming sectioner rejects such traces with a typed
    /// [`TraceError::CapacityExceeded`] before this point, so overflow
    /// here is a caller bug (debug-asserted, and detectable after the
    /// fact by `parsecs-check`'s packing-integrity pass).
    pub fn new(dep: &SourceDep) -> PackedDep {
        let (producer, section, kind) = match dep.kind {
            SourceKind::Local { producer } => (producer, 0, KIND_LOCAL),
            SourceKind::Remote {
                producer,
                producer_section,
            } => {
                debug_assert!(
                    producer_section.0 <= MAX_SECTIONS,
                    "trace arena supports at most {MAX_SECTIONS} sections"
                );
                (producer, producer_section.0, KIND_REMOTE)
            }
            SourceKind::ForkCopy => (0, 0, KIND_FORK_COPY),
            SourceKind::InitialRegister => (0, 0, KIND_INITIAL_REG),
            SourceKind::InitialMemory => (0, 0, KIND_INITIAL_MEM),
        };
        debug_assert!(
            producer < u32::MAX as usize,
            "trace arena supports at most {} instructions",
            u32::MAX
        );
        PackedDep {
            loc: pack_location(dep.location),
            producer: producer as u32,
            section_kind: ((section as u32) << 3) | kind,
        }
    }

    /// Reassembles a dependence from its raw packed words, with **no**
    /// validity checks: the fields are stored verbatim. Exists so
    /// validators and their tests can construct deliberately corrupt
    /// dependences; normal producers should go through
    /// [`PackedDep::new`].
    pub fn from_raw_parts(loc: u64, producer: u32, section_kind: u32) -> PackedDep {
        PackedDep {
            loc,
            producer,
            section_kind,
        }
    }

    /// The raw packed words `(loc, producer, section_kind)` — the packed
    /// location, the producer's trace index, and
    /// `(producer_section << 3) | provenance`. For validators
    /// (`parsecs-check`) that must inspect the encoding itself;
    /// [`PackedDep::location`]/[`PackedDep::kind`] assume a well-formed
    /// packing and silently misdecode a corrupt one.
    pub fn raw_parts(&self) -> (u64, u32, u32) {
        (self.loc, self.producer, self.section_kind)
    }

    /// The architectural location being read.
    #[inline]
    pub fn location(&self) -> Location {
        unpack_location(self.loc)
    }

    /// Where the value comes from.
    #[inline]
    pub fn kind(&self) -> SourceKind {
        match self.section_kind & 7 {
            KIND_LOCAL => SourceKind::Local {
                producer: self.producer as usize,
            },
            KIND_REMOTE => SourceKind::Remote {
                producer: self.producer as usize,
                producer_section: SectionId((self.section_kind >> 3) as usize),
            },
            KIND_FORK_COPY => SourceKind::ForkCopy,
            KIND_INITIAL_REG => SourceKind::InitialRegister,
            _ => SourceKind::InitialMemory,
        }
    }

    /// The unpacked dependence.
    pub fn dep(&self) -> SourceDep {
        SourceDep {
            location: self.location(),
            kind: self.kind(),
        }
    }
}

/// Read-only views of every packed column of a [`TraceArena`], in one
/// borrow. The accessor methods ([`TraceArena::sources`],
/// [`TraceArena::section`], …) index the columns *assuming* the offsets
/// are well-formed; a validator cannot, so [`TraceArena::raw`] hands out
/// the flat slices for bounds-checked inspection.
///
/// Layout contract (what `parsecs-check` verifies): `ip`, `mnemonic_id`,
/// `section`, `kind_flags` and `reg_deps` have one entry per record;
/// `dep_off` (and, on a full arena, `write_off`) have one per record
/// plus a trailing sentinel equal to the shared slice's length; record
/// `i`'s dependences are `deps[dep_off[i]..dep_off[i + 1]]`, the first
/// `reg_deps[i]` of them register-class.
#[derive(Debug, Clone, Copy)]
pub struct RawColumns<'a> {
    /// Static instruction index per record.
    pub ip: &'a [u32],
    /// Mnemonic-table id per record.
    pub mnemonic_id: &'a [u16],
    /// Section id per record.
    pub section: &'a [u32],
    /// Packed [`TraceKind`] + control/load/store flags per record.
    pub kind_flags: &'a [u8],
    /// Offsets into `deps` (one per record, plus a trailing sentinel).
    pub dep_off: &'a [u32],
    /// Register-class prefix length of each record's dep slice.
    pub reg_deps: &'a [u16],
    /// Offsets into `writes` (empty of meaning on a lean arena:
    /// `[0]` exactly).
    pub write_off: &'a [u32],
    /// The shared dependence slice.
    pub deps: &'a [PackedDep],
    /// The shared written-locations slice (packed; empty on a lean
    /// arena).
    pub writes: &'a [u64],
    /// The interned mnemonic table.
    pub mnemonics: &'a [&'static str],
}

/// Per-record `kind_flags` layout: low three bits [`TraceKind`], then the
/// control/load/store flags.
const FLAG_CONTROL: u8 = 1 << 3;
const FLAG_LOAD: u8 = 1 << 4;
const FLAG_STORE: u8 = 1 << 5;

#[inline]
fn pack_kind(kind: TraceKind) -> u8 {
    match kind {
        TraceKind::Other => 0,
        TraceKind::Call => 1,
        TraceKind::Ret => 2,
        TraceKind::Fork => 3,
        TraceKind::EndFork => 4,
        TraceKind::Halt => 5,
    }
}

#[inline]
fn unpack_kind(packed: u8) -> TraceKind {
    match packed & 7 {
        0 => TraceKind::Other,
        1 => TraceKind::Call,
        2 => TraceKind::Ret,
        3 => TraceKind::Fork,
        4 => TraceKind::EndFork,
        _ => TraceKind::Halt,
    }
}

/// The sectioned, dependence-annotated trace of one program run, stored
/// as flat columns (see the module docs).
///
/// Records are indexed by their sequential trace position (`seq`), which
/// is also their position in the concatenated section order. Use
/// [`crate::StreamingSectioner`] (or [`TraceArena::from_program`]) to
/// build one while the program executes, or the `push_*` builder methods
/// to assemble one from already-resolved records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceArena {
    ip: Vec<u32>,
    mnemonic_id: Vec<u16>,
    section: Vec<u32>,
    kind_flags: Vec<u8>,
    /// `deps` range of record `i` is `dep_off[i]..dep_off[i + 1]`; the
    /// first `reg_deps[i]` entries are the register/flags sources, the
    /// rest the memory sources.
    dep_off: Vec<u32>,
    reg_deps: Vec<u16>,
    /// `writes` range of record `i` is `write_off[i]..write_off[i + 1]`.
    write_off: Vec<u32>,
    deps: Vec<PackedDep>,
    writes: Vec<u64>,
    mnemonics: Vec<&'static str>,
    sections: Vec<SectionSpan>,
    outputs: Vec<u64>,
    /// A *lean* arena skips the written-locations columns (`writes`,
    /// `write_off`): the timing simulators never read them (store-ness is
    /// a `kind_flags` bit and every consumer reaches its producer through
    /// `deps`), only the record-representation bridge does. Saves ~15
    /// bytes per instruction on store-heavy chip-scale runs.
    lean: bool,
}

impl TraceArena {
    /// An empty arena.
    pub fn new() -> TraceArena {
        TraceArena {
            dep_off: vec![0],
            write_off: vec![0],
            ..TraceArena::default()
        }
    }

    /// An empty *lean* arena: written locations are not recorded (see
    /// [`TraceArena::records_writes`]). Use for stats-oriented chip-scale
    /// simulation where the written-locations column would be dead
    /// weight; the record-representation bridge
    /// (`SectionedTrace::from_arena`) needs a full arena.
    pub fn new_lean() -> TraceArena {
        TraceArena {
            lean: true,
            ..TraceArena::new()
        }
    }

    /// Whether the arena records written locations ([`TraceArena::written`]
    /// yields them). `false` for lean arenas, whose `written` is always
    /// empty even for stores ([`TraceArena::is_store`] stays accurate).
    pub fn records_writes(&self) -> bool {
        !self.lean
    }

    /// Checks that one more record with `new_deps` dependences and
    /// `new_writes` written locations fits the packed columns.
    pub(crate) fn capacity_for(
        &self,
        new_deps: usize,
        new_writes: usize,
    ) -> Result<(), TraceError> {
        check_capacity(
            self.ip.len() as u64 + 1,
            self.deps.len() as u64 + new_deps as u64,
            self.writes.len() as u64 + new_writes as u64,
            // `sections.len()` is the id of the section currently being
            // recorded; it must itself fit the 29-bit producer tag.
            self.sections.len() as u64 + 1,
        )
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.ip.len()
    }

    /// Whether the arena holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.ip.is_empty()
    }

    /// The sections, in total order.
    pub fn sections(&self) -> &[SectionSpan] {
        &self.sections
    }

    /// The values emitted by `out` during the functional run.
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Static instruction index of record `seq`.
    #[inline]
    pub fn ip(&self, seq: usize) -> usize {
        self.ip[seq] as usize
    }

    /// Mnemonic of record `seq`.
    #[inline]
    pub fn mnemonic(&self, seq: usize) -> &'static str {
        self.mnemonics[self.mnemonic_id[seq] as usize]
    }

    /// Section of record `seq`.
    #[inline]
    pub fn section(&self, seq: usize) -> SectionId {
        SectionId(self.section[seq] as usize)
    }

    /// Position of record `seq` within its section (0-based; derived from
    /// the section span rather than stored).
    #[inline]
    pub fn index_in_section(&self, seq: usize) -> usize {
        seq - self.sections[self.section[seq] as usize].start
    }

    /// Classification of record `seq`.
    #[inline]
    pub fn kind(&self, seq: usize) -> TraceKind {
        unpack_kind(self.kind_flags[seq])
    }

    /// Whether record `seq` is a control-flow instruction.
    #[inline]
    pub fn is_control(&self, seq: usize) -> bool {
        self.kind_flags[seq] & FLAG_CONTROL != 0
    }

    /// Whether record `seq` loads from data memory.
    #[inline]
    pub fn is_load(&self, seq: usize) -> bool {
        self.kind_flags[seq] & FLAG_LOAD != 0
    }

    /// Whether record `seq` stores to data memory.
    #[inline]
    pub fn is_store(&self, seq: usize) -> bool {
        self.kind_flags[seq] & FLAG_STORE != 0
    }

    /// The register and flags sources of record `seq`.
    #[inline]
    pub fn reg_sources(&self, seq: usize) -> &[PackedDep] {
        let start = self.dep_off[seq] as usize;
        &self.deps[start..start + self.reg_deps[seq] as usize]
    }

    /// The memory-word sources of record `seq`.
    #[inline]
    pub fn mem_sources(&self, seq: usize) -> &[PackedDep] {
        let start = self.dep_off[seq] as usize + self.reg_deps[seq] as usize;
        &self.deps[start..self.dep_off[seq + 1] as usize]
    }

    /// All sources of record `seq` (registers and flags first, then
    /// memory words).
    #[inline]
    pub fn sources(&self, seq: usize) -> &[PackedDep] {
        &self.deps[self.dep_off[seq] as usize..self.dep_off[seq + 1] as usize]
    }

    /// The locations written by record `seq` (always empty on a lean
    /// arena — see [`TraceArena::records_writes`]).
    pub fn written(&self, seq: usize) -> impl Iterator<Item = Location> + '_ {
        let range = if self.lean {
            0..0
        } else {
            self.write_off[seq] as usize..self.write_off[seq + 1] as usize
        };
        self.writes[range].iter().map(|&w| unpack_location(w))
    }

    /// The paper's `s-i` name of record `seq` (1-based), e.g. `"2-13"`.
    pub fn name(&self, seq: usize) -> String {
        format!(
            "{}-{}",
            self.section[seq] as usize + 1,
            self.index_in_section(seq) + 1
        )
    }

    /// The number of instructions of each section, in total order.
    pub fn section_sizes(&self) -> Vec<usize> {
        self.sections.iter().map(SectionSpan::len).collect()
    }

    /// Size of the largest section.
    pub fn longest_section(&self) -> usize {
        self.section_sizes().into_iter().max().unwrap_or(0)
    }

    /// Bytes of memory held by the arena (allocated capacity of every
    /// column, shared slice and table — the resident footprint, not the
    /// minimal payload).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<TraceArena>()
            + self.ip.capacity() * size_of::<u32>()
            + self.mnemonic_id.capacity() * size_of::<u16>()
            + self.section.capacity() * size_of::<u32>()
            + self.kind_flags.capacity()
            + self.dep_off.capacity() * size_of::<u32>()
            + self.reg_deps.capacity() * size_of::<u16>()
            + self.write_off.capacity() * size_of::<u32>()
            + self.deps.capacity() * size_of::<PackedDep>()
            + self.writes.capacity() * size_of::<u64>()
            + self.mnemonics.capacity() * size_of::<&'static str>()
            + self.sections.capacity() * size_of::<SectionSpan>()
            + self.outputs.capacity() * size_of::<u64>()
    }

    /// Releases the growth slack of every column (amortised-doubling can
    /// leave up to 2× the payload allocated right after a growth step).
    /// One-time copy cost; worth it when the arena will be held across a
    /// long simulation or its footprint reported.
    pub fn shrink_to_fit(&mut self) {
        self.ip.shrink_to_fit();
        self.mnemonic_id.shrink_to_fit();
        self.section.shrink_to_fit();
        self.kind_flags.shrink_to_fit();
        self.dep_off.shrink_to_fit();
        self.reg_deps.shrink_to_fit();
        self.write_off.shrink_to_fit();
        self.deps.shrink_to_fit();
        self.writes.shrink_to_fit();
        self.mnemonics.shrink_to_fit();
        self.sections.shrink_to_fit();
        self.outputs.shrink_to_fit();
    }

    /// Read-only views of every packed column (see [`RawColumns`]), for
    /// validators that must not trust the offset columns before checking
    /// them.
    pub fn raw(&self) -> RawColumns<'_> {
        RawColumns {
            ip: &self.ip,
            mnemonic_id: &self.mnemonic_id,
            section: &self.section,
            kind_flags: &self.kind_flags,
            dep_off: &self.dep_off,
            reg_deps: &self.reg_deps,
            write_off: &self.write_off,
            deps: &self.deps,
            writes: &self.writes,
            mnemonics: &self.mnemonics,
        }
    }

    /// Rebuilds an arena from raw columns verbatim — the inverse of
    /// [`TraceArena::raw`], with the section spans, outputs and lean flag
    /// [`RawColumns`] does not carry. Performs **no** validation: the
    /// result may break any layout contract, which is the point —
    /// mutation corpora build corrupt arenas with it and run
    /// `parsecs-check` over them. Never simulate an arena built this way
    /// without validating it first.
    pub fn from_raw_parts(
        raw: RawColumns<'_>,
        sections: &[SectionSpan],
        outputs: &[u64],
        lean: bool,
    ) -> TraceArena {
        TraceArena {
            ip: raw.ip.to_vec(),
            mnemonic_id: raw.mnemonic_id.to_vec(),
            section: raw.section.to_vec(),
            kind_flags: raw.kind_flags.to_vec(),
            dep_off: raw.dep_off.to_vec(),
            reg_deps: raw.reg_deps.to_vec(),
            write_off: raw.write_off.to_vec(),
            deps: raw.deps.to_vec(),
            writes: raw.writes.to_vec(),
            mnemonics: raw.mnemonics.to_vec(),
            sections: sections.to_vec(),
            outputs: outputs.to_vec(),
            lean,
        }
    }

    /// [`TraceArena::memory_bytes`] per instruction.
    pub fn bytes_per_instruction(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.memory_bytes() as f64 / self.len() as f64
        }
    }

    // ------------------------------------------------------------------
    // Builder surface (the streaming sectioner writes the columns
    // directly; these are for assembling an arena from already-resolved
    // records, e.g. `SectionedTrace::to_arena`).
    // ------------------------------------------------------------------

    /// Interns a mnemonic, returning its table id. The table stays tiny
    /// (one entry per distinct mnemonic), so the scan is cheap; hot
    /// producers cache ids per static instruction instead.
    pub fn intern_mnemonic(&mut self, mnemonic: &'static str) -> u16 {
        if let Some(found) = self
            .mnemonics
            .iter()
            .position(|&m| std::ptr::eq(m.as_ptr(), mnemonic.as_ptr()) || m == mnemonic)
        {
            return found as u16;
        }
        let id = u16::try_from(self.mnemonics.len()).expect("fewer than 65536 mnemonics");
        self.mnemonics.push(mnemonic);
        id
    }

    /// Appends one resolved record. Records must be pushed in sequential
    /// trace order; `is_load`/`is_store` are derived (a memory source
    /// means a load, a written memory location means a store), exactly as
    /// the sequential analysis derives them.
    #[allow(clippy::too_many_arguments)]
    pub fn push_record(
        &mut self,
        ip: usize,
        mnemonic: &'static str,
        section: SectionId,
        kind: TraceKind,
        is_control: bool,
        reg_sources: &[SourceDep],
        mem_sources: &[SourceDep],
        writes: &[Location],
    ) {
        let mnemonic_id = self.intern_mnemonic(mnemonic);
        let is_store = writes.iter().any(Location::is_mem);
        self.begin_record(
            ip,
            mnemonic_id,
            SectionId(section.0),
            kind,
            is_control,
            !mem_sources.is_empty(),
            is_store,
        );
        for dep in reg_sources {
            self.push_dep(PackedDep::new(dep));
        }
        for dep in mem_sources {
            self.push_dep(PackedDep::new(dep));
        }
        for &loc in writes {
            self.push_write(loc);
        }
        self.end_record(reg_sources.len());
    }

    /// Appends the next section span. Spans must arrive in total order
    /// and tile the record range.
    pub fn push_section(&mut self, span: SectionSpan) {
        debug_assert_eq!(span.id.0, self.sections.len());
        self.sections.push(span);
    }

    /// Sets the functional outputs of the run.
    pub fn set_outputs(&mut self, outputs: Vec<u64>) {
        self.outputs = outputs;
    }

    // Column-level builder steps (used by the streaming sectioner, and
    // public so external corpora — notably the `parsecs-check` mutation
    // tests — can assemble arenas the record-level surface refuses to).

    /// Opens one record at the column level: pushes the fixed-width
    /// per-record columns and nothing else. Pair with
    /// [`TraceArena::end_record`]; push the record's dependences (and,
    /// on a full arena, its writes) in between. The record-level
    /// [`TraceArena::push_record`] is the convenient surface; this one
    /// exists for streaming producers that already hold packed deps, and
    /// performs **no** capacity checks (callers check
    /// [`crate::TraceError::CapacityExceeded`] conditions up front, as
    /// the streaming sectioner does) — an unclosed or overflowed record
    /// is caught by `parsecs-check`, not here.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_record(
        &mut self,
        ip: usize,
        mnemonic_id: u16,
        section: SectionId,
        kind: TraceKind,
        is_control: bool,
        is_load: bool,
        is_store: bool,
    ) {
        debug_assert!(
            self.ip.len() < u32::MAX as usize - 1,
            "trace arena supports at most {} instructions",
            u32::MAX
        );
        debug_assert!(
            section.0 <= MAX_SECTIONS,
            "trace arena supports at most {MAX_SECTIONS} sections"
        );
        self.ip
            .push(u32::try_from(ip).expect("static index fits u32"));
        self.mnemonic_id.push(mnemonic_id);
        self.section.push(section.0 as u32);
        let mut flags = pack_kind(kind);
        if is_control {
            flags |= FLAG_CONTROL;
        }
        if is_load {
            flags |= FLAG_LOAD;
        }
        if is_store {
            flags |= FLAG_STORE;
        }
        self.kind_flags.push(flags);
    }

    /// Appends one dependence of the record being built (register-class
    /// deps first, then memory deps; `end_record` fixes the split).
    #[inline]
    pub fn push_dep(&mut self, dep: PackedDep) {
        self.deps.push(dep);
    }

    /// Appends one written location of the record being built. Must not
    /// be called on a lean arena.
    #[inline]
    pub fn push_write(&mut self, loc: Location) {
        debug_assert!(!self.lean, "lean arenas do not record writes");
        self.writes.push(pack_location(loc));
    }

    /// Closes the record opened by `begin_record`, recording how many of
    /// the deps pushed since then are register-class sources.
    #[inline]
    pub fn end_record(&mut self, reg_dep_count: usize) {
        self.reg_deps
            .push(u16::try_from(reg_dep_count).expect("fewer than 65536 sources"));
        self.dep_off
            .push(u32::try_from(self.deps.len()).expect("dep slice fits u32 offsets"));
        if !self.lean {
            self.write_off
                .push(u32::try_from(self.writes.len()).expect("write slice fits u32 offsets"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The capacity check is a pure function of the prospective column
    /// totals, so the overflow paths are testable without materialising
    /// four billion records.
    #[test]
    fn capacity_limits_are_reported_as_typed_errors() {
        assert_eq!(
            check_capacity(1_000_000, 3_000_000, 1_500_000, 65_536),
            Ok(())
        );
        assert_eq!(
            check_capacity(MAX_RECORDS, MAX_DEPS, MAX_WRITES, MAX_SECTIONS as u64),
            Ok(())
        );
        assert_eq!(
            check_capacity(MAX_RECORDS + 1, 0, 0, 1),
            Err(TraceError::CapacityExceeded {
                resource: "instructions",
                limit: MAX_RECORDS,
            })
        );
        assert_eq!(
            check_capacity(1, MAX_DEPS + 1, 0, 1),
            Err(TraceError::CapacityExceeded {
                resource: "dependences",
                limit: MAX_DEPS,
            })
        );
        assert_eq!(
            check_capacity(1, 0, MAX_WRITES + 1, 1),
            Err(TraceError::CapacityExceeded {
                resource: "writes",
                limit: MAX_WRITES,
            })
        );
        assert_eq!(
            check_capacity(1, 0, 0, MAX_SECTIONS as u64 + 1),
            Err(TraceError::CapacityExceeded {
                resource: "sections",
                limit: MAX_SECTIONS as u64,
            })
        );
    }

    #[test]
    fn lean_arenas_skip_the_write_columns_but_keep_store_flags() {
        let mut full = TraceArena::new();
        let mut lean = TraceArena::new_lean();
        let dep = SourceDep {
            location: Location::Reg(Reg::Rax),
            kind: SourceKind::InitialRegister,
        };
        let writes = [Location::Mem(0x1000)];
        full.push_record(
            0,
            "movq",
            SectionId(0),
            TraceKind::Other,
            false,
            &[dep],
            &[],
            &writes,
        );
        // The lean builder surface is the streaming sectioner; emulate it
        // at the column level (no write pushes).
        let id = lean.intern_mnemonic("movq");
        lean.begin_record(0, id, SectionId(0), TraceKind::Other, false, false, true);
        lean.push_dep(PackedDep::new(&dep));
        lean.end_record(1);
        assert!(full.records_writes());
        assert!(!lean.records_writes());
        assert!(full.is_store(0) && lean.is_store(0));
        assert_eq!(full.written(0).count(), 1);
        assert_eq!(lean.written(0).count(), 0);
        assert!(lean.memory_bytes() < full.memory_bytes());
    }
}
