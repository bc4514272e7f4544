//! Differential tests of the streaming trace pipeline.
//!
//! The streaming sectioner (`parsecs::trace::StreamingSectioner`, fed by
//! `Machine::run_with_sink`) must produce **record-for-record** the same
//! sectioned, dependence-annotated trace as the retained two-pass
//! sequential analysis (`SectionedTrace::from_trace` over a materialised
//! `Trace`) — same sections, same provenance for every source, same
//! written locations, same outputs. A proptest drives random fork
//! programs (random arithmetic, scratch-array memory traffic, forward
//! conditional jumps, nested forks) through both front-ends and asserts
//! full equality in both representations.
//!
//! A second set of tests takes the pipeline to chip scale: at 256 cores
//! the event-driven and cycle-stepping engines must agree bit-for-bit on
//! arena-backed runs, and the driver's backends must agree with the
//! sequential machine on what the program computes.

use parsecs::core::{ManyCoreSim, SectionedTrace, SimConfig, TraceArena};
use parsecs::driver::{ManyCoreBackend, Runner, SequentialBackend};
use parsecs::machine::Machine;
use parsecs::workloads::data::{self, Rng};
use parsecs::workloads::scale;
use proptest::prelude::*;

/// Expands one proptest-drawn seed into a whole random program, over the
/// workspace's shared deterministic generator ([`data::rng`]).
struct Gen {
    rng: Rng,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: data::rng(seed),
        }
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.rng.below(bound.max(1))
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len() as u64) as usize]
    }
}

/// Emits one straight-line operation. The generated programs only jump
/// forward, never touch `%rdi` (the data pointer) and address memory
/// through the data or scratch arrays, so every program halts.
fn push_op(out: &mut String, gen: &mut Gen) {
    let reg = ["%rax", "%rbx", "%rcx", "%rsi"];
    match gen.below(8) {
        0 => {
            let k = gen.below(100);
            let r = gen.pick(&reg);
            out.push_str(&format!("        movq ${k}, {r}\n"));
        }
        1 => {
            let k = gen.below(50);
            let r = gen.pick(&reg);
            out.push_str(&format!("        addq ${k}, {r}\n"));
        }
        2 => {
            let a = gen.pick(&reg);
            let b = gen.pick(&reg);
            out.push_str(&format!("        imulq {a}, {b}\n"));
        }
        3 => {
            let off = gen.below(3) * 8;
            let r = gen.pick(&reg);
            out.push_str(&format!("        movq {off}(%rdi), {r}\n"));
        }
        4 => {
            // Store into the scratch array: cross-section memory renaming.
            let off = gen.below(4) * 8;
            let r = gen.pick(&["%rax", "%rbx", "%rsi"]);
            out.push_str("        movq $scratch, %rcx\n");
            out.push_str(&format!("        movq {r}, {off}(%rcx)\n"));
        }
        5 => {
            // Load back from the scratch array.
            let off = gen.below(4) * 8;
            let r = gen.pick(&["%rax", "%rbx", "%rsi"]);
            out.push_str("        movq $scratch, %rcx\n");
            out.push_str(&format!("        movq {off}(%rcx), {r}\n"));
        }
        6 => {
            out.push_str("        pushq %rax\n        popq %rbx\n");
        }
        _ => {
            let r = gen.pick(&["%rbx", "%rsi"]);
            out.push_str(&format!("        shrq {r}\n"));
        }
    }
}

/// One random task body: blocks of ops, forward conditional jumps over
/// random suffixes of a block, and 0–2 forks of the next-deeper task.
fn push_task(out: &mut String, gen: &mut Gen, task: usize, depth: usize) {
    out.push_str(&format!("task{task}:\n"));
    let blocks = 1 + gen.below(3);
    let mut label = 0usize;
    let mut forks_left = if task + 1 < depth {
        1 + gen.below(2)
    } else {
        0
    };
    for block in 0..blocks {
        let ops = 1 + gen.below(4);
        for _ in 0..ops {
            push_op(out, gen);
        }
        if gen.below(2) == 0 {
            let cond = gen.pick(&["jne", "je", "ja", "jbe", "jge", "jl"]);
            let r = gen.pick(&["%rax", "%rbx", "%rsi"]);
            let k = gen.below(64);
            out.push_str(&format!("        cmpq ${k}, {r}\n"));
            out.push_str(&format!("        {cond} .t{task}_{label}\n"));
            for _ in 0..1 + gen.below(2) {
                push_op(out, gen);
            }
            out.push_str(&format!(".t{task}_{label}:\n"));
            label += 1;
        }
        if forks_left > 0 && (gen.below(2) == 0 || block + 1 == blocks) {
            out.push_str(&format!("        fork task{}\n", task + 1));
            forks_left -= 1;
        }
    }
    out.push_str("        endfork\n");
}

fn random_program(seed: u64) -> parsecs::isa::Program {
    let mut gen = Gen::new(seed);
    let len = 4 + gen.below(8);
    let data: Vec<String> = (0..len).map(|_| gen.below(1000).to_string()).collect();
    let depth = 1 + gen.below(3) as usize;
    let mut src = format!(
        "t:      .quad {}\nscratch: .quad 0, 0, 0, 0\nmain:   movq $t, %rdi\n        movq ${len}, %rsi\n        fork task0\n        out  %rax\n        halt\n",
        data.join(", ")
    );
    for task in 0..depth {
        push_task(&mut src, &mut gen, task, depth);
    }
    parsecs::asm::assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"))
}

proptest! {
    /// The tentpole contract of the pipeline: streaming sectioning is
    /// indistinguishable, record for record, from materialising the
    /// trace and post-processing it.
    #[test]
    fn streaming_sectioner_matches_the_sequential_analysis(seed in proptest::strategy::any::<u64>()) {
        let program = random_program(seed);
        let fuel = 1_000_000;

        // Two-pass: materialise the full event vector, then section it.
        let mut machine = Machine::load(&program).expect("loads");
        let (outcome, trace) = machine.run_traced(fuel).expect("halts");
        let legacy = SectionedTrace::from_trace(&trace, outcome.outputs);

        // Streaming: the machine pushes into the sectioner, no trace.
        let arena = TraceArena::from_program(&program, fuel).expect("halts");

        // Record-for-record equality in the record representation
        // (locations, provenance, writes, flags, sections, outputs)...
        prop_assert_eq!(&SectionedTrace::from_arena(&arena), &legacy, "seed {}", seed);
        // ...and column-for-column equality in the arena representation.
        prop_assert_eq!(&legacy.to_arena(), &arena, "seed {}", seed);
    }
}

proptest! {
    /// Arena-backed simulation equals record-backed simulation: the
    /// compatibility shim (`simulate(&SectionedTrace)`) and the direct
    /// arena path must produce the same `SimResult`, both engines must
    /// stay bit-identical on the arena path, a stats-only run must
    /// reproduce the recorded aggregates exactly, and the lean
    /// (write-free) arena must simulate identically to the full one.
    #[test]
    fn arena_and_record_backed_simulation_agree(seed in proptest::strategy::any::<u64>()) {
        let program = random_program(seed.rotate_left(11));
        let arena = TraceArena::from_program(&program, 1_000_000).expect("halts");
        let legacy = SectionedTrace::from_arena(&arena);
        let mut gen = Gen::new(seed);
        let cores = [1usize, 3, 8, 64][gen.below(4) as usize];
        let sim = ManyCoreSim::new(SimConfig::with_cores(cores));
        let via_arena = sim.simulate_arena(&arena).expect("simulates");
        let via_records = sim.simulate(&legacy).expect("simulates");
        prop_assert_eq!(&via_arena, &via_records, "seed {} at {} cores", seed, cores);
        let reference = sim.simulate_arena_reference(&arena).expect("simulates");
        prop_assert_eq!(&via_arena, &reference, "seed {} at {} cores", seed, cores);

        // The stats axis: streaming aggregates == post-hoc aggregates.
        let stats_sim = ManyCoreSim::new(SimConfig::with_cores(cores).stats_only());
        let stats = stats_sim.simulate_arena(&arena).expect("simulates");
        prop_assert_eq!(&stats.stats, &via_arena.stats, "seed {} at {} cores", seed, cores);
        prop_assert!(stats.timings.is_empty(), "seed {}", seed);
        prop_assert_eq!(
            &stats,
            &stats_sim.simulate_arena_reference(&arena).expect("simulates"),
            "seed {} at {} cores: engines diverge stats-only",
            seed,
            cores
        );
        prop_assert_eq!(stats.stats.forced_stall_releases, 0, "seed {}", seed);

        // The lean arena drops only the written-locations columns, which
        // the simulators never read: identical result modulo the smaller
        // reported arena footprint — and, on validated runs, modulo the
        // attached check report (the writer-discipline replay needs the
        // write columns, so a lean arena's report legitimately skips it).
        let lean = TraceArena::from_program_lean(&program, 1_000_000).expect("halts");
        let mut via_lean = sim.simulate_arena(&lean).expect("simulates");
        prop_assert!(
            via_lean.stats.trace_arena_bytes <= via_arena.stats.trace_arena_bytes,
            "seed {}: lean arena is not leaner",
            seed
        );
        via_lean.stats.trace_arena_bytes = via_arena.stats.trace_arena_bytes;
        via_lean.check.clone_from(&via_arena.check);
        prop_assert_eq!(&via_lean, &via_arena, "seed {} at {} cores: lean diverges", seed, cores);
    }
}

#[test]
fn generated_programs_exercise_forks_and_memory() {
    let mut sections = 0usize;
    let mut deps = 0usize;
    for seed in 0..32u64 {
        let arena =
            TraceArena::from_program(&random_program(seed * 6151 + 3), 1_000_000).expect("halts");
        sections += arena.sections().len();
        deps += (0..arena.len())
            .map(|i| arena.sources(i).len())
            .sum::<usize>();
    }
    assert!(sections >= 64, "only {sections} sections over 32 programs");
    assert!(deps > 1_000, "only {deps} dependences over 32 programs");
}

/// The scale satellite: at 256 cores the two engines stay bit-identical
/// on an arena-backed synthetic-histogram run, the outputs match the
/// Rust oracle, and the deadlock detector stays silent.
#[test]
fn engines_agree_bit_for_bit_at_256_cores() {
    let (keys, buckets, seed) = (12_000, 256, 11);
    let arena = TraceArena::from_program(
        &scale::synth_histogram_program(keys, buckets, seed),
        scale::synth_histogram_fuel(keys, buckets),
    )
    .expect("halts");
    assert!(
        arena.len() > 150_000,
        "scale cell too small: {}",
        arena.len()
    );
    let sim = ManyCoreSim::new(SimConfig::with_cores(256));
    let event = sim.simulate_arena(&arena).expect("simulates");
    let reference = sim.simulate_arena_reference(&arena).expect("simulates");
    assert_eq!(event, reference, "engines diverge at 256 cores");
    assert_eq!(
        event.outputs,
        scale::synth_histogram_expected(keys, buckets, seed)
    );
    assert_eq!(event.stats.forced_stall_releases, 0);
    assert!(
        event.stats.cores_used > 64,
        "a 256-core run must spread past 64 cores"
    );
}

/// Backend agreement at 256 cores through the driver: the many-core
/// backend computes what the sequential machine computes, and the
/// arena's memory accounting rides along on the report.
#[test]
fn driver_backends_agree_at_256_cores() {
    let (chains, links, seed) = (256, 12, 5);
    let program = scale::fan_chain_program(chains, links, seed);
    let reports = Runner::new(&program)
        .fuel(scale::fan_chain_fuel(chains, links))
        .on(SequentialBackend)
        .on(ManyCoreBackend::with_cores(256))
        .run_all()
        .expect("both backends run");
    assert_eq!(
        reports[0].outputs,
        scale::fan_chain_expected(chains, links, seed)
    );
    assert_eq!(reports[0].outputs, reports[1].outputs);
    assert_eq!(reports[1].forced_stall_releases(), Some(0));
    let per_insn = reports[1]
        .trace_bytes_per_instruction()
        .expect("arena accounting");
    assert!(
        per_insn > 0.0 && per_insn <= 120.0,
        "{per_insn:.1} B/insn exceeds the arena budget"
    );
    // 256 chains genuinely occupy a 256-core chip.
    assert!(reports[1].sim().unwrap().stats.cores_used > 128);
}
