//! The engine workloads, `full_machine` and `halo_stream`: a qdaemon
//! boots a box, allocates a partition, and the sharded engine runs a
//! fresh Wilson-CG segment on it over the real SCU link protocol.
//!
//! The untraced section times whole segments. The traced pass brackets
//! each layer call with `barrier_async` and reads node 0's host clock, so
//! a bracket measures the call on the whole machine plus one barrier; the
//! barrier alone is measured by empty brackets and subtracted.

use crate::probe::{
    counted, derive, median, peak_rss_mb, repeated_setup, secs, Layer, SpanLog, Stream, SETUP_REPS,
};
use crate::report::Run;
use qcdoc_core::comm::{barrier_async, global_sum_f64_async};
use qcdoc_core::distributed::{
    dslash_local_async, exchange_faces_async, wilson_cg_segment_async, BlockGeom, CgResume,
};
use qcdoc_core::functional::TelemetryConfig;
use qcdoc_core::sharded::ShardedMachine;
use qcdoc_fault::HealthLedger;
use qcdoc_geometry::{PartitionSpec, TorusShape};
use qcdoc_host::qdaemon::Qdaemon;
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc_lattice::solver::{solve_cgne, CgParams};
use qcdoc_lattice::wilson::WilsonDirac;
use qcdoc_telemetry::Phase;
use std::time::Instant;

pub const KAPPA: f64 = 0.11;
/// Never reached by a bounded segment: every segment runs its full
/// iteration count.
const TOLERANCE: f64 = 1e-12;
const MAX_ITERATIONS: usize = 10_000;
/// Distance allowed between the machine's relative residuals and the
/// single-node solver's on the same fields.
const RESIDUAL_TOLERANCE: f64 = 1e-9;
/// `f64` words in one projected half spinor (2 spins × 3 colours × re/im).
const HALF_SPINOR_WORDS: u64 = 12;
/// Empty brackets that measure one barrier in the traced pass.
const SYNC_BRACKETS: usize = 2;
/// Span ring per node in the traced pass: enough for the last CG
/// iteration and the barrier after it on the full machine.
const TRACE_RING: usize = 256;

/// Shape and size of one engine workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Physical box the qdaemon boots.
    physical: &'static [usize],
    /// Logical axis groups of the whole-box partition (`None`: native).
    groups: Option<&'static [&'static [usize]]>,
    global: [usize; 4],
    /// Sharded-engine worker threads, pinned.
    workers: usize,
    /// CG iterations per segment.
    iterations: usize,
    /// Repeats of each single-call bracket in the traced pass.
    layer_reps: usize,
}

impl Spec {
    /// The paper's 12,288-node machine, physically [8,8,6,4,4,2], folded
    /// to a logical [8,8,8,24], one site per node.
    pub fn full_machine() -> Spec {
        Spec {
            physical: &[8, 8, 6, 4, 4, 2],
            groups: Some(&[&[0], &[1], &[3, 5], &[2, 4]]),
            global: [8, 8, 8, 24],
            workers: 2,
            iterations: 1,
            layer_reps: 1,
        }
    }

    /// 16 nodes carrying 8⁴ sites each: 6,144 words per face.
    pub fn halo_stream() -> Spec {
        Spec {
            physical: &[2, 2, 2, 2],
            groups: None,
            global: [16, 16, 16, 16],
            workers: 1,
            iterations: 1,
            layer_reps: 2,
        }
    }

    /// A small engine problem that measures the engine layers on the
    /// workloads that do not run the engine themselves.
    pub fn probe() -> Spec {
        Spec {
            physical: &[2, 2, 2, 2],
            groups: None,
            global: [4, 4, 4, 4],
            workers: 1,
            iterations: 2,
            layer_reps: 5,
        }
    }

    fn lattice(&self) -> Lattice {
        Lattice::new(self.global)
    }

    /// Operator applications (M or M†) in one fresh segment.
    fn applications(&self) -> usize {
        1 + 2 * self.iterations
    }
}

/// Seeded inputs plus a booted, partitioned machine ready to run.
struct Prepared {
    gauge: GaugeField,
    b: FermionField,
    machine: ShardedMachine,
    /// Host-clock intervals of the qdaemon boot and the allocation.
    boot: (Instant, Instant),
    allocate: (Instant, Instant),
}

/// Generate the fields, boot the box through the qdaemon, allocate the
/// partition and build the engine for it.
fn prepare(spec: &Spec, seed: u64) -> Prepared {
    let global = spec.lattice();
    let gauge = GaugeField::hot(global, derive(seed, Stream::Gauge));
    let b = FermionField::gaussian(global, derive(seed, Stream::Source));
    let t = Instant::now();
    let physical = TorusShape::new(spec.physical);
    let mut qdaemon = Qdaemon::new(physical.clone());
    let boot = qdaemon.boot(&[]);
    assert_eq!(
        boot.booted,
        physical.node_count(),
        "boot must reach every node"
    );
    let boot = (t, Instant::now());
    let t = Instant::now();
    let partition = match spec.groups {
        Some(groups) => PartitionSpec::whole_machine(&physical, groups),
        None => PartitionSpec::native(&physical),
    };
    let id = qdaemon
        .allocate(partition)
        .expect("the freshly booted box is free");
    let logical = qdaemon
        .partition(id)
        .expect("just allocated")
        .logical_shape()
        .clone();
    let allocate = (t, Instant::now());
    Prepared {
        gauge,
        b,
        machine: ShardedMachine::new(logical).with_workers(spec.workers),
        boot,
        allocate,
    }
}

/// One setup: [`prepare`], then a machine run that builds the fabric
/// and nodes and extracts every node's blocks.
fn setup(spec: &Spec, seed: u64) -> Prepared {
    let p = prepare(spec, seed);
    extract_blocks(&p.machine, &p.gauge, &p.b);
    p
}

/// Run `machine` with a program that only extracts every node's gauge
/// and source blocks: fabric and node construction plus block extraction,
/// the in-run part of an engine workload's set-up.
pub fn extract_blocks(machine: &ShardedMachine, gauge: &GaugeField, b: &FermionField) {
    let global = b.lattice();
    let sites: usize = machine
        .run(async |ctx| {
            let geom = BlockGeom::new(ctx, global);
            geom.extract_gauge(gauge).len() + geom.extract_fermion(b).len()
        })
        .iter()
        .sum();
    assert_eq!(sites, 2 * global.volume(), "blocks must tile the lattice");
}

/// What one node reports from a segment.
#[derive(Debug, Clone)]
struct Segment {
    /// Host time at which this node had its blocks and began solving.
    ready: Instant,
    /// Host time at which this node's segment returned.
    done: Instant,
    rsq_bits: u64,
    residuals: Vec<f64>,
    iterations: usize,
    wedged: bool,
}

/// Run one fresh segment; its solve time runs from the moment the last
/// node had its blocks to the moment the last node finished, leaving
/// fabric construction and teardown out.
fn timed_segment(spec: &Spec, p: &Prepared) -> (Vec<Segment>, HealthLedger, f64) {
    let global = spec.lattice();
    let (outs, ledger) = p.machine.run_with_health(async |ctx| {
        let geom = BlockGeom::new(ctx, global);
        let lg = geom.extract_gauge(&p.gauge);
        let lb = geom.extract_fermion(&p.b);
        let ready = Instant::now();
        let out = wilson_cg_segment_async(
            ctx,
            &geom,
            &lg,
            &lb,
            KAPPA,
            TOLERANCE,
            MAX_ITERATIONS,
            None,
            spec.iterations,
        )
        .await;
        Segment {
            ready,
            done: Instant::now(),
            rsq_bits: out.rsq.to_bits(),
            residuals: out.new_residuals,
            iterations: out.iterations,
            wedged: out.wedged,
        }
    });
    let start = outs
        .iter()
        .map(|s| s.ready)
        .max()
        .expect("a machine has nodes");
    let end = outs
        .iter()
        .map(|s| s.done)
        .max()
        .expect("a machine has nodes");
    let solve_s = end.duration_since(start).as_secs_f64();
    (outs, ledger, solve_s)
}

/// The single-node solver's relative residuals on the same global
/// fields: the computation the machine's segment is checked against.
fn reference_residuals(spec: &Spec, p: &Prepared) -> Vec<f64> {
    let op = WilsonDirac::new(&p.gauge, KAPPA);
    let mut x = FermionField::zero(spec.lattice());
    let params = CgParams {
        tolerance: TOLERANCE,
        max_iterations: spec.iterations,
    };
    solve_cgne(&op, &mut x, &p.b, params).residuals
}

/// Words one node sends in one face exchange: two faces per spanned axis.
fn halo_words(shape: &TorusShape, global: Lattice) -> u64 {
    let geom = BlockGeom::for_node(shape, qcdoc_geometry::NodeId(0), global);
    (0..4)
        .filter(|&mu| geom.off_node(mu))
        .map(|mu| 2 * geom.face_sites(mu) as u64 * HALF_SPINOR_WORDS)
        .sum()
}

/// Words one node sends in one dimension-ordered global sum: one per
/// ring step along every spanned axis.
fn gsum_words(shape: &TorusShape) -> u64 {
    (0..shape.rank())
        .map(|a| shape.extent(a) as u64)
        .filter(|&n| n > 1)
        .map(|n| n - 1)
        .sum()
}

/// Check one segment against the single-node reference: identical bits
/// on every node, residuals within [`RESIDUAL_TOLERANCE`], no wedge and
/// no resend. Returns what is wrong, if anything.
fn check_segment(
    spec: &Spec,
    shape: &TorusShape,
    outs: &[Segment],
    ledger: &HealthLedger,
    reference: &[f64],
) -> Vec<String> {
    let mut problems = Vec::new();
    if outs.len() != shape.node_count() {
        problems.push(format!(
            "{} results from {} nodes",
            outs.len(),
            shape.node_count()
        ));
        return problems;
    }
    if let Some(n) = outs.iter().position(|o| o.wedged) {
        problems.push(format!("node {n} wedged"));
    }
    if let Some(n) = outs.iter().position(|o| o.iterations != spec.iterations) {
        problems.push(format!(
            "node {n} ran {} iterations, not {}",
            outs[n].iterations, spec.iterations
        ));
    }
    let head = &outs[0];
    let bits = |o: &Segment| o.residuals.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    if let Some(n) = outs
        .iter()
        .position(|o| o.rsq_bits != head.rsq_bits || bits(o) != bits(head))
    {
        problems.push(format!("node {n} holds other residual bits than node 0"));
    }
    if head.residuals.len() != reference.len() {
        problems.push(format!(
            "{} residuals, reference has {}",
            head.residuals.len(),
            reference.len()
        ));
    }
    for (i, (got, want)) in head.residuals.iter().zip(reference).enumerate() {
        // Written so that a NaN residual fails too.
        let close = (got - want).abs() <= RESIDUAL_TOLERANCE;
        if !close {
            problems.push(format!(
                "iteration {i}: relative residual {got:e}, single-node {want:e}"
            ));
        }
    }
    if ledger.total_resends() != 0 {
        problems.push(format!(
            "{} resends on a clean machine",
            ledger.total_resends()
        ));
    }
    problems
}

/// Check every node's words on the wire: one segment's halos at
/// 8 × face sites × 12 words each (a half spinor is 6 complex numbers),
/// plus one word per ring step of each global sum.
///
/// The face exchange ships each half spinor as 24 words, 12 of them
/// zero padding, so this check fails on every segment until the wire
/// format carries only the 12 words; it is counted apart from the
/// segment's other checks for that reason.
fn check_halo_words(spec: &Spec, shape: &TorusShape, ledger: &HealthLedger) -> Vec<String> {
    let halos = spec.applications() as u64;
    let sums = (2 + 2 * spec.iterations as u64) * gsum_words(shape);
    let expected = halo_words(shape, spec.lattice());
    ledger
        .nodes
        .iter()
        .enumerate()
        .map(|(n, node)| (n, node.links.iter().map(|l| l.sent_words).sum::<u64>()))
        .filter(|&(_, sent)| sent != sums + halos * expected)
        .take(1)
        .map(|(n, sent)| {
            format!(
                "node {n} sent {sent} words: {halos} halos at {} words each, expected {expected}",
                sent.saturating_sub(sums) as f64 / halos as f64
            )
        })
        .collect()
}

/// The untraced section: time whole segments for `seconds`, then
/// report the four end-to-end metrics.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, run: &mut Run) {
    let (p, setup_s) = repeated_setup(|| setup(spec, seed));
    let reference = reference_residuals(spec, &p);
    let shape = p.machine.shape().clone();
    let t = Instant::now();
    let mut solves = Vec::new();
    while solves.is_empty() || secs(t) < seconds {
        let (outs, ledger, solve_s) = timed_segment(spec, &p);
        run.op(check_segment(spec, &shape, &outs, &ledger, &reference));
        run.faulty_op(check_halo_words(spec, &shape, &ledger));
        solves.push(solve_s);
    }
    let solve_s = median(&solves);
    run.set("setup_s", setup_s, "s");
    run.set("solve_s", solve_s, "s");
    run.set(
        "site_updates_per_s",
        (spec.lattice().volume() * spec.applications()) as f64 / solve_s,
        "1/s",
    );
    run.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// What one node reports from the traced pass.
struct Traced {
    polls_halo: u64,
    polls_gsum: u64,
    words_halo: u64,
    gsum_bits: u64,
    dslash_wedged: bool,
    /// Node 0 only: host-clock bracket ends, in program order.
    stamps: Vec<(&'static str, Instant, Instant)>,
    /// Logical clock around the CG iterations.
    clock: (u64, u64),
    rsq_bits: u64,
    residuals: Vec<f64>,
}

fn sent_words(ctx: &qcdoc_core::functional::NodeCtx) -> u64 {
    ctx.telem.metrics().counter("dma_send_words", &[])
}

/// The traced pass: layer calls bracketed by barriers, poll counts,
/// protocol counters and simulated cycles. `main` marks the workload's
/// own pass, which also reports tracing overhead and coverage against
/// one untraced segment.
pub fn layers(spec: &Spec, seed: u64, main: bool, run: &mut Run, log: &mut SpanLog) {
    let pass = log.open(
        if main {
            "engine.traced_pass"
        } else {
            "engine.probe_pass"
        },
        Layer::Bench,
        None,
    );
    let mut boots = Vec::new();
    let mut allocs = Vec::new();
    let mut builds = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let p = prepare(spec, seed);
        let ((b0, b1), (a0, a1)) = (p.boot, p.allocate);
        log.record("qdaemon.boot", Layer::Qdaemon, b0, b1, Some(pass));
        log.record("qdaemon.allocate", Layer::Qdaemon, a0, a1, Some(pass));
        boots.push(b1.duration_since(b0).as_secs_f64());
        allocs.push(a1.duration_since(a0).as_secs_f64());
        let t = Instant::now();
        p.machine.run(async |_| ());
        builds.push(secs(t));
        log.record(
            "sharded.empty_run",
            Layer::Sharded,
            t,
            Instant::now(),
            Some(pass),
        );
        prepared = Some(p);
    }
    let p = prepared.expect("at least one setup");
    let shape = p.machine.shape().clone();
    let global = spec.lattice();
    let reference = reference_residuals(spec, &p);

    let untraced = main.then(|| {
        let t = Instant::now();
        let (outs, ledger, solve_s) = timed_segment(spec, &p);
        log.record(
            "engine.untraced_segment",
            Layer::Bench,
            t,
            Instant::now(),
            Some(pass),
        );
        run.op(check_segment(spec, &shape, &outs, &ledger, &reference));
        run.faulty_op(check_halo_words(spec, &shape, &ledger));
        (solve_s, outs[0].rsq_bits)
    });

    let machine = ShardedMachine::new(shape.clone())
        .with_workers(spec.workers)
        .with_telemetry(TelemetryConfig {
            ring_capacity: TRACE_RING,
            ..TelemetryConfig::default()
        });
    let t_run = Instant::now();
    let (outs, ledger, telemetry) = machine.run_with_telemetry(async |ctx| {
        let geom = BlockGeom::new(ctx, global);
        let lg = geom.extract_gauge(&p.gauge);
        let lb = geom.extract_fermion(&p.b);
        let node0 = ctx.id.0 == 0;
        let mut stamps = Vec::new();
        barrier_async(ctx).await;
        let mut prev = Instant::now();
        let mut mark = |name: &'static str| {
            let now = Instant::now();
            if node0 {
                stamps.push((name, prev, now));
            }
            prev = now;
        };
        for _ in 0..SYNC_BRACKETS {
            barrier_async(ctx).await;
            mark("comm.barrier");
        }
        let (mut polls_halo, mut words_halo, mut polls_gsum) = (0, 0, 0);
        let mut gsum = 0.0;
        let mut dslash_wedged = false;
        let local: f64 = lb.iter().map(|s| s.norm_sqr()).sum();
        for _ in 0..spec.layer_reps {
            let before = sent_words(ctx);
            (_, polls_halo) = counted(exchange_faces_async(ctx, &geom, &lg, &lb)).await;
            words_halo = sent_words(ctx) - before;
            barrier_async(ctx).await;
            mark("distributed.exchange_faces");
            (gsum, polls_gsum) = counted(global_sum_f64_async(ctx, local)).await;
            barrier_async(ctx).await;
            mark("comm.global_sum");
            let _ = dslash_local_async(ctx, &geom, &lg, &lb).await;
            dslash_wedged |= ctx.wedged();
            barrier_async(ctx).await;
            mark("distributed.dslash_local");
        }
        let start = wilson_cg_segment_async(
            ctx,
            &geom,
            &lg,
            &lb,
            KAPPA,
            TOLERANCE,
            MAX_ITERATIONS,
            None,
            0,
        )
        .await;
        barrier_async(ctx).await;
        mark("distributed.cg_start");
        let c0 = ctx.telem.clock();
        let resume = CgResume {
            x: &start.x,
            r: &start.r,
            p: &start.p,
            rsq: start.rsq,
            bref: start.bref,
            iterations: start.iterations,
        };
        let out = wilson_cg_segment_async(
            ctx,
            &geom,
            &lg,
            &lb,
            KAPPA,
            TOLERANCE,
            MAX_ITERATIONS,
            Some(resume),
            spec.iterations,
        )
        .await;
        let c1 = ctx.telem.clock();
        barrier_async(ctx).await;
        mark("distributed.cg_iterations");
        Traced {
            polls_halo,
            polls_gsum,
            words_halo,
            gsum_bits: gsum.to_bits(),
            dslash_wedged,
            stamps,
            clock: (c0, c1),
            rsq_bits: out.rsq.to_bits(),
            residuals: out.new_residuals,
        }
    });
    log.record(
        "engine.traced_run",
        Layer::Bench,
        t_run,
        Instant::now(),
        Some(pass),
    );

    // Machine-wide phase times from node 0's stamps.
    let head = &outs[0];
    let bracket = |name: &str| -> Vec<f64> {
        head.stamps
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.2.duration_since(s.1).as_secs_f64())
            .collect()
    };
    let one = |name: &str| median(&bracket(name));
    let barrier_s = one("comm.barrier");
    let halo_s = one("distributed.exchange_faces") - barrier_s;
    let gsum_s = one("comm.global_sum") - barrier_s;
    let dslash_s = one("distributed.dslash_local") - barrier_s;
    let cg_start_s = one("distributed.cg_start");
    let cg_iters_s = one("distributed.cg_iterations");
    for &(name, start, end) in &head.stamps {
        let layer = if name.starts_with("comm.") {
            Layer::Comm
        } else {
            Layer::Distributed
        };
        log.record(name, layer, start, end, Some(pass));
    }

    // Checks on every traced call.
    let words = halo_words(&shape, global);
    run.faulty_op(
        outs.iter()
            .enumerate()
            .filter(|(_, o)| o.words_halo != words)
            .map(|(n, o)| {
                format!(
                    "node {n} sent {} words in one halo, expected {words}",
                    o.words_halo
                )
            })
            .take(1)
            .collect(),
    );
    run.op(outs
        .iter()
        .position(|o| o.gsum_bits != head.gsum_bits)
        .map(|n| format!("node {n} holds other global-sum bits than node 0"))
        .into_iter()
        .collect());
    run.op(outs
        .iter()
        .position(|o| o.dslash_wedged)
        .map(|n| format!("node {n} wedged in dslash"))
        .into_iter()
        .collect());
    let mut cg_problems = Vec::new();
    if let Some(n) = outs
        .iter()
        .position(|o| o.rsq_bits != head.rsq_bits || o.residuals != head.residuals)
    {
        cg_problems.push(format!(
            "node {n} holds other traced residual bits than node 0"
        ));
    }
    for (got, want) in head.residuals.iter().zip(&reference) {
        // Written so that a NaN residual fails too.
        let close = (got - want).abs() <= RESIDUAL_TOLERANCE;
        if !close {
            cg_problems.push(format!("traced residual {got:e}, single-node {want:e}"));
        }
    }
    if let Some((_, bits)) = untraced {
        if bits != head.rsq_bits {
            cg_problems.push("traced and untraced segments end on other residual bits".into());
        }
    }
    if ledger.total_resends() != 0 {
        cg_problems.push(format!(
            "{} resends on a clean machine",
            ledger.total_resends()
        ));
    }

    // Simulated cycles of node 0's CG iterations, by phase.
    let (c0, c1) = head.clock;
    let mut cycles = [0u64; 3];
    let mut earliest = u64::MAX;
    for s in telemetry.spans.iter().filter(|s| s.node == 0) {
        earliest = earliest.min(s.begin);
        if s.depth != 0 || s.begin < c0 || s.end > c1 {
            continue;
        }
        match s.phase {
            Phase::Compute => cycles[0] += s.cycles(),
            Phase::Comms => cycles[1] += s.cycles(),
            Phase::GlobalSum => cycles[2] += s.cycles(),
            _ => {}
        }
    }
    if earliest > c0 {
        cg_problems.push("node 0's span ring dropped spans of the CG iterations".into());
    }
    run.op(cg_problems);
    let per_iter = |c: u64| c as f64 / spec.iterations as f64;

    let nodes = shape.node_count() as f64;
    run.set("qdaemon.boot_s", median(&boots), "s");
    run.set("qdaemon.allocate_s", median(&allocs), "s");
    run.set("sharded.build_s", median(&builds), "s");
    run.set(
        "sharded.polls_per_halo",
        outs.iter().map(|o| o.polls_halo).sum::<u64>() as f64,
        "count",
    );
    run.set(
        "sharded.polls_per_gsum",
        outs.iter().map(|o| o.polls_gsum).sum::<u64>() as f64,
        "count",
    );
    run.set("distributed.halo_s", halo_s, "s");
    run.set("distributed.kernel_s", dslash_s - halo_s, "s");
    run.set(
        "distributed.cg_iteration_s",
        (cg_iters_s - barrier_s) / spec.iterations as f64,
        "s",
    );
    run.set("comm.gsum_s", gsum_s, "s");
    run.set("scu.words_per_halo", head.words_halo as f64, "count");
    run.set("scu.resends", ledger.total_resends() as f64, "count");
    run.set(
        "scu.ns_per_word",
        halo_s * 1e9 / (head.words_halo as f64 * nodes),
        "ns",
    );
    run.set("sim.compute_cycles", per_iter(cycles[0]), "cycles");
    run.set("sim.comms_cycles", per_iter(cycles[1]), "cycles");
    run.set("sim.gsum_cycles", per_iter(cycles[2]), "cycles");
    if let Some((untraced_s, _)) = untraced {
        let first = head.stamps.first().map(|s| s.1).expect("node 0 stamps");
        let last = head.stamps.last().map(|s| s.2).expect("node 0 stamps");
        // Time inside layer calls: every bracket but the empty ones, less
        // the barrier that closes it.
        let layered: f64 = head
            .stamps
            .iter()
            .filter(|s| s.0 != "comm.barrier")
            .map(|s| s.2.duration_since(s.1).as_secs_f64() - barrier_s)
            .sum();
        run.set(
            "trace.overhead_ratio",
            (cg_start_s + cg_iters_s) / untraced_s,
            "ratio",
        );
        run.set(
            "trace.coverage",
            layered / last.duration_since(first).as_secs_f64(),
            "ratio",
        );
    }
    log.close(pass);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_run() -> (Spec, TorusShape, Vec<Segment>, HealthLedger, Vec<f64>) {
        let spec = Spec::probe();
        let p = prepare(&spec, 1);
        let (outs, ledger, solve_s) = timed_segment(&spec, &p);
        assert!(solve_s > 0.0);
        let reference = reference_residuals(&spec, &p);
        let shape = p.machine.shape().clone();
        (spec, shape, outs, ledger, reference)
    }

    #[test]
    fn clean_segment_passes_and_perturbed_outputs_fail() {
        let (spec, shape, outs, ledger, reference) = probe_run();
        assert_eq!(
            check_segment(&spec, &shape, &outs, &ledger, &reference),
            Vec::<String>::new()
        );

        // A residual off by more than the tolerance on every node.
        let mut off = outs.clone();
        for o in &mut off {
            o.residuals[0] += 4.0 * RESIDUAL_TOLERANCE;
        }
        assert!(!check_segment(&spec, &shape, &off, &ledger, &reference).is_empty());

        // One node disagreeing in the last bit.
        let mut split = outs.clone();
        split[5].rsq_bits ^= 1;
        assert!(!check_segment(&spec, &shape, &split, &ledger, &reference).is_empty());

        // A word more or less on one node's faces.
        let padded = check_halo_words(&spec, &shape, &ledger);
        let mut short = ledger.clone();
        short.nodes[3].links[0].sent_words -= 1;
        assert!(!check_halo_words(&spec, &shape, &short).is_empty());
        // Today every half spinor crosses the wire as 24 words, twice
        // the 12 it needs; this shows up as a halo of double size.
        let doubled = format!("at {} words each", 2 * halo_words(&shape, spec.lattice()));
        assert!(
            padded.is_empty() || padded[0].contains(&doubled),
            "{padded:?}"
        );

        // A resend on a machine with no faults.
        let mut resent = ledger.clone();
        resent.nodes[2].links[1].resends = 1;
        assert!(!check_segment(&spec, &shape, &outs, &resent, &reference).is_empty());
    }

    #[test]
    fn halo_words_match_the_faces() {
        let full = TorusShape::new(&[8, 8, 8, 24]);
        assert_eq!(halo_words(&full, Lattice::new([8, 8, 8, 24])), 96);
        let box16 = TorusShape::new(&[2, 2, 2, 2]);
        assert_eq!(halo_words(&box16, Lattice::new([16; 4])), 8 * 512 * 12);
    }
}
