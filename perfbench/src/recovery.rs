//! The `dead_link_recovery` workload: a seeded dead transmitter wedges a
//! half-box partition mid-segment; the recovery controller discards the
//! segment, the host planner quarantines the node and replans onto the
//! spare half, and the solve resumes from its last checkpoint. Every
//! clean segment's checkpoint is saved to and restored from the durable
//! checkpoint store on the NFS model.

use crate::engine::{extract_blocks, KAPPA};
use crate::probe::{derive, median, peak_rss_mb, repeated_setup, secs, Layer, SpanLog, Stream};
use crate::report::Run;
use qcdoc_core::distributed::{
    assemble_checkpoint, resume_blocks, wilson_cg_segment_async, BlockGeom, CgResume, CgSegmentOut,
};
use qcdoc_core::functional::NodeCtx;
use qcdoc_core::recovery::{RecoveryConfig, RecoveryReport, Replacement, SegmentVerdict};
use qcdoc_core::sharded::ShardedMachine;
use qcdoc_fault::{FaultEvent, FaultPlan, HealthLedger};
use qcdoc_geometry::{NodeCoord, NodeId, Partition, PartitionSpec, TorusShape};
use qcdoc_host::ckstore::{CheckpointStore, StoreConfig};
use qcdoc_host::nfs::NfsServer;
use qcdoc_host::qdaemon::Qdaemon;
use qcdoc_host::RecoveryPlanner;
use qcdoc_lattice::checkpoint::{read_checkpoint, write_checkpoint, CgCheckpoint};
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

const MAX_ITERATIONS: usize = 2_000;
/// 4⁴ sites, a 2⁴ block per node of the half box.
const GLOBAL: [usize; 4] = [4; 4];
/// The box: two [2,2,2,2] halves side by side along the fifth axis.
const BOX: [usize; 5] = [2, 2, 2, 2, 2];
/// Logical links of a 4-D partition node (± each axis).
const LINKS: u64 = 8;
const HALF_SPINOR_WORDS: u64 = 12;

/// Size, segmenting and watchdog of one recovery problem.
#[derive(Debug, Clone)]
pub struct Spec {
    segment_iters: usize,
    tolerance: f64,
    /// Wedge watchdog override (`None`: the engine's default).
    wedge_spins: Option<u32>,
}

impl Spec {
    pub fn dead_link_recovery() -> Spec {
        Spec {
            segment_iters: 8,
            tolerance: 1e-8,
            wedge_spins: None,
        }
    }

    /// A shorter solve with a short watchdog that measures the recovery
    /// and checkpoint layers on the other workloads.
    pub fn probe() -> Spec {
        Spec {
            segment_iters: 4,
            tolerance: 1e-4,
            wedge_spins: Some(2_000),
        }
    }

    fn lattice(&self) -> Lattice {
        Lattice::new(GLOBAL)
    }

    fn machine(&self, shape: TorusShape) -> ShardedMachine {
        let m = ShardedMachine::new(shape).with_workers(1);
        match self.wedge_spins {
            Some(spins) => m.with_wedge_timeout(spins),
            None => m,
        }
    }
}

/// The partition the job starts on: the x4 = 0 half.
fn half_spec() -> PartitionSpec {
    PartitionSpec {
        origin: NodeCoord::ORIGIN,
        extents: vec![2, 2, 2, 2, 1],
        groups: vec![vec![0], vec![1], vec![2], vec![3]],
    }
}

/// The seeded fault: which physical node's transmitter dies, on which
/// link, from which data word of a segment on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Planted {
    node: u32,
    link: usize,
    from_seq: u64,
}

/// Choose the fault from the seed: any node of the starting half, any
/// link, and a word between an eighth and seven eighths of the way
/// through the first segment's halo traffic on that link.
fn plant(spec: &Spec, seed: u64) -> Planted {
    let r = derive(seed, Stream::Fault);
    let start = Partition::new(&TorusShape::new(&BOX), half_spec()).expect("half box");
    let logical = (r % start.node_count() as u64) as u32;
    let link = ((r >> 16) % LINKS) as usize;
    let geom = BlockGeom::for_node(start.logical_shape(), NodeId(logical), spec.lattice());
    let face = geom.face_sites(link / 2) as u64 * HALF_SPINOR_WORDS;
    let words = (1 + 2 * spec.segment_iters as u64) * face;
    let from_seq = words / 8 + (r >> 32) % (words * 3 / 4);
    Planted {
        node: start.physical_id(NodeId(logical)).0,
        link,
        from_seq,
    }
}

/// Seeded inputs, a booted box with the job's partition, and an empty
/// checkpoint store.
struct Prepared {
    gauge: GaugeField,
    b: FermionField,
    qdaemon: Qdaemon,
    planner: RecoveryPlanner,
    nfs: NfsServer,
    store: CheckpointStore,
}

fn prepare(spec: &Spec, seed: u64) -> Prepared {
    let global = spec.lattice();
    let gauge = GaugeField::hot(global, derive(seed, Stream::Gauge));
    let b = FermionField::gaussian(global, derive(seed, Stream::Source));
    let planted = plant(spec, seed);
    let mut qdaemon = Qdaemon::new(TorusShape::new(&BOX));
    qdaemon.boot(&[]);
    let faults = FaultPlan::new(derive(seed, Stream::Fault)).with_event(FaultEvent::dead_link(
        planted.node,
        planted.link,
        planted.from_seq,
    ));
    let planner = RecoveryPlanner::new(&mut qdaemon, half_spec(), faults, false)
        .expect("the freshly booted box is free");
    let mut nfs = NfsServer::new(&["/data"], 1 << 28);
    let store = CheckpointStore::open(StoreConfig::new("/data/ck/bench"), &mut nfs);
    Prepared {
        gauge,
        b,
        qdaemon,
        planner,
        nfs,
        store,
    }
}

/// One segment of the distributed solve: fresh without a checkpoint,
/// resumed from its exact bits otherwise.
async fn segment(
    ctx: &mut NodeCtx,
    spec: &Spec,
    gauge: &GaugeField,
    b: &FermionField,
    state: &Option<CgCheckpoint>,
) -> CgSegmentOut {
    let geom = BlockGeom::new(ctx, spec.lattice());
    let lg = geom.extract_gauge(gauge);
    let lb = geom.extract_fermion(b);
    let blocks = state.as_ref().map(|c| (resume_blocks(&geom, c), c));
    let resume = blocks.as_ref().map(|((x, r, p), c)| CgResume {
        x,
        r,
        p,
        rsq: c.rsq,
        bref: c.bref,
        iterations: c.iterations,
    });
    wilson_cg_segment_async(
        ctx,
        &geom,
        &lg,
        &lb,
        KAPPA,
        spec.tolerance,
        MAX_ITERATIONS,
        resume,
        spec.segment_iters,
    )
    .await
}

/// The same segmented solve on a machine without faults, each
/// checkpoint round-tripped through its archive bytes: what the
/// recovered run must reproduce bit for bit.
fn reference(spec: &Spec, gauge: &GaugeField, b: &FermionField) -> CgCheckpoint {
    let shape = Partition::new(&TorusShape::new(&BOX), half_spec())
        .expect("half box")
        .logical_shape()
        .clone();
    let machine = spec.machine(shape.clone());
    let mut state: Option<CgCheckpoint> = None;
    let mut history = Vec::new();
    loop {
        let outs = machine.run(async |ctx| segment(ctx, spec, gauge, b, &state).await);
        let ckpt = assemble_checkpoint(&shape, spec.lattice(), &outs, &history);
        history = ckpt.residuals.clone();
        if ckpt.converged || ckpt.iterations >= MAX_ITERATIONS {
            return ckpt;
        }
        state = Some(read_checkpoint(&write_checkpoint(&ckpt)).expect("own archive parses"));
    }
}

/// What one recovered solve produced and what the layers took.
struct Recovered {
    result: Result<(CgCheckpoint, RecoveryReport), String>,
    /// Physical ids of the nodes the planner convicted.
    convicted: Vec<u32>,
    digest_mismatches: usize,
    seconds: f64,
    save_bytes: Vec<f64>,
    resends: u64,
    /// Node 0's iterations in every segment run, clean or discarded.
    node0_iterations: usize,
    /// Segments, the faulted segment up to the replan callback, replans,
    /// saves and restores, in order.
    spans: Vec<(&'static str, Layer, Instant, Instant)>,
}

impl Recovered {
    /// Median duration of the spans with this name (NaN when none ran).
    fn median_of(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.3.duration_since(s.2).as_secs_f64())
            .collect();
        if d.is_empty() {
            f64::NAN
        } else {
            median(&d)
        }
    }
}

/// The timed solve, from the first segment to the converged checkpoint.
fn recover(spec: &Spec, p: Prepared) -> Recovered {
    let Prepared {
        gauge,
        b,
        mut qdaemon,
        mut planner,
        mut nfs,
        mut store,
    } = p;
    let shape = planner.partition().logical_shape().clone();
    let machine = spec.machine(shape).with_faults(planner.local_faults());
    let segment_starts = Mutex::new(Vec::new());
    let node0_iterations = Mutex::new(0usize);
    let mut history: Vec<f64> = Vec::new();
    let mut save_bytes = Vec::new();
    let mut digest_mismatches = 0;
    let mut convicted = Vec::new();
    let mut resends = 0;
    let spans = RefCell::new(Vec::new());

    let t = Instant::now();
    let result = machine.run_with_recovery(
        RecoveryConfig::default(),
        None,
        async |ctx, state: &Option<CgCheckpoint>| {
            if ctx.id.0 == 0 {
                segment_starts
                    .lock()
                    .expect("no panics hold it")
                    .push(Instant::now());
            }
            let out = segment(ctx, spec, &gauge, &b, state).await;
            if ctx.id.0 == 0 {
                let before = state.as_ref().map_or(0, |c| c.iterations);
                *node0_iterations.lock().expect("no panics hold it") += out.iterations - before;
            }
            out
        },
        |shape: &TorusShape, outs: Vec<CgSegmentOut>| {
            let now = Instant::now();
            if let Some(&start) = segment_starts.lock().expect("no panics hold it").last() {
                spans
                    .borrow_mut()
                    .push(("sharded.segment", Layer::Sharded, start, now));
            }
            let ckpt = assemble_checkpoint(shape, spec.lattice(), &outs, &history);
            history = ckpt.residuals.clone();
            let bytes = write_checkpoint(&ckpt);
            let s = Instant::now();
            let saved = store.save(&mut nfs, &bytes);
            let r = Instant::now();
            let restored = store.restore_cg(&mut nfs);
            let e = Instant::now();
            spans
                .borrow_mut()
                .push(("ckstore.save", Layer::Ckstore, s, r));
            spans
                .borrow_mut()
                .push(("ckstore.restore", Layer::Ckstore, r, e));
            save_bytes.push(bytes.len() as f64);
            let restored = match (saved, restored) {
                (Ok(_), Ok((back, _))) if back.digest() == ckpt.digest() => back,
                _ => {
                    digest_mismatches += 1;
                    ckpt.clone()
                }
            };
            if ckpt.converged || ckpt.iterations >= MAX_ITERATIONS {
                SegmentVerdict::Done(restored)
            } else {
                SegmentVerdict::Continue(Some(restored))
            }
        },
        |ledger: &HealthLedger| {
            let now = Instant::now();
            if let Some(&start) = segment_starts.lock().expect("no panics hold it").last() {
                spans
                    .borrow_mut()
                    .push(("recovery.faulted_segment", Layer::Recovery, start, now));
            }
            resends += ledger.total_resends();
            for n in ledger.culprit_nodes() {
                convicted.push(planner.partition().physical_id(NodeId(n)).0);
            }
            let r = Instant::now();
            let replacement = planner.quarantine_and_replan(&mut qdaemon, ledger);
            let e = Instant::now();
            spans
                .borrow_mut()
                .push(("recovery.replan", Layer::Recovery, r, e));
            replacement.map(|(part, faults, degraded)| Replacement {
                shape: part.logical_shape().clone(),
                faults,
                degraded,
            })
        },
    );
    let seconds = secs(t);
    Recovered {
        result: result.map_err(|e| e.to_string()),
        convicted,
        digest_mismatches,
        seconds,
        save_bytes,
        resends,
        node0_iterations: node0_iterations.into_inner().expect("no panics hold it"),
        spans: spans.into_inner(),
    }
}

/// Check a recovered solve: one recovery that convicts the planted node,
/// a converged result bit-identical to the fault-free reference, and
/// every saved generation restored intact.
fn check_recovery(planted: &Planted, out: &Recovered, reference: &CgCheckpoint) -> Vec<String> {
    let mut problems = Vec::new();
    let (ckpt, report) = match &out.result {
        Ok(r) => r,
        Err(e) => return vec![format!("recovery failed: {e}")],
    };
    if report.recoveries != 1 {
        problems.push(format!(
            "{} recoveries, expected exactly one",
            report.recoveries
        ));
    }
    if out.convicted != [planted.node] {
        problems.push(format!(
            "convicted {:?}, planted a dead link on node {}",
            out.convicted, planted.node
        ));
    }
    if !ckpt.converged {
        problems.push("recovered solve did not converge".into());
    }
    let bits = |c: &CgCheckpoint| c.residuals.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    if ckpt.x != reference.x || bits(ckpt) != bits(reference) || ckpt.digest() != reference.digest()
    {
        problems.push("recovered solution differs from the fault-free solve".into());
    }
    if out.digest_mismatches != 0 {
        problems.push(format!(
            "{} generations did not restore intact",
            out.digest_mismatches
        ));
    }
    problems
}

/// The untraced section: whole recovered solves, each on a freshly
/// booted box, for `seconds`.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, run: &mut Run) {
    let (_, setup_s) = repeated_setup(|| {
        let p = prepare(spec, seed);
        let shape = p.planner.partition().logical_shape().clone();
        extract_blocks(&spec.machine(shape), &p.gauge, &p.b);
        p
    });
    let planted = plant(spec, seed);
    let mut solves = Vec::new();
    let mut applications = 0;
    let mut outcomes = Vec::new();
    let t = Instant::now();
    while solves.is_empty() || secs(t) < seconds {
        let p = prepare(spec, seed);
        let out = recover(spec, p);
        solves.push(out.seconds);
        if let Ok((ckpt, _)) = &out.result {
            applications = ckpt.applications;
        }
        outcomes.push(out);
    }
    let global = spec.lattice();
    let (gauge, b) = (
        GaugeField::hot(global, derive(seed, Stream::Gauge)),
        FermionField::gaussian(global, derive(seed, Stream::Source)),
    );
    let reference = reference(spec, &gauge, &b);
    for out in &outcomes {
        run.op(check_recovery(&planted, out, &reference));
    }
    let solve_s = median(&solves);
    run.set("setup_s", setup_s, "s");
    run.set("solve_s", solve_s, "s");
    run.set(
        "site_updates_per_s",
        (global.volume() * applications) as f64 / solve_s,
        "1/s",
    );
    run.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The traced pass: one recovered solve with the planner, watchdog and
/// store calls timed directly. `main` adds tracing overhead and
/// coverage against one untraced solve.
pub fn layers(spec: &Spec, seed: u64, main: bool, run: &mut Run, log: &mut SpanLog) {
    let pass = log.open(
        if main {
            "recovery.traced_pass"
        } else {
            "recovery.probe_pass"
        },
        Layer::Bench,
        None,
    );
    let planted = plant(spec, seed);
    let p = prepare(spec, seed);
    let reference = reference(spec, &p.gauge, &p.b);
    let untraced = main.then(|| {
        let out = recover(spec, prepare(spec, seed));
        run.op(check_recovery(&planted, &out, &reference));
        out.seconds
    });
    let t = Instant::now();
    let out = recover(spec, p);
    let solve = log.record(
        "recovery.run_with_recovery",
        Layer::Bench,
        t,
        Instant::now(),
        Some(pass),
    );
    run.op(check_recovery(&planted, &out, &reference));
    let mut covered = 0.0;
    for &(name, layer, start, end) in &out.spans {
        covered += end.duration_since(start).as_secs_f64();
        log.record(name, layer, start, end, Some(solve));
    }
    let final_iterations = out.result.as_ref().map_or(0, |(c, _)| c.iterations);
    run.set(
        "recovery.wedge_s",
        out.median_of("recovery.faulted_segment"),
        "s",
    );
    run.set("recovery.replan_s", out.median_of("recovery.replan"), "s");
    run.set(
        "recovery.replayed_iterations",
        out.node0_iterations.saturating_sub(final_iterations) as f64,
        "count",
    );
    run.set("ckstore.save_s", out.median_of("ckstore.save"), "s");
    run.set("ckstore.restore_s", out.median_of("ckstore.restore"), "s");
    let bytes = match out.save_bytes.as_slice() {
        [] => f64::NAN,
        b => median(b),
    };
    run.set("ckstore.bytes_per_save", bytes, "bytes");
    run.set("scu.resends", out.resends as f64, "count");
    if let Some(untraced_s) = untraced {
        run.set("trace.overhead_ratio", out.seconds / untraced_s, "ratio");
        run.set("trace.coverage", covered / out.seconds, "ratio");
    }
    log.close(pass);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_faults_stay_inside_the_first_segment_and_the_half() {
        let spec = Spec::dead_link_recovery();
        let start = Partition::new(&TorusShape::new(&BOX), half_spec()).unwrap();
        let members: Vec<u32> = (0..16).map(|l| start.physical_id(NodeId(l)).0).collect();
        for seed in 0..64 {
            let f = plant(&spec, seed);
            assert!(members.contains(&f.node), "{f:?}");
            assert!(
                f.link < 8 && f.from_seq > 0 && f.from_seq < 17 * 8 * 12,
                "{f:?}"
            );
            assert_eq!(plant(&spec, seed), f);
        }
    }

    #[test]
    fn recovered_solve_passes_and_perturbed_outputs_fail() {
        let spec = Spec::probe();
        let p = prepare(&spec, 2);
        let planted = plant(&spec, 2);
        let reference = reference(&spec, &p.gauge, &p.b);
        let out = recover(&spec, p);
        assert_eq!(
            check_recovery(&planted, &out, &reference),
            Vec::<String>::new()
        );

        let mut other = reference.clone();
        other.x[11] ^= 1;
        assert!(!check_recovery(&planted, &out, &other).is_empty());

        let elsewhere = Planted {
            node: planted.node ^ 1,
            ..planted
        };
        assert!(!check_recovery(&elsewhere, &out, &reference).is_empty());

        let mut torn = recover(&spec, prepare(&spec, 2));
        torn.digest_mismatches = 1;
        assert!(!check_recovery(&planted, &torn, &reference).is_empty());
    }
}
