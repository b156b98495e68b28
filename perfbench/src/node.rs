//! The `node_solve` workload: one node, no engine and no SCU. The
//! double-precision CGNE and the mixed-precision (f32 inner) solver run
//! on a hot-gauge Wilson problem, so only Dirac-kernel arithmetic and
//! vector algebra take host time.

use crate::engine::KAPPA;
use crate::probe::{derive, median, peak_rss_mb, repeated_setup, secs, Layer, SpanLog, Stream};
use crate::report::Run;
use qcdoc_lattice::aosoa::{dslash_aosoa, FermionBlocks, GaugeBlocks};
use qcdoc_lattice::complex::C64;
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice, NeighbourTable};
use qcdoc_lattice::real::Real;
use qcdoc_lattice::solver::{solve_cgne, solve_cgne_mixed, CgParams, DiracOperator, MixedCgParams};
use qcdoc_lattice::wilson::WilsonDirac;
use std::cell::RefCell;
use std::time::Instant;

/// Target of both solves: the true relative residual
/// ‖M†(b − Mx)‖ / ‖M†b‖.
const TOLERANCE: f64 = 1e-8;
const MAX_ITERATIONS: usize = 2_000;
/// Minimum host time spent on each kernel probe.
const KERNEL_PROBE_S: f64 = 0.2;

/// The node-solve lattice, 8⁴: its fields (~3 MB) stay close to one
/// core, so a solve does not swing with other tenants' memory traffic the
/// way a 16⁴ one (~50 MB of fields, in the shared L3) does.
const LATTICE: [usize; 4] = [8; 4];

/// Seeded fields and the f32 copy of the gauge field.
struct Prepared {
    gauge: GaugeField,
    gauge32: GaugeField<f32>,
    b: FermionField,
}

fn prepare(lat: Lattice, seed: u64) -> Prepared {
    let gauge = GaugeField::hot(lat, derive(seed, Stream::Gauge));
    let gauge32 = gauge.to_f32();
    let b = FermionField::gaussian(lat, derive(seed, Stream::Source));
    Prepared { gauge, gauge32, b }
}

fn cg_params() -> CgParams {
    CgParams {
        tolerance: TOLERANCE,
        max_iterations: MAX_ITERATIONS,
    }
}

fn mixed_params() -> MixedCgParams {
    MixedCgParams {
        tolerance: TOLERANCE,
        ..MixedCgParams::default()
    }
}

/// ‖M†(b − Mx)‖ / ‖M†b‖, recomputed with the operator.
fn true_residual(op: &WilsonDirac<'_, f64>, x: &FermionField, b: &FermionField) -> f64 {
    let mut mx = b.clone();
    op.apply(&mut mx, x);
    let mut d = b.clone();
    d.axpy(C64::real(-1.0), &mx);
    let mut num = b.clone();
    op.apply_dagger(&mut num, &d);
    let mut den = b.clone();
    op.apply_dagger(&mut den, b);
    (num.norm_sqr() / den.norm_sqr()).sqrt()
}

/// Check a solution against the tolerance with the operator itself.
fn check_solution(
    what: &str,
    op: &WilsonDirac<'_, f64>,
    x: &FermionField,
    b: &FermionField,
    converged: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    if !converged {
        problems.push(format!("{what}: solver reports no convergence"));
    }
    let r = true_residual(op, x, b);
    // Written so that a NaN residual fails too.
    let met = r <= TOLERANCE;
    if !met {
        problems.push(format!("{what}: true residual {r:e} above {TOLERANCE:e}"));
    }
    problems
}

/// One solve's result and the operator applications it needed.
struct Solved {
    x: FermionField,
    converged: bool,
    applications: usize,
    seconds: f64,
    iterations: usize,
}

fn solve_double<Op: DiracOperator<Field = FermionField>>(op: &Op, b: &FermionField) -> Solved {
    let mut x = FermionField::zero(b.lattice());
    let t = Instant::now();
    let report = solve_cgne(op, &mut x, b, cg_params());
    let seconds = secs(t);
    Solved {
        x,
        converged: report.converged,
        applications: report.operator_applications,
        seconds,
        iterations: report.iterations,
    }
}

fn solve_mixed<Hi, Lo>(op: &Hi, op32: &Lo, b: &FermionField) -> Solved
where
    Hi: DiracOperator<Field = FermionField>,
    Lo: DiracOperator<Field = FermionField<f32>>,
{
    let mut x = FermionField::zero(b.lattice());
    let t = Instant::now();
    let report = solve_cgne_mixed(op, op32, &mut x, b, mixed_params());
    let seconds = secs(t);
    Solved {
        x,
        converged: report.converged,
        applications: report.high_precision_applications + report.low_precision_applications,
        seconds,
        iterations: report.total_inner_iterations,
    }
}

/// The untraced section: rounds of one double and one mixed solve.
pub fn end_to_end(seed: u64, seconds: f64, run: &mut Run) {
    let lat = Lattice::new(LATTICE);
    let (p, setup_s) = repeated_setup(|| prepare(lat, seed));
    let op = WilsonDirac::new(&p.gauge, KAPPA);
    let op32 = WilsonDirac::new(&p.gauge32, KAPPA);
    let t = Instant::now();
    let mut rounds = Vec::new();
    let mut applications = 0;
    while rounds.is_empty() || secs(t) < seconds {
        let double = solve_double(&op, &p.b);
        run.op(check_solution(
            "double solve",
            &op,
            &double.x,
            &p.b,
            double.converged,
        ));
        let mixed = solve_mixed(&op, &op32, &p.b);
        run.op(check_solution(
            "mixed solve",
            &op,
            &mixed.x,
            &p.b,
            mixed.converged,
        ));
        rounds.push(double.seconds + mixed.seconds);
        applications = double.applications + mixed.applications;
    }
    let solve_s = median(&rounds);
    run.set("setup_s", setup_s, "s");
    run.set("solve_s", solve_s, "s");
    run.set(
        "site_updates_per_s",
        (lat.volume() * applications) as f64 / solve_s,
        "1/s",
    );
    run.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// A Dirac operator whose every application is recorded as a span.
struct Traced<'a, Op> {
    inner: &'a Op,
    spans: &'a RefCell<Vec<(&'static str, Instant, Instant)>>,
}

impl<Op: DiracOperator> DiracOperator for Traced<'_, Op> {
    type Field = Op::Field;
    fn apply(&self, out: &mut Op::Field, inp: &Op::Field) {
        let t = Instant::now();
        self.inner.apply(out, inp);
        self.spans
            .borrow_mut()
            .push(("lattice.apply", t, Instant::now()));
    }
    fn apply_dagger(&self, out: &mut Op::Field, inp: &Op::Field) {
        let t = Instant::now();
        self.inner.apply_dagger(out, inp);
        self.spans
            .borrow_mut()
            .push(("lattice.apply_dagger", t, Instant::now()));
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Median host time of `f`, called until at least [`KERNEL_PROBE_S`]
/// has passed (and at least three times).
fn time_calls(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || secs(t) < KERNEL_PROBE_S {
        let s = Instant::now();
        f();
        samples.push(secs(s));
    }
    median(&samples)
}

/// Wilson hopping term per site in the AoS and AoSoA layouts at one
/// precision; the two results must agree bit for bit.
fn kernel_probe<T: Real>(gauge: &GaugeField<T>, b: &FermionField<T>, run: &mut Run) -> (f64, f64) {
    let lat = b.lattice();
    let op = WilsonDirac::new(gauge, KAPPA);
    let mut out = FermionField::<T>::zero(lat);
    let aos = time_calls(|| op.dslash(&mut out, std::hint::black_box(b)));
    let gb = GaugeBlocks::from_field(gauge);
    let fb = FermionBlocks::from_field(b);
    let hops = NeighbourTable::new(lat);
    let mut ob = FermionBlocks::<T>::zero(lat);
    let aosoa = time_calls(|| dslash_aosoa(&mut ob, &gb, std::hint::black_box(&fb), &hops));
    run.op(if ob.to_field() == out {
        Vec::new()
    } else {
        vec!["AoSoA hopping term differs from the AoS one".into()]
    });
    let per_site = |s: f64| s * 1e9 / lat.volume() as f64;
    (per_site(aos), per_site(aosoa))
}

/// The traced pass: kernel probes, then both solves with every operator
/// application recorded. `main` adds tracing overhead and coverage
/// against one untraced double solve.
pub fn layers(seed: u64, main: bool, run: &mut Run, log: &mut SpanLog) {
    let pass = log.open(
        if main {
            "node.traced_pass"
        } else {
            "node.probe_pass"
        },
        Layer::Bench,
        None,
    );
    let p = prepare(Lattice::new(LATTICE), seed);
    let op = WilsonDirac::new(&p.gauge, KAPPA);
    let op32 = WilsonDirac::new(&p.gauge32, KAPPA);

    let t = Instant::now();
    let (dslash, aosoa) = kernel_probe(&p.gauge, &p.b, run);
    let b32 = p.b.to_f32();
    let (dslash32, aosoa32) = kernel_probe(&p.gauge32, &b32, run);
    log.record(
        "lattice.kernel_probes",
        Layer::Lattice,
        t,
        Instant::now(),
        Some(pass),
    );

    let untraced = main.then(|| {
        let double = solve_double(&op, &p.b);
        run.op(check_solution(
            "untraced double solve",
            &op,
            &double.x,
            &p.b,
            double.converged,
        ));
        double.seconds
    });

    let spans = RefCell::new(Vec::new());
    let traced = Traced {
        inner: &op,
        spans: &spans,
    };
    let traced32 = Traced {
        inner: &op32,
        spans: &spans,
    };
    let t = Instant::now();
    let double = solve_double(&traced, &p.b);
    let double_span = log.record(
        "lattice.solve_cgne",
        Layer::Bench,
        t,
        Instant::now(),
        Some(pass),
    );
    run.op(check_solution(
        "traced double solve",
        &op,
        &double.x,
        &p.b,
        double.converged,
    ));
    let double_spans = std::mem::take(&mut *spans.borrow_mut());
    let t = Instant::now();
    let mixed = solve_mixed(&traced, &traced32, &p.b);
    let mixed_span = log.record(
        "lattice.solve_cgne_mixed",
        Layer::Bench,
        t,
        Instant::now(),
        Some(pass),
    );
    run.op(check_solution(
        "traced mixed solve",
        &op,
        &mixed.x,
        &p.b,
        mixed.converged,
    ));
    let mixed_spans = spans.take();

    let mut applied = 0.0;
    for (parent, list) in [(double_span, &double_spans), (mixed_span, &mixed_spans)] {
        for &(name, start, end) in list {
            applied += end.duration_since(start).as_secs_f64();
            log.record(name, Layer::Lattice, start, end, Some(parent));
        }
    }

    run.set("lattice.dslash_ns_per_site", dslash, "ns");
    run.set("lattice.dslash_f32_ns_per_site", dslash32, "ns");
    run.set("lattice.aosoa_ns_per_site", aosoa, "ns");
    run.set("lattice.aosoa_f32_ns_per_site", aosoa32, "ns");
    run.set("lattice.cg_iterations", double.iterations as f64, "count");
    run.set(
        "lattice.mixed_inner_iterations",
        mixed.iterations as f64,
        "count",
    );
    run.set(
        "lattice.mixed_speedup",
        double.seconds / mixed.seconds,
        "ratio",
    );
    if let Some(untraced_s) = untraced {
        run.set("trace.overhead_ratio", double.seconds / untraced_s, "ratio");
        run.set(
            "trace.coverage",
            applied / (double.seconds + mixed.seconds),
            "ratio",
        );
    }
    log.close(pass);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_solutions_pass_and_perturbed_ones_fail() {
        let lat = Lattice::new([4; 4]);
        let p = prepare(lat, 3);
        let op = WilsonDirac::new(&p.gauge, KAPPA);
        let op32 = WilsonDirac::new(&p.gauge32, KAPPA);
        let double = solve_double(&op, &p.b);
        assert_eq!(
            check_solution("double", &op, &double.x, &p.b, true),
            Vec::<String>::new()
        );
        let mixed = solve_mixed(&op, &op32, &p.b);
        assert_eq!(
            check_solution("mixed", &op, &mixed.x, &p.b, true),
            Vec::<String>::new()
        );

        // Nudge one component of the solution by far more than the
        // tolerance allows.
        let mut off = double.x.clone();
        let mut kick = FermionField::zero(lat);
        kick.site_mut(7).0[1].0[2].re = 1e-4;
        off.axpy(C64::real(1.0), &kick);
        assert!(!check_solution("double", &op, &off, &p.b, true).is_empty());
        assert!(!check_solution("double", &op, &double.x, &p.b, false).is_empty());
    }
}
