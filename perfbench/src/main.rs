//! Host-time benchmark of the QCDOC twin.
//!
//! ```text
//! qcdoc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! With `--trace 0` the run times its workload untraced for `--seconds`
//! and prints the end-to-end metrics; with `--trace 1` it runs the
//! traced pass and prints the per-layer metrics, writing the host-time
//! spans as a Chrome trace to `--trace-file`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` for the workloads and metrics.

mod engine;
mod node;
mod probe;
mod recovery;
mod report;
mod scu_loop;

use probe::SpanLog;
use report::Run;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FullMachine,
    HaloStream,
    NodeSolve,
    DeadLinkRecovery,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "full_machine" => Workload::FullMachine,
            "halo_stream" => Workload::HaloStream,
            "node_solve" => Workload::NodeSolve,
            "dead_link_recovery" => Workload::DeadLinkRecovery,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_file = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--trace-file" => trace_file = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_file,
    })
}

/// The traced pass. Every layer is measured on every workload so each
/// run reports the full per-layer set: the workload's own pass measures
/// the layers it stresses, and small probe problems measure the rest.
/// The workload's pass runs last, so where two passes report the same
/// metric the workload's value stands.
fn traced(w: Workload, seed: u64, run: &mut Run, log: &mut SpanLog) {
    scu_loop::layers(run, log);
    let engine_spec = match w {
        Workload::FullMachine => engine::Spec::full_machine(),
        Workload::HaloStream => engine::Spec::halo_stream(),
        _ => engine::Spec::probe(),
    };
    let is_engine = matches!(w, Workload::FullMachine | Workload::HaloStream);
    let recovery_spec = match w {
        Workload::DeadLinkRecovery => recovery::Spec::dead_link_recovery(),
        _ => recovery::Spec::probe(),
    };
    if !is_engine {
        engine::layers(&engine_spec, seed, false, run, log);
    }
    if w != Workload::NodeSolve {
        node::layers(seed, false, run, log);
    }
    if w != Workload::DeadLinkRecovery {
        recovery::layers(&recovery_spec, seed, false, run, log);
    }
    match w {
        Workload::FullMachine | Workload::HaloStream => {
            engine::layers(&engine_spec, seed, true, run, log)
        }
        Workload::NodeSolve => node::layers(seed, true, run, log),
        Workload::DeadLinkRecovery => recovery::layers(&recovery_spec, seed, true, run, log),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qcdoc-perfbench: {e}");
            eprintln!(
                "usage: qcdoc-perfbench --workload <full_machine|halo_stream|node_solve|\
                 dead_link_recovery> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]"
            );
            std::process::exit(2);
        }
    };
    let mut run = Run::default();
    if args.trace {
        let mut log = SpanLog::new();
        traced(args.workload, args.seed, &mut run, &mut log);
        if let Some(path) = &args.trace_file {
            if let Err(e) = std::fs::write(path, log.chrome_trace()) {
                eprintln!("qcdoc-perfbench: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let (seed, seconds) = (args.seed, args.seconds);
        match args.workload {
            Workload::FullMachine => {
                engine::end_to_end(&engine::Spec::full_machine(), seed, seconds, &mut run)
            }
            Workload::HaloStream => {
                engine::end_to_end(&engine::Spec::halo_stream(), seed, seconds, &mut run)
            }
            Workload::NodeSolve => node::end_to_end(seed, seconds, &mut run),
            Workload::DeadLinkRecovery => recovery::end_to_end(
                &recovery::Spec::dead_link_recovery(),
                seed,
                seconds,
                &mut run,
            ),
        }
    }
    run.print();
}
