//! Measurement plumbing shared by every workload: seeded input streams,
//! the poll-counting future, host-time spans and their Chrome-trace
//! export, and the process's peak resident set.

use qcdoc_telemetry::{export::chrome_trace, Phase, Span};
use std::future::Future;
use std::time::Instant;

/// Independent input streams derived from the one `--seed` argument.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Gauge = 1,
    Source = 2,
    Fault = 3,
}

/// SplitMix64 of `seed` mixed with a stream tag: the gauge, source and
/// fault-plan seeds of a run, each a pure function of `--seed`.
pub fn derive(seed: u64, stream: Stream) -> u64 {
    let mut z = seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Await `fut`, counting how many times the executor polled it. On the
/// sharded engine every poll is one visit of the worker's sweep to this
/// node while it waits inside the call.
pub async fn counted<F: Future>(fut: F) -> (F::Output, u64) {
    let mut fut = std::pin::pin!(fut);
    let mut polls = 0u64;
    let out = std::future::poll_fn(|cx| {
        polls += 1;
        fut.as_mut().poll(cx)
    })
    .await;
    (out, polls)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Setups per run: at least this many, and more until
/// [`SETUP_MIN_S`] has passed, so that a set-up of a millisecond is
/// sampled as steadily as one of half a second.
pub const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.5;

/// Run `setup` repeatedly (see [`SETUP_REPS`]); returns the last result
/// and the median host seconds of one call.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    let mut last = None;
    while samples.len() < SETUP_REPS || secs(t0) < SETUP_MIN_S {
        let t = Instant::now();
        let value = setup();
        samples.push(secs(t));
        last = Some(value);
    }
    (last.expect("at least one setup"), median(&samples))
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The layer a host-time span belongs to; each is one track of the
/// written trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Qdaemon,
    Sharded,
    Distributed,
    Comm,
    Scu,
    Lattice,
    Recovery,
    Ckstore,
}

impl Layer {
    const ALL: [Layer; 9] = [
        Layer::Bench,
        Layer::Qdaemon,
        Layer::Sharded,
        Layer::Distributed,
        Layer::Comm,
        Layer::Scu,
        Layer::Lattice,
        Layer::Recovery,
        Layer::Ckstore,
    ];

    fn track(self) -> u32 {
        self as u32
    }

    fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Qdaemon => "host::qdaemon",
            Layer::Sharded => "core::sharded",
            Layer::Distributed => "core::distributed",
            Layer::Comm => "core::comm",
            Layer::Scu => "scu",
            Layer::Lattice => "lattice",
            Layer::Recovery => "core::recovery",
            Layer::Ckstore => "host::ckstore",
        }
    }

    fn phase(self) -> Phase {
        match self {
            Layer::Lattice => Phase::Compute,
            Layer::Scu => Phase::Comms,
            Layer::Comm => Phase::GlobalSum,
            Layer::Qdaemon | Layer::Recovery | Layer::Ckstore => Phase::Host,
            Layer::Bench | Layer::Sharded | Layer::Distributed => Phase::Other,
        }
    }
}

/// One host-time span: what ran, on which layer, when, and inside which
/// enclosing span.
#[derive(Debug, Clone)]
struct HostSpan {
    name: &'static str,
    layer: Layer,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// In-memory span log of a traced run, written out once at the end.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<HostSpan>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(HostSpan {
            name,
            layer,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, layer: Layer, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, layer, now, now, parent)
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = Instant::now();
    }

    fn depth(&self, mut idx: usize) -> u32 {
        let mut depth = 0;
        while let Some(p) = self.spans[idx].parent {
            depth += 1;
            idx = p;
        }
        depth
    }

    /// The spans as a Chrome trace, through the telemetry crate's
    /// exporter: one process track per layer (named by metadata
    /// events), timestamps in host nanoseconds since the log opened,
    /// `args.depth` the nesting depth and `args.arg` the parent's index
    /// plus one (0 for a root span).
    pub fn chrome_trace(&self) -> String {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let spans: Vec<Span> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| Span {
                name: s.name,
                node: s.layer.track(),
                phase: s.layer.phase(),
                begin: ns(s.start),
                end: ns(s.end),
                depth: self.depth(i),
                arg: s.parent.map_or(0, |p| p as u64 + 1),
            })
            .collect();
        let trace = chrome_trace(&spans);
        let names: Vec<String> = Layer::ALL
            .iter()
            .map(|l| {
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                    l.track(),
                    l.name()
                )
            })
            .collect();
        let body = trace
            .trim_end()
            .strip_suffix("]}")
            .expect("exporter closes its event list");
        let sep = if spans.is_empty() { "" } else { "," };
        format!("{body}{sep}{}]}}\n", names.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcdoc_core::comm::{barrier_async, global_sum_f64_async};
    use qcdoc_core::sharded::ShardedMachine;
    use qcdoc_geometry::TorusShape;

    fn ring_polls() -> Vec<(u64, u64)> {
        ShardedMachine::new(TorusShape::new(&[4]))
            .with_workers(1)
            .run(async |ctx| {
                let (_, gsum) = counted(global_sum_f64_async(ctx, ctx.id.0 as f64)).await;
                let (_, sync) = counted(barrier_async(ctx)).await;
                (gsum, sync)
            })
    }

    #[test]
    fn poll_counts_are_exact_and_repeatable_on_one_worker() {
        let first = ring_polls();
        assert_eq!(first.len(), 4);
        // A 4-node ring sum is three shifts, so every node waits at least
        // once per shift and the call takes more than one poll.
        assert!(first.iter().all(|&(g, b)| g > 3 && b > 3), "{first:?}");
        for _ in 0..3 {
            assert_eq!(ring_polls(), first, "one worker sweeps in a fixed order");
        }
    }

    #[test]
    fn counted_reports_one_poll_for_a_ready_future() {
        let (v, polls) = ShardedMachine::new(TorusShape::new(&[1]))
            .with_workers(1)
            .run(async |_| counted(async { 7 }).await)[0];
        assert_eq!((v, polls), (7, 1));
    }

    #[test]
    fn derived_streams_differ_and_repeat() {
        assert_eq!(derive(5, Stream::Gauge), derive(5, Stream::Gauge));
        assert_ne!(derive(5, Stream::Gauge), derive(5, Stream::Source));
        assert_ne!(derive(5, Stream::Gauge), derive(6, Stream::Gauge));
    }

    #[test]
    fn chrome_trace_names_every_layer_track() {
        let mut log = SpanLog::new();
        let root = log.open("bench.pass", Layer::Bench, None);
        let t = Instant::now();
        log.record("scu.loopback", Layer::Scu, t, t, Some(root));
        log.close(root);
        let trace = log.chrome_trace();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(trace.ends_with("]}\n"));
        assert!(trace.contains("\"name\":\"scu.loopback\""));
        assert!(trace.contains("\"args\":{\"depth\":1,\"arg\":1}"));
        assert_eq!(trace.matches("process_name").count(), Layer::ALL.len());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
