//! The SCU word protocol on its own: two `Scu` units wired back to back
//! through `tx_next`/`rx`, with no engine, channel or node memory
//! traffic beyond the DMA reads and writes.

use crate::probe::{median, Layer, SpanLog};
use crate::report::Run;
use qcdoc_asic::memory::NodeMemory;
use qcdoc_scu::dma::DmaDescriptor;
use qcdoc_scu::Scu;
use std::time::Instant;

/// Words per transfer and transfers per measurement.
const WORDS: u32 = 16_384;
const TRANSFERS: usize = 9;
const SRC: u64 = 0x1000;
const DST: u64 = 0x4_0000;

fn trained() -> (Scu, NodeMemory) {
    let mut scu = Scu::new();
    scu.train_all();
    (scu, NodeMemory::with_128mb_dimm())
}

/// Move one DMA block from `a` (link 0) to `b` (link 1), pumping both
/// directions until the transfer retires. Returns the host seconds.
fn transfer(a: &mut (Scu, NodeMemory), b: &mut (Scu, NodeMemory)) -> f64 {
    let t = Instant::now();
    b.0.start_recv(1, DmaDescriptor::contiguous(DST, WORDS), &mut b.1)
        .expect("receive buffer lies in memory");
    a.0.start_send(0, DmaDescriptor::contiguous(SRC, WORDS));
    while !(a.0.send_complete(0) && b.0.recv_complete(1)) {
        if let Some(msg) = a.0.tx_next(0, &mut a.1).expect("send DMA reads memory") {
            b.0.rx(1, msg, &mut b.1).expect("clean wire");
        }
        while let Some(msg) = b.0.tx_next(1, &mut b.1).expect("acks need no memory") {
            a.0.rx(0, msg, &mut a.1).expect("clean wire");
        }
    }
    t.elapsed().as_secs_f64()
}

/// `scu.loopback_ns_per_word`: median over several block transfers.
pub fn layers(run: &mut Run, log: &mut SpanLog) {
    let mut a = trained();
    let mut b = trained();
    let words: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    a.1.write_block(SRC, &words)
        .expect("source buffer lies in memory");
    let t = Instant::now();
    let samples: Vec<f64> = (0..TRANSFERS).map(|_| transfer(&mut a, &mut b)).collect();
    log.record("scu.loopback", Layer::Scu, t, Instant::now(), None);
    let landed =
        b.1.read_block(DST, WORDS as usize)
            .expect("destination lies in memory");
    run.op(if landed == words {
        Vec::new()
    } else {
        vec!["loopback transfer corrupted the block".into()]
    });
    run.set(
        "scu.loopback_ns_per_word",
        median(&samples) * 1e9 / WORDS as f64,
        "ns",
    );
}
