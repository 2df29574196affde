//! A fixed calibration kernel, independent of the program's code, that
//! measures how fast the host runs right now.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::{median, Rng};

/// References in the kernel's trace: 1 MB of addresses.
const TRACE_LEN: usize = 1 << 18;
/// Sets of the kernel's direct-mapped cache (16 B lines, 128 KB).
const SETS: usize = 1 << 13;

/// Kernel seconds on the reference host: the kernel's typical time on
/// this benchmark's own host (2-vCPU Xeon VM) when it runs undisturbed.
pub const REFERENCE_S: f64 = 0.001;

/// The kernel's address trace, made once: runs of sequential words
/// broken by seeded jumps over a 1 MB space, like a program's data
/// references.
fn trace() -> &'static [u32] {
    static TRACE: OnceLock<Vec<u32>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mut rng = Rng::new(0x6361_6c69_6272_6174);
        let mut addr = 0u32;
        (0..TRACE_LEN)
            .map(|_| {
                addr = if rng.below(8) == 0 {
                    rng.next_u64() as u32 & 0xf_fffc
                } else {
                    (addr + 4) & 0xf_fffc
                };
                addr
            })
            .collect()
    })
}

/// Seconds of one kernel run: the trace replayed through a
/// direct-mapped write-back tag store, the same kind of work as a cache
/// simulation, in the benchmark's own code.
pub fn kernel() -> f64 {
    let trace = trace();
    let mut tags = vec![u32::MAX; SETS];
    let mut dirty = vec![false; SETS];
    let mut traffic = 0u64;
    let start = Instant::now();
    for (i, &addr) in trace.iter().enumerate() {
        let line = addr >> 4;
        let set = line as usize & (SETS - 1);
        let tag = line >> 13;
        if tags[set] != tag {
            traffic += 1 + u64::from(dirty[set]);
            tags[set] = tag;
            dirty[set] = false;
        }
        dirty[set] |= i % 4 == 0;
    }
    black_box(traffic);
    start.elapsed().as_secs_f64()
}

/// Kernel times sampled through one unit of work.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    pub fn sample(&mut self) {
        self.samples.push(kernel());
    }

    /// Reference-host seconds per host second over the unit: the
    /// reference kernel time over the median sampled one.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / median(&self.samples)
    }
}
