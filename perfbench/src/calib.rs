//! Machine-speed calibration.
//!
//! The small VMs this benchmark runs on drift: the same single-threaded
//! loop can take 20–50 % longer for tens of seconds while neighbours are
//! busy, which is wider than any useful regression bound. So every timed
//! op is paired with a fixed reference kernel timed just before it (while
//! the workload is idle), and op times are reported scaled to the
//! kernel's nominal time: a drift slows kernel and op alike and cancels,
//! while a change to the program moves only the op. The kernel is the
//! benchmark's own code, so no change to the program under test can move
//! it. It mixes the two kinds of work the workloads do: compute on
//! cache-resident data (sorting a fixed pseudo-random array) and
//! cache-missing loads (a pointer chase through a table larger than L2),
//! since neighbours slow the two by different amounts. Raw times go into
//! the run record as well.

use std::hint::black_box;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Elements the kernel sorts (256 KiB of u32s).
const SORT_LEN: usize = 1 << 16;
/// Entries of the pointer-chase table (4 MiB of u32s, shared by every
/// calibrator in the process) and the steps one sample takes.
const CHASE_LEN: usize = 1 << 20;
const CHASE_STEPS: usize = 5_000;
/// Kernel samples a speed estimate rests on.
const WINDOW: usize = 5;
/// The kernel's time on the nominal machine; reported times are scaled
/// to it, so they read as milliseconds on a machine of that speed (close
/// to a 2-vCPU cloud VM in a quiet phase).
pub const NOMINAL_KERNEL_MS: f64 = 2.0;

#[derive(Debug)]
pub struct Calibrator {
    input: Vec<u32>,
    /// One sort buffer per kernel thread.
    scratch: Vec<Vec<u32>>,
    recent: Vec<f64>,
    samples: Vec<f64>,
}

/// A fixed xorshift stream.
fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// The chase table: `table[i]` is the entry after `i` on one cycle
/// through all entries in pseudo-random order (Sattolo's shuffle).
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let mut table: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            table.swap(i, (next() % i as u64) as usize);
        }
        table
    })
}

impl Calibrator {
    /// A calibrator whose kernel runs on `threads` threads at once — as
    /// many as the workload keeps busy, so a neighbour that takes one of
    /// them shows in the kernel as it does in the workload.
    pub fn new(threads: usize) -> Self {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        Calibrator {
            input: (0..SORT_LEN).map(|_| next() as u32).collect(),
            scratch: vec![vec![0; SORT_LEN]; threads.max(1)],
            recent: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Time the kernel once (the slowest of its threads) and fold it into
    /// the speed estimate.
    pub fn sample(&mut self) {
        let (input, chase) = (&self.input, chase_table());
        let threads = self.scratch.len();
        let barrier = Barrier::new(threads);
        let kernel = |t: usize, buf: &mut Vec<u32>| -> Duration {
            buf.copy_from_slice(input);
            barrier.wait();
            let start = Instant::now();
            buf.sort_unstable();
            black_box(&buf);
            let mut at = t * (CHASE_LEN / threads);
            for _ in 0..CHASE_STEPS {
                at = chase[at] as usize;
            }
            black_box(at);
            start.elapsed()
        };
        let (first, rest) = self.scratch.split_first_mut().expect("at least one buffer");
        let slowest = std::thread::scope(|scope| {
            let others: Vec<_> = rest
                .iter_mut()
                .enumerate()
                .map(|(i, b)| scope.spawn(move || kernel(i + 1, b)))
                .collect();
            let mine = kernel(0, first);
            others
                .into_iter()
                .map(|h| h.join().expect("kernel thread"))
                .fold(mine, Duration::max)
        });
        let ms = slowest.as_secs_f64() * 1e3;
        if self.recent.len() == WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(ms);
        self.samples.push(ms);
    }

    /// The factor that scales a time measured now to the nominal
    /// machine: nominal kernel time over the median of recent samples.
    pub fn scale(&self) -> f64 {
        if self.recent.is_empty() {
            return 1.0;
        }
        NOMINAL_KERNEL_MS / crate::stats::median(&self.recent)
    }

    /// Sample, then return the scale — what each op calls before it runs.
    pub fn next_scale(&mut self) -> f64 {
        self.sample();
        self.scale()
    }

    /// Every kernel time taken so far, in ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}
