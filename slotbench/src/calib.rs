//! The frozen calibration loop that host-time metrics are divided by.
//!
//! Wall-clock time on a shared box swings by ±20–30 % between runs. A
//! fixed workload run right after each measured window swings with it, and
//! dividing by it cancels most of the machine's speed of the moment. The
//! loop is a miniature input-queued switch of its own — ring-buffer VOQs,
//! xorshift arrivals and a greedy rotating matching — because contention
//! from neighbouring processes slows branchy queue code more than it slows
//! a plain memory loop: over 60 s of `heavy_n32` windows on a 2-core
//! container, 1.2 s blocks of window ÷ chunk spread 0.06 (interquartile
//! range over median) with this loop, 0.11 with random updates over a
//! 256 KiB buffer, and 0.17 uncalibrated.
//!
//! Each workload sizes the miniature switch (`Spec::cal_ports`). A 128-port
//! workload's windows touch far more queue memory than a 32-port chunk, and
//! in the host's slow phases they slowed 1.9× while that chunk slowed
//! 1.5×; a 128-port chunk narrowed the gap between phases from about 20 %
//! to about 7 %.
//!
//! The loop must never change: it does not call the library, and editing
//! `PORT_SLOTS`, `CAP`, `LOAD_OF_256`, a workload's `cal_ports` or the
//! update rules re-bases every `*_cal_*` metric in the history file.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Duration;

/// Ports × slots per chunk: 2 400 slots of a 32-port switch, about 2.5 ms
/// of CPU time on a 2-core x86-64 container.
const PORT_SLOTS: u32 = 76_800;
const CAP: usize = 64;
/// Arrival probability per input and slot, in 256ths (0.9).
const LOAD_OF_256: u64 = 230;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread.
///
/// Host-time metrics of the single-session workloads are measured on this
/// clock rather than the wall clock. On a shared virtual machine the wall
/// clock also counts time the vCPU was stolen by the host or the thread
/// was preempted: that is the machine's time, not the program's, and it
/// arrives in bursts that dominate the upper percentiles.
pub fn thread_cpu() -> Duration {
    let mut tp = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on x86-64 and aarch64 Linux, matching `Timespec`) through a
    // pointer to a live local, and reads nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut tp) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is available on Linux");
    Duration::new(tp.tv_sec as u64, tp.tv_nsec as u32)
}

/// The fixed scale that turns a time in chunks into the seconds-like unit
/// of `setup_s`. Frozen with the loop; it is not a chunk's duration.
const NOMINAL_CHUNK_S: f64 = 1.6e-3;

/// Host time `t` measured just before a chunk that took `chunk`, in
/// chunks times `NOMINAL_CHUNK_S`.
pub fn nominal_seconds(t: Duration, chunk: Duration) -> f64 {
    t.as_secs_f64() / chunk.as_secs_f64() * NOMINAL_CHUNK_S
}

/// The miniature switch; chunks continue one deterministic stream.
pub struct Calibrator {
    n: usize,
    words: usize,
    voqs: Vec<VecDeque<u32>>,
    /// Per input, `words` words of non-empty-VOQ bits.
    occupied: Vec<u64>,
    free: Vec<u64>,
    x: u64,
    slot: u32,
    delay_sum: u64,
}

impl Calibrator {
    /// A miniature switch with `ports` ports; a chunk steps
    /// `PORT_SLOTS / ports` slots, so its work is about the same at any size.
    pub fn new(ports: usize) -> Self {
        let words = ports.div_ceil(64);
        Calibrator {
            n: ports,
            words,
            voqs: (0..ports * ports)
                .map(|_| VecDeque::with_capacity(CAP))
                .collect(),
            occupied: vec![0; ports * words],
            free: vec![0; words],
            x: 0x9E37_79B9_7F4A_7C15,
            slot: 0,
            delay_sum: 0,
        }
    }

    /// Runs `k` chunks and returns the median duration: the denominator for
    /// a measurement that cannot alternate chunk by chunk with its work.
    pub fn median_of(&mut self, k: usize) -> Duration {
        let mut d: Vec<Duration> = (0..k).map(|_| self.chunk()).collect();
        d.sort();
        d[k / 2]
    }

    /// Runs one chunk and returns the thread CPU time it took.
    pub fn chunk(&mut self) -> Duration {
        let (n, words) = (self.n, self.words);
        let start = thread_cpu();
        for _ in 0..PORT_SLOTS / n as u32 {
            let slot = self.slot;
            self.slot = self.slot.wrapping_add(1);
            for i in 0..n {
                let mut x = self.x;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.x = x;
                if x & 0xff < LOAD_OF_256 {
                    let j = (x >> 8) as usize % n;
                    let q = &mut self.voqs[i * n + j];
                    if q.len() < CAP {
                        q.push_back(slot);
                        self.occupied[i * words + j / 64] |= 1 << (j % 64);
                    }
                }
            }
            for (w, f) in self.free.iter_mut().enumerate() {
                *f = u64::MAX >> (64 - (n - 64 * w).min(64));
            }
            let rot = slot as usize % n;
            for k in 0..n {
                let i = (k + rot) % n;
                let row = &self.occupied[i * words..(i + 1) * words];
                let Some(j) = first_from(row, &self.free, rot) else {
                    continue;
                };
                let q = &mut self.voqs[i * n + j];
                let arrived = q.pop_front().expect("occupied bit set");
                if q.is_empty() {
                    self.occupied[i * words + j / 64] &= !(1 << (j % 64));
                }
                self.free[j / 64] &= !(1 << (j % 64));
                self.delay_sum += u64::from(slot.wrapping_sub(arrived));
            }
        }
        black_box(self.delay_sum);
        thread_cpu() - start
    }
}

/// The first output at or after `rot`, cyclically, that is set in both
/// `row` and `free`.
fn first_from(row: &[u64], free: &[u64], rot: usize) -> Option<usize> {
    let words = row.len();
    (0..=words).find_map(|step| {
        let w = (rot / 64 + step) % words;
        let mut c = row[w] & free[w];
        if step == 0 {
            c &= u64::MAX << (rot % 64);
        } else if step == words {
            c &= (1u64 << (rot % 64)) - 1;
        }
        (c != 0).then(|| w * 64 + c.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_from_scans_cyclically_across_words() {
        let row = [1 << 3, 1 << (70 - 64)];
        let free = [u64::MAX, u64::MAX];
        assert_eq!(first_from(&row, &free, 0), Some(3));
        assert_eq!(first_from(&row, &free, 5), Some(70));
        assert_eq!(first_from(&row, &free, 71), Some(3));
        assert_eq!(first_from(&row, &[u64::MAX, 0], 5), Some(3));
        assert_eq!(first_from(&[1 << 3], &[u64::MAX], 10), Some(3));
        assert_eq!(first_from(&[0], &[u64::MAX], 10), None);
    }
}
