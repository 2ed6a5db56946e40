//! Wrapped wavefront arbiter (Tamir & Chi).
//!
//! A matching is computed by sweeping `n` *wrapped diagonals* across the
//! request matrix. The cells of one wrapped diagonal touch `n` distinct rows
//! and `n` distinct columns, so all of them can arbitrate simultaneously in
//! hardware — the algorithm maps onto a regular array of crosspoint cells,
//! which is why the paper cites it as the low-cost distributed baseline.

use crate::bitkern::{self, Backend};
use crate::matching::Matching;
use crate::request::RequestMatrix;
use crate::traits::Scheduler;

/// The wrapped wavefront arbiter (`wfront` in the paper's Fig. 12).
///
/// For each wave `k = 0..n`, every cell `(i, j)` with
/// `(i + j) mod n == (k + offset) mod n` is examined; a requesting cell whose
/// row and column are both still free is matched. The starting diagonal
/// `offset` rotates every scheduling cycle, so each diagonal is the first to
/// arbitrate once every `n` cycles — this built-in round-robin is what keeps
/// the wavefront arbiter starvation-free.
#[derive(Clone, Debug)]
pub struct Wavefront {
    n: usize,
    offset: usize,
    backend: Backend,
    // Word-parallel scratch (bitset backend): diag[d*w..(d+1)*w] holds the
    // requesting rows of wrapped diagonal d as a words_for(n)-word mask.
    diag: Vec<u64>,
    free_in: Vec<u64>,
    free_out: Vec<u64>,
}

impl Wavefront {
    /// Creates a wavefront arbiter for an `n`-port switch.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "scheduler requires n > 0");
        let w = bitkern::words_for(n);
        Wavefront {
            n,
            offset: 0,
            backend: Backend::default(),
            diag: vec![0; n * w],
            free_in: vec![0; w],
            free_out: vec![0; w],
        }
    }

    /// Selects the matching-kernel implementation (builder style). Both
    /// backends produce bit-identical matchings; see [`Backend`].
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The configured kernel backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The diagonal that arbitrates first in the next cycle.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl Scheduler for Wavefront {
    fn name(&self) -> &'static str {
        "wfront"
    }

    fn num_ports(&self) -> usize {
        self.n
    }

    fn schedule_into(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        assert_eq!(requests.n(), self.n, "request matrix size mismatch");
        if self.backend.word_parallel() {
            self.schedule_bitset(requests, out);
        } else {
            self.schedule_scalar(requests, out);
        }
        self.offset = (self.offset + 1) % self.n;
    }

    fn reset(&mut self) {
        self.offset = 0;
    }
}

impl Wavefront {
    /// The scalar reference kernel: one probe per matrix cell.
    fn schedule_scalar(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        let n = self.n;
        out.reset(n);
        let matching = out;

        for wave in 0..n {
            let d = (wave + self.offset) % n;
            // Cells of wrapped diagonal d: (i, (d - i) mod n) for all i.
            for i in 0..n {
                let j = (d + n - i) % n;
                debug_assert_eq!((i + j) % n, d);
                if requests.get(i, j) && !matching.input_matched(i) && !matching.output_matched(j) {
                    matching.connect(i, j);
                }
            }
        }
    }

    /// The word-parallel kernel: requests are bucketed into per-diagonal
    /// multi-word row masks in `O(set bits)`, then each wave is a word-wise
    /// `AND` with the free-inputs mask plus a set-bit walk. The cells of
    /// one wrapped diagonal touch distinct rows and columns, so the walk
    /// order within a wave cannot change the outcome (each row and column
    /// appears at most once per wave, so clearing `free_in`/`free_out`
    /// mid-wave never invalidates the word snapshot); matchings are
    /// bit-identical to [`Wavefront::schedule_scalar`].
    fn schedule_bitset(&mut self, requests: &RequestMatrix, out: &mut Matching) {
        let n = self.n;
        let w = bitkern::words_for(n);
        out.reset(n);
        let matching = out;

        self.diag.fill(0);
        for i in 0..n {
            for (wi, &word) in requests.row_words(i).iter().enumerate() {
                let mut row = word;
                while row != 0 {
                    let j = wi * bitkern::WORD_BITS + row.trailing_zeros() as usize;
                    row &= row - 1;
                    let d = (i + j) % n;
                    bitkern::set_bit(&mut self.diag[d * w..(d + 1) * w], i);
                }
            }
        }

        bitkern::mask_fill(&mut self.free_in, n);
        bitkern::mask_fill(&mut self.free_out, n);
        for wave in 0..n {
            let d = (wave + self.offset) % n;
            for wi in 0..w {
                let mut cand = self.diag[d * w + wi] & self.free_in[wi];
                while cand != 0 {
                    let i = wi * bitkern::WORD_BITS + cand.trailing_zeros() as usize;
                    cand &= cand - 1;
                    let j = (d + n - i) % n;
                    if bitkern::test_bit(&self.free_out, j) {
                        matching.connect(i, j);
                        bitkern::clear_bit(&mut self.free_in, i);
                        bitkern::clear_bit(&mut self.free_out, j);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_requests() {
        let mut s = Wavefront::new(4);
        assert_eq!(s.schedule(&RequestMatrix::new(4)).size(), 0);
    }

    #[test]
    fn full_requests_give_perfect_matching() {
        let mut s = Wavefront::new(8);
        for _ in 0..16 {
            assert_eq!(s.schedule(&RequestMatrix::full(8)).size(), 8);
        }
    }

    #[test]
    fn first_diagonal_wins_whole_wave() {
        // All requests on diagonal 0 ((i + j) % 4 == 0): the very first wave
        // matches all of them.
        let requests = RequestMatrix::from_fn(4, |i, j| (i + j) % 4 == 0);
        let mut s = Wavefront::new(4);
        let m = s.schedule(&requests);
        assert_eq!(m.size(), 4);
    }

    #[test]
    fn offset_rotates_each_cycle() {
        let mut s = Wavefront::new(4);
        assert_eq!(s.offset(), 0);
        s.schedule(&RequestMatrix::new(4));
        assert_eq!(s.offset(), 1);
        for _ in 0..3 {
            s.schedule(&RequestMatrix::new(4));
        }
        assert_eq!(s.offset(), 0);
    }

    #[test]
    fn rotation_provides_fairness_on_contended_output() {
        // Inputs 0 and 1 both persistently request output 0. Cell (0,0) is on
        // diagonal 0, cell (1,0) on diagonal 1. As the starting diagonal
        // rotates, each input wins half the slots.
        let requests = RequestMatrix::from_pairs(4, [(0, 0), (1, 0)]);
        let mut s = Wavefront::new(4);
        let mut wins = [0usize; 2];
        for _ in 0..40 {
            let m = s.schedule(&requests);
            wins[m.input_for(0).unwrap()] += 1;
        }
        // Diagonal 0 leads in 1 of 4 offsets; diagonal 1 in... offsets are
        // uniform over 4 positions, and whichever of the two diagonals comes
        // first in the wrapped order wins. Over a full rotation each cell
        // leads at least once.
        assert!(wins[0] > 0 && wins[1] > 0, "wins: {wins:?}");
        assert_eq!(wins[0] + wins[1], 40);
    }

    #[test]
    fn matchings_always_valid_and_maximal() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = Wavefront::new(16);
        for _ in 0..200 {
            let requests = RequestMatrix::random(16, 0.3, &mut rng);
            let m = s.schedule(&requests);
            assert!(m.is_valid_for(&requests));
            assert!(
                m.is_maximal_for(&requests),
                "a full wavefront sweep visits every cell, so the matching is maximal"
            );
        }
    }

    #[test]
    fn reset_restores_offset() {
        let mut s = Wavefront::new(4);
        s.schedule(&RequestMatrix::new(4));
        s.reset();
        assert_eq!(s.offset(), 0);
    }
}
