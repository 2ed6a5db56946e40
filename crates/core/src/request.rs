//! The request matrix presented to a scheduler each time slot.

use crate::bitmat::BitMatrix;
use rand::Rng;

/// An `n × n` request matrix: `get(i, j)` is true iff input (requester) `i`
/// has at least one packet queued for output (resource) `j`.
///
/// This is the `R` array of the paper's Fig. 2 pseudocode. In the switch
/// model it mirrors VOQ occupancy: one bit per virtual output queue, set
/// when the queue turns non-empty and cleared when it drains.
///
/// Both orientations are stored: the row words and their transpose, one
/// packed mask per resource. Every mutator keeps the two exact, so the
/// word kernels read a resource's requesters in place with
/// [`RequestMatrix::col_words`] instead of transposing the matrix per call.
#[derive(Clone, PartialEq, Eq)]
pub struct RequestMatrix {
    bits: BitMatrix,
    // The transpose of `bits`: row `j` holds the requesters of resource `j`.
    cols: BitMatrix,
}

impl RequestMatrix {
    /// Creates an empty request matrix for an `n`-port switch.
    pub fn new(n: usize) -> Self {
        RequestMatrix {
            bits: BitMatrix::new(n),
            cols: BitMatrix::new(n),
        }
    }

    /// Builds a matrix from `(requester, resource)` pairs.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut m = RequestMatrix::new(n);
        for (i, j) in pairs {
            m.set(i, j, true);
        }
        m
    }

    /// Builds a matrix from a predicate over `(requester, resource)`.
    pub fn from_fn(n: usize, f: impl FnMut(usize, usize) -> bool) -> Self {
        RequestMatrix::from(BitMatrix::from_fn(n, f))
    }

    /// A matrix with every request set (worst-case scheduler input).
    pub fn full(n: usize) -> Self {
        RequestMatrix::from_fn(n, |_, _| true)
    }

    /// A random matrix where each request is set independently with
    /// probability `density`. Useful for benchmarks and property tests.
    pub fn random(n: usize, density: f64, rng: &mut impl Rng) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        RequestMatrix::from_fn(n, |_, _| rng.gen_bool(density))
    }

    /// Number of ports.
    #[inline]
    pub fn n(&self) -> usize {
        self.bits.n()
    }

    /// Whether requester `i` requests resource `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.bits.get(i, j)
    }

    /// Sets or clears request `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        self.bits.set(i, j, value);
        self.cols.set(j, i, value);
    }

    /// NRQ of the paper: the number of resources requester `i` requests.
    #[inline]
    pub fn nrq(&self, i: usize) -> usize {
        self.bits.row_count(i)
    }

    /// The number of requesters requesting resource `j` (the distributed
    /// scheduler's NGT before any matches are removed).
    #[inline]
    pub fn ngt(&self, j: usize) -> usize {
        self.cols.row_count(j)
    }

    /// Total number of requests.
    pub fn count(&self) -> usize {
        self.bits.count()
    }

    /// True if nobody requests anything.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// True if requester `i` has at least one request.
    pub fn requester_active(&self, i: usize) -> bool {
        self.bits.row_any(i)
    }

    /// Iterates over the resources requested by requester `i`, ascending.
    pub fn row_ones(&self, i: usize) -> crate::bitmat::RowOnes<'_> {
        self.bits.row_ones(i)
    }

    /// Iterates over the requesters of resource `j`, ascending.
    pub fn col_ones(&self, j: usize) -> crate::bitmat::RowOnes<'_> {
        self.cols.row_ones(j)
    }

    /// The packed row mask of requester `i`: bit `j % 64` of word `j / 64`
    /// is set iff `i` requests resource `j` (see [`BitMatrix::row_words`]).
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        self.bits.row_words(i)
    }

    /// The packed column mask of resource `j`: bit `i % 64` of word
    /// `i / 64` is set iff requester `i` requests `j`. Maintained by every
    /// mutator, so reading it is a borrow, not a transpose.
    #[inline]
    pub fn col_words(&self, j: usize) -> &[u64] {
        self.cols.row_words(j)
    }

    /// Iterates over all `(requester, resource)` requests in row-major order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.bits.ones()
    }

    /// Removes every request issued by requester `i`.
    pub fn clear_requester(&mut self, i: usize) {
        for j in self.bits.row_ones(i) {
            self.cols.set(j, i, false);
        }
        self.bits.clear_row(i);
    }

    /// Removes every request for resource `j`.
    pub fn clear_resource(&mut self, j: usize) {
        for i in self.cols.row_ones(j) {
            self.bits.set(i, j, false);
        }
        self.cols.clear_row(j);
    }

    /// Access to the underlying bit matrix.
    pub fn bits(&self) -> &BitMatrix {
        &self.bits
    }

    /// Replaces requester `i`'s whole row from packed words (see
    /// [`BitMatrix::set_row_words`] for the layout contract). The column
    /// masks are patched for the bits that differ from the old row, so this
    /// suits callers that really do rewrite whole rows; a caller that knows
    /// which single request changed should use [`RequestMatrix::set`].
    pub fn set_row_words(&mut self, i: usize, words: &[u64]) {
        let cols = &mut self.cols;
        self.bits
            .set_row_words_with(i, words, |j| cols.toggle(j, i));
    }

    /// Copies `other` into `self` without reallocating (see
    /// [`BitMatrix::copy_from`]).
    pub fn copy_from(&mut self, other: &RequestMatrix) {
        self.bits.copy_from(&other.bits);
        self.cols.copy_from(&other.cols);
    }
}

impl From<BitMatrix> for RequestMatrix {
    fn from(bits: BitMatrix) -> Self {
        let mut cols = BitMatrix::new(bits.n());
        for (i, j) in bits.ones() {
            cols.set(j, i, true);
        }
        RequestMatrix { bits, cols }
    }
}

/// Rows only: the transpose is derived state and would repeat every bit.
impl std::fmt::Debug for RequestMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestMatrix")
            .field("bits", &self.bits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_pairs_and_counts() {
        let m = RequestMatrix::from_pairs(4, [(0, 1), (0, 2), (1, 0), (3, 1)]);
        assert_eq!(m.count(), 4);
        assert_eq!(m.nrq(0), 2);
        assert_eq!(m.nrq(2), 0);
        assert_eq!(m.ngt(1), 2);
        assert!(m.requester_active(0));
        assert!(!m.requester_active(2));
    }

    #[test]
    fn paper_figure3_nrq_column() {
        // Fig. 3 step 1: NRQ = [2, 3, 3, 1].
        let m = RequestMatrix::from_pairs(
            4,
            [
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 2),
                (1, 3),
                (2, 0),
                (2, 2),
                (2, 3),
                (3, 1),
            ],
        );
        assert_eq!(
            (0..4).map(|i| m.nrq(i)).collect::<Vec<_>>(),
            vec![2, 3, 3, 1]
        );
    }

    #[test]
    fn full_matrix() {
        let m = RequestMatrix::full(5);
        assert_eq!(m.count(), 25);
        assert_eq!(m.nrq(3), 5);
        assert_eq!(m.ngt(4), 5);
    }

    #[test]
    fn clear_requester_and_resource() {
        let mut m = RequestMatrix::full(4);
        m.clear_requester(1);
        assert_eq!(m.nrq(1), 0);
        assert_eq!(m.count(), 12);
        m.clear_resource(2);
        assert_eq!(m.ngt(2), 0);
        assert_eq!(m.count(), 9);
    }

    #[test]
    fn random_density_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        let empty = RequestMatrix::random(8, 0.0, &mut rng);
        assert!(empty.is_empty());
        let full = RequestMatrix::random(8, 1.0, &mut rng);
        assert_eq!(full.count(), 64);
    }

    #[test]
    fn random_density_is_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = RequestMatrix::random(64, 0.5, &mut rng);
        let density = m.count() as f64 / (64.0 * 64.0);
        assert!((0.4..0.6).contains(&density), "density was {density}");
    }

    #[test]
    fn pairs_roundtrip() {
        let pairs = vec![(0, 3), (2, 1), (3, 0)];
        let m = RequestMatrix::from_pairs(4, pairs.clone());
        assert_eq!(m.pairs().collect::<Vec<_>>(), pairs);
    }
}
