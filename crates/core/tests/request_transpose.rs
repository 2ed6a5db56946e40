//! `RequestMatrix` stores its rows and their transpose. Every mutator and
//! every constructor must keep the column words exactly equal to a
//! bit-by-bit transpose of the rows, at port counts on both sides of each
//! 64-bit word boundary: the word kernels read columns in place and would
//! schedule on a stale bit without complaint.

use lcf_core::bitkern::{mask_fill, set_bit, test_bit, words_for, WORD_BITS};
use lcf_core::bitmat::BitMatrix;
use lcf_core::request::RequestMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One word, a word boundary from both sides, two words, two words plus.
const SIZES: [usize; 7] = [1, 5, 63, 64, 65, 128, 130];

/// Panics unless `m`'s column words, column counts and column iterators
/// all agree with its rows, and no column has a bit at or beyond `n`.
fn assert_transpose_exact(m: &RequestMatrix, what: &str) {
    let n = m.n();
    let w = words_for(n);
    for j in 0..n {
        let col = m.col_words(j);
        assert_eq!(col.len(), w, "{what}: n={n} column {j} width");
        for i in 0..w * WORD_BITS {
            let want = i < n && m.get(i, j);
            assert_eq!(test_bit(col, i), want, "{what}: n={n} bit ({i}, {j})");
        }
        let requesters: Vec<usize> = (0..n).filter(|&i| m.get(i, j)).collect();
        assert_eq!(m.col_ones(j).collect::<Vec<_>>(), requesters, "{what}");
        assert_eq!(m.ngt(j), requesters.len(), "{what}: n={n} ngt({j})");
    }
}

/// A port index biased towards the corners and the word boundary.
fn index(rng: &mut StdRng, n: usize) -> usize {
    match rng.gen_range(0..4) {
        0 => 0,
        1 => n - 1,
        2 => (WORD_BITS - 1 + rng.gen_range(0..2usize)).min(n - 1),
        _ => rng.gen_range(0..n),
    }
}

/// A packed row: empty, full, one bit, or random at a random density.
fn row_words(rng: &mut StdRng, n: usize) -> Vec<u64> {
    let mut row = vec![0u64; words_for(n)];
    match rng.gen_range(0..4) {
        0 => {}
        1 => mask_fill(&mut row, n),
        2 => set_bit(&mut row, index(rng, n)),
        _ => {
            let density = rng.gen_range(0.0..=1.0);
            for j in 0..n {
                if rng.gen_bool(density) {
                    set_bit(&mut row, j);
                }
            }
        }
    }
    row
}

/// Every constructor, each on inputs drawn from `rng`.
fn constructed(rng: &mut StdRng, n: usize) -> Vec<(&'static str, RequestMatrix)> {
    let pairs: Vec<(usize, usize)> = (0..rng.gen_range(0..2 * n))
        .map(|_| (index(rng, n), index(rng, n)))
        .collect();
    let salt = rng.gen_range(1..7usize);
    let density = rng.gen_range(0.0..=1.0);
    vec![
        ("new", RequestMatrix::new(n)),
        ("from_pairs", RequestMatrix::from_pairs(n, pairs)),
        (
            "from_fn",
            RequestMatrix::from_fn(n, |i, j| (i * salt + j * 3) % 5 == 0),
        ),
        ("random", RequestMatrix::random(n, density, rng)),
        ("full", RequestMatrix::full(n)),
        (
            "from_bitmatrix",
            RequestMatrix::from(BitMatrix::from_fn(n, |i, j| (i ^ j) % (salt + 1) == 0)),
        ),
    ]
}

/// Runs `steps` random mutations from a random constructor, checking the
/// transpose after each one.
fn random_walk(n: usize, seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for (name, m) in constructed(&mut rng, n) {
        assert_transpose_exact(&m, name);
    }
    let mut start = constructed(&mut rng, n);
    let pick = rng.gen_range(0..start.len());
    let (_, mut m) = start.swap_remove(pick);
    for step in 0..steps {
        let op = match rng.gen_range(0..5) {
            0 => {
                let (i, j, value) = (index(&mut rng, n), index(&mut rng, n), rng.gen_bool(0.6));
                m.set(i, j, value);
                "set"
            }
            1 => {
                let (i, row) = (index(&mut rng, n), row_words(&mut rng, n));
                m.set_row_words(i, &row);
                assert_eq!(m.row_words(i), &row[..], "set_row_words: n={n} row {i}");
                "set_row_words"
            }
            2 => {
                m.clear_requester(index(&mut rng, n));
                "clear_requester"
            }
            3 => {
                m.clear_resource(index(&mut rng, n));
                "clear_resource"
            }
            _ => {
                let mut sources = constructed(&mut rng, n);
                let pick = rng.gen_range(0..sources.len());
                let (_, source) = sources.swap_remove(pick);
                m.copy_from(&source);
                assert_eq!(m, source, "copy_from: n={n}");
                "copy_from"
            }
        };
        assert_transpose_exact(&m, &format!("step {step} ({op})"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random mutation sequences keep the transpose exact at every size.
    #[test]
    fn mutations_keep_columns_the_exact_transpose(seed in any::<u64>()) {
        for n in SIZES {
            random_walk(n, seed, 24);
        }
    }
}

/// Dense rows and the four corner bits, written through `set_row_words`
/// and then removed through every clearing path.
#[test]
fn dense_rows_and_corner_bits_transpose() {
    for n in SIZES {
        let w = words_for(n);
        let mut full = vec![0u64; w];
        mask_fill(&mut full, n);
        let mut m = RequestMatrix::new(n);
        for i in 0..n {
            m.set_row_words(i, &full);
        }
        assert_eq!(m, RequestMatrix::full(n), "n = {n}");
        for j in 0..n {
            assert_eq!(m.col_words(j), &full[..], "n = {n} j = {j}");
        }

        let mut corners = vec![0u64; w];
        set_bit(&mut corners, 0);
        set_bit(&mut corners, n - 1);
        let mut m = RequestMatrix::new(n);
        m.set_row_words(0, &corners);
        m.set_row_words(n - 1, &corners);
        assert_transpose_exact(&m, "corners");
        for j in 0..n {
            let want = if j == 0 || j == n - 1 {
                corners.clone()
            } else {
                vec![0; w]
            };
            assert_eq!(m.col_words(j), &want[..], "n = {n} j = {j}");
        }
        m.clear_resource(n - 1);
        m.clear_requester(0);
        assert_transpose_exact(&m, "cleared corners");
        m.set_row_words(n - 1, &vec![0; w]);
        assert!(m.is_empty(), "n = {n}");
        assert!((0..n).all(|j| m.col_words(j).iter().all(|&word| word == 0)));
    }
}

/// The transpose is derived state: `Debug` prints the rows only, so
/// assertion messages read as they did before columns were stored.
#[test]
fn debug_prints_rows_only() {
    let m = RequestMatrix::from_pairs(2, [(0, 1)]);
    assert_eq!(
        format!("{m:?}"),
        format!("RequestMatrix {{ bits: {:?} }}", m.bits())
    );
}
