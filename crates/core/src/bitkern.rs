//! Word-parallel kernels for the matching schedulers.
//!
//! A request-matrix row for an `n`-port switch is a mask of
//! `words_for(n)` 64-bit words: bit `dst % 64` of word `dst / 64` is set
//! iff the row requests destination `dst`. This is the packed layout of
//! [`BitMatrix::row_words`](crate::bitmat::BitMatrix::row_words) and of the
//! simulator's `VoqSet::occupancy_words`. A column mask has the same
//! layout over requesters. [`RequestMatrix`](crate::request::RequestMatrix)
//! keeps both orientations current as requests change, so the kernels
//! read rows and columns in place and never copy or transpose the matrix.
//! On these masks the scans that dominate scheduler inner loops collapse
//! into word operations:
//!
//! * candidate filtering is a word-wise `AND` of a column mask against a
//!   free-inputs mask,
//! * rotating-priority selection ("first requester at or after the
//!   pointer") is a short word walk with two `trailing_zeros` probes on a
//!   split boundary word,
//! * least-count selection with a rotating tie-break is one ascending walk
//!   keeping the minimum of the packed key `(count << 32) | rotation`,
//! * NRQ maintenance is `count_ones` over row words,
//! * uniform random choice among candidates is a popcount plus a
//!   k-th-set-bit select.
//!
//! For `n <= 64` — every configuration the paper evaluates — a row is a
//! single word and the kernels degenerate to the classic one-`u64` forms.
//! Larger switches (n = 128/256/1024, the data-center-scale regimes) use
//! the same entry points with more words per row; nothing falls back to
//! the scalar reference.
//!
//! Each scheduler keeps its scalar implementation as the reference — the
//! bit kernels are required (and property-tested) to produce *identical*
//! matchings, grant for grant, so the scalar path stays selectable via
//! [`Backend::Scalar`] for differential testing.
//!
//! All multi-word entry points check their length/range contracts with
//! release-mode asserts: a caller that hands a short mask or an
//! out-of-range index gets a loud panic, never a silently truncated mask.

/// Bits per mask word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words in an `n`-bit row mask.
///
/// # Panics
/// Panics if `n` is 0 — every kernel mask covers at least one port.
#[inline]
pub fn words_for(n: usize) -> usize {
    assert!(n > 0, "kernel masks require n > 0");
    n.div_ceil(WORD_BITS)
}

/// Which matching-kernel implementation a scheduler uses.
///
/// `Bitset` is the default and handles every port count — rows wider than
/// one word use multi-word masks — so the choice is a pure performance
/// dial and never changes results: both backends are bit-identical by
/// construction (enforced by equivalence property tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Reference implementation: index arithmetic and per-bit probes.
    Scalar,
    /// Word-parallel implementation on `u64` row/column masks.
    #[default]
    Bitset,
}

impl Backend {
    /// Registry/CLI name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Bitset => "bitset",
        }
    }

    /// Parses a backend name.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "scalar" => Some(Backend::Scalar),
            "bitset" => Some(Backend::Bitset),
            _ => None,
        }
    }

    /// True if the word kernels apply. The kernels are multi-word, so this
    /// depends only on the backend, not on the port count: `Bitset` runs
    /// word-parallel at any `n`.
    #[inline]
    pub fn word_parallel(self) -> bool {
        self == Backend::Bitset
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A single word with bits `[0, n)` set, for `n <= 64` (the last-word mask
/// of a multi-word row; the whole-row form is [`mask_fill`]).
///
/// # Panics
/// Panics if `n` is 0 or exceeds [`WORD_BITS`] — checked in release too,
/// because an oversized `n` would silently wrap the shift amount.
#[inline]
pub fn mask_n(n: usize) -> u64 {
    assert!(
        (1..=WORD_BITS).contains(&n),
        "mask_n requires 1 <= n <= {WORD_BITS}"
    );
    if n == WORD_BITS {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Fills `out` with the all-ports mask: bits `[0, n)` set, bits at or
/// beyond `n` zero.
///
/// # Panics
/// Panics if `out.len() != words_for(n)`.
pub fn mask_fill(out: &mut [u64], n: usize) {
    let w = words_for(n);
    assert_eq!(
        out.len(),
        w,
        "mask_fill: mask has {} words, n = {n} needs {w}",
        out.len()
    );
    out[..w - 1].fill(u64::MAX);
    out[w - 1] = mask_n(n - (w - 1) * WORD_BITS);
}

/// True if bit `idx` of the mask is set.
///
/// # Panics
/// Panics if `idx` is at or beyond the mask's width.
#[inline]
pub fn test_bit(mask: &[u64], idx: usize) -> bool {
    mask[idx / WORD_BITS] >> (idx % WORD_BITS) & 1 == 1
}

/// Sets bit `idx` of the mask.
///
/// # Panics
/// Panics if `idx` is at or beyond the mask's width.
#[inline]
pub fn set_bit(mask: &mut [u64], idx: usize) {
    mask[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
}

/// Clears bit `idx` of the mask.
///
/// # Panics
/// Panics if `idx` is at or beyond the mask's width.
#[inline]
pub fn clear_bit(mask: &mut [u64], idx: usize) {
    mask[idx / WORD_BITS] &= !(1u64 << (idx % WORD_BITS));
}

/// Number of set bits in the mask.
#[inline]
pub fn popcount(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// First set bit of `mask` in the rotating order
/// `start, start+1, …, start+n-1 (mod n)` — the word-parallel form of
/// [`select_rotating`](crate::arbiter::select_rotating). Bits of `mask` at
/// or beyond `n` must be zero.
///
/// # Panics
/// Panics if `start >= n` or `mask.len() != words_for(n)` — checked in
/// release too; the bits-beyond-`n` contract is debug-asserted.
pub fn rotating_first(mask: &[u64], n: usize, start: usize) -> Option<usize> {
    let w = words_for(n);
    assert!(
        start < n,
        "rotating_first: start {start} out of range for n = {n}"
    );
    assert_eq!(
        mask.len(),
        w,
        "rotating_first: mask has {} words, n = {n} needs {w}",
        mask.len()
    );
    debug_assert!(excess_is_zero(mask, n), "mask has bits beyond n");
    let (sw, sb) = (start / WORD_BITS, start % WORD_BITS);
    // Segment [start, n): the boundary word with bits below `start`
    // cleared, then the remaining words in ascending order.
    let boundary = mask[sw] & (u64::MAX << sb);
    if boundary != 0 {
        return Some(sw * WORD_BITS + boundary.trailing_zeros() as usize);
    }
    for (wi, &word) in mask.iter().enumerate().skip(sw + 1) {
        if word != 0 {
            return Some(wi * WORD_BITS + word.trailing_zeros() as usize);
        }
    }
    // Wrap segment [0, start): full words, then the boundary word with
    // bits at or above `start` cleared.
    for (wi, &word) in mask.iter().enumerate().take(sw) {
        if word != 0 {
            return Some(wi * WORD_BITS + word.trailing_zeros() as usize);
        }
    }
    let boundary = mask[sw] & !(u64::MAX << sb);
    if boundary != 0 {
        return Some(sw * WORD_BITS + boundary.trailing_zeros() as usize);
    }
    None
}

/// The position of the `k`-th set bit of `mask` (ascending, 0-based).
///
/// # Panics
/// Panics if `mask` has fewer than `k + 1` set bits — checked in release
/// too: a wrapped pick would silently skew PIM's uniform choice.
pub fn kth_set_bit(mask: &[u64], k: usize) -> usize {
    let mut k = k;
    for (wi, &word) in mask.iter().enumerate() {
        let ones = word.count_ones() as usize;
        if k < ones {
            let mut m = word;
            for _ in 0..k {
                m &= m - 1;
            }
            return wi * WORD_BITS + m.trailing_zeros() as usize;
        }
        k -= ones;
    }
    // lint:allow(no-panic): caller contract — the mask must hold > k set bits
    panic!("kth_set_bit: k-th set bit absent");
}

/// Among the set bits of `mask`, the index minimizing `key`, ties broken by
/// the rotating order starting at `start` — the word-parallel form of
/// [`min_rotating`](crate::arbiter::min_rotating) restricted to mask
/// membership. Every member's key must be below `2^32`. Bits of `mask` at
/// or beyond `n` must be zero.
///
/// # Panics
/// Panics if `start >= n`, `n` does not fit in 32 bits,
/// `mask.len() != words_for(n)`, `key` is shorter than `n` or a member's
/// key is `2^32` or more — checked in release too.
pub fn min_key_rotating(mask: &[u64], n: usize, start: usize, key: &[usize]) -> Option<usize> {
    check_min_walk("min_key_rotating", "key", mask, n, start, key.len());
    min_packed_walk(mask, n, start, |i| key[i])
}

/// [`min_key_rotating`] fused with a grant's count update: returns the same
/// index, and decrements `counts[i]` for every member `i` of `mask` in the
/// same pass. This is central LCF's per-resource step — the live requesters
/// of a granted resource each lose one outstanding request. Every member's
/// count must be at least 1 and below `2^32`. Bits of `mask` at or beyond
/// `n` must be zero.
///
/// # Panics
/// Panics if `start >= n`, `n` does not fit in 32 bits,
/// `mask.len() != words_for(n)`, `counts` is shorter than `n` or a member's
/// count is `2^32` or more — checked in release too.
pub fn min_key_rotating_grant(
    mask: &[u64],
    n: usize,
    start: usize,
    counts: &mut [usize],
) -> Option<usize> {
    check_min_walk(
        "min_key_rotating_grant",
        "count",
        mask,
        n,
        start,
        counts.len(),
    );
    min_packed_walk(mask, n, start, |i| {
        let count = counts[i];
        counts[i] = count - 1;
        count
    })
}

/// The release-mode argument contract of the two minimum walks.
fn check_min_walk(name: &str, table: &str, mask: &[u64], n: usize, start: usize, len: usize) {
    let w = words_for(n);
    assert!(
        start < n && n <= u32::MAX as usize,
        "{name}: start {start} out of range for n = {n}"
    );
    assert_eq!(
        mask.len(),
        w,
        "{name}: mask has {} words, n = {n} needs {w}",
        mask.len()
    );
    assert!(len >= n, "{name}: {table} table shorter than n");
    debug_assert!(excess_is_zero(mask, n), "mask has bits beyond n");
}

/// One ascending walk over the set bits of `mask`, keeping the branchless
/// minimum of the packed key `(key(i) << 32) | ((i - start) mod n)`: the
/// smallest key wins, and among equal keys the first index in the rotating
/// order from `start` — exactly the scalar tie-break. `key` is called once
/// per member, in ascending order.
#[inline(always)]
fn min_packed_walk(
    mask: &[u64],
    n: usize,
    start: usize,
    mut key: impl FnMut(usize) -> usize,
) -> Option<usize> {
    let mut best = u64::MAX;
    // The OR of every key: one compare after the walk proves each fits.
    let mut keys = 0usize;
    for (wi, &word) in mask.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let idx = wi * WORD_BITS + word.trailing_zeros() as usize;
            word &= word - 1;
            let k = key(idx);
            keys |= k;
            let rot = if idx >= start {
                idx - start
            } else {
                idx + n - start
            };
            best = best.min((k as u64) << 32 | rot as u64);
        }
    }
    assert!(
        keys <= u32::MAX as usize,
        "a key does not fit in 32 bits (keys OR to {keys:#x})"
    );
    (best != u64::MAX).then(|| {
        let idx = start + (best & u64::from(u32::MAX)) as usize;
        if idx >= n {
            idx - n
        } else {
            idx
        }
    })
}

/// True if every bit at or beyond `n` is zero (the mask contract).
fn excess_is_zero(mask: &[u64], n: usize) -> bool {
    let w = words_for(n);
    let used = n - (w - 1) * WORD_BITS;
    let excess_last = if used == WORD_BITS {
        0
    } else {
        mask[w - 1] >> used
    };
    excess_last == 0 && mask[w..].iter().all(|&word| word == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::{min_rotating, select_rotating};

    /// Port counts crossing every word-boundary case: single word, exact
    /// boundary, boundary + 1, and multi-word interiors.
    const SIZES: [usize; 10] = [1, 2, 7, 31, 64, 65, 127, 128, 192, 256];

    /// Miri interprets ~two orders of magnitude slower than native; shrink
    /// the pseudo-random seed sweeps so the UB-detection pass stays fast
    /// while still crossing every word-boundary size in `SIZES`.
    fn sweep(seeds: u64) -> u64 {
        if cfg!(miri) {
            seeds.min(2)
        } else {
            seeds
        }
    }

    /// A deterministic pseudo-random w-word mask for port count n.
    fn mask_for(n: usize, seed: u64) -> Vec<u64> {
        let w = words_for(n);
        let mut mask: Vec<u64> = (0..w as u64)
            .map(|wi| {
                (seed ^ wi.wrapping_mul(0xA076_1D64_78BD_642F))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left((seed + wi) as u32)
            })
            .collect();
        let used = n - (w - 1) * WORD_BITS;
        mask[w - 1] &= mask_n(used);
        mask
    }

    #[test]
    fn mask_n_extremes() {
        assert_eq!(mask_n(1), 1);
        assert_eq!(mask_n(5), 0b11111);
        assert_eq!(mask_n(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "mask_n requires")]
    fn mask_n_rejects_oversize_in_release_too() {
        let _ = mask_n(65);
    }

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
        assert_eq!(words_for(1024), 16);
    }

    #[test]
    fn mask_fill_matches_bit_loop() {
        for n in SIZES {
            let mut mask = vec![0u64; words_for(n)];
            mask_fill(&mut mask, n);
            assert_eq!(popcount(&mask), n, "n = {n}");
            for idx in 0..n {
                assert!(test_bit(&mask, idx), "n = {n} idx = {idx}");
            }
            assert!(excess_is_zero(&mask, n), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "mask_fill")]
    fn mask_fill_rejects_short_mask() {
        let mut mask = vec![0u64; 1];
        mask_fill(&mut mask, 65);
    }

    #[test]
    fn bit_ops_roundtrip() {
        let mut mask = vec![0u64; 4];
        for idx in [0, 63, 64, 130, 255] {
            assert!(!test_bit(&mask, idx));
            set_bit(&mut mask, idx);
            assert!(test_bit(&mask, idx));
        }
        assert_eq!(popcount(&mask), 5);
        clear_bit(&mut mask, 64);
        assert!(!test_bit(&mask, 64));
        assert_eq!(popcount(&mask), 4);
    }

    #[test]
    #[should_panic]
    fn test_bit_out_of_range_is_loud() {
        let mask = vec![0u64; 2];
        let _ = test_bit(&mask, 128);
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in [Backend::Scalar, Backend::Bitset] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("simd"), None);
        assert_eq!(Backend::default(), Backend::Bitset);
    }

    #[test]
    fn word_parallel_is_backend_only() {
        // The multi-word kernels removed the n <= 64 cliff: the bitset
        // backend is word-parallel at every port count.
        assert!(Backend::Bitset.word_parallel());
        assert!(!Backend::Scalar.word_parallel());
    }

    #[test]
    fn rotating_first_matches_select_rotating() {
        for n in SIZES {
            for seed in 0..sweep(20) {
                let mask = mask_for(n, seed);
                for start in (0..n).step_by((n / 9).max(1)) {
                    let scalar = select_rotating(n, start, |i| test_bit(&mask, i));
                    assert_eq!(
                        rotating_first(&mask, n, start),
                        scalar,
                        "n={n} seed={seed} start={start}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rotating_first")]
    fn rotating_first_rejects_short_mask_in_release_too() {
        let mask = vec![u64::MAX; 1];
        let _ = rotating_first(&mask, 128, 0);
    }

    #[test]
    fn kth_set_bit_enumerates_ascending() {
        let mask = [0b1011_0101u64];
        let expected = [0usize, 2, 4, 5, 7];
        for (k, &bit) in expected.iter().enumerate() {
            assert_eq!(kth_set_bit(&mask, k), bit);
        }
        assert_eq!(kth_set_bit(&[u64::MAX], 63), 63);
        // Multi-word: bits straddling word boundaries enumerate in order.
        let mask = [1u64 << 63, 0b101u64, 0, 1u64 << 7];
        assert_eq!(kth_set_bit(&mask, 0), 63);
        assert_eq!(kth_set_bit(&mask, 1), 64);
        assert_eq!(kth_set_bit(&mask, 2), 66);
        assert_eq!(kth_set_bit(&mask, 3), 192 + 7);
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn kth_set_bit_absent_is_loud_in_release_too() {
        let _ = kth_set_bit(&[0b11u64, 0], 2);
    }

    #[test]
    fn min_key_rotating_matches_min_rotating() {
        for n in SIZES {
            for seed in 0..sweep(20) {
                let mask = mask_for(n, seed.wrapping_mul(0xD134_2543_DE82_EF95));
                let key: Vec<usize> = (0..n)
                    .map(|i| (seed as usize).wrapping_mul(i + 3) % 5)
                    .collect();
                // The same ties at the top of the packed key's 32-bit range.
                let high: Vec<usize> = key.iter().map(|&k| u32::MAX as usize - k % 2).collect();
                for key in [&key, &high] {
                    for start in (0..n).step_by((n / 7).max(1)) {
                        let scalar =
                            min_rotating(n, start, |i| test_bit(&mask, i).then_some(key[i]));
                        assert_eq!(
                            min_key_rotating(&mask, n, start, key),
                            scalar,
                            "n={n} seed={seed} start={start}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "key table")]
    fn min_key_rotating_rejects_short_key_in_release_too() {
        let mask = vec![0u64; 2];
        let key = vec![0usize; 64];
        let _ = min_key_rotating(&mask, 128, 0, &key);
    }

    #[test]
    #[should_panic(expected = "does not fit in 32 bits")]
    fn min_key_rotating_rejects_wide_key_in_release_too() {
        let key = [1usize << 32, 0];
        let _ = min_key_rotating(&[0b11], 2, 0, &key);
    }

    /// The fused kernel must pick exactly `min_key_rotating`'s winner and
    /// leave the counts as a separate per-member decrement would — at every
    /// size, every start, on masks and count tables full of ties.
    #[test]
    fn min_key_rotating_grant_equals_min_then_decrement() {
        for n in SIZES {
            let start_step = if cfg!(miri) { (n / 7).max(1) } else { 1 };
            for seed in 0..sweep(8) {
                let mask = mask_for(n, seed.wrapping_mul(0xA076_1D64_78BD_642F));
                // Counts in 1..=4 over up to 256 members: plenty of ties.
                let counts: Vec<usize> = (0..n)
                    .map(|i| 1 + (seed as usize).wrapping_mul(i * 13 + 7) % 4)
                    .collect();
                for start in (0..n).step_by(start_step) {
                    let mut fused = counts.clone();
                    let got = min_key_rotating_grant(&mask, n, start, &mut fused);
                    assert_eq!(
                        got,
                        min_key_rotating(&mask, n, start, &counts),
                        "n={n} seed={seed} start={start}"
                    );
                    let mut separate = counts.clone();
                    for (i, count) in separate.iter_mut().enumerate() {
                        *count -= usize::from(test_bit(&mask, i));
                    }
                    assert_eq!(fused, separate, "n={n} seed={seed} start={start}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "min_key_rotating_grant")]
    fn min_key_rotating_grant_rejects_short_counts_in_release_too() {
        let mask = vec![0u64; 2];
        let mut counts = vec![1usize; 64];
        let _ = min_key_rotating_grant(&mask, 128, 0, &mut counts);
    }
}
