//! Property tests for the erasure codecs: MDS behaviour of RS, LRC
//! decodability structure, and MLEC two-level consistency.
//!
//! Cases are driven by `mlec-runner`'s deterministic seed stream (one
//! substream per property, one seed per case), so every run exercises the
//! same inputs.

use mlec_ec::{EcError, Lrc, MlecCodec, ReedSolomon};
use mlec_runner::{SeedStream, SplitMix64};
use std::collections::BTreeSet;

// Scaled down under Miri: the interpreter is ~1000x slower than native.
const CASES: u64 = if cfg!(miri) { 4 } else { 48 };

fn case_rng(property: &str, case: u64) -> SplitMix64 {
    SplitMix64::new(SeedStream::new(0xEC0DEC, property).trial_seed(case))
}

fn in_range(r: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + (r.next_u64() as usize) % (hi - lo)
}

fn deterministic_data(k: usize, len: usize, salt: u64) -> Vec<Vec<u8>> {
    (0..k)
        .map(|s| {
            (0..len)
                .map(|i| ((s as u64 * 131 + i as u64 * 29 + salt) % 256) as u8)
                .collect()
        })
        .collect()
}

/// Fisher–Yates permutation of `0..n` from the case RNG.
fn permutation(r: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (r.next_u64() as usize) % (i + 1);
        idx.swap(i, j);
    }
    idx
}

/// Any k surviving shards reconstruct the stripe (the MDS property), for
/// random (k, p) and random erasure patterns of exactly p shards.
#[test]
fn rs_is_mds() {
    for case in 0..CASES {
        let mut r = case_rng("rs-mds", case);
        let k = in_range(&mut r, 2, 24);
        let p = in_range(&mut r, 1, 8);
        let salt = r.next_u64();
        let rs = ReedSolomon::new(k, p).unwrap();
        let data = deterministic_data(k, 24, salt);
        let encoded = rs.encode(&data).unwrap();
        let n = k + p;
        let erase = permutation(&mut r, n);
        let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
        for &e in erase.iter().take(p) {
            shards[e] = None;
        }
        rs.reconstruct(&mut shards).unwrap();
        for i in 0..n {
            assert_eq!(shards[i].as_ref().unwrap(), &encoded[i]);
        }
    }
}

/// Parity is linear: encode(a) XOR encode(b) == encode(a XOR b).
#[test]
fn rs_encoding_is_linear() {
    for case in 0..CASES {
        let mut r = case_rng("rs-linear", case);
        let k = in_range(&mut r, 2, 10);
        let p = in_range(&mut r, 1, 5);
        let salt = r.next_u64();
        let rs = ReedSolomon::new(k, p).unwrap();
        let a = deterministic_data(k, 16, salt);
        let b = deterministic_data(k, 16, salt.wrapping_add(99));
        let xor: Vec<Vec<u8>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.iter().zip(y).map(|(u, v)| u ^ v).collect())
            .collect();
        let ea = rs.encode(&a).unwrap();
        let eb = rs.encode(&b).unwrap();
        let ex = rs.encode(&xor).unwrap();
        for i in 0..(k + p) {
            for j in 0..16 {
                assert_eq!(ex[i][j], ea[i][j] ^ eb[i][j]);
            }
        }
    }
}

/// LRC: every pattern of at most r+1 erasures is decodable (the MR
/// guarantee), for small random configurations.
#[test]
fn lrc_guaranteed_tolerance() {
    let mut tested = 0;
    for case in 0..(CASES * 4) {
        let mut r = case_rng("lrc-tolerance", case);
        let k = in_range(&mut r, 4, 16);
        let l = 2;
        let rr = in_range(&mut r, 1, 4);
        if !k.is_multiple_of(l) {
            continue;
        }
        let lrc = Lrc::new(k, l, rr).unwrap();
        let n = lrc.total_chunks();
        let m = rr + 1;
        if m > n {
            continue;
        }
        let idx = permutation(&mut r, n);
        let mut erased = vec![false; n];
        for &e in idx.iter().take(m) {
            erased[e] = true;
        }
        assert!(
            lrc.decodable(&erased),
            "k={k} l={l} r={rr} pattern={erased:?}"
        );
        tested += 1;
    }
    assert!(
        tested >= CASES as usize,
        "only {tested} admissible cases drawn"
    );
}

/// LRC reconstruct agrees byte-for-byte with re-encoding from data.
#[test]
fn lrc_reconstruct_round_trip() {
    for case in 0..CASES {
        let mut r = case_rng("lrc-round-trip", case);
        let salt = r.next_u64();
        let which = in_range(&mut r, 0, 8);
        let lrc = Lrc::new(6, 2, 2).unwrap();
        let data = deterministic_data(6, 12, salt);
        let encoded = lrc.encode(&data).unwrap();
        let mut chunks: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
        chunks[which % 10] = None;
        lrc.reconstruct(&mut chunks).unwrap();
        for i in 0..10 {
            assert_eq!(chunks[i].as_ref().unwrap(), &encoded[i]);
        }
    }
}

/// MLEC grid consistency: the double parity can be computed either way
/// (local-of-network == network-of-local) for arbitrary parameters.
#[test]
fn mlec_double_parity_commutes() {
    for case in 0..CASES {
        let mut r = case_rng("mlec-commutes", case);
        let kn = in_range(&mut r, 2, 4);
        let kl = in_range(&mut r, 2, 4);
        let salt = r.next_u64();
        // Both levels p=1 (XOR) keeps the check simple and exact.
        let codec = MlecCodec::new(kn, 1, kl, 1).unwrap();
        let data = deterministic_data(kn * kl, 8, salt);
        let stripe = codec.encode(&data).unwrap();
        let last_row = kn; // network parity row
        let last_col = kl; // local parity column
        for b in 0..8 {
            // Network parity of the local-parity column.
            let mut via_network = 0u8;
            for row in stripe.iter().take(kn) {
                via_network ^= row[last_col][b];
            }
            assert_eq!(stripe[last_row][last_col][b], via_network);
        }
    }
}

/// The store's degraded-read planner from before the codec planned every
/// degraded read, as a pure function of the erasure mask: the survivors it
/// fetched for the `k_n * k_l` data chunks, whether it fell back to the
/// full grid, and whether some column offered more than `k_n` survivors.
fn reference_reads(
    mask: &[Vec<bool>],
    kn: usize,
    kl: usize,
) -> (BTreeSet<(usize, usize)>, bool, bool) {
    let (nw, lw) = (mask.len(), mask[0].len());
    let mut need: BTreeSet<(usize, usize)> = BTreeSet::new();
    let (mut simple, mut wide) = (true, false);
    for row in 0..kn {
        for col in 0..kl {
            if mask[row][col] {
                need.insert((row, col));
                continue;
            }
            let row_missing = (0..lw).filter(|&c| !mask[row][c]).count();
            if lw - row_missing >= kl {
                // Local path: any kl survivors of the row suffice.
                let survivors = (0..lw).filter(|&c| mask[row][c]);
                need.extend(survivors.take(kl).map(|c| (row, c)));
            } else {
                // Network path: the column's survivors across all rows.
                let col_present: Vec<usize> = (0..nw).filter(|&r| mask[r][col]).collect();
                if col_present.len() >= kn {
                    wide |= col_present.len() > kn;
                    need.extend(col_present.iter().map(|&r| (r, col)));
                } else {
                    simple = false;
                }
            }
        }
    }
    if !simple {
        // Worst case: fetch every survivor and reconstruct the grid.
        need = (0..nw)
            .flat_map(|r| (0..lw).map(move |c| (r, c)))
            .filter(|&(r, c)| mask[r][c])
            .collect();
    }
    (need, !simple, wide)
}

fn mask_of(grid: &[Vec<Option<Vec<u8>>>]) -> Vec<Vec<bool>> {
    grid.iter()
        .map(|row| row.iter().map(Option::is_some).collect())
        .collect()
}

/// `read_set` for the data chunks of `stripe` under `grid`'s erasures,
/// checked against the parent planner and `reconstruct`'s verdict
/// `decodable`: (c) its reads are ascending and distinct; (d) they are a
/// subset of the reference's, equal unless the reference fell back to the
/// full grid or read a column wider than `k_n`; (a) decoding a grid that
/// holds only those reads returns exactly the data bytes whenever
/// `reconstruct` succeeds, and never other bytes; (b) a refusal reads
/// every survivor. Returns whether it decoded.
fn check_read_set(
    codec: &MlecCodec,
    stripe: &[Vec<Vec<u8>>],
    grid: &[Vec<Option<Vec<u8>>>],
    decodable: bool,
) -> bool {
    let (kn, kl) = (codec.network().data_shards(), codec.local().data_shards());
    let mask = mask_of(grid);
    let targets: Vec<(usize, usize)> = (0..kn).flat_map(|j| (0..kl).map(move |i| (j, i))).collect();
    let set = codec.read_set(&mask, &targets).unwrap();
    let reads = set.reads();
    // (c) holds by type: `reads()` is a `BTreeSet`.
    let (reference, fell_back, wide) = reference_reads(&mask, kn, kl);
    assert!(
        reads.iter().all(|c| reference.contains(c)),
        "{reads:?} vs {reference:?}"
    );
    if !fell_back && !wide {
        assert_eq!(reads, &reference);
    }
    let mut fetched: Vec<Vec<Option<Vec<u8>>>> = vec![vec![None; mask[0].len()]; mask.len()];
    for &(j, i) in reads {
        fetched[j][i] = grid[j][i].clone();
    }
    match set.decode(&fetched) {
        Ok(chunks) => {
            let data = stripe.iter().take(kn).flat_map(|row| &row[..kl]);
            assert!(chunks.iter().eq(data), "decoded bytes differ from encode's");
            true
        }
        Err(err) => {
            assert!(!decodable, "reconstruct succeeds where read_set refuses");
            assert!(matches!(err, EcError::TooManyErasures { .. }), "{err:?}");
            let cells = (0..mask.len()).flat_map(|j| (0..mask[j].len()).map(move |i| (j, i)));
            let survivors: BTreeSet<(usize, usize)> = cells.filter(|&(j, i)| mask[j][i]).collect();
            assert_eq!(reads, &survivors, "a refusal reads every survivor");
            assert!(fell_back, "the reference decoded what read_set refuses");
            false
        }
    }
}

/// MLEC decode over random erasure patterns: `reconstruct` succeeds exactly
/// when at most `p_n` rows have lost more than `p_l` chunks (leaving a
/// refused grid as it was), and then equals `encode`; `read_degraded`
/// returns every chunk of such a stripe and counts (e) the reads of its
/// `read_set` other than the chunk itself; `read_set` for the data chunks
/// passes [`check_read_set`]; and every column of the repaired grid,
/// local-parity columns included, is a network codeword. At (2+1)/(4+2)
/// every pattern a single rack kill leaves, any cells of one row, is
/// checked too: there `read_set` reads exactly what the parent planner did.
#[test]
fn mlec_decodes_exactly_the_decodable_patterns() {
    let mut decodable_cases = [0usize; 2];
    let mut read_set_decoded = [0usize; 2];
    // Every pattern a single failed rack leaves at (2+1)/(4+2): any
    // subset of one row's cells.
    let small = MlecCodec::new(2, 1, 4, 2).unwrap();
    let stripe = small.encode(&deterministic_data(8, 16, 1)).unwrap();
    for row in 0..3 {
        for pattern in 0u32..64 {
            let mut grid: Vec<Vec<Option<Vec<u8>>>> = stripe
                .iter()
                .map(|r| r.iter().cloned().map(Some).collect())
                .collect();
            for (i, cell) in grid[row].iter_mut().enumerate() {
                if pattern & (1 << i) != 0 {
                    *cell = None;
                }
            }
            assert!(check_read_set(&small, &stripe, &grid, true));
            let fell_back = reference_reads(&mask_of(&grid), 2, 4).1;
            assert!(!fell_back, "row {row} pattern {pattern:#b}");
        }
    }
    for (kn, pn, kl, pl) in [
        (2, 1, 2, 1),
        (2, 1, 4, 2),
        (3, 2, 4, 2),
        (4, 2, 5, 3),
        (10, 2, 17, 3),
    ] {
        let codec = MlecCodec::new(kn, pn, kl, pl).unwrap();
        for case in 0..CASES {
            let mut r = case_rng(&format!("mlec-decode-{kn}+{pn}/{kl}+{pl}"), case);
            let salt = r.next_u64();
            let stripe = codec
                .encode(&deterministic_data(kn * kl, 16, salt))
                .unwrap();
            let percent = in_range(&mut r, 5, 60) as u64;
            let mut grid: Vec<Vec<Option<Vec<u8>>>> = stripe
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|c| (r.next_u64() % 100 >= percent).then(|| c.clone()))
                        .collect()
                })
                .collect();
            if r.next_u64().is_multiple_of(3) {
                let j = in_range(&mut r, 0, kn + pn);
                grid[j].iter_mut().for_each(|c| *c = None);
            }
            let lost_rows = grid
                .iter()
                .filter(|row| row.iter().filter(|c| c.is_none()).count() > pl)
                .count();
            let decodable = lost_rows <= pn;
            decodable_cases[usize::from(decodable)] += 1;

            let decoded = check_read_set(&codec, &stripe, &grid, decodable);
            read_set_decoded[usize::from(decoded)] += 1;

            let mut repaired = grid.clone();
            let result = codec.reconstruct(&mut repaired);
            assert_eq!(result.is_ok(), decodable, "case {case}: {result:?}");
            if !decodable {
                assert_eq!(repaired, grid, "case {case}: a refused grid is untouched");
                continue;
            }
            let repaired: Vec<Vec<Vec<u8>>> = repaired
                .into_iter()
                .map(|row| row.into_iter().map(Option::unwrap).collect())
                .collect();
            assert_eq!(repaired, stripe, "case {case}");
            for i in 0..kl + pl {
                let column: Vec<Vec<u8>> = repaired.iter().map(|row| row[i].clone()).collect();
                assert!(codec.network().verify(&column).unwrap(), "column {i}");
            }
            let mask = mask_of(&grid);
            for (j, row) in stripe.iter().enumerate() {
                for (i, chunk) in row.iter().enumerate() {
                    let (bytes, reads) = codec.read_degraded(&grid, j, i).unwrap();
                    assert_eq!(&bytes, chunk, "case {case}: chunk ({j}, {i})");
                    let set = codec.read_set(&mask, &[(j, i)]).unwrap();
                    let others = set.reads().len() - usize::from(mask[j][i]);
                    assert_eq!(reads, others, "case {case}: chunk ({j}, {i})");
                }
            }
        }
    }
    assert!(
        decodable_cases.iter().all(|&n| n > 0),
        "refused/decoded cases drawn: {decodable_cases:?}"
    );
    assert!(
        read_set_decoded.iter().all(|&n| n > 0),
        "read sets refused/decoded: {read_set_decoded:?}"
    );
}

/// Erasures beyond p always error rather than fabricate data.
#[test]
fn rs_never_fabricates() {
    for case in 0..CASES {
        let mut r = case_rng("rs-never-fabricates", case);
        let k = in_range(&mut r, 2, 8);
        let p = in_range(&mut r, 1, 4);
        let salt = r.next_u64();
        let rs = ReedSolomon::new(k, p).unwrap();
        let data = deterministic_data(k, 8, salt);
        let encoded = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        for slot in shards.iter_mut().take(p + 1) {
            *slot = None;
        }
        assert!(rs.reconstruct(&mut shards).is_err());
    }
}
