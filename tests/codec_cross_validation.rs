//! Cross-crate codec validation: the byte-level erasure codecs, the
//! placement layer, and the analytic loss predicates must tell the same
//! story.

use mlec_ec::{Lrc, MlecCodec, ReedSolomon};
use mlec_runner::rng::ChaCha12Rng;

fn random_chunks(rng: &mut ChaCha12Rng, n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| (0..len).map(|_| rng.next_u64() as u8).collect())
        .collect()
}

#[test]
fn paper_default_mlec_codec_survives_its_design_tolerance() {
    // (10+2)/(17+3): any 2 whole local stripes + up to 3 chunks in each
    // other stripe must be recoverable.
    let mut rng = ChaCha12Rng::seed_from_u64(1);
    let codec = MlecCodec::new(10, 2, 17, 3).unwrap();
    let data = random_chunks(&mut rng, 170, 64);
    let stripe = codec.encode(&data).unwrap();
    assert_eq!(stripe.len(), 12);
    assert_eq!(stripe[0].len(), 20);

    let mut grid: Vec<Vec<Option<Vec<u8>>>> = stripe
        .iter()
        .map(|row| row.iter().cloned().map(Some).collect())
        .collect();
    // Kill rows 0 and 5 entirely (2 lost local stripes = p_n tolerated).
    for row in [0, 5] {
        grid[row].iter_mut().for_each(|c| *c = None);
    }
    // And 3 random chunks in every other row (p_l tolerated locally).
    for (j, row) in grid.iter_mut().enumerate() {
        if j == 0 || j == 5 {
            continue;
        }
        for &c in rng.shuffle(20).iter().take(3) {
            row[c] = None;
        }
    }
    let (local, network) = codec.reconstruct(&mut grid).unwrap();
    assert_eq!(local, 10 * 3, "3 chunks per healthy row repaired locally");
    assert_eq!(network, 40, "two full rows over the network");
    for (j, row) in stripe.iter().enumerate() {
        for (i, chunk) in row.iter().enumerate() {
            assert_eq!(grid[j][i].as_ref().unwrap(), chunk, "row {j} col {i}");
        }
    }
}

#[test]
fn mlec_loses_data_exactly_when_pn_plus_1_stripes_lost() {
    let mut rng = ChaCha12Rng::seed_from_u64(2);
    let codec = MlecCodec::new(3, 2, 4, 1).unwrap();
    let data = random_chunks(&mut rng, 12, 16);
    let stripe = codec.encode(&data).unwrap();
    // p_n = 2: losing 3 rows is fatal, 2 is fine.
    for lost_rows in [2usize, 3] {
        let mut grid: Vec<Vec<Option<Vec<u8>>>> = stripe
            .iter()
            .map(|row| row.iter().cloned().map(Some).collect())
            .collect();
        for row in grid.iter_mut().take(lost_rows) {
            for chunk in row.iter_mut() {
                *chunk = None;
            }
        }
        let result = codec.reconstruct(&mut grid);
        if lost_rows <= 2 {
            assert!(result.is_ok(), "{lost_rows} lost rows must recover");
        } else {
            assert!(result.is_err(), "{lost_rows} lost rows must fail");
        }
    }
}

#[test]
fn rs_decode_equals_lrc_decode_when_structures_agree() {
    // An LRC with l=1 local group and r globals contains the same data
    // recovery capability as RS(k, 1+r) for patterns within tolerance.
    let mut rng = ChaCha12Rng::seed_from_u64(3);
    let k = 6;
    let data = random_chunks(&mut rng, k, 32);
    let lrc = Lrc::new(k, 1, 2).unwrap();
    let chunks = lrc.encode(&data).unwrap();
    let mut slots: Vec<Option<Vec<u8>>> = chunks.iter().cloned().map(Some).collect();
    slots[0] = None;
    slots[3] = None;
    slots[6] = None; // the single local parity
    lrc.reconstruct(&mut slots).unwrap();
    for i in 0..k {
        assert_eq!(slots[i].as_deref().unwrap(), &data[i][..]);
    }

    let rs = ReedSolomon::new(k, 3).unwrap();
    let shards = rs.encode(&data).unwrap();
    let mut rs_slots: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
    rs_slots[0] = None;
    rs_slots[3] = None;
    rs_slots[6] = None;
    rs.reconstruct(&mut rs_slots).unwrap();
    for i in 0..k {
        assert_eq!(rs_slots[i].as_deref().unwrap(), &data[i][..]);
    }
}

#[test]
fn lrc_rank_decodability_implies_counting_bound() {
    // The exact rank test can never claim decodability where the
    // information-theoretic counting bound says impossible; and for this MR
    // construction the two must coincide (exhaustive on a small code).
    let lrc = Lrc::new(6, 2, 2).unwrap();
    let n = lrc.total_chunks();
    let mut agreements = 0;
    for mask in 0u32..(1 << n) {
        let erased: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        let rank_ok = lrc.decodable(&erased);
        let count_ok = lrc.decodable_heuristic(&erased);
        if rank_ok {
            assert!(
                count_ok,
                "rank-decodable pattern {mask:b} violates the counting bound"
            );
        }
        if rank_ok == count_ok {
            agreements += 1;
        }
    }
    // The Cauchy-based construction is *near*-maximally-recoverable: the
    // bound is tight on all but a handful of patterns (generic coefficients
    // occasionally produce a singular mixed minor). All weight <= r+1
    // patterns are covered by the ec crate's guaranteed-tolerance tests.
    let total = 1u32 << n;
    assert!(
        agreements as f64 >= total as f64 * 0.995,
        "agreement {agreements}/{total} below near-MR threshold"
    );
}

#[test]
fn codec_chunk_knowledge_matches_analysis_census() {
    // The byte-level MLEC reconstruct's local/network split must match the
    // analytic injected-failure census for the clustered scheme: with
    // p_l + 1 failed chunks per stripe, everything needs network repair.
    let mut rng = ChaCha12Rng::seed_from_u64(4);
    let codec = MlecCodec::new(2, 1, 4, 1).unwrap();
    let data = random_chunks(&mut rng, 8, 8);
    let stripe = codec.encode(&data).unwrap();
    let mut grid: Vec<Vec<Option<Vec<u8>>>> = stripe
        .iter()
        .map(|row| row.iter().cloned().map(Some).collect())
        .collect();
    // p_l + 1 = 2 chunk failures in row 1: a lost local stripe.
    grid[1][0] = None;
    grid[1][2] = None;
    let (local, network) = codec.reconstruct(&mut grid).unwrap();
    assert_eq!(local, 0);
    assert_eq!(network, 2);
}
