//! A tour of the byte-level erasure codecs: Reed–Solomon, the two-level
//! MLEC codec (paper Fig 2c data path), and the (4,2,2) LRC of Fig 14 —
//! including actual data loss and recovery.
//!
//! Run with: `cargo run --release --example codec_tour`

use mlec_ec::{Lrc, MlecCodec, ReedSolomon};

fn main() {
    println!("Codec tour: encode, lose chunks, repair, verify\n");

    // --- Reed-Solomon (17+3): the paper's local code.
    let rs = ReedSolomon::new(17, 3).unwrap();
    let data: Vec<Vec<u8>> = (0..17)
        .map(|i| format!("local chunk {i:02} of a (17+3) stripe!").into_bytes())
        .collect();
    let encoded = rs.encode(&data).unwrap();
    println!(
        "RS(17+3): encoded 17 data chunks into {} shards",
        encoded.len()
    );
    let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
    shards[2] = None;
    shards[9] = None;
    shards[18] = None; // one parity too
    rs.reconstruct(&mut shards).unwrap();
    assert_eq!(shards[2].as_deref(), Some(&data[2][..]));
    println!("  lost shards 2, 9, 18 -> reconstructed, data verified\n");

    // --- MLEC (2+1)/(2+1): the Fig 2c example, with a lost local stripe.
    let codec = MlecCodec::new(2, 1, 2, 1).unwrap();
    let data: Vec<Vec<u8>> = vec![
        b"a1".to_vec(),
        b"a2".to_vec(),
        b"a3".to_vec(),
        b"a4".to_vec(),
    ];
    let stripe = codec.encode(&data).unwrap();
    println!(
        "MLEC (2+1)/(2+1): {} local stripes x {} chunks each",
        stripe.len(),
        stripe[0].len()
    );
    let mut grid: Vec<Vec<Option<Vec<u8>>>> = stripe
        .iter()
        .map(|row| row.iter().cloned().map(Some).collect())
        .collect();
    // Lose the entire first enclosure (rack R1): a lost local stripe.
    for chunk in &mut grid[0] {
        *chunk = None;
    }
    // Plus a single chunk in row 1: locally recoverable.
    grid[1][1] = None;
    let (local, network) = codec.reconstruct(&mut grid).unwrap();
    println!("  lost row 0 entirely + one chunk of row 1");
    println!("  -> {local} chunk repaired locally, {network} chunks over the network");
    assert_eq!(grid[0][0].as_deref(), Some(&b"a1"[..]));
    println!("  data verified\n");

    // --- LRC (4,2,2): Fig 14.
    let lrc = Lrc::new(4, 2, 2).unwrap();
    let data: Vec<Vec<u8>> = (1..=4).map(|i| format!("a{i}").into_bytes()).collect();
    let chunks = lrc.encode(&data).unwrap();
    println!(
        "LRC(4,2,2): {} chunks (4 data + 2 local + 2 global parities)",
        chunks.len()
    );
    println!(
        "  single-failure repair cost: {} chunks (group) vs 4 for a plain (4+2) RS",
        lrc.single_repair_cost(0)
    );
    let mut slots: Vec<Option<Vec<u8>>> = chunks.iter().cloned().map(Some).collect();
    slots[0] = None; // a1
    slots[2] = None; // a3
    slots[6] = None; // global parity
    lrc.reconstruct(&mut slots).unwrap();
    assert_eq!(slots[0].as_deref(), Some(&b"a1"[..]));
    println!("  lost a1, a3, and a global parity -> reconstructed, data verified");

    // Decodability probing.
    let mut erased = vec![false; 8];
    erased[0] = true;
    erased[1] = true;
    erased[4] = true; // both of group 0's data + its local parity
    erased[6] = true;
    println!(
        "  pattern (a1, a2, local parity 0, global 0) decodable? {}",
        lrc.decodable(&erased)
    );
}
