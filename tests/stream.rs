//! Integration tests for the chunked streaming container: round-trips
//! over arbitrary bytes, corruption detection (truncation and bit flips),
//! random-access equivalence, ledger attribution of range reads, and the
//! blockwise approximation bound against whole-buffer LZ1.

use pardict::prelude::*;
use pardict::stream::{self, compress_stream, decompress_stream, is_container, StreamError};
use pardict::workloads::markov_text;
use proptest::prelude::*;

fn pack(data: &[u8], block_size: usize) -> Vec<u8> {
    let pram = Pram::seq();
    let cfg = StreamConfig {
        block_size,
        max_in_flight: 4,
    };
    compress_stream(&pram, &mut &data[..], Vec::new(), &cfg)
        .unwrap()
        .0
}

proptest! {
    /// Arbitrary bytes (NULs included) at arbitrary block sizes round-trip
    /// byte-identically through both decoders.
    #[test]
    fn container_roundtrips_arbitrary_bytes(
        data in prop::collection::vec(any::<u8>(), 0..600),
        block_size in 1usize..300,
    ) {
        let packed = pack(&data, block_size);
        prop_assert!(is_container(&packed) );

        let pram = Pram::seq();
        let (streamed, summary) =
            decompress_stream(&pram, &mut &packed[..], Vec::new()).unwrap();
        prop_assert_eq!(&streamed, &data);
        prop_assert!(summary.issues.is_empty());

        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let (seeked, issues) = rdr.read_all(&pram).unwrap();
        prop_assert_eq!(&seeked, &data);
        prop_assert!(issues.is_empty());
    }

    /// Truncating the container anywhere must break the seekable open and
    /// never let the streaming decoder return wrong data silently.
    #[test]
    fn truncation_never_passes_silently(
        data in prop::collection::vec(any::<u8>(), 1..400),
        block_size in 1usize..64,
        cut_frac in 0usize..10_000,
    ) {
        let packed = pack(&data, block_size);
        let cut = cut_frac % packed.len(); // strictly shorter than full
        let sliced = &packed[..cut];
        prop_assert!(StreamReader::open(std::io::Cursor::new(sliced)).is_err());
        let pram = Pram::seq();
        match decompress_stream(&pram, &mut &sliced[..], Vec::new()) {
            Err(_) => {}
            Ok((out, summary)) => {
                // Acceptable only when the cut hit the index region (data
                // intact) or the loss was reported per block.
                prop_assert!(
                    out == data || !summary.issues.is_empty() || out.len() < data.len(),
                    "cut {} of {} produced silent wrong data", cut, packed.len()
                );
                if out != data {
                    prop_assert!(
                        !summary.issues.is_empty() || out.len() < data.len(),
                        "wrong data with no report"
                    );
                }
            }
        }
    }

    /// Any single-bit flip anywhere in the container is either rejected
    /// structurally, reported as a block issue, or provably harmless
    /// (identical output) — never silently wrong data.
    #[test]
    fn single_bit_flips_never_pass_silently(
        data in prop::collection::vec(any::<u8>(), 1..400),
        block_size in 1usize..64,
        pos_frac in 0usize..10_000,
        bit in 0usize..8,
    ) {
        let mut packed = pack(&data, block_size);
        let pos = pos_frac % packed.len();
        packed[pos] ^= 1 << bit;

        let pram = Pram::seq();
        match StreamReader::open(std::io::Cursor::new(&packed)) {
            Err(_) => {} // structural detection
            Ok(mut rdr) => {
                let (out, issues) = rdr.read_all(&pram).unwrap();
                prop_assert!(
                    !issues.is_empty() || out == data,
                    "seekable: flipped bit {} at {} passed silently", bit, pos
                );
            }
        }
        match decompress_stream(&pram, &mut &packed[..], Vec::new()) {
            Err(_) => {}
            Ok((out, summary)) => prop_assert!(
                !summary.issues.is_empty() || out == data,
                "streaming: flipped bit {} at {} passed silently", bit, pos
            ),
        }
    }

    /// `read_range` must equal the same slice of the full decompression,
    /// for every range — the `cat --range` correctness contract.
    #[test]
    fn range_reads_equal_full_decode_slices(
        data in prop::collection::vec(any::<u8>(), 0..500),
        block_size in 1usize..48,
        a_frac in 0usize..10_000,
        b_frac in 0usize..10_000,
    ) {
        let packed = pack(&data, block_size);
        let n = data.len() as u64;
        let (mut start, mut end) = (
            a_frac as u64 % (n + 1),
            b_frac as u64 % (n + 1),
        );
        if start > end {
            std::mem::swap(&mut start, &mut end);
        }
        let pram = Pram::seq();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let got = rdr.read_range(&pram, start, end).unwrap();
        prop_assert_eq!(&got, &data[start as usize..end as usize]);
    }
}

/// Build a valid token stream from arbitrary phrase choices: copies read
/// only bytes already written, and a copy longer than its distance
/// overlaps itself. Returns the tokens and their expanded length.
fn valid_tokens(phrases: &[(bool, u32, u32, u8)]) -> (Vec<Token>, usize) {
    let mut tokens = Vec::new();
    let mut expanded = 0u32;
    for &(is_copy, src_frac, len, byte) in phrases {
        if is_copy && expanded > 0 {
            let src = expanded - 1 - src_frac % expanded;
            tokens.push(Token::Copy { src, len });
            expanded += len;
        } else {
            tokens.push(Token::Literal(byte));
            expanded += 1;
        }
    }
    (tokens, expanded as usize)
}

proptest! {
    /// The serving-lane decoder (one bounded copy loop) agrees with the
    /// Theorem 4.3 paper lane and the reference decoder on every valid
    /// token stream, self-overlapping copies included — directly and
    /// through `decode_block` — and every claimed length other than the
    /// true expansion is refused as a length mismatch.
    #[test]
    fn copy_loop_equals_paper_lane_and_refuses_wrong_lengths(
        phrases in prop::collection::vec((any::<bool>(), 0u32..64, 1u32..40, any::<u8>()), 0..60),
        off in 1usize..100,
        seed in 0u64..1000,
    ) {
        use pardict::compress::{copy_decode, decode_naive, encode_tokens};
        use pardict::stream::{decode_block, format::BlockEntry, IssueKind, METHOD_LZ1};
        let (tokens, n) = valid_tokens(&phrases);
        let pram = Pram::seq();
        let paper = lz1_decompress(&pram, &tokens, seed);
        prop_assert_eq!(paper.len(), n);
        prop_assert_eq!(&decode_naive(&tokens), &paper);
        prop_assert_eq!(copy_decode(&tokens, n).as_ref(), Some(&paper));

        let payload = encode_tokens(&tokens);
        let entry = |raw_len: usize| BlockEntry {
            offset: 0,
            raw_len: raw_len as u32,
            comp_len: payload.len() as u32,
            crc: pardict::core::crc32(&payload),
            method: METHOD_LZ1,
        };
        let (got, cost) = pram.metered(|p| decode_block(p, 0, &entry(n), payload.clone()));
        prop_assert_eq!(got.unwrap(), paper);
        // Checksum pass plus one copy loop: both linear in the block.
        prop_assert_eq!(cost.work, (payload.len() + n) as u64);

        for wrong in [n + off, n.saturating_sub(off)] {
            if wrong == n {
                continue;
            }
            prop_assert!(copy_decode(&tokens, wrong).is_none());
            let issue = decode_block(&pram, 0, &entry(wrong), payload.clone()).unwrap_err();
            prop_assert_eq!(issue.kind, IssueKind::LengthMismatch);
        }
    }
}

/// A flip inside one specific block's payload must name that block.
#[test]
fn payload_flip_reports_the_exact_block() {
    let data: Vec<u8> = (0..1000u32)
        .flat_map(|i| [(i % 250 + 1) as u8, b'q'])
        .collect();
    let block_size = 256; // 8 blocks of 2000 bytes
    let mut packed = pack(&data, block_size);

    // Locate block 5's payload via the clean index, then flip its first byte.
    let target = {
        let rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let e = rdr.index().entries[5];
        assert!(e.comp_len > 0);
        e.offset as usize + stream::format::RECORD_HEADER_LEN
    };
    packed[target] ^= 0x01;

    let pram = Pram::seq();
    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
    let (out, issues) = rdr.read_all(&pram).unwrap();
    assert_eq!(issues.len(), 1);
    assert_eq!(issues[0].index, 5, "wrong block named: {:?}", issues[0]);
    assert_eq!(
        out.len() as u64 + u64::from(issues[0].raw_len),
        data.len() as u64
    );

    // The other seven blocks must still be individually readable.
    for i in (0..8).filter(|&i| i != 5) {
        assert!(rdr.read_block(&pram, i).is_ok(), "block {i} unreadable");
    }
    assert!(matches!(
        rdr.read_block(&pram, 5),
        Err(StreamError::CorruptBlock { index: 5, .. })
    ));
}

/// Range reads must be charged block-local work on the ledger — the
/// work-attribution proof that `cat --range` decodes only covering blocks.
#[test]
fn range_read_work_is_block_local() {
    let data = markov_text(0x5EED_CAFE, 64 * 1024, Alphabet::dna());
    let packed = pack(&data, 4096); // 16 blocks
    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();

    let pram_full = Pram::seq();
    let (_, full) = pram_full.metered(|p| rdr.read_all(p).unwrap());
    let pram_range = Pram::seq();
    let (slice, ranged) = pram_range.metered(|p| rdr.read_range(p, 10_000, 11_000).unwrap());
    assert_eq!(slice, &data[10_000..11_000]);
    assert!(
        ranged.work * 8 < full.work,
        "one-block range read must cost a fraction of a full decode: {} vs {}",
        ranged.work,
        full.work
    );
}

/// On a realistic corpus spanning ≥4 blocks, the blockwise container stays
/// within 15% of the whole-buffer LZ1 size — the Fischer et al.-style
/// approximation bound the pipeline is allowed to pay for parallelism.
#[test]
fn approximation_ratio_within_15_percent() {
    let text = markov_text(0xAB5_712, 128 * 1024, Alphabet::dna());
    let cfg = StreamConfig::with_block_size(32 * 1024); // 4 blocks
    let pram = Pram::par();
    let (streamed, whole) = stream::approximation_sizes(&pram, &text, &cfg);
    assert!(
        (streamed as f64) <= (whole as f64) * 1.15,
        "blockwise {streamed} B vs whole-buffer {whole} B exceeds 15%"
    );
}

/// `slice_container` edge cases: empty ranges are rejected (in block
/// units, with the block count in the error), a single-block slice is a
/// standalone container decoding exactly that block, and a slice over
/// data whose length is an exact multiple of the block size — every
/// block full, the range ending on the final boundary — round-trips.
#[test]
fn slice_container_edge_cases() {
    use pardict::stream::slice_container;
    let pram = Pram::seq();
    let decode = |bytes: &[u8]| {
        let (out, summary) = decompress_stream(&pram, &mut &bytes[..], Vec::new()).unwrap();
        assert!(summary.issues.is_empty());
        out
    };

    // 1000 bytes at block size 250: four blocks, all exactly full, so
    // the container's "last block may be short" invariant is exercised
    // at its boundary (the last block is not short).
    let data = markov_text(0x51_1CE, 1000, Alphabet::lowercase());
    let packed = pack(&data, 250);

    // Empty ranges — both degenerate (a..a) and inverted-by-zero (0..0)
    // — are errors naming block units, not silent empty containers.
    for empty in [0..0, 2..2, 4..4] {
        match slice_container(&packed, empty.clone()) {
            Err(StreamError::RangeOutOfBounds { start, end, len }) => {
                assert_eq!((start, end), (empty.start as u64, empty.end as u64));
                assert_eq!(len, 4, "len must be the block count");
            }
            other => panic!("empty range {empty:?} must be rejected, got {other:?}"),
        }
    }
    // A range past the block count is out of bounds, not clamped.
    assert!(matches!(
        slice_container(&packed, 3..5),
        Err(StreamError::RangeOutOfBounds { .. })
    ));

    // Single-block ranges: each is a valid standalone container holding
    // exactly that block's bytes.
    for i in 0..4 {
        let one = slice_container(&packed, i..i + 1).unwrap();
        assert!(is_container(&one), "block {i} slice must be a container");
        assert_eq!(decode(&one), &data[i * 250..(i + 1) * 250]);
    }

    // Range ending exactly on the final block boundary: the slice is the
    // tail of the data, and slicing the full range reproduces the data.
    assert_eq!(
        decode(&slice_container(&packed, 1..4).unwrap()),
        &data[250..]
    );
    assert_eq!(decode(&slice_container(&packed, 0..4).unwrap()), data);

    // Same boundary case when the original last block IS short: a range
    // ending just before it stops at the boundary of full blocks.
    let ragged = markov_text(0x51_1CF, 1001, Alphabet::lowercase());
    let packed = pack(&ragged, 250); // 5 blocks, last holds 1 byte
    assert_eq!(
        decode(&slice_container(&packed, 2..4).unwrap()),
        &ragged[500..1000]
    );
    assert_eq!(
        decode(&slice_container(&packed, 4..5).unwrap()),
        &ragged[1000..]
    );
}

/// Seq and Par pipelines produce identical containers and identical ledger
/// charges — the simulator invariant extended to the new subsystem.
#[test]
fn stream_output_is_mode_independent() {
    let data = markov_text(0xD1CE, 20_000, Alphabet::lowercase());
    let cfg = StreamConfig {
        block_size: 2048,
        max_in_flight: 4,
    };
    let seq = Pram::seq();
    let par = Pram::par();
    let ((a, sa), ca) =
        seq.metered(|p| compress_stream(p, &mut &data[..], Vec::new(), &cfg).unwrap());
    let ((b, sb), cb) =
        par.metered(|p| compress_stream(p, &mut &data[..], Vec::new(), &cfg).unwrap());
    assert_eq!(a, b);
    assert_eq!(ca, cb);
    assert_eq!(sa.blocks, sb.blocks);
}
