//! Seeded mutation fuzz of segment framing, the block decompressor and
//! the directory and stored-field parsers (`json_mutation.rs` style:
//! std-only, fixed printed seed, its own test binary because it installs
//! a global allocator — and therefore one test).
//!
//! A small real segment — a 12-report ingest, flushed — is taken apart
//! into its four regions' contents and mutated three ways, each written
//! back as a file whose CRCs are valid so the mutant gets past them:
//!
//! * **content** — one region's content is flipped, truncated or
//!   spliced and the file re-framed by `SegmentWriter`. The segment
//!   reader must hand back exactly the framed content; `read_segment` and
//!   the streaming directory / stored-field copy must agree on whether
//!   the documents read back, and when only an opaque region (postings,
//!   facets) changed they are the original documents;
//! * **block** — one compressed block's bytes (or its declared length)
//!   are mutated and re-checksummed, which reaches the decompressor's
//!   token stream; a block that decompresses reads back as what
//!   `block::decompress` makes of it;
//! * **framing** — any byte between the header and the footer is
//!   mutated and only the footer CRC recomputed, which reaches the block
//!   headers' lengths and the regions' end markers.
//!
//! Every mutant must come back as a typed error or a result — never a
//! panic, a hang, or a single allocation beyond a fixed bound (a few
//! blocks; the counts in the file are untrusted). Hand-built files whose
//! ends are in the wrong place — a region without its end marker, a byte
//! after the fourth region's, a directory that counts 5 documents and
//! ends after 2 entries — must be refused as corruption the same way.

use create_core::{Create, CreateConfig};
use create_corpus::{CorpusConfig, Generator};
use create_storage::block;
use create_storage::checksum::crc32;
use create_storage::manifest::{segment_file_name, shard_dir_name};
use create_storage::segment::{
    copy_directory, copy_stored, read_segment, Region, SegmentReader, SegmentWriter, BLOCK_TARGET,
    FORMAT, REGIONS,
};
use create_storage::StorageError;
use create_util::{varint, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

const SEED: u64 = 0x5E6_F022;
/// Mutants per kind.
const MUTANTS: u64 = 800;
const REPORTS: usize = 12;
/// Largest single request reading a mutant may make: a region of the
/// segment read whole (tens of KB here) at its growth doubling, or one
/// block's worth of buffer — whichever a mutant pushes to — with room to
/// spare. A count taken on trust asks for gigabytes.
const MAX_REQUEST_BYTES: usize = 4 * BLOCK_TARGET;
const REGION_ORDER: [Region; REGIONS] = [
    Region::Directory,
    Region::Stored,
    Region::Postings,
    Region::Facets,
];

/// `System`, remembering the largest single request.
struct MaxRequest;

static MAX_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged, so `System`'s guarantees are this allocator's; the only
// addition is a relaxed atomic max that touches no allocator state.
unsafe impl GlobalAlloc for MaxRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        MAX_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        MAX_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: MaxRequest = MaxRequest;

/// The four region contents of the segment a flushed `REPORTS`-report
/// ingest sealed.
fn sealed_regions(scratch: &Path) -> [Vec<u8>; REGIONS] {
    let dir = scratch.join("data");
    let reports = Generator::new(CorpusConfig {
        num_reports: REPORTS,
        seed: SEED,
        ..Default::default()
    })
    .generate();
    let config = CreateConfig { shards: 1 };
    let system = Create::open(&dir, config).expect("open a fresh directory");
    system.ingest_gold_batch(&reports, 1).expect("ingest");
    system.flush().expect("flush");
    let path = dir
        .join(create_storage::STORAGE_DIR)
        .join(shard_dir_name(0))
        .join(segment_file_name(0));
    let segment = SegmentReader::open(&path).expect("open the sealed segment");
    let regions = REGION_ORDER.map(|which| segment.read_region(which).expect("read a region"));
    drop(system);
    regions
}

fn mutate(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + rng.below(3) {
        if out.is_empty() {
            break;
        }
        let at = rng.below(out.len());
        match rng.below(6) {
            0 => out[at] ^= 1 << rng.below(8),
            1 => out[at] = rng.below(256) as u8,
            // The values lengths, counts and token tags are most
            // sensitive to.
            2 => out[at] = *rng.choose(&[0x00, 0x01, 0x7f, 0x80, 0xff]),
            3 => out.truncate(at),
            // Splice: a run from elsewhere overwrites, is inserted at, or
            // is cut out of `at`.
            kind => {
                let from = rng.below(out.len());
                let run = out[from..(from + 1 + rng.below(24)).min(out.len())].to_vec();
                let end = (at + run.len()).min(out.len());
                match (kind, rng.chance(0.5)) {
                    (4, true) => out[at..end].copy_from_slice(&run[..end - at]),
                    (4, false) => drop(out.splice(at..at, run)),
                    _ => drop(out.drain(at..end)),
                }
            }
        }
    }
    out
}

/// Frames `regions` with `SegmentWriter`: valid block and footer CRCs
/// whatever the content.
fn frame(path: &Path, regions: &[Vec<u8>; REGIONS]) {
    SegmentWriter::write_file(path, |out| {
        for content in regions {
            out.next_region()?;
            out.write_all(content)?;
        }
        Ok(())
    })
    .expect("frame");
}

/// A file image from blocks given as `(declared length, compressed
/// bytes)` per region, each block's CRC and the footer computed.
fn assemble(regions: &[Vec<(u64, Vec<u8>)>; REGIONS]) -> Vec<u8> {
    image(&regions.each_ref().map(|blocks| framed_region(blocks)))
}

/// One region's framing: each block's header, CRC and bytes, then the
/// end marker.
fn framed_region(blocks: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut region = Vec::new();
    for (declared, packed) in blocks {
        varint::write_u64(&mut region, *declared);
        varint::write_u64(&mut region, packed.len() as u64);
        region.extend_from_slice(&crc32(packed).to_le_bytes());
        region.extend_from_slice(packed);
    }
    region.push(0);
    region
}

/// A file image of framed regions, however many, behind the header.
fn image(regions: &[Vec<u8>]) -> Vec<u8> {
    let mut image = b"CSEG".to_vec();
    image.extend_from_slice(&FORMAT.to_le_bytes());
    image.extend(regions.iter().flatten());
    seal(image)
}

/// Appends the footer: the CRC of everything before it and the magic.
fn seal(mut image: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&image);
    image.extend_from_slice(&crc.to_le_bytes());
    image.extend_from_slice(b"GESC");
    image
}

/// What the segment reader makes of the file: every region's content,
/// read in small pieces so block boundaries fall mid-read.
fn read_regions(path: &Path) -> Result<[Vec<u8>; REGIONS], StorageError> {
    let segment = SegmentReader::open(path)?;
    let mut regions: [Vec<u8>; REGIONS] = Default::default();
    for (content, which) in regions.iter_mut().zip(REGION_ORDER) {
        let mut reader = segment.region(which);
        let mut piece = [0u8; 7];
        loop {
            let n = reader.read(&mut piece).map_err(|e| segment.error(e))?;
            if n == 0 {
                break;
            }
            content.extend_from_slice(&piece[..n]);
        }
    }
    Ok(regions)
}

/// The streaming directory and stored-field copy of one file, into a
/// writer dropped unfinished (which removes its file).
fn copy_documents(path: &Path) -> Result<(), StorageError> {
    let inputs = [SegmentReader::open(path)?];
    let mut out = SegmentWriter::create(&path.with_extension("copy")).expect("create");
    out.next_region().expect("a first region");
    let ranges = copy_directory(&inputs, &mut out)?;
    out.next_region().expect("a second region");
    copy_stored(&inputs, &ranges, &mut out)
}

/// Runs `check` on every mutant `make` writes to `path`, measuring the
/// largest request and catching panics. Returns how many were accepted.
fn fuzz(
    what: &str,
    path: &Path,
    make: impl Fn(&mut Rng) -> Vec<u8>,
    check: impl Fn(&str) -> bool,
) -> u32 {
    let mut accepted = 0;
    for i in 1..=MUTANTS {
        let label = format!("seed {SEED:#x} {what} mutant {i}");
        let mut rng = Rng::seed_from_u64(SEED + i);
        std::fs::write(path, make(&mut rng)).expect("write the mutant");
        MAX_REQUEST.store(0, Ordering::Relaxed);
        // What `check` captures is only read, so observing it after a
        // panic is fine.
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&label)))
            .unwrap_or_else(|_| panic!("{label}: reading the mutant panicked"));
        let reserved = MAX_REQUEST.load(Ordering::Relaxed);
        assert!(
            reserved <= MAX_REQUEST_BYTES,
            "{label}: one request of {reserved} bytes"
        );
        accepted += u32::from(ok);
    }
    println!("{accepted} of {MUTANTS} {what} mutants read back");
    accepted
}

/// Writes a hand-built `image` to `path`: `read_segment` and the
/// streaming document copy must each refuse it as corruption, with no
/// panic and no request past the bound.
fn refused(what: &str, path: &Path, image: &[u8]) {
    std::fs::write(path, image).expect("write the image");
    MAX_REQUEST.store(0, Ordering::Relaxed);
    let read = || (read_segment(path).map(drop), copy_documents(path));
    let (read, copied) = std::panic::catch_unwind(read)
        .unwrap_or_else(|_| panic!("hand-built {what}: reading it panicked"));
    for result in [read, copied] {
        match result {
            Err(StorageError::Corrupt { message, .. }) => println!("hand-built {what}: {message}"),
            other => panic!("hand-built {what}: {other:?}, not corruption"),
        }
    }
    let reserved = MAX_REQUEST.load(Ordering::Relaxed);
    assert!(
        reserved <= MAX_REQUEST_BYTES,
        "hand-built {what}: one request of {reserved} bytes"
    );
}

fn corrupt_or<T>(label: &str, result: Result<T, StorageError>) -> Option<T> {
    match result {
        Ok(value) => Some(value),
        Err(StorageError::Corrupt { .. }) => None,
        Err(e) => panic!("{label}: an I/O error, not corruption: {e}"),
    }
}

#[test]
fn mutated_segments_read_back_or_are_corrupt() {
    println!("segment_mutation seed {SEED:#x}");
    let scratch =
        std::env::temp_dir().join(format!("create-segment-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let regions = sealed_regions(&scratch);
    let path = scratch.join("mutant.seg");

    frame(&path, &regions);
    let original = read_segment(&path).expect("the valid segment reads");
    assert_eq!(original.docs.len(), REPORTS);
    assert!(
        regions.iter().all(|r| r.len() < BLOCK_TARGET),
        "one block a region"
    );

    // Content: the reader returns exactly what was framed, and the
    // documents read back by both parsers or by neither.
    let content = fuzz(
        "content",
        &path,
        |rng| {
            let mut mutant = regions.clone();
            let which = rng.below(REGIONS);
            mutant[which] = mutate(rng, &regions[which]);
            frame(&path, &mutant);
            std::fs::read(&path).unwrap()
        },
        |label| {
            let framed = read_regions(&path).expect("valid framing reads");
            let read = corrupt_or(label, read_segment(&path));
            let copied = corrupt_or(label, copy_documents(&path));
            assert_eq!(
                read.is_some(),
                copied.is_some(),
                "{label}: the parsers disagree"
            );
            let Some(data) = read else { return false };
            assert_eq!(
                (&data.postings, &data.facets),
                (&framed[2], &framed[3]),
                "{label}"
            );
            if framed[..2] == regions[..2] {
                assert_eq!(data.docs, original.docs, "{label}: other documents");
            }
            true
        },
    );

    // Block: one compressed block's bytes or declared length mutated.
    let blocks: [Vec<(u64, Vec<u8>)>; REGIONS] = regions.each_ref().map(|content| {
        content
            .chunks(BLOCK_TARGET)
            .map(|chunk| (chunk.len() as u64, block::compress(chunk)))
            .collect()
    });
    frame(&path, &regions);
    let valid = assemble(&blocks);
    assert!(
        std::fs::read(&path).unwrap() == valid,
        "assembled like the writer"
    );
    let block_mutants = fuzz(
        "block",
        &path,
        |rng| {
            let mut mutant = blocks.clone();
            let which = rng.below(REGIONS);
            if let Some((declared, packed)) = mutant[which].first_mut() {
                if rng.chance(0.2) {
                    *declared = rng.below(BLOCK_TARGET + 2) as u64;
                } else {
                    *packed = mutate(rng, packed);
                }
            }
            assemble(&mutant)
        },
        |label| {
            let Some(read) = corrupt_or(label, read_regions(&path)) else {
                return false;
            };
            let image = std::fs::read(&path).unwrap();
            // What the decompressor makes of each block, on its own.
            for (content, blocks) in read.iter().zip(reassembled(&image)) {
                let expected: Vec<u8> = blocks
                    .iter()
                    .flat_map(|(declared, packed)| {
                        block::decompress(packed, *declared as usize).expect("it read back")
                    })
                    .collect();
                assert_eq!(content, &expected, "{label}");
            }
            let _ = corrupt_or(label, read_segment(&path));
            true
        },
    );

    // Framing: any byte between header and footer, the footer re-sealed.
    fuzz(
        "framing",
        &path,
        |rng| {
            let body = mutate(rng, &valid[8..valid.len() - 8]);
            let mut image = valid[..8].to_vec();
            image.extend_from_slice(&body);
            seal(image)
        },
        |label| {
            let read = corrupt_or(label, read_regions(&path)).is_some();
            let _ = corrupt_or(label, read_segment(&path));
            let _ = corrupt_or(label, copy_documents(&path));
            read
        },
    );

    // Hand-built: ends in the wrong place.
    let framed = blocks.each_ref().map(|blocks| framed_region(blocks));
    for missing in 0..REGIONS {
        let mut regions = framed.clone();
        regions[missing].pop();
        let what = format!("region {missing} without its end marker");
        refused(&what, &path, &image(&regions));
    }
    let fifth = [&framed[..], &[vec![0]]].concat();
    refused("a byte after the fourth region", &path, &image(&fifth));
    let mut directory = vec![5];
    for (ordinal, id) in [(0, b"pmid:1"), (1, b"pmid:2")] {
        directory.extend_from_slice(&[ordinal, 6]);
        directory.extend_from_slice(id);
    }
    frame(
        &path,
        &[directory, b"\x02{}\x02{}".to_vec(), vec![], vec![]],
    );
    let short = std::fs::read(&path).unwrap();
    refused("a directory of 5 docs with 2 entries", &path, &short);
    std::fs::remove_dir_all(&scratch).unwrap();

    // Value-only mutations must survive, or the fuzz exercises nothing
    // past the first check. (A framing mutant almost always lands in a
    // block's body and fails its CRC: it is there for the few that hit a
    // header.)
    for (what, accepted) in [("content", content), ("block", block_mutants)] {
        assert!(
            accepted > MUTANTS as u32 / 20,
            "only {accepted} {what} mutants read back"
        );
    }
}

/// The blocks of a file image whose framing reads: per region, each
/// block's declared length and compressed bytes.
fn reassembled(image: &[u8]) -> Vec<Vec<(u64, Vec<u8>)>> {
    let mut pos = 8;
    (0..REGIONS)
        .map(|_| {
            let mut blocks = Vec::new();
            loop {
                let declared = varint::read_u64(image, &mut pos).unwrap();
                if declared == 0 {
                    break blocks;
                }
                let len = varint::read_u64(image, &mut pos).unwrap() as usize;
                pos += 4;
                blocks.push((declared, image[pos..pos + len].to_vec()));
                pos += len;
            }
        })
        .collect()
}
