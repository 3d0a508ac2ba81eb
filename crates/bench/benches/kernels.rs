//! Tokenizer-kernel microbenchmarks: the SWAR word-at-a-time scan kernels
//! against their byte-at-a-time scalar references, on CSV-shaped buffers.
//!
//! These are the regression tripwires for the hot-path speed pass: every
//! in-situ/JIT CSV scan, the morsel partitioner's newline probe, and the
//! dialect sniffer all bottom out in these kernels, so the SWAR variants
//! must beat the scalar loops on realistic row shapes (field widths of a
//! few bytes to a few dozen — matches every 8-byte word, not every byte).
//! The `rzb_decode` group does the same for the `.rzb` block decoder and
//! its CRC, whose wide paths must beat their `codec::scalar` references.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use raw_formats::csv::kernels::{self, scalar};
use raw_formats::csv::tokenizer::general_next_field;
use raw_formats::csv::{DELIMITER, NEWLINE, QUOTE};
use raw_formats::rzb::{self, codec};

/// A CSV-shaped buffer of roughly `bytes` bytes: mixed narrow and wide
/// fields, an occasional quoted field, one record per line.
fn csv_buffer(bytes: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(bytes + 64);
    let mut i = 0u64;
    while buf.len() < bytes {
        buf.extend_from_slice(i.to_string().as_bytes());
        buf.push(DELIMITER);
        buf.extend_from_slice(b"3.14159");
        buf.push(DELIMITER);
        if i.is_multiple_of(7) {
            buf.push(QUOTE);
            buf.extend_from_slice(b"quoted, with delimiter");
            buf.push(QUOTE);
        } else {
            buf.extend_from_slice(b"a medium width text field");
        }
        buf.push(DELIMITER);
        buf.extend_from_slice(b"tail");
        buf.push(NEWLINE);
        i += 1;
    }
    buf
}

/// Walk the buffer with repeated first-match calls — the tokenizer's access
/// pattern — and fold the match positions so the work cannot be elided.
fn walk<F: Fn(&[u8]) -> Option<usize>>(buf: &[u8], find: F) -> usize {
    let mut pos = 0usize;
    let mut acc = 0usize;
    while let Some(hit) = find(&buf[pos..]) {
        acc ^= pos + hit;
        pos += hit + 1;
    }
    acc
}

fn count_kernels(c: &mut Criterion) {
    let buf = csv_buffer(1 << 20);
    let mut group = c.benchmark_group("kernels_count");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Bytes(buf.len() as u64));
    group.bench_function("swar/count_newlines", |b| {
        b.iter(|| kernels::count_byte(NEWLINE, black_box(&buf)))
    });
    group.bench_function("scalar/count_newlines", |b| {
        b.iter(|| scalar::count_byte(NEWLINE, black_box(&buf)))
    });
    group.bench_function("swar/count_newline_quote", |b| {
        b.iter(|| kernels::count2(NEWLINE, QUOTE, black_box(&buf)))
    });
    group.bench_function("scalar/count_newline_quote", |b| {
        b.iter(|| scalar::count2(NEWLINE, QUOTE, black_box(&buf)))
    });
    group.bench_function("swar/count_dialect3", |b| {
        b.iter(|| kernels::count3(DELIMITER, NEWLINE, QUOTE, black_box(&buf)))
    });
    group.bench_function("scalar/count_dialect3", |b| {
        b.iter(|| scalar::count3(DELIMITER, NEWLINE, QUOTE, black_box(&buf)))
    });
    group.finish();
}

fn match_kernels(c: &mut Criterion) {
    let buf = csv_buffer(1 << 20);
    let mut group = c.benchmark_group("kernels_match");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Bytes(buf.len() as u64));
    group.bench_function("swar/next_newline", |b| {
        b.iter(|| walk(black_box(&buf), |s| kernels::memchr(NEWLINE, s)))
    });
    group.bench_function("scalar/next_newline", |b| {
        b.iter(|| walk(black_box(&buf), |s| scalar::memchr(NEWLINE, s)))
    });
    group.bench_function("swar/next_field_edge", |b| {
        b.iter(|| walk(black_box(&buf), |s| kernels::memchr3(DELIMITER, NEWLINE, QUOTE, s)))
    });
    group.bench_function("scalar/next_field_edge", |b| {
        b.iter(|| walk(black_box(&buf), |s| scalar::memchr3(DELIMITER, NEWLINE, QUOTE, s)))
    });
    group.finish();
}

fn tokenizer_walk(c: &mut Criterion) {
    let buf = csv_buffer(1 << 20);
    let mut group = c.benchmark_group("kernels_tokenize");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Bytes(buf.len() as u64));
    group.bench_function("general_next_field/full_file", |b| {
        b.iter(|| {
            let buf = black_box(&buf[..]);
            let mut pos = 0usize;
            let mut fields = 0usize;
            while pos < buf.len() {
                let (span, next, _record_end) = general_next_field(buf, pos);
                fields += usize::from(span.end >= span.start);
                pos = next;
            }
            fields
        })
    });
    group.finish();
}

fn rzb_codec(c: &mut Criterion) {
    let buf = csv_buffer(1 << 20);
    let mut group = c.benchmark_group("rzb_decode");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    // Throughput in *uncompressed* bytes — the number a scan consumes per
    // second — so decode speed is directly comparable to the tokenizer
    // kernels above it in the pipeline.
    group.throughput(Throughput::Bytes(buf.len() as u64));
    for block in [64 << 10, 256 << 10] {
        let packed = rzb::compress(&buf, block);
        let index = rzb::parse_index(&packed).expect("valid container");
        group.bench_function(format!("decompress_all/block_{}k", block >> 10), |b| {
            b.iter(|| rzb::decompress_all(black_box(&packed), &index, None).expect("clean decode"))
        });
        group.bench_function(format!("compress/block_{}k", block >> 10), |b| {
            b.iter(|| rzb::compress(black_box(&buf), block))
        });
    }
    // The two halves of a block decode, wide path against the byte-loop
    // reference: LZ inflate over every 256 KiB block, then the CRC.
    let block = 256 << 10;
    let packed = rzb::compress(&buf, block);
    let index = rzb::parse_index(&packed).expect("valid container");
    let mut out = vec![0u8; buf.len()];
    type Decode = fn(&[u8], &mut [u8]) -> Result<(), codec::CodecError>;
    let decoders: [(&str, Decode); 2] =
        [("wide", codec::decode_block), ("scalar", codec::scalar::decode_block)];
    for (name, decode) in decoders {
        group.bench_function(format!("{name}/decode_block"), |b| {
            b.iter(|| {
                for i in 0..index.block_count() {
                    let payload = &packed[index.comp_range(i)];
                    decode(black_box(payload), &mut out[index.block_span(i)])
                        .expect("clean decode");
                }
            })
        });
    }
    group.bench_function("slicing16/crc32", |b| b.iter(|| codec::crc32(black_box(&buf))));
    group.bench_function("scalar/crc32", |b| b.iter(|| codec::scalar::crc32(black_box(&buf))));
    group.finish();
}

criterion_group!(benches, count_kernels, match_kernels, tokenizer_walk, rzb_codec);
criterion_main!(benches);
