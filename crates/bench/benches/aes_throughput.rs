//! Criterion: throughput of the three AES shapes, the word-table kernel
//! their warm victim sessions run, one block at a time and in the 64-block
//! batches a collect runs, and PRESENT.

use ciphers::{
    expand_key, present_sbox_image, words_aes_encrypt, words_aes_encrypt_blocks, AesKeySize,
    AesWordTables, BlockCipher, Present80, RamTableSource, ReferenceAes, SboxAes, TTableAes,
    TableImage,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_ciphers(c: &mut Criterion) {
    let key = [7u8; 16];
    let mut group = c.benchmark_group("encrypt_block");

    let mut reference = ReferenceAes::new_128(&key);
    group.bench_function("aes128_reference", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            reference.encrypt_block(black_box(&mut block));
        })
    });

    let mut sbox = SboxAes::new_128(&key, RamTableSource::new(TableImage::sbox().to_vec()));
    group.bench_function("aes128_sbox_table", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            sbox.encrypt_block(black_box(&mut block));
        })
    });

    let mut ttable = TTableAes::new_128(&key, RamTableSource::new(TableImage::te_tables()));
    group.bench_function("aes128_ttable", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            ttable.encrypt_block(black_box(&mut block));
        })
    });

    let keys = expand_key(&key, AesKeySize::Aes128);
    let words = AesWordTables::from_sbox(&TableImage::sbox());
    group.bench_function("aes128_words", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            words_aes_encrypt(&keys, &words, black_box(&mut block));
        })
    });

    // A collect's batch: 64 blocks over the word tables of an S-box with
    // one flipped bit, as a faulted victim's warm session runs them. Its
    // time per iteration over 64 should stay below `aes128_words`: the
    // kernel's gain rests on its shape, and a naive four-lane form once ran
    // at about twice the single-block time.
    let mut faulted = TableImage::sbox().to_vec();
    faulted[0x3a] ^= 0x04;
    let faulted = AesWordTables::from_sbox(&faulted);
    group.bench_function("aes128_words_batch64", |b| {
        let mut blocks = [[0u8; 16]; 64];
        for (i, block) in blocks.iter_mut().enumerate() {
            block[0] = i as u8;
        }
        b.iter(|| {
            words_aes_encrypt_blocks(&keys, &faulted, black_box(&mut blocks));
        })
    });

    let mut present = Present80::new(
        &[7u8; 10],
        RamTableSource::new(present_sbox_image().to_vec()),
    );
    group.bench_function("present80", |b| {
        let mut block = [0u8; 8];
        b.iter(|| {
            present.encrypt_block(black_box(&mut block));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ciphers);
criterion_main!(benches);
