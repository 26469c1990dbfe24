//! Criterion microbenches for the cryptographic substrate — the modern
//! analogue of the paper's CryptoLib calibration (§7.2: DES-CBC 549 kB/s,
//! MD5 7060 kB/s on a Pentium 133).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fbs_crypto::dh::{DhGroup, PrivateValue};
use fbs_crypto::{
    crc32, des, keyed_digest, md5, poly1305, sha1, Bbs, ChaCha20, CipherSuite, Des, DesMode, Lcg64,
    Poly1305,
};
use std::sync::Arc;

fn bench_ciphers(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    let buf = vec![0xA5u8; 64 * 1024];
    let key = Des::new(b"benchkey");
    g.throughput(Throughput::Bytes(buf.len() as u64));
    for mode in [DesMode::Cbc, DesMode::Ecb, DesMode::Cfb, DesMode::Ofb] {
        g.bench_function(format!("encrypt-64k-{mode:?}"), |b| {
            b.iter(|| des::encrypt(&key, 0xDEAD_BEEF, mode, black_box(&buf)))
        });
    }
    g.bench_function("decrypt-64k-Cbc", |b| {
        let ct = des::encrypt(&key, 0xDEAD_BEEF, DesMode::Cbc, &buf);
        b.iter(|| des::decrypt(&key, 0xDEAD_BEEF, DesMode::Cbc, black_box(&ct), buf.len()))
    });
    g.finish();
}

fn bench_hashes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    let buf = vec![0xA5u8; 64 * 1024];
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("md5-64k", |b| b.iter(|| md5::md5(black_box(&buf))));
    g.bench_function("sha1-64k", |b| b.iter(|| sha1::sha1(black_box(&buf))));
    g.bench_function("keyed-md5-64k", |b| {
        b.iter(|| keyed_digest(b"flow-key", &[black_box(&buf)]))
    });
    g.bench_function("crc32-64k", |b| b.iter(|| crc32(black_box(&buf))));
    // One padded block: the shape of each of the two MD5s that expand an
    // AEAD flow key into its ChaCha20 key (16-byte key + 11-byte tag).
    let short = [0x5Au8; 27];
    g.throughput(Throughput::Bytes(short.len() as u64));
    g.bench_function("md5-1block", |b| b.iter(|| md5::md5(black_box(&short))));
    // Two such digests as the lanes of one two-lane MD5: what an AEAD
    // flow key's ChaCha20 expansion costs. Compare with two md5-1block.
    let other = [0xA5u8; 27];
    g.bench_function("md5x2-1block", |b| {
        b.iter(|| {
            let mut h = md5::Md5x2::new();
            h.update([black_box(&short[..]), black_box(&other[..])]);
            h.finalize()
        })
    });
    g.bench_function("sha1-1block", |b| b.iter(|| sha1::sha1(black_box(&short))));
    g.finish();
}

fn bench_aead(c: &mut Criterion) {
    let mut g = c.benchmark_group("aead");
    let key = [0x5Au8; 32];
    let nonce = [0x3Cu8; 12];
    for len in [64usize, 1400] {
        let msg = vec![0xA5u8; len];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("poly1305-{len}"), |b| {
            b.iter(|| poly1305(&key, &[black_box(&msg)]))
        });
    }
    let mut body = vec![0xA5u8; 1400];
    g.throughput(Throughput::Bytes(body.len() as u64));
    g.bench_function("chacha20-1400", |b| {
        b.iter(|| ChaCha20::new(&key, &nonce).xor_keystream(1, black_box(&mut body)))
    });
    // The shape `seal_core` runs per AEAD datagram: keystream from block
    // 1, then a tag keyed from block 0 over the 9-byte suite | confounder
    // | timestamp prefix and the ciphertext.
    let prefix = [2u8, 0, 0, 0, 7, 0, 1, 0xE2, 0x40];
    g.bench_function("seal-1400", |b| {
        b.iter(|| {
            let cc = ChaCha20::new(&key, &nonce);
            cc.xor_keystream(1, black_box(&mut body));
            let mut p = Poly1305::new(&cc.poly1305_key());
            p.update(&prefix);
            p.update(&body);
            p.finalize()
        })
    });
    g.finish();
}

fn bench_keying(c: &mut Criterion) {
    let mut g = c.benchmark_group("keying");
    // The expensive once-per-pair operation: a modexp in the 768-bit
    // oakley1 group, and in the 1024-bit oakley2 group the end-to-end
    // benchmark's hosts key with.
    let pair = |group: DhGroup| {
        let a = PrivateValue::from_entropy(group.clone(), b"bench-a-entropy-bytes");
        let b_pub = PrivateValue::from_entropy(group, b"bench-b-entropy-bytes").public_value();
        (a, b_pub)
    };
    let (a, b_pub) = pair(DhGroup::oakley1());
    let (a2, b2_pub) = pair(DhGroup::oakley2());
    g.sample_size(10);
    g.bench_function("dh-master-key-oakley1", |bch| {
        bch.iter(|| a.master_key(black_box(&b_pub)))
    });
    g.bench_function("dh-master-key-oakley2", |bch| {
        bch.iter(|| a2.master_key(black_box(&b2_pub)))
    });
    // The cheap per-flow operation.
    let master = a.master_key(&b_pub);
    g.bench_function("flow-key-derivation", |bch| {
        bch.iter(|| {
            fbs_core::derive_flow_key(
                fbs_core::KeyDerivation::Md5,
                black_box(42),
                &master,
                &fbs_core::Principal::named("S"),
                &fbs_core::Principal::named("D"),
            )
        })
    });
    // What a host pays per AEAD flow birth: derive from the 128-byte
    // oakley2 master key (three MD5 blocks), expand the ChaCha20 key (two
    // more), and allocate the key the caches share.
    let master = a2.master_key(&b2_pub);
    let cfg = fbs_core::FbsConfig {
        suite: CipherSuite::AeadChaPoly,
        ..Default::default()
    };
    let (src, dst) = (
        fbs_core::Principal::from_ipv4([10, 0, 0, 1]),
        fbs_core::Principal::from_ipv4([10, 0, 0, 2]),
    );
    g.throughput(Throughput::Elements(1));
    g.bench_function("flow-birth-aead-oakley2", |bch| {
        let mut sfl = 0u64;
        bch.iter(|| {
            sfl += 1;
            let key = fbs_core::derive_flow_key(cfg.key_derivation, sfl, &master, &src, &dst);
            Arc::new(cfg.seal_key(key))
        })
    });
    g.finish();
}

fn bench_rngs(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    // Statistical (confounder) vs cryptographic (per-datagram key)
    // randomness: the §2.2 bottleneck, quantified.
    let mut lcg = Lcg64::new(7);
    g.bench_function("lcg-8-bytes", |b| {
        let mut buf = [0u8; 8];
        b.iter(|| {
            lcg.fill(&mut buf);
            black_box(buf)
        })
    });
    let mut bbs = Bbs::with_default_modulus(b"bench-bbs-seed");
    g.sample_size(20);
    g.bench_function("bbs-8-bytes", |b| {
        let mut buf = [0u8; 8];
        b.iter(|| {
            bbs.fill(&mut buf);
            black_box(buf)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ciphers,
    bench_hashes,
    bench_aead,
    bench_keying,
    bench_rngs
);
criterion_main!(benches);
