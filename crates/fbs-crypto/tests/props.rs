//! Property-based tests for the cryptographic substrate.

// Property tests are opt-in: run with `cargo test --features props`.
#![cfg(feature = "props")]
use fbs_crypto::bignum::BigUint;
use fbs_crypto::{des, Des, DesMode, MacAlgorithm};
use proptest::prelude::*;

fn biguint_strategy() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..40).prop_map(|v| BigUint::from_bytes_be(&v))
}

/// Poly1305 as RFC 8439 §2.5.1 defines it, in [`BigUint`] arithmetic:
/// `(Σ (mᵢ‖0x01)·r^(n−i+1) mod 2^130−5 + s) mod 2^128`, by Horner's rule.
fn reference_poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let le = |bytes: &[u8]| {
        let be: Vec<u8> = bytes.iter().rev().copied().collect();
        BigUint::from_bytes_be(&be)
    };
    let p = BigUint::one().shl(130).sub(&BigUint::from_u64(5));
    let mut r_bytes = [0u8; 16];
    r_bytes.copy_from_slice(&key[..16]);
    for i in [3, 7, 11, 15] {
        r_bytes[i] &= 0x0f;
    }
    for i in [4, 8, 12] {
        r_bytes[i] &= 0xfc;
    }
    let r = le(&r_bytes);
    let mut acc = BigUint::zero();
    for chunk in msg.chunks(16) {
        let mut block = chunk.to_vec();
        block.push(1);
        acc = acc.add(&le(&block)).modmul(&r, &p);
    }
    let sum = acc.add(&le(&key[16..])).to_bytes_be_padded(17);
    let mut tag = [0u8; 16];
    for (t, b) in tag.iter_mut().zip(sum.iter().rev()) {
        *t = *b;
    }
    tag
}

proptest! {
    // ---------------- bignum algebra ----------------

    #[test]
    fn addition_commutes(a in biguint_strategy(), b in biguint_strategy()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn addition_associates(
        a in biguint_strategy(),
        b in biguint_strategy(),
        c in biguint_strategy(),
    ) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn add_then_sub_roundtrips(a in biguint_strategy(), b in biguint_strategy()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn multiplication_commutes(a in biguint_strategy(), b in biguint_strategy()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn multiplication_distributes(
        a in biguint_strategy(),
        b in biguint_strategy(),
        c in biguint_strategy(),
    ) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn division_identity(a in biguint_strategy(), b in biguint_strategy()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        // a = q*b + r with r < b — Knuth Algorithm D's contract.
        prop_assert_eq!(q.mul(&b).add(&r), a.clone());
        prop_assert!(r < b);
    }

    #[test]
    fn shifts_invert(a in biguint_strategy(), s in 0usize..130) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn bytes_roundtrip(a in biguint_strategy()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn modpow_matches_naive(base in 0u64..1000, exp in 0u64..24, modulus in 2u64..1000) {
        let got = BigUint::from_u64(base)
            .modpow(&BigUint::from_u64(exp), &BigUint::from_u64(modulus));
        let mut naive = 1u128;
        for _ in 0..exp {
            naive = naive * base as u128 % modulus as u128;
        }
        prop_assert_eq!(got, BigUint::from_u64(naive as u64));
    }

    // ---------------- DES ----------------

    #[test]
    fn des_roundtrips_all_modes(
        key in any::<[u8; 8]>(),
        iv in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        mode_idx in 0usize..4,
    ) {
        let mode = [DesMode::Ecb, DesMode::Cbc, DesMode::Cfb, DesMode::Ofb][mode_idx];
        let des = Des::new(&key);
        let ct = des::encrypt(&des, iv, mode, &payload);
        prop_assert_eq!(ct.len() % 8, 0);
        prop_assert!(ct.len() >= payload.len());
        let pt = des::decrypt(&des, iv, mode, &ct, payload.len());
        prop_assert_eq!(pt, payload);
    }

    #[test]
    fn des_block_is_a_permutation(key in any::<[u8; 8]>(), block in any::<[u8; 8]>()) {
        let des = Des::new(&key);
        let mut b = block;
        des.encrypt_block(&mut b);
        des.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    #[test]
    fn des_ciphertext_differs_from_plaintext(
        key in any::<[u8; 8]>(),
        payload in proptest::collection::vec(any::<u8>(), 16..64),
    ) {
        // Not a security proof — just catches identity-function bugs.
        let des = Des::new(&key);
        let ct = des::encrypt(&des, 0, DesMode::Cbc, &payload);
        prop_assert_ne!(&ct[..payload.len()], &payload[..]);
    }

    // ---------------- digests and MACs ----------------

    #[test]
    fn md5_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..500),
        split in 0usize..500,
    ) {
        let split = split.min(data.len());
        let mut ctx = fbs_crypto::md5::Md5::new();
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        prop_assert_eq!(ctx.finalize(), fbs_crypto::md5(&data));
    }

    #[test]
    fn md5_two_lanes_equal_two_digests(
        data in proptest::collection::vec(any::<u8>(), 0..500),
        split in 0usize..500,
        mask in any::<u8>(),
    ) {
        let split = split.min(data.len());
        let other: Vec<u8> = data.iter().map(|b| b ^ mask).collect();
        let mut ctx = fbs_crypto::md5::Md5x2::new();
        ctx.update([&data[..split], &other[..split]]);
        ctx.update([&data[split..], &other[split..]]);
        prop_assert_eq!(ctx.finalize(), [fbs_crypto::md5(&data), fbs_crypto::md5(&other)]);
    }

    #[test]
    fn sha1_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..500),
        split in 0usize..500,
    ) {
        let split = split.min(data.len());
        let mut ctx = fbs_crypto::sha1::Sha1::new();
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        prop_assert_eq!(ctx.finalize(), fbs_crypto::sha1(&data));
    }

    #[test]
    fn mac_context_equals_compute(
        key in proptest::collection::vec(any::<u8>(), 1..80),
        data in proptest::collection::vec(any::<u8>(), 0..200),
        alg_idx in 0usize..4,
    ) {
        let alg = [
            MacAlgorithm::KeyedMd5,
            MacAlgorithm::KeyedSha1,
            MacAlgorithm::HmacMd5,
            MacAlgorithm::HmacSha1,
        ][alg_idx];
        let mut ctx = alg.begin(&key);
        ctx.update(&data);
        prop_assert_eq!(ctx.finalize(), alg.compute(&key, &[&data]));
    }

    #[test]
    fn poly1305_streaming_equals_oneshot_equals_bignum(
        key in any::<[u8; 32]>(),
        data in proptest::collection::vec(any::<u8>(), 0..600),
        split in 0usize..600,
    ) {
        let split = split.min(data.len());
        let mut ctx = fbs_crypto::Poly1305::new(&key);
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        let oneshot = fbs_crypto::poly1305(&key, &[&data]);
        prop_assert_eq!(ctx.finalize(), oneshot);
        prop_assert_eq!(oneshot, reference_poly1305(&key, &data));
    }

    #[test]
    fn crc32_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        split in 0usize..300,
    ) {
        let split = split.min(data.len());
        let mut c = fbs_crypto::crc32::Crc32::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        prop_assert_eq!(c.finalize(), fbs_crypto::crc32(&data));
    }
}
