//! Property tests for every `cham_he::wire` codec: randomized round-trips
//! plus rejection of truncated and corrupted inputs.
//!
//! Round-trips are asserted two ways: structural equality where the type
//! supports it (RLWE), and re-serialization equality everywhere
//! (`to_bytes(from_bytes(b)) == b`), which also pins the byte layout —
//! a codec that "round-trips" by normalizing would fail it.

use cham_he::encoding::CoeffEncoder;
use cham_he::encrypt::Encryptor;
use cham_he::keys::{GaloisKeys, KeySwitchKey, SecretKey};
use cham_he::params::ChamParams;
use cham_he::wire;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::SeedableRng;
use std::sync::OnceLock;

struct Fixture {
    params: ChamParams,
    enc: Encryptor,
    coder: CoeffEncoder,
    sk: SecretKey,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A7);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let coder = CoeffEncoder::new(&params);
        Fixture {
            params,
            enc,
            coder,
            sk,
        }
    })
}

fn tval() -> u64 {
    65537
}

/// Every strict prefix of a valid payload must be rejected: the reader
/// demands exact consumption, so there is no cut point that parses.
fn assert_all_truncations_fail<T>(
    bytes: &[u8],
    cut: usize,
    parse: impl Fn(&[u8]) -> cham_he::Result<T>,
) -> std::result::Result<(), TestCaseError> {
    let cut = cut % bytes.len();
    prop_assert!(
        parse(&bytes[..cut]).is_err(),
        "prefix of length {cut}/{} parsed",
        bytes.len()
    );
    // Trailing garbage is rejected too.
    let mut extended = bytes.to_vec();
    extended.push(0);
    prop_assert!(parse(&extended).is_err(), "trailing byte accepted");
    Ok(())
}

/// Header layout: `[magic u16][version u8][kind u8][degree u32]
/// [limb_count u8][moduli u64 …]`. Corrupting any of these fields must
/// be rejected.
fn assert_header_corruptions_fail<T>(
    bytes: &[u8],
    parse: impl Fn(&[u8]) -> cham_he::Result<T>,
) -> std::result::Result<(), TestCaseError> {
    for (offset, what) in [
        (0, "magic"),
        (2, "version"),
        (3, "kind"),
        (4, "degree"),
        (8, "limb count"),
        (9, "modulus value"),
    ] {
        let mut bad = bytes.to_vec();
        bad[offset] ^= 0xFF;
        prop_assert!(parse(&bad).is_err(), "corrupted {what} accepted");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rlwe_roundtrip_and_rejection(
        vals in vec(0..tval(), 1..48),
        augmented in any::<bool>(),
        seed in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let fix = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pt = fix.coder.encode_vector(&vals).unwrap();
        let ct = if augmented {
            fix.enc.encrypt_augmented(&pt, &mut rng)
        } else {
            fix.enc.encrypt(&pt, &mut rng)
        };
        let bytes = wire::rlwe_to_bytes(&ct);
        let back = wire::rlwe_from_bytes(&bytes, &fix.params).unwrap();
        prop_assert_eq!(&back, &ct);
        prop_assert_eq!(wire::rlwe_to_bytes(&back), bytes.clone());

        assert_all_truncations_fail(&bytes, cut, |b| wire::rlwe_from_bytes(b, &fix.params))?;
        assert_header_corruptions_fail(&bytes, |b| wire::rlwe_from_bytes(b, &fix.params))?;
        // An out-of-range coefficient (≥ modulus) must be rejected, not
        // silently reduced: the first payload coefficient lives right
        // after the header.
        let header = 9 + 8 * usize::from(bytes[8]);
        let mut bad = bytes.clone();
        bad[header..header + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        prop_assert!(wire::rlwe_from_bytes(&bad, &fix.params).is_err());
    }

    #[test]
    fn ksk_roundtrip_and_rejection(seed in any::<u64>(), cut in any::<usize>()) {
        let fix = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ksk = KeySwitchKey::generate(&fix.sk, fix.sk.coeffs(), &mut rng).unwrap();
        let bytes = wire::ksk_to_bytes(&ksk);
        let back = wire::ksk_from_bytes(&bytes, &fix.params).unwrap();
        prop_assert_eq!(wire::ksk_to_bytes(&back), bytes.clone());

        assert_all_truncations_fail(&bytes, cut, |b| wire::ksk_from_bytes(b, &fix.params))?;
        assert_header_corruptions_fail(&bytes, |b| wire::ksk_from_bytes(b, &fix.params))?;
    }

    #[test]
    fn galois_keys_roundtrip_and_rejection(
        max_log in 1u32..4,
        seed in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let fix = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let gkeys = GaloisKeys::generate_for_packing(&fix.sk, max_log, &mut rng).unwrap();
        let indices: Vec<usize> = (1..=max_log).map(|j| (1usize << j) + 1).collect();
        let bytes = wire::galois_keys_to_bytes(&gkeys, &indices).unwrap();
        let back = wire::galois_keys_from_bytes(&bytes, &fix.params).unwrap();
        prop_assert_eq!(back.len(), indices.len());
        for &i in &indices {
            prop_assert!(back.contains(i));
        }
        prop_assert_eq!(wire::galois_keys_to_bytes(&back, &indices).unwrap(), bytes.clone());

        // Serializing an index the set does not hold must fail.
        prop_assert!(wire::galois_keys_to_bytes(&gkeys, &[3 + (1 << 5)]).is_err());

        assert_all_truncations_fail(&bytes, cut, |b| {
            wire::galois_keys_from_bytes(b, &fix.params)
        })?;
        // The set has its own outer layout: [magic u16][version u8]
        // [kind u8][count u32], then per key [index u64][len u32][ksk].
        // (Corrupting the index byte at offset 8 is *valid* — it just
        // names a different automorphism — so probe the structural
        // fields: magic, version, kind, count, the inner ksk length,
        // and the embedded ksk's own header.)
        for (offset, what) in [
            (0usize, "magic"),
            (2, "version"),
            (3, "kind"),
            (4, "count"),
            (16, "ksk length"),
            (20, "embedded ksk magic"),
        ] {
            let mut bad = bytes.clone();
            bad[offset] ^= 0xFF;
            prop_assert!(
                wire::galois_keys_from_bytes(&bad, &fix.params).is_err(),
                "corrupted {what} accepted"
            );
        }
    }
}
