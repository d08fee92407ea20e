//! One structured fuzz of every frame-body decoder: arbitrary bytes, and
//! single-byte mutations and truncations of valid bodies, never panic.
//! Each ends either in a typed [`ServeError`] or in an `Ok` that
//! re-encodes to the bytes it was decoded from — the codec has no slack
//! a peer could hide a second meaning in.
//!
//! Two reply kinds are looser on mutated input and are held to a fixed
//! point there (re-encoding, decoding and re-encoding again changes
//! nothing): the self-describing stats replies skip names they do not
//! know, and `Error` bodies repair invalid UTF-8 in the human-readable
//! message. Their canonical encodings are still exact: every corpus body
//! re-encodes byte for byte, and the fully populated `Pong` and
//! `IntrospectReport` decode back to equal structs.
//!
//! Seeded from the test name by the vendored proptest, so a failure
//! names the case and replays identically.

use cham_he::encoding::CoeffEncoder;
use cham_he::encrypt::Encryptor;
use cham_he::keys::SecretKey;
use cham_he::pack::PackedRlwe;
use cham_he::params::ChamParams;
use cham_serve::protocol::{
    error_body, error_from_body, hmvp_request_from_bytes, hmvp_request_to_bytes, ErrorCode,
    FrameKind, Hello, MatrixChunkStart, Response, DEADLINE_NONE, PROTOCOL_VERSION,
};
use cham_serve::shard::ClusterIdentity;
use cham_serve::stats::{IntrospectSnapshot, PhaseStat, StatsSnapshot};
use cham_serve::ServeError;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::SeedableRng;
use std::sync::OnceLock;

fn params() -> &'static ChamParams {
    static PARAMS: OnceLock<ChamParams> = OnceLock::new();
    PARAMS.get_or_init(|| ChamParams::insecure_test_default().unwrap())
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Decoder {
    Hello,
    HmvpRequest,
    ChunkStart,
    Response,
    Error,
}

const DECODERS: [Decoder; 5] = [
    Decoder::Hello,
    Decoder::HmvpRequest,
    Decoder::ChunkStart,
    Decoder::Response,
    Decoder::Error,
];

/// Decodes `body` and re-encodes an `Ok`; the flag says whether the
/// decoder is exact (re-encoding must reproduce `body`) or only stable.
fn recode(decoder: Decoder, body: &[u8]) -> Result<(Vec<u8>, bool), ServeError> {
    let p = params();
    Ok(match decoder {
        Decoder::Hello => (Hello::from_bytes(body)?.to_bytes(), true),
        Decoder::HmvpRequest => {
            let r = hmvp_request_from_bytes(body, p)?;
            let bytes =
                hmvp_request_to_bytes(r.key_id, r.matrix_id, r.deadline_ms, r.trace_id, &r.cts);
            (bytes, true)
        }
        Decoder::ChunkStart => (MatrixChunkStart::from_bytes(body)?.to_bytes(), true),
        Decoder::Response => {
            let resp = Response::from_bytes(body, p)?;
            let exact = !matches!(
                resp,
                Response::Pong { .. } | Response::IntrospectReport { .. }
            );
            (resp.to_bytes(), exact)
        }
        Decoder::Error => {
            let (code, message) = error_from_body(body)?;
            (error_body(code, &message), false)
        }
    })
}

/// The property every input is held to.
fn check(decoder: Decoder, body: &[u8]) -> Result<(), TestCaseError> {
    match recode(decoder, body) {
        Ok((again, true)) => prop_assert_eq!(&again[..], body, "{:?} is not exact", decoder),
        Ok((once, false)) => {
            let (twice, _) = recode(decoder, &once)
                .map_err(|e| TestCaseError::fail(format!("{decoder:?} re-decode: {e}")))?;
            prop_assert_eq!(once, twice, "{:?} is not stable", decoder);
        }
        Err(ServeError::BadFrame(_) | ServeError::He(_)) => {}
        Err(other) => {
            return Err(TestCaseError::fail(format!(
                "{decoder:?} failed untyped: {other:?}"
            )))
        }
    }
    Ok(())
}

/// Every counter set, each to its own value. No `..default()`: a new
/// counter fails to compile here until it is given one.
fn full_stats() -> StatsSnapshot {
    StatsSnapshot {
        accepted: 1,
        rejected_busy: 2,
        timed_out: 3,
        completed: 4,
        failed: 5,
        peak_queue_depth: 8,
        internal_errors: 9,
        rejected_shutdown: 10,
        faults_injected: 11,
        reaped_uploads: 12,
        spill_errors: 13,
        decode_errors: 14,
    }
}

/// Every gauge set, each to its own value, over [`full_stats`] and two
/// phases.
fn full_introspect() -> IntrospectSnapshot {
    let phase = |name: &str, base: u64| PhaseStat {
        name: name.into(),
        count: base,
        sum_ns: base + 1,
        p50_ns: base + 2,
        p99_ns: base + 3,
        p999_ns: base + 4,
        max_ns: base + 5,
    };
    IntrospectSnapshot {
        stats: full_stats(),
        queue_depth: 21,
        queue_capacity: 22,
        workers: 23,
        key_cache_len: 25,
        matrix_cache_len: 26,
        pool_threads: 27,
        pool_tasks: 28,
        pool_steals: 29,
        flight_traces: 30,
        flight_dropped: 31,
        node_id: 0xC0FFEE,
        shard_index: 33,
        shard_count: 34,
        simd_backend: 35,
        simd_lanes: 36,
        simd_vector_elems: 1 << 40,
        simd_tail_elems: 38,
        phases: vec![phase("dot", 100), phase("total", 200)],
    }
}

/// One valid body per shape each decoder accepts.
fn corpus() -> &'static [(Decoder, Vec<u8>)] {
    static CORPUS: OnceLock<Vec<(Decoder, Vec<u8>)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let p = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xDEC0DE);
        let sk = SecretKey::generate(p, &mut rng);
        let enc = Encryptor::new(p, &sk);
        let pt = CoeffEncoder::new(p).encode_vector(&[1, 2, 3]).unwrap();
        let request_ct = enc.encrypt_augmented(&pt, &mut rng);
        let reply_ct = enc.encrypt(&pt, &mut rng);
        let identity = ClusterIdentity {
            node_id: 0xA11CE,
            shard_index: 1,
            shard_count: 3,
            epoch: 7,
        };
        let hello = |cluster| Response::Hello {
            workers: 4,
            queue_capacity: 64,
            max_batch: 8,
            version: PROTOCOL_VERSION,
            cluster,
        };
        let responses = [
            hello(None),
            hello(Some(identity)),
            Response::KeysLoaded { key_id: 0xDEAD },
            Response::MatrixLoaded {
                matrix_id: 0xBEEF,
                rows: 10,
                cols: 20,
            },
            Response::HmvpDone {
                len: 3,
                packed: vec![PackedRlwe {
                    ciphertext: reply_ct,
                    log_count: 2,
                    count: 3,
                }],
            },
            Response::Pong {
                stats: full_stats(),
            },
            Response::IntrospectReport {
                snapshot: full_introspect(),
            },
            Response::FlightDump {
                json: "{\"traceEvents\":[]}".into(),
            },
            Response::ChunkAck {
                matrix_id: 0xFEED,
                chunk_count: 10,
                bitmap: vec![0b1000_0001, 0b10],
            },
            Response::StoreListReport {
                ids: vec![3, 0xFEED, u64::MAX],
            },
            Response::SegmentData {
                store_id: 0xFEED,
                bytes: vec![1, 2, 3, 4],
            },
        ];
        let mut corpus = vec![
            (Decoder::Hello, Hello::for_params(p).to_bytes()),
            (
                Decoder::HmvpRequest,
                hmvp_request_to_bytes(7, 9, DEADLINE_NONE, 0xFACE, &[request_ct]),
            ),
            (
                Decoder::ChunkStart,
                MatrixChunkStart::new(0xFEED, 176, 64, 3, 7).to_bytes(),
            ),
            (
                Decoder::ChunkStart,
                MatrixChunkStart::for_segment(0xABCD, 200, 64).to_bytes(),
            ),
            (
                Decoder::Error,
                error_body(ErrorCode::WrongShard, "epoch=12 shard=1/3"),
            ),
        ];
        corpus.extend(responses.iter().map(|r| (Decoder::Response, r.to_bytes())));
        corpus
    })
}

/// Every kind byte decodes to the kind with that discriminant or to a
/// typed error; the retired kind 3 is among the errors. Exhaustive, so
/// no sampling.
#[test]
fn frame_kind_bytes_are_exact_or_rejected() {
    for v in 0..=u8::MAX {
        match FrameKind::from_u8(v) {
            Ok(kind) => assert_eq!(kind as u8, v),
            Err(e) => assert!(matches!(e, ServeError::BadFrame(_)), "kind {v}: {e:?}"),
        }
    }
    assert!(FrameKind::from_u8(3).is_err());
}

/// Every message shape re-encodes byte for byte — the stats replies and
/// error text included, since a corpus body is a canonical encoding — so
/// the mutations below start from inside each decoder's accepted set.
/// None tolerates a trailing byte or an unknown response tag.
#[test]
fn corpus_bodies_round_trip_and_reject_trailing_bytes() {
    for (decoder, body) in corpus() {
        let (again, _) = recode(*decoder, body).unwrap();
        assert_eq!(&again, body, "{decoder:?} dropped or changed a value");
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(recode(*decoder, &trailing).is_err(), "{decoder:?}");
    }
    assert!(matches!(
        Response::from_bytes(&[99], params()),
        Err(ServeError::BadFrame(_))
    ));
}

/// The named stats list carries every counter, gauge and phase by value:
/// with each field set to its own number, the decoded snapshots equal
/// the encoded ones. A decoder that dropped, zeroed or crossed fields
/// fails here.
#[test]
fn stats_replies_round_trip_every_value() {
    let decode = |r: Response| Response::from_bytes(&r.to_bytes(), params()).unwrap();
    let (stats, snapshot) = (full_stats(), full_introspect());
    match decode(Response::Pong { stats }) {
        Response::Pong { stats } => assert_eq!(stats, full_stats()),
        other => panic!("unexpected response {other:?}"),
    }
    match decode(Response::IntrospectReport { snapshot }) {
        Response::IntrospectReport { snapshot } => assert_eq!(snapshot, full_introspect()),
        other => panic!("unexpected response {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes into every decoder. The first byte is steered
    /// toward the live response tags and error codes so the variant arms
    /// past the tag check are reached.
    #[test]
    fn arbitrary_bytes_never_panic(
        lead in 0u8..16,
        tail in prop::collection::vec(any::<u8>(), 0..96)
    ) {
        let mut body = vec![lead];
        body.extend(tail);
        for decoder in DECODERS {
            check(decoder, &body)?;
            check(decoder, &body[1..])?;
        }
    }

    /// One byte of a valid body changed.
    #[test]
    fn single_byte_mutations_never_panic(
        pick in any::<usize>(),
        at in any::<usize>(),
        flip in 1u8..=255
    ) {
        let (decoder, body) = &corpus()[pick % corpus().len()];
        let mut body = body.clone();
        let at = at % body.len();
        body[at] ^= flip;
        check(*decoder, &body)?;
    }

    /// A valid body cut short anywhere is never accepted as exact input
    /// for a different message and never panics.
    #[test]
    fn truncations_never_panic(pick in any::<usize>(), at in any::<usize>()) {
        let (decoder, body) = &corpus()[pick % corpus().len()];
        check(*decoder, &body[..at % body.len()])?;
    }
}
