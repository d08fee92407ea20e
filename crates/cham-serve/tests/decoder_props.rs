//! One structured fuzz of every frame-body decoder: arbitrary bytes, and
//! single-byte mutations and truncations of valid bodies, never panic.
//! Each ends either in a typed [`ServeError`] or in an `Ok` that
//! re-encodes to the bytes it was decoded from — the codec has no slack
//! a peer could hide a second meaning in.
//!
//! One reply kind is looser on mutated input and is held to a fixed
//! point there (re-encoding, decoding and re-encoding again changes
//! nothing): the self-describing stats reply skips names it does not
//! know. Its canonical encoding is still exact: every corpus body
//! re-encodes byte for byte, and the fully populated `IntrospectReport`
//! decodes back to an equal struct. `Error` bodies are exact: each code
//! carries its own fields, and a message that is not UTF-8 is refused.
//! `FlightDump` bodies are exact too, and every corpus snapshot decodes
//! back to an equal one.
//!
//! Every `Hmvp` request body is also read the way the server reads it,
//! off a stream, here one byte per read, and must reach the whole-slice
//! verdict: the same request or the same error, with the body read to
//! its end whenever the stream is to stay open.
//!
//! Seeded from the test name by the vendored proptest, so a failure
//! names the case and replays identically.

use cham_he::encoding::CoeffEncoder;
use cham_he::encrypt::Encryptor;
use cham_he::hmvp::Matrix;
use cham_he::keys::SecretKey;
use cham_he::pack::PackedRlwe;
use cham_he::params::ChamParams;
use cham_math::rns::Form;
use cham_serve::protocol::{
    error_body, error_from_body, hmvp_request_from_bytes, hmvp_request_to_bytes, matrix_from_bytes,
    matrix_to_bytes, read_hmvp_request, ErrorCode, FrameKind, Hello, HmvpRequest, MatrixChunkStart,
    Response, CHUNK_INDEX_NONE, DEADLINE_NONE, PROTOCOL_VERSION,
};
use cham_serve::shard::ClusterIdentity;
use cham_serve::stats::{IntrospectSnapshot, PhaseStat, StatsSnapshot};
use cham_serve::ServeError;
use cham_telemetry::flight::{FlightEvent, FlightEventKind, FlightSnapshot, RequestTrace};
use cham_telemetry::span::{phase, PhaseSpan, TraceId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::SeedableRng;
use std::io::Read;
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
    /// The matrix body: an upload's reassembled bytes, a stored segment,
    /// a repair's fetched body.
    Matrix,
}

const DECODERS: [Decoder; 6] = [
    Decoder::Hello,
    Decoder::HmvpRequest,
    Decoder::ChunkStart,
    Decoder::Response,
    Decoder::Error,
    Decoder::Matrix,
];

/// Decodes `body` and re-encodes an `Ok`; the flag says whether the
/// decoder is exact (re-encoding must reproduce `body`) or only stable.
fn recode(decoder: Decoder, body: &[u8]) -> Result<(Vec<u8>, bool), ServeError> {
    let p = params();
    Ok(match decoder {
        Decoder::Hello => (Hello::from_bytes(body)?.to_bytes(), true),
        Decoder::HmvpRequest => {
            let HmvpRequest { head, cts } = hmvp_request_from_bytes(body, p)?;
            let bytes = hmvp_request_to_bytes(
                head.key_id,
                head.matrix_id,
                head.deadline_ms,
                head.trace_id,
                &cts,
            );
            (bytes, true)
        }
        Decoder::ChunkStart => (MatrixChunkStart::from_bytes(body)?.to_bytes(), true),
        Decoder::Response => {
            let resp = Response::from_bytes(body, p)?;
            let exact = !matches!(resp, Response::IntrospectReport { .. });
            (resp.to_bytes(), exact)
        }
        Decoder::Error => (error_body(&error_from_body(body)?), true),
        Decoder::Matrix => (matrix_to_bytes(&matrix_from_bytes(body, p)?), true),
    })
}

/// A reader that hands out one byte per call.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(1).min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// The `Hmvp` decoder the server runs on its socket, fed one byte per
/// read, reaches the whole-slice verdict: the same request, or the same
/// error. It reads nothing past the body, and all of it when it accepts
/// the body or refuses a ciphertext in it (`He`): the stream is then at
/// the next frame.
fn check_streamed(body: &[u8]) -> Result<(), TestCaseError> {
    let whole = hmvp_request_from_bytes(body, params());
    let mut trickle = Trickle(body);
    let streamed = read_hmvp_request(&mut trickle, body.len(), params());
    match (&whole, &streamed) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
        _ => {
            return Err(TestCaseError::fail(format!(
                "whole-slice {whole:?} but streamed {streamed:?}"
            )))
        }
    }
    if matches!(streamed, Ok(_) | Err(ServeError::He(_))) {
        prop_assert!(
            trickle.0.is_empty(),
            "{} bytes left unread",
            trickle.0.len()
        );
    }
    Ok(())
}

/// The property every input is held to.
fn check(decoder: Decoder, body: &[u8]) -> Result<(), TestCaseError> {
    if decoder == Decoder::HmvpRequest {
        check_streamed(body)?;
    }
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

/// One `Error` body per code, its fields all at 0, all at 1 and all at
/// their maximum — a message of `u16::MAX` bytes, and `CHUNK_INDEX_NONE`
/// as the chunk index.
fn error_bodies() -> Vec<Vec<u8>> {
    let mut errors = vec![ServeError::Busy, ServeError::TimedOut, ServeError::Shutdown];
    for (v64, v32, v16) in [(0, 0, 0), (1, 1, 1), (u64::MAX, CHUNK_INDEX_NONE, u16::MAX)] {
        let text = "x".repeat(usize::from(v16));
        errors.extend([
            ServeError::UnknownKey(v64),
            ServeError::UnknownMatrix(v64),
            ServeError::WrongShard {
                epoch: v64,
                shard_index: v16,
                shard_count: v16,
            },
            ServeError::ChunkMismatch {
                matrix_id: v64,
                index: v32,
            },
            ServeError::Internal(text.clone()),
            ServeError::Remote {
                code: ErrorCode::BadFrame,
                message: text.clone(),
            },
            ServeError::Remote {
                code: ErrorCode::Incompatible,
                message: text,
            },
        ]);
    }
    errors.iter().map(error_body).collect()
}

/// Flight snapshots at the edges of their body: empty; one trace holding
/// every name in `phase::ALL`; every event kind with and without a trace
/// id; `u64::MAX` in every number; a detail of `u16::MAX` bytes.
fn flight_snapshots() -> Vec<FlightSnapshot> {
    let trace = |id, v| RequestTrace {
        trace_id: TraceId(id),
        start_ns: v,
        total_ns: v,
        phases: phase::ALL
            .into_iter()
            .map(|name| PhaseSpan {
                name,
                start_ns: v,
                dur_ns: v,
                count: v,
            })
            .collect(),
    };
    let event = |kind, trace_id, ts_ns, detail: &str| FlightEvent {
        kind,
        detail: detail.into(),
        trace_id,
        ts_ns,
    };
    vec![
        FlightSnapshot::default(),
        FlightSnapshot {
            traces: vec![trace(1, 7)],
            ..FlightSnapshot::default()
        },
        FlightSnapshot {
            events: FlightEventKind::ALL
                .into_iter()
                .flat_map(|k| {
                    [
                        event(k, None, 5, k.label()),
                        event(k, Some(TraceId(9)), 6, ""),
                    ]
                })
                .collect(),
            ..FlightSnapshot::default()
        },
        FlightSnapshot {
            traces: vec![trace(u64::MAX, u64::MAX)],
            events: vec![event(
                FlightEventKind::Fault,
                Some(TraceId(u64::MAX)),
                u64::MAX,
                "é",
            )],
            dropped_traces: u64::MAX,
        },
        FlightSnapshot {
            events: vec![event(
                FlightEventKind::Evict,
                None,
                0,
                &"x".repeat(u16::MAX.into()),
            )],
            ..FlightSnapshot::default()
        },
    ]
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
        // A request ciphertext crosses in NTT form (`RlweNtt`), a packed
        // reply in coefficient form (`Rlwe`): the corpus holds one of each.
        let request_ct = enc.encrypt_augmented(&pt, &mut rng);
        assert_eq!(request_ct.form(), Form::Ntt);
        let mut reply_ct = enc.encrypt(&pt, &mut rng);
        reply_ct.to_coeff();
        let identity = ClusterIdentity {
            shard_index: 1,
            shard_count: 3,
            epoch: 7,
        };
        let hello = |cluster| Response::Hello {
            version: PROTOCOL_VERSION,
            cluster,
        };
        let mut responses = vec![
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
            Response::IntrospectReport {
                snapshot: full_introspect(),
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
        responses.extend(
            flight_snapshots()
                .into_iter()
                .map(|snapshot| Response::FlightDump { snapshot }),
        );
        let mut corpus = vec![
            (Decoder::Hello, Hello::for_params(p).to_bytes()),
            (
                Decoder::HmvpRequest,
                hmvp_request_to_bytes(
                    7,
                    9,
                    DEADLINE_NONE,
                    0xFACE,
                    std::slice::from_ref(&request_ct),
                ),
            ),
            // Two ciphertexts: a refusal in the first leaves the second
            // for the streamed reader to drain.
            (
                Decoder::HmvpRequest,
                hmvp_request_to_bytes(7, 9, 250, 0, &[request_ct.clone(), request_ct]),
            ),
            (
                Decoder::ChunkStart,
                MatrixChunkStart::new(0xFEED, 176, 64, 3, 7).to_bytes(),
            ),
            (
                Decoder::Matrix,
                matrix_to_bytes(&Matrix::random(3, 5, p.plain_modulus().value(), &mut rng)),
            ),
        ];
        corpus.extend(responses.iter().map(|r| (Decoder::Response, r.to_bytes())));
        corpus.extend(error_bodies().into_iter().map(|b| (Decoder::Error, b)));
        corpus
    })
}

/// Every kind byte decodes to the kind with that discriminant or to a
/// typed error; the retired kinds 3 and 7 are among the errors.
/// Exhaustive, so no sampling.
#[test]
fn frame_kind_bytes_are_exact_or_rejected() {
    for v in 0..=u8::MAX {
        match FrameKind::from_u8(v) {
            Ok(kind) => assert_eq!(kind as u8, v),
            Err(e) => assert!(matches!(e, ServeError::BadFrame(_)), "kind {v}: {e:?}"),
        }
    }
    assert!(FrameKind::from_u8(3).is_err());
    assert!(FrameKind::from_u8(7).is_err());
}

/// A canonical chunked-upload start the decoder refuses: its total and
/// chunk size pass, and its 2^31 × 2^30 shape wraps the `u64` body length
/// `8·rows·cols` to 0, so single-byte mutations land on both sides of
/// `matrix_body_len`'s overflow check.
fn overflowing_start() -> Vec<u8> {
    MatrixChunkStart::new(0xFEED, 176, 64, 1 << 31, 1 << 30).to_bytes()
}

/// What the mutations start from: the corpus and [`overflowing_start`].
fn seeds() -> &'static [(Decoder, Vec<u8>)] {
    static SEEDS: OnceLock<Vec<(Decoder, Vec<u8>)>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let refused = (Decoder::ChunkStart, overflowing_start());
        corpus().iter().cloned().chain([refused]).collect()
    })
}

/// Every message shape re-encodes byte for byte — the stats replies and
/// error text included, since a corpus body is a canonical encoding — so
/// the mutations below start from inside each decoder's accepted set.
/// None tolerates a trailing byte or an unknown response tag, and the
/// overflowing start is a typed `BadFrame`.
#[test]
fn corpus_bodies_round_trip_and_reject_trailing_bytes() {
    let refusal = MatrixChunkStart::from_bytes(&overflowing_start());
    assert!(
        matches!(refusal, Err(ServeError::BadFrame(_))),
        "{refusal:?}"
    );
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
/// with each field set to its own number, the decoded snapshot equals
/// the encoded one. A decoder that dropped, zeroed or crossed fields
/// fails here.
#[test]
fn stats_replies_round_trip_every_value() {
    let decode = |r: Response| Response::from_bytes(&r.to_bytes(), params()).unwrap();
    let snapshot = full_introspect();
    match decode(Response::IntrospectReport { snapshot }) {
        Response::IntrospectReport { snapshot } => assert_eq!(snapshot, full_introspect()),
        other => panic!("unexpected response {other:?}"),
    }
}

/// Every corpus snapshot crosses the wire value for value.
#[test]
fn flight_snapshots_round_trip_every_value() {
    for snapshot in flight_snapshots() {
        let body = Response::FlightDump {
            snapshot: snapshot.clone(),
        }
        .to_bytes();
        match Response::from_bytes(&body, params()).unwrap() {
            Response::FlightDump { snapshot: back } => assert_eq!(back, snapshot),
            other => panic!("unexpected response {other:?}"),
        }
    }
}

proptest! {
    // 1280 cases: each of the ~40 seeds gets about 30 mutations.
    #![proptest_config(ProptestConfig::with_cases(1280))]

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

    /// One byte of a valid or a refused canonical body changed.
    #[test]
    fn single_byte_mutations_never_panic(
        pick in any::<usize>(),
        at in any::<usize>(),
        flip in 1u8..=255
    ) {
        let (decoder, body) = &seeds()[pick % seeds().len()];
        let mut body = body.clone();
        let at = at % body.len();
        body[at] ^= flip;
        check(*decoder, &body)?;
    }

    /// A valid or refused body cut short anywhere is never accepted as
    /// exact input for a different message and never panics.
    #[test]
    fn truncations_never_panic(pick in any::<usize>(), at in any::<usize>()) {
        let (decoder, body) = &seeds()[pick % seeds().len()];
        check(*decoder, &body[..at % body.len()])?;
    }
}
