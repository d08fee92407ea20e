//! Negative-path protocol tests: every way a peer can misbehave on the
//! wire must surface as a *typed* error on the other side — never a
//! hang, never a panic, never a silently wrong result.
//!
//! The client-side tests run against a hand-rolled rogue listener (a raw
//! `TcpListener` that replies with deliberately broken bytes); the
//! server-side tests run a real [`Server`] and speak raw frames at it.

use cham_he::encoding::CoeffEncoder;
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, HmvpResult};
use cham_he::keys::SecretKey;
use cham_he::pack::PackedRlwe;
use cham_he::HeError;
use cham_serve::protocol::{
    self, ErrorCode, FrameKind, Hello, Response, DEADLINE_NONE, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use cham_serve::server::{Server, ServerConfig};
use cham_serve::{ClientConfig, ClusterClient, RetryPolicy, ServeClient, ServeError};
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

fn params() -> Arc<cham_he::params::ChamParams> {
    Arc::new(cham_he::params::ChamParams::insecure_test_default().unwrap())
}

/// Spawns a listener that accepts one connection, reads one frame, and
/// runs `respond` on the accepted stream. Returns the address.
fn rogue_server(
    respond: impl FnOnce(&mut TcpStream) + Send + 'static,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Consume the client's hello frame so the reply is not racing it.
        let _ = protocol::read_frame(&mut stream);
        respond(&mut stream);
    });
    (addr, handle)
}

/// A server that closes mid-frame leaves the client with a typed `Io`
/// error, not a hang.
#[test]
fn server_closing_mid_frame_surfaces_as_io() {
    let (addr, handle) = rogue_server(|stream| {
        // A 100-byte frame is promised; 2 bytes of prefix arrive.
        let _ = stream.write_all(&100u32.to_le_bytes()[..2]);
        let _ = stream.flush();
        // Dropping the stream closes the socket mid-prefix.
    });
    let r = ServeClient::connect(addr, params());
    assert!(matches!(r, Err(ServeError::Io(_))), "got {:?}", r.err());
    handle.join().unwrap();
}

/// An oversized length prefix is rejected client-side before any
/// allocation — a rogue server cannot OOM a client with 4 bytes.
#[test]
fn client_rejects_oversized_length_prefix() {
    let (addr, handle) = rogue_server(|stream| {
        let _ = stream.write_all(&u32::MAX.to_le_bytes());
        let _ = stream.write_all(&[FrameKind::Result as u8]);
        let _ = stream.flush();
    });
    let r = ServeClient::connect(addr, params());
    assert!(
        matches!(r, Err(ServeError::BadFrame(_))),
        "got {:?}",
        r.err()
    );
    handle.join().unwrap();
}

/// A request-kind frame arriving at the client (role reversal) is a
/// typed `BadFrame`, not a confused parse of garbage.
#[test]
fn client_rejects_request_kind_frame_from_server() {
    let (addr, handle) = rogue_server(|stream| {
        let _ = protocol::write_frame(stream, FrameKind::Hmvp, &[0u8; 22]);
    });
    let r = ServeClient::connect(addr, params());
    assert!(
        matches!(r, Err(ServeError::BadFrame(_))),
        "got {:?}",
        r.err()
    );
    handle.join().unwrap();
}

/// The server's frame bound answers an oversized length prefix with a
/// typed `BadFrame` error frame, then closes — before allocating or
/// reading the promised body.
#[test]
fn server_rejects_oversized_frame_with_typed_error() {
    let p = params();
    let server = Server::start("127.0.0.1:0", Arc::clone(&p), &ServerConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A well-formed hello first: the bound is per-frame, not per-connection.
    let hello = Hello::for_params(&p);
    protocol::write_frame(&mut stream, FrameKind::Hello, &hello.to_bytes()).unwrap();
    let (kind, _) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Result);

    // Promise one byte more than the protocol-wide bound, send none of
    // it, then watch the typed reply.
    let oversized = u32::try_from(MAX_FRAME_BYTES + 1).unwrap();
    stream.write_all(&oversized.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    let (kind, body) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Error);
    match protocol::error_from_body(&body).unwrap() {
        ServeError::Remote {
            code: ErrorCode::BadFrame,
            message,
        } => assert!(message.contains("size bound"), "message: {message}"),
        other => panic!("got {other:?}"),
    }
    // The stream is desynced from the server's perspective — it closes.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty());
    server.shutdown();
}

/// A zero deadline on the wire is rejected as malformed rather than
/// silently read as "no deadline".
#[test]
fn server_rejects_zero_deadline_on_the_wire() {
    let p = params();
    let server = Server::start("127.0.0.1:0", Arc::clone(&p), &ServerConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Hello::for_params(&p);
    protocol::write_frame(&mut stream, FrameKind::Hello, &hello.to_bytes()).unwrap();
    let (kind, _) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Result);

    // Hand-build an Hmvp body with deadline_ms = 0 (the client API can
    // no longer produce one — it clamps to [1, DEADLINE_NONE]).
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes()); // key_id
    body.extend_from_slice(&2u64.to_le_bytes()); // matrix_id
    body.extend_from_slice(&0u32.to_le_bytes()); // deadline_ms = 0
    body.extend_from_slice(&1u16.to_le_bytes()); // k = 1
    body.extend_from_slice(&0u32.to_le_bytes()); // empty ciphertext blob
    protocol::write_frame(&mut stream, FrameKind::Hmvp, &body).unwrap();
    let (kind, body) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Error);
    match protocol::error_from_body(&body).unwrap() {
        ServeError::Remote {
            code: ErrorCode::BadFrame,
            message,
        } => assert!(message.contains("deadline_ms"), "message: {message}"),
        other => panic!("got {other:?}"),
    }
    assert_ne!(DEADLINE_NONE, 0);
    server.shutdown();
}

/// A rogue listener that answers every hello with `reply` and records
/// the revision each one offered. Calling the returned closure stops it
/// (with an `Introspect` on a connection of its own, queued behind any attempt
/// the client made) and returns the offers — one per connection attempt.
fn hello_recorder(
    reply: impl Fn(&mut TcpStream) + Send + 'static,
) -> (SocketAddr, impl FnOnce() -> Vec<u16>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut offers = Vec::new();
        loop {
            let (mut stream, _) = listener.accept().unwrap();
            let (kind, body) = protocol::read_frame(&mut stream).unwrap();
            if kind != FrameKind::Hello {
                return offers;
            }
            offers.push(Hello::from_bytes(&body).unwrap().version);
            reply(&mut stream);
        }
    });
    (addr, move || {
        let mut stop = TcpStream::connect(addr).unwrap();
        protocol::write_frame(&mut stop, FrameKind::Introspect, &[]).unwrap();
        handle.join().unwrap()
    })
}

/// There is one revision. A server refuses a hello offering any other
/// with one typed `Incompatible`; a client refused that way — or
/// answered with a different revision — gives up after that single
/// hello, with or without a retry policy around it.
#[test]
fn revision_mismatch_is_one_typed_error() {
    let p = params();

    let incompatible = |e: &ServeError| {
        matches!(
            e,
            ServeError::Remote {
                code: ErrorCode::Incompatible,
                ..
            }
        )
    };

    // Server side: a raw socket offering a neighbouring revision, 8 (the
    // last with coefficient-form request ciphertexts) and 9 (the last
    // with a JSON flight dump) among them.
    assert_eq!(PROTOCOL_VERSION, 10);
    let server = Server::start("127.0.0.1:0", Arc::clone(&p), &ServerConfig::default()).unwrap();
    for version in [8, 9, PROTOCOL_VERSION + 1] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let hello = Hello {
            version,
            ..Hello::for_params(&p)
        };
        protocol::write_frame(&mut stream, FrameKind::Hello, &hello.to_bytes()).unwrap();
        let (kind, body) = protocol::read_frame(&mut stream).unwrap();
        assert_eq!(kind, FrameKind::Error, "revision {version} was accepted");
        let err = protocol::error_from_body(&body).unwrap();
        assert!(incompatible(&err), "got {err:?}");
    }
    server.shutdown();

    // Client side, refused: exactly one hello, at the one revision.
    let refuse = |stream: &mut TcpStream| {
        let body = protocol::error_body(&ServeError::Incompatible("go away"));
        protocol::write_frame(stream, FrameKind::Error, &body).unwrap();
    };
    let (addr, offers) = hello_recorder(refuse);
    let err = ServeClient::connect(addr, Arc::clone(&p)).err().unwrap();
    assert!(incompatible(&err), "got {err:?}");
    assert_eq!(offers(), vec![PROTOCOL_VERSION]);

    let (addr, offers) = hello_recorder(refuse);
    let err = ClusterClient::connect_with(
        addr.to_string(),
        Arc::clone(&p),
        ClientConfig::default(),
        RetryPolicy::default(),
    )
    .err()
    .unwrap();
    assert!(incompatible(&err), "got {err:?}");
    assert_eq!(offers(), vec![PROTOCOL_VERSION]);

    // Client side, answered at another revision: same ending.
    let (addr, offers) = hello_recorder(|stream| {
        let resp = Response::Hello {
            version: PROTOCOL_VERSION + 1,
            cluster: None,
        };
        protocol::write_frame(stream, FrameKind::Result, &resp.to_bytes()).unwrap();
    });
    let err = ServeClient::connect(addr, Arc::clone(&p)).err().unwrap();
    assert!(matches!(err, ServeError::Incompatible(_)), "got {err:?}");
    assert_eq!(offers(), vec![PROTOCOL_VERSION]);
}

/// A forged `HmvpDone` whose packing bookkeeping is out of range is
/// refused at decode, and the HE layer refuses the same values with
/// typed errors of its own instead of a shift overflow or an
/// out-of-bounds index.
#[test]
fn forged_hmvp_done_bookkeeping_is_a_typed_error() {
    let p = params();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF0);
    let sk = SecretKey::generate(&p, &mut rng);
    let enc = Encryptor::new(&p, &sk);
    let dec = Decryptor::new(&p, &sk);
    let pt = CoeffEncoder::new(&p).encode_vector(&[4]).unwrap();
    let ct = enc.encrypt(&pt, &mut rng);
    let hmvp = Hmvp::from_arc(Arc::clone(&p));

    for (log_count, count) in [(255, 1), (0, 5000)] {
        let packed = PackedRlwe {
            ciphertext: ct.clone(),
            log_count,
            count,
        };
        assert!(matches!(
            packed.decode(&dec.decrypt(&ct), &p),
            Err(HeError::InvalidParams(_))
        ));
        let forged = HmvpResult {
            packed: vec![packed],
            len: count,
        };
        assert!(hmvp.decrypt_result(&forged, &dec).is_err());
        let body = Response::HmvpDone {
            len: forged.len as u64,
            packed: forged.packed,
        }
        .to_bytes();
        assert!(
            matches!(
                Response::from_bytes(&body, &p),
                Err(ServeError::BadFrame(_))
            ),
            "log_count {log_count}, count {count} decoded"
        );
    }

    // A reply that decodes but carries fewer values than it claims is an
    // error too — not a silently short vector, and not an allocation
    // sized by the claim.
    for len in [3, usize::MAX] {
        let short = HmvpResult {
            packed: vec![PackedRlwe {
                ciphertext: ct.clone(),
                log_count: 1,
                count: 2,
            }],
            len,
        };
        match hmvp.decrypt_result(&short, &dec) {
            Err(HeError::ShapeMismatch { expected, got }) => assert_eq!((expected, got), (len, 2)),
            other => panic!("len {len}: {other:?}"),
        }
    }
}

/// A `FlightDump` reply body holding one trace of one phase named `name`
/// and one event of kind byte `kind` with `detail`, both under
/// `trace_id` — built by hand, so it can carry what no encoder writes.
fn flight_body(trace_id: u64, name: &[u8], kind: u8, detail: &[u8]) -> Vec<u8> {
    let text = |s: &[u8]| [&(s.len() as u16).to_le_bytes()[..], s].concat();
    let u64s = |vs: &[u64]| vs.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>();
    [
        &[7][..], // the FlightDump tag
        &u64s(&[0]),
        &1u16.to_le_bytes(),
        &u64s(&[trace_id, 100, 30]),
        &[1],
        &text(name),
        &u64s(&[0, 30, 1]),
        &1u16.to_le_bytes(),
        &[kind],
        &u64s(&[trace_id, 120]),
        &text(detail),
    ]
    .concat()
}

/// A forged flight dump is refused with a typed `BadFrame` for each thing
/// the decoder cannot trust: a phase name outside `phase::ALL` (the
/// introspection's `total`, the name after them), an unknown event kind,
/// a trace without an id, text that is not UTF-8, a count the body cannot
/// hold (refused before allocating) and a trailing byte.
#[test]
fn forged_flight_dumps_are_typed_errors() {
    use cham_telemetry::flight::FlightEventKind;
    use cham_telemetry::span::{phase, TraceId};
    let p = params();
    let decode = |body: &[u8]| Response::from_bytes(body, &p);
    let valid = flight_body(9, phase::QUEUE.as_bytes(), 3, b"ab");
    match decode(&valid) {
        Ok(Response::FlightDump { snapshot }) => {
            assert_eq!(snapshot.traces[0].trace_id, TraceId(9));
            assert_eq!(snapshot.traces[0].phases[0].name, phase::QUEUE);
            assert_eq!(snapshot.events[0].kind, FlightEventKind::Shutdown);
            assert_eq!(snapshot.events[0].detail, "ab");
        }
        other => panic!("got {other:?}"),
    }
    let mut trailing = valid.clone();
    trailing.push(0);
    let mut huge = valid[..9].to_vec();
    huge.extend_from_slice(&u16::MAX.to_le_bytes());
    huge.extend_from_slice(&[0; 30]);
    for (body, why) in [
        (
            flight_body(9, cham_serve::stats::PHASE_TOTAL.as_bytes(), 0, b"ab"),
            "unknown flight phase name",
        ),
        (
            flight_body(9, phase::QUEUE.as_bytes(), 4, b"ab"),
            "unknown flight event kind",
        ),
        (
            flight_body(0, phase::QUEUE.as_bytes(), 0, b"ab"),
            "flight trace with a zero id",
        ),
        (
            flight_body(9, phase::QUEUE.as_bytes(), 0, &[0xFF, 0xFE]),
            "flight event detail is not UTF-8",
        ),
        (huge, "flight trace count out of bounds"),
        (trailing, "trailing bytes in frame body"),
    ] {
        match decode(&body) {
            Err(ServeError::BadFrame(m)) => assert_eq!(m, why),
            other => panic!("expected a BadFrame ({why}), got {other:?}"),
        }
    }
}

/// Every wire error code maps back to the intended client-side variant:
/// typed wherever a typed variant exists, `Remote` only for the two codes
/// whose local variants hold a `&'static str` — and a typed code whose
/// body does not carry its fields is a `BadFrame`, never a `Remote`.
#[test]
fn every_wire_code_maps_to_the_intended_variant() {
    use protocol::{error_body, error_from_body};
    let decode =
        |code: ErrorCode, fields: &[u8]| error_from_body(&[&[code as u8][..], fields].concat());
    let text = |m: &str| [&(m.len() as u16).to_le_bytes()[..], m.as_bytes()].concat();
    assert!(matches!(decode(ErrorCode::Busy, &[]), Ok(ServeError::Busy)));
    assert!(matches!(
        decode(ErrorCode::TimedOut, &[]),
        Ok(ServeError::TimedOut)
    ));
    assert!(matches!(
        decode(ErrorCode::Shutdown, &[]),
        Ok(ServeError::Shutdown)
    ));
    match decode(ErrorCode::Internal, &text("worker panicked: boom")) {
        Ok(ServeError::Internal(m)) => assert_eq!(m, "worker panicked: boom"),
        other => panic!("got {other:?}"),
    }
    // Unknown ids travel as their eight bytes…
    assert!(matches!(
        decode(ErrorCode::UnknownKey, &0xFEEDu64.to_le_bytes()),
        Ok(ServeError::UnknownKey(0xFEED))
    ));
    assert!(matches!(
        decode(ErrorCode::UnknownMatrix, &0xBEEFu64.to_le_bytes()),
        Ok(ServeError::UnknownMatrix(0xBEEF))
    ));
    // …and a body that is text, not an id, is malformed.
    assert!(matches!(
        decode(ErrorCode::UnknownKey, &text("gone")),
        Err(ServeError::BadFrame(_))
    ));
    // BadFrame/Incompatible carry server-side context only.
    assert!(matches!(
        decode(ErrorCode::BadFrame, &text("truncated")),
        Ok(ServeError::Remote {
            code: ErrorCode::BadFrame,
            ..
        })
    ));
    assert!(matches!(
        decode(ErrorCode::Incompatible, &text("prime chain")),
        Ok(ServeError::Remote {
            code: ErrorCode::Incompatible,
            ..
        })
    ));
    // What the server sends for each typed error decodes to it.
    for e in [
        ServeError::WrongShard {
            epoch: 12,
            shard_index: 1,
            shard_count: 3,
        },
        ServeError::ChunkMismatch {
            matrix_id: 0xAB,
            index: 3,
        },
    ] {
        let back = error_from_body(&error_body(&e)).unwrap();
        assert_eq!(back.to_string(), e.to_string());
    }
}
