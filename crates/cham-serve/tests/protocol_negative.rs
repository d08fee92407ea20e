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

/// The server's per-connection frame bound answers an oversized length
/// prefix with a typed `BadFrame` error frame, then closes — before
/// allocating or reading the promised body.
#[test]
fn server_rejects_oversized_frame_with_typed_error() {
    let p = params();
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&p),
        &ServerConfig {
            max_frame_bytes: 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A well-formed hello first: the bound is per-frame, not per-connection.
    let hello = Hello::for_params(&p);
    protocol::write_frame(&mut stream, FrameKind::Hello, &hello.to_bytes()).unwrap();
    let (kind, _) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Result);

    // Promise a frame past the server's 1 KiB bound (but far under the
    // protocol-wide MAX_FRAME_BYTES, so it is this server's config that
    // rejects it), then watch the typed reply.
    let oversized = 1_000_000u32;
    assert!((oversized as usize) < MAX_FRAME_BYTES);
    stream.write_all(&oversized.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    let (kind, body) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Error);
    let (code, message) = protocol::error_from_body(&body).unwrap();
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("size bound"), "message: {message}");
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
    let (code, message) = protocol::error_from_body(&body).unwrap();
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("deadline_ms"), "message: {message}");
    assert_ne!(DEADLINE_NONE, 0);
    server.shutdown();
}

/// A rogue listener that answers every hello with `reply` and records
/// the revision each one offered. Calling the returned closure stops it
/// (with a `Ping` on a connection of its own, queued behind any attempt
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
        protocol::write_frame(&mut stop, FrameKind::Ping, &[]).unwrap();
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

    // Server side: a raw socket offering a neighbouring revision.
    let server = Server::start("127.0.0.1:0", Arc::clone(&p), &ServerConfig::default()).unwrap();
    for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let hello = Hello {
            version,
            ..Hello::for_params(&p)
        };
        protocol::write_frame(&mut stream, FrameKind::Hello, &hello.to_bytes()).unwrap();
        let (kind, body) = protocol::read_frame(&mut stream).unwrap();
        assert_eq!(kind, FrameKind::Error, "revision {version} was accepted");
        let (code, _) = protocol::error_from_body(&body).unwrap();
        assert_eq!(code, ErrorCode::Incompatible);
    }
    server.shutdown();

    // Client side, refused: exactly one hello, at the one revision.
    let refuse = |stream: &mut TcpStream| {
        let body = protocol::error_body(ErrorCode::Incompatible, "go away");
        protocol::write_frame(stream, FrameKind::Error, &body).unwrap();
    };
    let incompatible = |e: &ServeError| {
        matches!(
            e,
            ServeError::Remote {
                code: ErrorCode::Incompatible,
                ..
            }
        )
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
            workers: 1,
            queue_capacity: 8,
            max_batch: 4,
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

/// Every wire error code maps back to the intended client-side variant —
/// typed where a typed variant exists, `Remote` where only the server
/// has the context.
#[test]
fn every_wire_code_maps_to_the_intended_variant() {
    use protocol::wire_to_error;
    assert!(matches!(
        wire_to_error(ErrorCode::Busy, "queue full".into()),
        ServeError::Busy
    ));
    assert!(matches!(
        wire_to_error(ErrorCode::TimedOut, "deadline".into()),
        ServeError::TimedOut
    ));
    assert!(matches!(
        wire_to_error(ErrorCode::Shutdown, "going away".into()),
        ServeError::Shutdown
    ));
    match wire_to_error(ErrorCode::Internal, "worker panicked: boom".into()) {
        ServeError::Internal(m) => assert_eq!(m, "worker panicked: boom"),
        other => panic!("got {other:?}"),
    }
    // Unknown ids reconstruct typed variants from the canonical message…
    assert!(matches!(
        wire_to_error(ErrorCode::UnknownKey, format!("{:#018x}", 0xFEEDu64)),
        ServeError::UnknownKey(0xFEED)
    ));
    assert!(matches!(
        wire_to_error(ErrorCode::UnknownMatrix, format!("{:#018x}", 0xBEEFu64)),
        ServeError::UnknownMatrix(0xBEEF)
    ));
    // …and degrade to Remote when the message is not an id.
    assert!(matches!(
        wire_to_error(ErrorCode::UnknownKey, "gone".into()),
        ServeError::Remote {
            code: ErrorCode::UnknownKey,
            ..
        }
    ));
    // BadFrame/Incompatible carry server-side context only.
    assert!(matches!(
        wire_to_error(ErrorCode::BadFrame, "truncated".into()),
        ServeError::Remote {
            code: ErrorCode::BadFrame,
            ..
        }
    ));
    assert!(matches!(
        wire_to_error(ErrorCode::Incompatible, "prime chain".into()),
        ServeError::Remote {
            code: ErrorCode::Incompatible,
            ..
        }
    ));
}
