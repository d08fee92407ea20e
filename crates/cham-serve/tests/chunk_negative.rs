//! Wire-level negatives of the chunked upload: oversize chunks,
//! out-of-range indexes, undeclared uploads, checksum and body-hash
//! mismatches, premature commits and a zero shape must come back as
//! *typed* errors before the server commits a byte to its assembly.

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::cache::{content_hash, MatrixBody};
use cham_serve::protocol::{
    self, ErrorCode, FrameKind, Hello, MatrixChunkStart, Response, MAX_CHUNK_BYTES,
};
use cham_serve::server::{Server, ServerConfig};
use cham_serve::{ServeClient, ServeError};
use rand::SeedableRng;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn params() -> &'static Arc<ChamParams> {
    static PARAMS: OnceLock<Arc<ChamParams>> = OnceLock::new();
    PARAMS.get_or_init(|| Arc::new(ChamParams::insecure_test_default().unwrap()))
}

fn start_server() -> Server {
    Server::start(
        "127.0.0.1:0",
        Arc::clone(params()),
        &ServerConfig::default(),
    )
    .unwrap()
}

fn test_matrix(seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::random(4, 32, params().plain_modulus().value(), &mut rng)
}

/// Raw session against a real server: hello exchanged, ready for
/// hand-built chunk frames.
fn raw_connect(server: &Server) -> TcpStream {
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Hello::for_params(params());
    protocol::write_frame(&mut s, FrameKind::Hello, &hello.to_bytes()).unwrap();
    let (kind, _) = protocol::read_frame(&mut s).unwrap();
    assert_eq!(kind, FrameKind::Result);
    s
}

/// Sends one frame and returns the typed error the server answers with.
fn roundtrip_err(s: &mut TcpStream, kind: FrameKind, body: &[u8]) -> (ErrorCode, String) {
    protocol::write_frame(s, kind, body).unwrap();
    let (kind, body) = protocol::read_frame(s).unwrap();
    assert_eq!(kind, FrameKind::Error, "expected a typed error");
    protocol::error_from_body(&body).unwrap()
}

/// An oversize chunk-size declaration is refused before the server
/// allocates the assembly buffer.
#[test]
fn oversize_chunk_declaration_is_rejected_before_allocation() {
    let server = start_server();
    let matrix = test_matrix(0x45);
    let body = protocol::matrix_to_bytes(&matrix);
    let mut s = raw_connect(&server);
    let mut start =
        MatrixChunkStart::new(content_hash(&body), body.len(), MAX_CHUNK_BYTES + 1, 4, 32);
    // Keep the count arithmetically consistent so the size bound is the
    // check that fires.
    start.chunk_count = (body.len() as u64).div_ceil(start.chunk_size as u64) as u32;
    let (code, message) = roundtrip_err(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes());
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("chunk size"), "got {message:?}");
    server.shutdown();
}

/// An oversize chunk *data* frame is refused by the body parser, before
/// placement or checksum work.
#[test]
fn oversize_chunk_data_is_rejected() {
    let server = start_server();
    let mut s = raw_connect(&server);
    let data = vec![0u8; MAX_CHUNK_BYTES + 1];
    let frame = protocol::matrix_chunk_to_bytes(1, 0, content_hash(&data), &data);
    let (code, message) = roundtrip_err(&mut s, FrameKind::MatrixChunk, &frame);
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("MAX_CHUNK_BYTES"), "got {message:?}");
    server.shutdown();
}

/// A chunk whose index is outside the declared range is refused without
/// touching the assembly.
#[test]
fn out_of_range_chunk_index_is_rejected() {
    let server = start_server();
    let matrix = test_matrix(0x46);
    let body = protocol::matrix_to_bytes(&matrix);
    let matrix_id = content_hash(&body);
    let start = MatrixChunkStart::new(matrix_id, body.len(), 64, 4, 32);
    let mut s = raw_connect(&server);
    protocol::write_frame(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes()).unwrap();
    let _ = protocol::read_frame(&mut s).unwrap();
    let data = &body[..64];
    let frame =
        protocol::matrix_chunk_to_bytes(matrix_id, start.chunk_count, content_hash(data), data);
    let (code, message) = roundtrip_err(&mut s, FrameKind::MatrixChunk, &frame);
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("index"), "got {message:?}");
    server.shutdown();
}

/// A `(0, 0)` shape once declared a body of `[id][NTT-form encoding]`
/// that the commit installed under whatever id it named — an encoding
/// no content hash can be checked against. Replaying that exact
/// exchange against an id another connection uploaded must be refused
/// at the start, and the owner's next HMVP must still compute `A·v`.
#[test]
fn zero_shape_upload_cannot_overwrite_another_matrix() {
    let p = params();
    let server = start_server();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4F);
    let sk = SecretKey::generate(p, &mut rng);
    let gkeys = GaloisKeys::generate_for_packing(&sk, p.max_pack_log(), &mut rng).unwrap();
    let indices: Vec<usize> = (1..=p.max_pack_log()).map(|j| (1usize << j) + 1).collect();
    let hmvp = Hmvp::from_arc(Arc::clone(p));
    let t = p.plain_modulus();
    let a = test_matrix(0x50);
    let b = test_matrix(0x51);
    let v: Vec<u64> = (0..a.cols() as u64)
        .map(|i| (3 * i + 1) % t.value())
        .collect();
    let cts = hmvp
        .encrypt_vector(&v, &Encryptor::new(p, &sk), &mut rng)
        .unwrap();

    // Connection 1 uploads A.
    let mut owner = ServeClient::connect(server.local_addr(), Arc::clone(p)).unwrap();
    let key_id = owner.load_keys(&gkeys, &indices).unwrap();
    let id_a = owner.load_matrix(&a).unwrap();

    // Connection 2 replays the segment-mode exchange: B's encoding
    // behind A's id, declared with the zero shape.
    let mut body = id_a.to_le_bytes().to_vec();
    body.extend(cham_he::wire::encoded_matrix_to_bytes(&hmvp.encode_matrix(&b).unwrap()).unwrap());
    let upload_id = content_hash(&body);
    let chunk_bytes = 1 << 16;
    let start = MatrixChunkStart::new(upload_id, body.len(), chunk_bytes, 0, 0);
    let mut s = raw_connect(&server);
    protocol::write_frame(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes()).unwrap();
    let (kind, reply) = protocol::read_frame(&mut s).unwrap();
    let refused = match kind {
        FrameKind::Error => Some(protocol::error_from_body(&reply).unwrap()),
        _ => {
            // Accepted: finish the exchange, so the check below sees
            // what a finished one does.
            for (index, data) in body.chunks(chunk_bytes).enumerate() {
                let frame = protocol::matrix_chunk_to_bytes(
                    upload_id,
                    index as u32,
                    content_hash(data),
                    data,
                );
                protocol::write_frame(&mut s, FrameKind::MatrixChunk, &frame).unwrap();
                let _ = protocol::read_frame(&mut s).unwrap();
            }
            let commit = protocol::matrix_chunk_commit_to_bytes(upload_id);
            protocol::write_frame(&mut s, FrameKind::MatrixChunkCommit, &commit).unwrap();
            let _ = protocol::read_frame(&mut s).unwrap();
            None
        }
    };

    let result = owner.hmvp(key_id, id_a, &cts, None).unwrap();
    let got = hmvp
        .decrypt_result(&result, &Decryptor::new(p, &sk))
        .unwrap();
    assert_eq!(
        got,
        a.mul_vector_mod(&v, t).unwrap(),
        "id_A no longer multiplies by A"
    );
    let (code, message) = refused.expect("the zero-shape start was accepted");
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("empty matrix"), "got {message:?}");
    server.shutdown();
}

/// A chunk for an upload nobody declared is refused — there is no
/// assembly to write into.
#[test]
fn chunk_for_undeclared_upload_is_rejected() {
    let server = start_server();
    let mut s = raw_connect(&server);
    let data = [7u8; 32];
    let frame = protocol::matrix_chunk_to_bytes(0xDEAD, 0, content_hash(&data), &data);
    let (code, message) = roundtrip_err(&mut s, FrameKind::MatrixChunk, &frame);
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("undeclared"), "got {message:?}");
    server.shutdown();
}

/// A chunk whose checksum disagrees with its bytes earns the typed
/// `ChunkMismatch` carrying the exact chunk index — and the upload
/// recovers on the same connection by re-sending just that chunk.
#[test]
fn checksum_mismatch_is_typed_and_recoverable() {
    let server = start_server();
    let matrix = test_matrix(0x47);
    let body = protocol::matrix_to_bytes(&matrix);
    let matrix_id = content_hash(&body);
    let chunk_bytes = 64usize;
    let start = MatrixChunkStart::new(matrix_id, body.len(), chunk_bytes, 4, 32);
    let mut s = raw_connect(&server);
    protocol::write_frame(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes()).unwrap();
    let _ = protocol::read_frame(&mut s).unwrap();

    // Chunk 1 arrives with a checksum computed over different bytes.
    let data = &body[chunk_bytes..2 * chunk_bytes];
    let bad = protocol::matrix_chunk_to_bytes(matrix_id, 1, content_hash(data) ^ 1, data);
    let (code, message) = roundtrip_err(&mut s, FrameKind::MatrixChunk, &bad);
    assert_eq!(code, ErrorCode::ChunkMismatch);
    // The message round-trips to the typed form with the chunk index.
    match protocol::wire_to_error(code, message) {
        ServeError::ChunkMismatch {
            matrix_id: id,
            index,
        } => {
            assert_eq!(id, matrix_id);
            assert_eq!(index, 1);
        }
        other => panic!("expected typed ChunkMismatch, got {other:?}"),
    }

    // Non-BadFrame errors keep the connection: finish the upload here.
    for index in 0..start.chunk_count {
        let off = index as usize * chunk_bytes;
        let data = &body[off..(off + chunk_bytes).min(body.len())];
        let frame = protocol::matrix_chunk_to_bytes(matrix_id, index, content_hash(data), data);
        protocol::write_frame(&mut s, FrameKind::MatrixChunk, &frame).unwrap();
        let (kind, _) = protocol::read_frame(&mut s).unwrap();
        assert_eq!(kind, FrameKind::Result);
    }
    protocol::write_frame(
        &mut s,
        FrameKind::MatrixChunkCommit,
        &protocol::matrix_chunk_commit_to_bytes(matrix_id),
    )
    .unwrap();
    let (kind, resp) = protocol::read_frame(&mut s).unwrap();
    assert_eq!(kind, FrameKind::Result);
    assert!(matches!(
        Response::from_bytes(&resp, params()).unwrap(),
        Response::MatrixLoaded { .. }
    ));
    server.shutdown();
}

/// A commit whose reassembled bytes hash to something other than the
/// declared id earns `ChunkMismatch` with the whole-body sentinel, and
/// the lying assembly is dropped rather than committed.
#[test]
fn commit_body_hash_mismatch_is_typed_with_sentinel_index() {
    assert_lying_id_commit_refused(64, false);
}

/// The same lie in one chunk: the server hashes the whole body while it
/// checks that chunk, and the commit has nothing left to fold.
#[test]
fn lying_id_commit_is_refused_as_a_single_chunk() {
    let len = protocol::matrix_to_bytes(&test_matrix(0x48)).len();
    assert_lying_id_commit_refused(len, false);
}

/// The same lie with the chunks sent last to first: only the final chunk
/// lands where the body hash stands, and the commit folds the rest.
#[test]
fn lying_id_commit_is_refused_with_chunks_in_reverse_order() {
    assert_lying_id_commit_refused(64, true);
}

/// Uploads an honest body under a declared id it does not hash to —
/// every per-chunk checksum honest — and checks the commit is refused
/// with the whole-body sentinel and the assembly dropped.
fn assert_lying_id_commit_refused(chunk_bytes: usize, reverse: bool) {
    let server = start_server();
    let matrix = test_matrix(0x48);
    let body = protocol::matrix_to_bytes(&matrix);
    // Declare a content id the body will not hash to.
    let lying_id = content_hash(&body) ^ 0xFF;
    let start = MatrixChunkStart::new(lying_id, body.len(), chunk_bytes, 4, 32);
    let mut s = raw_connect(&server);
    protocol::write_frame(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes()).unwrap();
    let _ = protocol::read_frame(&mut s).unwrap();
    let mut order: Vec<u32> = (0..start.chunk_count).collect();
    if reverse {
        order.reverse();
    }
    for index in order {
        let off = index as usize * chunk_bytes;
        let data = &body[off..(off + chunk_bytes).min(body.len())];
        // Per-chunk checksums are honest; only the declared id lies.
        let frame = protocol::matrix_chunk_to_bytes(lying_id, index, content_hash(data), data);
        protocol::write_frame(&mut s, FrameKind::MatrixChunk, &frame).unwrap();
        let (kind, _) = protocol::read_frame(&mut s).unwrap();
        assert_eq!(kind, FrameKind::Result);
    }
    let (code, message) = roundtrip_err(
        &mut s,
        FrameKind::MatrixChunkCommit,
        &protocol::matrix_chunk_commit_to_bytes(lying_id),
    );
    assert_eq!(code, ErrorCode::ChunkMismatch);
    match protocol::wire_to_error(code, message) {
        ServeError::ChunkMismatch { matrix_id, index } => {
            assert_eq!(matrix_id, lying_id);
            assert_eq!(index, protocol::CHUNK_INDEX_NONE);
        }
        other => panic!("expected typed ChunkMismatch, got {other:?}"),
    }
    // The assembly is gone: a retry must redeclare from scratch.
    let (code, _) = roundtrip_err(
        &mut s,
        FrameKind::MatrixChunkCommit,
        &protocol::matrix_chunk_commit_to_bytes(lying_id),
    );
    // No assembly and no cached matrix under the lying id.
    assert_eq!(code, ErrorCode::UnknownMatrix);
    assert_eq!(server.cache().lens().1, 0);
    server.shutdown();
}

/// Committing before every chunk arrived is refused, and the assembly
/// survives so the client can finish rather than restart.
#[test]
fn premature_commit_keeps_the_assembly() {
    let server = start_server();
    let matrix = test_matrix(0x49);
    let body = protocol::matrix_to_bytes(&matrix);
    let matrix_id = content_hash(&body);
    let chunk_bytes = 64usize;
    let start = MatrixChunkStart::new(matrix_id, body.len(), chunk_bytes, 4, 32);
    let mut s = raw_connect(&server);
    protocol::write_frame(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes()).unwrap();
    let _ = protocol::read_frame(&mut s).unwrap();
    // Send only chunk 0, then commit too early. BadFrame closes this
    // connection, but the assembly must survive server-side.
    let data = &body[..chunk_bytes];
    let frame = protocol::matrix_chunk_to_bytes(matrix_id, 0, content_hash(data), data);
    protocol::write_frame(&mut s, FrameKind::MatrixChunk, &frame).unwrap();
    let _ = protocol::read_frame(&mut s).unwrap();
    let (code, message) = roundtrip_err(
        &mut s,
        FrameKind::MatrixChunkCommit,
        &protocol::matrix_chunk_commit_to_bytes(matrix_id),
    );
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("commit"), "got {message:?}");
    drop(s);

    // A resuming client on a fresh connection skips chunk 0.
    let mut client = ServeClient::connect(server.local_addr(), Arc::clone(params())).unwrap();
    let up = client.load_matrix_streamed(&matrix, chunk_bytes).unwrap();
    assert_eq!(up.chunks_skipped, 1);
    assert_eq!(up.chunks_sent, start.chunk_count - 1);
    server.shutdown();
}

/// A half-filled assembly must not block anyone else: once the matrix is
/// resident by another route (a second uploader finished first), a fresh
/// upload of it sees "already here" at `Start` and must be able to commit
/// — not be refused on behalf of the pending assembly. The assembly is
/// not torn out from under its own uploader either: a late chunk from it
/// is still acknowledged.
#[test]
fn stale_assembly_does_not_block_a_resident_matrix() {
    let server = start_server();
    let matrix = test_matrix(0x4A);
    let body = protocol::matrix_to_bytes(&matrix);
    let matrix_id = content_hash(&body);
    let start = MatrixChunkStart::new(matrix_id, body.len(), 64, 4, 32);
    // One uploader declares and stalls...
    let mut s = raw_connect(&server);
    protocol::write_frame(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes()).unwrap();
    let _ = protocol::read_frame(&mut s).unwrap();
    // ...while the content lands in the cache without it.
    assert_eq!(
        server
            .cache()
            .put_matrix(MatrixBody::new(body.clone()), &matrix)
            .unwrap(),
        matrix_id
    );

    let mut client = ServeClient::connect(server.local_addr(), Arc::clone(params())).unwrap();
    let up = client.load_matrix_streamed(&matrix, 64).unwrap();
    assert_eq!((up.matrix_id, up.chunks_sent), (matrix_id, 0));

    let data = &body[..64];
    let frame = protocol::matrix_chunk_to_bytes(matrix_id, 0, content_hash(data), data);
    protocol::write_frame(&mut s, FrameKind::MatrixChunk, &frame).unwrap();
    let (kind, _) = protocol::read_frame(&mut s).unwrap();
    assert_eq!(kind, FrameKind::Result);
    server.shutdown();
}

/// Pending uploads are bounded: past `max_pending_uploads` a fresh
/// declaration is answered `Busy` until an assembly has sat idle past
/// `upload_idle_reap`; then the least recently touched one is reaped
/// (and counted), its chunks are refused, and the others resume intact.
#[test]
fn pending_uploads_are_bounded_and_idle_ones_reaped() {
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(params()),
        &ServerConfig {
            max_pending_uploads: 2,
            upload_idle_reap: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let uploads: Vec<(Vec<u8>, MatrixChunkStart)> = (0..3)
        .map(|i| {
            let body = protocol::matrix_to_bytes(&test_matrix(0x4B + i));
            let start = MatrixChunkStart::new(content_hash(&body), body.len(), 64, 4, 32);
            (body, start)
        })
        .collect();
    let ack = |s: &mut TcpStream, kind: FrameKind, body: &[u8]| -> Vec<u8> {
        protocol::write_frame(s, kind, body).unwrap();
        let (kind, resp) = protocol::read_frame(s).unwrap();
        assert_eq!(kind, FrameKind::Result, "expected an ack");
        match Response::from_bytes(&resp, params()).unwrap() {
            Response::ChunkAck { bitmap, .. } => bitmap,
            other => panic!("expected ChunkAck, got {other:?}"),
        }
    };
    let chunk0 = |(body, start): &(Vec<u8>, MatrixChunkStart)| {
        protocol::matrix_chunk_to_bytes(start.matrix_id, 0, content_hash(&body[..64]), &body[..64])
    };

    // Two fresh declarations fill the table, each with chunk 0 landed;
    // the first is the least recently touched.
    let mut s = raw_connect(&server);
    for upload in &uploads[..2] {
        ack(&mut s, FrameKind::MatrixChunkStart, &upload.1.to_bytes());
        ack(&mut s, FrameKind::MatrixChunk, &chunk0(upload));
    }
    let (code, _) = roundtrip_err(
        &mut s,
        FrameKind::MatrixChunkStart,
        &uploads[2].1.to_bytes(),
    );
    assert_eq!(code, ErrorCode::Busy);
    assert_eq!(server.introspect().stats.reaped_uploads, 0);

    // Once both sit idle past the reap age, the third declaration takes
    // the oldest one's slot.
    std::thread::sleep(Duration::from_millis(150));
    let bitmap = ack(
        &mut s,
        FrameKind::MatrixChunkStart,
        &uploads[2].1.to_bytes(),
    );
    assert!(bitmap.iter().all(|&b| b == 0));
    assert_eq!(server.introspect().stats.reaped_uploads, 1);

    let (code, message) = roundtrip_err(&mut s, FrameKind::MatrixChunk, &chunk0(&uploads[0]));
    assert_eq!(code, ErrorCode::BadFrame);
    assert!(message.contains("undeclared"), "got {message:?}");

    // The survivor resumes with its landed chunk on a fresh connection.
    let mut s = raw_connect(&server);
    let bitmap = ack(
        &mut s,
        FrameKind::MatrixChunkStart,
        &uploads[1].1.to_bytes(),
    );
    assert!(protocol::bitmap_get(&bitmap, 0));
    assert!(!protocol::bitmap_get(&bitmap, 1));
    server.shutdown();
}
